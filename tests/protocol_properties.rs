//! Property-based integration tests over the OrcoDCS protocol and its
//! substrates, using proptest across crate boundaries.

use orcodcs_repro::core::{EncoderColumns, OrcoConfig, OrcoError};
use orcodcs_repro::datasets::DatasetKind;
use orcodcs_repro::nn::Loss;
use orcodcs_repro::tensor::{Matrix, OrcoRng};
use orcodcs_repro::wsn::{AggregationTree, ChainSchedule, NodeId, Point, RadioModel};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The paper's vector Huber (eq. 4) is sandwiched between scaled L1 and
    /// L2 losses and is non-negative, zero iff the reconstruction is exact.
    #[test]
    fn vector_huber_bounds(
        vals in prop::collection::vec(-1.0f32..1.0, 8),
        delta in 0.1f32..5.0,
    ) {
        let pred = Matrix::from_vec(1, vals.len(), vals.clone()).unwrap();
        let target = Matrix::zeros(1, vals.len());
        let vh = Loss::VectorHuber { delta }.value(&pred, &target);
        prop_assert!(vh >= 0.0);
        // Linear branch never exceeds δ·L1/(n·cols); quadratic never exceeds ½L2².
        let l1: f32 = vals.iter().map(|v| v.abs()).sum();
        let l2sq: f32 = vals.iter().map(|v| v * v).sum();
        let n = vals.len() as f32;
        let upper = (0.5 * l2sq / n).max(delta * l1 / n);
        prop_assert!(vh <= upper + 1e-5, "vh={vh} upper={upper}");
        if l1 == 0.0 {
            prop_assert_eq!(vh, 0.0);
        }
    }

    /// Device `i`'s share is column `i` of the encoder, for any encoder
    /// shape: a frame that reads 1 at device `i` and 0 elsewhere folds to
    /// exactly that column.
    #[test]
    fn encoder_split_shares_are_columns(m in 1usize..12, n in 1usize..24, seed in 0u64..500) {
        let mut rng = OrcoRng::from_seed_u64(seed);
        let w = Matrix::from_fn(m, n, |_, _| rng.uniform(-2.0, 2.0));
        let b = Matrix::from_fn(1, m, |_, _| rng.uniform(-1.0, 1.0));
        let cols = EncoderColumns::split(&w, &b);
        let order: Vec<usize> = (0..n).collect();
        for i in 0..n {
            let one_hot: Vec<f32> = (0..n).map(|k| if k == i { 1.0 } else { 0.0 }).collect();
            let share = cols.chain_partial_sum(&one_hot, &order).expect("valid order");
            prop_assert_eq!(share, w.col(i));
        }
    }

    /// A chain order must visit every device exactly once: one that
    /// repeats a device (and so drops another) or omits one is refused,
    /// instead of counting a reading twice or not at all.
    #[test]
    fn chain_orders_that_repeat_or_omit_a_device_are_refused(
        n in 2usize..20,
        seed in 0u64..500,
    ) {
        let mut rng = OrcoRng::from_seed_u64(seed);
        let w = Matrix::from_fn(3, n, |_, _| rng.uniform(-1.0, 1.0));
        let cols = EncoderColumns::split(&w, &Matrix::zeros(1, 3));
        let readings: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let at = (rng.next_u64() as usize) % n;
        let mut repeated = order.clone();
        repeated[at] = order[(at + 1) % n];
        let is_config = |r: Result<Vec<f32>, OrcoError>| matches!(r, Err(OrcoError::Config { .. }));
        prop_assert!(is_config(cols.chain_partial_sum(&readings, &repeated)), "{:?}", repeated);
        let mut omitted = order.clone();
        omitted.remove(at);
        prop_assert!(is_config(cols.chain_partial_sum(&readings, &omitted)), "{:?}", omitted);
        prop_assert!(cols.chain_partial_sum(&readings, &order).is_ok());
    }

    /// Chain-order invariance: any permutation of devices produces the same
    /// latent vector (within f32 tolerance).
    #[test]
    fn chain_order_invariance(n in 2usize..20, seed in 0u64..500) {
        let mut rng = OrcoRng::from_seed_u64(seed);
        let m = 4usize;
        let w = Matrix::from_fn(m, n, |_, _| rng.uniform(-1.0, 1.0));
        let b = Matrix::from_fn(1, m, |_, _| rng.uniform(-0.5, 0.5));
        let cols = EncoderColumns::split(&w, &b);
        let readings: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let forward: Vec<usize> = (0..n).collect();
        let mut shuffled = forward.clone();
        rng.shuffle(&mut shuffled);
        let a = cols.finish_at_aggregator(&cols.chain_partial_sum(&readings, &forward).unwrap());
        let c = cols.finish_at_aggregator(&cols.chain_partial_sum(&readings, &shuffled).unwrap());
        for (x, y) in a.iter().zip(&c) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// §III-C end-to-end invariant: distributing the encoder column-wise to
    /// the devices and aggregating partial sums along a chain reconstructs
    /// exactly the latent vector the centralized encoder σ(Wx + b) computes,
    /// for any encoder shape, any weights, and any chain order.
    #[test]
    fn distributed_chain_encode_equals_centralized(
        m in 1usize..16,
        n in 1usize..48,
        seed in 0u64..2000,
    ) {
        use orcodcs_repro::nn::Activation;

        let mut rng = OrcoRng::from_seed_u64(seed);
        let w = Matrix::from_fn(m, n, |_, _| rng.uniform(-2.0, 2.0));
        let b = Matrix::from_fn(1, m, |_, _| rng.uniform(-1.0, 1.0));
        let readings: Vec<f32> = (0..n).map(|_| rng.uniform(-3.0, 3.0)).collect();

        // Centralized: the aggregator owning the whole encoder.
        let mut wx = vec![0.0; m];
        w.matvec_into(&readings, &mut wx);
        let central: Vec<f32> = wx
            .iter()
            .zip(b.row(0))
            .map(|(s, bias)| Activation::Sigmoid.apply(s + bias))
            .collect();

        // Distributed: one column per device, summed along a random chain.
        let cols = EncoderColumns::split(&w, &b);
        prop_assert_eq!(cols.num_devices(), n);
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let partial = cols.chain_partial_sum(&readings, &order).expect("valid order");
        let latent = cols.finish_at_aggregator(&partial);

        prop_assert_eq!(latent.len(), central.len());
        for (i, (d, c)) in latent.iter().zip(&central).enumerate() {
            prop_assert!(
                (d - c).abs() < 1e-4,
                "element {}: distributed {} vs centralized {} (m={}, n={})", i, d, c, m, n
            );
        }
    }

    /// Aggregation trees span all nodes, stay acyclic, and survive the
    /// removal of any non-root node.
    #[test]
    fn tree_invariants_under_failure(n in 3usize..30, kill in 1usize..29, seed in 0u64..500) {
        prop_assume!(kill < n);
        let mut rng = OrcoRng::from_seed_u64(seed);
        let nodes: Vec<(NodeId, Point)> = (0..n)
            .map(|i| (NodeId(i), Point::new(rng.uniform(0.0, 100.0) as f64, rng.uniform(0.0, 100.0) as f64)))
            .collect();
        let mut tree = AggregationTree::build(NodeId(0), &nodes).unwrap();
        prop_assert!(tree.check_invariants());
        prop_assert_eq!(tree.len(), n);
        tree.remove_and_reparent(NodeId(kill)).unwrap();
        prop_assert!(tree.check_invariants());
        prop_assert_eq!(tree.len(), n - 1);
        // Every survivor still reaches the root.
        for i in 1..n {
            if i != kill {
                let _ = tree.hops_to_root(NodeId(i));
            }
        }
    }

    /// The chain visits every device exactly once regardless of layout.
    #[test]
    fn chain_is_a_permutation(n in 1usize..40, seed in 0u64..500) {
        let mut rng = OrcoRng::from_seed_u64(seed);
        let devices: Vec<(NodeId, Point)> = (0..n)
            .map(|i| (NodeId(i), Point::new(rng.uniform(0.0, 50.0) as f64, rng.uniform(0.0, 50.0) as f64)))
            .collect();
        let chain = ChainSchedule::greedy_nearest(&devices, Point::new(25.0, 25.0));
        let mut ids: Vec<usize> = chain.order().iter().map(|d| d.0).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..n).collect::<Vec<_>>());
    }

    /// Radio energy is monotone in both payload size and distance.
    #[test]
    fn radio_energy_monotonicity(
        bytes_a in 1u64..10_000,
        bytes_b in 1u64..10_000,
        d_a in 0.0f64..200.0,
        d_b in 0.0f64..200.0,
    ) {
        let radio = RadioModel::default();
        if bytes_a <= bytes_b {
            prop_assert!(radio.tx_energy_j(bytes_a, d_a) <= radio.tx_energy_j(bytes_b, d_a));
            prop_assert!(radio.rx_energy_j(bytes_a) <= radio.rx_energy_j(bytes_b));
        }
        if d_a <= d_b {
            prop_assert!(radio.tx_energy_j(bytes_a, d_a) <= radio.tx_energy_j(bytes_a, d_b));
        }
    }

    /// The compression ratio is `N / M` for any latent.
    #[test]
    fn config_compression_ratio(m in 1usize..2000) {
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(m);
        prop_assert!((cfg.compression_ratio() - 784.0 / m as f32).abs() < 1e-3);
    }
}
