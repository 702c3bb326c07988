//! Determinism regression tests for the parallel hot paths: the same
//! `OrcoConfig` + seed must produce bit-identical results whether the
//! GEMM kernels and the multi-cluster coordinator run on 1 thread or many.
//!
//! Everything lives in one `#[test]` because the thread budget
//! (`orco_tensor::parallel::set_threads`) is process-global state.

use orcodcs_repro::core::multi_cluster::{EdgeSchedule, MultiClusterCoordinator};
use orcodcs_repro::core::{AsymmetricAutoencoder, ExperimentBuilder, OrcoConfig, Report};
use orcodcs_repro::datasets::{mnist_like, Dataset, DatasetKind};
use orcodcs_repro::tensor::{parallel, Matrix, OrcoRng};
use orcodcs_repro::wsn::NetworkConfig;

fn random_matrix(rows: usize, cols: usize, rng: &mut OrcoRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0))
}

#[test]
fn results_are_bit_identical_across_thread_counts() {
    // --- GEMM kernels: 1 thread vs several, including ragged shapes that
    // exercise uneven row blocks and partial tiles.
    let mut rng = OrcoRng::from_label("thread-det", 0);
    // The last three straddle `matmul_t`'s packed 32×128 panel: one short
    // of an edge, one past it, and several panels with ragged remainders.
    let shapes = [
        (1usize, 1usize, 1usize),
        (7, 5, 3),
        (33, 17, 9),
        (128, 96, 64),
        (257, 130, 67),
        (19, 31, 127),
        (35, 33, 129),
        (70, 97, 300),
    ];
    for &(m, k, n) in &shapes {
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        let at = random_matrix(k, m, &mut rng);
        let bt = random_matrix(n, k, &mut rng);

        parallel::set_threads(1);
        let mm1 = a.matmul(&b);
        let tm1 = at.t_matmul(&b);
        let matmul_t = || {
            let mut out = Matrix::zeros(m, n);
            a.as_view().matmul_t_into(bt.as_view(), out.as_view_mut());
            out
        };
        let mt1 = matmul_t();
        for threads in [2, 4, 8] {
            parallel::set_threads(threads);
            assert_eq!(mm1, a.matmul(&b), "matmul {m}x{k}x{n} diverged at {threads} threads");
            assert_eq!(tm1, at.t_matmul(&b), "t_matmul {m}x{k}x{n} diverged at {threads} threads");
            assert_eq!(mt1, matmul_t(), "matmul_t {m}x{k}x{n} diverged at {threads} threads");
        }
        parallel::set_threads(0);
    }

    // --- Full training pipeline: same config + seed ⇒ identical
    // TrainingHistory at 1 vs N threads.
    let dataset = mnist_like::generate(24, 7);
    let config = OrcoConfig::for_dataset(DatasetKind::MnistLike)
        .with_latent_dim(24)
        .with_epochs(2)
        .with_batch_size(8);

    let run_pipeline = |dataset: &Dataset, config: &OrcoConfig| -> Report {
        let codec = AsymmetricAutoencoder::new(config).expect("valid config");
        ExperimentBuilder::new()
            .dataset(dataset)
            .codec(codec)
            .epochs(config.epochs)
            .batch_size(config.batch_size)
            .seed(config.seed)
            .build()
            .expect("consistent experiment")
            .run()
            .expect("pipeline runs")
    };
    parallel::set_threads(1);
    let serial = run_pipeline(&dataset, &config);
    parallel::set_threads(4);
    let threaded = run_pipeline(&dataset, &config);
    parallel::set_threads(0);

    assert_eq!(serial.final_loss, threaded.final_loss);
    assert_eq!(serial.sim_time_s, threaded.sim_time_s);
    assert_eq!(serial.data_plane.unwrap().total_bytes, threaded.data_plane.unwrap().total_bytes);
    assert_eq!(serial.rounds.len(), threaded.rounds.len());
    for (i, (a, b)) in serial.rounds.iter().zip(&threaded.rounds).enumerate() {
        assert_eq!(a, b, "round {i} diverged between 1 and 4 threads");
    }

    // --- Multi-cluster coordinator: concurrent per-cluster rounds must
    // reproduce the serial schedule exactly (losses, waits, makespan).
    let run_coordinator = || {
        let configs: Vec<OrcoConfig> = (0..3)
            .map(|_| {
                OrcoConfig::for_dataset(DatasetKind::MnistLike)
                    .with_latent_dim(16)
                    .with_epochs(1)
                    .with_batch_size(8)
            })
            .collect();
        let datasets: Vec<Dataset> = (0..3).map(|i| mnist_like::generate(8, i as u64)).collect();
        let net = NetworkConfig { num_devices: 8, seed: 0, ..Default::default() };
        let mut coord = MultiClusterCoordinator::new(&configs, &net, EdgeSchedule::LossPriority)
            .expect("valid configs");
        coord.train(&datasets, 4).expect("multi-cluster run")
    };

    parallel::set_threads(1);
    let serial_mc = run_coordinator();
    parallel::set_threads(4);
    let threaded_mc = run_coordinator();
    parallel::set_threads(0);

    assert_eq!(serial_mc.makespan_s, threaded_mc.makespan_s);
    assert_eq!(serial_mc.edge_busy_s, threaded_mc.edge_busy_s);
    for (a, b) in serial_mc.reports.iter().zip(&threaded_mc.reports) {
        assert_eq!(a.final_loss, b.final_loss, "cluster {} loss diverged", a.cluster);
        assert_eq!(a.sim_time_s, b.sim_time_s, "cluster {} clock diverged", a.cluster);
        assert_eq!(a.edge_wait_s, b.edge_wait_s, "cluster {} wait diverged", a.cluster);
        assert_eq!(a.rounds, b.rounds);
    }
}
