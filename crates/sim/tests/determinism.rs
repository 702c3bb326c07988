//! Determinism properties of the discrete-event simulator.
//!
//! 1. **Event-order invariance**: the queue's pop order is a function of
//!    the `(time, tie)` keys alone — scheduling the same distinct-keyed
//!    event set in any insertion order pops identically.
//! 2. **Replay determinism**: driving the same deployment, parameters,
//!    scenario, and seed twice reproduces byte counts, energy totals,
//!    latency percentiles, and the simulated clock bit for bit.
//! 3. **Pinned round ledgers**: a few fixed rounds, on both backends, end
//!    on ledger digests recorded as literals, so a change to the round
//!    schedule shows even where both backends change together.

use proptest::prelude::*;

use orco_sim::{DesNetwork, EventQueue, MacMode, Scenario, SimParams, SimSpec};
use orco_wsn::{DeploymentBackend, Network, NetworkConfig, WsnError};

/// Clock bits, tx and rx bytes, tx energy bits, delivered, dropped and
/// retransmitted counts, airtime bits, and the p50 and p99 latency bits.
type Digest = (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64);

fn digest(des: &(impl DeploymentBackend + ?Sized)) -> Digest {
    let stats = des.accounting().link_stats();
    let nodes = des.devices().iter().copied().chain([des.aggregator(), des.edge()]);
    (
        des.now_s().to_bits(),
        des.accounting().total_tx_bytes(),
        nodes.map(|id| des.accounting().node(id).rx_bytes).sum(),
        des.accounting().total_tx_energy_j().to_bits(),
        stats.delivered_packets,
        stats.dropped_packets,
        stats.retransmitted_frames,
        stats.airtime_s.to_bits(),
        stats.latency_p50_s.to_bits(),
        stats.latency_p99_s.to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn event_pop_order_is_invariant_under_insertion_order(
        raw in prop::collection::vec((0u32..500, 0u64..16), 2..40),
        swap_seed in 0u64..1000,
    ) {
        // Distinct (time, tie) keys: the queue's contract says nothing
        // about exact duplicates beyond scheduling order.
        let mut keys: Vec<(u32, u64)> = raw.clone();
        keys.sort_unstable();
        keys.dedup();

        let mut forward = EventQueue::new();
        for (t, tie) in &keys {
            forward.schedule(f64::from(*t) * 0.01, *tie, (*t, *tie));
        }

        // A deterministic shuffle of the same key set.
        let mut shuffled_keys = keys.clone();
        let mut rng = orco_tensor::OrcoRng::from_seed_u64(swap_seed);
        rng.shuffle(&mut shuffled_keys);
        let mut shuffled = EventQueue::new();
        for (t, tie) in &shuffled_keys {
            shuffled.schedule(f64::from(*t) * 0.01, *tie, (*t, *tie));
        }

        let a: Vec<_> = std::iter::from_fn(|| forward.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| shuffled.pop()).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn replaying_the_same_scenario_and_seed_is_bit_identical(
        seed in 0u64..50,
        devices in 3usize..10,
        mac_pick in 0u32..3,
        loss_pct in 0u32..40,
        kill_index in 0usize..3,
    ) {
        let mac = match mac_pick {
            0 => MacMode::Sequential,
            1 => MacMode::Fifo,
            _ => MacMode::Tdma { slot_s: 0.02 },
        };
        let spec = SimSpec {
            params: SimParams { mac, ..SimParams::ideal() },
            scenario: Scenario::new()
                .degrade_sensor_link(0.05..0.5, f64::from(loss_pct) / 100.0)
                .kill_at(0.3, kill_index)
                .burst_at(0.1, kill_index, 64, 2),
        };
        let run = || {
            let mut des = DesNetwork::new(
                NetworkConfig { num_devices: devices, seed, ..Default::default() },
                spec.clone(),
            );
            for _ in 0..4 {
                des.raw_aggregation_round(8).expect("round runs");
                des.compressed_aggregation_round(64, 100).expect("round runs");
            }
            des.broadcast_encoder_columns(32).expect("round runs");
            digest(&des)
        };
        prop_assert_eq!(run(), run());
    }
}

#[test]
fn concurrent_modes_overlap_computation() {
    // The event-driven chain round overlaps per-device computation that
    // the sequential schedule serializes; with heavy per-device compute
    // the concurrent round must finish strictly earlier.
    let config = || NetworkConfig { num_devices: 16, seed: 0, ..Default::default() };
    let mut seq = DesNetwork::new(config(), SimSpec::ideal());
    let mut fifo = DesNetwork::new(
        config(),
        SimSpec {
            params: SimParams { mac: MacMode::Fifo, ..SimParams::ideal() },
            ..Default::default()
        },
    );
    let flops = 5_000_000; // 0.1 s per device at 50 MFLOP/s
    let t_seq = seq.compressed_aggregation_round(256, flops).unwrap();
    let t_fifo = fifo.compressed_aggregation_round(256, flops).unwrap();
    assert!(
        t_fifo < t_seq * 0.5,
        "concurrent compute should collapse the round: fifo {t_fifo:.3}s vs seq {t_seq:.3}s"
    );
    // Same physics: identical bytes and energy either way.
    assert_eq!(seq.accounting().total_tx_bytes(), fifo.accounting().total_tx_bytes());
    assert_eq!(
        seq.accounting().total_tx_energy_j().to_bits(),
        fifo.accounting().total_tx_energy_j().to_bits()
    );
}

#[test]
fn tdma_slotting_stretches_rounds_but_moves_the_same_bytes() {
    let config = || NetworkConfig { num_devices: 8, seed: 1, ..Default::default() };
    let mut fifo = DesNetwork::new(
        config(),
        SimSpec {
            params: SimParams { mac: MacMode::Fifo, ..SimParams::ideal() },
            ..Default::default()
        },
    );
    let mut tdma = DesNetwork::new(
        config(),
        SimSpec {
            params: SimParams { mac: MacMode::Tdma { slot_s: 0.05 }, ..SimParams::ideal() },
            ..Default::default()
        },
    );
    let t_fifo = fifo.raw_aggregation_round(16).unwrap();
    let t_tdma = tdma.raw_aggregation_round(16).unwrap();
    assert!(t_tdma > t_fifo, "slot alignment costs time: tdma {t_tdma:.3}s vs fifo {t_fifo:.3}s");
    assert_eq!(fifo.accounting().total_tx_bytes(), tdma.accounting().total_tx_bytes());
}

#[test]
fn wait_interleaves_scenario_actions_with_spawned_events() {
    // A traffic burst at t = 1 from device 2 and a kill of device 2 at
    // t = 3 both sit inside one wait window. The burst must be granted
    // with the world as scripted at t = 1 (device alive), not with the
    // later kill pre-applied.
    let spec = SimSpec {
        scenario: Scenario::new().burst_at(1.0, 2, 64, 4).kill_at(3.0, 2),
        ..SimSpec::ideal()
    };
    let mut des =
        DesNetwork::new(NetworkConfig { num_devices: 4, seed: 0, ..Default::default() }, spec);
    let victim = des.devices()[2];
    des.wait(5.0);
    let stats = des.accounting().link_stats();
    assert_eq!(stats.dropped_packets, 0, "burst predates the kill: {stats:?}");
    assert_eq!(stats.delivered_packets, 4);
    assert!(des.accounting().node(victim).tx_bytes > 0);
    assert!(!des.alive_devices().contains(&victim), "the kill still lands afterwards");
    assert_eq!(des.now_s(), 5.0);
}

#[test]
#[should_panic(expected = "references device 30")]
fn out_of_range_scenario_index_is_rejected() {
    let _ = DesNetwork::new(
        NetworkConfig { num_devices: 4, ..Default::default() },
        SimSpec { scenario: Scenario::new().kill_at(1.0, 30), ..SimSpec::ideal() },
    );
}

#[test]
fn rounds_with_every_device_dead_send_nothing() {
    for mac in [MacMode::Sequential, MacMode::Fifo, MacMode::Tdma { slot_s: 0.02 }] {
        let scenario = (0..6).fold(Scenario::new(), |s, device| s.kill_at(0.0, device));
        let mut des = DesNetwork::new(
            NetworkConfig { num_devices: 6, seed: 2, ..Default::default() },
            SimSpec { params: SimParams { mac, ..SimParams::ideal() }, scenario },
        );
        des.raw_aggregation_round(8).expect("raw round runs");
        des.compressed_aggregation_round(64, 100).expect("chain round runs");
        des.broadcast_encoder_columns(32).expect("broadcast runs");
        assert!(des.alive_devices().is_empty(), "{mac:?}");
        assert_eq!(des.accounting().total_tx_bytes(), 0, "{mac:?}");
    }
}

/// Two raw rounds and a compute-heavy chain round, then a broadcast.
fn three_rounds<B: DeploymentBackend>(mut net: B) -> Digest {
    for _ in 0..2 {
        net.raw_aggregation_round(8).expect("raw round runs");
    }
    net.compressed_aggregation_round(64, 2_000_000).expect("chain round runs");
    net.broadcast_encoder_columns(32).expect("broadcast runs");
    digest(&net)
}

/// The pipeline holds its backend as `Box<dyn DeploymentBackend>`: the box
/// must run the DES's own concurrent rounds, not the sequential bodies.
#[test]
fn a_boxed_des_runs_its_own_rounds() {
    let des = |mac| {
        DesNetwork::new(
            NetworkConfig { num_devices: 8, seed: 4, ..Default::default() },
            SimSpec { params: SimParams { mac, ..SimParams::ideal() }, ..Default::default() },
        )
    };
    let sequential = three_rounds(des(MacMode::Sequential));
    for mac in [MacMode::Fifo, MacMode::Tdma { slot_s: 0.02 }] {
        let unboxed = three_rounds(des(mac));
        let boxed: Box<dyn DeploymentBackend> = Box::new(des(mac));
        assert_eq!(three_rounds(boxed), unboxed, "{mac:?}");
        assert_ne!(unboxed, sequential, "{mac:?}");
    }
}

/// The outcomes of `calls` rounds, as one line: `Ok` or the error.
fn outcomes(calls: impl IntoIterator<Item = Result<f64, WsnError>>) -> String {
    let names: Vec<String> = calls
        .into_iter()
        .map(|r| match r {
            Ok(_) => "Ok".to_owned(),
            Err(e) => format!("{e:?}"),
        })
        .collect();
    names.join("; ")
}

/// Rounds on a fresh 10-device analytic deployment; `loss` on its sensor
/// link.
fn analytic_row(
    loss: f64,
    round: impl Fn(&mut Network) -> Result<f64, WsnError>,
) -> (String, Digest) {
    let mut config = NetworkConfig { num_devices: 10, seed: 5, ..Default::default() };
    config.sensor_link = config.sensor_link.with_loss(loss);
    let mut net = Network::new(config);
    let calls: Vec<_> = (0..3).map(|_| round(&mut net)).collect();
    (outcomes(calls), digest(&net))
}

/// Three iterations of raw, chain and broadcast rounds on a sequential DES
/// whose scenario kills a device mid raw round and another mid chain
/// compute, makes a third a straggler, degrades the sensor link over the
/// second iteration, bursts inside that window, and revives a device mid
/// raw round.
fn scripted_sequential_row() -> (String, Digest) {
    let scenario = Scenario::new()
        .straggler(0.0..10.0, 2, 3.0)
        .kill_at(0.02, 6)
        .kill_at(0.2, 5)
        .degrade_sensor_link(0.8..1.5, 0.9)
        .burst_at(0.9, 1, 64, 2)
        .revive_at(1.63, 5, 1.0);
    let mut des = DesNetwork::new(
        NetworkConfig { num_devices: 8, seed: 3, ..Default::default() },
        SimSpec { scenario, ..SimSpec::ideal() },
    );
    let mut calls = Vec::new();
    for _ in 0..3 {
        calls.push(des.raw_aggregation_round(8));
        calls.push(des.compressed_aggregation_round(64, 2_000_000));
        calls.push(des.broadcast_encoder_columns(32));
    }
    (outcomes(calls), digest(&des))
}

/// Recorded before the two backends' round loops were merged into one
/// body: a change to that body that moves a single ledger bit fails here.
/// Never edit these values to make the test pass.
#[rustfmt::skip]
const PINNED: &[(&str, &str, Digest)] = &[
    ("analytic clean raw", "Ok; Ok; Ok", (4596488495384036597, 1662, 1662, 4564263861914170022, 30, 0, 0, 4587825443198420749, 4574369984548530392, 4575899046694015222)),
    ("analytic clean broadcast", "Ok; Ok; Ok", (4596405485035704911, 1590, 1590, 4568756069902791935, 30, 0, 0, 4587493401805093983, 4574369984548530392, 4574369984548530392)),
    ("analytic clean compressed", "Ok; Ok; Ok", (4597598758792972993, 2550, 2550, 4571954328901405720, 30, 0, 0, 4590544320336659848, 4575550576169247803, 4575550576169247803)),
    ("analytic clean hybrid", "Ok; Ok; Ok", (4596146077697168362, 1290, 1290, 4567899752770839454, 30, 0, 0, 4586109895999565762, 4574074836643351039, 4574665132453709744)),
    ("analytic lossy raw", "TransmissionFailed { from: NodeId(4), to: NodeId(9), attempts: 8 }; Ok; TransmissionFailed { from: NodeId(1), to: NodeId(7), attempts: 8 }", (4603773446083677075, 4579, 911, 4571775762038015638, 19, 2, 74, 4594447247860130178, 4583377183803271384, 4586995339715103822)),
    ("analytic lossy broadcast", "TransmissionFailed { from: NodeId(10), to: NodeId(7), attempts: 8 }; Ok; TransmissionFailed { from: NodeId(10), to: NodeId(2), attempts: 8 }", (4603904879135202256, 5035, 1007, 4576816700664849942, 19, 2, 74, 4594972980066230906, 4583377183803271384, 4587880783430641880)),
    ("analytic lossy compressed", "TransmissionFailed { from: NodeId(7), to: NodeId(0), attempts: 8 }; Ok; TransmissionFailed { from: NodeId(2), to: NodeId(5), attempts: 8 }", (4604802716756914836, 8075, 1615, 4580195392959526422, 19, 2, 74, 4598326540492756065, 4584557775423988795, 4589061375051359290)),
    ("analytic lossy hybrid", "TransmissionFailed { from: NodeId(7), to: NodeId(0), attempts: 8 }; Ok; TransmissionFailed { from: NodeId(2), to: NodeId(5), attempts: 8 }", (4603551796924416411, 3735, 743, 4575717814942891957, 19, 2, 74, 4593276744302578070, 4582786887992912678, 4586847765762514145)),
    ("sequential DES, scripted", "Ok; Ok; Ok; Ok; Ok; Ok; Ok; Ok; Ok", (4613404159699628252, 5583, 3447, 4573130613167255754, 59, 2, 46, 4595604781050755454, 4574369984548530432, 4585950792831930048)),
];

#[test]
fn round_ledgers_match_their_pinned_digests() {
    type Round = fn(&mut Network) -> Result<f64, WsnError>;
    let rounds: [(&str, Round); 4] = [
        ("raw", |n| DeploymentBackend::raw_aggregation_round(n, 8)),
        ("broadcast", |n| DeploymentBackend::broadcast_encoder_columns(n, 32)),
        ("compressed", |n| DeploymentBackend::compressed_aggregation_round(n, 64, 2_000)),
        ("hybrid", |n| n.hybrid_aggregation_round(64, 4, 2_000)),
    ];
    let mut rows = Vec::new();
    for (link, loss) in [("clean", 0.0), ("lossy", 0.74)] {
        for (round, run) in rounds {
            rows.push((format!("analytic {link} {round}"), analytic_row(loss, run)));
        }
    }
    rows.push(("sequential DES, scripted".to_owned(), scripted_sequential_row()));
    assert_eq!(rows.len(), PINNED.len());
    for ((name, (calls, got)), (want_name, want_calls, want)) in rows.iter().zip(PINNED) {
        assert_eq!(name, want_name);
        assert_eq!((calls.as_str(), got), (*want_calls, want), "{name}");
    }
}
