//! Determinism properties of the discrete-event simulator.
//!
//! 1. **Event-order invariance**: the queue's pop order is a function of
//!    the `(time, tie)` keys alone — scheduling the same distinct-keyed
//!    event set in any insertion order pops identically.
//! 2. **Replay determinism**: driving the same deployment, parameters,
//!    scenario, and seed twice reproduces byte counts, energy totals,
//!    latency percentiles, and the simulated clock bit for bit.

use proptest::prelude::*;

use orco_sim::{DesNetwork, EventQueue, MacMode, Scenario, SimParams, SimSpec};
use orco_wsn::{DeploymentBackend, NetworkConfig};

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
            let stats = des.accounting().link_stats();
            (
                des.now_s().to_bits(),
                des.accounting().total_tx_bytes(),
                des.accounting().total_rx_bytes(),
                des.accounting().total_tx_energy_j().to_bits(),
                stats.delivered_packets,
                stats.dropped_packets,
                stats.retransmitted_frames,
                stats.airtime_s.to_bits(),
                stats.latency_p50_s.to_bits(),
                stats.latency_p99_s.to_bits(),
            )
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
    let spec = SimSpec::with_scenario(Scenario::new().burst_at(1.0, 2, 64, 4).kill_at(3.0, 2));
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
        SimSpec::with_scenario(Scenario::new().kill_at(1.0, 30)),
    );
}
