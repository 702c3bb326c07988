//! Property-based tests of the WSN simulator's conservation and
//! monotonicity laws: bytes are conserved between senders and receivers,
//! simulated time never rewinds, energy only drains, and the aggregation
//! structures stay sound under arbitrary workloads.

use orco_wsn::{
    DeploymentBackend, DeviceClass, LinkModel, Network, NetworkConfig, PacketKind, Point,
    RadioModel, HEADER_BYTES,
};
use proptest::prelude::*;

fn net(devices: usize, seed: u64) -> Network {
    Network::new(NetworkConfig { num_devices: devices, seed, ..Default::default() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On a loss-free network every transmitted byte is received: the tx
    /// and rx ledgers agree exactly.
    #[test]
    fn bytes_are_conserved_without_loss(
        devices in 2usize..20,
        seed in 0u64..1000,
        payloads in prop::collection::vec(1u64..4096, 1..12),
    ) {
        let mut net = net(devices, seed);
        let agg = net.aggregator();
        for (i, bytes) in payloads.iter().enumerate() {
            let from = net.devices()[i % devices];
            net.transmit(from, agg, *bytes, PacketKind::RawData).expect("clean link");
        }
        let nodes = net.devices().iter().copied().chain([agg, net.edge()]);
        let rx: u64 = nodes.map(|id| net.accounting().node(id).rx_bytes).sum();
        prop_assert_eq!(net.accounting().total_tx_bytes(), rx);
    }

    /// Wire bytes always exceed payload bytes by at least one header.
    #[test]
    fn headers_always_cost(devices in 2usize..8, bytes in 1u64..10_000, seed in 0u64..1000) {
        let mut net = net(devices, seed);
        let d = net.devices()[0];
        let agg = net.aggregator();
        net.transmit(d, agg, bytes, PacketKind::RawData).expect("clean link");
        prop_assert!(net.accounting().node(d).tx_bytes >= bytes + HEADER_BYTES);
    }

    /// The simulated clock is monotone under any sequence of operations.
    #[test]
    fn clock_is_monotone(
        devices in 2usize..12,
        seed in 0u64..1000,
        ops in prop::collection::vec(0u8..4, 1..16),
    ) {
        let mut net = net(devices, seed);
        let mut last = net.now_s();
        for (i, op) in ops.iter().enumerate() {
            let d = net.devices()[i % devices];
            let _ = match op {
                0 => net.transmit(d, net.aggregator(), 64, PacketKind::RawData).map(|_| ()),
                1 => net.raw_aggregation_round(4).map(|_| ()),
                2 => net.compressed_aggregation_round(128, 64).map(|_| ()),
                _ => net.compute(d, 10_000).map(|_| ()),
            };
            prop_assert!(net.now_s() >= last, "clock went backwards");
            last = net.now_s();
        }
    }

    /// Device batteries never increase.
    #[test]
    fn energy_only_drains(devices in 2usize..10, seed in 0u64..1000, rounds in 1usize..6) {
        let mut net = net(devices, seed);
        let initial = DeviceClass::IotDevice.initial_energy_j();
        for _ in 0..rounds {
            let _ = net.raw_aggregation_round(8);
        }
        for d in net.devices() {
            let e = net.node(*d).expect("exists").energy_j();
            prop_assert!(e <= initial, "battery grew: {e}");
        }
    }

    /// Radio energy accounting matches the model exactly for a single hop.
    #[test]
    fn tx_energy_matches_radio_model(bytes in 1u64..2000, seed in 0u64..1000) {
        let mut network = net(4, seed);
        let d = network.devices()[0];
        let agg = network.aggregator();
        let dist = network.node(d).unwrap().position().distance(
            network.node(agg).unwrap().position());
        network.transmit(d, agg, bytes, PacketKind::RawData).expect("clean link");
        let ledger = network.accounting().node(d);
        let expected = RadioModel::default().tx_energy_j(ledger.tx_bytes, dist);
        prop_assert!((ledger.tx_energy_j - expected).abs() < 1e-12);
    }

    /// Raw aggregation delivers every alive device's payload to the
    /// aggregator regardless of which devices have been killed — all of
    /// them included — and a chain round runs on what is left.
    #[test]
    fn raw_aggregation_delivers_all_alive(
        devices in 3usize..16,
        seed in 0u64..1000,
        kill_mask in prop::collection::vec(any::<bool>(), 3..16),
        kill_all in any::<bool>(),
    ) {
        let mut net = net(devices, seed);
        for (i, kill) in kill_mask.iter().enumerate().take(devices) {
            if *kill {
                let _ = net.kill_device(net.devices()[i]);
            }
        }
        if kill_all {
            for id in net.devices().to_vec() {
                let _ = net.kill_device(id);
            }
        }
        let alive = net.alive_devices().len() as u64;
        net.reset_accounting();
        net.raw_aggregation_round(4).expect("round runs");
        let rx_payload_floor = alive * 4;
        let agg_rx = net.accounting().node(net.aggregator()).rx_bytes;
        prop_assert!(agg_rx >= rx_payload_floor,
            "aggregator got {agg_rx} < floor {rx_payload_floor} for {alive} devices");
        prop_assert!(net.tree().check_invariants());
        net.compressed_aggregation_round(64, 10).expect("chain round runs");
        if alive == 0 {
            prop_assert_eq!(net.accounting().total_tx_bytes(), 0);
        }
    }

    /// Hybrid aggregation never costs more bytes than plain CS chaining.
    #[test]
    fn hybrid_never_exceeds_plain(
        devices in 2usize..24,
        latent_bytes in 8u64..2048,
        seed in 0u64..1000,
    ) {
        let mut plain = net(devices, seed);
        let mut hybrid = net(devices, seed);
        plain.compressed_aggregation_round(latent_bytes, 0).expect("runs");
        hybrid.hybrid_aggregation_round(latent_bytes, 4, 0).expect("runs");
        prop_assert!(
            hybrid.accounting().total_tx_bytes() <= plain.accounting().total_tx_bytes()
        );
    }

    /// Faster links never make a transmission slower.
    #[test]
    fn bandwidth_monotonicity(bytes in 1u64..100_000, bw in 1.0f64..100.0) {
        let slow = LinkModel::new(1e5, 0.01, 0.0);
        let fast = LinkModel::new(1e5 * bw, 0.01, 0.0);
        prop_assert!(fast.transmission_time_s(bytes) <= slow.transmission_time_s(bytes));
    }

    /// Deployment geometry: every device lands inside the field, 100 m a
    /// side.
    #[test]
    fn devices_inside_field(devices in 1usize..64, seed in 0u64..1000) {
        let side = 100.0;
        let network =
            Network::new(NetworkConfig { num_devices: devices, seed, ..Default::default() });
        for d in network.devices() {
            let p = network.node(*d).expect("exists").position();
            prop_assert!(p.x >= 0.0 && p.x < side && p.y >= 0.0 && p.y < side);
        }
        // The aggregator sits at the centre.
        let agg = network.node(network.aggregator()).expect("exists").position();
        prop_assert!(agg.distance(Point::new(side / 2.0, side / 2.0)) < 1e-9);
    }
}
