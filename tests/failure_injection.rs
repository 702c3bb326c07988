//! Failure-injection integration tests: dead devices, lossy links, and
//! divergence guards must degrade the system gracefully, never corrupt it.
//!
//! Deterministic fault drills run through the **scenario-scripted
//! event-driven backend** (`orco_sim::Scenario`): device deaths,
//! recoveries, and link-degradation windows are declared once, on a
//! timeline, instead of hand-mutating the deployment mid-test. Failures
//! that emerge organically from the physics (battery exhaustion) or that
//! pin analytic-backend error contracts keep exercising the analytic
//! [`Network`] directly.

use orcodcs_repro::core::{
    AsymmetricAutoencoder, DeploymentSpec, ExperimentBuilder, OrcoConfig, Report,
};
use orcodcs_repro::datasets::{mnist_like, DatasetKind};
use orcodcs_repro::sim::{DesNetwork, Scenario, SimSpec};
use orcodcs_repro::wsn::{
    DeploymentBackend, LinkModel, Network, NetworkConfig, PacketKind, WsnError, MAX_RETRIES,
};

/// Runs the full pipeline over the event-driven backend with a scripted
/// scenario on a 12-device cluster.
fn run_scripted(scenario: Scenario, seed: u64) -> (Report, Vec<orcodcs_repro::wsn::NodeId>) {
    let dataset = mnist_like::generate(16, seed);
    let cfg =
        OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16).with_batch_size(8);
    let codec = AsymmetricAutoencoder::new(&OrcoConfig { learning_rate: 0.1, ..cfg })
        .expect("valid config");
    let mut experiment = ExperimentBuilder::new()
        .dataset(&dataset)
        .codec(codec)
        .deployment(DeploymentSpec::EventDriven(SimSpec { scenario, ..SimSpec::ideal() }))
        .scale(orcodcs_repro::core::ClusterScale::Devices(12))
        .seed(seed)
        .epochs(1)
        .batch_size(8)
        .build()
        .expect("consistent experiment");
    let report = experiment.run().expect("scripted faults must not corrupt the run");
    let devices = experiment.network().expect("orchestrated").devices().to_vec();
    (report, devices)
}

#[test]
fn training_survives_scripted_device_deaths() {
    // A third of the cluster dies at t = 0, before any traffic.
    let scenario = Scenario::new().kill_at(0.0, 0).kill_at(0.0, 3).kill_at(0.0, 6).kill_at(0.0, 9);
    let (report, devices) = run_scripted(scenario, 0);

    // Raw aggregation, training, distribution, compressed frames all ran.
    assert!(!report.rounds.is_empty());
    assert!(report.final_loss.is_finite());
    assert!(report.sim_time_s > 0.0);
    assert!(report.data_plane.expect("measured").total_bytes > 0);
    assert!(report.training_radio.link.delivered_packets > 0);

    // Scripted victims sent nothing — they were dead for the whole run.
    let (_, devices_again) = run_scripted(
        Scenario::new().kill_at(0.0, 0).kill_at(0.0, 3).kill_at(0.0, 6).kill_at(0.0, 9),
        0,
    );
    assert_eq!(devices, devices_again);
}

#[test]
fn scripted_victims_send_nothing_after_death() {
    let dataset = mnist_like::generate(8, 1);
    let cfg =
        OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16).with_batch_size(8);
    let codec = AsymmetricAutoencoder::new(&OrcoConfig { learning_rate: 0.1, ..cfg })
        .expect("valid config");
    let scenario = Scenario::new().kill_at(0.0, 2).kill_at(0.0, 5);
    let mut experiment = ExperimentBuilder::new()
        .dataset(&dataset)
        .codec(codec)
        .deployment(DeploymentSpec::EventDriven(SimSpec { scenario, ..SimSpec::ideal() }))
        .scale(orcodcs_repro::core::ClusterScale::Devices(8))
        .seed(1)
        .epochs(1)
        .batch_size(8)
        .build()
        .expect("consistent experiment");
    let _ = experiment.run().expect("run survives");
    let net = experiment.network().expect("orchestrated");
    for victim_index in [2usize, 5] {
        let victim = net.devices()[victim_index];
        assert_eq!(
            net.accounting().node(victim).tx_bytes,
            0,
            "device {victim_index} was scripted dead from t = 0"
        );
    }
    // Survivors did transmit.
    let survivor = net.devices()[0];
    assert!(net.accounting().node(survivor).tx_bytes > 0);
}

#[test]
fn death_and_recovery_window_stops_and_resumes_traffic() {
    // Device 1 dies during a window and is revived with a fresh battery;
    // the script runs against the backend directly, round by round.
    let scenario = Scenario::new().kill_at(0.4, 1).revive_at(0.9, 1, 2.0);
    let mut des = DesNetwork::new(
        NetworkConfig { num_devices: 6, seed: 2, ..Default::default() },
        SimSpec { scenario, ..SimSpec::ideal() },
    );
    let victim = des.devices()[1];

    let mut tx_checkpoints = Vec::new();
    while des.now_s() < 1.6 {
        des.raw_aggregation_round(4).expect("round survives scripted faults");
        tx_checkpoints.push((des.now_s(), des.accounting().node(victim).tx_bytes));
    }
    let during = tx_checkpoints
        .iter()
        .filter(|(t, _)| (0.45..0.9).contains(t))
        .map(|(_, b)| *b)
        .collect::<Vec<_>>();
    let after: Vec<u64> =
        tx_checkpoints.iter().filter(|(t, _)| *t >= 1.0).map(|(_, b)| *b).collect();
    assert!(!during.is_empty() && !after.is_empty(), "drill covers both windows");
    // Flat while dead…
    assert_eq!(during.first(), during.last(), "no traffic while dead: {during:?}");
    // …and growing again after recovery.
    assert!(
        after.last().unwrap() > during.last().unwrap(),
        "revived device transmits again: {tx_checkpoints:?}"
    );
}

#[test]
fn killing_every_chain_member_but_one_still_aggregates() {
    let scenario = (1..6).fold(Scenario::new(), |s, device| s.kill_at(0.0, device));
    let mut des = DesNetwork::new(
        NetworkConfig { num_devices: 6, seed: 1, ..Default::default() },
        SimSpec { scenario, ..SimSpec::ideal() },
    );
    let all: Vec<_> = des.devices().to_vec();
    let t = des.compressed_aggregation_round(64, 10).expect("single survivor chain");
    assert!(t > 0.0);
    assert_eq!(des.alive_devices().len(), 1);
    // The survivor talked to the aggregator.
    assert!(des.accounting().node(all[0]).tx_bytes > 0);
}

#[test]
fn scripted_lossy_window_retries_and_eventually_delivers() {
    // 30% sensor loss across the whole drill, scripted instead of baked
    // into the link model.
    let scenario = Scenario::new().degrade_sensor_link(0.0..1e6, 0.3);
    let mut lossy = DesNetwork::new(
        NetworkConfig { num_devices: 4, seed: 2, ..Default::default() },
        SimSpec { scenario, ..SimSpec::ideal() },
    );
    let mut clean = DesNetwork::new(
        NetworkConfig { num_devices: 4, seed: 2, ..Default::default() },
        SimSpec::ideal(),
    );
    let d = lossy.devices()[0];
    let agg = lossy.aggregator();
    let mut delivered = 0;
    for _ in 0..30 {
        if lossy.transmit(d, agg, 64, PacketKind::RawData).is_ok() {
            delivered += 1;
        }
        clean.transmit(d, agg, 64, PacketKind::RawData).expect("clean link");
    }
    // With 30% frame loss and 7 per-packet retries, deliveries dominate.
    assert!(delivered >= 29, "only {delivered}/30 delivered");
    let stats = lossy.accounting().link_stats();
    assert!(stats.retransmitted_frames > 0, "ARQ must have fired: {stats:?}");
    // Retransmissions cost bytes relative to the clean deployment.
    assert!(
        lossy.accounting().node(d).tx_bytes > clean.accounting().node(d).tx_bytes,
        "lossy {} vs clean {}",
        lossy.accounting().node(d).tx_bytes,
        clean.accounting().node(d).tx_bytes
    );
    // And delivery latency stretches beyond the clean p50.
    assert!(stats.latency_p99_s > clean.accounting().link_stats().latency_p50_s);
}

// ----------------------------------------------------------------------
// Organic / analytic-contract failures (not scenario-scripted: they test
// the physics and the analytic backend's error surface itself).
// ----------------------------------------------------------------------

#[test]
fn hopeless_link_reports_transmission_failed() {
    let mut config = NetworkConfig { num_devices: 2, seed: 3, ..Default::default() };
    config.sensor_link = LinkModel::sensor_radio().with_loss(0.99);
    let mut net = Network::new(config);
    let d = net.devices()[0];
    let mut saw_failure = false;
    for _ in 0..20 {
        match net.transmit(d, net.aggregator(), 32, PacketKind::RawData) {
            Err(WsnError::TransmissionFailed { attempts, .. }) => {
                assert!(attempts > MAX_RETRIES);
                saw_failure = true;
                break;
            }
            _ => continue,
        }
    }
    assert!(saw_failure, "99% loss with {MAX_RETRIES} retries must eventually fail");
    // Drops land in the ledger for both backends.
    assert!(net.accounting().link_stats().dropped_packets > 0);
}

#[test]
fn battery_exhaustion_kills_senders_mid_protocol() {
    let mut net = Network::new(NetworkConfig { num_devices: 3, seed: 4, ..Default::default() });
    let d = net.devices()[0];
    // Drain the battery almost completely.
    let mut exhausted = false;
    for _ in 0..1_000_000 {
        match net.transmit(d, net.aggregator(), 4096, PacketKind::RawData) {
            Ok(_) => continue,
            Err(WsnError::EnergyExhausted { id }) => {
                assert_eq!(id, d);
                exhausted = true;
                break;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(exhausted, "finite battery must run out");
    assert!(!net.node(d).expect("node exists").is_alive());
    // Subsequent sends from the dead node fail cleanly.
    assert!(matches!(
        net.transmit(d, net.aggregator(), 4, PacketKind::RawData),
        Err(WsnError::NodeDead { .. })
    ));
}

#[test]
fn battery_exhaustion_is_bitwise_identical_across_backends() {
    // Organic battery death is part of the ideal-mode equivalence
    // contract: the fatal attempt costs the same time and bytes on both
    // backends, and both surface the same error.
    let config = || NetworkConfig { num_devices: 3, seed: 4, ..Default::default() };
    let mut net = Network::new(config());
    let mut des = DesNetwork::new(config(), SimSpec::ideal());
    let d = net.devices()[0];
    let agg = net.aggregator();
    loop {
        let a = net.transmit(d, agg, 4096, PacketKind::RawData);
        let b = des.transmit(d, agg, 4096, PacketKind::RawData);
        match (a, b) {
            (Ok(_), Ok(_)) => continue,
            (
                Err(WsnError::EnergyExhausted { id: ia }),
                Err(WsnError::EnergyExhausted { id: ib }),
            ) => {
                assert_eq!(ia, ib);
                break;
            }
            (a, b) => panic!("backends diverged: {a:?} vs {b:?}"),
        }
    }
    assert_eq!(
        net.now_s().to_bits(),
        des.now_s().to_bits(),
        "clocks must stay bitwise-equal through the fatal attempt: {} vs {}",
        net.now_s(),
        des.now_s()
    );
    assert_eq!(net.accounting().total_tx_bytes(), des.accounting().total_tx_bytes());
    assert_eq!(
        net.accounting().link_stats().dropped_packets,
        des.accounting().link_stats().dropped_packets
    );
}

#[test]
fn non_device_kill_is_rejected() {
    let mut net = Network::new(NetworkConfig { num_devices: 3, seed: 5, ..Default::default() });
    let agg = net.aggregator();
    assert!(matches!(net.kill_device(agg), Err(WsnError::UnknownNode { .. })));
}
