//! The analytic ↔ event-driven equivalence contract, and the scenario
//! statistics the event-driven backend adds beyond it.
//!
//! Both backends run *one* body for each aggregation round
//! (`orco_wsn::{raw_round, broadcast_round, chain_round}`): the analytic
//! backend always, the event-driven one in its sequential MAC mode. What
//! this file pins is that their `transmit` and `compute` scheduling
//! matches: running the experiment pipeline over the `orco-sim`
//! discrete-event backend with [`SimSpec::ideal`] — the contention-free
//! sequential schedule, zero loss, zero jitter, no scenario — reproduces
//! the analytic backend's traffic-ledger byte counts, radio energy totals,
//! **and** simulated-clock readings exactly (bitwise, not approximately):
//! both backends charge the same cost formulas in the same floating-point
//! operation order. The round bodies themselves are pinned by the literal
//! ledger rows in `crates/sim/tests/determinism.rs`, since comparing one
//! body with itself cannot catch a change to it. Everything the
//! event-driven backend does beyond that mode (a shared medium, ARQ,
//! scripted faults) is additive expressiveness.

use orcodcs_repro::core::{
    AsymmetricAutoencoder, DeploymentSpec, ExperimentBuilder, OrcoConfig, Report, TrainingMode,
};
use orcodcs_repro::datasets::{mnist_like, DatasetKind};
use orcodcs_repro::sim::{MacMode, Scenario, SimParams, SimSpec};

fn report_with(deployment: DeploymentSpec, seed: u64) -> Report {
    let dataset = mnist_like::generate(16, seed);
    let cfg =
        OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16).with_batch_size(8);
    let codec = AsymmetricAutoencoder::new(&OrcoConfig { learning_rate: 0.1, ..cfg })
        .expect("valid config");
    let mut experiment = ExperimentBuilder::new()
        .dataset(&dataset)
        .codec(codec)
        .deployment(deployment)
        .seed(seed)
        .epochs(2)
        .batch_size(8)
        .data_plane_frames(3)
        .build()
        .expect("consistent experiment");
    experiment.run().expect("pipeline runs")
}

#[test]
fn ideal_des_reproduces_analytic_totals_exactly() {
    let analytic = report_with(DeploymentSpec::Analytic, 0);
    let des = report_with(DeploymentSpec::EventDriven(SimSpec::ideal()), 0);

    assert_eq!(analytic.backend, "analytic");
    assert_eq!(des.backend, "event-driven");

    // Byte totals: exact.
    assert_eq!(analytic.training_radio.total_tx_bytes, des.training_radio.total_tx_bytes);
    assert_eq!(analytic.training_radio.uplink_bytes, des.training_radio.uplink_bytes);
    assert_eq!(analytic.training_radio.feedback_bytes, des.training_radio.feedback_bytes);

    // Energy totals: exact, down to the last bit of the f64 sums.
    assert_eq!(
        analytic.training_radio.energy_j.to_bits(),
        des.training_radio.energy_j.to_bits(),
        "energy must be reproduced bitwise: {} vs {}",
        analytic.training_radio.energy_j,
        des.training_radio.energy_j
    );

    // Simulated clock: exact.
    assert_eq!(
        analytic.sim_time_s.to_bits(),
        des.sim_time_s.to_bits(),
        "sim time must be reproduced bitwise: {} vs {}",
        analytic.sim_time_s,
        des.sim_time_s
    );

    // Packet outcomes and airtime: exact.
    assert_eq!(
        analytic.training_radio.link.delivered_packets,
        des.training_radio.link.delivered_packets
    );
    assert_eq!(analytic.training_radio.link.dropped_packets, 0);
    assert_eq!(des.training_radio.link.dropped_packets, 0);
    assert_eq!(analytic.training_radio.link.retransmitted_frames, 0);
    assert_eq!(des.training_radio.link.retransmitted_frames, 0);
    assert_eq!(
        analytic.training_radio.link.airtime_s.to_bits(),
        des.training_radio.link.airtime_s.to_bits()
    );

    // Per-round records: clock, uplink bytes, and energy all exact.
    assert_eq!(analytic.rounds.len(), des.rounds.len());
    for (a, d) in analytic.rounds.iter().zip(&des.rounds) {
        assert_eq!(a.loss.to_bits(), d.loss.to_bits(), "round {} loss", a.round);
        assert_eq!(a.uplink_bytes, d.uplink_bytes, "round {} uplink", a.round);
        assert_eq!(a.sim_time_s.to_bits(), d.sim_time_s.to_bits(), "round {} clock", a.round);
        assert_eq!(a.energy_j.to_bits(), d.energy_j.to_bits(), "round {} energy", a.round);
    }

    // The model side never touches the backend: identical quality numbers.
    assert_eq!(analytic.final_loss.to_bits(), des.final_loss.to_bits());
    assert_eq!(analytic.mean_psnr_db.to_bits(), des.mean_psnr_db.to_bits());

    // Steady-state data plane: exact.
    let ap = analytic.data_plane.expect("measured");
    let dp = des.data_plane.expect("measured");
    assert_eq!(ap.total_bytes, dp.total_bytes);
    assert_eq!(ap.chain_bytes, dp.chain_bytes);
    assert_eq!(ap.uplink_bytes, dp.uplink_bytes);
    assert_eq!(ap.energy_j.to_bits(), dp.energy_j.to_bits());
    assert_eq!(ap.sim_time_s.to_bits(), dp.sim_time_s.to_bits());
}

#[test]
fn ideal_equivalence_holds_across_seeds() {
    for seed in [1, 7] {
        let analytic = report_with(DeploymentSpec::Analytic, seed);
        let des = report_with(DeploymentSpec::EventDriven(SimSpec::ideal()), seed);
        assert_eq!(analytic.training_radio.total_tx_bytes, des.training_radio.total_tx_bytes);
        assert_eq!(
            analytic.training_radio.energy_j.to_bits(),
            des.training_radio.energy_j.to_bits(),
            "seed {seed}"
        );
        assert_eq!(analytic.sim_time_s.to_bits(), des.sim_time_s.to_bits(), "seed {seed}");
    }
}

#[test]
fn lossy_scripted_scenario_produces_retransmission_and_latency_stats() {
    // Degrade the sensor link to 30% frame loss from the very start: raw
    // aggregation and the data plane must pay visible ARQ retries.
    let spec = SimSpec {
        params: SimParams { mac: MacMode::Fifo, ..SimParams::ideal() },
        scenario: Scenario::new().degrade_sensor_link(0.0..1e9, 0.3),
    };
    let report = report_with(DeploymentSpec::EventDriven(spec), 3);
    let link = &report.training_radio.link;
    assert!(link.delivered_packets > 0, "traffic still flows");
    assert!(link.retransmitted_frames > 0, "30% loss must force retransmissions, got {link:?}");
    assert!(link.latency_p50_s > 0.0 && link.latency_p99_s >= link.latency_p50_s);
    assert!(link.airtime_s > 0.0);

    // The lossy run pays more bytes than a clean one for the same work.
    let clean = report_with(DeploymentSpec::EventDriven(SimSpec::ideal()), 3);
    assert!(
        report.training_radio.total_tx_bytes > clean.training_radio.total_tx_bytes,
        "retransmissions cost bytes: lossy {} vs clean {}",
        report.training_radio.total_tx_bytes,
        clean.training_radio.total_tx_bytes
    );

    // Per-round records carry the cumulative link statistics.
    let last = report.rounds.last().expect("rounds ran");
    assert!(last.link.delivered_packets > 0);
    assert_eq!(report.mode, TrainingMode::Orchestrated);
}

#[test]
fn replaying_a_scenario_yields_bit_identical_reports() {
    let spec = || SimSpec {
        params: SimParams { mac: MacMode::Tdma { slot_s: 0.02 }, ..SimParams::ideal() },
        scenario: Scenario::new()
            .kill_at(0.5, 2)
            .degrade_sensor_link(0.2..2.0, 0.2)
            .burst_at(0.3, 1, 128, 4),
    };
    let a = report_with(DeploymentSpec::EventDriven(spec()), 5);
    let b = report_with(DeploymentSpec::EventDriven(spec()), 5);
    assert_eq!(a, b, "same scenario + seed must replay bit-identically");
}
