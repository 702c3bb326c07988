//! Fleet-throughput bench: frames/s end to end through a real TCP fleet
//! — directory, N gateways with heartbeating agents, and a
//! [`FleetClient`] that bootstraps from the directory and routes every
//! push to the rendezvous owner — across gateway counts.
//!
//! This measures the cost of the fleet layer itself (directory
//! bootstrap, owner computation, per-gateway TCP connections), not
//! parallel speedup: on 1-core CI the gateways time-slice one core, so
//! expect flat (or slightly declining) numbers as the fleet grows — the
//! JSON's `note` field says so. Results land in
//! `BENCH_fleet_throughput.json` (override with `ORCO_FLEET_BENCH_JSON`);
//! CI runs quick mode and uploads the JSON.
//!
//! Run with: `cargo bench -p orco_bench --bench fleet_throughput`
//! (`ORCO_SCALE=quick` shrinks the measurement for CI.)

#![expect(
    clippy::disallowed_methods,
    reason = "benches time real work; wall-clock reads are the point"
)]
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use orco_fleet::{AgentConfig, Directory, DirectoryConfig, FleetClient, GatewayAgent};
use orco_serve::{Clock, Gateway, GatewayConfig, PushOutcome, TcpServer};
use orco_tensor::{Matrix, OrcoRng};
use orcodcs::{AsymmetricAutoencoder, Codec, OrcoConfig};

/// Clusters driven round-robin — enough that every gateway in the
/// largest fleet owns a few.
const CLUSTERS: [u64; 8] = [3, 19, 42, 77, 101, 230, 555, 901];
/// Rows per push (the batched data plane's sweet spot is multi-row).
const WINDOW: usize = 8;

struct Row {
    gateways: usize,
    frames_per_s: f64,
}

/// A running fleet: directory + `n` gateways, all on ephemeral ports,
/// agents heartbeating.
struct Fleet {
    directory_addr: String,
    dir_server: TcpServer,
    gateways: Vec<Arc<Gateway>>,
    gw_servers: Vec<TcpServer>,
    agents: Vec<GatewayAgent>,
}

fn spawn_fleet(n: usize) -> Fleet {
    let directory = Arc::new(
        Directory::new(
            DirectoryConfig {
                // Generous: an eviction mid-measurement would corrupt
                // the number with failover work.
                heartbeat_timeout: Duration::from_secs(30),
                ..DirectoryConfig::default()
            },
            Clock::real(),
        )
        .expect("valid directory"),
    );
    let dir_server = TcpServer::spawn_service(
        Arc::clone(&directory) as Arc<dyn orco_serve::Service>,
        "127.0.0.1:0",
    )
    .expect("directory binds");
    let directory_addr = dir_server.local_addr().to_string();

    let ae_cfg = OrcoConfig::for_dataset(orco_datasets::DatasetKind::MnistLike)
        .with_latent_dim(orco_datasets::DatasetKind::MnistLike.paper_latent_dim());
    let mut gateways = Vec::new();
    let mut gw_servers = Vec::new();
    let mut agents = Vec::new();
    for id in 1..=n as u64 {
        let cfg = ae_cfg.clone();
        let gw = Arc::new(
            Gateway::new(GatewayConfig::default(), Clock::real(), move |_| {
                Box::new(AsymmetricAutoencoder::new(&cfg).expect("valid config")) as Box<dyn Codec>
            })
            .expect("valid gateway"),
        );
        let server = TcpServer::spawn(Arc::clone(&gw), "127.0.0.1:0").expect("gateway binds");
        let agent = GatewayAgent::spawn(
            Arc::clone(&gw),
            AgentConfig {
                gateway_id: id,
                advertise_addr: server.local_addr().to_string(),
                directory_addr: directory_addr.clone(),
                auth_secret: None,
                heartbeat_interval: Duration::from_millis(500),
            },
        )
        .expect("agent registers");
        gateways.push(gw);
        gw_servers.push(server);
        agents.push(agent);
    }
    Fleet { directory_addr, dir_server, gateways, gw_servers, agents }
}

impl Fleet {
    fn shutdown(self) {
        let mut control =
            FleetClient::connect(&self.directory_addr, u64::MAX, None).expect("control connects");
        for member in control.members().to_vec() {
            let gateway = control.gateway(&member.addr).expect("gateway connects");
            gateway.shutdown().expect("gateway shutdown");
        }
        control.shutdown_directory().expect("directory shutdown");
        for s in self.gw_servers {
            s.join();
        }
        for a in self.agents {
            a.join();
        }
        self.dir_server.join();
        drop(self.gateways);
    }
}

/// Serves `total` frames through an `n`-gateway fleet (push `WINDOW`
/// rows per message to the rendezvous owner, drain decoded rows from
/// where they were accepted) and returns wall-clock frames/s.
fn run(n: usize, total: usize) -> f64 {
    let fleet = spawn_fleet(n);
    let mut client = FleetClient::connect(&fleet.directory_addr, 1, None).expect("connects");
    let frame_dim = {
        let owner = client.owner_addr(CLUSTERS[0]).expect("owner");
        client.info_of(&owner).expect("hello").frame_dim as usize
    };
    let mut rng = OrcoRng::from_seed_u64(7);
    let frames = Matrix::from_fn(256, frame_dim, |_, _| rng.uniform(0.0, 1.0));

    // cluster -> (accepting addr, rows awaiting drain)
    let mut outstanding: BTreeMap<u64, (String, usize)> = BTreeMap::new();
    let mut served = 0usize;
    let mut pushed = 0usize;
    let mut since_drain = 0usize;
    let start = Instant::now();
    while pushed < total {
        let cluster = CLUSTERS[(pushed / WINDOW) % CLUSTERS.len()];
        let lo = pushed % (frames.rows() - WINDOW);
        match client.push(cluster, frames.view_rows(lo..lo + WINDOW)).expect("push") {
            (PushOutcome::Accepted(got), addr) => {
                let e = outstanding.entry(cluster).or_insert_with(|| (addr.clone(), 0));
                e.0 = addr;
                e.1 += got as usize;
                pushed += got as usize;
                since_drain += got as usize;
            }
            (PushOutcome::Busy { .. }, _) => {
                served += drain(&mut client, &mut outstanding);
                since_drain = 0;
            }
            (PushOutcome::Redirected { .. }, _) => unreachable!("FleetClient consumes redirects"),
        }
        // Keep the in-flight budget comfortably clear of Busy.
        if since_drain >= 1024 {
            served += drain(&mut client, &mut outstanding);
            since_drain = 0;
        }
    }
    while served < total {
        served += drain(&mut client, &mut outstanding);
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(served, total, "every pushed frame must come back decoded");
    fleet.shutdown();
    total as f64 / elapsed
}

fn drain(client: &mut FleetClient, outstanding: &mut BTreeMap<u64, (String, usize)>) -> usize {
    let mut got = 0;
    for (&cluster, (addr, owed)) in outstanding.iter_mut() {
        while *owed > 0 {
            let gateway = client.gateway(addr).expect("gateway connects");
            let rows = gateway.pull(cluster, WINDOW as u32).expect("pull").rows();
            if rows == 0 {
                // Micro-batch still in flight; spin on the next cluster.
                break;
            }
            *owed -= rows;
            got += rows;
        }
    }
    got
}

fn main() {
    // The published numbers are per-core; pin the kernels to one thread.
    orco_tensor::parallel::set_threads(1);
    let quick = std::env::var("ORCO_SCALE").as_deref() == Ok("quick");
    let total = if quick { 768 } else { 4096 };
    let gateway_counts = [1usize, 2, 3];

    let mut rows = Vec::new();
    for &n in &gateway_counts {
        // Warm-up grows every workspace to size (fresh fleet, same code
        // paths).
        let _ = run(n, total.min(128));
        let frames_per_s = run(n, total);
        rows.push(Row { gateways: n, frames_per_s });
    }

    println!(
        "fleet_throughput (TCP, 1 kernel thread, {} frames, {} scale)",
        total,
        if quick { "quick" } else { "default" }
    );
    println!("{:<10} {:>14}", "gateways", "frames/s");
    for r in &rows {
        println!("{:<10} {:>14.1}", r.gateways, r.frames_per_s);
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"fleet_throughput\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", if quick { "quick" } else { "default" });
    let _ = writeln!(json, "  \"threads\": 1,");
    let _ = writeln!(
        json,
        "  \"note\": \"single-core run: all gateways time-slice one core, so the gateway-count \
         sweep measures fleet-layer overhead (directory bootstrap, owner routing, extra TCP \
         connections), not parallel scaling; expect flat numbers on 1-core CI\","
    );
    let _ = writeln!(json, "  \"frames\": {total},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"gateways\": {}, \"frames_per_s\": {:.2}}}{comma}",
            r.gateways, r.frames_per_s
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    let path = std::env::var("ORCO_FLEET_BENCH_JSON").unwrap_or_else(|_| {
        format!("{}/../../BENCH_fleet_throughput.json", env!("CARGO_MANIFEST_DIR"))
    });
    std::fs::write(&path, &json).expect("bench JSON is writable");
    println!("wrote {path}");
}
