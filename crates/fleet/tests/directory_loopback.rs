//! Directory + redirect integration tests over the in-process loopback
//! transport: the epoch'd membership lifecycle end to end through the
//! wire protocol, MAC-gated admission, eviction sweeps, and the
//! stale-owner redirect a misrouted push must draw.

use std::sync::Arc;
use std::time::Duration;

use orco_fleet::{Directory, DirectoryClient, DirectoryConfig};
use orco_serve::fleet_view::owner_of;
use orco_serve::{
    Client, Clock, FleetView, Gateway, GatewayConfig, GatewayEntry, Loopback, PushOutcome, Service,
};
use orco_tensor::{Matrix, OrcoRng};
use orcodcs::{AsymmetricAutoencoder, Codec, OrcoConfig, OrcoError};

const SECRET: u64 = 0x005E_C2E7;

fn directory(cfg: DirectoryConfig) -> Arc<Directory> {
    Arc::new(Directory::new(cfg, Clock::manual(Duration::ZERO)).expect("valid directory"))
}

fn dir_client(d: &Arc<Directory>) -> DirectoryClient<orco_serve::LoopbackConnection<Directory>> {
    DirectoryClient::connect(&Loopback::new(Arc::clone(d))).expect("loopback connects")
}

/// A zero heartbeat timeout would evict every gateway on the first
/// sweep: the directory refuses it as a typed config error.
#[test]
fn a_zero_heartbeat_timeout_is_refused() {
    let cfg = DirectoryConfig { heartbeat_timeout: Duration::ZERO, ..DirectoryConfig::default() };
    match Directory::new(cfg, Clock::manual(Duration::ZERO)) {
        Err(OrcoError::Config { detail }) => {
            assert!(detail.contains("heartbeat_timeout must be positive"), "{detail}");
        }
        other => panic!("want a Config error, got {other:?}"),
    }
}

#[test]
fn register_query_heartbeat_epoch_lifecycle() {
    let d = directory(DirectoryConfig::default());
    let mut c = dir_client(&d);

    // An empty fleet is epoch 0.
    assert_eq!(c.query().expect("query"), (0, vec![]));

    // Each join bumps the epoch; the table stays ascending by id.
    let (e1, m1) = c.register(7, "10.0.0.7:7100", None).expect("register 7");
    assert_eq!((e1, m1.len()), (1, 1));
    let (e2, m2) = c.register(3, "10.0.0.3:7100", None).expect("register 3");
    assert_eq!(e2, 2);
    assert_eq!(m2.iter().map(|m| m.id).collect::<Vec<_>>(), vec![3, 7]);

    // Idempotent re-registration (same id, same addr) bumps nothing.
    let (e3, _) = c.register(7, "10.0.0.7:7100", None).expect("re-register 7");
    assert_eq!(e3, 2);
    // A moved address is a real membership change.
    let (e4, m4) = c.register(7, "10.0.0.8:7100", None).expect("move 7");
    assert_eq!(e4, 3);
    assert_eq!(m4.iter().find(|m| m.id == 7).expect("present").addr, "10.0.0.8:7100");

    // Heartbeats answer with the current table without bumping.
    let (e5, m5) = c.heartbeat(3, e4, None).expect("heartbeat");
    assert_eq!((e5, m5.len()), (3, 2));
    assert_eq!(c.query().expect("query"), (e5, m5));

    // A heartbeat from a gateway the directory never admitted is an
    // explicit "re-register" error, not a silent admission.
    assert!(c.heartbeat(99, e5, None).is_err(), "unknown member must be told to re-register");
}

#[test]
fn bad_register_mac_never_admits() {
    let d = directory(DirectoryConfig { auth_secret: Some(SECRET), ..DirectoryConfig::default() });
    let mut c = dir_client(&d);

    // No MAC and a wrong-secret MAC are both rejected before admission.
    let unauthenticated = c.register(1, "10.0.0.1:7100", None);
    assert!(unauthenticated.is_err(), "keyed directory must reject a zero MAC");
    let wrong = c.register(1, "10.0.0.1:7100", Some(SECRET ^ 1));
    assert!(wrong.is_err(), "keyed directory must reject a wrong-secret MAC");
    assert_eq!(c.query().expect("query"), (0, vec![]), "rejections must not admit or bump");

    // The right secret still joins.
    let (epoch, members) = c.register(1, "10.0.0.1:7100", Some(SECRET)).expect("register");
    assert_eq!((epoch, members.len()), (1, 1));
}

#[test]
fn missed_heartbeats_evict_with_one_epoch_bump() {
    let cfg = DirectoryConfig {
        heartbeat_timeout: Duration::from_millis(50),
        ..DirectoryConfig::default()
    };
    let d = directory(cfg);
    let mut c = dir_client(&d);
    c.register(1, "10.0.0.1:7100", None).expect("register 1");
    c.register(2, "10.0.0.2:7100", None).expect("register 2");
    let (epoch, _) = c.register(3, "10.0.0.3:7100", None).expect("register 3");
    assert_eq!(epoch, 3);

    // Only gateway 2 keeps beating; 1 and 3 fall silent past the
    // timeout. The sweep (run by virtual-time hosts on every event)
    // must evict both with ONE epoch bump, not one per corpse.
    d.clock().advance(Duration::from_millis(40));
    c.heartbeat(2, epoch, None).expect("heartbeat 2");
    d.clock().advance(Duration::from_millis(20));
    d.on_time_advance();

    let (after, members) = c.query().expect("query");
    assert_eq!(after, epoch + 1, "a sweep is one membership change");
    assert_eq!(members.iter().map(|m| m.id).collect::<Vec<_>>(), vec![2]);

    // The evictee re-registers and rejoins at a fresh epoch.
    let (rejoin, members) = c.register(1, "10.0.0.1:7100", None).expect("re-register");
    assert_eq!(rejoin, after + 1);
    assert_eq!(members.iter().map(|m| m.id).collect::<Vec<_>>(), vec![1, 2]);
}

fn codec_factory() -> impl Fn(usize) -> Box<dyn Codec> + Send + Sync + 'static {
    let cfg = OrcoConfig::for_dataset(orco_datasets::DatasetKind::MnistLike)
        .with_latent_dim(16)
        .with_seed(11);
    move |_| Box::new(AsymmetricAutoencoder::new(&cfg).expect("valid config")) as Box<dyn Codec>
}

fn fleet_gateway(self_id: u64, members: &[GatewayEntry]) -> Arc<Gateway> {
    let gw = Arc::new(
        Gateway::new(
            GatewayConfig::default(),
            Clock::manual(Duration::from_micros(100)),
            codec_factory(),
        )
        .expect("valid gateway"),
    );
    gw.set_fleet_view(Some(FleetView::new(Some(self_id), 1, members.to_vec())));
    gw
}

#[test]
fn stale_owner_push_draws_redirect_never_misroutes() {
    let members = vec![
        GatewayEntry { id: 1, addr: "gw-1".to_string() },
        GatewayEntry { id: 2, addr: "gw-2".to_string() },
    ];
    let gw1 = fleet_gateway(1, &members);
    let gw2 = fleet_gateway(2, &members);

    // Find a cluster rendezvous-assigned to gateway 2.
    let cluster = (0u64..).find(|&c| owner_of(&members, c).expect("non-empty").id == 2).unwrap();

    let mut c1 = Client::connect(&Loopback::new(Arc::clone(&gw1))).expect("connects");
    c1.hello(0).expect("hello");
    let mut c2 = Client::connect(&Loopback::new(Arc::clone(&gw2))).expect("connects");
    c2.hello(0).expect("hello");

    let mut rng = OrcoRng::from_seed_u64(5);
    let frames = Matrix::from_fn(2, 784, |_, _| rng.uniform(0.0, 1.0));

    // The non-owner refuses the push and names the owner + epoch.
    match c1.push(cluster, frames.as_view()).expect("push") {
        PushOutcome::Redirected { epoch, addr } => {
            assert_eq!((epoch, addr.as_str()), (1, "gw-2"));
        }
        other => panic!("stale push must redirect, got {other:?}"),
    }
    assert_eq!(gw1.stats().redirects, 1);
    assert_eq!(gw1.stats().frames_in, 0, "a redirected push stores nothing");

    // The owner accepts the same push; pulls are served where rows live.
    assert_eq!(c2.push(cluster, frames.as_view()).expect("push"), PushOutcome::Accepted(2));
    let mut got = 0;
    while got < 2 {
        let chunk = c2.pull(cluster, 8).expect("pull").rows();
        assert!(chunk > 0, "owner must eventually serve its stored rows");
        got += chunk;
    }
}
