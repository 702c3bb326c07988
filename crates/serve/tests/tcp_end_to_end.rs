//! End-to-end test of the TCP face: a real gateway on an ephemeral port,
//! concurrent clients over real sockets, deadline flushing in real time,
//! and shutdown joining every server thread.

use std::sync::Arc;
use std::time::Duration;

use orco_datasets::DatasetKind;
use orco_serve::{Client, Clock, Gateway, GatewayConfig, PushOutcome, Tcp, TcpServer};
use orco_tensor::{Matrix, OrcoRng};
use orcodcs::{AsymmetricAutoencoder, Codec, OrcoConfig};

#[test]
fn tcp_gateway_serves_and_shuts_down() {
    let config = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16).with_seed(5);
    let gateway = Arc::new(
        Gateway::new(
            GatewayConfig {
                shards: 2,
                batch_max_frames: 8,
                batch_deadline: Duration::from_millis(2),
                queue_capacity: 1024,
                auth_secret: None,
                trace_capacity: 4096,
                ..GatewayConfig::default()
            },
            Clock::real(),
            |_| {
                Box::new(AsymmetricAutoencoder::new(&config).expect("valid config"))
                    as Box<dyn Codec>
            },
        )
        .expect("valid gateway"),
    );
    let server = TcpServer::spawn(Arc::clone(&gateway), "127.0.0.1:0").expect("binds");
    let transport = Tcp::new(server.local_addr().to_string());

    let handles: Vec<_> = (0..2)
        .map(|id: u64| {
            let transport = transport.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&transport).expect("connects");
                let info = client.hello(id).expect("hello");
                assert_eq!(info.frame_dim, 784);
                assert_eq!(info.code_dim, 16);
                let mut rng = OrcoRng::from_seed_u64(id);
                let frames = Matrix::from_fn(21, 784, |_, _| rng.uniform(0.0, 1.0));
                let mut pushed = 0;
                while pushed < 21 {
                    let hi = (pushed + 2).min(21);
                    match client.push(id, frames.view_rows(pushed..hi)).expect("push") {
                        PushOutcome::Accepted(n) => pushed += n as usize,
                        PushOutcome::Busy { .. } => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        PushOutcome::Redirected { .. } => {
                            unreachable!("no fleet view installed")
                        }
                    }
                }
                let mut pulled = 0;
                while pulled < 21 {
                    let got = client.pull(id, 8).expect("pull").rows();
                    if got == 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    pulled += got;
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // A malformed frame draws a typed ErrorReply before the connection
    // closes — the TCP face answers exactly like the loopback path.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connects");
        raw.write_all(b"XXXXgarbage-that-is-not-a-frame").expect("writes");
        let reply = orco_serve::Message::read_from(&mut raw).expect("reply frame").expect("reply");
        assert!(
            matches!(reply, orco_serve::Message::ErrorReply { .. }),
            "expected ErrorReply, got {}",
            reply.kind()
        );
    }

    let mut control = Client::connect(&transport).expect("control connects");
    let stats = control.stats().expect("stats");
    assert_eq!(stats.frames_in, 42);
    assert_eq!(stats.frames_out, 42);
    assert_eq!(stats.queue_depth, 0);
    control.shutdown().expect("shutdown acked");

    // join() returning proves the acceptor was poked awake and the
    // deadline timer observed the flag.
    server.join();
    assert!(gateway.is_shutting_down());
}

/// A `Shutdown` sent on a connection that holds a subscription must still
/// be acked: shutdown ends every subscription, the requester's included,
/// and the ack used to be dropped on the closed outbox, so the client read
/// EOF instead. 200 fresh servers, the ack required every time.
#[test]
fn shutdown_on_a_subscribed_connection_is_acked() {
    let config = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16).with_seed(5);
    let frames = Matrix::from_fn(3, 784, |r, c| ((r * 784 + c) % 17) as f32 / 17.0);
    for round in 0..200 {
        let gateway = Arc::new(
            Gateway::new(
                GatewayConfig {
                    shards: 1,
                    batch_max_frames: 8,
                    batch_deadline: Duration::from_millis(1),
                    ..GatewayConfig::default()
                },
                Clock::real(),
                |_| {
                    Box::new(AsymmetricAutoencoder::new(&config).expect("valid config"))
                        as Box<dyn Codec>
                },
            )
            .expect("valid gateway"),
        );
        let server = TcpServer::spawn(Arc::clone(&gateway), "127.0.0.1:0").expect("binds");
        let transport = Tcp::new(server.local_addr().to_string());
        let mut client = Client::connect(&transport).expect("connects");
        client.hello(7).expect("hello");
        client.subscribe(7).expect("subscribes");
        // Rows still pending at Shutdown are drained to the subscriber
        // ahead of the ack, so the ack is not the only frame in flight.
        match client.push(7, frames.as_view()).expect("push") {
            PushOutcome::Accepted(3) => {}
            other => panic!("round {round}: push refused: {other:?}"),
        }
        client.shutdown().unwrap_or_else(|e| panic!("round {round}: Shutdown not acked: {e}"));
        server.join();
    }
}

/// Deadlines are kept on every shard with no traffic to sweep them: one
/// frame parked on each of four shards, below the size threshold, and
/// nothing sent afterwards. Only the server's own timekeeping can flush
/// them to the subscribed connection — a few `batch_deadline`s later; the
/// patience is for a busy host.
#[test]
fn parked_frames_on_every_shard_are_streamed_with_no_further_traffic() {
    const SHARDS: usize = 4;
    let config = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16).with_seed(5);
    let gateway = Arc::new(
        Gateway::new(
            GatewayConfig {
                shards: SHARDS,
                batch_max_frames: 8,
                batch_deadline: Duration::from_millis(5),
                ..GatewayConfig::default()
            },
            Clock::real(),
            |_| {
                Box::new(AsymmetricAutoencoder::new(&config).expect("valid config"))
                    as Box<dyn Codec>
            },
        )
        .expect("valid gateway"),
    );
    let server = TcpServer::spawn(Arc::clone(&gateway), "127.0.0.1:0").expect("binds");
    let transport = Tcp::new(server.local_addr().to_string());
    // The first cluster id each shard serves.
    let clusters: Vec<u64> = (0..SHARDS)
        .map(|shard| (1..).find(|&c| gateway.shard_of(c) == shard).expect("every shard reachable"))
        .collect();

    let mut subscriber = Client::connect(&transport).expect("connects");
    for &cluster in &clusters {
        assert_eq!(subscriber.subscribe(cluster).expect("subscribes"), 0);
    }
    let mut pusher = Client::connect(&transport).expect("connects");
    let frame = Matrix::from_fn(1, 784, |_, c| (c % 17) as f32 / 17.0);
    for &cluster in &clusters {
        assert_eq!(pusher.push(cluster, frame.as_view()).expect("push"), PushOutcome::Accepted(1));
    }

    let mut waiting = clusters.clone();
    while !waiting.is_empty() {
        let (cluster, rows) = subscriber
            .recv_streamed(Duration::from_secs(10))
            .expect("stream healthy")
            .unwrap_or_else(|| panic!("clusters {waiting:?}: parked frames never flushed"));
        assert_eq!(rows.rows(), 1);
        let at = waiting.iter().position(|&c| c == cluster).expect("one delivery a cluster");
        waiting.swap_remove(at);
    }
    assert_eq!(gateway.stats().deadline_flushes, SHARDS as u64);

    pusher.shutdown().expect("shutdown acked");
    server.join();
}
