//! End-to-end test of the TCP face: a real gateway on an ephemeral port,
//! concurrent clients over real sockets, deadline flushing in real time,
//! and shutdown joining every server thread.

use std::sync::Arc;
use std::time::Duration;

use orco_datasets::DatasetKind;
use orco_serve::{Client, Clock, Gateway, GatewayConfig, Message, PushOutcome, Tcp, TcpServer};
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
        let reply = orco_serve::protocol::FrameReader::new()
            .read_message(&mut raw)
            .expect("reply frame")
            .expect("reply");
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

/// The 784 → 16 autoencoder every test here serves.
fn codec_config() -> OrcoConfig {
    OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16).with_seed(5)
}

/// A gateway on the real clock behind a TCP server on an ephemeral port.
fn serve(
    shards: usize,
    batch_max_frames: usize,
    batch_deadline: Duration,
) -> (Arc<Gateway>, TcpServer) {
    let config = codec_config();
    let gateway = Gateway::new(
        GatewayConfig { shards, batch_max_frames, batch_deadline, ..GatewayConfig::default() },
        Clock::real(),
        |_| Box::new(AsymmetricAutoencoder::new(&config).expect("valid config")) as Box<dyn Codec>,
    )
    .expect("valid gateway");
    let gateway = Arc::new(gateway);
    let server = TcpServer::spawn(Arc::clone(&gateway), "127.0.0.1:0").expect("binds");
    (gateway, server)
}

/// A connection subscribed to the cluster it pushes to has two threads
/// writing to its socket at once: its reader, answering each push, and
/// its writer, streaming what the deadline timer flushes meanwhile. Every
/// byte must still parse as whole frames, every request must draw exactly
/// its own reply (the acks count 1, 2, 3 rows in turn), and the cluster's
/// rows must come back in push order, bit-identical to the direct
/// codec's. 200 fresh connections, each pushing across several deadlines.
/// (Frames this small go out in one `send` each, which the kernel will
/// not split; what tears a frame is a writer stalled halfway through a
/// large one, and the test after this one sets that up.)
#[test]
fn replies_and_streamed_deliveries_share_a_socket_in_order() {
    const CLUSTER: u64 = 7;
    const PUSHES: usize = 30;
    // The size threshold is never reached: every flush is the timer's,
    // on its thread — when the batch has been wanted for the shard's hold
    // (what the timer's last flush took: tens of microseconds here), or,
    // should a flush ever take that long, 300 us after it was armed.
    let (gateway, server) = serve(1, 4096, Duration::from_micros(300));
    let transport = Tcp::new(server.local_addr().to_string());

    let total: usize = (0..PUSHES).map(|k| k % 3 + 1).sum();
    let mut rng = OrcoRng::from_seed_u64(23);
    let frames = Matrix::from_fn(total, 784, |_, _| rng.uniform(0.0, 1.0));
    let mut direct = AsymmetricAutoencoder::new(&codec_config()).expect("valid config");
    let (mut codes, mut expect) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    direct.encode_batch(frames.as_view(), &mut codes).expect("encodes");
    direct.decode_batch(codes.as_view(), &mut expect).expect("decodes");

    for round in 0..200 {
        let mut client = Client::connect(&transport).expect("connects");
        client.hello(round).expect("hello");
        assert_eq!(client.subscribe(CLUSTER).expect("subscribes"), 0, "round {round}");
        let mut pushed = 0;
        for k in 0..PUSHES {
            let rows = k % 3 + 1;
            let outcome = client
                .push(CLUSTER, frames.view_rows(pushed..pushed + rows))
                .unwrap_or_else(|e| panic!("round {round}, push {k}: {e}"));
            assert_eq!(outcome, PushOutcome::Accepted(rows as u32), "round {round}, push {k}");
            pushed += rows;
            // A second request kind between pushes: its reply must not be
            // mistaken for, or swapped with, an ack.
            if k % 8 == 0 {
                client.version_info().unwrap_or_else(|e| panic!("round {round}, info {k}: {e}"));
            }
        }
        let mut got = 0;
        while got < total {
            let (cluster, rows) = client
                .recv_streamed(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("round {round}: stream broke after {got} rows: {e}"))
                .unwrap_or_else(|| panic!("round {round}: {got} of {total} rows, then silence"));
            assert_eq!(cluster, CLUSTER);
            for r in 0..rows.rows() {
                assert_eq!(rows.row(r), expect.row(got + r), "round {round}: row {}", got + r);
            }
            got += rows.rows();
        }
        assert_eq!(got, total, "round {round}");
        client.unsubscribe(CLUSTER).expect("unsubscribes");
    }
    // The test is about concurrent writers only if the timer did deliver
    // while pushes were in flight: more than one flush a connection.
    let stats = gateway.stats();
    assert_eq!(stats.size_flushes, 0);
    assert!(stats.deadline_flushes > 400, "{} deadline flushes", stats.deadline_flushes);

    let mut control = Client::connect(&transport).expect("control connects");
    control.shutdown().expect("shutdown acked");
    server.join();
}

/// The deadline is what a batch waits when nobody is waiting for it. Two
/// seconds of it, one row parked on each of two shards: the row a
/// subscriber waits for is flushed by the timer about one flush-cost after
/// it arrives, while the row of a pull-only cluster is still pending, and
/// that one waits out the whole deadline. Both are deadline flushes.
#[test]
fn a_row_a_subscriber_waits_for_leaves_early_and_a_pull_only_row_waits_out_the_deadline() {
    const DEADLINE: Duration = Duration::from_secs(2);
    let (gateway, server) = serve(2, 8, DEADLINE);
    let transport = Tcp::new(server.local_addr().to_string());
    let [subscribed, pull_only] = [0, 1]
        .map(|shard| (1..).find(|&c| gateway.shard_of(c) == shard).expect("every shard reachable"));
    let mut subscriber = Client::connect(&transport).expect("connects");
    assert_eq!(subscriber.subscribe(subscribed).expect("subscribes"), 0);
    let mut pusher = Client::connect(&transport).expect("connects");
    let frame = Matrix::from_fn(1, 784, |_, c| (c % 17) as f32 / 17.0);

    let clock = gateway.clock();
    let before_s = clock.now_s();
    for cluster in [pull_only, subscribed] {
        assert_eq!(pusher.push(cluster, frame.as_view()).expect("push"), PushOutcome::Accepted(1));
    }
    let (cluster, rows) = subscriber
        .recv_streamed(Duration::from_secs(10))
        .expect("stream healthy")
        .expect("the subscribed row is streamed");
    let waited_s = clock.now_s() - before_s;
    assert_eq!((cluster, rows.rows()), (subscribed, 1));
    assert_eq!(gateway.stats().queue_depth, 1, "the pull-only row is still pending");
    // The patience is for a busy host; an idle one reads under 1 ms.
    assert!(waited_s < DEADLINE.as_secs_f64() / 8.0, "a subscriber waited {waited_s:.3} s");

    // No pull meanwhile: a pull would flush the row for its own reason.
    while gateway.stats().deadline_flushes < 2 {
        assert!(clock.now_s() - before_s < 30.0, "the pull-only row was never flushed");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(clock.now_s() - before_s >= DEADLINE.as_secs_f64(), "flushed before its deadline");
    assert_eq!(pusher.pull(pull_only, 8).expect("pull").rows(), 1);
    let stats = gateway.stats();
    assert_eq!([stats.size_flushes, stats.deadline_flushes, stats.pull_flushes], [0, 2, 0]);

    pusher.shutdown().expect("shutdown acked");
    server.join();
}

/// A `Subscribe` that finds rows of its cluster *pending* starts the wait
/// they are held for: the batch is wanted as of the subscription and the
/// timer is woken to re-time it, instead of the rows waiting out a
/// deadline that was set when nobody was listening. (What fails here is a
/// batch left unwanted — 2 s; a missed wake-up alone costs at most the
/// timer's 50 ms idle sleep, inside this test's patience.)
#[test]
fn a_subscribe_that_finds_rows_pending_is_served_early() {
    const CLUSTER: u64 = 7;
    const DEADLINE: Duration = Duration::from_secs(2);
    let (gateway, server) = serve(1, 8, DEADLINE);
    let transport = Tcp::new(server.local_addr().to_string());
    let mut pusher = Client::connect(&transport).expect("connects");
    let frame = Matrix::from_fn(1, 784, |_, c| (c % 17) as f32 / 17.0);
    let before_s = gateway.clock().now_s();
    assert_eq!(pusher.push(CLUSTER, frame.as_view()).expect("push"), PushOutcome::Accepted(1));

    let mut subscriber = Client::connect(&transport).expect("connects");
    assert_eq!(subscriber.subscribe(CLUSTER).expect("subscribes"), 0, "pending is not stored");
    let (_, rows) = subscriber
        .recv_streamed(Duration::from_secs(10))
        .expect("stream healthy")
        .expect("the pending row is streamed");
    let waited_s = gateway.clock().now_s() - before_s;
    assert_eq!(rows.rows(), 1);
    assert!(waited_s < DEADLINE.as_secs_f64() / 8.0, "the subscriber waited {waited_s:.3} s");
    assert_eq!(gateway.stats().deadline_flushes, 1);

    pusher.shutdown().expect("shutdown acked");
    server.join();
}

/// The hold is one flush-cost, so batching comes back by itself under
/// load: a burst of one-row pushes to a subscribed cluster, written as
/// fast as the socket takes them, arrives faster than the timer flushes,
/// and rows pile up behind each flush. Every row is still delivered once,
/// in push order, bit-identical to the direct codec's — in fewer flushes
/// than rows.
#[test]
fn a_burst_to_a_subscribed_cluster_is_batched_and_delivered_once_in_order() {
    use orco_serve::protocol::FrameReader;
    use std::io::Write;

    const CLUSTER: u64 = 7;
    const ROWS: usize = 2_000;
    let (gateway, server) = serve(1, 4096, Duration::from_millis(5));

    let mut rng = OrcoRng::from_seed_u64(29);
    let frames = Matrix::from_fn(ROWS, 784, |_, _| rng.uniform(0.0, 1.0));
    let mut direct = AsymmetricAutoencoder::new(&codec_config()).expect("valid config");
    let (mut codes, mut expect) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    direct.encode_batch(frames.as_view(), &mut codes).expect("encodes");
    direct.decode_batch(codes.as_view(), &mut expect).expect("decodes");
    let mut burst = Vec::new();
    for r in 0..ROWS {
        let frames = frames.view_rows(r..r + 1).to_matrix();
        burst.extend(Message::PushFrames { cluster_id: CLUSTER, trace: 0, frames }.encode());
    }

    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connects");
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout set");
    let mut reader = FrameReader::new();
    raw.write_all(&Message::Subscribe { cluster_id: CLUSTER, trace: 0 }.encode()).expect("writes");
    match reader.read_message(&mut raw).expect("reply frame") {
        Some(Message::SubscribeAck { backlog: 0, .. }) => {}
        other => panic!("expected SubscribeAck, got {other:?}"),
    }
    let (mut acked, mut got) = (0, 0);
    std::thread::scope(|scope| {
        let mut socket = raw.try_clone().expect("clones");
        scope.spawn(move || socket.write_all(&burst).expect("the burst is written"));
        while acked < ROWS || got < ROWS {
            match reader.read_message(&mut raw).expect("whole frames").expect("no EOF") {
                Message::PushAck { accepted: 1 } => acked += 1,
                Message::StreamFrames { cluster_id: CLUSTER, frames, .. } => {
                    for r in 0..frames.rows() {
                        assert_eq!(frames.row(r), expect.row(got + r), "row {}", got + r);
                    }
                    got += frames.rows();
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    });
    assert_eq!((acked, got), (ROWS, ROWS));
    let stats = gateway.stats();
    assert_eq!((stats.frames_in, stats.streamed_rows), (ROWS as u64, ROWS as u64));
    assert_eq!(stats.size_flushes, 0);
    assert!(
        (stats.deadline_flushes as usize) < ROWS,
        "{} flushes for {ROWS} rows: load did not bring batching back",
        stats.deadline_flushes
    );

    let mut control =
        Client::connect(&Tcp::new(server.local_addr().to_string())).expect("control connects");
    control.shutdown().expect("shutdown acked");
    server.join();
}

/// The claim, made to fail on purpose: a subscriber that reads nothing
/// while megabytes of deliveries are queued for it leaves its writer
/// thread stuck mid-frame in a full socket, the claim in hand and frames
/// behind it. A request sent now must have its reply queued behind all of
/// them — written inline it would land inside the frame the writer is
/// halfway through, or ahead of rows delivered before it was asked for.
#[test]
fn a_reply_waits_its_turn_behind_deliveries_the_peer_has_not_read() {
    use orco_serve::protocol::FrameReader;
    use std::io::Write;

    const CLUSTER: u64 = 7;
    const CHUNK: usize = 64;
    // ~10 MB on the wire: past what a loopback socket pair buffers for a
    // peer that is not reading.
    const ROWS: usize = CHUNK * 50;
    let (gateway, server) = serve(1, CHUNK, Duration::from_millis(1));

    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connects");
    let mut reader = FrameReader::new();
    raw.write_all(&Message::Subscribe { cluster_id: CLUSTER, trace: 0 }.encode()).expect("writes");
    match reader.read_message(&mut raw).expect("reply frame") {
        Some(Message::SubscribeAck { backlog: 0, .. }) => {}
        other => panic!("expected SubscribeAck, got {other:?}"),
    }

    let mut pusher = Client::connect(&Tcp::new(server.local_addr().to_string())).expect("connects");
    let frames = Matrix::from_fn(CHUNK, 784, |r, c| ((r * 784 + c) % 17) as f32 / 17.0);
    let mut pushed = 0;
    while pushed < ROWS {
        match pusher.push(CLUSTER, frames.as_view()).expect("push") {
            PushOutcome::Accepted(n) => pushed += n as usize,
            PushOutcome::Busy { .. } => std::thread::sleep(Duration::from_millis(1)),
            PushOutcome::Redirected { .. } => unreachable!("no fleet view installed"),
        }
    }
    // A pull takes the shard lock a delivery holds from its first row to
    // its last `push_frame`: once it returns empty with every row
    // counted as streamed, every delivery is in the subscriber's outbox.
    while gateway.stats().streamed_rows < ROWS as u64 {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(pusher.pull(CLUSTER, 1).expect("pull").rows(), 0);

    raw.write_all(&Message::StatsRequest.encode()).expect("writes");
    // Not needed for the assertions to hold, only for them to bite: let
    // the server's reader get to the reply while the socket is still full.
    std::thread::sleep(Duration::from_millis(50));
    let mut streamed = 0;
    loop {
        match reader.read_message(&mut raw).expect("whole frames").expect("no EOF") {
            Message::StreamFrames { cluster_id, frames, .. } => {
                assert_eq!(cluster_id, CLUSTER);
                streamed += frames.rows();
            }
            Message::StatsReply(stats) => {
                assert_eq!(stats.streamed_rows, ROWS as u64);
                break;
            }
            other => panic!("unexpected {}", other.kind()),
        }
    }
    assert_eq!(streamed, ROWS, "the reply overtook deliveries queued before its request");

    pusher.shutdown().expect("shutdown acked");
    server.join();
}

/// A streamed frame that arrives in two pieces, with a `recv_streamed`
/// timing out in between, is still delivered whole: what the first call
/// read stays in the connection's reader. (The per-call reader this
/// replaced dropped those bytes, and the next call parsed payload as a
/// header: `BadMagic`.)
#[test]
fn a_stream_poll_that_times_out_mid_frame_resumes_it() {
    use std::io::Write;
    use std::sync::mpsc;

    let frames = Matrix::from_fn(2, 64, |r, c| (r * 64 + c) as f32);
    let wire = Message::StreamFrames { cluster_id: 9, version: 0, frames: frames.clone() }.encode();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("bound");
    let (sent_tx, sent_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().expect("accepts");
        peer.set_nodelay(true).expect("nodelay");
        // The header and part of the payload, then nothing until told.
        peer.write_all(&wire[..100]).expect("first piece");
        sent_tx.send(()).expect("test is listening");
        go_rx.recv().expect("test says go");
        peer.write_all(&wire[100..]).expect("second piece");
        // Keep the socket open until the client has read it all.
        go_rx.recv().expect("test says done");
    });

    let mut client = Client::connect(&Tcp::new(addr.to_string())).expect("connects");
    sent_rx.recv().expect("first piece written");
    assert_eq!(
        client.recv_streamed(Duration::from_millis(10)).expect("a timeout, not an error"),
        None
    );
    go_tx.send(()).expect("server is waiting");
    let (cluster, rows) = client
        .recv_streamed(Duration::from_secs(10))
        .expect("the frame resumes")
        .expect("the rest arrives in time");
    assert_eq!(cluster, 9);
    assert_eq!(rows, frames);
    go_tx.send(()).expect("server is waiting");
    server.join().expect("server thread");
}
