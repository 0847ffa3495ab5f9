//! Edge-case tests for the epoll reactor serve path (DESIGN.md §15),
//! driven over real loopback sockets so the nonblocking readiness
//! machinery — not the simulated transport — is what's under test.
//!
//! Each test targets one hazard of edge-triggered readiness handling:
//! a frame split across wakeups, a kernel send buffer filling mid-write
//! (`EAGAIN` on the ack path), a peer resetting between readiness and
//! the read, more live connections than the reactor's event batch, and
//! a mid-frame stall tripping the read deadline — plus the query
//! handoff: replies stay in send order per connection, never reach a
//! connection that reused a closed asker's slot, never hold up other
//! connections' acks, frames parked behind a query are not a stall, and
//! a parked connection's socket is left unread (TCP backpressure).
//!
//! On non-linux-x86_64 hosts the same suite exercises the fallback
//! thread-per-connection path, which must honour identical semantics.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use felip::config::FelipConfig;
use felip::plan::CollectionPlan;
use felip_common::{Attribute, Predicate, Schema};
use felip_server::loadgen::{offline_reference, user_report};
use felip_server::wire::{
    decode_ack, decode_query_reply, encode_batch, encode_hello, encode_query, read_frame, Frame,
    FrameKind,
};
use felip_server::{QueryMode, QueryRequest, Server, ServerConfig, ServerRun};

fn plan() -> Arc<CollectionPlan> {
    let schema = Schema::new(vec![
        Attribute::numerical("a", 32),
        Attribute::categorical("c", 4),
    ])
    .unwrap();
    Arc::new(CollectionPlan::build(&schema, 1_000, &FelipConfig::new(1.0), 23).unwrap())
}

/// A plan whose first cold num × num query is slow: the response matrix
/// over two 256-value domains takes many milliseconds to fit.
fn slow_plan() -> Arc<CollectionPlan> {
    let schema = Schema::new(vec![
        Attribute::numerical("a", 256),
        Attribute::numerical("b", 256),
    ])
    .unwrap();
    Arc::new(CollectionPlan::build(&schema, 100_000, &FelipConfig::new(1.0), 29).unwrap())
}

/// Boots a server on an ephemeral port, runs `drive` against it, then
/// shuts down gracefully and returns the final run counters.
fn with_server<F>(config: ServerConfig, drive: F) -> ServerRun
where
    F: FnOnce(std::net::SocketAddr, u64),
{
    with_plan_server(plan(), config, |addr, plan| drive(addr, plan.schema_hash()))
}

/// [`with_server`] over a given plan.
fn with_plan_server<F>(plan: Arc<CollectionPlan>, config: ServerConfig, drive: F) -> ServerRun
where
    F: FnOnce(std::net::SocketAddr, &Arc<CollectionPlan>),
{
    let client_plan = Arc::clone(&plan);
    let server = Server::bind(plan, config).expect("bind");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let server_thread = thread::spawn(move || server.run(None).expect("serve"));
    drive(addr, &client_plan);
    shutdown.store(true, Ordering::SeqCst);
    server_thread.join().expect("join server")
}

fn hello_frame(plan_hash: u64, client_id: u64) -> Vec<u8> {
    Frame {
        kind: FrameKind::Hello,
        plan_hash,
        payload: encode_hello(client_id),
    }
    .encode()
}

/// `ReportBatch` `batch_id` carrying users `users` (loadgen seed 7).
fn batch_frame(plan: &CollectionPlan, batch_id: u64, users: std::ops::Range<usize>) -> Vec<u8> {
    let reports: Vec<_> = users.map(|u| user_report(plan, u, 7).unwrap()).collect();
    Frame {
        kind: FrameKind::ReportBatch,
        plan_hash: plan.schema_hash(),
        payload: encode_batch(batch_id, &reports).unwrap(),
    }
    .encode()
}

/// The λ = 2 probe every query test asks: a range on the first
/// attribute, a range or a set on the second.
fn probe(plan: &CollectionPlan) -> Vec<Predicate> {
    let second = if plan.schema().attr(1).kind.is_categorical() {
        Predicate::in_set(1, vec![1, 2])
    } else {
        Predicate::between(1, 10, 200)
    };
    vec![Predicate::between(0, 4, 20), second]
}

/// A `Query` frame for [`probe`] with correlation id `id`.
fn query_frame(plan: &CollectionPlan, id: u64, mode: QueryMode) -> Vec<u8> {
    let req = QueryRequest {
        query_id: id,
        mode,
        predicates: probe(plan),
    };
    Frame {
        kind: FrameKind::Query,
        plan_hash: plan.schema_hash(),
        payload: encode_query(&req).unwrap(),
    }
    .encode()
}

/// Asserts `frame` acks batch `batch_id`.
fn assert_ack(frame: &Frame, batch_id: u64) {
    assert_eq!(
        frame.kind,
        FrameKind::Ack,
        "expected the ack of batch {batch_id}"
    );
    assert_eq!(decode_ack(&frame.payload).unwrap().0, batch_id);
}

/// Asserts `frame` answers query `id` and returns the answer.
fn assert_answer(frame: &Frame, id: u64) -> felip_server::QueryAnswer {
    assert_eq!(
        frame.kind,
        FrameKind::QueryReply,
        "expected the answer to query {id}"
    );
    let ans = decode_query_reply(&frame.payload).unwrap();
    assert_eq!(ans.query_id, id, "answer belongs to another query");
    ans
}

/// Reads one frame off a blocking stream, panicking on EOF or garble.
fn expect_frame<R: Read>(r: &mut R) -> Frame {
    read_frame(r).expect("wire error").expect("unexpected EOF")
}

/// A frame written in two pieces with a pause in between must be
/// reassembled across reactor wakeups: the first readable event
/// delivers a partial header, the connection's read buffer holds it,
/// and the second event completes the frame.
#[test]
fn partial_frame_across_wakeups_is_reassembled() {
    let run = with_server(ServerConfig::default(), |addr, plan_hash| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        let frame = hello_frame(plan_hash, 77);
        // Split inside the fixed header so the first wakeup cannot even
        // learn the payload length.
        let (head, tail) = frame.split_at(9);
        stream.write_all(head).unwrap();
        stream.flush().unwrap();
        thread::sleep(Duration::from_millis(120));
        stream.write_all(tail).unwrap();
        let reply = expect_frame(&mut stream);
        assert_eq!(reply.kind, FrameKind::Ack);
    });
    assert_eq!(run.stats.frames_rejected, 0);
}

/// Floods the server with hellos without draining acks. The kernel send
/// buffer toward the client fills, the reactor's write hits `EAGAIN`
/// mid-ack, and it must arm `EPOLLOUT` and finish the flush later —
/// every single ack must still arrive, in order, once the client reads.
#[test]
fn eagain_mid_write_flushes_every_ack() {
    const HELLOS: usize = 20_000;
    let run = with_server(ServerConfig::default(), |addr, plan_hash| {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        let mut burst = Vec::with_capacity(HELLOS * 40);
        for _ in 0..HELLOS {
            burst.extend_from_slice(&hello_frame(plan_hash, 5));
        }
        // Writer thread: the client-side socket would also block once
        // both directions' buffers fill, so writing and reading must
        // overlap for the test to terminate.
        let writer = thread::spawn(move || {
            let mut w = &stream;
            w.write_all(&burst).unwrap();
            stream
        });
        // Reading lags the writer, guaranteeing a window where the
        // server has acks queued against a full kernel buffer.
        thread::sleep(Duration::from_millis(100));
        let stream = writer.join().expect("writer");
        let mut r = BufReader::new(stream);
        for i in 0..HELLOS {
            let reply = expect_frame(&mut r);
            assert_eq!(reply.kind, FrameKind::Ack, "ack {i} missing or garbled");
        }
    });
    assert_eq!(run.stats.frames_rejected, 0);
}

/// Drops connections with unread acks in the socket buffer, which makes
/// the kernel send `RST` instead of `FIN`: the reactor can then observe
/// `EPOLLERR`/`ECONNRESET` between a readiness event and the read. The
/// server must treat it as that connection's problem only.
#[test]
fn reset_between_readiness_and_read_is_contained() {
    with_server(ServerConfig::default(), |addr, plan_hash| {
        for round in 0..20 {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).unwrap();
            stream
                .write_all(&hello_frame(plan_hash, 1000 + round))
                .unwrap();
            // Drop without reading the ack: unread data in our receive
            // buffer forces an RST on close.
            drop(stream);
        }
        // Give the reactor a beat to observe the resets, then prove a
        // fresh session still completes normally.
        thread::sleep(Duration::from_millis(100));
        let mut stream = TcpStream::connect(addr).expect("post-reset connect");
        stream.write_all(&hello_frame(plan_hash, 9)).unwrap();
        let reply = expect_frame(&mut stream);
        assert_eq!(reply.kind, FrameKind::Ack);
    });
}

/// Holds more live connections than the reactor's 1024-slot event
/// buffer. Readiness for the overflow must simply arrive on later
/// `epoll_wait` batches — every connection still gets its ack.
#[test]
fn more_connections_than_one_event_batch() {
    const CONNS: usize = 1_100;
    let run = with_server(
        ServerConfig {
            // Long idle timeout: slots must survive while we slowly
            // walk all 1100 handshakes.
            idle_timeout: Duration::from_secs(120),
            ..ServerConfig::default()
        },
        |addr, plan_hash| {
            let mut streams = Vec::with_capacity(CONNS);
            for i in 0..CONNS {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.write_all(&hello_frame(plan_hash, i as u64)).unwrap();
                streams.push(stream);
            }
            for (i, stream) in streams.iter_mut().enumerate() {
                let reply = expect_frame(stream);
                assert_eq!(reply.kind, FrameKind::Ack, "connection {i}");
            }
        },
    );
    assert!(
        run.stats.connections >= CONNS as u64,
        "expected >= {CONNS} accepted, saw {}",
        run.stats.connections
    );
}

/// A connection that stalls mid-frame past `read_timeout` must be
/// reported (error frame, then close) rather than pinning its buffer
/// forever; completed-frame idleness is governed separately by
/// `idle_timeout`.
#[test]
fn mid_frame_stall_trips_read_deadline() {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(200),
        idle_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let run = with_server(config, |addr, plan_hash| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        let frame = hello_frame(plan_hash, 3);
        stream.write_all(&frame[..frame.len() - 5]).unwrap();
        stream.flush().unwrap();
        // Stall far past the read deadline; the server must give up on
        // the half-frame and tell us why before closing.
        let reply = expect_frame(&mut stream);
        assert_eq!(reply.kind, FrameKind::Error);
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("read to EOF");
        assert!(rest.is_empty(), "nothing after the error frame");
    });
    assert!(run.stats.frames_rejected >= 1);
}

/// A `Query` pipelined between two `ReportBatch` frames in one write gets
/// its replies in send order — hello ack, ack 1, answer, ack 2 — and the
/// answer covers exactly the batch sent before it: the batch behind the
/// query is not decoded until the answer is out.
#[test]
fn query_pipelined_between_batches_replies_in_send_order() {
    let run = with_plan_server(plan(), ServerConfig::default(), |addr, plan| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        let mut burst = hello_frame(plan.schema_hash(), 41);
        burst.extend(batch_frame(plan, 1, 0..40));
        burst.extend(query_frame(plan, 9, QueryMode::Cached));
        burst.extend(batch_frame(plan, 2, 40..80));
        stream.write_all(&burst).unwrap();

        assert_ack(&expect_frame(&mut stream), 0);
        assert_ack(&expect_frame(&mut stream), 1);
        let ans = assert_answer(&expect_frame(&mut stream), 9);
        assert_eq!(ans.reports, 40, "the answer must cover batch 1 only");
        let offline = offline_reference(plan, 0..40, 7).unwrap();
        let query = felip_common::Query::new(plan.schema(), probe(plan)).unwrap();
        let expected = offline.estimate().unwrap().answer(&query).unwrap();
        assert_eq!(ans.answer.to_bits(), expected.to_bits());
        assert_ack(&expect_frame(&mut stream), 2);
    });
    assert_eq!(run.stats.reports_accepted, 80);
    assert_eq!(run.stats.frames_rejected, 0);
}

/// An asker that resets its connection while its slow query is out frees
/// the slot; the next connection reuses it. The orphaned answer must be
/// dropped: the newcomer's first query reply is its own.
#[test]
fn closed_askers_reply_never_reaches_the_slots_next_connection() {
    with_plan_server(slow_plan(), ServerConfig::default(), |addr, plan| {
        let plan_hash = plan.schema_hash();
        let mut feeder = TcpStream::connect(addr).expect("connect");
        let mut feed = hello_frame(plan_hash, 1);
        feed.extend(batch_frame(plan, 1, 0..200));
        feeder.write_all(&feed).unwrap();
        assert_ack(&expect_frame(&mut feeder), 0);
        assert_ack(&expect_frame(&mut feeder), 1);
        drop(feeder);
        thread::sleep(Duration::from_millis(50));

        // Hello's unread ack makes the drop an RST, so the reactor frees
        // the slot while the cold query is still being answered.
        let mut asker = TcpStream::connect(addr).expect("connect");
        let mut ask = hello_frame(plan_hash, 2);
        ask.extend(query_frame(plan, 111, QueryMode::Fresh));
        asker.write_all(&ask).unwrap();
        thread::sleep(Duration::from_millis(5));
        drop(asker);
        thread::sleep(Duration::from_millis(50));

        let mut next = TcpStream::connect(addr).expect("connect");
        next.write_all(&hello_frame(plan_hash, 3)).unwrap();
        assert_ack(&expect_frame(&mut next), 0);
        // Queued behind the orphaned query at the worker, so its answer
        // is posted after the orphan's.
        next.write_all(&query_frame(plan, 222, QueryMode::Fresh))
            .unwrap();
        assert_answer(&expect_frame(&mut next), 222);
    });
}

/// While connection A waits on a slow cold query, connection B's batches
/// are acked: the reactor never waits for the query worker.
#[test]
fn slow_query_does_not_hold_up_other_connections_acks() {
    with_plan_server(slow_plan(), ServerConfig::default(), |addr, plan| {
        let plan_hash = plan.schema_hash();
        let mut b = TcpStream::connect(addr).expect("connect");
        b.set_nodelay(true).unwrap();
        let mut feed = hello_frame(plan_hash, 5);
        feed.extend(batch_frame(plan, 1, 0..200));
        b.write_all(&feed).unwrap();
        assert_ack(&expect_frame(&mut b), 0);
        assert_ack(&expect_frame(&mut b), 1);

        let mut a = TcpStream::connect(addr).expect("connect");
        a.write_all(&query_frame(plan, 7, QueryMode::Fresh))
            .unwrap();
        thread::sleep(Duration::from_millis(5));
        for batch_id in 2..=6u64 {
            let lo = batch_id as usize * 100;
            b.write_all(&batch_frame(plan, batch_id, lo..lo + 100))
                .unwrap();
            assert_ack(&expect_frame(&mut b), batch_id);
        }
        a.set_nonblocking(true).unwrap();
        let mut byte = [0u8; 1];
        let early = a.peek(&mut byte);
        assert!(
            matches!(&early, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
            "the slow answer arrived before B's acks: {early:?}"
        );
        a.set_nonblocking(false).unwrap();
        let ans = assert_answer(&expect_frame(&mut a), 7);
        assert!(ans.reports >= 200);
    });
}

/// Whole frames buffered behind a pending query wait on the server, not
/// on the peer: however long the query takes, they must not trip the
/// mid-frame `read_timeout` stall.
#[test]
fn frames_parked_behind_a_query_never_trip_the_stall_deadline() {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(20),
        ..ServerConfig::default()
    };
    let run = with_plan_server(slow_plan(), config, |addr, plan| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        let mut burst = hello_frame(plan.schema_hash(), 8);
        burst.extend(batch_frame(plan, 1, 0..200));
        burst.extend(query_frame(plan, 3, QueryMode::Fresh));
        burst.extend(batch_frame(plan, 2, 200..400));
        burst.extend(batch_frame(plan, 3, 400..600));
        stream.write_all(&burst).unwrap();
        assert_ack(&expect_frame(&mut stream), 0);
        assert_ack(&expect_frame(&mut stream), 1);
        assert_eq!(assert_answer(&expect_frame(&mut stream), 3).reports, 200);
        assert_ack(&expect_frame(&mut stream), 2);
        assert_ack(&expect_frame(&mut stream), 3);
    });
    assert_eq!(
        run.stats.frames_rejected, 0,
        "a parked frame was taken for a stall"
    );
    assert_eq!(run.stats.reports_accepted, 600);
}

/// While a slow query is out, the server leaves the connection's socket
/// unread: a peer that keeps writing meets a full TCP window
/// (`WouldBlock`) that stays full, instead of the server buffering its
/// bytes. Once the answer lands the parked bytes are decoded in order.
#[test]
fn parked_connection_leaves_its_bytes_in_the_kernel() {
    /// Bytes the peer may get into the kernels: Linux grows a receive
    /// buffer only as the application reads it, so an unread socket
    /// holds its initial window plus the sender's buffer (4 MiB at most
    /// by default).
    const CAP: usize = 16 << 20;
    /// Consecutive refused writes, 1 ms apart, that count as a window
    /// that stays full (a server that reads would drain it meanwhile).
    const REFUSALS: u32 = 10;
    with_plan_server(slow_plan(), ServerConfig::default(), |addr, plan| {
        let plan_hash = plan.schema_hash();
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut feed = hello_frame(plan_hash, 6);
        feed.extend(batch_frame(plan, 1, 0..200));
        stream.write_all(&feed).unwrap();
        assert_ack(&expect_frame(&mut stream), 0);
        assert_ack(&expect_frame(&mut stream), 1);
        stream
            .write_all(&query_frame(plan, 4, QueryMode::Fresh))
            .unwrap();
        // Let the server decode the query on its own: a read pass that
        // races the filler below would take it along with the query.
        thread::sleep(Duration::from_millis(10));

        // Re-sent copies of batch 1 behind the query, written until the
        // socket refuses; `pos` keeps partial writes frame-aligned.
        let frame = batch_frame(plan, 1, 0..200);
        let filler = frame.repeat((64 * 1024) / frame.len() + 1);
        stream.set_nonblocking(true).unwrap();
        let (mut sent, mut pos, mut refused) = (0usize, 0usize, 0u32);
        while sent < CAP && refused < REFUSALS {
            match stream.write(&filler[pos..]) {
                Ok(n) => {
                    sent += n;
                    pos = (pos + n) % filler.len();
                    refused = 0;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    refused += 1;
                    thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("write failed after {sent} bytes: {e}"),
            }
        }
        assert!(
            sent < CAP,
            "the server took {sent} bytes while its query was out"
        );
        stream.set_nonblocking(false).unwrap();
        assert_eq!(assert_answer(&expect_frame(&mut stream), 4).reports, 200);
        // Decoding resumed: the first copy is acked as a duplicate.
        assert_ack(&expect_frame(&mut stream), 1);
    });
}
