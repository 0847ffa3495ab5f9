//! End-to-end serve tests over loopback TCP: a served collection must be
//! bit-identical to an offline one, including across kill + resume.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use felip::config::FelipConfig;
use felip::plan::CollectionPlan;
use felip_common::{Attribute, Schema};
use felip_server::loadgen::{batch_reports, offline_reference};
use felip_server::{Client, RetryPolicy, Server, ServerConfig, ServerRun};

fn plan() -> Arc<CollectionPlan> {
    let schema = Schema::new(vec![
        Attribute::numerical("a", 64),
        Attribute::categorical("c", 4),
    ])
    .unwrap();
    Arc::new(CollectionPlan::build(&schema, 4_000, &FelipConfig::new(1.0), 17).unwrap())
}

/// Boots a server, streams `users` over `connections` clients in batches,
/// shuts down gracefully, and returns the merged run.
fn serve_users(
    plan: &Arc<CollectionPlan>,
    config: ServerConfig,
    users: std::ops::Range<usize>,
    connections: usize,
    seed: u64,
) -> ServerRun {
    let server = Server::bind(Arc::clone(plan), config).expect("bind");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let server_thread = thread::spawn(move || server.run(None).expect("serve"));

    let plan_hash = plan.schema_hash();
    let user_list: Vec<usize> = users.collect();
    let chunk = user_list.len().div_ceil(connections.max(1));
    thread::scope(|s| {
        for slice in user_list.chunks(chunk.max(1)) {
            let plan = Arc::clone(plan);
            s.spawn(move || {
                let mut client = Client::connect(addr, plan_hash).expect("connect");
                let batches = slice.len().div_ceil(50) as u64;
                client
                    .send_through(batches, |id| batch_reports(&plan, slice, 50, seed, id))
                    .expect("send");
            });
        }
    });

    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    server_thread.join().expect("join server")
}

#[test]
fn served_counts_match_offline_collection() {
    let plan = plan();
    let run = serve_users(&plan, ServerConfig::default(), 0..1_500, 3, 99);
    let offline = offline_reference(&plan, 0..1_500, 99).unwrap();

    assert_eq!(run.aggregator.reports_ingested(), 1_500);
    assert_eq!(run.aggregator.counts(), offline.counts());
    assert_eq!(run.aggregator.group_sizes(), offline.group_sizes());
    assert_eq!(run.stats.reports_accepted, 1_500);
    assert!(run.stats.connections >= 3);

    let a = run.aggregator.estimate().unwrap();
    let b = offline.estimate().unwrap();
    for (ga, gb) in a.grids().iter().zip(b.grids()) {
        assert_eq!(ga.freqs(), gb.freqs(), "served estimates must be exact");
    }
}

#[test]
fn tiny_queue_backpressure_loses_nothing() {
    // One worker with a single-slot queue: RETRYs are likely, and the
    // retry-until-ack client loop must still deliver every report exactly
    // once.
    let plan = plan();
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let run = serve_users(&plan, config, 0..1_000, 4, 7);
    let offline = offline_reference(&plan, 0..1_000, 7).unwrap();
    assert_eq!(run.aggregator.counts(), offline.counts());
    assert_eq!(run.aggregator.group_sizes(), offline.group_sizes());
}

#[test]
fn kill_and_resume_is_bit_identical() {
    let plan = plan();
    let dir = std::env::temp_dir();
    let snap = dir.join(format!("felip-e2e-resume-{}.snap", std::process::id()));
    let _ = std::fs::remove_file(&snap);

    // First run: first half of the users, snapshot on shutdown.
    let first_cfg = ServerConfig {
        snapshot_path: Some(snap.clone()),
        snapshot_every: Some(Duration::from_millis(50)),
        ..ServerConfig::default()
    };
    let first = serve_users(&plan, first_cfg, 0..800, 2, 123);
    assert_eq!(first.aggregator.reports_ingested(), 800);
    assert!(snap.exists(), "graceful shutdown must leave a snapshot");
    assert!(first.stats.snapshots_written >= 1);

    // Second run resumes from the snapshot and serves the second half.
    let second_cfg = ServerConfig {
        snapshot_path: Some(snap.clone()),
        resume: Some(snap.clone()),
        ..ServerConfig::default()
    };
    let second = serve_users(&plan, second_cfg, 800..1_600, 2, 123);
    assert_eq!(second.aggregator.reports_ingested(), 1_600);

    let offline = offline_reference(&plan, 0..1_600, 123).unwrap();
    assert_eq!(second.aggregator.counts(), offline.counts());
    assert_eq!(second.aggregator.group_sizes(), offline.group_sizes());
    let a = second.aggregator.estimate().unwrap();
    let b = offline.estimate().unwrap();
    for (ga, gb) in a.grids().iter().zip(b.grids()) {
        assert_eq!(ga.freqs(), gb.freqs(), "resume must not perturb estimates");
    }
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn reconnect_keeps_identity_and_never_double_counts() {
    let plan = plan();
    let server = Server::bind(Arc::clone(&plan), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let t = thread::spawn(move || server.run(None).unwrap());
    let plan_hash = plan.schema_hash();
    let users: Vec<usize> = (0..150).collect();
    let batch = |id| batch_reports(&plan, &users, 50, 5, id);

    let mut client = Client::connect_with(addr, plan_hash, 42, RetryPolicy::default()).unwrap();
    client.send_through(1, batch).unwrap();
    client.send_through(2, batch).unwrap();
    assert_eq!(client.last_acked(), 2);

    // The connection dies and the same identity comes back: the Hello ack
    // resyncs the cursor, so nothing already accepted is ever re-sent.
    drop(client);
    let mut client = Client::connect_with(addr, plan_hash, 42, RetryPolicy::default()).unwrap();
    assert_eq!(client.last_acked(), 2, "identity must survive reconnect");
    client.send_through(3, batch).unwrap();
    assert_eq!(client.last_acked(), 3);

    // A separate process pinning the same id resumes the same sequence.
    let late = Client::connect_with(addr, plan_hash, 42, RetryPolicy::default()).unwrap();
    assert_eq!(late.last_acked(), 3);
    drop(late);
    drop(client);

    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    let run = t.join().unwrap();
    assert_eq!(run.aggregator.reports_ingested(), 150);
    let offline = offline_reference(&plan, 0..150, 5).unwrap();
    assert_eq!(run.aggregator.counts(), offline.counts());
    assert_eq!(run.aggregator.group_sizes(), offline.group_sizes());
}

#[test]
fn idle_reaped_client_recovers_transparently() {
    // The reaper closes a quiet connection; the next send must reconnect
    // under the same identity inside send_through and lose nothing.
    let plan = plan();
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let server = Server::bind(Arc::clone(&plan), config).unwrap();
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let t = thread::spawn(move || server.run(None).unwrap());
    let plan_hash = plan.schema_hash();
    let users: Vec<usize> = (0..120).collect();
    let batch = |id| batch_reports(&plan, &users, 60, 11, id);

    let mut client = Client::connect_with(addr, plan_hash, 9, RetryPolicy::default()).unwrap();
    client.send_through(1, batch).unwrap();
    thread::sleep(Duration::from_millis(400)); // well past the idle window
    client.send_through(2, batch).unwrap();
    assert_eq!(client.last_acked(), 2);
    drop(client);

    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    let run = t.join().unwrap();
    assert_eq!(run.aggregator.reports_ingested(), 120);
    let offline = offline_reference(&plan, 0..120, 11).unwrap();
    assert_eq!(run.aggregator.counts(), offline.counts());
    assert!(run.stats.conns_reaped >= 1, "the reaper should have fired");
}

/// The v5 headline invariant over real TCP: a live `Query` answer equals
/// the offline batch estimate on the same counts, bit for bit — cold,
/// warm (cached epoch), and after more ingest (invalidation).
#[test]
fn live_queries_match_offline_estimates_bit_identically() {
    use felip_common::{Predicate, Query};
    use felip_server::QueryMode;

    let plan = plan();
    let plan_hash = plan.schema_hash();
    let server = Server::bind(Arc::clone(&plan), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let server_thread = thread::spawn(move || server.run(None).expect("serve"));

    let users: Vec<usize> = (0..900).collect();
    let batch = |id| batch_reports(&plan, &users, 50, 31, id);
    let mut client = Client::connect(addr, plan_hash).expect("connect");
    client.send_through(12, batch).expect("send");

    let preds = vec![
        Predicate::between(0, 8, 40),
        Predicate::in_set(1, vec![1, 2]),
    ];
    let query = Query::new(plan.schema(), preds.clone()).unwrap();

    // Cold: the first query takes a cut and builds epoch 1.
    let cold = client
        .query(preds.clone(), QueryMode::Cached)
        .expect("cold query");
    assert_eq!(cold.epoch, 1);
    assert_eq!(cold.reports, 600);
    assert_eq!(cold.head_epoch, cold.epoch, "no ingest is racing this test");
    let offline = offline_reference(&plan, 0..600, 31).unwrap();
    let expected = offline.estimate().unwrap().answer(&query).unwrap();
    assert_eq!(
        cold.answer.to_bits(),
        expected.to_bits(),
        "live answer must be bit-identical to the offline batch estimate"
    );

    // Warm: same epoch, same bits, no new cut.
    let warm = client
        .query(preds.clone(), QueryMode::Cached)
        .expect("warm query");
    assert_eq!(warm.epoch, 1);
    assert_eq!(warm.answer.to_bits(), expected.to_bits());

    // Fresh mode with unchanged counts must not advance the epoch (the
    // engine sees identical per-grid counts).
    let fresh = client
        .query(preds.clone(), QueryMode::Fresh)
        .expect("fresh query");
    assert_eq!(fresh.epoch, 1);
    assert_eq!(fresh.answer.to_bits(), expected.to_bits());

    // More ingest invalidates the cache: the next query re-cuts, advances
    // the epoch, and again matches offline on the new counts.
    client.send_through(18, batch).expect("send");
    let after = client
        .query(preds.clone(), QueryMode::Cached)
        .expect("post-ingest query");
    assert_eq!(after.epoch, 2);
    assert_eq!(after.reports, 900);
    let offline2 = offline_reference(&plan, 0..900, 31).unwrap();
    let expected2 = offline2.estimate().unwrap().answer(&query).unwrap();
    assert_eq!(after.answer.to_bits(), expected2.to_bits());

    // An invalid query answers an Error frame without killing the
    // connection.
    let err = client
        .query(vec![Predicate::between(0, 63, 2)], QueryMode::Cached)
        .expect_err("inverted range must be rejected");
    assert!(matches!(err, felip_server::WireError::Rejected(_)), "{err}");
    let still = client
        .query(preds, QueryMode::Cached)
        .expect("connection survives");
    assert_eq!(still.answer.to_bits(), expected2.to_bits());

    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    let run = server_thread.join().expect("join server");
    assert_eq!(run.aggregator.reports_ingested(), 900);
}

#[test]
fn mismatched_plan_is_rejected_at_handshake() {
    let plan = plan();
    let server = Server::bind(Arc::clone(&plan), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let t = thread::spawn(move || server.run(None).unwrap());

    let err = match Client::connect(addr, plan.schema_hash() ^ 1) {
        Ok(_) => panic!("handshake with a foreign plan hash must fail"),
        Err(e) => e,
    };
    assert!(matches!(err, felip_server::WireError::Rejected(_)), "{err}");

    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    let run = t.join().unwrap();
    assert_eq!(run.aggregator.reports_ingested(), 0);
    assert!(run.stats.frames_rejected >= 1);
}

#[test]
fn a_server_restored_behind_the_client_gets_the_lost_batches_resent() {
    // Three server lives on one port. The second resumes the first's
    // snapshot and takes batches 3 and 4; the third resumes a copy of the
    // first life's snapshot, so its cursor is 2 while the client's is 4.
    // The client must resend 3 and 4 under their own ids before batch 5.
    let plan = plan();
    let snap = std::env::temp_dir().join(format!("felip-e2e-rewind-{}.snap", std::process::id()));
    let first_life = snap.with_extension("first");
    let start = |addr: String, resume: Option<std::path::PathBuf>| {
        let config = ServerConfig {
            addr,
            snapshot_path: Some(snap.clone()),
            resume,
            ..ServerConfig::default()
        };
        let server = Server::bind(Arc::clone(&plan), config).expect("bind");
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let t = thread::spawn(move || server.run(None).expect("serve"));
        (addr, move || {
            shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
            t.join().expect("join server")
        })
    };
    let users: Vec<usize> = (0..250).collect();
    let batch = |id| batch_reports(&plan, &users, 50, 41, id);

    let (addr, stop) = start("127.0.0.1:0".into(), None);
    let mut client =
        Client::connect_with(addr, plan.schema_hash(), 7, RetryPolicy::default()).expect("connect");
    client.send_through(2, batch).expect("send");
    assert_eq!(stop().aggregator.reports_ingested(), 100);
    std::fs::copy(&snap, &first_life).expect("copy the first life's snapshot");

    let (_, stop) = start(addr.to_string(), Some(snap.clone()));
    client.send_through(4, batch).expect("send");
    assert_eq!(client.last_acked(), 4);
    assert_eq!(stop().aggregator.reports_ingested(), 200);

    let (_, stop) = start(addr.to_string(), Some(first_life.clone()));
    client.send_through(5, batch).expect("send");
    assert_eq!(client.last_acked(), 5);
    let run = stop();
    let offline = offline_reference(&plan, 0..250, 41).unwrap();
    assert_eq!(run.aggregator.reports_ingested(), 250);
    assert_eq!(run.aggregator.counts(), offline.counts());
    assert_eq!(run.aggregator.group_sizes(), offline.group_sizes());
    let _ = std::fs::remove_file(&snap);
    let _ = std::fs::remove_file(&first_life);
}
