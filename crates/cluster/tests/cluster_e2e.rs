//! End-to-end cluster tests over loopback TCP: a deterministic loadgen
//! split across N ingest nodes, streamed upstream as deltas, must merge to
//! counts bit-identical to the single-node run — including across node
//! kill+resume and an aggregator restart (DESIGN.md §16).

mod common;

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use felip_cluster::{AggregatorConfig, AggregatorServer, StreamerConfig, UpstreamStreamer};
use felip_common::{Predicate, Query};
use felip_server::loadgen::offline_reference;
use felip_server::wire::{self, Frame, FrameKind, QueryAnswer, QueryMode, QueryRequest};
use felip_server::{ServerConfig, Snapshot};

use common::{plan, serve_and_stream, split_users, NodeExit};

#[test]
fn three_node_split_merges_bit_identical_to_single_node() {
    let plan = plan();
    let total = 600;
    let seed = 42;
    let nodes = 3;

    let agg = AggregatorServer::bind(Arc::clone(&plan), AggregatorConfig::default())
        .expect("bind aggregator");
    let upstream = agg.local_addr();
    let stop = agg.shutdown_handle();
    let agg_thread = thread::spawn(move || agg.run(None).expect("aggregator run"));

    let outcomes = thread::scope(|s| {
        let handles: Vec<_> = (0..nodes)
            .map(|i| {
                let plan = Arc::clone(&plan);
                s.spawn(move || {
                    serve_and_stream(
                        &plan,
                        upstream,
                        i as u64 + 1,
                        &split_users(total, nodes, i),
                        seed,
                        ServerConfig::default(),
                        NodeExit::Flush,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread"))
            .collect::<Vec<_>>()
    });

    stop.store(true, Ordering::SeqCst);
    let run = agg_thread.join().expect("join aggregator");

    // Every node flushed its whole share.
    for (i, outcome) in outcomes.iter().enumerate() {
        let share = split_users(total, nodes, i).len();
        assert_eq!(outcome.run.aggregator.reports_ingested(), share);
        let report = outcome
            .report
            .clone()
            .expect("flushed")
            .expect("flush acked");
        assert_eq!(report.flushed_reports, share as u64, "node {i} flush");
        assert!(report.deltas_acked >= 1);
    }

    // The headline invariant: merged counts are bit-identical to the
    // single-node (= offline union) run.
    let expected = offline_reference(&plan, 0..total, seed).expect("offline");
    assert_eq!(run.merged.reports_ingested(), total);
    assert_eq!(run.merged.counts(), expected.counts());
    assert_eq!(run.merged.group_sizes(), expected.group_sizes());
    assert_eq!(run.merged.counts_digest(), expected.counts_digest());

    // Post-processing (norm-sub consistency) runs after the merge, so the
    // estimates are exact too.
    let a = run.merged.estimate().expect("cluster estimate");
    let b = expected.estimate().expect("offline estimate");
    for (ga, gb) in a.grids().iter().zip(b.grids()) {
        assert_eq!(ga.freqs(), gb.freqs(), "cluster estimates must be exact");
    }

    assert_eq!(run.nodes.len(), nodes);
    assert!(run.stats.deltas_applied >= nodes as u64);
}

#[test]
fn killed_node_rejoins_with_full_resync_and_loses_nothing() {
    let plan = plan();
    let total = 400;
    let seed = 7;
    let dir = std::env::temp_dir().join(format!("felip-cluster-rejoin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("node2.snap");

    let agg = AggregatorServer::bind(Arc::clone(&plan), AggregatorConfig::default())
        .expect("bind aggregator");
    let upstream = agg.local_addr();
    let stop = agg.shutdown_handle();
    let agg_thread = thread::spawn(move || agg.run(None).expect("aggregator run"));

    // Node 1 serves its full share normally.
    let node1_users = split_users(total, 2, 0);
    let node2_users = split_users(total, 2, 1);
    let (first_half, second_half) = node2_users.split_at(node2_users.len() / 2);

    let node2_report = thread::scope(|s| {
        let n1 = {
            let plan = Arc::clone(&plan);
            let users = node1_users.clone();
            s.spawn(move || {
                serve_and_stream(
                    &plan,
                    upstream,
                    1,
                    &users,
                    seed,
                    ServerConfig::default(),
                    NodeExit::Flush,
                )
            })
        };

        // Node 2, first life: half its share, snapshotting, then killed —
        // the streamer is abandoned with cuts possibly unflushed.
        let killed_cfg = ServerConfig {
            snapshot_path: Some(snap.clone()),
            snapshot_every: Some(Duration::from_millis(25)),
            ..ServerConfig::default()
        };
        let killed = serve_and_stream(
            &plan,
            upstream,
            2,
            first_half,
            seed,
            killed_cfg,
            NodeExit::Abandon,
        );
        assert_eq!(killed.run.aggregator.reports_ingested(), first_half.len());
        assert!(snap.exists(), "kill must leave a snapshot behind");

        // Second life: resume the snapshot, serve the rest, flush. The
        // fresh streamer takes its epoch cursor from the Hello ack, and its
        // cumulative state replaces the first life's view.
        let resumed_cfg = ServerConfig {
            snapshot_path: Some(snap.clone()),
            resume: Some(snap.clone()),
            ..ServerConfig::default()
        };
        let resumed = serve_and_stream(
            &plan,
            upstream,
            2,
            second_half,
            seed,
            resumed_cfg,
            NodeExit::Flush,
        );
        assert_eq!(resumed.run.aggregator.reports_ingested(), node2_users.len());

        n1.join()
            .expect("node 1")
            .report
            .expect("flushed")
            .expect("node 1 flush");
        resumed
            .report
            .clone()
            .expect("flushed")
            .expect("node 2 flush")
    });

    stop.store(true, Ordering::SeqCst);
    let run = agg_thread.join().expect("join aggregator");

    assert_eq!(node2_report.flushed_reports, node2_users.len() as u64);

    let expected = offline_reference(&plan, 0..total, seed).expect("offline");
    assert_eq!(run.merged.reports_ingested(), total);
    assert_eq!(run.merged.counts(), expected.counts());
    assert_eq!(run.merged.group_sizes(), expected.group_sizes());
    assert_eq!(run.merged.counts_digest(), expected.counts_digest());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aggregator_restart_mid_load_converges_with_resume() {
    let plan = plan();
    let total = 500;
    let seed = 13;
    let dir = std::env::temp_dir().join(format!("felip-cluster-aggrestart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let state_path = dir.join("cluster.fclu");

    let first_cfg = AggregatorConfig {
        state_path: Some(state_path.clone()),
        persist_every: Duration::from_millis(25),
        ..AggregatorConfig::default()
    };
    let agg = AggregatorServer::bind(Arc::clone(&plan), first_cfg).expect("bind aggregator");
    let upstream = agg.local_addr();
    let stop = agg.shutdown_handle();
    let agg_thread = thread::spawn(move || agg.run(None).expect("first aggregator run"));

    let (outcomes, run) = thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let plan = Arc::clone(&plan);
                s.spawn(move || {
                    serve_and_stream(
                        &plan,
                        upstream,
                        i as u64 + 1,
                        &split_users(total, 2, i),
                        seed,
                        ServerConfig::default(),
                        NodeExit::Flush,
                    )
                })
            })
            .collect();

        // Bounce the aggregator while the nodes are (likely) mid-load. The
        // invariant below holds regardless of exactly when this lands: the
        // nodes' final flush happens against the restarted instance.
        thread::sleep(Duration::from_millis(60));
        stop.store(true, Ordering::SeqCst);
        agg_thread.join().expect("join first aggregator");

        let second_cfg = AggregatorConfig {
            addr: upstream.to_string(),
            state_path: Some(state_path.clone()),
            resume: Some(state_path.clone()),
            persist_every: Duration::from_millis(25),
            ..AggregatorConfig::default()
        };
        let agg2 = AggregatorServer::bind(Arc::clone(&plan), second_cfg)
            .expect("rebind aggregator on the same port");
        let stop2 = agg2.shutdown_handle();
        let agg2_thread = thread::spawn(move || agg2.run(None).expect("second aggregator run"));

        let outcomes: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("node thread"))
            .collect();
        stop2.store(true, Ordering::SeqCst);
        let run = agg2_thread.join().expect("join second aggregator");
        (outcomes, run)
    });

    for (i, outcome) in outcomes.iter().enumerate() {
        outcome
            .report
            .clone()
            .expect("flushed")
            .unwrap_or_else(|r| panic!("node {i} flush did not complete: {r:?}"));
    }

    let expected = offline_reference(&plan, 0..total, seed).expect("offline");
    assert_eq!(run.merged.reports_ingested(), total);
    assert_eq!(run.merged.counts(), expected.counts());
    assert_eq!(run.merged.group_sizes(), expected.group_sizes());
    assert_eq!(run.merged.counts_digest(), expected.counts_digest());

    let _ = std::fs::remove_dir_all(&dir);
}

/// An idle node's final flush must land on the aggregator that is up at
/// flush time. Node 1 acks 30 reports to aggregator A; A is replaced by a
/// fresh B on the same port (no `--resume`); the final cut equals the one
/// A acked, yet `finish` may only report success once B holds it.
#[test]
fn final_flush_lands_on_a_fresh_aggregator_that_replaced_the_acking_one() {
    let plan = plan();
    let node = offline_reference(&plan, 0..30, 17).expect("offline");
    let cut = Snapshot::capture(&node, plan.schema_hash());

    let a = AggregatorServer::bind(Arc::clone(&plan), AggregatorConfig::default()).expect("bind A");
    let upstream = a.local_addr();
    let (state_a, stop_a) = (a.state(), a.shutdown_handle());
    let a_thread = thread::spawn(move || a.run(None).expect("aggregator A run"));

    let streamer = UpstreamStreamer::start(StreamerConfig {
        upstream: upstream.to_string(),
        node_id: 1,
        plan_hash: plan.schema_hash(),
    });
    (streamer.hook())(cut.clone());
    let start = Instant::now();
    while state_a.merged().expect("merge").reports_ingested() < 30 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "A never got the cut"
        );
        thread::sleep(Duration::from_millis(5));
    }
    stop_a.store(true, Ordering::SeqCst);
    assert_eq!(
        a_thread.join().expect("join A").merged.reports_ingested(),
        30
    );

    let b_cfg = AggregatorConfig {
        addr: upstream.to_string(),
        ..AggregatorConfig::default()
    };
    let b = AggregatorServer::bind(Arc::clone(&plan), b_cfg).expect("rebind B on the same port");
    let stop_b = b.shutdown_handle();
    let b_thread = thread::spawn(move || b.run(None).expect("aggregator B run"));

    let report = streamer
        .finish(cut, Duration::from_secs(30))
        .expect("final flush");
    assert_eq!(report.flushed_reports, 30);
    stop_b.store(true, Ordering::SeqCst);
    let run_b = b_thread.join().expect("join B");
    assert_eq!(run_b.merged.reports_ingested(), 30);
    assert_eq!(run_b.merged.counts(), node.counts());
    assert_eq!(run_b.nodes.len(), 1);
}

/// The λ-D probe the resume test asks.
fn probe_predicates() -> Vec<Predicate> {
    vec![
        Predicate::between(0, 4, 20),
        Predicate::in_set(1, vec![1, 2]),
    ]
}

/// One `Query` round-trip against an aggregator. `Ok(None)` is an `Error`
/// frame (nothing merged yet — the connection stays usable); `Err` is a
/// transport failure (e.g. the aggregator is mid-bounce).
fn ask_cluster(
    conn: &mut TcpStream,
    plan_hash: u64,
    query_id: u64,
    mode: QueryMode,
) -> Result<Option<QueryAnswer>, String> {
    wire::write_frame(
        conn,
        &Frame {
            kind: FrameKind::Query,
            plan_hash,
            payload: wire::encode_query(&QueryRequest {
                query_id,
                mode,
                predicates: probe_predicates(),
            })
            .map_err(|e| e.to_string())?,
        },
    )
    .map_err(|e| e.to_string())?;
    let reply = wire::read_frame(conn)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "connection closed mid-query".to_string())?;
    match reply.kind {
        FrameKind::QueryReply => wire::decode_query_reply(&reply.payload)
            .map(Some)
            .map_err(|e| e.to_string()),
        FrameKind::Error => Ok(None),
        other => Err(format!("unexpected reply to query: {other:?}")),
    }
}

/// Kill+resume must never serve a pre-restore cached grid: the first
/// answer of the resumed aggregator's life is a cold build from the
/// restored FCLU state (epoch restarts at 1), bit-identical to the
/// offline batch estimate on the restored counts.
#[test]
fn aggregator_resume_answers_cold_from_restored_state() {
    let plan = plan();
    let plan_hash = plan.schema_hash();
    let dir =
        std::env::temp_dir().join(format!("felip-cluster-resume-query-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let state_path = dir.join("agg.fclu");

    let probe = Query::new(plan.schema(), probe_predicates()).expect("probe");
    let warm = offline_reference(&plan, 0..20, 9).expect("offline 20");
    let grown = offline_reference(&plan, 0..40, 9).expect("offline 40");
    let grown_bits = grown
        .estimate()
        .expect("offline estimate")
        .answer(&probe)
        .expect("offline answer")
        .to_bits();

    let send_full = |conn: &mut TcpStream, epoch: u64, agg: &felip::Aggregator| {
        wire::write_frame(
            conn,
            &Frame {
                kind: FrameKind::Delta,
                plan_hash,
                payload: wire::encode_delta(epoch, &Snapshot::capture(agg, plan_hash)),
            },
        )
        .expect("send delta");
        let ack = wire::read_frame(conn)
            .expect("ack read")
            .expect("ack frame");
        assert_eq!(ack.kind, FrameKind::DeltaAck, "delta must be acked");
    };

    // Life 1: ingest two epochs, observing the engine advance 1 → 2, then
    // shut down (the aggregator persists once more on the way out).
    let cfg = AggregatorConfig {
        state_path: Some(state_path.clone()),
        persist_every: Duration::from_millis(10),
        ..AggregatorConfig::default()
    };
    let agg1 = AggregatorServer::bind(Arc::clone(&plan), cfg).expect("bind life 1");
    let upstream = agg1.local_addr();
    let stop1 = agg1.shutdown_handle();
    let life1 = thread::spawn(move || agg1.run(None).expect("life 1 run"));
    {
        let mut conn = TcpStream::connect(upstream).expect("connect life 1");
        wire::write_frame(
            &mut conn,
            &Frame {
                kind: FrameKind::Hello,
                plan_hash,
                payload: wire::encode_hello(7),
            },
        )
        .expect("hello");
        wire::read_frame(&mut conn)
            .expect("hello ack")
            .expect("ack");

        send_full(&mut conn, 1, &warm);
        let first = ask_cluster(&mut conn, plan_hash, 1, QueryMode::Cached)
            .expect("query 1")
            .expect("answer 1");
        assert_eq!(first.epoch, 1);
        assert_eq!(first.reports, 20);

        send_full(&mut conn, 2, &grown);
        let second = ask_cluster(&mut conn, plan_hash, 2, QueryMode::Cached)
            .expect("query 2")
            .expect("answer 2");
        assert_eq!(second.epoch, 2, "changed counts must advance the epoch");
        assert_eq!(second.reports, 40);
        assert_eq!(second.answer.to_bits(), grown_bits);
    }
    stop1.store(true, Ordering::SeqCst);
    life1.join().expect("join life 1");

    // Life 2: resume from the persisted state. The very first answer must
    // be a cold build — epoch 1, never the pre-restore cache's epoch 2 —
    // over the full restored 40-report cut.
    let cfg = AggregatorConfig {
        state_path: Some(state_path.clone()),
        resume: Some(state_path.clone()),
        persist_every: Duration::from_millis(10),
        ..AggregatorConfig::default()
    };
    let agg2 = AggregatorServer::bind(Arc::clone(&plan), cfg).expect("bind life 2");
    let upstream = agg2.local_addr();
    let stop2 = agg2.shutdown_handle();
    let life2 = thread::spawn(move || agg2.run(None).expect("life 2 run"));
    {
        let mut conn = TcpStream::connect(upstream).expect("connect life 2");
        let resumed = ask_cluster(&mut conn, plan_hash, 3, QueryMode::Cached)
            .expect("resumed query")
            .expect("resumed answer");
        assert_eq!(
            resumed.epoch, 1,
            "resumed aggregator served a pre-restore cached grid"
        );
        assert_eq!(resumed.head_epoch, 1);
        assert_eq!(resumed.reports, 40, "restored cut must cover the stream");
        assert_eq!(resumed.answer.to_bits(), grown_bits);
    }
    stop2.store(true, Ordering::SeqCst);
    life2.join().expect("join life 2");

    let _ = std::fs::remove_dir_all(&dir);
}
