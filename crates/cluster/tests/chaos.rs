//! The cluster chaos sweep (DESIGN.md §16): 64 seeds, each driving a real
//! multi-node topology over loopback TCP with seed-derived faults — one
//! ingest node killed mid-load (rejoining fresh or from its snapshot,
//! after a seed-chosen delay) and, on half the seeds, an aggregator bounce
//! (restarting with or without its persisted FCLU state). A two-barrier
//! phase split parks every node between its two load phases while the
//! bounce lands, so the post-restart catch-up path runs deterministically
//! on every bouncing seed. Every seed must end with merged counts
//! bit-identical to the offline single-node reference; the sweep then
//! asserts its own faults were non-vacuous.

mod common;

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use felip::plan::CollectionPlan;
use felip_cluster::{AggregatorConfig, AggregatorServer};
use felip_common::{Predicate, Query};
use felip_server::loadgen::offline_reference;
use felip_server::wire::{self, Frame, FrameKind, QueryAnswer, QueryMode, QueryRequest};
use felip_server::{ServerConfig, Snapshot};

use common::{plan, serve_and_stream, serve_and_stream_paused, split_users, NodeExit, NodeOutcome};

/// The λ-D probe the sweep's query mixer asks on every seed.
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

/// A `Fresh` query retried until the aggregator's cut covers the full
/// stream — the settled, strongest-consistency ask of a finished seed.
fn settled_answer(upstream: SocketAddr, plan: &CollectionPlan, total: usize) -> QueryAnswer {
    for attempt in 0..200u64 {
        if let Ok(mut conn) = TcpStream::connect(upstream) {
            if let Ok(Some(ans)) = ask_cluster(
                &mut conn,
                plan.schema_hash(),
                0xF1AA + attempt,
                QueryMode::Fresh,
            ) {
                if ans.reports == total as u64 {
                    return ans;
                }
            }
        }
        thread::sleep(Duration::from_millis(2));
    }
    panic!("aggregator never answered the settled query at {total} reports");
}

/// splitmix64: the same seed-expansion the ingest-tier chaos sweep uses,
/// so every fault decision is a pure function of the seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Aggregate fault/recovery counters the sweep asserts on afterwards.
#[derive(Default)]
struct SweepTotals {
    kills: u64,
    snapshot_rejoins: u64,
    fresh_rejoins: u64,
    agg_restarts: u64,
    agg_resumes: u64,
    deltas_acked: u64,
    queries_answered: u64,
}

#[test]
fn sixty_four_seed_cluster_sweep_is_bit_identical() {
    let plan = plan();
    let dir = std::env::temp_dir().join(format!("felip-cluster-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let mut totals = SweepTotals::default();
    for seed in 0..64u64 {
        let mut rng = seed ^ 0xC1A0_5EED;
        let nodes = 2 + (splitmix(&mut rng) % 2) as usize; // 2..=3
        let total = 90 + (splitmix(&mut rng) % 4) as usize * 30; // 90..=180
        let victim = (splitmix(&mut rng) % nodes as u64) as usize;
        let victim_resumes = splitmix(&mut rng).is_multiple_of(2);
        let rejoin_delay = Duration::from_millis(splitmix(&mut rng) % 40);
        let bounce_agg = splitmix(&mut rng).is_multiple_of(2);
        let agg_resume = splitmix(&mut rng).is_multiple_of(2);

        totals.kills += 1;
        if victim_resumes {
            totals.snapshot_rejoins += 1;
        } else {
            totals.fresh_rejoins += 1;
        }

        let state_path = dir.join(format!("agg-{seed}.fclu"));
        let agg_cfg = AggregatorConfig {
            state_path: Some(state_path.clone()),
            persist_every: Duration::from_millis(20),
            ..AggregatorConfig::default()
        };
        let agg = AggregatorServer::bind(Arc::clone(&plan), agg_cfg).expect("bind aggregator");
        let upstream = agg.local_addr();
        let stop = agg.shutdown_handle();
        let mut agg_thread = Some(thread::spawn(move || {
            agg.run(None).expect("aggregator run")
        }));

        // Phase fences: every node parks between its two load phases at
        // `loaded`, the main thread bounces (or not), then `resume`
        // releases phase two — so on bouncing seeds every node's
        // remaining load and final flush land on the restarted instance.
        let loaded = Arc::new(Barrier::new(nodes + 1));
        let resume = Arc::new(Barrier::new(nodes + 1));

        // The mixed query client: rides the whole seed (faults, kill,
        // bounce and all) asking `Cached` queries; every answer must sit
        // at a valid epoch no further than the ingest head and inside a
        // cut no larger than the stream.
        let qstop = Arc::new(AtomicBool::new(false));
        let answered = Arc::new(AtomicU64::new(0));

        let (outcomes, run, final_ans) = thread::scope(|s| {
            let mixer = {
                let qstop = Arc::clone(&qstop);
                let answered = Arc::clone(&answered);
                let plan_hash = plan.schema_hash();
                s.spawn(move || {
                    let mut query_id = 0x0A5C_0000u64;
                    while !qstop.load(Ordering::SeqCst) {
                        query_id += 1;
                        // Reconnect per ask: the aggregator may be
                        // mid-bounce, which is simply a skipped round.
                        if let Ok(mut conn) = TcpStream::connect(upstream) {
                            if let Ok(Some(ans)) =
                                ask_cluster(&mut conn, plan_hash, query_id, QueryMode::Cached)
                            {
                                assert!(
                                    ans.epoch <= ans.head_epoch,
                                    "answer served from the future: epoch {} > head {}",
                                    ans.epoch,
                                    ans.head_epoch
                                );
                                assert!(
                                    ans.reports <= total as u64,
                                    "cut larger than the stream: {} > {total}",
                                    ans.reports
                                );
                                assert!(
                                    (0.0..=1.0).contains(&ans.answer),
                                    "frequency out of range: {}",
                                    ans.answer
                                );
                                answered.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        thread::sleep(Duration::from_millis(3));
                    }
                })
            };
            let handles: Vec<_> = (0..nodes)
                .map(|i| {
                    let plan = Arc::clone(&plan);
                    let users = split_users(total, nodes, i);
                    let snap = dir.join(format!("node-{seed}-{i}.snap"));
                    let loaded = Arc::clone(&loaded);
                    let resume = Arc::clone(&resume);
                    s.spawn(move || -> NodeOutcome {
                        let node_id = i as u64 + 1;
                        if i != victim {
                            // A surviving node: one server lifetime whose
                            // load pauses across the bounce window.
                            let split_at = users.len() / 2;
                            return serve_and_stream_paused(
                                &plan,
                                upstream,
                                node_id,
                                &users,
                                seed,
                                ServerConfig::default(),
                                split_at,
                                || {
                                    loaded.wait();
                                    resume.wait();
                                },
                            );
                        }
                        // The victim's first life: half its share, then a
                        // kill (streamer abandoned, pending cuts lost).
                        let (first, rest) = users.split_at(users.len() / 2);
                        let killed_cfg = ServerConfig {
                            snapshot_path: Some(snap.clone()),
                            snapshot_every: Some(Duration::from_millis(15)),
                            ..ServerConfig::default()
                        };
                        serve_and_stream(
                            &plan,
                            upstream,
                            node_id,
                            first,
                            seed,
                            killed_cfg,
                            NodeExit::Abandon,
                        );
                        loaded.wait();
                        resume.wait();
                        thread::sleep(rejoin_delay);
                        // Second life: either resume the snapshot and send
                        // the remaining users, or come back empty-handed
                        // and re-ingest the whole share.
                        if victim_resumes {
                            let cfg = ServerConfig {
                                resume: Some(snap.clone()),
                                ..ServerConfig::default()
                            };
                            serve_and_stream(
                                &plan,
                                upstream,
                                node_id,
                                rest,
                                seed,
                                cfg,
                                NodeExit::Flush,
                            )
                        } else {
                            serve_and_stream(
                                &plan,
                                upstream,
                                node_id,
                                &users,
                                seed,
                                ServerConfig::default(),
                                NodeExit::Flush,
                            )
                        }
                    })
                })
                .collect();

            loaded.wait();
            if bounce_agg {
                stop.store(true, Ordering::SeqCst);
                if let Some(t) = agg_thread.take() {
                    t.join().expect("join bounced aggregator");
                }
                let cfg = AggregatorConfig {
                    addr: upstream.to_string(),
                    state_path: Some(state_path.clone()),
                    resume: agg_resume.then(|| state_path.clone()),
                    persist_every: Duration::from_millis(20),
                    ..AggregatorConfig::default()
                };
                let agg2 = AggregatorServer::bind(Arc::clone(&plan), cfg)
                    .expect("rebind aggregator on the same port");
                let stop2 = agg2.shutdown_handle();
                agg_thread = Some(thread::spawn(move || {
                    agg2.run(None).expect("restarted aggregator run")
                }));
                resume.wait();
                let outcomes: Vec<_> = handles
                    .into_iter()
                    .map(|h| h.join().expect("node thread"))
                    .collect();
                // Every node flushed: ask the settled question while the
                // aggregator is still serving, then let it drain.
                qstop.store(true, Ordering::SeqCst);
                mixer.join().expect("query mixer");
                let final_ans = settled_answer(upstream, &plan, total);
                stop2.store(true, Ordering::SeqCst);
                (
                    outcomes,
                    agg_thread
                        .take()
                        .map(|t| t.join().expect("join aggregator")),
                    final_ans,
                )
            } else {
                resume.wait();
                let outcomes: Vec<_> = handles
                    .into_iter()
                    .map(|h| h.join().expect("node thread"))
                    .collect();
                qstop.store(true, Ordering::SeqCst);
                mixer.join().expect("query mixer");
                let final_ans = settled_answer(upstream, &plan, total);
                stop.store(true, Ordering::SeqCst);
                (
                    outcomes,
                    agg_thread
                        .take()
                        .map(|t| t.join().expect("join aggregator")),
                    final_ans,
                )
            }
        });
        let run = run.expect("aggregator result");
        if bounce_agg {
            totals.agg_restarts += 1;
            if agg_resume {
                totals.agg_resumes += 1;
            }
        }

        // Every surviving life must have flushed its full share.
        for (i, outcome) in outcomes.iter().enumerate() {
            let report = outcome
                .report
                .clone()
                .expect("final life always flushes")
                .unwrap_or_else(|r| panic!("seed {seed} node {i} flush incomplete: {r:?}"));
            let share = split_users(total, nodes, i).len() as u64;
            assert_eq!(
                report.flushed_reports, share,
                "seed {seed} node {i} flushed reports"
            );
            totals.deltas_acked += report.deltas_acked;
        }

        // The per-seed headline invariant: bit-identical to the offline
        // single-node reference despite every fault above.
        let expected = offline_reference(&plan, 0..total, seed).expect("offline");
        assert_eq!(
            run.merged.reports_ingested(),
            total,
            "seed {seed} merged report count"
        );
        assert_eq!(run.merged.counts(), expected.counts(), "seed {seed} counts");
        assert_eq!(
            run.merged.group_sizes(),
            expected.group_sizes(),
            "seed {seed} group sizes"
        );
        assert_eq!(
            run.merged.counts_digest(),
            expected.counts_digest(),
            "seed {seed} digest"
        );
        assert_eq!(run.nodes.len(), nodes, "seed {seed} node rows");

        // And the settled online answer equals the offline batch estimate
        // on that same full cut, bit for bit — the wire path, the merge,
        // and the incremental engine add nothing and lose nothing.
        let probe = Query::new(plan.schema(), probe_predicates()).expect("probe");
        assert_eq!(final_ans.reports, total as u64, "seed {seed} settled cut");
        assert_eq!(
            final_ans.answer.to_bits(),
            expected
                .estimate()
                .expect("offline estimate")
                .answer(&probe)
                .expect("offline answer")
                .to_bits(),
            "seed {seed}: online answer diverged from the offline estimate"
        );
        totals.queries_answered += answered.load(Ordering::SeqCst);
    }

    // The sweep must not have been vacuous: every fault class fired.
    assert_eq!(totals.kills, 64);
    assert!(totals.snapshot_rejoins >= 8, "{}", totals.snapshot_rejoins);
    assert!(totals.fresh_rejoins >= 8, "{}", totals.fresh_rejoins);
    assert!(totals.agg_restarts >= 16, "{}", totals.agg_restarts);
    assert!(totals.agg_resumes >= 4, "{}", totals.agg_resumes);
    assert!(totals.deltas_acked >= 2 * 64, "{}", totals.deltas_acked);
    // The query mixer must have landed real answers across the sweep — a
    // permanently-erroring query plane would otherwise pass silently.
    assert!(
        totals.queries_answered >= 64,
        "query mixer answered too little: {}",
        totals.queries_answered
    );

    let _ = std::fs::remove_dir_all(&dir);
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
