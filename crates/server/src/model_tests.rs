//! Model-checked concurrency tests for the ingestion pipeline (DESIGN.md
//! §14): every interleaving of the session/queue/snapshot sync operations
//! is explored by the `felip-sync` scheduler (up to its preemption bound),
//! so the PR-4 exactly-once invariants hold by exhaustion, not by luck.
//!
//! Compiled only under `--features model` (the shims route every lock,
//! condvar, and atomic through the model scheduler there); `cargo test -p
//! felip-server --features model model_` runs just these.

use std::time::Duration;

use felip_sync::atomic::{AtomicU64, Ordering};
use felip_sync::model::{self, Config};
use felip_sync::{thread, Arc, Mutex};

use felip::aggregator::{Admitted, Aggregator, OracleSet};
use felip::client::UserReport;
use felip::config::FelipConfig;
use felip::plan::CollectionPlan;
use felip_common::{Attribute, Schema};

use felip::query::QueryEngine;

use crate::loadgen;
use crate::queue::{BoundedQueue, Periodic, PopResult};
use crate::server::IngestState;
use crate::session::Session;
use crate::wire::{encode_batch, encode_hello, Frame, FrameKind, QueryMode, QueryRequest};

/// A tiny but real plan (one 8-bin attribute, 4 users) shared by every
/// schedule of a check: the plan is immutable, so building it once outside
/// the explored closure keeps each schedule cheap.
fn tiny_plan() -> (Arc<CollectionPlan>, Arc<OracleSet>) {
    let schema = Schema::new(vec![Attribute::numerical("a", 8)]).expect("static schema");
    let plan = Arc::new(
        CollectionPlan::build(&schema, 4, &FelipConfig::new(1.0), 5).expect("static plan"),
    );
    let oracles = Arc::new(OracleSet::build(&plan));
    (plan, oracles)
}

/// A fresh one-worker ingest state over the tiny plan.
fn fresh_state(plan: &Arc<CollectionPlan>, oracles: &Arc<OracleSet>) -> Arc<IngestState> {
    IngestState::new(Arc::clone(plan), Arc::clone(oracles), 1, 4, None).expect("fresh state")
}

/// Two valid reports for the plan — the payload of every test batch.
fn two_reports(plan: &Arc<CollectionPlan>) -> Vec<UserReport> {
    (0..2)
        .map(|u| loadgen::user_report(plan, u, 0xfe11).expect("loadgen report"))
        .collect()
}

/// One connection of `client` through the tier's dispatch: its `Hello`,
/// then `batches` as batch ids 1, 2, …. Returns how many were accepted.
fn send_batches(state: &Arc<IngestState>, client: u64, batches: &[Vec<UserReport>]) -> usize {
    let (query, mut session) = (state.query_service(), Session::default());
    let plan_hash = state.ctx.plan_hash;
    let hello = Frame {
        kind: FrameKind::Hello,
        plan_hash,
        payload: encode_hello(client),
    };
    state.serve_frame(&query, &mut session, &hello);
    (1..)
        .zip(batches)
        .filter(|(batch_id, reports)| {
            let frame = Frame {
                kind: FrameKind::ReportBatch,
                plan_hash,
                payload: encode_batch(*batch_id, reports).expect("encode batch"),
            };
            state.serve_frame(&query, &mut session, &frame).1.is_some()
        })
        .count()
}

/// Pops exactly one batch (waiting as long as it takes), ingests it into
/// `shard`, and acknowledges it — a one-shot ingest worker.
fn drain_one(q: &BoundedQueue<Admitted>, shard: &Mutex<Aggregator>) {
    loop {
        match q.pop_timeout(Duration::from_millis(1)) {
            PopResult::Item(batch) => {
                shard.lock().ingest_admitted(&batch);
                q.task_done();
                return;
            }
            PopResult::Empty => continue,
            PopResult::Done => return,
        }
    }
}

/// `BoundedQueue` quiescence is exact under every interleaving: a popped
/// batch keeps the queue non-quiescent until `task_done`, and once producer
/// and worker have joined the queue is quiescent again.
#[test]
fn model_queue_quiescence_is_exact() {
    let stats = model::check(|| {
        let q = Arc::new(BoundedQueue::<u32>::new(2));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                q.try_push(7).expect("capacity 2 cannot be full");
            })
        };
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || loop {
                match q.pop_timeout(Duration::from_millis(1)) {
                    PopResult::Item(v) => {
                        assert_eq!(v, 7);
                        assert!(
                            !q.is_quiescent(),
                            "popped item is in flight until task_done"
                        );
                        q.task_done();
                        return;
                    }
                    PopResult::Empty => continue,
                    PopResult::Done => panic!("queue closed unexpectedly"),
                }
            })
        };
        producer.join().expect("producer");
        worker.join().expect("worker");
        assert!(q.is_quiescent(), "drained and processed ⇒ quiescent");
    })
    .expect("quiescence invariant must hold on every schedule");
    assert!(stats.schedules > 1, "exploration degenerated: {stats:?}");
}

/// Two connections racing the same client id serialise on the dedup lock:
/// in every interleaving exactly one batch is accepted, the queue holds
/// exactly one copy, and the cursor lands on the batch id — the fixed
/// check-then-push-then-advance is atomic.
#[test]
fn model_racing_sessions_accept_exactly_once() {
    let (plan, oracles) = tiny_plan();
    let reports = two_reports(&plan);
    let stats = model::check(move || {
        let state = fresh_state(&plan, &oracles);
        let spawn_conn = |_| {
            let state = Arc::clone(&state);
            let reports = reports.clone();
            thread::spawn(move || send_batches(&state, 9, &[reports]))
        };
        let accepted: usize = (0..2)
            .map(spawn_conn)
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("conn task"))
            .sum();
        assert_eq!(accepted, 1, "same batch accepted {accepted} times");
        assert_eq!(
            state.queues[0].len(),
            1,
            "queue must hold the batch exactly once"
        );
        let cursor = state.ctx.dedup.lock().get(&9).copied().unwrap_or(0);
        assert_eq!(cursor, 1, "cursor must land on the accepted batch");
    })
    .expect("exactly-once admission must hold on every schedule");
    assert!(stats.schedules > 1, "exploration degenerated: {stats:?}");
}

/// The snapshot consistent cut can never observe an advanced cursor whose
/// batch is missing from the counts (acked-but-lost) or counted reports
/// whose cursor did not advance (double-count on resend): under every
/// interleaving of a session, an ingest worker, and the cut itself,
/// `reports in cut == cursor × batch size`.
#[test]
fn model_consistent_cut_counts_match_cursors() {
    let (plan, oracles) = tiny_plan();
    let reports = two_reports(&plan);
    let per_batch = reports.len() as u64;
    let stats = model::check(move || {
        let state = fresh_state(&plan, &oracles);
        let session = {
            let state = Arc::clone(&state);
            let reports = reports.clone();
            thread::spawn(move || {
                let accepted = send_batches(&state, 3, &[reports]);
                assert_eq!(accepted, 1, "uncontended batch must be accepted");
            })
        };
        let worker = {
            let state = Arc::clone(&state);
            thread::spawn(move || drain_one(&state.queues[0], &state.shards[0]))
        };
        // The cut races the session and the worker; whatever it freezes
        // must be internally consistent.
        let (cut, pairs) = state.cut_with_cursors().expect("cut");
        let cursor = pairs
            .iter()
            .find(|&&(c, _)| c == 3)
            .map(|&(_, b)| b)
            .unwrap_or(0);
        assert_eq!(
            cut.reports_ingested() as u64,
            cursor * per_batch,
            "cut counts disagree with cut cursors (cursor {cursor})"
        );
        session.join().expect("session task");
        worker.join().expect("worker task");
    })
    .expect("consistent cut must hold on every schedule");
    assert!(stats.schedules > 1, "exploration degenerated: {stats:?}");
}

/// The consistent cut's quiescence wait never misses a wakeup: under
/// every interleaving of a worker draining two batches and a waiter
/// blocked in `wait_quiescent`, the waiter wakes (a lost wakeup is a
/// deadlock the checker reports) and only once both are processed.
#[test]
fn model_quiescence_wait_never_misses_the_last_task_done() {
    let stats = model::check(|| {
        let q = Arc::new(BoundedQueue::<u32>::new(2));
        q.try_push(1).expect("capacity 2");
        q.try_push(2).expect("capacity 2");
        let done = Arc::new(AtomicU64::new(0));
        let worker = {
            let (q, done) = (Arc::clone(&q), Arc::clone(&done));
            thread::spawn(move || {
                for _ in 0..2 {
                    match q.pop_timeout(Duration::from_millis(1)) {
                        PopResult::Item(_) => {
                            done.fetch_add(1, Ordering::SeqCst);
                            q.task_done();
                        }
                        other => panic!("queue lost an item: {other:?}"),
                    }
                }
            })
        };
        q.wait_quiescent();
        assert_eq!(
            done.load(Ordering::SeqCst),
            2,
            "woke before the last task_done"
        );
        worker.join().expect("worker");
    })
    .expect("the quiescence wait must wake on every schedule");
    assert!(stats.schedules > 1, "exploration degenerated: {stats:?}");
}

/// Shutdown never waits out a period: under every interleaving of a
/// periodic task going to sleep and `stop`, the task is woken by the
/// stop, never by its one-hour deadline. Under the model a timeout fires
/// only when nothing else can run, so a lost wakeup would show as a tick.
#[test]
fn model_periodic_stop_is_never_lost() {
    let stats = model::check(|| {
        let periodic = Arc::new(Periodic::default());
        let ticks = Arc::new(AtomicU64::new(0));
        let task = {
            let (periodic, ticks) = (Arc::clone(&periodic), Arc::clone(&ticks));
            thread::spawn(move || {
                periodic.every(Duration::from_secs(3600), || {
                    ticks.fetch_add(1, Ordering::SeqCst);
                })
            })
        };
        periodic.stop();
        task.join().expect("task");
        assert_eq!(ticks.load(Ordering::SeqCst), 0, "the stop was lost");
    })
    .expect("stop must wake the periodic task on every schedule");
    assert!(stats.schedules > 1, "exploration degenerated: {stats:?}");
}

/// The blocking cut against a worker still draining two acked batches:
/// on every schedule it returns (no missed wakeup) with counts exactly
/// matching the cursors it captured — never cursors ahead of counts.
#[test]
fn model_blocking_cut_never_captures_cursors_ahead_of_counts() {
    let (plan, oracles) = tiny_plan();
    let reports = two_reports(&plan);
    let per_batch = reports.len() as u64;
    let stats = model::check(move || {
        let state = fresh_state(&plan, &oracles);
        // Both batches are acked before the race starts: the cut can only
        // wait for the worker.
        let accepted = send_batches(&state, 3, &[reports.clone(), reports.clone()]);
        assert_eq!(accepted, 2, "uncontended batches must be accepted");
        let worker = {
            let state = Arc::clone(&state);
            thread::spawn(move || {
                drain_one(&state.queues[0], &state.shards[0]);
                drain_one(&state.queues[0], &state.shards[0]);
            })
        };
        let (cut, pairs) = state.cut_with_cursors().expect("cut");
        assert_eq!(pairs, vec![(3, 2)]);
        assert_eq!(
            cut.reports_ingested() as u64,
            2 * per_batch,
            "cut captured cursors ahead of counts"
        );
        worker.join().expect("worker task");
    })
    .expect("the blocking cut must hold on every schedule");
    assert!(stats.schedules > 1, "exploration degenerated: {stats:?}");
}

/// The pre-review bug this crate's review fixed: the cursor check and the
/// queue push under *separate* dedup-lock holds. Two connections racing
/// the same batch can then both pass the check and both queue the batch —
/// a double count.
fn buggy_accept(
    state: &IngestState,
    client_id: u64,
    batch_id: u64,
    reports: Vec<UserReport>,
) -> bool {
    let (ctx, q) = (&state.ctx, &state.queues[0]);
    let batch = ctx.oracles.admit(reports).expect("valid reports");
    // Bug: the lock is dropped between the duplicate check and the push.
    let last = ctx.dedup.lock().get(&client_id).copied().unwrap_or(0);
    if batch_id <= last {
        return false;
    }
    if q.try_push(batch).is_err() {
        return false;
    }
    ctx.dedup.lock().insert(client_id, batch_id);
    true
}

/// Mutation test: the checker must *find* the pre-review race — and the
/// violation's schedule token must replay it deterministically. This is
/// what keeps the model suite honest: if the scheduler stopped exploring
/// the racing interleavings, this test would fail before a real regression
/// could slip past the invariant tests above.
#[test]
fn model_mutation_pre_review_ordering_is_caught() {
    let (plan, oracles) = tiny_plan();
    let reports = two_reports(&plan);
    let scenario = move || {
        let state = fresh_state(&plan, &oracles);
        let race = |_| {
            let state = Arc::clone(&state);
            let reports = reports.clone();
            thread::spawn(move || u32::from(buggy_accept(&state, 9, 1, reports)))
        };
        let accepted: u32 = (0..2)
            .map(race)
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("race task"))
            .sum();
        let depth = state.queues[0].len();
        assert!(
            accepted <= 1 && depth <= 1,
            "batch double-queued: {accepted} accepts, queue depth {depth}"
        );
    };
    let violation = model::check(scenario.clone())
        .expect_err("the checker must detect the pre-review double-queue race");
    assert!(
        violation.message.contains("double-queued"),
        "unexpected violation: {violation}"
    );
    // The token pins the exact interleaving: replaying it reproduces the
    // same failure, every time, with no search.
    let replayed = model::replay(&violation.schedule, scenario)
        .expect_err("replaying the violating schedule must reproduce the bug");
    assert!(
        replayed.message.contains("double-queued"),
        "replay diverged: {replayed}"
    );
}

/// The racing-sessions scenario needs at least one involuntary preemption
/// to expose the mutation bug; with the budget forced to zero the buggy
/// ordering looks clean. Documents why `Config::preemption_bound` must
/// stay ≥ 2 (DESIGN.md §14).
#[test]
fn model_mutation_needs_preemptions() {
    let (plan, oracles) = tiny_plan();
    let reports = two_reports(&plan);
    let scenario = move || {
        let state = fresh_state(&plan, &oracles);
        let race = |_| {
            let state = Arc::clone(&state);
            let reports = reports.clone();
            thread::spawn(move || u32::from(buggy_accept(&state, 9, 1, reports)))
        };
        let accepted: u32 = (0..2)
            .map(race)
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("race task"))
            .sum();
        let depth = state.queues[0].len();
        assert!(accepted <= 1 && depth <= 1, "batch double-queued");
    };
    let cfg = Config {
        preemption_bound: 0,
        ..Config::default()
    };
    model::check_with(cfg, scenario)
        .expect("without preemptions each task runs to completion and the race hides");
}

// ---------------------------------------------------------------------------
// Query engine: the epoch-cache invalidation race (DESIGN.md §17)
// ---------------------------------------------------------------------------

/// One loadgen report for a single user of the tiny plan.
fn report_for(plan: &Arc<CollectionPlan>, user: usize) -> UserReport {
    loadgen::user_report(plan, user, 0xfe11).expect("loadgen report")
}

/// The probe every query-model schedule asks: a 1-D range marginal on the
/// tiny plan's only attribute.
fn probe(plan: &CollectionPlan) -> felip_common::Query {
    felip_common::Query::new(
        plan.schema(),
        vec![felip_common::Predicate::between(0, 2, 5)],
    )
    .expect("static probe")
}

/// The offline batch answer (as exact bits) for a given report prefix —
/// the pure function of the cut every served answer must equal.
fn offline_bits(plan: &Arc<CollectionPlan>, oracles: &Arc<OracleSet>, users: usize) -> u64 {
    let mut agg = Aggregator::with_oracles(Arc::clone(plan), Arc::clone(oracles));
    for u in 0..users {
        agg.ingest(&report_for(plan, u)).expect("ingest reference");
    }
    agg.estimate()
        .expect("non-empty reference")
        .answer(&probe(plan))
        .expect("probe reference")
        .to_bits()
}

/// A query racing ingestion and its own cache refresh can never observe
/// counts from epoch N with a cached grid from epoch N−1: under every
/// interleaving of a session (two batches), an ingest worker, and two
/// `Cached`-mode queries, each served answer is *bit-identical* to the
/// offline batch estimate of exactly the reports it claims to cover —
/// a mixed-epoch answer would be the pure function of no cut at all.
#[test]
fn model_query_epoch_and_counts_never_tear() {
    let (plan, oracles) = tiny_plan();
    // Batch 1 carries users {0, 1}, batch 2 user {2}: the two admissible
    // cuts have distinct report totals, so `reports` names the cut and
    // the expected bits are a lookup. (An empty cut is a query error.)
    let batch1 = vec![report_for(&plan, 0), report_for(&plan, 1)];
    let batch2 = vec![report_for(&plan, 2)];
    let after_b1 = offline_bits(&plan, &oracles, 2);
    let after_b2 = offline_bits(&plan, &oracles, 3);
    assert_ne!(after_b1, after_b2, "probe cannot distinguish the cuts");
    let stats = model::check(move || {
        let state = fresh_state(&plan, &oracles);
        let service = Arc::new(state.query_service());
        let session = {
            let state = Arc::clone(&state);
            let batches = [batch1.clone(), batch2.clone()];
            thread::spawn(move || assert_eq!(send_batches(&state, 3, &batches), 2))
        };
        let worker = {
            let state = Arc::clone(&state);
            thread::spawn(move || {
                drain_one(&state.queues[0], &state.shards[0]);
                drain_one(&state.queues[0], &state.shards[0]);
            })
        };
        let querier = {
            let service = Arc::clone(&service);
            let plan = Arc::clone(&plan);
            thread::spawn(move || {
                for query_id in 0..2u64 {
                    let req = QueryRequest {
                        query_id,
                        mode: QueryMode::Cached,
                        predicates: probe(&plan).predicates().to_vec(),
                    };
                    match service.answer(&req) {
                        // An empty cut is the one admissible error.
                        Err(_) => {}
                        Ok(ans) => {
                            assert!(ans.epoch <= ans.head_epoch, "head behind answer");
                            let expected = match ans.reports {
                                2 => after_b1,
                                3 => after_b2,
                                n => panic!("cut covers a partial batch: {n} reports"),
                            };
                            assert_eq!(
                                ans.answer.to_bits(),
                                expected,
                                "answer at {} reports is not the batch estimate of its cut",
                                ans.reports
                            );
                        }
                    }
                }
            })
        };
        session.join().expect("session task");
        worker.join().expect("worker task");
        querier.join().expect("querier task");
        // Quiesced: a fresh cut must land on the full stream, caught up.
        let req = QueryRequest {
            query_id: 9,
            mode: QueryMode::Fresh,
            predicates: probe(&plan).predicates().to_vec(),
        };
        let ans = service.answer(&req).expect("final answer");
        assert_eq!(ans.reports, 3);
        assert_eq!(ans.answer.to_bits(), after_b2);
        assert_eq!(ans.epoch, ans.head_epoch, "quiesced head cannot be stale");
    })
    .expect("query/cut atomicity must hold on every schedule");
    assert!(stats.schedules > 1, "exploration degenerated: {stats:?}");
}

/// The bug the engine-lock scope prevents: reading the cached epoch's
/// report count and its estimator under *separate* lock holds. A refresh
/// landing between the two reads pairs epoch-N−1 bookkeeping with the
/// epoch-N grid — exactly the torn read `QueryService::answer` makes
/// impossible by holding one lock across cut + refresh + answer.
fn buggy_epoch_read(engine: &Mutex<QueryEngine>, query: &felip_common::Query) -> (u64, u64) {
    // Bug: the lock is dropped between the bookkeeping read and the
    // estimator read.
    let reports = engine.lock().latest().expect("engine was warmed").reports;
    let est = engine.lock().latest().expect("engine was warmed").estimator;
    (reports, est.answer(query).expect("probe").to_bits())
}

/// Mutation test: the checker must *find* the torn epoch read — and the
/// violation's schedule token must replay it deterministically. If the
/// scheduler stopped exploring a refresh between two reads of the engine,
/// this test would fail before a real lock-scope regression in
/// `QueryService::answer` could slip past `model_query_epoch_and_counts_never_tear`.
#[test]
fn model_mutation_query_torn_epoch_read_is_caught() {
    let (plan, oracles) = tiny_plan();
    let warm = Arc::new({
        let mut agg = Aggregator::with_oracles(Arc::clone(&plan), Arc::clone(&oracles));
        for u in 0..2 {
            agg.ingest(&report_for(&plan, u)).expect("warm ingest");
        }
        agg
    });
    let grown = Arc::new({
        let mut agg = Aggregator::with_oracles(Arc::clone(&plan), Arc::clone(&oracles));
        for u in 0..3 {
            agg.ingest(&report_for(&plan, u)).expect("grown ingest");
        }
        agg
    });
    let after_warm = offline_bits(&plan, &oracles, 2);
    let after_grown = offline_bits(&plan, &oracles, 3);
    assert_ne!(
        after_warm, after_grown,
        "probe cannot distinguish the epochs"
    );
    let scenario = move || {
        let engine = Arc::new(Mutex::new(QueryEngine::new(
            Arc::clone(&plan),
            Arc::clone(&oracles),
        )));
        engine.lock().refresh_from(&warm).expect("warm refresh");
        let refresher = {
            let (engine, grown) = (Arc::clone(&engine), Arc::clone(&grown));
            thread::spawn(move || {
                engine.lock().refresh_from(&grown).expect("grown refresh");
            })
        };
        let reader = {
            let (engine, plan) = (Arc::clone(&engine), Arc::clone(&plan));
            thread::spawn(move || buggy_epoch_read(&engine, &probe(&plan)))
        };
        let (reports, bits) = reader.join().expect("reader task");
        let expected = if reports == 2 {
            after_warm
        } else {
            after_grown
        };
        assert_eq!(
            bits, expected,
            "epoch torn: {reports}-report bookkeeping with the other epoch's grid"
        );
        refresher.join().expect("refresher task");
    };
    let violation =
        model::check(scenario.clone()).expect_err("the checker must detect the torn epoch read");
    assert!(
        violation.message.contains("epoch torn"),
        "unexpected violation: {violation}"
    );
    // The token pins the exact interleaving: replaying it reproduces the
    // same failure, every time, with no search.
    let replayed = model::replay(&violation.schedule, scenario)
        .expect_err("replaying the violating schedule must reproduce the tear");
    assert!(
        replayed.message.contains("epoch torn"),
        "replay diverged: {replayed}"
    );
}

// ---------------------------------------------------------------------------
// Flight-recorder ring: the seqlock write/dump race (DESIGN.md §11)
// ---------------------------------------------------------------------------

/// A slot of the model ring — same field layout as
/// `felip_obs::flight::FlightRecorder`, minus the timestamp.
struct ModelSlot {
    stamp: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// A miniature mirror of the flight recorder's seqlock protocol, built on
/// the `felip-sync` modelled atomics so every interleaving of a writer's
/// `record` against a concurrent `dump` is explored. The payload of event
/// `seq` is the pure function `(3·seq+1, 3·seq+2)`, so a torn read — one
/// field from one generation, the other from an overwriting generation —
/// is detectable by inspection of the dumped triple.
struct ModelRing {
    head: AtomicU64,
    slots: Vec<ModelSlot>,
}

impl ModelRing {
    fn new(cap: usize) -> ModelRing {
        ModelRing {
            head: AtomicU64::new(0),
            slots: (0..cap)
                .map(|_| ModelSlot {
                    stamp: AtomicU64::new(0),
                    a: AtomicU64::new(0),
                    b: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Writer side, verbatim from `FlightRecorder::record`: claim a
    /// sequence, CAS the slot's stamp from its quiescent even generation
    /// to this generation's odd in-progress mark (dropping the event if
    /// the slot is busy or a newer generation already landed), publish
    /// the fields, commit (even stamp `2·seq+2`). The CAS claim is what
    /// keeps per-slot stamps monotonic; the checker caught the tear a
    /// blind `store` allows (an old writer's commit landing between a new
    /// writer's stamp and field stores), which is why the production
    /// recorder uses it.
    fn record(&self) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let claimed = 2 * seq + 1;
        let cur = slot.stamp.load(Ordering::SeqCst);
        if cur % 2 == 1
            || cur > claimed
            || slot
                .stamp
                .compare_exchange(cur, claimed, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
        {
            return;
        }
        slot.a.store(3 * seq + 1, Ordering::Relaxed);
        slot.b.store(3 * seq + 2, Ordering::Relaxed);
        slot.stamp.store(2 * seq + 2, Ordering::SeqCst);
    }

    /// Reader side, verbatim from `FlightRecorder::dump`: for each live
    /// sequence, accept the slot only if the stamp reads as committed for
    /// that exact generation both before *and* after the field loads.
    fn dump(&self) -> Vec<(u64, u64, u64)> {
        let head = self.head.load(Ordering::SeqCst);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut events = Vec::new();
        for seq in start..head {
            let slot = &self.slots[(seq % cap) as usize];
            let committed = 2 * seq + 2;
            if slot.stamp.load(Ordering::SeqCst) != committed {
                continue;
            }
            let a = slot.a.load(Ordering::SeqCst);
            let b = slot.b.load(Ordering::SeqCst);
            if slot.stamp.load(Ordering::SeqCst) != committed {
                continue;
            }
            events.push((seq, a, b));
        }
        events
    }

    /// The dump above with the seqlock's *second* stamp check removed —
    /// the mutation the checker must catch (see the mutation test below).
    fn dump_without_recheck(&self) -> Vec<(u64, u64, u64)> {
        let head = self.head.load(Ordering::SeqCst);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut events = Vec::new();
        for seq in start..head {
            let slot = &self.slots[(seq % cap) as usize];
            if slot.stamp.load(Ordering::SeqCst) != 2 * seq + 2 {
                continue;
            }
            let a = slot.a.load(Ordering::SeqCst);
            let b = slot.b.load(Ordering::SeqCst);
            events.push((seq, a, b));
        }
        events
    }
}

fn assert_untorn(events: &[(u64, u64, u64)], when: &str) {
    for &(seq, a, b) in events {
        assert!(
            a == 3 * seq + 1 && b == 3 * seq + 2,
            "{when}: torn event seq {seq}: ({a}, {b})"
        );
    }
}

/// Two writers racing a capacity-1 ring (so generation 1 overwrites
/// generation 0's slot) against a concurrent dump: in every interleaving
/// the dump yields only untorn events — each accepted triple belongs
/// entirely to one generation. After the writers quiesce a final dump
/// still never tears, and always reports `head == 2` recorded events.
#[test]
fn model_flight_ring_dump_is_never_torn() {
    let stats = model::check(|| {
        let ring = Arc::new(ModelRing::new(1));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let ring = Arc::clone(&ring);
                thread::spawn(move || ring.record())
            })
            .collect();
        let reader = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || ring.dump())
        };
        let mid_race = reader.join().expect("reader task");
        assert_untorn(&mid_race, "concurrent dump");
        for w in writers {
            w.join().expect("writer task");
        }
        assert_eq!(ring.head.load(Ordering::SeqCst), 2, "both claims recorded");
        let settled = ring.dump();
        assert_untorn(&settled, "settled dump");
        // A quiesced capacity-1 ring exposes at most the newest event; it
        // may expose none when the older writer's in-flight overwrite was
        // the last store to land (the stamp then names a stale generation
        // and the slot is correctly skipped, counted as dropped).
        assert!(settled.len() <= 1, "capacity-1 ring dumped {settled:?}");
    })
    .expect("seqlock dump must never yield a torn event on any schedule");
    assert!(stats.schedules > 1, "exploration degenerated: {stats:?}");
}

/// Mutation test: drop the second stamp check and the checker must find
/// the torn read — a writer wrapping the ring overwrites the fields
/// between the reader's (single) stamp check and its field loads. This is
/// the schedule that makes the double-check load-bearing; if the model
/// scheduler stopped exploring it, this test fails before a regression in
/// the real `felip_obs::flight` reader could slip past.
#[test]
fn model_mutation_flight_ring_single_check_is_caught() {
    let scenario = || {
        let ring = Arc::new(ModelRing::new(1));
        let writer = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                ring.record();
                ring.record();
            })
        };
        let reader = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || ring.dump_without_recheck())
        };
        let events = reader.join().expect("reader task");
        assert_untorn(&events, "single-check dump");
        writer.join().expect("writer task");
    };
    let violation = model::check(scenario)
        .expect_err("the checker must detect the torn read behind a single stamp check");
    assert!(
        violation.message.contains("torn event"),
        "unexpected violation: {violation}"
    );
    let replayed = model::replay(&violation.schedule, scenario)
        .expect_err("replaying the violating schedule must reproduce the tear");
    assert!(
        replayed.message.contains("torn event"),
        "replay diverged: {replayed}"
    );
}
