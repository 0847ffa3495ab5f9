//! Deterministic fault-injection simulation of the full ingest protocol.
//!
//! The harness runs the real server-side session state machine, the real
//! [`BoundedQueue`] backpressure, the real [`Snapshot`] durability path,
//! and the shipped client's protocol core (the one [`crate::Client`]
//! drives over TCP) — all single-threaded on a **virtual clock**, with
//! every encoded frame routed through a seeded [`FaultSchedule`]. The
//! harness only drives the client core: it opens connections, routes its
//! frames, arms its reply deadline and wakes it after the backoff it asks
//! for. Same seed, same run: the event order is a pure function of the
//! seed, which the trace hash in [`SimReport`] asserts.
//!
//! Each kill either drains and snapshots gracefully, or (on a seeded
//! share of kills) crashes: the server comes back from the periodic
//! snapshot taken at an earlier virtual time, so clients find its cursor
//! behind theirs and must resend what it lost.
//!
//! Per seed the harness checks the *exactly-once-or-rejected* invariant:
//!
//! 1. the final aggregator equals, bit for bit, an offline collection of
//!    exactly the batches the server acked — nothing lost, nothing
//!    double-counted, no matter which faults fired;
//! 2. every batch a client believes was delivered is in the server's
//!    accepted set (client-acked ⊆ server-acked), checked at every ack the
//!    client takes, not just at the end;
//! 3. every batch was either server-accepted or its client exhausted the
//!    retry budget (a typed, observable failure — never silence).
//!
//! A failing seed reproduces from the CLI:
//! `cargo run --release -p bench --bin chaos -- --seed N`.
//!
//! The virtual clock ([`EventQueue`]), the per-frame fault routing
//! ([`FaultSchedule::route`]) and the shrinker ([`minimize`]) are public
//! pieces: the cluster tier's sweep drives its delta streamers and
//! aggregator on them too.

use felip_sync::atomic::{AtomicU64, Ordering};
use felip_sync::Arc;
use std::collections::{BinaryHeap, HashMap, HashSet};

use felip::aggregator::{Admitted, Aggregator, OracleSet};
use felip::config::FelipConfig;
use felip::plan::CollectionPlan;
use felip::query::QueryEngine;
use felip_common::hash::mix64;
use felip_common::{Attribute, Predicate, Query, Result, Schema};

use crate::client::{BatchSource, ClientCore, RetryPolicy, Step};
use crate::fault::{FaultConfig, FaultKind, FaultSchedule, MS, REPLY_DEADLINE_NS};
use crate::loadgen;
use crate::queue::{BoundedQueue, PopResult};
use crate::server::AtomicStats;
use crate::session::{AcceptedBatch, Reply, Session, SessionCtx};
use crate::snapshot::Snapshot;
use crate::wire::{Frame, WireError};

/// Worker drain cadence.
const DRAIN_TICK_NS: u64 = 2 * MS;
/// Query client cadence: sparse enough that ingest moves between asks, so
/// the epoch cache sees both warm and invalidated refreshes.
const QUERY_TICK_NS: u64 = 15 * MS;
/// Periodic snapshot cadence; a crash restores the latest one.
const CHECKPOINT_TICK_NS: u64 = 8 * MS;
/// Hard ceiling on processed events — a stuck run is a violation, not a
/// hang.
pub const MAX_EVENTS: u64 = 2_000_000;

/// Capacity of the sim's deterministic flight ring — small enough that a
/// chaos run wraps it (a standard chaos seed records ~100–300 trace
/// events), so `verify`'s reconstruction check exercises the overwrite
/// path, not just the fill path.
const SIM_FLIGHT_CAPACITY: usize = 64;

/// Everything that parameterises one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Master seed: drives the fault schedule, all latency jitter, and the
    /// synthetic report stream.
    pub seed: u64,
    /// Total simulated users (split evenly across clients).
    pub users: usize,
    /// Concurrent clients.
    pub clients: usize,
    /// Reports per batch.
    pub batch_size: usize,
    /// Fault probabilities.
    pub faults: FaultConfig,
    /// Server ingest queue capacity (small values force RETRYs).
    pub queue_capacity: usize,
    /// Batches the worker drains per tick (small values sustain pressure).
    pub drain_per_tick: usize,
    /// Virtual time of a kill + resume, if any.
    pub kill_at_ns: Option<u64>,
}

impl SimConfig {
    /// The standard chaos mix: every fault kind armed, a tight queue, and
    /// one mid-run kill+resume. This is what the CI sweep runs per seed.
    pub fn chaos(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            users: 240,
            clients: 3,
            batch_size: 20,
            faults: FaultConfig::ALL,
            queue_capacity: 2,
            drain_per_tick: 1,
            // Mid-run: most clients are still sending (a chaos client
            // finishes at ~19 ms median), so a crash can rewind them.
            kill_at_ns: Some(14 * MS),
        }
    }

    /// A fault-free baseline: the sim must then deliver every user exactly
    /// once with no faults burned.
    pub fn lossless(seed: u64) -> SimConfig {
        SimConfig {
            faults: FaultConfig::NONE,
            kill_at_ns: None,
            ..SimConfig::chaos(seed)
        }
    }
}

/// What one simulated run produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimReport {
    /// The seed that reproduces this run.
    pub seed: u64,
    /// Events processed.
    pub events: u64,
    /// Order-sensitive digest of the full event trace; equal across runs
    /// of the same seed, which is the determinism assertion.
    pub trace_hash: u64,
    /// [`Aggregator::counts_digest`] of the final server state.
    pub counts_digest: u64,
    /// Reports in the final aggregator.
    pub reports_ingested: usize,
    /// Batches the server accepted (acked and counted exactly once).
    pub server_acked_batches: usize,
    /// Duplicate batches re-acked without re-ingestion.
    pub duplicates: u64,
    /// Frame faults injected by the schedule.
    pub faults_injected: u64,
    /// Snapshot writes that were torn, quarantined, and retried.
    pub snapshots_quarantined: u64,
    /// Kill + snapshot + resume cycles executed.
    pub kills: u32,
    /// Hello acks that showed a client the server's cursor behind its
    /// own (a crash restore lost batches the client had seen acked).
    pub rewinds: u64,
    /// Clients that exhausted their retry budget (the "or-rejected" arm
    /// of the invariant).
    pub gave_up: usize,
    /// Queries the sim's mixed query client answered (each checked
    /// bit-identical to the offline batch estimate of its cut).
    pub queries_answered: u64,
    /// Queries served straight from the warm epoch cache (no re-estimate).
    pub query_warm_hits: u64,
    /// Invariant violations; empty means the seed passed.
    pub violations: Vec<String>,
    /// Replayable fault-schedule token (`seed=…[;suppress=…]`); pass it to
    /// [`replay_token`] to re-run this exact run, faults and all.
    pub fault_token: String,
    /// `(draw index, kind)` of every fault that fired, in order —
    /// what [`minimize_failing_seed`] tries to switch off one by one.
    pub faults_fired: Vec<(u64, FaultKind)>,
    /// Events recorded into the sim's deterministic flight ring.
    pub flight_total: u64,
    /// Order-sensitive digest of the flight ring's final dump; equal
    /// across runs of the same seed (the postmortem-determinism
    /// assertion).
    pub flight_digest: u64,
}

impl SimReport {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// A report for a run that could not even be set up (plan construction
    /// failed): every counter zero, one violation naming the cause.
    fn setup_failure(seed: u64, why: String) -> SimReport {
        SimReport {
            seed,
            violations: vec![why],
            fault_token: format!("seed={seed}"),
            ..SimReport::default()
        }
    }
}

#[derive(Debug)]
enum Ev {
    /// Client `c`'s backoff ended: its core takes the next step.
    ClientWake(usize),
    /// Encoded frame bytes arriving at the server on `conn`.
    ToServer { conn: u64, bytes: Vec<u8> },
    /// Encoded frame bytes arriving at client `c` on `conn`.
    ToClient { c: usize, conn: u64, bytes: Vec<u8> },
    /// Client `c`'s reply deadline (ignored unless `token` is current).
    ClientTimeout { c: usize, token: u64 },
    /// Worker tick: drain up to `drain_per_tick` batches.
    Drain,
    /// Query tick: the mixed query client asks the incremental engine.
    Query,
    /// Periodic snapshot: drain, write (possibly torn), keep as the
    /// crash-restore point.
    Checkpoint,
    /// Kill: a graceful drain + snapshot + restore, or a crash that
    /// restores the last periodic snapshot.
    Kill,
}

/// A sim's event heap on a virtual clock: events pop earliest first, ties
/// in scheduling order, and [`EventQueue::trace`] folds each step into an
/// order-sensitive hash — equal across runs of the same seed.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now: u64,
    popped: u64,
    trace_hash: u64,
}

struct Scheduled<E> {
    at: u64,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first, with the
        // schedule sequence as a deterministic tie-break.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            popped: 0,
            trace_hash: 0x5eed_cafe_f00d_0001,
        }
    }
}

impl<E> EventQueue<E> {
    /// The virtual time of the event being handled, in nanoseconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Events popped so far.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// The trace digest so far.
    pub fn trace_hash(&self) -> u64 {
        self.trace_hash
    }

    /// Schedules `ev` at virtual time `at`.
    pub fn at(&mut self, at: u64, ev: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, ev });
    }

    /// Schedules `ev` `delay` nanoseconds from now.
    pub fn after(&mut self, delay: u64, ev: E) {
        self.at(self.now + delay, ev);
    }

    /// The next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<E> {
        let Scheduled { at, ev, .. } = self.heap.pop()?;
        self.now = at.max(self.now);
        self.popped += 1;
        Some(ev)
    }

    /// Folds one step (`tag` plus two words) at the current time into the
    /// trace hash.
    pub fn trace(&mut self, tag: u64, a: u64, b: u64) {
        for word in [self.now, tag, a, b] {
            self.trace_hash = mix64(self.trace_hash ^ word);
        }
    }
}

/// One simulated client: the shipped [`ClientCore`] plus the driver
/// state the harness keeps for it.
struct SimClient {
    core: ClientCore,
    /// The connection the core speaks on (0: none).
    conn: u64,
    /// Bumped at every step the core takes; a reply deadline fires only if
    /// its token is still current.
    token: u64,
    /// The users this client reports for, in batch order.
    users: Vec<usize>,
    /// The core acked every batch.
    done: bool,
    /// The core failed for good (its attempt budget ran out).
    gave_up: bool,
}

struct Sim {
    cfg: SimConfig,
    plan: Arc<CollectionPlan>,
    oracles: Arc<OracleSet>,
    plan_hash: u64,
    q: EventQueue<Ev>,
    schedule: FaultSchedule,
    clients: Vec<SimClient>,
    /// Live connections: conn id → owning client index. A connection that
    /// was reset (fault or client teardown) is removed entirely.
    conns: HashMap<u64, usize>,
    /// Connections the server has closed (error/protocol close): the
    /// server drops further input, but replies already in flight still
    /// reach the client.
    server_closed: HashSet<u64>,
    next_conn: u64,
    /// Server-side per-connection sessions.
    server_conns: HashMap<u64, Session>,
    ctx: SessionCtx,
    queue: BoundedQueue<Admitted>,
    stats: AtomicStats,
    agg: Aggregator,
    accepted: Vec<AcceptedBatch>,
    quarantined: u64,
    kills: u32,
    rewinds: u64,
    /// Where the server's snapshots go.
    snap_path: std::path::PathBuf,
    /// The last snapshot written: `accepted.len()` and the dedup cursors
    /// it holds.
    durable: Option<(usize, HashMap<u64, u64>)>,
    /// The sim's mixed query client: the real incremental engine, queried
    /// at deterministic virtual times against the live aggregator.
    query_engine: QueryEngine,
    /// The fixed λ-D probe every query tick asks.
    probe: Query,
    queries_answered: u64,
    query_warm_hits: u64,
    /// Armed by kill+resume: the next query must rebuild from the restored
    /// counts, never serve the pre-restore cached grid.
    expect_cold_query: bool,
    violations: Vec<String>,
    /// Sim-local deterministic flight ring: every [`Sim::trace`] call is
    /// teed into it, mirroring how the production server tees protocol
    /// events into the global ring.
    flight: felip_obs::flight::FlightRecorder,
    /// Unbounded shadow of every event fed to `flight`, in order — the
    /// ground truth `verify` reconstructs the ring window against.
    flight_shadow: Vec<felip_obs::flight::FlightEvent>,
}

/// Runs one simulated ingestion under `cfg` and checks every invariant.
pub fn run_sim(cfg: &SimConfig) -> SimReport {
    run_sim_suppressed(cfg, &HashSet::new())
}

/// [`run_sim`], but with the frame faults at the given draw indices
/// switched off — the replay/minimization entry point. The fault RNG
/// stream is unshifted, so every non-suppressed decision is identical to
/// the plain run of the same seed.
pub fn run_sim_suppressed(cfg: &SimConfig, suppressed: &HashSet<u64>) -> SimReport {
    run_sim_inner(cfg, suppressed.clone())
}

/// Re-runs the exact run a [`SimReport::fault_token`] came from.
pub fn replay_token(cfg: &SimConfig, token: &str) -> Result<SimReport, String> {
    let (seed, suppressed) = FaultSchedule::parse_token(token)?;
    let cfg = SimConfig {
        seed,
        ..cfg.clone()
    };
    Ok(run_sim_inner(&cfg, suppressed))
}

/// What [`minimize`] needs to know of a sim run.
pub trait FaultRun {
    /// Whether every invariant held.
    fn ok(&self) -> bool;
    /// `(draw index, kind)` of every fault that fired, in order.
    fn faults_fired(&self) -> &[(u64, FaultKind)];
    /// The token that replays this run.
    fn fault_token(&self) -> &str;
}

impl FaultRun for SimReport {
    fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn faults_fired(&self) -> &[(u64, FaultKind)] {
        &self.faults_fired
    }

    fn fault_token(&self) -> &str {
        &self.fault_token
    }
}

/// A failing chaos seed, shrunk: the smallest fault subset (found by
/// greedily suppressing fired faults that are not needed for the failure)
/// that still violates an invariant, plus the token that replays it.
#[derive(Debug, Clone)]
pub struct MinimizedFailure<R = SimReport> {
    /// Replay token of the minimized failing run (`seed=…;suppress=…`).
    pub token: String,
    /// Faults still firing in the minimized run.
    pub faults: Vec<(u64, FaultKind)>,
    /// The minimized run's report (still failing).
    pub report: R,
}

/// Shrinks a failing run to a minimal fault schedule: `run` replays the
/// seed with the given draw indices suppressed, and every suppression
/// that preserves the failure is kept. Returns `None` when the
/// unsuppressed run passes (nothing to shrink).
///
/// The resulting [`MinimizedFailure::token`] pins the exact run — print it
/// in the test failure and replay it.
pub fn minimize<R: FaultRun>(run: impl Fn(&HashSet<u64>) -> R) -> Option<MinimizedFailure<R>> {
    let mut suppressed: HashSet<u64> = HashSet::new();
    let mut failing = run(&suppressed);
    if failing.ok() {
        return None;
    }
    loop {
        let mut progressed = false;
        for (idx, _) in failing.faults_fired().to_vec() {
            if suppressed.contains(&idx) {
                continue;
            }
            let mut trial = suppressed.clone();
            trial.insert(idx);
            let r = run(&trial);
            if !r.ok() {
                suppressed = trial;
                failing = r;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    Some(MinimizedFailure {
        token: failing.fault_token().to_string(),
        faults: failing.faults_fired().to_vec(),
        report: failing,
    })
}

/// [`minimize`] for a server sim run under `cfg`.
pub fn minimize_failing_seed(cfg: &SimConfig) -> Option<MinimizedFailure> {
    minimize(|suppressed| run_sim_suppressed(cfg, suppressed))
}

fn run_sim_inner(cfg: &SimConfig, suppressed: HashSet<u64>) -> SimReport {
    let built = Schema::new(vec![
        Attribute::numerical("a", 32),
        Attribute::categorical("c", 4),
    ])
    .and_then(|schema| CollectionPlan::build(&schema, cfg.users, &FelipConfig::new(1.0), 5));
    let plan = match built {
        Ok(p) => Arc::new(p),
        Err(e) => return SimReport::setup_failure(cfg.seed, format!("sim plan setup failed: {e}")),
    };
    let oracles = Arc::new(OracleSet::build(&plan));
    let plan_hash = plan.schema_hash();
    let probe = match Query::new(
        plan.schema(),
        vec![
            Predicate::between(0, 4, 19),
            Predicate::in_set(1, vec![1, 3]),
        ],
    ) {
        Ok(q) => q,
        Err(e) => {
            return SimReport::setup_failure(cfg.seed, format!("sim probe setup failed: {e}"))
        }
    };

    let per_client = cfg.users.div_ceil(cfg.clients.max(1));
    let policy = RetryPolicy {
        max_attempts: 64,
        jitter_seed: cfg.seed,
        ..RetryPolicy::default()
    };
    let clients: Vec<SimClient> = (0..cfg.clients)
        .map(|c| {
            let start = (c * per_client).min(cfg.users);
            let end = ((c + 1) * per_client).min(cfg.users);
            let mut core = ClientCore::new(plan_hash, c as u64 + 1, policy);
            core.begin((end - start).div_ceil(cfg.batch_size.max(1)) as u64);
            SimClient {
                core,
                conn: 0,
                token: 0,
                users: (start..end).collect(),
                done: false,
                gave_up: false,
            }
        })
        .collect();
    // Unique per process *and* per run, so concurrent sims of the same
    // seed (parallel tests) never share a file; the path feeds no sim
    // decision, so determinism is unaffected.
    static SIM_FILE_ID: AtomicU64 = AtomicU64::new(0);
    let snap_path = std::env::temp_dir().join(format!(
        "felip-sim-{}-{}-{}.snap",
        cfg.seed,
        std::process::id(),
        SIM_FILE_ID.fetch_add(1, Ordering::Relaxed)
    ));

    let sim = Sim {
        plan: Arc::clone(&plan),
        oracles: Arc::clone(&oracles),
        plan_hash,
        q: EventQueue::default(),
        schedule: FaultSchedule::with_suppressed(cfg.seed, cfg.faults, suppressed),
        clients,
        conns: HashMap::new(),
        server_closed: HashSet::new(),
        next_conn: 1,
        server_conns: HashMap::new(),
        ctx: SessionCtx::new(Arc::clone(&plan), Arc::clone(&oracles), Vec::new()),
        queue: BoundedQueue::new(cfg.queue_capacity.max(1)),
        stats: AtomicStats::default(),
        agg: Aggregator::with_oracles(Arc::clone(&plan), Arc::clone(&oracles)),
        accepted: Vec::new(),
        quarantined: 0,
        kills: 0,
        rewinds: 0,
        snap_path,
        durable: None,
        query_engine: QueryEngine::new(Arc::clone(&plan), Arc::clone(&oracles)),
        probe,
        queries_answered: 0,
        query_warm_hits: 0,
        expect_cold_query: false,
        violations: Vec::new(),
        flight: felip_obs::flight::FlightRecorder::deterministic(SIM_FLIGHT_CAPACITY),
        flight_shadow: Vec::new(),
        cfg: cfg.clone(),
    };
    sim.run()
}

impl Sim {
    fn trace(&mut self, tag: u64, a: u64, b: u64) {
        self.q.trace(tag, a, b);
        // Tee into the deterministic flight ring (and the unbounded
        // shadow that `verify` checks the ring's dump against).
        let code = tag as u16;
        self.flight
            .record(felip_obs::flight::KIND_FRAME, code, a, b);
        self.flight_shadow.push(felip_obs::flight::FlightEvent {
            seq: self.flight_shadow.len() as u64,
            t_ns: 0,
            kind: felip_obs::flight::KIND_FRAME,
            code,
            a,
            b,
        });
    }

    /// Routes one encoded frame through the fault pipeline. `to_server`
    /// picks the direction; `c` is the destination client otherwise.
    fn route(&mut self, conn: u64, frame: &Frame, to_server: bool, c: usize) {
        let routed = self.schedule.route(frame.encode());
        self.trace(1, conn, routed.fault.map_or(0, |k| k as u64 + 1));
        if routed.fault == Some(FaultKind::Reset) {
            self.reset_conn(conn);
            return;
        }
        for (delay, bytes) in routed.arrivals {
            let ev = if to_server {
                Ev::ToServer { conn, bytes }
            } else {
                Ev::ToClient { c, conn, bytes }
            };
            self.q.after(delay, ev);
        }
    }

    /// Hard reset (RST / fault): both directions dead immediately.
    fn reset_conn(&mut self, conn: u64) {
        if self.conns.remove(&conn).is_some() {
            self.trace(2, conn, 0);
        }
        self.server_conns.remove(&conn);
        self.server_closed.insert(conn);
    }

    /// Server-side protocol close: the server stops reading, but the error
    /// reply already in flight still reaches the client (like a FIN after
    /// the last write).
    fn server_close(&mut self, conn: u64) {
        self.server_conns.remove(&conn);
        self.server_closed.insert(conn);
        self.trace(2, conn, 1);
    }

    /// Hands client `c`'s core one event, with the client's batches as
    /// its source, and carries out the step it answers. Every ack the core
    /// takes must be one the server holds.
    fn drive_client(
        &mut self,
        c: usize,
        event: impl FnOnce(&mut ClientCore, &mut BatchSource<'_>) -> Step,
    ) {
        let (plan, seed, size) = (&self.plan, self.cfg.seed, self.cfg.batch_size);
        let SimClient { core, users, .. } = &mut self.clients[c];
        let before = core.cursor();
        let step = event(core, &mut |id| {
            loadgen::batch_reports(plan, users, size, seed, id)
        });
        let after = self.clients[c].core.cursor();
        if after < before {
            self.rewinds += 1;
            self.trace(15, c as u64, after);
        }
        let held = self.ctx.dedup.lock().get(&(c as u64 + 1)).copied();
        let held = held.unwrap_or(0);
        if after > before && after > held {
            self.violations.push(format!(
                "client {c} took batch {after} as acked but the server holds only {held}"
            ));
        }
        if !matches!(step, Step::Await) {
            // The wait the last reply deadline guarded is over.
            self.clients[c].token += 1;
        }
        self.act(c, step);
    }

    /// Carries out one step of client `c`'s core on the virtual network.
    fn act(&mut self, c: usize, step: Step) {
        match step {
            Step::Connect(hello) => {
                let conn = self.next_conn;
                self.next_conn += 1;
                self.conns.insert(conn, c);
                self.clients[c].conn = conn;
                self.trace(4, c as u64, conn);
                self.send_from_client(c, &hello);
            }
            Step::Send(frame) => {
                self.trace(5, c as u64, self.clients[c].core.cursor() + 1);
                self.send_from_client(c, &frame);
            }
            Step::Await => {}
            Step::Backoff(delay) => {
                self.trace(10, c as u64, delay.as_nanos() as u64);
                self.q.after(delay.as_nanos() as u64, Ev::ClientWake(c));
            }
            Step::Reconnect(delay) => {
                self.close_client_conn(c);
                self.trace(11, c as u64, delay.as_nanos() as u64);
                self.q.after(delay.as_nanos() as u64, Ev::ClientWake(c));
            }
            Step::Done => {
                self.clients[c].done = true;
                self.trace(9, c as u64, self.clients[c].core.cursor());
            }
            Step::Failed(e) => {
                self.close_client_conn(c);
                self.clients[c].gave_up = true;
                self.trace(3, c as u64, self.clients[c].core.cursor());
                // The sim runs one plan and builds every batch from the
                // plan's own users: only the budget may end a client.
                if !matches!(e, WireError::BudgetExhausted { .. }) {
                    self.violations.push(format!("client {c} failed: {e}"));
                }
            }
        }
    }

    /// Routes a client frame to the server and arms the reply deadline.
    fn send_from_client(&mut self, c: usize, frame: &Frame) {
        let (conn, token) = (self.clients[c].conn, self.clients[c].token);
        self.route(conn, frame, true, c);
        self.q
            .after(REPLY_DEADLINE_NS, Ev::ClientTimeout { c, token });
    }

    fn close_client_conn(&mut self, c: usize) {
        let conn = std::mem::take(&mut self.clients[c].conn);
        if conn != 0 {
            self.reset_conn(conn);
        }
    }

    fn on_client_wake(&mut self, c: usize) {
        if !(self.clients[c].done || self.clients[c].gave_up) {
            self.drive_client(c, |core, source| core.wake(source));
        }
    }

    fn on_to_server(&mut self, conn: u64, bytes: Vec<u8>) {
        if self.server_closed.contains(&conn) {
            self.trace(6, conn, 0);
            return;
        }
        let Some(&owner) = self.conns.get(&conn) else {
            self.trace(6, conn, 0); // late frame to a dead conn
            return;
        };
        self.trace(6, conn, bytes.len() as u64);
        let session = self.server_conns.entry(conn).or_default();
        let (reply, close) = match Frame::decode(&bytes) {
            Ok(frame) => {
                let outcome = session.on_frame(frame, &self.ctx, &self.queue, &self.stats);
                if let Some(batch) = outcome.accepted {
                    self.accepted.push(batch);
                }
                match outcome.reply {
                    Reply::Frame(f) => (f, outcome.close.is_some()),
                    // The sim's query client asks its engine directly; a
                    // wire `Query` has no service here, so it is rejected
                    // and the connection closed.
                    Reply::Query(_) => {
                        self.stats.bump_rejected();
                        let msg = "query serving not enabled on this server";
                        (Frame::error(self.plan_hash, msg), true)
                    }
                }
            }
            // Garbled bytes (corruption/truncation in flight): the server
            // replies with an error and closes, exactly like the TCP path.
            Err(_) => {
                self.stats.bump_rejected();
                (Frame::error(self.plan_hash, "garbled frame"), true)
            }
        };
        self.route(conn, &reply, false, owner);
        if close {
            self.server_close(conn);
        }
    }

    fn on_to_client(&mut self, c: usize, conn: u64, bytes: Vec<u8>) {
        if self.clients[c].conn != conn || !self.conns.contains_key(&conn) {
            self.trace(7, conn, 0); // stale delivery to a dead conn
            return;
        }
        self.trace(7, conn, bytes.len() as u64);
        self.drive_client(c, |core, source| {
            core.on_reply(Frame::decode(&bytes), source)
        });
    }

    fn on_client_timeout(&mut self, c: usize, token: u64) {
        if self.clients[c].token == token {
            self.trace(12, c as u64, self.clients[c].core.cursor());
            let deadline = WireError::Io(std::io::ErrorKind::TimedOut.into());
            self.drive_client(c, |core, _| core.lost(&deadline));
        }
    }

    fn drain(&mut self, limit: usize) -> usize {
        let mut drained = 0;
        while drained < limit {
            match self.queue.pop_timeout(std::time::Duration::ZERO) {
                PopResult::Item(batch) => {
                    self.agg.ingest_admitted(&batch);
                    self.queue.task_done();
                    drained += 1;
                }
                PopResult::Empty | PopResult::Done => break,
            }
        }
        drained
    }

    /// Drains the queue and writes the counts *and* dedup cursors through
    /// the verified-write path (a torn write is quarantined and retried).
    /// The snapshot written becomes the crash-restore point.
    fn write_snapshot(&mut self) -> bool {
        self.drain(usize::MAX);
        let dedup = self.ctx.dedup_pairs();
        let snap = Snapshot::capture_with_dedup(&self.agg, self.plan_hash, dedup.clone());
        for _attempt in 0..64 {
            let corrupt = self.schedule.snapshot_write_corrupts();
            let schedule = &mut self.schedule;
            let mut mangle = |bytes: &[u8]| corrupt.then(|| schedule.mangle_snapshot(bytes));
            match snap.write_verified(&self.snap_path, Some(&mut mangle)) {
                Ok(()) => {
                    self.durable = Some((self.accepted.len(), dedup.into_iter().collect()));
                    return true;
                }
                Err(_) => self.quarantined += 1,
            }
        }
        self.violations
            .push("snapshot write never survived verification in 64 attempts".into());
        false
    }

    /// Kill + resume. A graceful kill drains and snapshots first; on a
    /// seeded share of kills the server crashes instead and comes back
    /// from the last periodic snapshot, losing the batches it accepted
    /// since. Every connection drops and clients resync via Hello, where
    /// a crash shows them a cursor behind their own.
    fn on_kill(&mut self) {
        self.kills += 1;
        let crash = self.schedule.draw_below(2) == 0 && self.crash_spares_settled_clients();
        if !crash && !self.write_snapshot() {
            return;
        }
        let Some((kept, _)) = self.durable else {
            return;
        };
        let restored = Snapshot::read(&self.snap_path).and_then(|s| {
            let dedup = s.dedup.clone();
            s.restore(Arc::clone(&self.plan), Arc::clone(&self.oracles))
                .map(|agg| (agg, dedup))
        });
        match restored {
            Ok((agg, dedup)) => {
                self.agg = agg;
                self.ctx =
                    SessionCtx::new(Arc::clone(&self.plan), Arc::clone(&self.oracles), dedup);
            }
            Err(e) => {
                self.violations
                    .push(format!("restore from verified snapshot failed: {e}"));
                return;
            }
        }
        // What the restored server does not hold was never accepted, as
        // far as the final invariants are concerned; its queue died too.
        self.accepted.truncate(kept);
        self.queue = BoundedQueue::new(self.cfg.queue_capacity.max(1));
        let open: Vec<u64> = {
            let mut v: Vec<u64> = self.conns.keys().copied().collect();
            v.sort_unstable();
            v
        };
        for conn in open {
            self.reset_conn(conn);
        }
        // The production server builds its query engine cold at startup —
        // resume included — so the restored sim builds a fresh one too.
        // `expect_cold_query` turns a reused engine into a violation.
        self.query_engine = QueryEngine::new(Arc::clone(&self.plan), Arc::clone(&self.oracles));
        self.expect_cold_query = true;
        self.trace(13, self.kills as u64, crash as u64);
    }

    /// Whether crashing back to the last snapshot keeps every batch of the
    /// clients that already finished or gave up: those clients are gone
    /// and resend nothing, so their acked batches must survive.
    fn crash_spares_settled_clients(&self) -> bool {
        let Some((_, held)) = &self.durable else {
            return false;
        };
        self.clients.iter().enumerate().all(|(c, cl)| {
            let settled = cl.done || cl.gave_up;
            !settled || cl.core.cursor() <= held.get(&(c as u64 + 1)).copied().unwrap_or(0)
        })
    }

    /// One mixed-client query against the live aggregator: refresh the
    /// incremental engine from the current (single-threaded, hence
    /// consistent) cut and hold it to the invariants — the answer's cut is
    /// exactly the ingest head, the epoch never rewinds, the first query
    /// after a kill+resume is cold, and the answer is bit-identical to the
    /// offline batch estimate of the same counts.
    fn on_query(&mut self) {
        let head = self.agg.reports_ingested();
        self.trace(14, head as u64, self.query_engine.epoch());
        if head == 0 {
            return;
        }
        let before = self.query_engine.epoch();
        let out = match self.query_engine.refresh_from(&self.agg) {
            Ok(out) => out,
            Err(e) => {
                self.violations
                    .push(format!("query refresh at {head} reports failed: {e}"));
                return;
            }
        };
        self.queries_answered += 1;
        if out.warm {
            self.query_warm_hits += 1;
        }
        if self.expect_cold_query {
            if out.warm {
                self.violations.push(
                    "first query after kill+resume served the pre-restore cached grid".into(),
                );
            }
            self.expect_cold_query = false;
        }
        if out.reports as usize != head {
            self.violations.push(format!(
                "query answered at {} reports but the ingest head is {head}",
                out.reports
            ));
        }
        if out.epoch < before {
            self.violations
                .push(format!("query epoch rewound: {before} -> {}", out.epoch));
        }
        let incremental = out.estimator.answer(&self.probe);
        let offline = self.agg.estimate().and_then(|e| e.answer(&self.probe));
        match (incremental, offline) {
            (Ok(inc), Ok(off)) => {
                if inc.to_bits() != off.to_bits() {
                    self.violations.push(format!(
                        "query answer {inc} diverges from the offline batch estimate {off} \
                         at {head} reports"
                    ));
                }
            }
            (inc, off) => self.violations.push(format!(
                "query answering failed at {head} reports: incremental {inc:?}, offline {off:?}"
            )),
        }
    }

    fn all_settled(&self) -> bool {
        self.clients.iter().all(|c| c.done || c.gave_up)
    }

    fn run(mut self) -> SimReport {
        for c in 0..self.clients.len() {
            let jitter = self.schedule.draw_below(MS);
            self.q.at(jitter, Ev::ClientWake(c));
        }
        self.q.at(DRAIN_TICK_NS, Ev::Drain);
        self.q.at(QUERY_TICK_NS, Ev::Query);
        if let Some(at) = self.cfg.kill_at_ns {
            self.q.at(CHECKPOINT_TICK_NS, Ev::Checkpoint);
            self.q.at(at, Ev::Kill);
        }

        while let Some(ev) = self.q.pop() {
            if self.q.popped() > MAX_EVENTS {
                self.violations.push(format!(
                    "simulation did not settle within {MAX_EVENTS} events"
                ));
                break;
            }
            match ev {
                Ev::ClientWake(c) => self.on_client_wake(c),
                Ev::ToServer { conn, bytes } => self.on_to_server(conn, bytes),
                Ev::ToClient { c, conn, bytes } => self.on_to_client(c, conn, bytes),
                Ev::ClientTimeout { c, token } => self.on_client_timeout(c, token),
                Ev::Drain => {
                    self.drain(self.cfg.drain_per_tick.max(1));
                    if !(self.all_settled() && self.queue.is_empty()) {
                        self.q.after(DRAIN_TICK_NS, Ev::Drain);
                    }
                }
                Ev::Query => {
                    self.on_query();
                    if !(self.all_settled() && self.queue.is_empty()) {
                        self.q.after(QUERY_TICK_NS, Ev::Query);
                    }
                }
                Ev::Checkpoint => {
                    self.write_snapshot();
                    // Only the last snapshot before the kill is ever
                    // restored.
                    let next = self.q.now() + CHECKPOINT_TICK_NS;
                    if self.cfg.kill_at_ns.is_some_and(|kill| next < kill) {
                        self.q.at(next, Ev::Checkpoint);
                    }
                }
                Ev::Kill => self.on_kill(),
            }
        }
        for ext in ["snap", "quarantine", "tmp"] {
            let _ = std::fs::remove_file(self.snap_path.with_extension(ext));
        }

        // Final graceful drain, a query at the fully-settled cut, then
        // verify every invariant.
        self.drain(usize::MAX);
        self.on_query();
        let violations = self.verify();
        self.violations.extend(violations);

        let dump = self.flight.dump();
        let mut flight_digest = 0xf11d_cafe_0000_0001u64;
        for e in &dump.events {
            flight_digest = mix64(flight_digest ^ e.seq);
            flight_digest = mix64(flight_digest ^ (e.kind as u64 | ((e.code as u64) << 8)));
            flight_digest = mix64(flight_digest ^ e.a);
            flight_digest = mix64(flight_digest ^ e.b);
        }

        SimReport {
            seed: self.cfg.seed,
            events: self.q.popped(),
            trace_hash: self.q.trace_hash(),
            counts_digest: self.agg.counts_digest(),
            reports_ingested: self.agg.reports_ingested(),
            server_acked_batches: self.accepted.len(),
            duplicates: self.stats.snapshot().frames_duplicate,
            faults_injected: self.schedule.injected,
            snapshots_quarantined: self.quarantined,
            kills: self.kills,
            rewinds: self.rewinds,
            gave_up: self.clients.iter().filter(|c| c.gave_up).count(),
            queries_answered: self.queries_answered,
            query_warm_hits: self.query_warm_hits,
            violations: self.violations,
            fault_token: self.schedule.token(),
            faults_fired: self.schedule.fired().to_vec(),
            flight_total: dump.total,
            flight_digest,
        }
    }

    fn verify(&self) -> Vec<String> {
        let mut v = Vec::new();

        // (1) Accepted batches per client are exactly 1..=max: no gaps, no
        // repeats (a repeat would mean a double count).
        let mut per_client: HashMap<u64, HashSet<u64>> = HashMap::new();
        for b in &self.accepted {
            if !per_client
                .entry(b.client_id)
                .or_default()
                .insert(b.batch_id)
            {
                v.push(format!(
                    "batch (client {}, id {}) accepted twice",
                    b.client_id, b.batch_id
                ));
            }
        }
        let server_last = |client_id: u64| -> u64 {
            per_client
                .get(&client_id)
                .and_then(|ids| ids.iter().copied().max())
                .unwrap_or(0)
        };
        for (&client_id, ids) in &per_client {
            let max = server_last(client_id);
            for id in 1..=max {
                if !ids.contains(&id) {
                    v.push(format!(
                        "client {client_id}: batch {id} missing below accepted max {max}"
                    ));
                }
            }
        }

        // (2) Client-acked ⊆ server-acked.
        for (c, cl) in self.clients.iter().enumerate() {
            let last = server_last(c as u64 + 1);
            if cl.core.cursor() > last {
                v.push(format!(
                    "client {c} believes batch {} acked but server accepted only up to {last}",
                    cl.core.cursor()
                ));
            }
        }

        // (3) Exactly-once-or-rejected: every batch is server-accepted or
        // its client exhausted the budget (an observable give-up).
        for (c, cl) in self.clients.iter().enumerate() {
            if cl.gave_up {
                continue;
            }
            let last = server_last(c as u64 + 1);
            let total = cl.users.len().div_ceil(self.cfg.batch_size.max(1));
            if last < total as u64 {
                v.push(format!(
                    "client {c} settled without give-up but only {last}/{total} batches accepted"
                ));
            }
        }

        // (4) The final counts equal an offline collection of exactly the
        // accepted batches — bit for bit.
        let mut offline =
            Aggregator::with_oracles(Arc::clone(&self.plan), Arc::clone(&self.oracles));
        for b in &self.accepted {
            let c = (b.client_id - 1) as usize;
            let (size, seed) = (self.cfg.batch_size, self.cfg.seed);
            let users = &self.clients[c].users;
            let offline_batch = loadgen::batch_reports(&self.plan, users, size, seed, b.batch_id)
                .and_then(|reports| offline.ingest_batch(&reports));
            if let Err(e) = offline_batch {
                v.push(format!(
                    "offline replay of client {c} batch {} failed: {e}",
                    b.batch_id
                ));
            }
        }
        if offline.counts() != self.agg.counts() {
            v.push("final counts differ from offline collection of acked batches".into());
        }
        if offline.group_sizes() != self.agg.group_sizes() {
            v.push("group sizes differ from offline collection of acked batches".into());
        }

        // (5) Flight recorder: a quiesced ring's dump must reconstruct the
        // last `capacity` recorded events bit-identically (same seq, kind,
        // code and payload words as the shadow log), with the overwritten
        // prefix accounted for in `dropped`.
        let dump = self.flight.dump();
        let recorded = self.flight_shadow.len();
        let window = recorded.min(self.flight.capacity());
        if dump.total != recorded as u64 {
            v.push(format!(
                "flight ring counted {} events but {recorded} were recorded",
                dump.total
            ));
        }
        if dump.dropped != (recorded - window) as u64 {
            v.push(format!(
                "flight ring dropped {} events, expected {}",
                dump.dropped,
                recorded - window
            ));
        }
        if dump.events != self.flight_shadow[recorded - window..] {
            v.push("flight ring dump does not reconstruct the last events bit-identically".into());
        }

        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_sim_delivers_every_user_exactly_once() {
        let report = run_sim(&SimConfig::lossless(1));
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.reports_ingested, 240);
        assert_eq!(report.gave_up, 0);
        assert_eq!(report.faults_injected, 0);
        // The mixed query client rode along, and the idle tail of the run
        // (settled ingest, repeated asks) produced warm cache hits.
        assert!(report.queries_answered > 0, "no queries answered");
        assert!(report.query_warm_hits > 0, "cache never served warm");
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let a = run_sim(&SimConfig::chaos(42));
        let b = run_sim(&SimConfig::chaos(42));
        assert_eq!(a, b, "same seed must reproduce the identical run");
        assert!(a.ok(), "violations: {:?}", a.violations);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_sim(&SimConfig::chaos(7));
        let b = run_sim(&SimConfig::chaos(8));
        assert_ne!(a.trace_hash, b.trace_hash);
    }

    #[test]
    fn chaos_seeds_hold_the_invariant() {
        for seed in 0..8 {
            let report = run_sim(&SimConfig::chaos(seed));
            assert!(
                report.ok(),
                "seed {seed} violated invariants: {:?}",
                report.violations
            );
        }
    }
}
