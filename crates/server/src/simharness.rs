//! Deterministic fault-injection simulation of the full ingest protocol.
//!
//! The harness runs the real server-side session state machine, the real
//! [`BoundedQueue`] backpressure, the real [`Snapshot`] durability path,
//! and a faithful model of the retrying client — all single-threaded on a
//! **virtual clock**, with every frame routed through a seeded
//! [`FaultSchedule`]. Same seed, same run: the event order is a pure
//! function of the seed, which the trace hash in [`SimReport`] asserts.
//!
//! Per seed the harness checks the *exactly-once-or-rejected* invariant:
//!
//! 1. the final aggregator equals, bit for bit, an offline collection of
//!    exactly the batches the server acked — nothing lost, nothing
//!    double-counted, no matter which faults fired;
//! 2. every batch a client believes was delivered is in the server's
//!    accepted set (client-acked ⊆ server-acked);
//! 3. every batch was either server-accepted or its client exhausted the
//!    retry budget (a typed, observable failure — never silence).
//!
//! A failing seed reproduces from the CLI:
//! `cargo run --release -p bench --bin chaos -- --seed N`.

use felip_sync::Arc;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

use felip::aggregator::{Aggregator, OracleSet};
use felip::client::UserReport;
use felip::config::FelipConfig;
use felip::plan::CollectionPlan;
use felip::query::QueryEngine;
use felip_common::hash::mix64;
use felip_common::{Attribute, Predicate, Query, Result, Schema};

use crate::client::RetryPolicy;
use crate::fault::{FaultConfig, FaultKind, FaultSchedule};
use crate::loadgen;
use crate::queue::{BoundedQueue, PopResult};
use crate::server::AtomicStats;
use crate::session::{AcceptedBatch, Reply, Session, SessionCtx};
use crate::snapshot::Snapshot;
use crate::transport::{RecvOutcome, Transport};
use crate::wire::{decode_ack, encode_batch, encode_hello, Frame, FrameKind, WireError};

/// One millisecond of virtual time, in nanoseconds.
const MS: u64 = 1_000_000;
/// Base one-way frame latency.
const LATENCY_NS: u64 = MS;
/// Client reply deadline before it declares the connection dead.
const CLIENT_TIMEOUT_NS: u64 = 50 * MS;
/// How late a `Stall` fault delivers a frame (past the client deadline).
const STALL_NS: u64 = 200 * MS;
/// Worker drain cadence.
const DRAIN_TICK_NS: u64 = 2 * MS;
/// Query client cadence: sparse enough that ingest moves between asks, so
/// the epoch cache sees both warm and invalidated refreshes.
const QUERY_TICK_NS: u64 = 15 * MS;
/// Hard ceiling on processed events — a stuck run is a violation, not a
/// hang.
const MAX_EVENTS: u64 = 2_000_000;

/// Capacity of the sim's deterministic flight ring — small enough that a
/// chaos run wraps it (a standard chaos seed records ~100–300 trace
/// events), so `verify`'s reconstruction check exercises the overwrite
/// path, not just the fill path.
const SIM_FLIGHT_CAPACITY: usize = 64;

/// The in-memory transport the sim serves connections over: frames are
/// delivered as encoded bytes (so in-flight corruption is byte-level, like
/// the real wire) and decoded on receipt, exactly where the TCP transport
/// decodes off the socket.
#[derive(Default)]
pub struct SimTransport {
    inbox: VecDeque<Result<Frame, WireError>>,
    outbox: Vec<Frame>,
    peer_closed: bool,
}

impl SimTransport {
    /// An empty, open transport.
    pub fn new() -> SimTransport {
        SimTransport::default()
    }

    /// Delivers one frame's (possibly mangled) bytes.
    pub fn deliver(&mut self, bytes: &[u8]) {
        self.inbox.push_back(Frame::decode(bytes));
    }

    /// Marks the peer as gone: once the inbox drains, `recv` reports EOF.
    pub fn close(&mut self) {
        self.peer_closed = true;
    }

    /// Takes every frame the session queued for sending.
    pub fn take_outbox(&mut self) -> Vec<Frame> {
        std::mem::take(&mut self.outbox)
    }
}

impl Transport for SimTransport {
    fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        self.outbox.push(frame.clone());
        Ok(())
    }

    fn recv(&mut self) -> RecvOutcome {
        match self.inbox.pop_front() {
            Some(Ok(frame)) => RecvOutcome::Frame(frame),
            Some(Err(e)) => RecvOutcome::Err(e),
            None if self.peer_closed => RecvOutcome::Eof,
            None => RecvOutcome::NoData,
        }
    }
}

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
    /// Virtual time of a graceful kill + snapshot + resume, if any.
    pub kill_at_ns: Option<u64>,
    /// Client retry budget per batch (and per reconnect storm).
    pub max_attempts: u32,
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
            kill_at_ns: Some(120 * MS),
            max_attempts: 64,
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// `(draw index, kind)` of every frame fault that fired, in order —
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
            events: 0,
            trace_hash: 0,
            counts_digest: 0,
            reports_ingested: 0,
            server_acked_batches: 0,
            duplicates: 0,
            faults_injected: 0,
            snapshots_quarantined: 0,
            kills: 0,
            gave_up: 0,
            queries_answered: 0,
            query_warm_hits: 0,
            violations: vec![why],
            fault_token: format!("seed={seed}"),
            faults_fired: Vec::new(),
            flight_total: 0,
            flight_digest: 0,
        }
    }
}

#[derive(Debug)]
enum Ev {
    /// Client `c` takes its next action (connect or send).
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
    /// Graceful kill: drain, snapshot (possibly torn), restore.
    Kill,
}

struct Scheduled {
    at: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first, with the
        // schedule sequence as a deterministic tie-break.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CState {
    Disconnected,
    AwaitHelloAck,
    Idle,
    AwaitAck,
}

struct SimClient {
    id: u64,
    conn: u64,
    user_range: std::ops::Range<usize>,
    total_batches: usize,
    /// Count of batches acked so far; the next batch id is this + 1.
    next_batch: usize,
    state: CState,
    attempts: u32,
    token: u64,
    gave_up: bool,
    done: bool,
    /// Highest batch id this client saw acked (directly or via Hello).
    acked: u64,
}

struct Sim {
    cfg: SimConfig,
    plan: Arc<CollectionPlan>,
    oracles: Arc<OracleSet>,
    plan_hash: u64,
    heap: BinaryHeap<Scheduled>,
    seq: u64,
    now: u64,
    schedule: FaultSchedule,
    policy: RetryPolicy,
    clients: Vec<SimClient>,
    /// Live connections: conn id → owning client index. A connection that
    /// was reset (fault or client teardown) is removed entirely.
    conns: HashMap<u64, usize>,
    /// Connections the server has closed (error/protocol close): the
    /// server drops further input, but replies already in flight still
    /// reach the client.
    server_closed: HashSet<u64>,
    next_conn: u64,
    /// Server-side per-connection transports and sessions.
    server_conns: HashMap<u64, (SimTransport, Session)>,
    ctx: SessionCtx,
    queue: BoundedQueue<Vec<UserReport>>,
    stats: AtomicStats,
    agg: Aggregator,
    accepted: Vec<AcceptedBatch>,
    trace_hash: u64,
    events: u64,
    quarantined: u64,
    kills: u32,
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

/// A failing chaos seed, shrunk: the smallest fault subset (found by
/// greedily suppressing fired faults that are not needed for the failure)
/// that still violates an invariant, plus the token that replays it.
#[derive(Debug, Clone)]
pub struct MinimizedFailure {
    /// Replay token of the minimized failing run (`seed=…;suppress=…`).
    pub token: String,
    /// Faults still firing in the minimized run.
    pub faults: Vec<(u64, FaultKind)>,
    /// The minimized run's report (still failing).
    pub report: SimReport,
}

/// Shrinks a failing seed to a minimal fault schedule: repeatedly tries
/// suppressing each fired fault and keeps every suppression that preserves
/// the failure. Returns `None` when `cfg`'s run passes (nothing to shrink).
///
/// The resulting [`MinimizedFailure::token`] pins the exact run — print it
/// in the test failure, replay it with [`replay_token`].
pub fn minimize_failing_seed(cfg: &SimConfig) -> Option<MinimizedFailure> {
    let mut failing = run_sim(cfg);
    if failing.ok() {
        return None;
    }
    let mut suppressed: HashSet<u64> = HashSet::new();
    loop {
        let mut progressed = false;
        for (idx, _) in failing.faults_fired.clone() {
            if suppressed.contains(&idx) {
                continue;
            }
            let mut trial = suppressed.clone();
            trial.insert(idx);
            let r = run_sim_suppressed(cfg, &trial);
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
        token: failing.fault_token.clone(),
        faults: failing.faults_fired.clone(),
        report: failing,
    })
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
    let clients: Vec<SimClient> = (0..cfg.clients)
        .map(|c| {
            let start = (c * per_client).min(cfg.users);
            let end = ((c + 1) * per_client).min(cfg.users);
            let n = end - start;
            SimClient {
                id: c as u64 + 1,
                conn: 0,
                user_range: start..end,
                total_batches: n.div_ceil(cfg.batch_size.max(1)),
                next_batch: 0,
                state: CState::Disconnected,
                attempts: 0,
                token: 0,
                gave_up: false,
                done: n == 0,
                acked: 0,
            }
        })
        .collect();

    let sim = Sim {
        plan: Arc::clone(&plan),
        oracles: Arc::clone(&oracles),
        plan_hash,
        heap: BinaryHeap::new(),
        seq: 0,
        now: 0,
        schedule: FaultSchedule::with_suppressed(cfg.seed, cfg.faults, suppressed),
        policy: RetryPolicy {
            max_attempts: cfg.max_attempts,
            jitter_seed: cfg.seed,
            ..RetryPolicy::default()
        },
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
        trace_hash: 0x5eed_cafe_f00d_0001,
        events: 0,
        quarantined: 0,
        kills: 0,
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
    fn schedule_ev(&mut self, at: u64, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, ev });
    }

    fn trace(&mut self, tag: u64, a: u64, b: u64) {
        self.trace_hash = mix64(self.trace_hash ^ self.now);
        self.trace_hash = mix64(self.trace_hash ^ tag);
        self.trace_hash = mix64(self.trace_hash ^ a);
        self.trace_hash = mix64(self.trace_hash ^ b);
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

    fn latency(&mut self) -> u64 {
        LATENCY_NS + self.schedule.draw_below(MS / 10)
    }

    /// Routes one encoded frame through the fault pipeline. `to_server`
    /// picks the direction; `c` is the destination client otherwise.
    fn route(&mut self, conn: u64, frame: &Frame, to_server: bool, c: usize) {
        let mut bytes = frame.encode();
        let fault = self.schedule.next_frame_fault();
        self.trace(1, conn, fault.map_or(0, |k| k as u64 + 1));
        let lat = self.latency();
        let mut deliveries: Vec<(u64, Vec<u8>)> = Vec::new();
        match fault {
            None => deliveries.push((lat, bytes)),
            Some(FaultKind::Drop) => {}
            Some(FaultKind::Truncate) => {
                let t = self.schedule.truncate_frame(&bytes);
                deliveries.push((lat, t));
            }
            Some(FaultKind::Duplicate) => {
                deliveries.push((lat, bytes.clone()));
                let second = lat + self.latency();
                deliveries.push((second, bytes));
            }
            Some(FaultKind::Reorder) => deliveries.push((3 * lat, bytes)),
            Some(FaultKind::Corrupt) => {
                self.schedule.corrupt_frame(&mut bytes);
                deliveries.push((lat, bytes));
            }
            Some(FaultKind::Reset) => {
                self.reset_conn(conn);
                return;
            }
            Some(FaultKind::Stall) => deliveries.push((STALL_NS + lat, bytes)),
        }
        for (delay, payload) in deliveries {
            let ev = if to_server {
                Ev::ToServer {
                    conn,
                    bytes: payload,
                }
            } else {
                Ev::ToClient {
                    c,
                    conn,
                    bytes: payload,
                }
            };
            let at = self.now + delay;
            self.schedule_ev(at, ev);
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

    fn batch_reports(&self, c: usize, batch_idx: usize) -> Result<Vec<UserReport>> {
        let cl = &self.clients[c];
        let start = cl.user_range.start + batch_idx * self.cfg.batch_size;
        let end = (start + self.cfg.batch_size).min(cl.user_range.end);
        (start..end)
            .map(|u| loadgen::user_report(&self.plan, u, self.cfg.seed))
            .collect()
    }

    /// The client declares its connection dead (timeout, garbled reply,
    /// server error): tear it down and reconnect after backoff — unless
    /// the attempt budget is spent, in which case it gives up, observably.
    fn client_fail(&mut self, c: usize) {
        let conn = self.clients[c].conn;
        if conn != 0 {
            self.reset_conn(conn);
        }
        self.clients[c].conn = 0;
        self.clients[c].state = CState::Disconnected;
        self.clients[c].token += 1;
        let attempts = self.clients[c].attempts;
        if attempts >= self.cfg.max_attempts {
            self.clients[c].gave_up = true;
            self.trace(3, c as u64, attempts as u64);
            return;
        }
        let delay = self.policy.backoff(attempts.max(1)).as_nanos() as u64;
        let at = self.now + delay.max(MS);
        self.schedule_ev(at, Ev::ClientWake(c));
    }

    fn arm_timeout(&mut self, c: usize) {
        let token = self.clients[c].token;
        self.schedule_ev(self.now + CLIENT_TIMEOUT_NS, Ev::ClientTimeout { c, token });
    }

    fn on_client_wake(&mut self, c: usize) {
        if self.clients[c].done || self.clients[c].gave_up {
            return;
        }
        match self.clients[c].state {
            CState::Disconnected => {
                self.clients[c].attempts += 1;
                if self.clients[c].attempts > self.cfg.max_attempts {
                    self.clients[c].gave_up = true;
                    self.trace(3, c as u64, self.cfg.max_attempts as u64);
                    return;
                }
                let conn = self.next_conn;
                self.next_conn += 1;
                self.conns.insert(conn, c);
                self.clients[c].conn = conn;
                self.clients[c].state = CState::AwaitHelloAck;
                self.clients[c].token += 1;
                let hello = Frame {
                    kind: FrameKind::Hello,
                    plan_hash: self.plan_hash,
                    payload: encode_hello(self.clients[c].id),
                };
                self.trace(4, c as u64, conn);
                self.route(conn, &hello, true, c);
                self.arm_timeout(c);
            }
            CState::Idle => {
                if self.clients[c].next_batch >= self.clients[c].total_batches {
                    self.clients[c].done = true;
                    return;
                }
                self.clients[c].attempts += 1;
                if self.clients[c].attempts > self.cfg.max_attempts {
                    self.clients[c].gave_up = true;
                    self.trace(3, c as u64, self.cfg.max_attempts as u64);
                    return;
                }
                let idx = self.clients[c].next_batch;
                let batch_id = idx as u64 + 1;
                // Report generation and encoding are deterministic functions
                // of the plan; a failure is a harness defect, recorded as a
                // violation so the seed fails loudly instead of panicking.
                let payload = match self
                    .batch_reports(c, idx)
                    .map_err(|e| e.to_string())
                    .and_then(|r| encode_batch(batch_id, &r).map_err(|e| e.to_string()))
                {
                    Ok(p) => p,
                    Err(e) => {
                        self.violations
                            .push(format!("client {c}: building batch {batch_id} failed: {e}"));
                        self.clients[c].gave_up = true;
                        return;
                    }
                };
                let frame = Frame {
                    kind: FrameKind::ReportBatch,
                    plan_hash: self.plan_hash,
                    payload,
                };
                let conn = self.clients[c].conn;
                self.clients[c].state = CState::AwaitAck;
                self.clients[c].token += 1;
                self.trace(5, c as u64, batch_id);
                self.route(conn, &frame, true, c);
                self.arm_timeout(c);
            }
            // Spurious wake while a reply is pending: the timeout or the
            // reply will move the state machine.
            CState::AwaitHelloAck | CState::AwaitAck => {}
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
        let (transport, session) = self
            .server_conns
            .entry(conn)
            .or_insert_with(|| (SimTransport::new(), Session::default()));
        transport.deliver(&bytes);
        let mut close = false;
        loop {
            match transport.recv() {
                RecvOutcome::Frame(frame) => {
                    let outcome = session.on_frame(frame, &self.ctx, &self.queue, &self.stats);
                    // The sim's query client asks its engine directly; a
                    // wire `Query` has no service here, so it is rejected
                    // and the connection closed.
                    let (reply, rejected) = match outcome.reply {
                        Reply::Frame(f) => (f, false),
                        Reply::Query(_) => {
                            self.stats.bump_rejected();
                            let msg = "query serving not enabled on this server";
                            (Frame::error(self.plan_hash, msg), true)
                        }
                    };
                    // SimTransport::send is an infallible outbox push.
                    let _ = transport.send(&reply);
                    if let Some(batch) = outcome.accepted {
                        self.accepted.push(batch);
                    }
                    if outcome.close.is_some() || rejected {
                        close = true;
                        break;
                    }
                }
                RecvOutcome::Err(_) => {
                    // Garbled bytes (corruption/truncation in flight): the
                    // server replies with an error and closes, exactly like
                    // the TCP path.
                    let err = Frame::error(self.plan_hash, "garbled frame");
                    let _ = transport.send(&err);
                    self.stats.bump_rejected();
                    close = true;
                    break;
                }
                RecvOutcome::NoData
                | RecvOutcome::Eof
                | RecvOutcome::Idle
                | RecvOutcome::Shutdown => break,
            }
        }
        let replies = self
            .server_conns
            .get_mut(&conn)
            .map(|(t, _)| t.take_outbox())
            .unwrap_or_default();
        for reply in replies {
            self.route(conn, &reply, false, owner);
        }
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
        let frame = match Frame::decode(&bytes) {
            Ok(f) => f,
            Err(_) => {
                // Reply corrupted in flight: treat the conn as broken.
                self.client_fail(c);
                return;
            }
        };
        match (self.clients[c].state, frame.kind) {
            (CState::AwaitHelloAck, FrameKind::Ack) => {
                let Ok((last, _)) = decode_ack(&frame.payload) else {
                    self.client_fail(c);
                    return;
                };
                // Resync: everything up to `last` is already accepted
                // server-side; never re-send it.
                let total = self.clients[c].total_batches;
                let cl = &mut self.clients[c];
                cl.next_batch = (last as usize).min(total);
                cl.acked = cl.acked.max(last);
                cl.state = CState::Idle;
                cl.attempts = 0;
                cl.token += 1;
                self.trace(8, c as u64, last);
                self.schedule_ev(self.now + MS / 10, Ev::ClientWake(c));
            }
            (CState::AwaitAck, FrameKind::Ack) => {
                let Ok((id, _)) = decode_ack(&frame.payload) else {
                    self.client_fail(c);
                    return;
                };
                let expect = self.clients[c].next_batch as u64 + 1;
                if id < expect {
                    return; // stale ack from a duplicated earlier frame
                }
                let cl = &mut self.clients[c];
                cl.acked = cl.acked.max(id);
                cl.next_batch += 1;
                cl.attempts = 0;
                cl.state = CState::Idle;
                cl.token += 1;
                self.trace(9, c as u64, id);
                self.schedule_ev(self.now + MS / 10, Ev::ClientWake(c));
            }
            (CState::AwaitAck, FrameKind::Retry) => {
                // Backpressure: back off and resend the same batch.
                let cl = &mut self.clients[c];
                cl.state = CState::Idle;
                cl.token += 1;
                let attempts = cl.attempts;
                self.trace(10, c as u64, attempts as u64);
                let delay = self.policy.backoff(attempts.max(1)).as_nanos() as u64;
                self.schedule_ev(self.now + delay.max(MS), Ev::ClientWake(c));
            }
            (_, FrameKind::Error) => {
                // The server rejected something (usually a frame garbled
                // in flight) and closed; reconnect and resync.
                self.trace(11, c as u64, 0);
                self.client_fail(c);
            }
            _ => {
                // A reply that makes no sense in this state (e.g. an ack
                // duplicated into Idle): ignore.
            }
        }
    }

    fn on_client_timeout(&mut self, c: usize, token: u64) {
        if self.clients[c].token != token {
            return; // the awaited reply arrived; deadline is stale
        }
        if matches!(
            self.clients[c].state,
            CState::AwaitHelloAck | CState::AwaitAck
        ) {
            self.trace(12, c as u64, self.clients[c].attempts as u64);
            self.client_fail(c);
        }
    }

    fn drain(&mut self, limit: usize) -> usize {
        let mut drained = 0;
        while drained < limit {
            match self.queue.pop_timeout(std::time::Duration::ZERO) {
                PopResult::Item(batch) => {
                    // Batches were validated at admission; a failure here
                    // means the server counted something it never checked.
                    if let Err(e) = self.agg.ingest_batch(&batch) {
                        self.violations
                            .push(format!("admitted batch failed to ingest: {e}"));
                    }
                    self.queue.task_done();
                    drained += 1;
                }
                PopResult::Empty | PopResult::Done => break,
            }
        }
        drained
    }

    /// Graceful kill + resume: drain the queue, snapshot counts *and*
    /// dedup cursors through the verified-write path (the write may be
    /// torn — then it is quarantined and retried), restore from the file
    /// just written, and drop every connection. Clients resync via Hello.
    fn on_kill(&mut self) {
        use felip_sync::atomic::{AtomicU64, Ordering};
        // Unique per process *and* per run, so concurrent sims of the same
        // seed (parallel tests) never share a file; the path feeds no sim
        // decision, so determinism is unaffected.
        static SIM_FILE_ID: AtomicU64 = AtomicU64::new(0);
        self.kills += 1;
        self.drain(usize::MAX);
        let path = std::env::temp_dir().join(format!(
            "felip-sim-{}-{}-{}.snap",
            self.cfg.seed,
            std::process::id(),
            SIM_FILE_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let snap = Snapshot::capture_with_dedup(&self.agg, self.plan_hash, self.ctx.dedup_pairs());
        let mut wrote = false;
        for _attempt in 0..64 {
            let corrupt = self.schedule.snapshot_write_corrupts();
            let schedule = &mut self.schedule;
            let mut mangle = |bytes: &[u8]| {
                if corrupt {
                    Some(schedule.mangle_snapshot(bytes))
                } else {
                    None
                }
            };
            match snap.write_verified(&path, Some(&mut mangle)) {
                Ok(()) => {
                    wrote = true;
                    break;
                }
                Err(_) => self.quarantined += 1,
            }
        }
        if !wrote {
            self.violations
                .push("snapshot write never survived verification in 64 attempts".into());
            return;
        }
        let restored = Snapshot::read(&path).and_then(|s| {
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
        let open: Vec<u64> = {
            let mut v: Vec<u64> = self.conns.keys().copied().collect();
            v.sort_unstable();
            v
        };
        for conn in open {
            self.reset_conn(conn);
        }
        // The production server builds its query engine cold at startup —
        // resume included — so the restored sim drops the epoch cache too.
        // `expect_cold_query` turns a missing reset into a violation.
        self.query_engine.reset();
        self.expect_cold_query = true;
        self.trace(13, self.kills as u64, self.quarantined);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("quarantine"));
        let _ = std::fs::remove_file(path.with_extension("tmp"));
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
            self.schedule_ev(jitter, Ev::ClientWake(c));
        }
        self.schedule_ev(DRAIN_TICK_NS, Ev::Drain);
        self.schedule_ev(QUERY_TICK_NS, Ev::Query);
        if let Some(at) = self.cfg.kill_at_ns {
            self.schedule_ev(at, Ev::Kill);
        }

        while let Some(Scheduled { at, ev, .. }) = self.heap.pop() {
            self.now = at.max(self.now);
            self.events += 1;
            if self.events > MAX_EVENTS {
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
                        self.schedule_ev(self.now + DRAIN_TICK_NS, Ev::Drain);
                    }
                }
                Ev::Query => {
                    self.on_query();
                    if !(self.all_settled() && self.queue.is_empty()) {
                        self.schedule_ev(self.now + QUERY_TICK_NS, Ev::Query);
                    }
                }
                Ev::Kill => self.on_kill(),
            }
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
            events: self.events,
            trace_hash: self.trace_hash,
            counts_digest: self.agg.counts_digest(),
            reports_ingested: self.agg.reports_ingested(),
            server_acked_batches: self.accepted.len(),
            duplicates: self.stats.snapshot().frames_duplicate,
            faults_injected: self.schedule.injected,
            snapshots_quarantined: self.quarantined,
            kills: self.kills,
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
            let last = server_last(cl.id);
            if cl.acked > last {
                v.push(format!(
                    "client {c} believes batch {} acked but server accepted only up to {last}",
                    cl.acked
                ));
            }
        }

        // (3) Exactly-once-or-rejected: every batch is server-accepted or
        // its client exhausted the budget (an observable give-up).
        for (c, cl) in self.clients.iter().enumerate() {
            if cl.gave_up {
                continue;
            }
            let last = server_last(cl.id);
            if last < cl.total_batches as u64 {
                v.push(format!(
                    "client {c} settled without give-up but only {last}/{} batches accepted",
                    cl.total_batches
                ));
            }
        }

        // (4) The final counts equal an offline collection of exactly the
        // accepted batches — bit for bit.
        let mut offline =
            Aggregator::with_oracles(Arc::clone(&self.plan), Arc::clone(&self.oracles));
        for b in &self.accepted {
            let c = (b.client_id - 1) as usize;
            let offline_batch = self
                .batch_reports(c, (b.batch_id - 1) as usize)
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
