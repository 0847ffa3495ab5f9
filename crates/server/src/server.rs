//! The streaming ingestion server: the shared serve loop, fixed worker
//! pool with bounded queues, shard aggregators, periodic + final
//! snapshots.
//!
//! Data path (DESIGN.md §12.2): the serve loop decodes frames and the
//! session admits them (the one report check, [`OracleSet::admit`]), then
//! `try_push`es whole [`Admitted`] batches onto the worker queue the
//! connection was pinned to at accept time. A full queue
//! answers RETRY — the client backs off and resends, so a slow worker
//! never grows memory beyond `workers × queue_capacity` batches. Each
//! worker counts batches into its private shard [`Aggregator`] without
//! checking them again; exact `u64`
//! counts make the final merge independent of how batches interleaved,
//! which is why a served run reproduces an offline collection bit for bit.
//!
//! The tier's state is one [`IngestState`], built by one constructor over
//! an optional restored snapshot. [`Server::run`], the deterministic sim
//! harness and the tests all build it there, and take its consistent cut,
//! its snapshot capture, its frame handling and its query service from it.

use std::fs::OpenOptions;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::Duration;

use felip_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use felip_sync::{thread, Arc, Mutex};

use felip::aggregator::{Admitted, Aggregator, OracleSet};
use felip::plan::CollectionPlan;

use crate::query::{CutSource, QueryService};
use crate::queue::{BoundedQueue, Periodic, PopResult};
use crate::serve::{dispatch, serve, FrameOutcome, Handler, Loop, Tier};
use crate::session::{AcceptedBatch, Session, SessionCtx};
use crate::snapshot::Snapshot;
use crate::wire::{Frame, FrameView, WireError};

/// A callback invoked with each periodic consistent cut, as the
/// [`Snapshot`] of its counts (no dedup cursors). This is the cluster
/// tier's tap: the upstream streamer ships each as a cumulative `Delta`
/// without the server knowing anything about aggregator peers. Shared, so
/// the config stays `Clone`.
pub type CutHook = Arc<dyn Fn(Snapshot) + Send + Sync>;

/// How a serve run is wired together.
#[derive(Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Ingest worker count (= shard aggregator count).
    pub workers: usize,
    /// Batches buffered per worker before RETRY backpressure kicks in.
    pub queue_capacity: usize,
    /// Where to write snapshots; `None` disables durability.
    pub snapshot_path: Option<PathBuf>,
    /// Cadence of periodic snapshots (requires `snapshot_path`).
    pub snapshot_every: Option<Duration>,
    /// Snapshot to restore state from before serving.
    pub resume: Option<PathBuf>,
    /// Deadline for finishing a frame once its first byte arrived; a peer
    /// that stalls mid-frame longer than this is dropped with an error.
    pub read_timeout: Duration,
    /// How long a connection may sit with no traffic before the idle
    /// reaper closes it.
    pub idle_timeout: Duration,
    /// Where the periodic metrics rollup appends delta snapshots as a
    /// JSONL time-series; `None` disables the rollup thread.
    pub metrics_out: Option<PathBuf>,
    /// Cadence of the metrics rollup (only read when `metrics_out` is
    /// set).
    pub metrics_every: Duration,
    /// Called with the merged state at each periodic consistent cut;
    /// `None` disables the cut thread. The cluster tier installs the
    /// upstream delta streamer here.
    pub cut_hook: Option<CutHook>,
    /// Cadence of cut-hook invocations (requires `cut_hook`).
    pub cut_every: Duration,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("addr", &self.addr)
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("snapshot_path", &self.snapshot_path)
            .field("snapshot_every", &self.snapshot_every)
            .field("resume", &self.resume)
            .field("read_timeout", &self.read_timeout)
            .field("idle_timeout", &self.idle_timeout)
            .field("metrics_out", &self.metrics_out)
            .field("metrics_every", &self.metrics_every)
            .field("cut_hook", &self.cut_hook.as_ref().map(|_| "<hook>"))
            .field("cut_every", &self.cut_every)
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            snapshot_path: None,
            snapshot_every: None,
            resume: None,
            read_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            metrics_out: None,
            metrics_every: Duration::from_secs(1),
            cut_hook: None,
            cut_every: Duration::from_millis(200),
        }
    }
}

/// Publishes one worker queue's depth under its per-worker gauge name.
///
/// Workers 0–7 get their own gauge; deeper pools share an overflow gauge
/// (`wx`). Per-worker names fix the last-write-wins race the old single
/// `server.queue.depth` gauge had: with every shard racing one cell, the
/// exported value was whichever worker wrote last, hiding imbalance. The
/// summary/STAT renderer derives the pool-wide sum and max from the
/// labelled gauges (names stay literal here so the metric-registry lint
/// can cross-check them against the DESIGN.md catalogue).
pub(crate) fn queue_depth_gauge(worker: usize, depth: usize) {
    match worker {
        0 => felip_obs::gauge!("server.queue.depth.w0", depth, "batches"),
        1 => felip_obs::gauge!("server.queue.depth.w1", depth, "batches"),
        2 => felip_obs::gauge!("server.queue.depth.w2", depth, "batches"),
        3 => felip_obs::gauge!("server.queue.depth.w3", depth, "batches"),
        4 => felip_obs::gauge!("server.queue.depth.w4", depth, "batches"),
        5 => felip_obs::gauge!("server.queue.depth.w5", depth, "batches"),
        6 => felip_obs::gauge!("server.queue.depth.w6", depth, "batches"),
        7 => felip_obs::gauge!("server.queue.depth.w7", depth, "batches"),
        _ => felip_obs::gauge!("server.queue.depth.wx", depth, "batches"),
    }
}

/// Counters published by a serve run (totals since start).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// `ReportBatch` frames accepted (ACKed).
    pub frames_ok: u64,
    /// Frames answered with RETRY (queue full).
    pub frames_retried: u64,
    /// Frames rejected with an Error reply (bad plan hash, malformed
    /// payload, report/oracle mismatch).
    pub frames_rejected: u64,
    /// Reports accepted across all ACKed frames.
    pub reports_accepted: u64,
    /// Duplicate batches re-acked without re-ingestion (lost-ack resends).
    pub frames_duplicate: u64,
    /// Idle connections closed by the reaper.
    pub conns_reaped: u64,
    /// Snapshots written (periodic + final).
    pub snapshots_written: u64,
    /// Snapshot writes that failed read-back verification and were
    /// quarantined (the previous good snapshot was kept).
    pub snapshots_quarantined: u64,
}

/// Lock-free counter twin of [`ServerStats`], shared by the serve loop and
/// the session state machine. The aggregator's serve loop bumps the same
/// connection, rejection and reap counters.
#[derive(Default)]
pub struct AtomicStats {
    connections: AtomicU64,
    frames_ok: AtomicU64,
    frames_retried: AtomicU64,
    frames_rejected: AtomicU64,
    reports_accepted: AtomicU64,
    frames_duplicate: AtomicU64,
    conns_reaped: AtomicU64,
    snapshots_written: AtomicU64,
    snapshots_quarantined: AtomicU64,
}

impl AtomicStats {
    /// The counters' current values.
    pub fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            frames_ok: self.frames_ok.load(Ordering::Relaxed),
            frames_retried: self.frames_retried.load(Ordering::Relaxed),
            frames_rejected: self.frames_rejected.load(Ordering::Relaxed),
            reports_accepted: self.reports_accepted.load(Ordering::Relaxed),
            frames_duplicate: self.frames_duplicate.load(Ordering::Relaxed),
            conns_reaped: self.conns_reaped.load(Ordering::Relaxed),
            snapshots_written: self.snapshots_written.load(Ordering::Relaxed),
            snapshots_quarantined: self.snapshots_quarantined.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn bump_accepted(&self, reports: u64) {
        self.frames_ok.fetch_add(1, Ordering::Relaxed);
        self.reports_accepted.fetch_add(reports, Ordering::Relaxed);
    }

    /// Reports accepted so far — the query service's cheap ingest-head
    /// token (one relaxed load, no shard locks).
    pub(crate) fn reports_accepted(&self) -> u64 {
        self.reports_accepted.load(Ordering::Relaxed)
    }

    pub(crate) fn bump_retried(&self) {
        self.frames_retried.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_rejected(&self) {
        self.frames_rejected.fetch_add(1, Ordering::Relaxed);
        felip_obs::counter!("server.frame.rejected", 1, "frames");
    }

    pub(crate) fn bump_duplicate(&self) {
        self.frames_duplicate.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_reaped(&self) {
        self.conns_reaped.fetch_add(1, Ordering::Relaxed);
        felip_obs::counter!("server.conn.reaped", 1, "connections");
    }

    pub(crate) fn bump_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }
}

/// The result of a completed (gracefully shut down) serve run.
pub struct ServerRun {
    /// The fully merged aggregator (resume base + all worker shards).
    pub aggregator: Aggregator,
    /// Run totals.
    pub stats: ServerStats,
}

/// Errors starting or running the server.
#[derive(Debug)]
pub enum ServerError {
    /// Socket/filesystem failure.
    Io(io::Error),
    /// Snapshot could not be read, validated, or restored.
    Snapshot(WireError),
    /// Library-level failure (plan/aggregator invariants).
    Felip(felip_common::Error),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "io error: {e}"),
            ServerError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            ServerError::Felip(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<WireError> for ServerError {
    fn from(e: WireError) -> Self {
        ServerError::Snapshot(e)
    }
}

impl From<felip_common::Error> for ServerError {
    fn from(e: felip_common::Error) -> Self {
        ServerError::Felip(e)
    }
}

/// A bound (listening, not yet serving) ingestion server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    plan: Arc<CollectionPlan>,
    oracles: Arc<OracleSet>,
    plan_hash: u64,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listen socket and prepares (but does not start) the run.
    pub fn bind(plan: Arc<CollectionPlan>, config: ServerConfig) -> Result<Server, ServerError> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let oracles = Arc::new(OracleSet::build(&plan));
        let plan_hash = plan.schema_hash();
        Ok(Server {
            listener,
            local_addr,
            plan,
            oracles,
            plan_hash,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that stops the run when set (tests and signal handlers
    /// share this mechanism).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serves until the shutdown flag is set, then drains, merges, writes
    /// the final snapshot (when configured), and returns the merged state.
    ///
    /// `external_shutdown` — typically the signal-handler flag — is polled
    /// alongside the internal handle so SIGTERM/ctrl-c trigger the same
    /// graceful path.
    pub fn run(self, external_shutdown: Option<&AtomicBool>) -> Result<ServerRun, ServerError> {
        self.run_on(external_shutdown, Loop::Native)
    }

    /// [`Server::run`] on the given serve loop.
    fn run_on(
        self,
        external_shutdown: Option<&AtomicBool>,
        serve_loop: Loop,
    ) -> Result<ServerRun, ServerError> {
        let _run_span = felip_obs::span!("server.run");
        let workers = self.config.workers.max(1);
        let resume = self
            .config
            .resume
            .as_deref()
            .map(Snapshot::read)
            .transpose()?;
        let state = IngestState::new(
            Arc::clone(&self.plan),
            Arc::clone(&self.oracles),
            workers,
            self.config.queue_capacity,
            resume,
        )?;
        let query = state.query_service();
        let periodic = Periodic::default();

        let should_stop = || {
            self.shutdown.load(Ordering::SeqCst)
                || external_shutdown.is_some_and(|f| f.load(Ordering::SeqCst))
        };

        thread::scope(|scope| -> Result<(), ServerError> {
            // Ingest workers: drain their queue into their shard.
            for (w, (queue, shard)) in state.queues.iter().zip(&state.shards).enumerate() {
                scope.spawn(move || {
                    // Pinning policy (DESIGN.md §15): the reactor owns
                    // core 0, ingest workers round-robin over the rest
                    // (no-op on single-core hosts).
                    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
                    crate::reactor::pin_worker(w);
                    loop {
                        match queue.pop_timeout(Duration::from_millis(50)) {
                            PopResult::Item(batch) => {
                                queue_depth_gauge(w, queue.len());
                                // Admitted at the connection edge: counting
                                // cannot fail.
                                shard.lock().ingest_admitted(&batch);
                                // Only after the batch is in the shard: the
                                // snapshot cut waits on this mark.
                                queue.task_done();
                            }
                            PopResult::Empty => continue,
                            PopResult::Done => break,
                        }
                    }
                });
            }

            let (state, periodic, plan_hash) = (&*state, &periodic, self.plan_hash);

            // Periodic snapshot thread: capture a consistent cut and persist.
            if let (Some(path), Some(every)) = (
                self.config.snapshot_path.clone(),
                self.config.snapshot_every,
            ) {
                let stats = &state.stats;
                scope.spawn(move || {
                    periodic.every(every, || {
                        let snap = match state.cut_snapshot() {
                            Ok(snap) => snap,
                            Err(e) => {
                                // Counts overflowed mid-run: the shards
                                // are intact, but no consistent merged
                                // view exists. Keep the last good
                                // snapshot and surface the condition.
                                stats.snapshots_quarantined.fetch_add(1, Ordering::Relaxed);
                                felip_obs::diag::error(&format!("periodic snapshot skipped: {e}"));
                                return;
                            }
                        };
                        let reports = snap.reports_ingested() as u64;
                        match snap.write_verified(&path, None) {
                            Ok(()) => {
                                stats.snapshots_written.fetch_add(1, Ordering::Relaxed);
                                felip_obs::flight::flight().record(
                                    felip_obs::flight::KIND_SNAPSHOT,
                                    0,
                                    reports,
                                    0,
                                );
                            }
                            Err(e) => {
                                // The torn write was quarantined and the
                                // last good snapshot kept; next tick tries
                                // again.
                                stats.snapshots_quarantined.fetch_add(1, Ordering::Relaxed);
                                felip_obs::flight::flight().record(
                                    felip_obs::flight::KIND_SNAPSHOT,
                                    1,
                                    reports,
                                    0,
                                );
                                felip_obs::diag::warn(&format!(
                                    "periodic snapshot quarantined: {e}"
                                ));
                                // Quarantine is a degraded-mode event worth
                                // a postmortem window (no-op unless a dump
                                // path is configured).
                                felip_obs::flight::postmortem("snapshot-quarantine");
                            }
                        }
                    });
                });
            }

            // Periodic cut thread: hand the cut's counts to the cut hook
            // (the cluster tier's upstream delta streamer). Separate from
            // the snapshot thread so the two cadences stay independent;
            // cuts serialise on the dedup lock, so concurrent ones are safe.
            if let Some(hook) = self.config.cut_hook.clone() {
                let every = self.config.cut_every;
                scope.spawn(move || {
                    periodic.every(every, || match state.cut_with_cursors() {
                        Ok((merged, _)) => hook(Snapshot::capture(&merged, plan_hash)),
                        Err(e) => felip_obs::diag::error(&format!("periodic cut skipped: {e}")),
                    });
                });
            }

            // Periodic metrics rollup: append one timestamped delta
            // snapshot per tick to the `--metrics-out` JSONL time-series
            // (first line is the full snapshot that arms the baseline; a
            // final line is flushed on shutdown so the series covers the
            // whole run).
            if let Some(path) = self.config.metrics_out.clone() {
                let every = self.config.metrics_every;
                scope.spawn(move || {
                    let mut out = match OpenOptions::new().create(true).append(true).open(&path) {
                        Ok(f) => Some(f),
                        Err(e) => {
                            felip_obs::diag::warn(&format!(
                                "metrics rollup disabled ({}): {e}",
                                path.display()
                            ));
                            return;
                        }
                    };
                    let mut prev: Option<felip_obs::MetricsSnapshot> = None;
                    let mut roll = || {
                        let Some(file) = out.as_mut() else { return };
                        let cur = felip_obs::global().metrics_snapshot();
                        let line = match prev.as_ref() {
                            Some(p) => cur.delta_since(p).to_json(),
                            None => cur.to_json(),
                        };
                        prev = Some(cur);
                        if let Err(e) = writeln!(file, "{line}") {
                            felip_obs::diag::warn(&format!("metrics rollup stopped: {e}"));
                            out = None;
                            return;
                        }
                        felip_obs::counter!("server.metrics.rollups", 1, "snapshots");
                    };
                    periodic.every(every, &mut roll);
                    roll();
                });
            }

            // Serve until shutdown: the reactor on Linux/x86_64, the
            // portable loop elsewhere (`serve.rs`, DESIGN.md §15).
            let tier = Tier {
                plan_hash,
                stats: &state.stats,
                query: &query,
                read_timeout: self.config.read_timeout,
                idle_timeout: self.config.idle_timeout,
                workers,
            };
            let served = serve(serve_loop, &self.listener, &tier, state, &should_stop);

            // Close queues so workers drain their backlog and exit, and
            // wake the periodic threads.
            for q in &state.queues {
                q.close();
            }
            periodic.stop();
            served?;
            Ok(())
        })?;

        // All workers joined (scope end): the cut is uncontended now.
        let (aggregator, dedup) = state.cut_with_cursors()?;
        if let Some(path) = &self.config.snapshot_path {
            Snapshot::capture_with_dedup(&aggregator, self.plan_hash, dedup)
                .write_verified(path, None)?;
            state
                .stats
                .snapshots_written
                .fetch_add(1, Ordering::Relaxed);
            felip_obs::flight::flight().record(
                felip_obs::flight::KIND_SNAPSHOT,
                0,
                aggregator.reports_ingested() as u64,
                0,
            );
        }
        // Graceful end of a run (shutdown flag or SIGTERM): dump the
        // flight window so operators can see the last protocol events of
        // the run. No-op unless a postmortem path was configured.
        felip_obs::flight::postmortem("shutdown");
        Ok(ServerRun {
            aggregator,
            stats: state.stats.snapshot(),
        })
    }
}

/// The ingest tier's state, built once by [`IngestState::new`]: the resume
/// base and its report count, the worker shards and their queues, the
/// session context and the counters. The serve run, the sim harness and
/// the tests all build it there. It is the tier's [`Handler`] (each
/// connection a [`Session`] pinned round-robin to a worker queue) and,
/// behind an `Arc`, the [`CutSource`] of its [`QueryService`].
pub(crate) struct IngestState {
    /// The plan, its admission table and the per-client dedup cursors.
    pub ctx: SessionCtx,
    /// The run's counters.
    pub stats: AtomicStats,
    /// The restored snapshot's counts (empty on a fresh start).
    base: Aggregator,
    /// Reports in `base`; accepted-report counters start at zero.
    base_reports: u64,
    /// Worker `w` counts the batches of `queues[w]` into `shards[w]`.
    pub shards: Vec<Mutex<Aggregator>>,
    /// Admitted batches awaiting their worker.
    pub queues: Vec<BoundedQueue<Admitted>>,
}

impl IngestState {
    /// The state of `workers` shards whose queues buffer `queue_capacity`
    /// batches each, over `resume` — a restored snapshot's counts *and*
    /// dedup cursors, so duplicates stay suppressed across the restart —
    /// or over nothing. `Err` when the snapshot does not fit the plan.
    pub fn new(
        plan: Arc<CollectionPlan>,
        oracles: Arc<OracleSet>,
        workers: usize,
        queue_capacity: usize,
        resume: Option<Snapshot>,
    ) -> Result<Arc<IngestState>, WireError> {
        let empty = || Aggregator::with_oracles(Arc::clone(&plan), Arc::clone(&oracles));
        let (base, dedup) = match resume {
            Some(mut snap) => {
                felip_obs::counter!("server.snapshot.restored", 1, "snapshots");
                let dedup = std::mem::take(&mut snap.dedup);
                (
                    snap.restore(Arc::clone(&plan), Arc::clone(&oracles))?,
                    dedup,
                )
            }
            None => (empty(), Vec::new()),
        };
        let workers = workers.max(1);
        Ok(Arc::new(IngestState {
            base_reports: base.reports_ingested() as u64,
            base,
            shards: (0..workers).map(|_| Mutex::new(empty())).collect(),
            queues: (0..workers)
                .map(|_| BoundedQueue::new(queue_capacity.max(1)))
                .collect(),
            ctx: SessionCtx {
                plan_hash: plan.schema_hash(),
                plan,
                oracles,
                dedup: Mutex::new(dedup.into_iter().collect()),
            },
            stats: AtomicStats::default(),
        }))
    }

    /// A cold query service over this state.
    pub fn query_service(self: &Arc<Self>) -> QueryService<Arc<IngestState>> {
        let (plan, oracles) = (&self.ctx.plan, &self.ctx.oracles);
        QueryService::new(Arc::clone(plan), Arc::clone(oracles), Arc::clone(self))
    }

    /// The consistent cut: counts *and* dedup cursors (unsorted; a
    /// snapshot stores them sorted) captured at one point while ingestion
    /// continues.
    ///
    /// Sessions advance a dedup cursor atomically with queueing its batch,
    /// both under the `ctx.dedup` lock. Holding that lock here freezes
    /// admission; waiting for every queue to go quiescent (empty, nothing
    /// popped-but-unprocessed) then guarantees each accepted batch is in a
    /// shard. The state captured therefore satisfies: cursors == exactly
    /// the batches in the counts. Without this cut, a restore could tell
    /// clients batches were accepted whose reports never reached the
    /// snapshot (acked reports silently lost), or the reverse
    /// (double-counted on resend). `Err` means a support count overflowed
    /// `u64`: the shards are untouched, but no consistent merged view
    /// exists.
    pub fn cut_with_cursors(&self) -> Result<(Aggregator, Vec<(u64, u64)>), felip_common::Error> {
        let dedup = self.ctx.dedup.lock();
        // No session can push while we hold the dedup lock, so each queue
        // only drains from here on: once quiescent it stays so, and its
        // worker's last `task_done` wakes the wait.
        for q in &self.queues {
            q.wait_quiescent();
        }
        let (plan, oracles) = (&self.ctx.plan, &self.ctx.oracles);
        let mut merged = Aggregator::with_oracles(Arc::clone(plan), Arc::clone(oracles));
        merged.merge(&self.base)?;
        for shard in &self.shards {
            // Each lock is held only for the copy; workers hold their shard
            // lock across a whole batch, so cuts see batch-atomic states.
            merged.merge(&shard.lock())?;
        }
        Ok((merged, dedup.iter().map(|(&c, &b)| (c, b)).collect()))
    }

    /// The consistent cut as the snapshot that restores it — what the
    /// periodic snapshot thread and the sim harness's checkpoints write.
    pub fn cut_snapshot(&self) -> Result<Snapshot, felip_common::Error> {
        let (merged, dedup) = self.cut_with_cursors()?;
        Ok(Snapshot::capture_with_dedup(
            &merged,
            self.ctx.plan_hash,
            dedup,
        ))
    }

    /// Runs one frame as a serve loop does: the shared prelude, this
    /// tier's handler, and `query` for a `Query`. Returns the reply, the
    /// batch it accepted, and why the connection closes after it, if it
    /// does. The sim harness and the tests drive the tier through it.
    pub fn serve_frame(
        &self,
        query: &QueryService<Arc<IngestState>>,
        session: &mut Session,
        frame: &Frame,
    ) -> (Frame, Option<AcceptedBatch>, Option<WireError>) {
        let tier = Tier {
            plan_hash: self.ctx.plan_hash,
            stats: &self.stats,
            query,
            read_timeout: Duration::ZERO,
            idle_timeout: Duration::ZERO,
            workers: self.queues.len(),
        };
        let outcome = dispatch(&tier, self, session, frame.view());
        let accepted = outcome.accepted;
        let (reply, close) = outcome.into_reply(&tier);
        (reply, accepted, close)
    }
}

/// The head token is resume-base reports + reports accepted so far (one
/// relaxed load); a cut's token is its merged report count, since at the
/// cut instant accepted == drained.
impl CutSource for IngestState {
    fn head(&self) -> u64 {
        self.base_reports + self.stats.reports_accepted()
    }

    fn cut(&self) -> Result<(Aggregator, u64), felip_common::Error> {
        let (merged, _cursors) = self.cut_with_cursors()?;
        let token = merged.reports_ingested() as u64;
        Ok((merged, token))
    }
}

/// Each connection is a [`Session`] feeding the worker queue it was
/// pinned to round-robin at accept time.
impl Handler for IngestState {
    type Conn = Session;

    fn open(&self, seq: u64) -> Session {
        Session::for_worker((seq % self.queues.len() as u64) as usize)
    }

    fn on_frame(&self, session: &mut Session, frame: FrameView<'_>) -> FrameOutcome {
        let queue = &self.queues[session.worker()];
        session.handle(frame, &self.ctx, queue, &self.stats)
    }

    fn peer_id(&self, session: &Session) -> u64 {
        session.client_id().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_batch, encode_hello, FrameKind};
    use felip::config::FelipConfig;
    use felip_common::{Attribute, Schema};

    /// The portable loop serves the ingest tier like the reactor: frames
    /// written back to back get their replies in frame order, the query
    /// covers exactly the batch before it, bit-identical to offline, and
    /// STAT and a plan mismatch go through the shared prelude.
    #[test]
    fn portable_loop_serves_the_ingest_tier() {
        use crate::wire::{
            decode_ack, decode_query_reply, encode_query, encode_stat, read_frame, QueryMode,
            QueryRequest, StatMode,
        };
        use felip_common::Predicate;

        let schema = Schema::new(vec![
            Attribute::numerical("a", 32),
            Attribute::categorical("c", 4),
        ])
        .unwrap();
        let plan = Arc::new(CollectionPlan::build(&schema, 60, &FelipConfig::new(1.0), 3).unwrap());
        let plan_hash = plan.schema_hash();
        let server = Server::bind(Arc::clone(&plan), ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let stop = server.shutdown_handle();
        let batch = |id: u64, users: std::ops::Range<usize>| {
            let reports: Vec<_> = users
                .map(|u| crate::loadgen::user_report(&plan, u, 5).unwrap())
                .collect();
            Frame {
                kind: FrameKind::ReportBatch,
                plan_hash,
                payload: encode_batch(id, &reports).unwrap(),
            }
            .encode()
        };
        let preds = vec![
            Predicate::between(0, 4, 20),
            Predicate::in_set(1, vec![1, 2]),
        ];
        let query = Frame {
            kind: FrameKind::Query,
            plan_hash,
            payload: encode_query(&QueryRequest {
                query_id: 9,
                mode: QueryMode::Cached,
                predicates: preds.clone(),
            })
            .unwrap(),
        };

        let run = thread::scope(|s| {
            let handle = s.spawn(|| server.run_on(None, Loop::Portable).unwrap());
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            let mut burst = Frame {
                kind: FrameKind::Hello,
                plan_hash,
                payload: encode_hello(3),
            }
            .encode();
            burst.extend(batch(1, 0..30));
            burst.extend(query.encode());
            burst.extend(batch(2, 30..60));
            burst.extend(
                Frame {
                    kind: FrameKind::Stat,
                    plan_hash: 0,
                    payload: encode_stat(StatMode::Full),
                }
                .encode(),
            );
            burst.extend(Frame::control(FrameKind::Hello, plan_hash ^ 1).encode());
            std::io::Write::write_all(&mut conn, &burst).unwrap();

            let mut next = || read_frame(&mut conn).unwrap().unwrap();
            for want in [0, 1] {
                let ack = next();
                assert_eq!(ack.kind, FrameKind::Ack);
                assert_eq!(decode_ack(&ack.payload).unwrap().0, want);
            }
            let answer = next();
            assert_eq!(answer.kind, FrameKind::QueryReply);
            let ans = decode_query_reply(&answer.payload).unwrap();
            let offline = crate::loadgen::offline_reference(&plan, 0..30, 5).unwrap();
            let q = felip_common::Query::new(plan.schema(), preds).unwrap();
            let expected = offline.estimate().unwrap().answer(&q).unwrap();
            assert_eq!((ans.query_id, ans.reports), (9, 30));
            assert_eq!(ans.answer.to_bits(), expected.to_bits());
            assert_eq!(decode_ack(&next().payload).unwrap().0, 2);
            assert_eq!(next().kind, FrameKind::StatReply);
            assert_eq!(next().kind, FrameKind::Error, "plan mismatch");
            assert!(read_frame(&mut conn).unwrap().is_none(), "closed after it");
            stop.store(true, Ordering::SeqCst);
            handle.join().unwrap()
        });
        assert_eq!(run.stats.connections, 1);
        assert_eq!(run.stats.reports_accepted, 60);
        assert_eq!(run.stats.frames_rejected, 1);
        assert_eq!(run.aggregator.reports_ingested(), 60);
    }

    /// Regression for the acked-but-unsnapshotted race: batches sit acked
    /// (cursor advanced) in the worker queue while a periodic snapshot
    /// runs. The consistent cut must wait until those batches are in the
    /// shard counts before capturing the cursors — a snapshot with cursor
    /// 3 and zero reports would silently lose all three batches across a
    /// restore.
    #[test]
    fn periodic_cut_never_captures_cursors_ahead_of_counts() {
        let schema = Schema::new(vec![
            Attribute::numerical("a", 32),
            Attribute::categorical("c", 4),
        ])
        .unwrap();
        let plan = Arc::new(CollectionPlan::build(&schema, 60, &FelipConfig::new(1.0), 3).unwrap());
        let oracles = Arc::new(OracleSet::build(&plan));
        let plan_hash = plan.schema_hash();
        let state = IngestState::new(Arc::clone(&plan), oracles, 1, 8, None).unwrap();
        let (query, mut session) = (state.query_service(), Session::default());

        let hello = Frame {
            kind: FrameKind::Hello,
            plan_hash,
            payload: encode_hello(7),
        };
        assert!(state.serve_frame(&query, &mut session, &hello).2.is_none());
        let mut total = 0usize;
        for batch_id in 1..=3u64 {
            let lo = (batch_id as usize - 1) * 20;
            let reports: Vec<_> = (lo..lo + 20)
                .map(|u| crate::loadgen::user_report(&plan, u, 3).unwrap())
                .collect();
            total += reports.len();
            let frame = Frame {
                kind: FrameKind::ReportBatch,
                plan_hash,
                payload: encode_batch(batch_id, &reports).unwrap(),
            };
            let (_, accepted, _) = state.serve_frame(&query, &mut session, &frame);
            assert!(accepted.is_some(), "batch {batch_id} must be accepted");
        }

        // All three batches are acked but still queued; a deliberately
        // slow worker drains them while the cut runs.
        let (queue, shard) = (&state.queues[0], &state.shards[0]);
        thread::scope(|s| {
            s.spawn(|| loop {
                match queue.pop_timeout(Duration::from_millis(5)) {
                    PopResult::Item(batch) => {
                        thread::sleep(Duration::from_millis(10));
                        shard.lock().ingest_admitted(&batch);
                        queue.task_done();
                    }
                    PopResult::Empty => continue,
                    PopResult::Done => break,
                }
            });
            let (merged, cursors) = state.cut_with_cursors().expect("cut");
            assert_eq!(cursors, vec![(7, 3)]);
            assert_eq!(
                merged.reports_ingested(),
                total,
                "every acked batch must be inside the snapshotted counts"
            );
            queue.close();
        });
    }
}
