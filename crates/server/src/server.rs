//! The streaming ingestion server: the shared serve loop, fixed worker
//! pool with bounded queues, shard aggregators, periodic + final
//! snapshots.
//!
//! Data path (DESIGN.md §12.2): the serve loop decodes frames and the
//! session *validates* them, then `try_push`es whole batches onto the
//! worker queue the connection was pinned to at accept time. A full queue
//! answers RETRY — the client backs off and resends, so a slow worker
//! never grows memory beyond `workers × queue_capacity` batches. Each
//! worker folds batches into its private shard [`Aggregator`]; exact `u64`
//! counts make the final merge independent of how batches interleaved,
//! which is why a served run reproduces an offline collection bit for bit.

use std::fs::OpenOptions;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::Duration;

use felip_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use felip_sync::{thread, Arc, Mutex};

use felip::aggregator::{Aggregator, OracleSet};
use felip::client::UserReport;
use felip::plan::CollectionPlan;

use crate::query::{QueryService, ServeCut};
use crate::queue::{BoundedQueue, Periodic, PopResult};
use crate::serve::{serve, FrameOutcome, Handler, Loop, Tier};
use crate::session::{Session, SessionCtx};
use crate::snapshot::Snapshot;
use crate::wire::{FrameView, WireError};

/// A point-in-time copy of the server's merged count state, captured at a
/// consistent cut and handed to [`ServerConfig::cut_hook`]. This is the
/// cluster tier's tap: the upstream streamer derives epoch deltas from
/// successive cut states without the server knowing anything about
/// aggregator peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutState {
    /// Per-grid count vectors (cumulative since the run's resume base).
    pub counts: Vec<Vec<u64>>,
    /// Per-group user totals.
    pub group_sizes: Vec<usize>,
    /// Total reports the counts represent.
    pub reports: u64,
}

/// A callback invoked with each periodic [`CutState`]; shared, so the
/// config stays `Clone`.
pub type CutHook = Arc<dyn Fn(CutState) + Send + Sync>;

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
        let mut run_span = felip_obs::span!("server.run");
        let workers = self.config.workers.max(1);
        run_span.field("workers", workers);

        // Resume base: restored snapshot state (counts *and* the dedup
        // cursors, so duplicates stay suppressed across the restart), or a
        // fresh aggregator.
        let (base, dedup0) = match &self.config.resume {
            Some(path) => {
                let snap = Snapshot::read(path)?;
                felip_obs::counter!("server.snapshot.restored", 1, "snapshots");
                let dedup = snap.dedup.clone();
                (
                    snap.restore(Arc::clone(&self.plan), Arc::clone(&self.oracles))?,
                    dedup,
                )
            }
            None => (
                Aggregator::with_oracles(Arc::clone(&self.plan), Arc::clone(&self.oracles)),
                Vec::new(),
            ),
        };
        let base_reports = base.reports_ingested() as u64;
        let base = Arc::new(Mutex::new(base));

        let queues: Vec<Arc<BoundedQueue<Vec<UserReport>>>> = (0..workers)
            .map(|_| Arc::new(BoundedQueue::new(self.config.queue_capacity.max(1))))
            .collect();
        let shards: Arc<Vec<Mutex<Aggregator>>> = Arc::new(
            (0..workers)
                .map(|_| {
                    Mutex::new(Aggregator::with_oracles(
                        Arc::clone(&self.plan),
                        Arc::clone(&self.oracles),
                    ))
                })
                .collect(),
        );
        let ctx = Arc::new(SessionCtx::new(
            Arc::clone(&self.plan),
            Arc::clone(&self.oracles),
            dedup0,
        ));
        let stats = Arc::new(AtomicStats::default());
        let query = QueryService::new(
            Arc::clone(&self.plan),
            Arc::clone(&self.oracles),
            ServeCut {
                ctx: Arc::clone(&ctx),
                stats: Arc::clone(&stats),
                base: Arc::clone(&base),
                shards: Arc::clone(&shards),
                queues: queues.clone(),
                base_reports,
            },
        );
        let periodic = Periodic::default();

        let should_stop = || {
            self.shutdown.load(Ordering::SeqCst)
                || external_shutdown.is_some_and(|f| f.load(Ordering::SeqCst))
        };

        thread::scope(|scope| -> Result<(), ServerError> {
            // Ingest workers: drain their queue into their shard.
            for (w, (queue, shard)) in queues.iter().zip(shards.iter()).enumerate() {
                let queue = Arc::clone(queue);
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
                                {
                                    let mut agg = shard.lock();
                                    // Batches were validated at the connection
                                    // edge, so ingest failures are server bugs;
                                    // count and drop rather than crash the
                                    // worker.
                                    if let Err(e) = agg.ingest_batch(&batch) {
                                        felip_obs::counter!("server.ingest.errors", 1, "batches");
                                        felip_obs::diag::error(&format!("worker {w}: {e}"));
                                    }
                                }
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

            // What the snapshot and cut threads capture on each tick.
            let cut = || consistent_cut(&ctx, &self.plan, &self.oracles, &base, &shards, &queues);
            let periodic = &periodic;

            // Periodic snapshot thread: merge base + shards and persist.
            if let (Some(path), Some(every)) = (
                self.config.snapshot_path.clone(),
                self.config.snapshot_every,
            ) {
                let (stats, plan_hash) = (&stats, self.plan_hash);
                scope.spawn(move || {
                    periodic.every(every, || {
                        let (merged, dedup) = match cut() {
                            Ok(cut) => cut,
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
                        let reports = merged.reports_ingested() as u64;
                        let snap = Snapshot::capture_with_dedup(&merged, plan_hash, dedup);
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

            // Periodic cut thread: hand the merged state to the cut hook
            // (the cluster tier's upstream delta streamer). Separate from
            // the snapshot thread so the two cadences stay independent;
            // `consistent_cut` serialises on the dedup lock, so concurrent
            // cuts are safe.
            if let Some(hook) = self.config.cut_hook.clone() {
                let every = self.config.cut_every;
                scope.spawn(move || {
                    periodic.every(every, || match cut() {
                        Ok((merged, _dedup)) => hook(CutState {
                            counts: merged.counts().to_vec(),
                            group_sizes: merged.group_sizes().to_vec(),
                            reports: merged.reports_ingested() as u64,
                        }),
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
                plan_hash: self.plan_hash,
                stats: &stats,
                query: &query,
                read_timeout: self.config.read_timeout,
                idle_timeout: self.config.idle_timeout,
                workers,
            };
            let handler = IngestHandler {
                ctx: &ctx,
                queues: &queues,
                stats: &stats,
            };
            let served = serve(serve_loop, &self.listener, &tier, &handler, &should_stop);

            // Close queues so workers drain their backlog and exit, and
            // wake the periodic threads.
            for q in &queues {
                q.close();
            }
            periodic.stop();
            served?;
            Ok(())
        })?;

        // All workers joined (scope end): merge shards into the base. The
        // query service still holds handles to base and shards, so the
        // merge goes through the (now uncontended) locks rather than
        // consuming the mutexes.
        let aggregator = merge_state(&self.plan, &self.oracles, &base, &shards)?;
        if let Some(path) = &self.config.snapshot_path {
            Snapshot::capture_with_dedup(&aggregator, self.plan_hash, ctx.dedup_pairs())
                .write_verified(path, None)?;
            stats.snapshots_written.fetch_add(1, Ordering::Relaxed);
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
        let final_stats = stats.snapshot();
        run_span.field("reports", aggregator.reports_ingested());
        Ok(ServerRun {
            aggregator,
            stats: final_stats,
        })
    }
}

/// Captures counts *and* dedup cursors at one consistent point while
/// ingestion continues — the periodic-snapshot path.
///
/// Sessions advance a dedup cursor atomically with queueing its batch,
/// both under the `ctx.dedup` lock. Holding that lock here freezes
/// admission; waiting for every queue to go quiescent (empty, nothing
/// popped-but-unprocessed) then guarantees each accepted batch is in a
/// shard. The state captured therefore satisfies: cursors == exactly the
/// batches in the counts. Without this cut, a restore could tell clients
/// batches were accepted whose reports never reached the snapshot (acked
/// reports silently lost), or the reverse (double-counted on resend).
pub(crate) fn consistent_cut(
    ctx: &SessionCtx,
    plan: &Arc<CollectionPlan>,
    oracles: &Arc<OracleSet>,
    base: &Mutex<Aggregator>,
    shards: &[Mutex<Aggregator>],
    queues: &[Arc<BoundedQueue<Vec<UserReport>>>],
) -> Result<(Aggregator, Vec<(u64, u64)>), felip_common::Error> {
    let dedup = ctx.dedup.lock();
    // No session can push while we hold the dedup lock, so each queue only
    // drains from here on: once quiescent it stays so, and its worker's
    // last `task_done` wakes the wait.
    for q in queues {
        q.wait_quiescent();
    }
    let merged = merge_state(plan, oracles, base, shards)?;
    let pairs = SessionCtx::sorted_pairs(&dedup);
    Ok((merged, pairs))
}

/// Point-in-time merge of the resume base and every worker shard, used by
/// periodic snapshots while ingestion continues. `Err` means a support
/// count overflowed `u64` — the shards themselves are untouched, but no
/// consistent merged view exists.
fn merge_state(
    plan: &Arc<CollectionPlan>,
    oracles: &Arc<OracleSet>,
    base: &Mutex<Aggregator>,
    shards: &[Mutex<Aggregator>],
) -> Result<Aggregator, felip_common::Error> {
    let mut merged = Aggregator::with_oracles(Arc::clone(plan), Arc::clone(oracles));
    merged.merge(&base.lock())?;
    for shard in shards {
        // Each lock is held only for the copy; workers hold their shard
        // lock across a whole batch, so snapshots see batch-atomic states.
        merged.merge(&shard.lock())?;
    }
    Ok(merged)
}

/// The ingest tier's [`Handler`]: each connection is a [`Session`] feeding
/// the worker queue it was pinned to round-robin at accept time.
struct IngestHandler<'a> {
    ctx: &'a SessionCtx,
    queues: &'a [Arc<BoundedQueue<Vec<UserReport>>>],
    stats: &'a AtomicStats,
}

impl Handler for IngestHandler<'_> {
    type Conn = Session;

    fn open(&self, seq: u64) -> Session {
        Session::for_worker((seq % self.queues.len() as u64) as usize)
    }

    fn on_frame(&self, session: &mut Session, frame: FrameView<'_>) -> FrameOutcome {
        let queue = &self.queues[session.worker()];
        session.handle(frame, self.ctx, queue, self.stats)
    }

    fn peer_id(&self, session: &Session) -> u64 {
        session.client_id().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::wire::{encode_batch, encode_hello, Frame, FrameKind};
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
        let ctx = SessionCtx::new(Arc::clone(&plan), Arc::clone(&oracles), Vec::new());
        let queue = Arc::new(BoundedQueue::new(8));
        let base = Mutex::new(Aggregator::with_oracles(
            Arc::clone(&plan),
            Arc::clone(&oracles),
        ));
        let shards = vec![Mutex::new(Aggregator::with_oracles(
            Arc::clone(&plan),
            Arc::clone(&oracles),
        ))];
        let stats = AtomicStats::default();
        let mut session = Session::default();

        let hello = Frame {
            kind: FrameKind::Hello,
            plan_hash,
            payload: encode_hello(7),
        };
        assert!(session
            .on_frame(hello, &ctx, &queue, &stats)
            .close
            .is_none());
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
            let out = session.on_frame(frame, &ctx, &queue, &stats);
            assert!(out.accepted.is_some(), "batch {batch_id} must be accepted");
        }

        // All three batches are acked but still queued; a deliberately
        // slow worker drains them while the cut runs.
        let queues = vec![Arc::clone(&queue)];
        thread::scope(|s| {
            s.spawn(|| loop {
                match queue.pop_timeout(Duration::from_millis(5)) {
                    PopResult::Item(batch) => {
                        thread::sleep(Duration::from_millis(10));
                        shards[0].lock().ingest_batch(&batch).unwrap();
                        queue.task_done();
                    }
                    PopResult::Empty => continue,
                    PopResult::Done => break,
                }
            });
            let (merged, cursors) =
                consistent_cut(&ctx, &plan, &oracles, &base, &shards, &queues).expect("cut");
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
