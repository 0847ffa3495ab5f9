//! The aggregator-tier server: accepts ingest-node connections, applies
//! their epoch-numbered deltas to the shared [`ClusterState`], answers
//! `STAT` with process-wide telemetry, and periodically persists both the
//! FCLU per-node container and a plain merged FSNP snapshot.
//!
//! Delta traffic is low-rate by construction (one frame per node per cut
//! interval), so connections are served by a portable thread-per-connection
//! loop over [`TcpTransport`] — the epoll reactor stays an ingest-tier
//! specialisation.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use felip_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use felip_sync::{thread, Arc};

use felip::aggregator::{Aggregator, OracleSet};
use felip::plan::CollectionPlan;
use felip_server::stat::stat_payload;
use felip_server::transport::{RecvOutcome, TcpTransport, Transport};
use felip_server::wire::{
    decode_delta, decode_hello, decode_query, decode_stat, encode_ack, encode_delta_ack,
    encode_query_reply, Frame, FrameKind, WireError,
};
use felip_server::QueryService;

use crate::state::ClusterState;

/// The aggregator's query service: the shared engine over the merged
/// cluster view, keyed on the change version.
type ClusterQuery = QueryService<Arc<ClusterState>>;

/// How an aggregator run is wired together.
#[derive(Debug, Clone)]
pub struct AggregatorConfig {
    /// Listen address (`:0` picks a free port).
    pub addr: String,
    /// Where to persist the merged FSNP snapshot; `None` disables it.
    pub snapshot_path: Option<PathBuf>,
    /// Where to persist the FCLU per-node container; `None` disables it.
    pub state_path: Option<PathBuf>,
    /// FCLU container to restore per-node states (and epochs) from.
    pub resume: Option<PathBuf>,
    /// Cadence of periodic persists (requires a path to write).
    pub persist_every: Duration,
    /// Deadline for finishing a frame once its first byte arrived.
    pub read_timeout: Duration,
    /// Deadline for writing a reply frame.
    pub write_timeout: Duration,
    /// Idle-connection reap window. Generous by default: an ingest node
    /// only speaks once per cut interval.
    pub idle_timeout: Duration,
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        AggregatorConfig {
            addr: "127.0.0.1:0".to_string(),
            snapshot_path: None,
            state_path: None,
            resume: None,
            persist_every: Duration::from_millis(500),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// Counters for a completed aggregator run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AggregatorStats {
    /// Node connections accepted.
    pub connections: u64,
    /// Deltas applied (incremental + full).
    pub deltas_applied: u64,
    /// Duplicate deltas re-acked.
    pub deltas_duplicate: u64,
    /// Incremental gaps answered with resync-required.
    pub deltas_resync: u64,
    /// Frames rejected with an error reply.
    pub frames_rejected: u64,
}

#[derive(Default)]
struct AtomicAggStats {
    connections: AtomicU64,
    deltas_applied: AtomicU64,
    deltas_duplicate: AtomicU64,
    deltas_resync: AtomicU64,
    frames_rejected: AtomicU64,
}

impl AtomicAggStats {
    fn snapshot(&self) -> AggregatorStats {
        AggregatorStats {
            connections: self.connections.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            deltas_duplicate: self.deltas_duplicate.load(Ordering::Relaxed),
            deltas_resync: self.deltas_resync.load(Ordering::Relaxed),
            frames_rejected: self.frames_rejected.load(Ordering::Relaxed),
        }
    }
}

/// The result of a completed (gracefully shut down) aggregator run.
pub struct AggregatorRun {
    /// The cluster-wide merged aggregator.
    pub merged: Aggregator,
    /// `(node_id, epoch, reports)` rows at shutdown.
    pub nodes: Vec<(u64, u64, u64)>,
    /// Run totals.
    pub stats: AggregatorStats,
}

/// Errors starting or running the aggregator.
#[derive(Debug)]
pub enum AggregatorError {
    /// Socket/filesystem failure.
    Io(io::Error),
    /// FCLU/FSNP state could not be read, validated, or restored.
    State(WireError),
}

impl std::fmt::Display for AggregatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregatorError::Io(e) => write!(f, "io error: {e}"),
            AggregatorError::State(e) => write!(f, "state error: {e}"),
        }
    }
}

impl std::error::Error for AggregatorError {}

impl From<io::Error> for AggregatorError {
    fn from(e: io::Error) -> Self {
        AggregatorError::Io(e)
    }
}

impl From<WireError> for AggregatorError {
    fn from(e: WireError) -> Self {
        AggregatorError::State(e)
    }
}

/// A bound (listening, not yet serving) aggregator.
pub struct AggregatorServer {
    listener: TcpListener,
    local_addr: SocketAddr,
    state: Arc<ClusterState>,
    query: Arc<ClusterQuery>,
    config: AggregatorConfig,
    shutdown: Arc<AtomicBool>,
}

impl AggregatorServer {
    /// Binds the listen socket, restoring per-node state when configured.
    pub fn bind(
        plan: Arc<CollectionPlan>,
        config: AggregatorConfig,
    ) -> Result<AggregatorServer, AggregatorError> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let oracles = Arc::new(OracleSet::build(&plan));
        let state = match &config.resume {
            Some(path) => {
                let restored = ClusterState::read(path, Arc::clone(&plan), oracles)?;
                felip_obs::counter!("cluster.state.restored", 1, "containers");
                restored
            }
            None => ClusterState::new(Arc::clone(&plan), oracles),
        };
        // The query engine is always built cold here — even (especially)
        // on the resume path, so a restarted aggregator can never answer
        // from a grid cached before the restore.
        let state = Arc::new(state);
        let query = Arc::new(QueryService::new(
            state.plan_handle(),
            state.oracles_handle(),
            Arc::clone(&state),
        ));
        Ok(AggregatorServer {
            listener,
            local_addr,
            state,
            query,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that stops the run when set.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The shared cluster state (tests peek at it mid-run).
    pub fn state(&self) -> Arc<ClusterState> {
        Arc::clone(&self.state)
    }

    /// Serves until the shutdown flag (or `external_shutdown`) is set,
    /// then persists the final state and returns the merged result.
    pub fn run(
        self,
        external_shutdown: Option<&AtomicBool>,
    ) -> Result<AggregatorRun, AggregatorError> {
        let mut run_span = felip_obs::span!("cluster.run");
        let stats = AtomicAggStats::default();
        let connected = AtomicU64::new(0);
        let stop_persist = AtomicBool::new(false);
        let should_stop = || {
            self.shutdown.load(Ordering::SeqCst)
                || external_shutdown.is_some_and(|f| f.load(Ordering::SeqCst))
        };
        self.listener.set_nonblocking(true)?;

        thread::scope(|scope| -> Result<(), AggregatorError> {
            // Periodic persist: FCLU container + merged FSNP snapshot.
            if self.config.state_path.is_some() || self.config.snapshot_path.is_some() {
                let state = Arc::clone(&self.state);
                let state_path = self.config.state_path.clone();
                let snapshot_path = self.config.snapshot_path.clone();
                let every = self.config.persist_every;
                let stop = &stop_persist;
                scope.spawn(move || {
                    let mut last = Instant::now();
                    while !stop.load(Ordering::SeqCst) {
                        thread::sleep(Duration::from_millis(25));
                        if last.elapsed() < every {
                            continue;
                        }
                        last = Instant::now();
                        if let Err(e) =
                            persist(&state, state_path.as_deref(), snapshot_path.as_deref())
                        {
                            felip_obs::diag::warn(&format!("cluster persist failed: {e}"));
                        }
                    }
                });
            }

            let mut conns = Vec::new();
            while !should_stop() {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        felip_obs::counter!("cluster.accept", 1, "connections");
                        stats.connections.fetch_add(1, Ordering::Relaxed);
                        let state = Arc::clone(&self.state);
                        let query = Arc::clone(&self.query);
                        let stats = &stats;
                        let connected = &connected;
                        let stop = &should_stop;
                        let config = &self.config;
                        conns.push(scope.spawn(move || {
                            connected.fetch_add(1, Ordering::Relaxed);
                            felip_obs::gauge!(
                                "cluster.node.connected",
                                connected.load(Ordering::Relaxed) as usize,
                                "nodes"
                            );
                            if let Err(e) =
                                handle_conn(&stream, &state, &query, stats, stop, config)
                            {
                                felip_obs::diag::line(&format!("cluster connection closed: {e}"));
                            }
                            connected.fetch_sub(1, Ordering::Relaxed);
                            felip_obs::gauge!(
                                "cluster.node.connected",
                                connected.load(Ordering::Relaxed) as usize,
                                "nodes"
                            );
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(AggregatorError::Io(e)),
                }
            }
            for c in conns {
                let _ = c.join();
            }
            stop_persist.store(true, Ordering::SeqCst);
            Ok(())
        })?;

        // Final persist after every connection drained.
        persist(
            &self.state,
            self.config.state_path.as_deref(),
            self.config.snapshot_path.as_deref(),
        )?;
        let merged = self
            .state
            .merged()
            .map_err(|e| AggregatorError::State(WireError::Malformed(e.to_string())))?;
        run_span.field("reports", merged.reports_ingested());
        Ok(AggregatorRun {
            nodes: self.state.node_rows(),
            merged,
            stats: stats.snapshot(),
        })
    }
}

/// Writes the FCLU container and/or the merged FSNP snapshot.
fn persist(
    state: &ClusterState,
    state_path: Option<&std::path::Path>,
    snapshot_path: Option<&std::path::Path>,
) -> Result<(), AggregatorError> {
    if let Some(path) = state_path {
        state.write_atomic(path)?;
        felip_obs::counter!("cluster.state.persisted", 1, "containers");
    }
    if let Some(path) = snapshot_path {
        state
            .capture_merged()
            .map_err(|e| AggregatorError::State(WireError::Malformed(e.to_string())))?
            .write_verified(path, None)
            .map_err(AggregatorError::State)?;
    }
    Ok(())
}

/// Serves one node connection: Hello resyncs the epoch cursor, Delta
/// applies under the cluster lock, Stat answers pre-plan-check like the
/// ingest tier's admin plane, and Query — which needs no handshake, a
/// read-only client may connect just to ask — answers from the merged
/// cluster view.
fn handle_conn<F: Fn() -> bool>(
    stream: &std::net::TcpStream,
    state: &ClusterState,
    query: &ClusterQuery,
    stats: &AtomicAggStats,
    stop: &F,
    config: &AggregatorConfig,
) -> Result<(), WireError> {
    let mut transport = TcpTransport::new(
        stream,
        stop,
        config.read_timeout,
        config.write_timeout,
        config.idle_timeout,
    )?;
    let plan_hash = state.plan_hash();
    let mut hello_seen = false;
    loop {
        match transport.recv() {
            RecvOutcome::Frame(frame) => {
                let reject = |e: WireError, stats: &AtomicAggStats| {
                    stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
                    Frame::error(plan_hash, &e.to_string())
                };
                // STAT first: plan-agnostic, handshake-agnostic.
                if frame.kind == FrameKind::Stat {
                    match decode_stat(&frame.payload) {
                        Ok(mode) => {
                            felip_obs::counter!("cluster.frame.stat", 1, "frames");
                            transport.send(&Frame {
                                kind: FrameKind::StatReply,
                                plan_hash,
                                payload: stat_payload(mode),
                            })?;
                            continue;
                        }
                        Err(e) => {
                            let reply = reject(e, stats);
                            let _ = transport.send(&reply);
                            return Ok(());
                        }
                    }
                }
                if frame.plan_hash != plan_hash {
                    let e = WireError::PlanMismatch {
                        ours: plan_hash,
                        theirs: frame.plan_hash,
                    };
                    let reply = reject(e, stats);
                    let _ = transport.send(&reply);
                    return Ok(());
                }
                match frame.kind {
                    FrameKind::Hello => match decode_hello(&frame.payload) {
                        Ok(node_id) => {
                            hello_seen = true;
                            let last = state.last_epoch(node_id);
                            transport.send(&Frame {
                                kind: FrameKind::Ack,
                                plan_hash,
                                payload: encode_ack(last, 0),
                            })?;
                        }
                        Err(e) => {
                            let reply = reject(e, stats);
                            let _ = transport.send(&reply);
                            return Ok(());
                        }
                    },
                    FrameKind::Delta => {
                        if !hello_seen {
                            let e = WireError::Malformed("delta before hello handshake".into());
                            let reply = reject(e, stats);
                            let _ = transport.send(&reply);
                            return Ok(());
                        }
                        let delta = match decode_delta(&frame.payload) {
                            Ok(d) => d,
                            Err(e) => {
                                let reply = reject(e, stats);
                                let _ = transport.send(&reply);
                                return Ok(());
                            }
                        };
                        let epoch = delta.epoch;
                        let t0 = Instant::now();
                        match state.apply(&delta) {
                            Ok(result) => {
                                felip_obs::hist!(
                                    "cluster.delta.apply",
                                    t0.elapsed().as_micros() as u64,
                                    "us"
                                );
                                match result.status {
                                    felip_server::wire::DeltaStatus::Applied => {
                                        stats.deltas_applied.fetch_add(1, Ordering::Relaxed);
                                    }
                                    felip_server::wire::DeltaStatus::Duplicate => {
                                        stats.deltas_duplicate.fetch_add(1, Ordering::Relaxed);
                                    }
                                    felip_server::wire::DeltaStatus::ResyncRequired => {
                                        stats.deltas_resync.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                transport.send(&Frame {
                                    kind: FrameKind::DeltaAck,
                                    plan_hash,
                                    payload: encode_delta_ack(
                                        epoch,
                                        result.last_applied,
                                        result.status,
                                    ),
                                })?;
                            }
                            Err(e) => {
                                let reply = reject(e, stats);
                                let _ = transport.send(&reply);
                                return Ok(());
                            }
                        }
                    }
                    FrameKind::Query => {
                        let req = match decode_query(&frame.payload) {
                            Ok(r) => r,
                            Err(e) => {
                                let reply = reject(e, stats);
                                let _ = transport.send(&reply);
                                return Ok(());
                            }
                        };
                        match query.answer(&req) {
                            Ok(ans) => {
                                felip_obs::counter!("cluster.query.answered", 1, "queries");
                                transport.send(&Frame {
                                    kind: FrameKind::QueryReply,
                                    plan_hash,
                                    payload: encode_query_reply(&ans),
                                })?;
                            }
                            Err(e) => {
                                // Unanswerable (bad predicates, no reports
                                // yet): answer an Error frame but keep the
                                // connection — the client may retry.
                                felip_obs::counter!("cluster.query.errors", 1, "queries");
                                transport.send(&Frame::error(plan_hash, &e.to_string()))?;
                            }
                        }
                    }
                    other => {
                        let e = WireError::Malformed(format!("node sent {other:?} frame"));
                        let reply = reject(e, stats);
                        let _ = transport.send(&reply);
                        return Ok(());
                    }
                }
            }
            RecvOutcome::Eof | RecvOutcome::Shutdown => return Ok(()),
            RecvOutcome::NoData => continue,
            RecvOutcome::Idle => {
                felip_obs::counter!("cluster.conn.reaped", 1, "connections");
                return Ok(());
            }
            RecvOutcome::Err(e) => {
                stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
                let _ = transport.send(&Frame::error(plan_hash, &e.to_string()));
                return Err(e);
            }
        }
    }
}

// The ClusterState lock guard must not be held across `transport.send`
// (a blocked peer would stall every other node's applies); `state.apply`
// and `state.last_epoch` each take and release the lock internally, so
// the reply path above is lock-free by construction.
#[cfg(test)]
mod tests {
    use super::*;
    use felip::config::FelipConfig;
    use felip_common::{Attribute, Schema};
    use felip_server::wire::{
        encode_delta, encode_hello as hello_payload, CountDelta, DeltaFlavor,
    };

    fn tiny_plan() -> Arc<CollectionPlan> {
        let schema = Schema::new(vec![
            Attribute::numerical("a", 32),
            Attribute::categorical("c", 4),
        ])
        .unwrap();
        Arc::new(CollectionPlan::build(&schema, 60, &FelipConfig::new(1.0), 3).unwrap())
    }

    #[test]
    fn aggregator_answers_hello_delta_and_shutdown() {
        let plan = tiny_plan();
        let plan_hash = plan.schema_hash();
        let server = AggregatorServer::bind(
            Arc::clone(&plan),
            AggregatorConfig {
                idle_timeout: Duration::from_secs(5),
                ..AggregatorConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let stop = server.shutdown_handle();
        let state = server.state();

        let agg = felip_server::loadgen::offline_reference(&plan, 0..15, 5).unwrap();
        let delta = CountDelta {
            node_id: 42,
            epoch: 1,
            flavor: DeltaFlavor::Full,
            total: agg.reports_ingested() as u64,
            counts: agg.counts().to_vec(),
            group_sizes: agg.group_sizes().iter().map(|&s| s as u64).collect(),
        };

        thread::scope(|s| {
            let handle = s.spawn(|| server.run(None).unwrap());
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            felip_server::wire::write_frame(
                &mut conn,
                &Frame {
                    kind: FrameKind::Hello,
                    plan_hash,
                    payload: hello_payload(42),
                },
            )
            .unwrap();
            let reply = felip_server::wire::read_frame(&mut conn).unwrap().unwrap();
            assert_eq!(reply.kind, FrameKind::Ack);
            assert_eq!(
                felip_server::wire::decode_ack(&reply.payload).unwrap(),
                (0, 0)
            );

            felip_server::wire::write_frame(
                &mut conn,
                &Frame {
                    kind: FrameKind::Delta,
                    plan_hash,
                    payload: encode_delta(&delta).unwrap(),
                },
            )
            .unwrap();
            let reply = felip_server::wire::read_frame(&mut conn).unwrap().unwrap();
            assert_eq!(reply.kind, FrameKind::DeltaAck);
            let (epoch, last, status) =
                felip_server::wire::decode_delta_ack(&reply.payload).unwrap();
            assert_eq!((epoch, last), (1, 1));
            assert_eq!(status, felip_server::wire::DeltaStatus::Applied);

            assert_eq!(state.last_epoch(42), 1);
            drop(conn);
            stop.store(true, Ordering::SeqCst);
            let run = handle.join().unwrap();
            assert_eq!(run.merged.counts(), agg.counts());
            assert_eq!(run.stats.deltas_applied, 1);
        });
    }

    #[test]
    fn queries_answer_from_merged_view_bit_identically() {
        use felip_common::Predicate;
        use felip_server::wire::{decode_query_reply, encode_query, QueryMode, QueryRequest};

        let plan = tiny_plan();
        let plan_hash = plan.schema_hash();
        let server =
            AggregatorServer::bind(Arc::clone(&plan), AggregatorConfig::default()).unwrap();
        let addr = server.local_addr();
        let stop = server.shutdown_handle();

        let preds = vec![
            Predicate::between(0, 4, 20),
            Predicate::in_set(1, vec![1, 2]),
        ];
        let query = felip_common::Query::new(plan.schema(), preds.clone()).unwrap();

        let ask = |conn: &mut std::net::TcpStream, id: u64, mode: QueryMode| {
            felip_server::wire::write_frame(
                conn,
                &Frame {
                    kind: FrameKind::Query,
                    plan_hash,
                    payload: encode_query(&QueryRequest {
                        query_id: id,
                        mode,
                        predicates: preds.clone(),
                    })
                    .unwrap(),
                },
            )
            .unwrap();
            felip_server::wire::read_frame(conn).unwrap().unwrap()
        };

        thread::scope(|s| {
            let handle = s.spawn(|| server.run(None).unwrap());
            let mut conn = std::net::TcpStream::connect(addr).unwrap();

            // No deltas applied yet: the query answers an Error frame but
            // the connection stays usable.
            let reply = ask(&mut conn, 1, QueryMode::Cached);
            assert_eq!(reply.kind, FrameKind::Error);

            // Apply node 7's cumulative state (no hello needed for
            // queries, but deltas require one).
            felip_server::wire::write_frame(
                &mut conn,
                &Frame {
                    kind: FrameKind::Hello,
                    plan_hash,
                    payload: hello_payload(7),
                },
            )
            .unwrap();
            felip_server::wire::read_frame(&mut conn).unwrap().unwrap();
            let agg = felip_server::loadgen::offline_reference(&plan, 0..15, 5).unwrap();
            felip_server::wire::write_frame(
                &mut conn,
                &Frame {
                    kind: FrameKind::Delta,
                    plan_hash,
                    payload: encode_delta(&CountDelta {
                        node_id: 7,
                        epoch: 1,
                        flavor: DeltaFlavor::Full,
                        total: agg.reports_ingested() as u64,
                        counts: agg.counts().to_vec(),
                        group_sizes: agg.group_sizes().iter().map(|&s| s as u64).collect(),
                    })
                    .unwrap(),
                },
            )
            .unwrap();
            felip_server::wire::read_frame(&mut conn).unwrap().unwrap();

            // Cold query: epoch 1, bit-identical to the offline batch
            // estimate on the same counts.
            let offline = agg.estimate().unwrap().answer(&query).unwrap();
            let reply = ask(&mut conn, 2, QueryMode::Cached);
            assert_eq!(reply.kind, FrameKind::QueryReply);
            let ans = decode_query_reply(&reply.payload).unwrap();
            assert_eq!(ans.query_id, 2);
            assert_eq!(ans.epoch, 1);
            assert_eq!(ans.head_epoch, 1);
            assert_eq!(ans.reports, 15);
            assert_eq!(ans.answer.to_bits(), offline.to_bits());

            // Warm query: same epoch, same bits, no re-estimation.
            let warm = decode_query_reply(&ask(&mut conn, 3, QueryMode::Cached).payload).unwrap();
            assert_eq!(warm.epoch, 1);
            assert_eq!(warm.answer.to_bits(), offline.to_bits());

            // Fresh mode with unchanged counts still does not invent a new
            // epoch: the engine sees identical grids.
            let fresh = decode_query_reply(&ask(&mut conn, 4, QueryMode::Fresh).payload).unwrap();
            assert_eq!(fresh.epoch, 1);
            assert_eq!(fresh.answer.to_bits(), offline.to_bits());

            // A second node's delta invalidates the cache: epoch 2,
            // bit-identical to the two-node merged offline estimate.
            let agg2 = felip_server::loadgen::offline_reference(&plan, 15..30, 5).unwrap();
            felip_server::wire::write_frame(
                &mut conn,
                &Frame {
                    kind: FrameKind::Delta,
                    plan_hash,
                    payload: encode_delta(&CountDelta {
                        node_id: 8,
                        epoch: 1,
                        flavor: DeltaFlavor::Full,
                        total: agg2.reports_ingested() as u64,
                        counts: agg2.counts().to_vec(),
                        group_sizes: agg2.group_sizes().iter().map(|&s| s as u64).collect(),
                    })
                    .unwrap(),
                },
            )
            .unwrap();
            felip_server::wire::read_frame(&mut conn).unwrap().unwrap();
            let merged = felip_server::loadgen::offline_reference(&plan, 0..30, 5).unwrap();
            let offline2 = merged.estimate().unwrap().answer(&query).unwrap();
            let ans2 = decode_query_reply(&ask(&mut conn, 5, QueryMode::Cached).payload).unwrap();
            assert_eq!(ans2.epoch, 2);
            assert_eq!(ans2.reports, 30);
            assert_eq!(ans2.answer.to_bits(), offline2.to_bits());

            drop(conn);
            stop.store(true, Ordering::SeqCst);
            handle.join().unwrap();
        });
    }

    #[test]
    fn delta_before_hello_is_rejected() {
        let plan = tiny_plan();
        let plan_hash = plan.schema_hash();
        let server =
            AggregatorServer::bind(Arc::clone(&plan), AggregatorConfig::default()).unwrap();
        let addr = server.local_addr();
        let stop = server.shutdown_handle();
        thread::scope(|s| {
            let handle = s.spawn(|| server.run(None).unwrap());
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            let delta = CountDelta {
                node_id: 1,
                epoch: 1,
                flavor: DeltaFlavor::Full,
                total: 0,
                counts: tiny_plan()
                    .grids()
                    .iter()
                    .map(|g| vec![0; g.num_cells() as usize])
                    .collect(),
                group_sizes: vec![0; tiny_plan().num_groups()],
            };
            felip_server::wire::write_frame(
                &mut conn,
                &Frame {
                    kind: FrameKind::Delta,
                    plan_hash,
                    payload: encode_delta(&delta).unwrap(),
                },
            )
            .unwrap();
            let reply = felip_server::wire::read_frame(&mut conn).unwrap().unwrap();
            assert_eq!(reply.kind, FrameKind::Error);
            drop(conn);
            stop.store(true, Ordering::SeqCst);
            let run = handle.join().unwrap();
            assert_eq!(run.stats.frames_rejected, 1);
            assert_eq!(run.merged.reports_ingested(), 0);
        });
    }
}
