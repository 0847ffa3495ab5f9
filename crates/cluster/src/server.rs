//! The aggregator-tier server: accepts ingest-node connections, applies
//! their epoch-numbered deltas to the shared [`ClusterState`], answers
//! `STAT` with process-wide telemetry and `Query` from the merged view, and
//! periodically persists both the FCLU per-node container and a plain
//! merged FSNP snapshot.
//!
//! Connections run on the ingest tier's serve loop (`felip_server::serve`,
//! DESIGN.md §15): this module only supplies the [`Handler`] for Hello and
//! Delta frames. The loop brings the STAT-first and plan-hash prelude, the
//! query worker, per-connection reply order, backpressure and the
//! deadlines.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use felip_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use felip_sync::{thread, Arc};

use felip::aggregator::{Aggregator, OracleSet};
use felip::plan::CollectionPlan;
use felip_server::queue::Periodic;
use felip_server::serve::{serve, AtomicStats, FrameOutcome, Handler, Loop, Tier};
use felip_server::wire::{
    decode_delta, decode_hello, decode_query, encode_ack, encode_delta_ack, DeltaStatus, Frame,
    FrameKind, FrameView, WireError,
};
use felip_server::QueryService;

use crate::state::ClusterState;

/// The aggregator's query service: the shared engine over the merged
/// cluster view, keyed on the change version.
type ClusterQuery = QueryService<Arc<ClusterState>>;

/// Deadline for finishing a frame once its first byte arrived.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Idle-connection reap window. Generous: an ingest node only speaks once
/// per cut interval.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

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
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        AggregatorConfig {
            addr: "127.0.0.1:0".to_string(),
            snapshot_path: None,
            state_path: None,
            resume: None,
            persist_every: Duration::from_millis(500),
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

/// Delta dispositions; the serve loop counts connections and rejections.
#[derive(Default)]
struct DeltaCounts {
    applied: AtomicU64,
    duplicate: AtomicU64,
    resync: AtomicU64,
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
    query: ClusterQuery,
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
        let query = QueryService::new(
            state.plan_handle(),
            state.oracles_handle(),
            Arc::clone(&state),
        );
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
        self.run_on(external_shutdown, Loop::Native)
    }

    /// [`AggregatorServer::run`] on the given serve loop.
    fn run_on(
        self,
        external_shutdown: Option<&AtomicBool>,
        serve_loop: Loop,
    ) -> Result<AggregatorRun, AggregatorError> {
        let mut run_span = felip_obs::span!("cluster.run");
        let stats = AtomicStats::default();
        let tier = Tier {
            plan_hash: self.state.plan_hash(),
            stats: &stats,
            query: &self.query,
            read_timeout: READ_TIMEOUT,
            idle_timeout: IDLE_TIMEOUT,
            workers: 0,
        };
        let handler = AggregatorHandler {
            state: &self.state,
            stats: &stats,
            deltas: DeltaCounts::default(),
        };
        let periodic = Periodic::default();
        let should_stop = || {
            self.shutdown.load(Ordering::SeqCst)
                || external_shutdown.is_some_and(|f| f.load(Ordering::SeqCst))
        };

        thread::scope(|scope| -> io::Result<()> {
            // Periodic persist: FCLU container + merged FSNP snapshot.
            if self.config.state_path.is_some() || self.config.snapshot_path.is_some() {
                let (this, periodic) = (&self, &periodic);
                scope.spawn(move || {
                    periodic.every(this.config.persist_every, || {
                        if let Err(e) = this.persist() {
                            felip_obs::diag::warn(&format!("cluster persist failed: {e}"));
                        }
                    });
                });
            }
            let served = serve(serve_loop, &self.listener, &tier, &handler, &should_stop);
            periodic.stop();
            served
        })?;

        // Final persist after every connection drained.
        self.persist()?;
        let merged = self
            .state
            .merged()
            .map_err(|e| AggregatorError::State(WireError::Malformed(e.to_string())))?;
        run_span.field("reports", merged.reports_ingested());
        let conns = stats.snapshot();
        Ok(AggregatorRun {
            nodes: self.state.node_rows(),
            merged,
            stats: AggregatorStats {
                connections: conns.connections,
                deltas_applied: handler.deltas.applied.load(Ordering::Relaxed),
                deltas_duplicate: handler.deltas.duplicate.load(Ordering::Relaxed),
                deltas_resync: handler.deltas.resync.load(Ordering::Relaxed),
                frames_rejected: conns.frames_rejected,
            },
        })
    }

    /// Writes the FCLU container and/or the merged FSNP snapshot.
    fn persist(&self) -> Result<(), AggregatorError> {
        if let Some(path) = &self.config.state_path {
            self.state.write_atomic(path)?;
            felip_obs::counter!("cluster.state.persisted", 1, "containers");
        }
        if let Some(path) = &self.config.snapshot_path {
            self.state
                .capture_merged()
                .map_err(|e| AggregatorError::State(WireError::Malformed(e.to_string())))?
                .write_verified(path, None)
                .map_err(AggregatorError::State)?;
        }
        Ok(())
    }
}

/// The aggregator's [`Handler`]: Hello resyncs a node's epoch cursor and
/// Delta applies under the cluster lock. Query needs no handshake — a
/// read-only client may connect just to ask — and the serve loop answers
/// it from the merged view.
struct AggregatorHandler<'a> {
    state: &'a ClusterState,
    stats: &'a AtomicStats,
    deltas: DeltaCounts,
}

impl Handler for AggregatorHandler<'_> {
    /// The node id the connection's Hello named, if any.
    type Conn = Option<u64>;

    fn open(&self, _seq: u64) -> Option<u64> {
        None
    }

    fn on_frame(&self, node: &mut Option<u64>, frame: FrameView<'_>) -> FrameOutcome {
        let plan_hash = self.state.plan_hash();
        let reject = |e: WireError| FrameOutcome::reject(plan_hash, e, self.stats);
        match frame.kind {
            FrameKind::Hello => match decode_hello(frame.payload) {
                Ok(node_id) => {
                    *node = Some(node_id);
                    FrameOutcome::reply(Frame {
                        kind: FrameKind::Ack,
                        plan_hash,
                        payload: encode_ack(self.state.last_epoch(node_id), 0),
                    })
                }
                Err(e) => reject(e),
            },
            FrameKind::Delta => {
                if node.is_none() {
                    return reject(WireError::Malformed("delta before hello handshake".into()));
                }
                let delta = match decode_delta(frame.payload) {
                    Ok(d) => d,
                    Err(e) => return reject(e),
                };
                let t0 = Instant::now();
                let result = match self.state.apply(&delta) {
                    Ok(result) => result,
                    Err(e) => return reject(e),
                };
                felip_obs::hist!("cluster.delta.apply", t0.elapsed().as_micros() as u64, "us");
                let counter = match result.status {
                    DeltaStatus::Applied => &self.deltas.applied,
                    DeltaStatus::Duplicate => &self.deltas.duplicate,
                    DeltaStatus::ResyncRequired => &self.deltas.resync,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                FrameOutcome::reply(Frame {
                    kind: FrameKind::DeltaAck,
                    plan_hash,
                    payload: encode_delta_ack(delta.epoch, result.last_applied, result.status),
                })
            }
            FrameKind::Query => match decode_query(frame.payload) {
                Ok(req) => FrameOutcome::query(req),
                Err(e) => reject(e),
            },
            other => reject(WireError::Malformed(format!("node sent {other:?} frame"))),
        }
    }

    fn peer_id(&self, node: &Option<u64>) -> u64 {
        node.unwrap_or(0)
    }
}

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

    fn full_delta(plan: &Arc<CollectionPlan>, node_id: u64, agg: &Aggregator) -> Frame {
        Frame {
            kind: FrameKind::Delta,
            plan_hash: plan.schema_hash(),
            payload: encode_delta(&CountDelta {
                node_id,
                epoch: 1,
                flavor: DeltaFlavor::Full,
                total: agg.reports_ingested() as u64,
                counts: agg.counts().to_vec(),
                group_sizes: agg.group_sizes().iter().map(|&s| s as u64).collect(),
            })
            .unwrap(),
        }
    }

    /// Hello, Query, Delta and STAT written back to back on one connection
    /// get their replies in frame order, on either loop. The query is
    /// answered before the Delta behind it is applied, bit-identical to
    /// the offline estimate of what was merged when it was asked.
    fn pipelined_frames_reply_in_frame_order(serve_loop: Loop) {
        use felip_common::Predicate;
        use felip_server::wire::{
            decode_ack, decode_delta_ack, decode_query_reply, encode_query, encode_stat,
            read_frame, QueryMode, QueryRequest, StatMode,
        };

        let plan = tiny_plan();
        let plan_hash = plan.schema_hash();
        let server =
            AggregatorServer::bind(Arc::clone(&plan), AggregatorConfig::default()).unwrap();
        let addr = server.local_addr();
        let stop = server.shutdown_handle();
        let first = felip_server::loadgen::offline_reference(&plan, 0..15, 5).unwrap();
        let second = felip_server::loadgen::offline_reference(&plan, 15..30, 5).unwrap();
        let preds = vec![
            Predicate::between(0, 4, 20),
            Predicate::in_set(1, vec![1, 2]),
        ];
        let hello = |node: u64| Frame {
            kind: FrameKind::Hello,
            plan_hash,
            payload: hello_payload(node),
        };

        let run = thread::scope(|s| {
            let handle = s.spawn(|| server.run_on(None, serve_loop).unwrap());
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            let next = |conn: &mut std::net::TcpStream| read_frame(conn).unwrap().unwrap();
            let mut burst = hello(7).encode();
            burst.extend(full_delta(&plan, 7, &first).encode());
            std::io::Write::write_all(&mut conn, &burst).unwrap();
            assert_eq!(next(&mut conn).kind, FrameKind::Ack);
            assert_eq!(next(&mut conn).kind, FrameKind::DeltaAck);

            let mut burst = hello(8).encode();
            burst.extend(
                Frame {
                    kind: FrameKind::Query,
                    plan_hash,
                    payload: encode_query(&QueryRequest {
                        query_id: 4,
                        mode: QueryMode::Fresh,
                        predicates: preds.clone(),
                    })
                    .unwrap(),
                }
                .encode(),
            );
            burst.extend(full_delta(&plan, 8, &second).encode());
            burst.extend(
                Frame {
                    kind: FrameKind::Stat,
                    plan_hash: 0,
                    payload: encode_stat(StatMode::Full),
                }
                .encode(),
            );
            std::io::Write::write_all(&mut conn, &burst).unwrap();

            let ack = next(&mut conn);
            assert_eq!(ack.kind, FrameKind::Ack);
            assert_eq!(decode_ack(&ack.payload).unwrap(), (0, 0));
            let answer = next(&mut conn);
            assert_eq!(answer.kind, FrameKind::QueryReply);
            let ans = decode_query_reply(&answer.payload).unwrap();
            let query = felip_common::Query::new(plan.schema(), preds).unwrap();
            let offline = first.estimate().unwrap().answer(&query).unwrap();
            assert_eq!((ans.query_id, ans.reports), (4, 15));
            assert_eq!(ans.answer.to_bits(), offline.to_bits());
            let delta_ack = next(&mut conn);
            assert_eq!(delta_ack.kind, FrameKind::DeltaAck);
            let (epoch, last, status) = decode_delta_ack(&delta_ack.payload).unwrap();
            assert_eq!((epoch, last, status), (1, 1, DeltaStatus::Applied));
            assert_eq!(next(&mut conn).kind, FrameKind::StatReply);
            drop(conn);
            stop.store(true, Ordering::SeqCst);
            handle.join().unwrap()
        });
        assert_eq!(run.stats.deltas_applied, 2);
        assert_eq!(run.stats.frames_rejected, 0);
        assert_eq!(run.merged.reports_ingested(), 30);
    }

    #[test]
    fn pipelined_frames_reply_in_frame_order_on_the_reactor() {
        pipelined_frames_reply_in_frame_order(Loop::Native);
    }

    #[test]
    fn pipelined_frames_reply_in_frame_order_on_the_portable_loop() {
        pipelined_frames_reply_in_frame_order(Loop::Portable);
    }

    /// A node that stalls mid-frame past the read deadline gets an Error
    /// frame and is closed, on either loop.
    fn stalled_peer_gets_an_error_and_is_closed(serve_loop: Loop) {
        use std::io::{Read, Write};
        let plan = tiny_plan();
        let server =
            AggregatorServer::bind(Arc::clone(&plan), AggregatorConfig::default()).unwrap();
        let addr = server.local_addr();
        let stop = server.shutdown_handle();
        let run = thread::scope(|s| {
            let handle = s.spawn(|| server.run_on(None, serve_loop).unwrap());
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            let bytes = Frame {
                kind: FrameKind::Hello,
                plan_hash: plan.schema_hash(),
                payload: hello_payload(3),
            }
            .encode();
            conn.write_all(&bytes[..bytes.len() - 3]).unwrap();
            let start = Instant::now();
            let reply = felip_server::wire::read_frame(&mut conn).unwrap().unwrap();
            assert_eq!(reply.kind, FrameKind::Error);
            assert!(start.elapsed() >= READ_TIMEOUT - Duration::from_millis(100));
            let mut rest = Vec::new();
            conn.read_to_end(&mut rest).expect("read to EOF");
            assert!(rest.is_empty(), "nothing after the error frame");
            stop.store(true, Ordering::SeqCst);
            handle.join().unwrap()
        });
        assert_eq!(run.stats.frames_rejected, 1);
    }

    #[test]
    fn stalled_peer_gets_an_error_and_is_closed_on_the_reactor() {
        stalled_peer_gets_an_error_and_is_closed(Loop::Native);
    }

    #[test]
    fn stalled_peer_gets_an_error_and_is_closed_on_the_portable_loop() {
        stalled_peer_gets_an_error_and_is_closed(Loop::Portable);
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
