//! The transport-agnostic per-connection protocol state machine.
//!
//! Both serve loops (DESIGN.md §15) and the deterministic sim harness
//! feed decoded frames through the same [`prelude`] and
//! [`Session::handle`]; all protocol decisions — plan pinning, batch
//! validation, duplicate suppression, backpressure — live here exactly
//! once, so what the chaos harness proves about the session logic holds
//! for the production server verbatim. The prelude (STAT first, then the
//! plan-hash check) is shared with the cluster aggregator's handler.
//!
//! ## Exactly-once-or-rejected
//!
//! Every client identifies itself in `Hello` and numbers its batches
//! `1, 2, 3, …`. The server keeps, per client, the highest batch id it has
//! *accepted* (queued for ingestion) and answers:
//!
//! * `batch_id == last + 1` — the next expected batch: queue it (or answer
//!   `Retry` under backpressure, leaving `last` untouched).
//! * `batch_id ≤ last` — a duplicate (the client re-sent because our ack
//!   was lost): acknowledge again *without* re-queueing, so a report can
//!   never be counted twice.
//! * `batch_id > last + 1` — a gap: protocol violation, reject.
//!
//! The `Hello` ack echoes `last`, so a reconnecting client learns which of
//! its batches already made it and never re-sends them.

use std::collections::HashMap;

use felip_sync::{Arc, Mutex};

use felip::aggregator::OracleSet;
use felip::client::UserReport;
use felip::plan::CollectionPlan;

use crate::queue::{BoundedQueue, PushError};
use crate::server::AtomicStats;
use crate::wire::{
    decode_batch, decode_hello, decode_stat, encode_ack, encode_retry, Frame, FrameKind, FrameView,
    QueryRequest, WireError,
};

/// Server-wide state shared by every session: the plan, the oracles used
/// for admission validation, and the per-client dedup table.
pub(crate) struct SessionCtx {
    /// The collection plan this server aggregates for.
    pub plan: Arc<CollectionPlan>,
    /// Oracle set used to validate incoming reports.
    pub oracles: Arc<OracleSet>,
    /// `plan.schema_hash()`, checked against every frame.
    pub plan_hash: u64,
    /// client id → highest accepted batch id.
    pub dedup: Mutex<HashMap<u64, u64>>,
}

impl SessionCtx {
    /// Builds a context, seeding the dedup table (from a restored
    /// snapshot; empty for a fresh server).
    pub fn new(
        plan: Arc<CollectionPlan>,
        oracles: Arc<OracleSet>,
        dedup: Vec<(u64, u64)>,
    ) -> SessionCtx {
        let plan_hash = plan.schema_hash();
        SessionCtx {
            plan,
            oracles,
            plan_hash,
            dedup: Mutex::new(dedup.into_iter().collect()),
        }
    }

    /// The dedup table as sorted pairs (the snapshot encoding).
    pub fn dedup_pairs(&self) -> Vec<(u64, u64)> {
        Self::sorted_pairs(&self.dedup.lock())
    }

    /// Sorted-pair encoding of an already-locked dedup table — for callers
    /// (the snapshot consistent cut) that must capture the cursors under a
    /// guard they are still holding.
    pub fn sorted_pairs(map: &HashMap<u64, u64>) -> Vec<(u64, u64)> {
        let mut pairs: Vec<(u64, u64)> = map.iter().map(|(&c, &b)| (c, b)).collect();
        pairs.sort_unstable();
        pairs
    }
}

/// A batch the session just accepted (queued for ingestion) — the unit the
/// sim harness counts as "server-acked".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AcceptedBatch {
    /// The sending client.
    pub client_id: u64,
    /// The batch's per-client sequence number.
    pub batch_id: u64,
    /// Reports in the batch.
    pub reports: u32,
}

/// How a frame is answered.
pub(crate) enum Reply {
    /// Send this frame now.
    Frame(Frame),
    /// A valid `Query`: the query service answers it. Frames after it on
    /// the same connection must wait for that answer (replies are FIFO).
    Query(QueryRequest),
}

/// What a frame handler decided: the reply, and whether the connection
/// closes after it.
pub struct FrameOutcome {
    /// Reply to send to the peer (always present; errors reply best-effort).
    pub(crate) reply: Reply,
    /// Set when a batch was newly accepted this frame.
    pub(crate) accepted: Option<AcceptedBatch>,
    /// Set when the connection must close after the reply (the error to
    /// report); duplicate and retry frames do *not* close.
    pub(crate) close: Option<WireError>,
}

impl FrameOutcome {
    /// Answers `frame` and keeps the connection.
    pub fn reply(frame: Frame) -> FrameOutcome {
        FrameOutcome {
            reply: Reply::Frame(frame),
            accepted: None,
            close: None,
        }
    }

    /// Hands a valid query to the tier's query service.
    pub fn query(req: QueryRequest) -> FrameOutcome {
        FrameOutcome {
            reply: Reply::Query(req),
            accepted: None,
            close: None,
        }
    }

    /// Answers an `Error` frame for `e`, counts the rejection, and closes
    /// the connection.
    pub fn reject(plan_hash: u64, e: WireError, stats: &AtomicStats) -> FrameOutcome {
        stats.bump_rejected();
        FrameOutcome {
            reply: Reply::Frame(Frame::error(plan_hash, &e.to_string())),
            accepted: None,
            close: Some(e),
        }
    }
}

/// The prelude every frame passes first, on both tiers. STAT is an admin
/// verb: any connection — even pre-handshake, even a plan-agnostic
/// operator tool that sends plan hash 0 — may ask for a metrics snapshot,
/// so it is answered before plan pinning. Every other frame must carry
/// `plan_hash`. Returns the outcome of a frame it settles; `None` passes
/// the frame on to the tier's handler.
pub(crate) fn prelude(
    frame: &FrameView<'_>,
    plan_hash: u64,
    stats: &AtomicStats,
) -> Option<FrameOutcome> {
    if frame.kind == FrameKind::Stat {
        return Some(match decode_stat(frame.payload) {
            Ok(mode) => {
                felip_obs::counter!("server.frame.stat", 1, "frames");
                FrameOutcome::reply(Frame {
                    kind: FrameKind::StatReply,
                    plan_hash,
                    payload: crate::stat::stat_payload(mode),
                })
            }
            Err(e) => FrameOutcome::reject(plan_hash, e, stats),
        });
    }
    (frame.plan_hash != plan_hash).then(|| {
        let e = WireError::PlanMismatch {
            ours: plan_hash,
            theirs: frame.plan_hash,
        };
        FrameOutcome::reject(plan_hash, e, stats)
    })
}

/// Per-connection protocol state: the handshaken client id plus the index
/// of the ingest worker this connection's accepted batches feed (used to
/// label the per-worker queue-depth gauge). The default is a fresh,
/// pre-handshake session feeding worker 0.
#[derive(Default)]
pub(crate) struct Session {
    client_id: Option<u64>,
    worker: usize,
}

impl Session {
    /// A fresh session pinned to ingest worker `worker`.
    pub fn for_worker(worker: usize) -> Session {
        Session {
            client_id: None,
            worker,
        }
    }

    /// The ingest worker this session feeds.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// The handshaken client id (`None` before `Hello`) — the reactor
    /// stamps it on flight-recorder events.
    pub fn client_id(&self) -> Option<u64> {
        self.client_id
    }

    /// Runs one decoded frame through the [`prelude`] and, if it passes,
    /// [`Session::handle`] — the entry the sim harness drives.
    pub fn on_frame(
        &mut self,
        frame: Frame,
        ctx: &SessionCtx,
        queue: &BoundedQueue<Vec<UserReport>>,
        stats: &AtomicStats,
    ) -> FrameOutcome {
        let view = frame.view();
        prelude(&view, ctx.plan_hash, stats).unwrap_or_else(|| self.handle(view, ctx, queue, stats))
    }

    /// Decides the reply to one frame that passed the [`prelude`]
    /// (payload borrowed from the receive buffer).
    pub fn handle(
        &mut self,
        frame: FrameView<'_>,
        ctx: &SessionCtx,
        queue: &BoundedQueue<Vec<UserReport>>,
        stats: &AtomicStats,
    ) -> FrameOutcome {
        let reject = |e: WireError| FrameOutcome::reject(ctx.plan_hash, e, stats);
        match frame.kind {
            FrameKind::Hello => {
                let client_id = match decode_hello(frame.payload) {
                    Ok(id) => id,
                    Err(e) => return reject(e),
                };
                felip_obs::counter!("server.frame.hello", 1, "frames");
                self.client_id = Some(client_id);
                let last = ctx.dedup.lock().get(&client_id).copied().unwrap_or(0);
                FrameOutcome::reply(Frame {
                    kind: FrameKind::Ack,
                    plan_hash: ctx.plan_hash,
                    payload: encode_ack(last, 0),
                })
            }
            FrameKind::ReportBatch => {
                let Some(client_id) = self.client_id else {
                    return reject(WireError::Malformed(
                        "report batch before hello handshake".into(),
                    ));
                };
                let (batch_id, reports) = match decode_batch(frame.payload) {
                    Ok(b) => b,
                    Err(e) => return reject(e),
                };
                if batch_id == 0 {
                    return reject(WireError::Malformed("batch id zero is reserved".into()));
                }
                // Admission check: every report must match its group's
                // oracle, *before* dedup or queueing, so a malformed batch
                // can neither advance the dedup cursor nor reach a worker.
                if let Some(err) = reports
                    .iter()
                    .find_map(|r| r.validate(&ctx.plan, &ctx.oracles).err())
                {
                    return reject(WireError::Malformed(err.to_string()));
                }
                let count = reports.len() as u32;
                // The dedup lock is held across the cursor check, the queue
                // push, and the cursor advance: a snapshot (which freezes
                // this lock for its consistent cut) must never observe a
                // cursor without its queued batch or a queued batch without
                // its cursor, and two connections racing for the same
                // client id must serialise on the same check-then-push.
                let mut dedup = ctx.dedup.lock();
                let last = dedup.get(&client_id).copied().unwrap_or(0);
                if batch_id <= last {
                    drop(dedup);
                    // Duplicate delivery (our previous ack was lost):
                    // acknowledge again, ingest nothing.
                    felip_obs::counter!("server.frame.duplicate", 1, "frames");
                    stats.bump_duplicate();
                    return FrameOutcome::reply(Frame {
                        kind: FrameKind::Ack,
                        plan_hash: ctx.plan_hash,
                        payload: encode_ack(batch_id, count),
                    });
                }
                if batch_id > last + 1 {
                    drop(dedup);
                    return reject(WireError::Malformed(format!(
                        "batch id {batch_id} skips ahead of {last}"
                    )));
                }
                match queue.try_push(reports) {
                    Ok(depth) => {
                        dedup.insert(client_id, batch_id);
                        drop(dedup);
                        crate::server::queue_depth_gauge(self.worker, depth);
                        felip_obs::counter!("server.frame.ok", 1, "frames");
                        felip_obs::counter!("server.frame.reports", count as usize, "reports");
                        stats.bump_accepted(count as u64);
                        FrameOutcome {
                            reply: Reply::Frame(Frame {
                                kind: FrameKind::Ack,
                                plan_hash: ctx.plan_hash,
                                payload: encode_ack(batch_id, count),
                            }),
                            accepted: Some(AcceptedBatch {
                                client_id,
                                batch_id,
                                reports: count,
                            }),
                            close: None,
                        }
                    }
                    Err(PushError::Full(_)) | Err(PushError::Closed(_)) => {
                        drop(dedup);
                        // Backpressure: the batch is dropped here and the
                        // client resends after backing off; `last` did not
                        // advance, so the resend is the expected next id.
                        felip_obs::counter!("server.frame.retry", 1, "frames");
                        stats.bump_retried();
                        FrameOutcome::reply(Frame {
                            kind: FrameKind::Retry,
                            plan_hash: ctx.plan_hash,
                            payload: encode_retry(batch_id),
                        })
                    }
                }
            }
            FrameKind::Query => match crate::wire::decode_query(frame.payload) {
                Ok(req) => FrameOutcome::query(req),
                Err(e) => reject(e),
            },
            other => reject(WireError::Malformed(format!("client sent {other:?} frame"))),
        }
    }
}
