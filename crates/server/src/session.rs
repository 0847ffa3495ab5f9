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
//!
//! ## One admission check
//!
//! A decoded `ReportBatch` is checked here, once, before the dedup cursor
//! moves and before the ack: [`OracleSet::admit`] tests each report's
//! group, kind and value bound against the plan's per-grid shape table.
//! What passes is an [`Admitted`] batch — the only type the shard queues
//! carry — and the ingest worker counts it without checking it again. A
//! batch that fails is rejected as [`WireError::Malformed`] and reaches
//! neither the cursor nor a queue.

use std::collections::HashMap;

use felip_sync::{Arc, Mutex};

use felip::aggregator::{Admitted, OracleSet};
use felip::plan::CollectionPlan;

use crate::queue::{BoundedQueue, PushError};
use crate::server::AtomicStats;
use crate::wire::{
    decode_batch, decode_hello, decode_stat, encode_ack, encode_retry, Frame, FrameKind, FrameView,
    QueryRequest, WireError,
};

/// Server-wide state shared by every session: the plan, the oracle set
/// whose shape table admits reports, and the per-client dedup table.
pub(crate) struct SessionCtx {
    /// The collection plan this server aggregates for.
    pub plan: Arc<CollectionPlan>,
    /// Oracle set whose admission table checks incoming reports.
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
        queue: &BoundedQueue<Admitted>,
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
        queue: &BoundedQueue<Admitted>,
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
                // The one admission check: every report against its
                // group's shape, *before* dedup or queueing, so a malformed
                // batch can neither advance the dedup cursor nor reach a
                // worker, and the worker counts the batch unchecked.
                let reports = match ctx.oracles.admit(reports) {
                    Ok(admitted) => admitted,
                    Err(e) => return reject(WireError::Malformed(e.to_string())),
                };
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

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use felip::aggregator::Aggregator;
    use felip::client::UserReport;
    use felip::config::FelipConfig;
    use felip_common::{Attribute, Schema};
    use felip_fo::report::{ReportKind, ReportShape};
    use felip_fo::Report;

    use super::*;
    use crate::queue::PopResult;
    use crate::wire::{encode_batch, encode_hello, Frame, FrameKind};

    const CLIENT: u64 = 7;

    /// A plan whose grids use both oracles, its admission shapes, and a
    /// batch of one report per group at value = bound − 1 — the largest
    /// value each group admits.
    fn edge_batch() -> (Arc<CollectionPlan>, Vec<ReportShape>, Vec<UserReport>) {
        let schema = Schema::new(vec![
            Attribute::numerical("a", 64),
            Attribute::numerical("b", 64),
        ])
        .unwrap();
        let plan =
            Arc::new(CollectionPlan::build(&schema, 10_000, &FelipConfig::new(1.0), 3).unwrap());
        let oracles = OracleSet::build(&plan);
        let shapes: Vec<ReportShape> = (0..oracles.len()).map(|g| oracles.get(g).shape()).collect();
        for kind in [ReportKind::Grr, ReportKind::Olh] {
            assert!(shapes.iter().any(|s| s.kind == kind), "plan lacks {kind}");
        }
        let reports = shapes
            .iter()
            .enumerate()
            .map(|(group, s)| UserReport {
                group,
                report: report_of(s.kind, s.bound - 1),
            })
            .collect();
        (plan, shapes, reports)
    }

    fn report_of(kind: ReportKind, value: u32) -> Report {
        match kind {
            ReportKind::Grr => Report::Grr(value),
            ReportKind::Olh => Report::Olh {
                seed: 0x5eed ^ value as u64,
                value,
            },
        }
    }

    fn batch_frame(plan_hash: u64, payload: Vec<u8>) -> Frame {
        Frame {
            kind: FrameKind::ReportBatch,
            plan_hash,
            payload,
        }
    }

    /// A fresh connection for `CLIENT`, past its `Hello`.
    fn connect(ctx: &SessionCtx, queue: &BoundedQueue<Admitted>, stats: &AtomicStats) -> Session {
        let mut session = Session::for_worker(0);
        let hello = Frame {
            kind: FrameKind::Hello,
            plan_hash: ctx.plan_hash,
            payload: encode_hello(CLIENT),
        };
        assert!(session.on_frame(hello, ctx, queue, stats).close.is_none());
        session
    }

    /// Byte offset of each report's group field in a `ReportBatch` payload.
    fn report_offsets(reports: &[UserReport]) -> Vec<usize> {
        let mut at = 12; // batch_id:u64, count:u32
        reports
            .iter()
            .map(|r| {
                let here = at;
                at += match r.report {
                    Report::Grr(_) => 9,
                    Report::Olh { .. } => 17,
                };
                here
            })
            .collect()
    }

    /// Structure-aware hostile `ReportBatch` payloads through the one
    /// admission path: each is rejected, closes the connection, and leaves
    /// the dedup cursor and the queue as they were; the untouched batch is
    /// admitted and counted exactly once. `--nocapture` prints the error
    /// path each case reached.
    #[test]
    fn hostile_report_batches_are_rejected_at_admission() {
        let (plan, shapes, edge) = edge_batch();
        let oracles = Arc::new(OracleSet::build(&plan));
        let ctx = SessionCtx::new(Arc::clone(&plan), Arc::clone(&oracles), Vec::new());
        let queue = BoundedQueue::<Admitted>::new(8);
        let stats = AtomicStats::default();
        let num_groups = plan.num_groups() as u32;

        // Batch 1 is the edge batch: admitted, cursor 1, one queued batch.
        let mut session = connect(&ctx, &queue, &stats);
        let out = session.on_frame(
            batch_frame(ctx.plan_hash, encode_batch(1, &edge).unwrap()),
            &ctx,
            &queue,
            &stats,
        );
        assert!(out.close.is_none() && out.accepted.is_some(), "edge batch");
        assert_eq!(queue.len(), 1);

        // Every hostile case claims batch 2, the next expected id.
        let valid = encode_batch(2, &edge).unwrap();
        let offsets = report_offsets(&edge);
        // (case, payload, whether only `Malformed` may reject it). A
        // payload cut short, or one whose count or tag byte makes the
        // reader run past its end, may also stop at the reader's bound
        // check (`Truncated`); everything the decoder parses whole must
        // reach a `Malformed` verdict.
        let mut cases: Vec<(String, Vec<u8>, bool)> = Vec::new();
        for cut in 0..valid.len() {
            cases.push((
                format!("truncated to {cut} B"),
                valid[..cut].to_vec(),
                false,
            ));
        }
        let count = edge.len() as u32;
        for (name, n) in [
            ("count + 1", count + 1),
            ("count - 1", count - 1),
            ("count u32::MAX", u32::MAX),
        ] {
            let mut p = valid.clone();
            p[8..12].copy_from_slice(&n.to_le_bytes());
            cases.push((name.into(), p, n != count + 1));
        }
        for (i, &at) in offsets.iter().enumerate() {
            for group in [num_groups, u32::MAX] {
                let mut p = valid.clone();
                p[at..at + 4].copy_from_slice(&group.to_le_bytes());
                cases.push((format!("report {i}: group {group}"), p, true));
            }
            for tag in [1 - valid[at + 4], 2] {
                let mut p = valid.clone();
                p[at + 4] = tag;
                cases.push((format!("report {i}: tag byte {tag}"), p, tag == 2));
            }
            let shape = shapes[i];
            let foreign = match shape.kind {
                ReportKind::Grr => ReportKind::Olh,
                ReportKind::Olh => ReportKind::Grr,
            };
            for (what, report) in [
                (format!("{foreign} report"), report_of(foreign, 0)),
                (
                    format!("value = bound {}", shape.bound),
                    report_of(shape.kind, shape.bound),
                ),
            ] {
                let mut reports = edge.clone();
                reports[i].report = report;
                let p = encode_batch(2, &reports).unwrap();
                cases.push((
                    format!("report {i} ({} group): {what}", shape.kind),
                    p,
                    true,
                ));
            }
        }
        let mut trailing = valid.clone();
        trailing.push(0);
        cases.push(("one trailing byte".into(), trailing, true));
        cases.push(("batch id 0".into(), encode_batch(0, &edge).unwrap(), true));

        let mut reached: BTreeMap<String, usize> = BTreeMap::new();
        for (name, payload, malformed_only) in cases {
            let mut session = connect(&ctx, &queue, &stats);
            let out = session.on_frame(batch_frame(ctx.plan_hash, payload), &ctx, &queue, &stats);
            let err = out.close.unwrap_or_else(|| panic!("{name}: accepted"));
            assert!(out.accepted.is_none(), "{name}: accepted");
            assert!(
                matches!(&out.reply, Reply::Frame(f) if f.kind == FrameKind::Error),
                "{name}: no Error reply"
            );
            let path = match &err {
                WireError::Truncated { .. } if !malformed_only => "Truncated".to_string(),
                WireError::Malformed(m) => {
                    // The message with its numbers elided names the path.
                    let mut cause = String::new();
                    for c in m.chars() {
                        let c = if c.is_ascii_digit() { '#' } else { c };
                        if !(c == '#' && cause.ends_with('#')) {
                            cause.push(c);
                        }
                    }
                    format!("Malformed({cause})")
                }
                other => panic!("{name}: unexpected {other:?}"),
            };
            *reached.entry(path).or_default() += 1;
            assert_eq!(ctx.dedup_pairs(), vec![(CLIENT, 1)], "{name}: cursor moved");
            assert_eq!(queue.len(), 1, "{name}: queue changed");
        }
        for (path, n) in &reached {
            println!("{n:4} × {path}");
        }

        // Resending batch 1 is a duplicate: acked, not queued again.
        let out = session.on_frame(
            batch_frame(ctx.plan_hash, encode_batch(1, &edge).unwrap()),
            &ctx,
            &queue,
            &stats,
        );
        assert!(out.close.is_none() && out.accepted.is_none(), "duplicate");
        assert_eq!(queue.len(), 1);

        // The edge batch is counted once, exactly as offline ingestion
        // counts it.
        let mut served = Aggregator::with_oracles(Arc::clone(&plan), Arc::clone(&oracles));
        match queue.pop_timeout(std::time::Duration::ZERO) {
            PopResult::Item(batch) => served.ingest_admitted(&batch),
            _ => panic!("the edge batch must be queued"),
        }
        let mut offline = Aggregator::with_oracles(Arc::clone(&plan), oracles);
        offline.ingest_batch(&edge).unwrap();
        assert!(served.group_sizes().iter().all(|&n| n == 1));
        assert_eq!(served.counts_digest(), offline.counts_digest());
    }
}
