//! Online query serving (DESIGN.md §17): the one service behind the v5
//! `Query` wire verb on both tiers.
//!
//! A [`QueryService`] owns a [`QueryEngine`] guarded by one mutex and a
//! [`CutSource`] — where consistent count cuts come from. The ingest
//! server's source ([`ServeCut`]) freezes admission and merges base +
//! shards; the cluster aggregator's is its `ClusterState` versioned merge.
//! Answering a query:
//!
//! 1. Validate the query's predicates against the plan's schema.
//! 2. Under the engine lock, a query whose source **head token** is the
//!    one the engine's estimate was built from is served straight from
//!    that estimator — no cut, no estimate. This holds for `Fresh` as for
//!    `Cached`: an unmoved head proves a cut would carry the same token.
//! 3. Otherwise take **one** consistent cut and refresh the engine at the
//!    cut's token: a cut that carries the cached token reuses the cached
//!    estimator, any other is estimated once and advances the epoch.
//!
//! Each answered query counts one `query.cache.hit` (served from the
//! cached estimator) or one `query.cache.miss` (estimated). The engine
//! lock is held across cut + refresh + answer, so a query can never pair
//! counts from epoch N with an estimator from epoch N−1 (the invariant the
//! felip-sync model test explores exhaustively). Replies carry the
//! answer's epoch *and* the head epoch at answer time, so clients can
//! compute staleness as `head_epoch - epoch`.

use std::time::Instant;

use felip_sync::{Arc, Mutex};

use felip::aggregator::{Admitted, Aggregator, OracleSet};
use felip::plan::CollectionPlan;
use felip::query::QueryEngine;
use felip_common::Query;

use crate::queue::BoundedQueue;
use crate::server::{consistent_cut, AtomicStats};
use crate::session::SessionCtx;
use crate::wire::{Frame, FrameKind, QueryAnswer, QueryRequest, WireError};

/// Where a [`QueryService`] takes its consistent cuts from.
pub trait CutSource {
    /// A cheap token that changes whenever the counts a cut would see
    /// change (read without cutting anything).
    fn head(&self) -> u64;

    /// A consistent cut of the counts plus the head token it corresponds
    /// to. `Err` means no consistent merged view exists (a count
    /// overflowed `u64`).
    fn cut(&self) -> Result<(Aggregator, u64), felip_common::Error>;
}

impl<S: CutSource + ?Sized> CutSource for Arc<S> {
    fn head(&self) -> u64 {
        (**self).head()
    }

    fn cut(&self) -> Result<(Aggregator, u64), felip_common::Error> {
        (**self).cut()
    }
}

/// The serve run's cut source: the resume base, the worker shards and
/// their queues, cut by [`consistent_cut`]. The head token is resume-base
/// reports + reports accepted so far (one relaxed load).
pub(crate) struct ServeCut {
    pub ctx: Arc<SessionCtx>,
    pub stats: Arc<AtomicStats>,
    pub base: Arc<Mutex<Aggregator>>,
    pub shards: Arc<Vec<Mutex<Aggregator>>>,
    pub queues: Vec<Arc<BoundedQueue<Admitted>>>,
    /// Reports already inside the resume base at startup; accepted-report
    /// counters start at zero.
    pub base_reports: u64,
}

impl CutSource for ServeCut {
    fn head(&self) -> u64 {
        self.base_reports + self.stats.reports_accepted()
    }

    fn cut(&self) -> Result<(Aggregator, u64), felip_common::Error> {
        let (merged, _cursors) = consistent_cut(
            &self.ctx,
            &self.ctx.plan,
            &self.ctx.oracles,
            &self.base,
            &self.shards,
            &self.queues,
        )?;
        // At the cut instant, accepted == drained, so the merged report
        // count *is* the head token the cut corresponds to.
        let token = merged.reports_ingested() as u64;
        Ok((merged, token))
    }
}

/// Query answering over one [`CutSource`]: the incremental estimation
/// engine, which keys its estimate by the source's head token.
pub struct QueryService<S> {
    plan: Arc<CollectionPlan>,
    source: S,
    engine: Mutex<QueryEngine>,
}

impl<S: CutSource> QueryService<S> {
    /// A cold service over `source`. Always cold — a restarted server or
    /// aggregator can never answer from an estimate made before its restore.
    pub fn new(plan: Arc<CollectionPlan>, oracles: Arc<OracleSet>, source: S) -> QueryService<S> {
        let engine = QueryEngine::new(Arc::clone(&plan), oracles);
        QueryService {
            plan,
            source,
            engine: Mutex::new(engine),
        }
    }

    /// Answers one query, serving from the cached estimate when its head
    /// token has not moved, and otherwise from one consistent cut. The answer is bit-identical to the offline
    /// estimate on that cut. Errors (invalid predicates, empty collection)
    /// are `Malformed` — callers answer them with an `Error` frame without
    /// closing the connection.
    pub fn answer(&self, req: &QueryRequest) -> Result<QueryAnswer, WireError> {
        let query = Query::new(self.plan.schema(), req.predicates.clone())
            .map_err(|e| WireError::Malformed(format!("invalid query: {e}")))?;
        let failed = |e: felip_common::Error| WireError::Malformed(format!("query failed: {e}"));

        let mut engine = self.engine.lock();
        let head = self.source.head();
        let (out, token) = match engine.cached(head) {
            Some(out) => (out, head),
            None => {
                let t = Instant::now();
                let (merged, token) = self.source.cut().map_err(failed)?;
                let t_cut = Instant::now();
                felip_obs::hist!("server.query.cut", (t_cut - t).as_nanos() as u64, "ns");
                let out = engine.refresh_at(&merged, token).map_err(failed)?;
                felip_obs::hist!(
                    "server.query.refresh",
                    t_cut.elapsed().as_nanos() as u64,
                    "ns"
                );
                (out, token)
            }
        };
        let answer = out.estimator.answer(&query).map_err(failed)?;
        if out.warm {
            felip_obs::counter!("query.cache.hit", 1, "queries");
        } else {
            felip_obs::counter!("query.cache.miss", 1, "queries");
        }
        // The head may have moved on past the answer's token while it was
        // estimated or answered; surface that as one epoch of staleness.
        let head_epoch = out.epoch + u64::from(self.source.head() != token);
        Ok(QueryAnswer {
            query_id: req.query_id,
            answer,
            epoch: out.epoch,
            head_epoch,
            reports: out.reports,
        })
    }
}

/// The reply frame for one answered query on either tier (`QueryReply`,
/// or an `Error` frame that keeps the connection open).
pub(crate) fn reply_frame(plan_hash: u64, answer: Result<QueryAnswer, WireError>) -> Frame {
    match answer {
        Ok(ans) => {
            felip_obs::counter!("server.query.answered", 1, "queries");
            Frame {
                kind: FrameKind::QueryReply,
                plan_hash,
                payload: crate::wire::encode_query_reply(&ans),
            }
        }
        Err(e) => {
            felip_obs::counter!("server.query.errors", 1, "queries");
            Frame::error(plan_hash, &e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::offline_reference;
    use crate::wire::{decode_query_reply, QueryMode};
    use felip::config::FelipConfig;
    use felip_common::{Attribute, Predicate, Schema};
    use felip_sync::atomic::{AtomicU64, Ordering};

    /// A cut source over fixed counts.
    struct Fixed {
        plan: Arc<CollectionPlan>,
        counts: Aggregator,
    }

    impl CutSource for Fixed {
        fn head(&self) -> u64 {
            self.counts.reports_ingested() as u64
        }

        fn cut(&self) -> Result<(Aggregator, u64), felip_common::Error> {
            let mut copy = Aggregator::with_oracles(Arc::clone(&self.plan), self.counts.oracles());
            copy.merge(&self.counts)?;
            Ok((copy, self.head()))
        }
    }

    /// A cut source whose counts grow on demand and which counts its cuts.
    struct Counting {
        plan: Arc<CollectionPlan>,
        counts: Mutex<Aggregator>,
        cuts: AtomicU64,
    }

    impl CutSource for Counting {
        fn head(&self) -> u64 {
            self.counts.lock().reports_ingested() as u64
        }

        fn cut(&self) -> Result<(Aggregator, u64), felip_common::Error> {
            self.cuts.fetch_add(1, Ordering::SeqCst);
            let counts = self.counts.lock();
            let mut copy = Aggregator::with_oracles(Arc::clone(&self.plan), counts.oracles());
            copy.merge(&counts)?;
            let head = counts.reports_ingested() as u64;
            Ok((copy, head))
        }
    }

    /// Neither mode cuts while the head token stands still; after the head
    /// moves, the next query of either mode takes exactly one cut.
    #[test]
    fn an_unmoved_head_takes_no_cut_in_either_mode() {
        let schema = Schema::new(vec![
            Attribute::numerical("a", 32),
            Attribute::categorical("c", 4),
        ])
        .unwrap();
        let plan =
            Arc::new(CollectionPlan::build(&schema, 200, &FelipConfig::new(1.0), 3).unwrap());
        let source = Arc::new(Counting {
            plan: Arc::clone(&plan),
            counts: Mutex::new(offline_reference(&plan, 0..100, 5).unwrap()),
            cuts: AtomicU64::new(0),
        });
        let oracles = source.counts.lock().oracles();
        let service = QueryService::new(Arc::clone(&plan), oracles, Arc::clone(&source));
        let ask = |query_id, mode| QueryRequest {
            query_id,
            mode,
            predicates: vec![Predicate::between(0, 4, 20)],
        };
        let cuts = || source.cuts.load(Ordering::SeqCst);

        let first = service.answer(&ask(1, QueryMode::Fresh)).unwrap();
        assert_eq!(cuts(), 1, "a cold engine cuts once");
        for (id, mode) in [(2, QueryMode::Fresh), (3, QueryMode::Cached)] {
            let again = service.answer(&ask(id, mode)).unwrap();
            assert_eq!(cuts(), 1, "{mode:?} on an unmoved head took a cut");
            assert_eq!(again.epoch, first.epoch);
            assert_eq!(again.answer.to_bits(), first.answer.to_bits());
        }

        let more = offline_reference(&plan, 100..150, 5).unwrap();
        source.counts.lock().merge(&more).unwrap();
        let moved = service.answer(&ask(4, QueryMode::Fresh)).unwrap();
        assert_eq!(cuts(), 2, "a moved head takes exactly one cut");
        assert_eq!((moved.reports, moved.epoch), (150, first.epoch + 1));
        service.answer(&ask(5, QueryMode::Cached)).unwrap();
        assert_eq!(cuts(), 2);
    }

    /// A query with more predicates than the λ-D fit takes (its cap is
    /// λ = 20) gets an `Error` reply instead of panicking the query
    /// worker, and the next query on the same service is answered.
    #[test]
    fn lambda_past_the_cap_is_an_error_reply() {
        let k = 21;
        let schema = Schema::new(
            (0..k)
                .map(|a| Attribute::categorical(format!("c{a}"), 2))
                .collect(),
        )
        .unwrap();
        let plan =
            Arc::new(CollectionPlan::build(&schema, 2_000, &FelipConfig::new(1.0), 3).unwrap());
        let counts = offline_reference(&plan, 0..2_000, 5).unwrap();
        let oracles = counts.oracles();
        let source = Fixed {
            plan: Arc::clone(&plan),
            counts,
        };
        let service = QueryService::new(Arc::clone(&plan), oracles, source);
        let ask = |query_id, lambda: usize| QueryRequest {
            query_id,
            mode: QueryMode::Fresh,
            predicates: (0..lambda).map(|a| Predicate::equals(a, 0)).collect(),
        };

        let reply = reply_frame(plan.schema_hash(), service.answer(&ask(1, k)));
        assert_eq!(reply.kind, FrameKind::Error);
        let msg = String::from_utf8_lossy(&reply.payload);
        assert!(msg.contains("cap of 20"), "{msg}");

        let reply = reply_frame(plan.schema_hash(), service.answer(&ask(2, 3)));
        assert_eq!(reply.kind, FrameKind::QueryReply);
        let ans = decode_query_reply(&reply.payload).unwrap();
        assert_eq!((ans.query_id, ans.reports), (2, 2_000));
    }
}
