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
//! 2. Under the engine lock, compare the source's **head token** against
//!    the token the cached epoch was built from. When it matches and the
//!    query asks `Cached`, it is served straight from the cached
//!    estimator — no cut, no post-processing.
//! 3. Otherwise take **one** consistent cut and [`QueryEngine::refresh`]
//!    from it — re-estimating only the grids whose counts moved — then
//!    answer from the refreshed estimator.
//!
//! The engine lock is held across cut + refresh + token update, so a
//! query can never pair counts from epoch N with a cached grid from
//! epoch N−1 (the invariant the felip-sync model test explores
//! exhaustively). Replies carry the answer's epoch *and* the head epoch
//! at answer time, so clients can compute staleness as
//! `head_epoch - epoch`.

use std::time::Instant;

use felip_sync::{Arc, Mutex};

use felip::aggregator::{Aggregator, OracleSet};
use felip::client::UserReport;
use felip::plan::CollectionPlan;
use felip::query::QueryEngine;
use felip::Estimator;
use felip_common::Query;

use crate::queue::BoundedQueue;
use crate::server::{consistent_cut, AtomicStats};
use crate::session::SessionCtx;
use crate::wire::{Frame, FrameKind, QueryAnswer, QueryMode, QueryRequest, WireError};

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
    pub queues: Vec<Arc<BoundedQueue<Vec<UserReport>>>>,
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

/// The engine plus the head token its cached epoch was built from,
/// guarded together so epoch and token can never tear apart.
struct EngineState {
    engine: QueryEngine,
    token: u64,
}

/// Query answering over one [`CutSource`]: the incremental estimation
/// engine and the token its cached epoch corresponds to.
pub struct QueryService<S> {
    plan: Arc<CollectionPlan>,
    source: S,
    engine: Mutex<EngineState>,
}

impl<S: CutSource> QueryService<S> {
    /// A cold service over `source`. Always cold — a restarted server or
    /// aggregator can never answer from a grid cached before its restore.
    pub fn new(plan: Arc<CollectionPlan>, oracles: Arc<OracleSet>, source: S) -> QueryService<S> {
        let engine = QueryEngine::new(Arc::clone(&plan), oracles);
        QueryService {
            plan,
            source,
            engine: Mutex::new(EngineState { engine, token: 0 }),
        }
    }

    /// Answers one query, serving from the cached epoch when it is still
    /// the head and the query asks `Cached`, and otherwise from one fresh
    /// consistent cut and refresh. The answer is bit-identical to the
    /// offline estimate on that cut. Errors (invalid predicates, empty
    /// collection) are `Malformed` — callers answer them with an `Error`
    /// frame without closing the connection.
    pub fn answer(&self, req: &QueryRequest) -> Result<QueryAnswer, WireError> {
        let query = Query::new(self.plan.schema(), req.predicates.clone())
            .map_err(|e| WireError::Malformed(format!("invalid query: {e}")))?;
        let failed = |e: felip_common::Error| WireError::Malformed(format!("query failed: {e}"));

        let mut st = self.engine.lock();
        let head = self.source.head();
        if req.mode == QueryMode::Cached && st.token == head {
            if let Some(estimator) = st.engine.estimator() {
                let epoch = st.engine.epoch();
                let answer = timed_answer(&estimator, &query).map_err(failed)?;
                return Ok(QueryAnswer {
                    query_id: req.query_id,
                    answer,
                    epoch,
                    head_epoch: epoch,
                    reports: st.engine.reports(),
                });
            }
        }

        // Stale cache (or Fresh mode): one consistent cut, then an
        // incremental refresh that re-estimates only the changed grids.
        let t = Instant::now();
        let (merged, token) = self.source.cut().map_err(failed)?;
        let t_cut = Instant::now();
        felip_obs::hist!("server.query.cut", (t_cut - t).as_nanos() as u64, "ns");
        let out = st.engine.refresh_from(&merged).map_err(failed)?;
        felip_obs::hist!(
            "server.query.refresh",
            t_cut.elapsed().as_nanos() as u64,
            "ns"
        );
        st.token = token;
        let answer = timed_answer(&out.estimator, &query).map_err(failed)?;
        // The head may have moved on while post-processing ran; surface
        // that as one epoch of staleness so the client can tell.
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

/// Answers `query` from `estimator`, recording `server.query.answer`.
fn timed_answer(estimator: &Estimator, query: &Query) -> Result<f64, felip_common::Error> {
    let t = Instant::now();
    let answer = estimator.answer(query)?;
    felip_obs::hist!("server.query.answer", t.elapsed().as_nanos() as u64, "ns");
    Ok(answer)
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
