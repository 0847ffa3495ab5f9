//! Incremental estimation: serve λ-D frequency queries from streaming
//! counts without re-running the full batch pipeline per query.
//!
//! [`QueryEngine`] keeps the last post-processed [`Estimator`] keyed by
//! the **head token** of the cut it was built from — a value the cut's
//! source changes whenever its counts change (the ingest server's report
//! total, the cluster aggregator's merge version). A refresh at the cached
//! token reuses that estimator, with its warm response-matrix cache; any
//! other refresh runs [`Aggregator::estimate`] once on the cut. There is
//! no per-grid cache: post-processing (norm-sub + cross-grid consistency,
//! DESIGN.md §17) couples every grid that shares an attribute, so a change
//! to any one grid re-runs the costly global step anyway.
//!
//! The headline invariant — an answer is **bit-identical** to the offline
//! batch estimate on the same counts — therefore holds by construction:
//! the engine's estimator *is* `Aggregator::estimate` of its cut.
//!
//! Each refresh that estimates advances the engine's **epoch** — the cache
//! key exposed on the wire (`QueryReply.epoch`) so clients can reason about
//! answer staleness relative to the ingest head.

use std::sync::Arc;

use felip_common::Result;

use crate::aggregator::{Aggregator, OracleSet};
use crate::answer::Estimator;
use crate::plan::CollectionPlan;

/// What one [`QueryEngine`] refresh did, plus the estimator to answer
/// queries from.
#[derive(Debug, Clone)]
pub struct RefreshOutcome {
    /// The post-processed estimator for the refreshed counts.
    pub estimator: Arc<Estimator>,
    /// Ingest epoch this estimator is keyed by.
    pub epoch: u64,
    /// Total reports behind the estimator (sum of group sizes).
    pub reports: u64,
    /// True when the refresh reused the cached estimator (its head token
    /// had not moved).
    pub warm: bool,
    /// Grids estimated by this refresh: every grid, or 0 when warm.
    pub refreshed_grids: usize,
}

/// The incremental estimation engine (DESIGN.md §17): the last estimate
/// and the head token of the cut it was built from.
pub struct QueryEngine {
    plan: Arc<CollectionPlan>,
    oracles: Arc<OracleSet>,
    epoch: u64,
    /// The last estimate (stored as its warm outcome) and its head token.
    last: Option<(u64, RefreshOutcome)>,
}

impl QueryEngine {
    /// A cold engine for `plan`: epoch 0, nothing cached.
    pub fn new(plan: Arc<CollectionPlan>, oracles: Arc<OracleSet>) -> Self {
        QueryEngine {
            plan,
            oracles,
            epoch: 0,
            last: None,
        }
    }

    /// Current cache epoch: 0 means nothing cached; advances by one on
    /// every refresh that estimates.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The last estimate, whatever head it was built from.
    pub fn latest(&self) -> Option<RefreshOutcome> {
        self.last.as_ref().map(|(_, out)| out.clone())
    }

    /// The last estimate when it was built from head `token` — the one
    /// warm check.
    pub fn cached(&self, token: u64) -> Option<RefreshOutcome> {
        match &self.last {
            Some((t, out)) if *t == token => Some(out.clone()),
            _ => None,
        }
    }

    /// The estimate for `cut`, whose source's head token is `token`: the
    /// cached estimator when it was built from `token`, otherwise one
    /// [`Aggregator::estimate`] of the cut, which advances the epoch.
    pub fn refresh_at(&mut self, cut: &Aggregator, token: u64) -> Result<RefreshOutcome> {
        if let Some(out) = self.cached(token) {
            return Ok(out);
        }
        let estimator = Arc::new(cut.estimate()?);
        self.epoch += 1;
        let out = RefreshOutcome {
            estimator,
            epoch: self.epoch,
            reports: cut.reports_ingested() as u64,
            warm: false,
            refreshed_grids: self.plan.num_groups(),
        };
        let warm = RefreshOutcome {
            warm: true,
            refreshed_grids: 0,
            ..out.clone()
        };
        self.last = Some((token, warm));
        Ok(out)
    }

    /// Refreshes from an aggregator that only grows between calls (ingest
    /// and merge only add reports), so its report total is its head token
    /// — as in the ingest server's cut.
    pub fn refresh_from(&mut self, agg: &Aggregator) -> Result<RefreshOutcome> {
        self.refresh_at(agg, agg.reports_ingested() as u64)
    }

    /// Refreshes from raw counts in the plan's shape, keyed like
    /// [`refresh_from`](QueryEngine::refresh_from). Shape errors come from
    /// [`Aggregator::restore`].
    pub fn refresh(
        &mut self,
        counts: &[Vec<u64>],
        group_sizes: &[usize],
    ) -> Result<RefreshOutcome> {
        let cut = Aggregator::restore(
            Arc::clone(&self.plan),
            Arc::clone(&self.oracles),
            counts.to_vec(),
            group_sizes.to_vec(),
        )?;
        self.refresh_from(&cut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::respond;
    use crate::config::{FelipConfig, Strategy};
    use felip_common::rng::{derive_seed, seeded_rng};
    use felip_common::{Attribute, Error, Schema};

    fn plan() -> Arc<CollectionPlan> {
        let schema = Schema::new(vec![
            Attribute::numerical("a", 32),
            Attribute::categorical("b", 4),
            Attribute::numerical("c", 16),
        ])
        .unwrap();
        let config = FelipConfig::new(1.0).with_strategy(Strategy::Ohg);
        Arc::new(CollectionPlan::build(&schema, 4_000, &config, 7).unwrap())
    }

    fn reports(plan: &Arc<CollectionPlan>, users: std::ops::Range<usize>, seed: u64) -> Aggregator {
        let mut agg = Aggregator::new(Arc::clone(plan));
        let schema = plan.schema();
        for user in users {
            let mut rng = seeded_rng(derive_seed(seed, user as u64));
            let record: Vec<u32> = (0..schema.len())
                .map(|a| (user as u32).wrapping_mul(a as u32 + 3) % schema.domain(a))
                .collect();
            let report = respond(plan, user, &record, &mut rng).unwrap();
            agg.ingest(&report).unwrap();
        }
        agg
    }

    #[test]
    fn cold_refresh_matches_batch_estimate_bit_identically() {
        let plan = plan();
        let agg = reports(&plan, 0..500, 11);
        let mut engine = QueryEngine::new(agg.plan_handle(), agg.oracles());
        let out = engine.refresh_from(&agg).unwrap();
        let batch = agg.estimate().unwrap();
        assert!(!out.warm);
        assert_eq!(out.epoch, 1);
        assert_eq!(out.refreshed_grids, plan.num_groups());
        for (inc, off) in out.estimator.grids().iter().zip(batch.grids()) {
            assert_eq!(inc.freqs(), off.freqs(), "grid freqs must be bit-identical");
        }
    }

    #[test]
    fn warm_refresh_is_a_cache_hit_and_same_estimator() {
        let plan = plan();
        let agg = reports(&plan, 0..400, 13);
        let mut engine = QueryEngine::new(agg.plan_handle(), agg.oracles());
        let first = engine.refresh_from(&agg).unwrap();
        let second = engine.refresh_from(&agg).unwrap();
        assert!(second.warm);
        assert_eq!((second.epoch, second.refreshed_grids), (first.epoch, 0));
        assert!(Arc::ptr_eq(&first.estimator, &second.estimator));
        assert!(Arc::ptr_eq(
            &engine.cached(400).unwrap().estimator,
            &first.estimator
        ));
        assert!(engine.cached(401).is_none());
    }

    #[test]
    fn a_moved_token_estimates_the_cut_again() {
        let plan = plan();
        let agg = reports(&plan, 0..600, 17);
        let mut engine = QueryEngine::new(agg.plan_handle(), agg.oracles());
        let first = engine.refresh_at(&agg, 5).unwrap();

        let mut counts: Vec<Vec<u64>> = agg.counts().to_vec();
        let mut sizes = agg.group_sizes().to_vec();
        counts[0][0] += 3;
        sizes[0] += 3;
        let mutated = Aggregator::restore(agg.plan_handle(), agg.oracles(), counts, sizes).unwrap();
        let out = engine.refresh_at(&mutated, 6).unwrap();
        assert!(!out.warm);
        assert_eq!((out.epoch, out.refreshed_grids), (2, plan.num_groups()));
        assert!(!Arc::ptr_eq(&out.estimator, &first.estimator));
        let offline = mutated.estimate().unwrap();
        for (inc, off) in out.estimator.grids().iter().zip(offline.grids()) {
            assert_eq!(inc.freqs(), off.freqs());
        }
    }

    #[test]
    fn empty_counts_are_rejected_like_batch() {
        let plan = plan();
        let agg = Aggregator::new(Arc::clone(&plan));
        let mut engine = QueryEngine::new(agg.plan_handle(), agg.oracles());
        let err = engine.refresh_from(&agg).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
        assert_eq!(engine.epoch(), 0);
        assert!(engine.latest().is_none());
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let plan = plan();
        let agg = reports(&plan, 0..100, 23);
        let mut engine = QueryEngine::new(agg.plan_handle(), agg.oracles());
        let err = engine
            .refresh(&agg.counts()[..1], &agg.group_sizes()[..1])
            .unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
        let mut bad = agg.counts().to_vec();
        bad[0].push(0);
        let err = engine.refresh(&bad, agg.group_sizes()).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
    }
}
