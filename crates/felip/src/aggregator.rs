//! Server-side aggregation: streaming ingestion of user reports, frequency
//! estimation, and post-processing.
//!
//! Untrusted reports are checked once, against a per-grid table of
//! [`ReportShape`]s the [`OracleSet`] builds with the plan: the group
//! index names a grid, and the report has that grid's kind and a value
//! below its bound. [`OracleSet::admit`] turns a batch that passes into an
//! [`Admitted`] batch — a type nothing else can build — and
//! [`Aggregator::ingest_admitted`] counts one without checking it again.
//! The served ingest path admits on the connection's thread before the
//! ack and counts on an ingest worker; [`Aggregator::ingest_batch`] does
//! both in one call.

use std::sync::Arc;

use felip_common::{Error, Result};
use felip_fo::afo::make_oracle;
use felip_fo::report::ReportShape;
use felip_fo::{FrequencyOracle, Report};
use felip_grid::postprocess::post_process;
use felip_grid::EstimatedGrid;

use crate::answer::Estimator;
use crate::client::UserReport;
use crate::plan::CollectionPlan;

/// One frequency oracle per grid of a [`CollectionPlan`], instantiated once
/// and shared (`Arc`) across every aggregator collecting for that plan.
///
/// Oracles are stateless parameter bundles, but building one still walks the
/// plan's grid specs; sharding a collection across many [`Aggregator`]s used
/// to rebuild the full set per shard. Building the set once and handing
/// clones of the `Arc` to [`Aggregator::with_oracles`] makes shard spin-up
/// allocation-free apart from the count vectors.
pub struct OracleSet {
    oracles: Vec<Box<dyn FrequencyOracle>>,
    /// `oracles[g].shape()`, tabulated once: the admission table.
    shapes: Vec<ReportShape>,
}

impl OracleSet {
    /// Instantiates the oracle for every grid in `plan`, in grid order.
    pub fn build(plan: &CollectionPlan) -> Self {
        let oracles: Vec<Box<dyn FrequencyOracle>> = plan
            .grids()
            .iter()
            .map(|g| make_oracle(g.fo, plan.config().epsilon, g.num_cells()))
            .collect();
        let shapes = oracles.iter().map(|o| o.shape()).collect();
        OracleSet { oracles, shapes }
    }

    /// Checks one untrusted report: its group names a grid, and the report
    /// has that grid's [`ReportShape`]. A mismatch yields
    /// [`Error::ReportMismatch`] (or [`Error::InvalidReport`] for an
    /// out-of-range group), never a panic.
    #[inline]
    pub fn check(&self, report: &UserReport) -> Result<()> {
        match self.shapes.get(report.group) {
            Some(shape) => shape.check(&report.report),
            None => Err(Error::InvalidReport(format!(
                "group {} out of range 0..{}",
                report.group,
                self.shapes.len()
            ))),
        }
    }

    /// Checks every report of a batch ([`OracleSet::check`]), stopping at
    /// the first bad one.
    pub fn check_batch(&self, reports: &[UserReport]) -> Result<()> {
        reports.iter().try_for_each(|r| self.check(r))
    }

    /// The one admission check for untrusted reports: a batch whose every
    /// report passes [`OracleSet::check`] becomes [`Admitted`]; otherwise
    /// the first failure is returned and the batch is dropped.
    pub fn admit(&self, reports: Vec<UserReport>) -> Result<Admitted> {
        self.check_batch(&reports)?;
        Ok(Admitted { reports })
    }

    /// The oracle serving group/grid `g`.
    pub fn get(&self, g: usize) -> &dyn FrequencyOracle {
        &*self.oracles[g]
    }

    /// Number of oracles (== the plan's number of grids).
    pub fn len(&self) -> usize {
        self.oracles.len()
    }

    /// Whether the set is empty (a plan always has at least one grid).
    pub fn is_empty(&self) -> bool {
        self.oracles.is_empty()
    }
}

impl std::fmt::Debug for OracleSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleSet")
            .field("oracles", &self.oracles.len())
            .finish()
    }
}

/// A batch of user reports that passed [`OracleSet::admit`]. Only `admit`
/// builds one, so [`Aggregator::ingest_admitted`] counts it without a
/// second check. Count it into an aggregator sharing the oracle set that
/// admitted it (every aggregator of one plan does).
#[derive(Debug, Clone, PartialEq)]
pub struct Admitted {
    reports: Vec<UserReport>,
}

impl Admitted {
    /// The admitted reports, in arrival order.
    pub fn reports(&self) -> &[UserReport] {
        &self.reports
    }

    /// Number of reports in the batch.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether the batch holds no reports.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }
}

/// Lays `reports` out group by group — a counting sort, keeping their order
/// within a group — where `groups[i]` (below `num_groups`) is the group of
/// the `i`-th report. Returns the buffer and the run offsets: group `g`'s
/// reports are `sorted[offsets[g]..offsets[g + 1]]`. The buffer is sized
/// once from the group counts instead of growing one buffer per group,
/// and `reports` is consumed in order.
pub(crate) fn sort_by_group(
    groups: &[usize],
    reports: impl Iterator<Item = Report>,
    num_groups: usize,
) -> (Vec<Report>, Vec<usize>) {
    let mut offsets = vec![0usize; num_groups + 1];
    for &g in groups {
        offsets[g + 1] += 1;
    }
    for g in 0..num_groups {
        offsets[g + 1] += offsets[g];
    }
    let mut next = offsets.clone();
    let mut sorted = vec![Report::Grr(0); groups.len()];
    for (&g, report) in groups.iter().zip(reports) {
        sorted[next[g]] = report;
        next[g] += 1;
    }
    (sorted, offsets)
}

/// The aggregator: ingests perturbed reports group by group, then estimates
/// every grid and post-processes (§5, aggregator side).
///
/// Ingestion is *streaming*: each report is folded into per-grid support
/// counts immediately (GRR: one counter bump; OLH: one hash evaluation per
/// grid cell), so the aggregator's memory is `O(Σ grid cells)` regardless of
/// the population size. Batched ingestion ([`Aggregator::ingest_batch`] /
/// [`Aggregator::ingest_group_batch`]) keeps the same state but routes whole
/// report slices through the oracles' cache-blocked batch kernels.
pub struct Aggregator {
    plan: Arc<CollectionPlan>,
    oracles: Arc<OracleSet>,
    counts: Vec<Vec<u64>>,
    group_sizes: Vec<usize>,
}

impl std::fmt::Debug for Aggregator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aggregator")
            .field("groups", &self.plan.num_groups())
            .field("reports", &self.reports_ingested())
            .finish_non_exhaustive()
    }
}

impl Aggregator {
    /// An empty aggregator for `plan`, building its own oracle set.
    ///
    /// Accepts the plan by value or already wrapped in an `Arc`; when
    /// spinning up many aggregators for one plan (sharded collection),
    /// prefer [`Aggregator::with_oracles`] so the plan and oracles are
    /// shared rather than rebuilt per shard.
    pub fn new(plan: impl Into<Arc<CollectionPlan>>) -> Self {
        let plan = plan.into();
        let oracles = Arc::new(OracleSet::build(&plan));
        Aggregator::with_oracles(plan, oracles)
    }

    /// An empty aggregator sharing an existing plan and oracle set.
    ///
    /// # Panics
    /// Panics when `oracles` was not built for a plan with the same number
    /// of grids.
    pub fn with_oracles(plan: Arc<CollectionPlan>, oracles: Arc<OracleSet>) -> Self {
        assert_eq!(
            oracles.len(),
            plan.grids().len(),
            "oracle set does not match the plan's grids"
        );
        let counts = plan
            .grids()
            .iter()
            .map(|g| vec![0u64; g.num_cells() as usize])
            .collect();
        let group_sizes = vec![0; plan.num_groups()];
        Aggregator {
            plan,
            oracles,
            counts,
            group_sizes,
        }
    }

    /// Rebuilds an aggregator from previously captured state (a durable
    /// snapshot): per-grid support counts plus per-group report tallies.
    ///
    /// Counts are exact `u64` tallies, so a restored aggregator continues
    /// ingestion — and later estimation — bit-identically to one that never
    /// stopped. Shapes are validated against the plan; a snapshot from a
    /// different plan is rejected with [`Error::InvalidParameter`].
    pub fn restore(
        plan: Arc<CollectionPlan>,
        oracles: Arc<OracleSet>,
        counts: Vec<Vec<u64>>,
        group_sizes: Vec<usize>,
    ) -> Result<Self> {
        if counts.len() != plan.grids().len() {
            return Err(Error::InvalidParameter(format!(
                "snapshot has {} grids, plan has {}",
                counts.len(),
                plan.grids().len()
            )));
        }
        for (g, (grid, cells)) in plan.grids().iter().zip(&counts).enumerate() {
            if cells.len() != grid.num_cells() as usize {
                return Err(Error::InvalidParameter(format!(
                    "snapshot grid {g} has {} cells, plan expects {}",
                    cells.len(),
                    grid.num_cells()
                )));
            }
        }
        if group_sizes.len() != plan.num_groups() {
            return Err(Error::InvalidParameter(format!(
                "snapshot has {} groups, plan has {}",
                group_sizes.len(),
                plan.num_groups()
            )));
        }
        if oracles.len() != plan.grids().len() {
            return Err(Error::InvalidParameter(
                "oracle set does not match the plan's grids".into(),
            ));
        }
        Ok(Aggregator {
            plan,
            oracles,
            counts,
            group_sizes,
        })
    }

    /// The plan this aggregator collects for.
    pub fn plan(&self) -> &CollectionPlan {
        &self.plan
    }

    /// The shared plan handle (cheap to clone across shards).
    pub fn plan_handle(&self) -> Arc<CollectionPlan> {
        Arc::clone(&self.plan)
    }

    /// The shared oracle set (cheap to clone across shards).
    pub fn oracles(&self) -> Arc<OracleSet> {
        Arc::clone(&self.oracles)
    }

    /// Number of reports ingested so far.
    pub fn reports_ingested(&self) -> usize {
        self.group_sizes
            .iter()
            // ARITH: diagnostic total — a pegged value beats failing a
            // read-only accessor (per-group sizes stay exact regardless).
            .fold(0usize, |acc, &s| acc.saturating_add(s))
    }

    /// Reports ingested per group.
    pub fn group_sizes(&self) -> &[usize] {
        &self.group_sizes
    }

    /// The raw per-grid support counts accumulated so far (one vector per
    /// grid, indexed by cell) — exact `u64` tallies, so any two ingestion
    /// orders of the same reports yield identical counts.
    pub fn counts(&self) -> &[Vec<u64>] {
        &self.counts
    }

    /// Order-sensitive 64-bit digest of the exact aggregator state (counts
    /// and group sizes). Two aggregators have equal digests iff their state
    /// is bit-identical — a compact fingerprint for determinism checks and
    /// simulation traces, far cheaper to compare and log than the full
    /// count vectors.
    pub fn counts_digest(&self) -> u64 {
        let mut h = 0x6366_5f64_6967_6573u64; // "cf_diges"
        for grid in &self.counts {
            h = felip_common::hash::mix64(h ^ grid.len() as u64);
            for &c in grid {
                h = felip_common::hash::mix64(h ^ c);
            }
        }
        for &s in &self.group_sizes {
            h = felip_common::hash::mix64(h ^ s as u64);
        }
        h
    }

    /// Folds one user report into the group's support counts.
    pub fn ingest(&mut self, report: &UserReport) -> Result<()> {
        let g = report.group;
        if g >= self.plan.num_groups() {
            return Err(Error::InvalidReport(format!(
                "group {g} out of range 0..{}",
                self.plan.num_groups()
            )));
        }
        // One relaxed fetch_add per report — negligible next to the oracle
        // accumulate walk this path already pays per report.
        felip_obs::counter!("felip.ingest.reports", 1, "reports");
        self.oracles
            .get(g)
            .accumulate(&report.report, &mut self.counts[g])?;
        self.group_sizes[g] = self.group_sizes[g].checked_add(1).ok_or_else(|| {
            Error::CountOverflow(format!("group {g} size would exceed usize::MAX"))
        })?;
        Ok(())
    }

    /// Folds a slice of same-group reports into that group's support counts
    /// with one batch-kernel call.
    ///
    /// This is the zero-copy hot path of the ingestion pipeline: callers
    /// that already hold a group's reports contiguously (the sharded
    /// collector buffers per group) hand the slice straight to the oracle's
    /// [`FrequencyOracle::accumulate_batch`], which for OLH runs the
    /// cache-blocked support-counting kernel. Bit-for-bit equivalent to
    /// calling [`Aggregator::ingest`] once per report.
    pub fn ingest_group_batch(&mut self, group: usize, reports: &[Report]) -> Result<()> {
        if group >= self.plan.num_groups() {
            return Err(Error::InvalidReport(format!(
                "group {group} out of range 0..{}",
                self.plan.num_groups()
            )));
        }
        felip_obs::counter!("felip.ingest.batches", 1, "batches");
        felip_obs::counter!("felip.ingest.reports", reports.len(), "reports");
        self.oracles
            .get(group)
            .accumulate_batch(reports, &mut self.counts[group])?;
        self.group_sizes[group] = self.group_sizes[group]
            .checked_add(reports.len())
            .ok_or_else(|| {
                Error::CountOverflow(format!("group {group} size would exceed usize::MAX"))
            })?;
        Ok(())
    }

    /// Folds a mixed-group batch of user reports into the support counts,
    /// bucketing by group and dispatching one batch-kernel call per grid.
    ///
    /// Atomic on invalid input: every report is checked
    /// ([`OracleSet::check`]: group index, protocol and value range) before
    /// any state is touched, so a failed call leaves the aggregator
    /// unchanged. The counting is [`Aggregator::ingest_admitted`]'s.
    pub fn ingest_batch(&mut self, reports: &[UserReport]) -> Result<()> {
        self.oracles.check_batch(reports)?;
        self.ingest_checked(reports);
        Ok(())
    }

    /// Folds an [`Admitted`] batch into the support counts. The batch was
    /// checked when it was admitted, so this cannot fail: it buckets the
    /// reports by group and runs each grid's unchecked kernel
    /// ([`FrequencyOracle::count_batch`]) once.
    pub fn ingest_admitted(&mut self, batch: &Admitted) {
        self.ingest_checked(batch.reports());
    }

    /// Counts reports that passed [`OracleSet::check`]. Bucketing copies
    /// each (fixed-size) report once into one buffer laid out group by
    /// group ([`sort_by_group`]); when reports are already grouped
    /// contiguously, [`Aggregator::ingest_group_batch`] avoids even that.
    fn ingest_checked(&mut self, reports: &[UserReport]) {
        let groups: Vec<usize> = reports.iter().map(|r| r.group).collect();
        let (sorted, offsets) = sort_by_group(
            &groups,
            reports.iter().map(|r| r.report),
            self.plan.num_groups(),
        );
        for (g, run) in offsets.windows(2).enumerate() {
            let run = &sorted[run[0]..run[1]];
            if run.is_empty() {
                continue;
            }
            felip_obs::counter!("felip.ingest.batches", 1, "batches");
            felip_obs::counter!("felip.ingest.reports", run.len(), "reports");
            self.oracles.get(g).count_batch(run, &mut self.counts[g]);
            // ARITH: a usize tally cannot reach 2^64 reports, like the
            // u64 support counts beside it; merge paths use checked_add.
            self.group_sizes[g] = self.group_sizes[g].wrapping_add(run.len());
        }
    }

    /// Merges another aggregator built from the *same plan* (used to combine
    /// per-shard aggregators after parallel ingestion).
    ///
    /// On `Err` (shape mismatch or a count that would overflow) the
    /// receiver's state is unspecified — discard it; a partially merged
    /// aggregator must never feed an estimate.
    ///
    /// # Panics
    /// Panics when the two aggregators have different group structures.
    pub fn merge(&mut self, other: &Aggregator) -> Result<()> {
        assert_eq!(self.counts.len(), other.counts.len(), "plans differ");
        for (g, (mine, theirs)) in self.counts.iter_mut().zip(&other.counts).enumerate() {
            assert_eq!(mine.len(), theirs.len(), "grid shapes differ");
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a = a.checked_add(*b).ok_or_else(|| {
                    Error::CountOverflow(format!(
                        "grid {g} support count would exceed u64::MAX in merge"
                    ))
                })?;
            }
        }
        for (g, (a, b)) in self
            .group_sizes
            .iter_mut()
            .zip(&other.group_sizes)
            .enumerate()
        {
            *a = a.checked_add(*b).ok_or_else(|| {
                Error::CountOverflow(format!("group {g} size would exceed usize::MAX in merge"))
            })?;
        }
        Ok(())
    }

    /// Estimates every grid's cell frequencies, runs post-processing
    /// (consistency + non-negativity, §5.4), and returns the query-answering
    /// [`Estimator`].
    pub fn estimate(&self) -> Result<Estimator> {
        let _span = felip_obs::span!("estimate");
        if self.reports_ingested() == 0 {
            return Err(Error::InvalidParameter("no reports ingested".into()));
        }
        let mut grids: Vec<EstimatedGrid> = self
            .plan
            .grids()
            .iter()
            .zip(&self.oracles.oracles)
            .zip(&self.counts)
            .zip(&self.group_sizes)
            .map(|(((spec, oracle), counts), &size)| {
                let freqs = oracle.estimate_from_counts(counts, size);
                EstimatedGrid::new(spec.clone(), freqs)
            })
            .collect();
        let variances = self.plan.cell_variances();
        post_process(
            &mut grids,
            self.plan.schema().len(),
            &variances,
            self.plan.config().postprocess_rounds,
        )?;
        Ok(Estimator::new(Arc::clone(&self.plan), grids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::respond;
    use crate::config::{FelipConfig, Strategy};
    use felip_common::rng::seeded_rng;
    use felip_common::{Attribute, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::numerical("a", 32),
            Attribute::categorical("c", 3),
        ])
        .unwrap()
    }

    fn collected(n: usize, seed: u64) -> Aggregator {
        let cfg = FelipConfig::new(1.0).with_strategy(Strategy::Ohg);
        let plan = CollectionPlan::build(&schema(), n, &cfg, seed).unwrap();
        let mut agg = Aggregator::new(plan.clone());
        let mut rng = seeded_rng(seed);
        for u in 0..n {
            // Deterministic synthetic population: a in the lower half,
            // c biased to 0.
            let a = (u % 16) as u32;
            let c = if u % 4 == 0 { 1 } else { 0 };
            let r = respond(&plan, u, &[a, c], &mut rng).unwrap();
            agg.ingest(&r).unwrap();
        }
        agg
    }

    #[test]
    fn ingest_counts_by_group() {
        let agg = collected(5_000, 1);
        assert_eq!(agg.reports_ingested(), 5_000);
        assert!(agg.group_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn estimate_produces_valid_grids() {
        let est = collected(20_000, 2).estimate().unwrap();
        for g in est.grids() {
            assert!(g.freqs().iter().all(|&f| f >= 0.0));
            assert!((g.total() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn estimates_reflect_the_data() {
        // All mass in a ∈ [0, 16): the 1-D grid for attribute 0 must put
        // (nearly) everything in the lower half.
        let est = collected(40_000, 3).estimate().unwrap();
        let g = est
            .grids()
            .iter()
            .find(|g| g.spec().id() == felip_grid::GridId::One(0))
            .expect("OHG has a 1-D grid for attr 0");
        let lower: f64 = g
            .freqs()
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let (lo, _) = g.spec().axes()[0].binning.cell_range(*i as u32);
                lo < 16
            })
            .map(|(_, f)| f)
            .sum();
        assert!(lower > 0.8, "lower-half mass {lower}");
    }

    #[test]
    fn merge_equals_sequential() {
        let cfg = FelipConfig::new(1.0);
        let plan = CollectionPlan::build(&schema(), 1_000, &cfg, 9).unwrap();
        let mut rng = seeded_rng(9);
        let reports: Vec<_> = (0..1_000)
            .map(|u| respond(&plan, u, &[(u % 32) as u32, 0], &mut rng).unwrap())
            .collect();

        let mut whole = Aggregator::new(plan.clone());
        for r in &reports {
            whole.ingest(r).unwrap();
        }
        let mut left = Aggregator::new(plan.clone());
        let mut right = Aggregator::new(plan.clone());
        for r in &reports[..500] {
            left.ingest(r).unwrap();
        }
        for r in &reports[500..] {
            right.ingest(r).unwrap();
        }
        left.merge(&right).expect("merge");
        assert_eq!(left.reports_ingested(), whole.reports_ingested());
        assert_eq!(left.group_sizes(), whole.group_sizes());
        // Identical counts → identical estimates.
        let a = left.estimate().unwrap();
        let b = whole.estimate().unwrap();
        for (ga, gb) in a.grids().iter().zip(b.grids()) {
            assert_eq!(ga.freqs(), gb.freqs());
        }
    }

    #[test]
    fn rejects_foreign_group() {
        let cfg = FelipConfig::new(1.0);
        let plan = CollectionPlan::build(&schema(), 100, &cfg, 0).unwrap();
        let mut agg = Aggregator::new(plan);
        let bad = UserReport {
            group: 999,
            report: felip_fo::Report::Grr(0),
        };
        assert!(agg.ingest(&bad).is_err());
    }

    #[test]
    fn estimate_requires_reports() {
        let cfg = FelipConfig::new(1.0);
        let plan = CollectionPlan::build(&schema(), 100, &cfg, 0).unwrap();
        assert!(Aggregator::new(plan).estimate().is_err());
    }
}
