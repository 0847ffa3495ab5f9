//! The frequency-oracle abstraction shared by all protocols.

use rand::RngCore;

use felip_common::Result;

use crate::report::{Report, ReportShape};

/// A local-DP frequency oracle: client-side randomiser `Ψ` plus server-side
/// estimator `Φ` (§2.2).
///
/// Implementations are cheap value types carrying only the protocol
/// parameters (ε, domain size, derived probabilities); they hold no state
/// across calls, so one instance can serve any number of users.
///
/// The server-side entry points (`aggregate`, `accumulate`,
/// `accumulate_batch`) consume *untrusted* input — reports may arrive over
/// the network from clients the aggregator does not control — so a report
/// whose kind or shape does not match the oracle yields
/// [`felip_common::Error::ReportMismatch`] rather than a panic.
pub trait FrequencyOracle: Send + Sync {
    /// Domain size `|D|` the oracle operates over.
    fn domain(&self) -> u32;

    /// Privacy budget ε the randomiser satisfies.
    fn epsilon(&self) -> f64;

    /// Client side: perturbs the private `value ∈ 0..domain()`.
    ///
    /// # Panics
    /// Panics when `value` is out of domain — the caller (the grid layer)
    /// guarantees cell indices are valid, so an out-of-range value is a bug.
    /// Unlike the server-side entry points, `perturb` never sees untrusted
    /// input.
    fn perturb(&self, value: u32, rng: &mut dyn RngCore) -> Report;

    /// The kind and value bound of every report this oracle's randomiser
    /// produces (GRR: values below the domain; OLH: values below the hash
    /// range) — the whole admission rule, as data an aggregator can
    /// tabulate once per grid.
    fn shape(&self) -> ReportShape;

    /// Validates that `report` could have been produced by this oracle's
    /// randomiser: right protocol, right payload shape
    /// ([`FrequencyOracle::shape`]).
    ///
    /// Returns [`felip_common::Error::ReportMismatch`] otherwise. The
    /// accumulation entry points call this before touching any state, so a
    /// rejected report leaves counts unchanged.
    fn check_report(&self, report: &Report) -> Result<()> {
        self.shape().check(report)
    }

    /// Server side: unbiased frequency estimates (fractions of the reporting
    /// population, one per domain value) from the collected reports.
    ///
    /// Estimates can be negative or exceed 1; post-processing handles that.
    /// Returns all-zeros when `reports` is empty, and
    /// [`felip_common::Error::ReportMismatch`] when any report fails
    /// [`FrequencyOracle::check_report`].
    ///
    /// Counts supports with [`FrequencyOracle::accumulate_batch`] (OLH's
    /// cache-blocked kernel, for OLH) and de-biases them with
    /// [`FrequencyOracle::estimate_from_counts`].
    fn aggregate(&self, reports: &[Report]) -> Result<Vec<f64>> {
        let d = self.domain() as usize;
        if reports.is_empty() {
            return Ok(vec![0.0; d]);
        }
        let mut counts = vec![0u64; d];
        self.accumulate_batch(reports, &mut counts)?;
        Ok(self.estimate_from_counts(&counts, reports.len()))
    }

    /// Streaming server side: folds one report into a per-value support
    /// count vector of length `domain()`. Together with
    /// [`FrequencyOracle::estimate_from_counts`] this lets an aggregator
    /// process reports as they arrive without buffering them (the FELIP
    /// engine's ingestion path).
    ///
    /// A report failing [`FrequencyOracle::check_report`] is rejected before
    /// any count is touched.
    fn accumulate(&self, report: &Report, counts: &mut [u64]) -> Result<()>;

    /// Batched server side: folds a slice of reports into the support-count
    /// vector in one call — [`FrequencyOracle::check_report`] on every
    /// report, then [`FrequencyOracle::count_batch`].
    ///
    /// Every report is validated *before* any is counted, so a failed call
    /// leaves `counts` unchanged.
    fn accumulate_batch(&self, reports: &[Report], counts: &mut [u64]) -> Result<()> {
        for report in reports {
            self.check_report(report)?;
        }
        self.count_batch(reports, counts);
        Ok(())
    }

    /// The unchecked batch kernel: folds `reports`, every one of which has
    /// already passed [`FrequencyOracle::check_report`] (or the caller's
    /// tabulated [`FrequencyOracle::shape`]), into the support-count vector.
    ///
    /// Semantically identical to calling [`FrequencyOracle::accumulate`] per
    /// report — OLH's cache-blocked kernel must stay bit-for-bit equivalent
    /// to that scalar path, since all counts are exact `u64` tallies. The
    /// batched entry point exists so protocols whose per-report cost is
    /// `O(domain)` can amortise work across reports instead of re-walking
    /// the count vector per report.
    ///
    /// # Panics
    /// May panic on a report of the wrong kind or out of range: admitting
    /// only checked reports is the caller's obligation, so such a report
    /// is a bug in the caller, not untrusted input.
    fn count_batch(&self, reports: &[Report], counts: &mut [u64]);

    /// Streaming server side: turns accumulated support counts for `n`
    /// ingested reports into unbiased frequency estimates.
    fn estimate_from_counts(&self, counts: &[u64], n: usize) -> Vec<f64>;

    /// Analytical per-value estimation variance for a population of `n`
    /// reporting users (the `Var[Φ(v)]` expressions of §2.2).
    fn variance(&self, n: usize) -> f64;
}
