//! Optimized Local Hashing (§2.2.2; Wang et al., USENIX Security 2017).

use rand::{Rng, RngCore};
use rayon::prelude::*;

use felip_common::hash::{bucket_bounds, mix64, universal_hash, value_key};
use felip_common::{Error, Result};

use crate::report::Report;
use crate::traits::FrequencyOracle;
use crate::variance::olh_variance;

/// Count-vector block that stays resident in L1 while every report's hash
/// is evaluated against it: 2048 × u64 = 16 KiB (half a typical 32 KiB L1D,
/// leaving room for the report pairs streaming through).
const BLOCK_VALUES: usize = 2048;

/// Reports per inner-loop group. Eight independent `mix64` chains per
/// domain value keep the multiply/xor units busy (ILP) instead of
/// serialising on one hash's latency.
const GROUP_REPORTS: usize = 8;

/// A report unpacked for the batched kernel: the hash seed plus the
/// precomputed [`bucket_bounds`] interval of its perturbed bucket, so the
/// inner loop tests bucket membership with one subtract-and-compare on the
/// raw hash high word instead of re-running the reduction multiply.
type UnpackedReport = (u64, u32, u32);

/// Batched OLH support counting over one L1-sized block of the count
/// vector: `block[i] += |{ j : H_{seed_j}(base + i) = x_j }|`.
///
/// Structure, from the outside in:
/// - the caller tiles the full count vector into [`BLOCK_VALUES`]-sized
///   blocks, so each block is written once per report (group) while it
///   stays cache-hot, instead of streaming the whole `d`-wide vector
///   through cache per report;
/// - each block's `value_key` multiplies are hoisted into a key table
///   computed once and reused by every report;
/// - bucket membership is the precomputed interval test of
///   [`bucket_bounds`] (`(h >> 32) - lo < width`), leaving `mix64`'s two
///   multiplies as the only multiplies per (seed, value) pair;
/// - the inner loop is branch-free (`(in_bucket) as u64` adds), which
///   sidesteps the ~1/g-taken branch the scalar path stalls on;
/// - on x86-64 the elementwise pass is compiled under AVX-512DQ / AVX2
///   `#[target_feature]` wrappers (runtime-dispatched), so LLVM
///   autovectorises `mix64` over 8 / 4 u64 lanes (`vpmullq` does the
///   64-bit multiplies natively with AVX-512DQ). Elsewhere a scalar
///   group-of-[`GROUP_REPORTS`] pass provides the ILP instead.
///
/// All tallies are exact `u64` additions and the interval test is exactly
/// the bucket comparison, so any lane/evaluation order gives bit-identical
/// counts to the scalar [`FrequencyOracle::accumulate`] path.
/// The support-counting kernel the current machine dispatches to:
/// `"avx512dq"`, `"avx2"`, or `"scalar-grouped"`. Purely informational —
/// the decision itself is re-made per block inside
/// [`support_count_block`] (the detection macro caches, so this costs one
/// cached lookup).
pub fn kernel_dispatch_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512dq") {
            return "avx512dq";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar-grouped"
}

fn support_count_block(pairs: &[UnpackedReport], base: u32, block: &mut [u64]) {
    let mut keys = [0u64; BLOCK_VALUES];
    let keys = &mut keys[..block.len()];
    for (i, key) in keys.iter_mut().enumerate() {
        // ARITH: block index arithmetic; base + i stays within the u32
        // domain size by construction of the block walk.
        *key = value_key(base.wrapping_add(i as u32));
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512dq") {
            // SAFETY: the avx512dq feature was just detected at runtime.
            unsafe { support_count_avx512(pairs, keys, block) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the avx2 feature was just detected at runtime.
            unsafe { support_count_avx2(pairs, keys, block) };
            return;
        }
    }
    support_count_grouped(pairs, keys, block);
}

/// The vector-friendly kernel shape: one elementwise pass over the key
/// table per report, every operation in u64 lanes. Inlined into the
/// `#[target_feature]` wrappers below so LLVM autovectorises it with the
/// wrapper's ISA.
#[inline(always)]
#[allow(dead_code)] // unused on non-x86-64 targets
fn support_count_per_report(pairs: &[UnpackedReport], keys: &[u64], block: &mut [u64]) {
    for &(seed, lo, width) in pairs {
        let (lo, width) = (lo as u64, width as u64);
        for (slot, &key) in block.iter_mut().zip(keys.iter()) {
            let h32 = mix64(seed ^ key) >> 32;
            // ARITH: hot support-count kernel; wrapping_sub is the u64 form
            // of `(h32 as u32).wrapping_sub(lo) < width` (intentional mod-2^32
            // range test), and a u64 tally cannot reach 2^64 reports.
            *slot = slot.wrapping_add(((h32.wrapping_sub(lo) & 0xffff_ffff) < width) as u64);
        }
    }
}

// SAFETY: `unsafe fn` only because of `#[target_feature]` — the body is
// safe code; callers must have runtime-detected avx512f+avx512dq first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn support_count_avx512(pairs: &[UnpackedReport], keys: &[u64], block: &mut [u64]) {
    support_count_per_report(pairs, keys, block);
}

// SAFETY: `unsafe fn` only because of `#[target_feature]` — the body is
// safe code; callers must have runtime-detected avx2 first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn support_count_avx2(pairs: &[UnpackedReport], keys: &[u64], block: &mut [u64]) {
    support_count_per_report(pairs, keys, block);
}

/// Scalar fallback: reports are walked in groups of [`GROUP_REPORTS`] so
/// each domain value runs that many independent `mix64` chains (ILP without
/// SIMD), and the count slot is loaded/stored once per group.
fn support_count_grouped(pairs: &[UnpackedReport], keys: &[u64], block: &mut [u64]) {
    let mut groups = pairs.chunks_exact(GROUP_REPORTS);
    for group in groups.by_ref() {
        // `chunks_exact` only yields slices of exactly GROUP_REPORTS, so the
        // array view always succeeds; the `else` arm is dead code kept so
        // the conversion stays panic-free.
        let Ok(group) = <&[UnpackedReport; GROUP_REPORTS]>::try_from(group) else {
            continue;
        };
        for (slot, &key) in block.iter_mut().zip(keys.iter()) {
            // Fixed-length loop over the group array: fully unrolled into
            // eight independent hash pipelines by the compiler.
            let mut supports = 0u64;
            for &(seed, lo, width) in group {
                let h32 = (mix64(seed ^ key) >> 32) as u32;
                // ARITH: hot support-count kernel; wrapping_sub is the
                // intentional mod-2^32 range test, and the group tally is
                // bounded by GROUP_REPORTS.
                supports = supports.wrapping_add((h32.wrapping_sub(lo) < width) as u64);
            }
            // ARITH: hot kernel; a u64 tally cannot reach 2^64 reports.
            *slot = slot.wrapping_add(supports);
        }
    }
    for &(seed, lo, width) in groups.remainder() {
        for (slot, &key) in block.iter_mut().zip(keys.iter()) {
            let h32 = (mix64(seed ^ key) >> 32) as u32;
            // ARITH: hot support-count kernel; wrapping_sub is the
            // intentional mod-2^32 range test, and a u64 tally cannot
            // reach 2^64 reports.
            *slot = slot.wrapping_add((h32.wrapping_sub(lo) < width) as u64);
        }
    }
}

/// Optimized Local Hashing over a domain of size `d`.
///
/// Each client draws a random member `H` of a universal hash family mapping
/// the domain into `g = ⌈e^ε⌉ + 1` buckets, perturbs `H(v)` with GRR over
/// `[g]`, and reports `⟨H, GRR(H(v))⟩`. The aggregator counts, for each
/// domain value `v`, the reports that *support* it (`H_j(v) = x_j`) and
/// de-biases: `Φ(v) = (C(v)/n − 1/g) / (p − 1/g)`.
///
/// The variance `4 e^ε / (n (e^ε − 1)²)` is independent of `d`, which makes
/// OLH the protocol of choice for large domains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Olh {
    epsilon: f64,
    domain: u32,
    /// Hash range `g = ⌈e^ε⌉ + 1` (the variance-optimal choice).
    g: u32,
    /// GRR keep-probability over the hashed domain: `e^ε / (e^ε + g − 1)`.
    p: f64,
}

impl Olh {
    /// Creates an OLH oracle with the variance-optimal hash range
    /// `g = ⌈e^ε⌉ + 1`.
    ///
    /// # Panics
    /// Panics when `epsilon <= 0` or `domain == 0`.
    pub fn new(epsilon: f64, domain: u32) -> Self {
        let g = (epsilon.exp().ceil() as u32).saturating_add(1).max(2);
        Self::with_hash_range(epsilon, domain, g)
    }

    /// Creates an OLH oracle with an explicit hash range `g ≥ 2`; exposed for
    /// the ablation that sweeps `g` away from its optimum.
    pub fn with_hash_range(epsilon: f64, domain: u32, g: u32) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive, got {epsilon}");
        assert!(domain > 0, "domain must be non-empty");
        assert!(g >= 2, "hash range must be at least 2, got {g}");
        let e = epsilon.exp();
        let p = e / (e + g as f64 - 1.0);
        Olh {
            epsilon,
            domain,
            g,
            p,
        }
    }

    /// The hash range `g`.
    pub fn hash_range(&self) -> u32 {
        self.g
    }

    /// GRR keep-probability over the hashed domain.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Unpacks reports into `(seed, bucket_lo, bucket_width)` triples for
    /// the batched kernel, validating protocol and hash range up front — a
    /// mismatched report is rejected before any count is touched.
    fn unpack_reports(&self, reports: &[Report]) -> Result<Vec<UnpackedReport>> {
        reports
            .iter()
            .map(|r| {
                self.check_report(r)?;
                match r {
                    Report::Olh { seed, value } => {
                        let (lo, width) = bucket_bounds(*value, self.g);
                        Ok((*seed, lo, width))
                    }
                    _ => unreachable!("check_report admits only OLH reports"),
                }
            })
            .collect()
    }
}

impl FrequencyOracle for Olh {
    fn domain(&self) -> u32 {
        self.domain
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn perturb(&self, value: u32, rng: &mut dyn RngCore) -> Report {
        assert!(
            value < self.domain,
            "value {value} out of domain {}",
            self.domain
        );
        let seed: u64 = rng.gen();
        let h = universal_hash(seed, value, self.g);
        // GRR over the hashed domain [g].
        let out = if rng.gen_bool(self.p) {
            h
        } else {
            let mut v = rng.gen_range(0..self.g - 1);
            if v >= h {
                v += 1;
            }
            v
        };
        Report::Olh { seed, value: out }
    }

    fn check_report(&self, report: &Report) -> Result<()> {
        match report {
            Report::Olh { value, .. } if *value < self.g => Ok(()),
            Report::Olh { value, .. } => Err(Error::ReportMismatch(format!(
                "OLH report value {value} out of hash range {}",
                self.g
            ))),
            other => Err(Error::ReportMismatch(format!(
                "OLH aggregator received non-OLH report {:?}",
                other.kind()
            ))),
        }
    }

    fn accumulate(&self, report: &Report, counts: &mut [u64]) -> Result<()> {
        self.check_report(report)?;
        match report {
            Report::Olh { seed, value } => {
                for (v, slot) in counts.iter_mut().enumerate() {
                    if universal_hash(*seed, v as u32, self.g) == *value {
                        // ARITH: hot accumulate kernel; a u64 tally cannot
                        // reach 2^64 reports, and merge paths re-check with
                        // checked_add.
                        *slot = slot.wrapping_add(1);
                    }
                }
            }
            _ => unreachable!("check_report admits only OLH reports"),
        }
        Ok(())
    }

    fn accumulate_batch(&self, reports: &[Report], counts: &mut [u64]) -> Result<()> {
        // One counter bump per *batch* (not per report), so the hot loop
        // below stays untouched.
        match kernel_dispatch_path() {
            "avx512dq" => felip_obs::counter!("fo.olh.batch.avx512dq", 1, "batches"),
            "avx2" => felip_obs::counter!("fo.olh.batch.avx2", 1, "batches"),
            _ => felip_obs::counter!("fo.olh.batch.scalar", 1, "batches"),
        }
        felip_obs::counter!("fo.olh.batch.reports", reports.len(), "reports");
        // Like `accumulate`, the count-vector width (not `self.domain`)
        // defines the value range counted over.
        let pairs = self.unpack_reports(reports)?;
        // Parallelise over disjoint domain blocks — each worker owns its
        // slice of the count vector, so no per-thread vector merging. Under
        // an already-parallel caller (sharded ingestion) this runs
        // sequentially on the calling worker, which is exactly the blocked
        // single-thread kernel.
        counts
            .par_chunks_mut(BLOCK_VALUES)
            .enumerate()
            .for_each(|(b, block)| {
                support_count_block(&pairs, (b * BLOCK_VALUES) as u32, block);
            });
        Ok(())
    }

    fn estimate_from_counts(&self, counts: &[u64], n: usize) -> Vec<f64> {
        assert_eq!(
            counts.len(),
            self.domain as usize,
            "count vector width mismatch"
        );
        if n == 0 {
            return vec![0.0; counts.len()];
        }
        let n = n as f64;
        let inv_g = 1.0 / self.g as f64;
        let denom = self.p - inv_g;
        counts
            .iter()
            .map(|&c| (c as f64 / n - inv_g) / denom)
            .collect()
    }

    fn variance(&self, n: usize) -> f64 {
        olh_variance(self.epsilon, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felip_common::rng::seeded_rng;

    #[test]
    fn optimal_hash_range() {
        // g = ⌈e^ε⌉ + 1.
        assert_eq!(Olh::new(1.0, 100).hash_range(), 4); // e ≈ 2.72 → 3 + 1
        assert_eq!(Olh::new(2.0, 100).hash_range(), 9); // e² ≈ 7.39 → 8 + 1
        assert_eq!(Olh::new(0.1, 100).hash_range(), 3); // 1.1 → 2 + 1
    }

    #[test]
    fn estimates_are_unbiased_on_skewed_data() {
        let d = 64u32;
        let olh = Olh::new(1.0, d);
        let n = 200_000usize;
        let mut rng = seeded_rng(5);
        let mut truth = vec![0.0f64; d as usize];
        let mut reports = Vec::with_capacity(n);
        for i in 0..n {
            // 50% mass on value 0, rest uniform.
            let v = if i % 2 == 0 {
                0
            } else {
                (i / 2 % (d as usize - 1) + 1) as u32
            };
            truth[v as usize] += 1.0;
            reports.push(olh.perturb(v, &mut rng));
        }
        for t in &mut truth {
            *t /= n as f64;
        }
        let est = olh.aggregate(&reports).unwrap();
        let sd = olh.variance(n).sqrt();
        assert!(
            (est[0] - truth[0]).abs() < 6.0 * sd,
            "{} vs {}",
            est[0],
            truth[0]
        );
        assert!((est[17] - truth[17]).abs() < 6.0 * sd);
    }

    #[test]
    fn empirical_variance_matches_formula() {
        let d = 32u32;
        let eps = 1.0;
        let olh = Olh::new(eps, d);
        let n = 2_000usize;
        let runs = 300;
        let mut rng = seeded_rng(13);
        let mut samples = Vec::with_capacity(runs);
        for _ in 0..runs {
            let reports: Vec<_> = (0..n).map(|_| olh.perturb(1, &mut rng)).collect();
            samples.push(olh.aggregate(&reports).unwrap()[20]); // true frequency 0
        }
        let emp = felip_common::metrics::sample_variance(&samples);
        let ana = olh.variance(n);
        assert!(
            (emp - ana).abs() / ana < 0.35,
            "empirical {emp} vs analytical {ana}"
        );
    }

    #[test]
    fn variance_independent_of_domain() {
        let a = Olh::new(1.0, 10).variance(1000);
        let b = Olh::new(1.0, 10_000).variance(1000);
        assert_eq!(a, b);
    }

    #[test]
    fn hashed_grr_satisfies_ldp() {
        // Over the *hashed* domain, keep-probability ratio must be e^ε.
        let olh = Olh::new(1.5, 100);
        let g = olh.hash_range() as f64;
        let e = 1.5f64.exp();
        let q = (1.0 - olh.p()) / (g - 1.0);
        assert!((olh.p() / q - e).abs() < 1e-9);
    }

    #[test]
    fn empty_reports_give_zeros() {
        assert_eq!(Olh::new(1.0, 5).aggregate(&[]).unwrap(), vec![0.0; 5]);
    }

    #[test]
    fn aggregate_rejects_foreign_reports() {
        let err = Olh::new(1.0, 4).aggregate(&[Report::Grr(0)]).unwrap_err();
        assert!(matches!(err, Error::ReportMismatch(_)), "{err}");
    }

    #[test]
    fn rejects_value_outside_hash_range() {
        // Untrusted wire input: a "valid-looking" OLH report whose value
        // exceeds g must be an error, never a panic, and must not count.
        let olh = Olh::new(1.0, 8);
        let bad = Report::Olh {
            seed: 1,
            value: olh.hash_range(),
        };
        let mut counts = vec![0u64; 8];
        assert!(olh.accumulate(&bad, &mut counts).is_err());
        assert!(olh.accumulate_batch(&[bad], &mut counts).is_err());
        assert_eq!(counts, vec![0u64; 8]);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn perturb_rejects_out_of_domain() {
        let olh = Olh::new(1.0, 4);
        let mut rng = seeded_rng(0);
        olh.perturb(4, &mut rng);
    }

    /// Reference scalar path for equivalence checks.
    fn scalar_counts(olh: &Olh, reports: &[Report], width: usize) -> Vec<u64> {
        let mut counts = vec![0u64; width];
        for r in reports {
            olh.accumulate(r, &mut counts).unwrap();
        }
        counts
    }

    #[test]
    fn batch_kernel_matches_scalar_path_exactly() {
        let olh = Olh::new(1.0, 300);
        let mut rng = seeded_rng(7);
        // 13 reports: exercises one full group of 8 plus a 5-report tail.
        let reports: Vec<_> = (0..13).map(|i| olh.perturb(i % 300, &mut rng)).collect();
        let mut batched = vec![0u64; 300];
        olh.accumulate_batch(&reports, &mut batched).unwrap();
        assert_eq!(batched, scalar_counts(&olh, &reports, 300));
    }

    #[test]
    fn batch_kernel_handles_multiple_blocks() {
        // Domain wider than one L1 block: block base offsets must line up.
        let d = (super::BLOCK_VALUES * 2 + 77) as u32;
        let olh = Olh::new(0.5, d);
        let mut rng = seeded_rng(8);
        let reports: Vec<_> = (0..9)
            .map(|i| olh.perturb(i * 1000 % d, &mut rng))
            .collect();
        let mut batched = vec![0u64; d as usize];
        olh.accumulate_batch(&reports, &mut batched).unwrap();
        assert_eq!(batched, scalar_counts(&olh, &reports, d as usize));
    }

    #[test]
    fn batch_kernel_empty_and_tiny_inputs() {
        let olh = Olh::new(1.0, 16);
        let mut counts = vec![0u64; 16];
        olh.accumulate_batch(&[], &mut counts).unwrap();
        assert_eq!(counts, vec![0u64; 16]);
        let mut rng = seeded_rng(9);
        let one = [olh.perturb(3, &mut rng)];
        olh.accumulate_batch(&one, &mut counts).unwrap();
        assert_eq!(counts, scalar_counts(&olh, &one, 16));
    }

    #[test]
    fn batch_rejects_foreign_reports() {
        let mut counts = vec![0u64; 4];
        let err = Olh::new(1.0, 4)
            .accumulate_batch(&[Report::Grr(0)], &mut counts)
            .unwrap_err();
        assert!(matches!(err, Error::ReportMismatch(_)), "{err}");
    }

    #[test]
    fn custom_hash_range() {
        let olh = Olh::with_hash_range(1.0, 50, 16);
        assert_eq!(olh.hash_range(), 16);
        let mut rng = seeded_rng(2);
        if let Report::Olh { value, .. } = olh.perturb(10, &mut rng) {
            assert!(value < 16);
        } else {
            panic!("wrong report type");
        }
    }
}
