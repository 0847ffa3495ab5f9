//! Optimized Local Hashing (§2.2.2; Wang et al., USENIX Security 2017).

use rand::{Rng, RngCore};
use rayon::prelude::*;

use felip_common::hash::{bucket_bounds, mix64, universal_hash, value_key};
use felip_common::Result;

use crate::report::{Report, ReportKind, ReportShape};
use crate::traits::FrequencyOracle;
use crate::variance::olh_variance;

/// Count-vector block one worker owns when a wide domain is split across
/// threads (value-block parallelism). Narrower domains are one block.
const BLOCK_VALUES: usize = 2048;

/// Reports per tile: the tile's structure of arrays — seeds and the
/// pre-shifted bucket bounds, 3 × 8 KiB — stays in L1 while every value of
/// the block is counted against it.
const TILE_REPORTS: usize = 1024;

/// Buckets whose bounds are tabulated once per batch: all of them unless
/// ε > 8.3 (`g > 4096`); reports in higher buckets compute theirs.
const BOUNDS_TABLE_MAX: u32 = 1 << 12;

/// The bounds of bucket `target` as [`bucket_bounds`] gives them, shifted
/// into the high word: `(lo << 32, width << 32)`.
///
/// For a hash `h` with high word `h32 = h >> 32`,
/// `h.wrapping_sub(lo << 32) < width << 32` holds exactly when
/// `h32.wrapping_sub(lo) < width` (the low word only adds less than one
/// unit of `2^32`, and `width ≤ 2^31` for `g ≥ 2`), so the kernel tests
/// bucket membership on the raw `mix64` output without a shift.
fn shifted_bounds(target: u32, g: u32) -> (u64, u64) {
    let (lo, width) = bucket_bounds(target, g);
    ((lo as u64) << 32, (width as u64) << 32)
}

/// One tile of reports in structure-of-arrays form.
struct Tile {
    seeds: [u64; TILE_REPORTS],
    lo: [u64; TILE_REPORTS],
    width: [u64; TILE_REPORTS],
}

/// The support-counting kernel the current machine dispatches to:
/// `"avx512dq"`, `"avx2"`, or `"scalar"`. Purely informational — the
/// decision itself is re-made per tile inside [`support_count_tile`] (the
/// detection macro caches, so this costs one cached lookup).
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
    "scalar"
}

/// Batched OLH support counting over one block of the count vector:
/// `block[i] += |{ j : H_{seed_j}(base + i) = x_j }|`.
///
/// `reports` must all be OLH reports with values below the hash range
/// (the caller checks them first); `bounds` holds [`shifted_bounds`]
/// for the first [`BOUNDS_TABLE_MAX`] buckets of the hash range `g`.
///
/// Reports go through in tiles of [`TILE_REPORTS`], each unpacked once
/// into a structure of arrays; every value of the block is then counted
/// against the whole tile in a register (see [`support_count_values`]), so
/// each count slot is loaded and stored once per tile rather than once
/// per report.
fn support_count_reports(
    reports: &[Report],
    bounds: &[(u64, u64)],
    g: u32,
    base: u32,
    block: &mut [u64],
) {
    let mut tile = Tile {
        seeds: [0; TILE_REPORTS],
        lo: [0; TILE_REPORTS],
        width: [0; TILE_REPORTS],
    };
    for chunk in reports.chunks(TILE_REPORTS) {
        for (j, report) in chunk.iter().enumerate() {
            let Report::Olh { seed, value } = *report else {
                unreachable!("reports are checked before counting");
            };
            let (lo, width) = bounds
                .get(value as usize)
                .copied()
                .unwrap_or_else(|| shifted_bounds(value, g));
            tile.seeds[j] = seed;
            tile.lo[j] = lo;
            tile.width[j] = width;
        }
        let n = chunk.len();
        support_count_tile(
            &tile.seeds[..n],
            &tile.lo[..n],
            &tile.width[..n],
            base,
            block,
        );
    }
}

/// Dispatches one tile to the widest kernel the machine runs.
fn support_count_tile(seeds: &[u64], lo: &[u64], width: &[u64], base: u32, block: &mut [u64]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512dq") {
            // SAFETY: the avx512f and avx512dq features were just detected
            // at runtime (avx512dq implies avx512f).
            unsafe { support_count_avx512(seeds, lo, width, base, block) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the avx2 feature was just detected at runtime.
            unsafe { support_count_avx2(seeds, lo, width, base, block) };
            return;
        }
    }
    support_count_values(seeds, lo, width, base, block);
}

/// The one source kernel: for each value of the block, count the tile's
/// supports in a register — a reduction over the reports, which LLVM
/// vectorises in u64 lanes (8 under AVX-512DQ, where `vpmullq` does
/// `mix64`'s multiplies natively; 4 under AVX2) — then add the count to
/// the value's slot.
///
/// Every tally is an exact `u64` addition and the test is exactly the
/// bucket comparison, so any lane or evaluation order gives bit-identical
/// counts to the scalar [`FrequencyOracle::accumulate`] path.
#[inline(always)]
fn support_count_values(seeds: &[u64], lo: &[u64], width: &[u64], base: u32, block: &mut [u64]) {
    let n = seeds.len();
    let (lo, width) = (&lo[..n], &width[..n]);
    for (i, slot) in block.iter_mut().enumerate() {
        // ARITH: block offset; base + i stays below the u32 domain size
        // by construction of the block walk.
        let key = value_key(base.wrapping_add(i as u32));
        let mut supports = 0u64;
        for j in 0..n {
            // ARITH: hot support-count kernel; the wrapping subtract is the
            // intentional mod-2^64 range test of [`shifted_bounds`], and
            // the tally is bounded by the tile size.
            let hit = mix64(seeds[j] ^ key).wrapping_sub(lo[j]) < width[j];
            // ARITH: bounded by TILE_REPORTS.
            supports = supports.wrapping_add(hit as u64);
        }
        // ARITH: hot kernel; a u64 tally cannot reach 2^64 reports.
        *slot = slot.wrapping_add(supports);
    }
}

// SAFETY: `unsafe fn` only because of `#[target_feature]` — the body is
// safe code; callers must have runtime-detected avx512f+avx512dq first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn support_count_avx512(
    seeds: &[u64],
    lo: &[u64],
    width: &[u64],
    base: u32,
    block: &mut [u64],
) {
    support_count_values(seeds, lo, width, base, block);
}

// SAFETY: `unsafe fn` only because of `#[target_feature]` — the body is
// safe code; callers must have runtime-detected avx2 first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn support_count_avx2(
    seeds: &[u64],
    lo: &[u64],
    width: &[u64],
    base: u32,
    block: &mut [u64],
) {
    support_count_values(seeds, lo, width, base, block);
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

    fn shape(&self) -> ReportShape {
        ReportShape {
            kind: ReportKind::Olh,
            bound: self.g,
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

    fn count_batch(&self, reports: &[Report], counts: &mut [u64]) {
        // One counter bump per *batch* (not per report), so the hot loop
        // below stays untouched.
        match kernel_dispatch_path() {
            "avx512dq" => felip_obs::counter!("fo.olh.batch.avx512dq", 1, "batches"),
            "avx2" => felip_obs::counter!("fo.olh.batch.avx2", 1, "batches"),
            _ => felip_obs::counter!("fo.olh.batch.scalar", 1, "batches"),
        }
        felip_obs::counter!("fo.olh.batch.reports", reports.len(), "reports");
        let g = self.g;
        let bounds: Vec<(u64, u64)> = (0..g.min(BOUNDS_TABLE_MAX))
            .map(|b| shifted_bounds(b, g))
            .collect();
        // Like `accumulate`, the count-vector width (not `self.domain`)
        // defines the value range counted over. Wide domains split into
        // disjoint value blocks across workers — each owns its slice of the
        // count vector, so no per-thread vector merging. Under an
        // already-parallel caller (sharded ingestion) this runs
        // sequentially on the calling worker.
        counts
            .par_chunks_mut(BLOCK_VALUES)
            .enumerate()
            .for_each(|(b, block)| {
                support_count_reports(reports, &bounds, g, (b * BLOCK_VALUES) as u32, block);
            });
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
    use felip_common::Error;

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
        assert!(olh
            .accumulate_batch(std::slice::from_ref(&bad), &mut counts)
            .is_err());
        // Last of more than a tile of valid reports: still nothing counts.
        let mut rng = seeded_rng(11);
        let mut batch: Vec<_> = (0..super::TILE_REPORTS + 7)
            .map(|i| olh.perturb(i as u32 % 8, &mut rng))
            .collect();
        batch.push(bad);
        assert!(olh.accumulate_batch(&batch, &mut counts).is_err());
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
        // Two full report tiles plus a 13-report ragged tail.
        let n = 2 * super::TILE_REPORTS as u32 + 13;
        let reports: Vec<_> = (0..n).map(|i| olh.perturb(i % 300, &mut rng)).collect();
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
    fn batch_kernel_exact_with_a_wide_hash_range() {
        // Buckets past the bounds table compute their bounds per report.
        let olh = Olh::with_hash_range(1.0, 40, super::BOUNDS_TABLE_MAX + 5);
        let mut rng = seeded_rng(10);
        let reports: Vec<_> = (0..50).map(|i| olh.perturb(i % 40, &mut rng)).collect();
        let mut batched = vec![0u64; 40];
        olh.accumulate_batch(&reports, &mut batched).unwrap();
        assert_eq!(batched, scalar_counts(&olh, &reports, 40));
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
