//! Generalized Randomized Response (§2.2.1).

use rand::{Rng, RngCore};

use felip_common::Result;

use crate::report::{Report, ReportKind, ReportShape};
use crate::traits::FrequencyOracle;
use crate::variance::grr_variance;

/// Generalized Randomized Response over a domain of size `d`.
///
/// The client reports its true value with probability
/// `p = e^ε / (e^ε + d − 1)` and any *other* value uniformly otherwise, so
/// the likelihood ratio of any output between any two inputs is exactly
/// `p/q = e^ε` and the mechanism satisfies ε-LDP.
///
/// The estimator `Φ(v) = (C(v)/n − q) / (p − q)` is unbiased with variance
/// `(e^ε + d − 2) / (n (e^ε − 1)²)` — linear in `d`, which is why GRR wins
/// for small domains and loses to OLH for large ones (the crossover the
/// Adaptive FO of §5.3 exploits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grr {
    epsilon: f64,
    domain: u32,
    /// Probability of reporting the true value.
    p: f64,
    /// Probability of reporting one specific other value.
    q: f64,
}

impl Grr {
    /// Creates a GRR oracle.
    ///
    /// # Panics
    /// Panics when `epsilon <= 0` or `domain == 0`.
    pub fn new(epsilon: f64, domain: u32) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive, got {epsilon}");
        assert!(domain > 0, "domain must be non-empty");
        let e = epsilon.exp();
        let p = e / (e + domain as f64 - 1.0);
        let q = 1.0 / (e + domain as f64 - 1.0);
        Grr {
            epsilon,
            domain,
            p,
            q,
        }
    }

    /// Probability of transmitting the true value.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Probability of transmitting one specific false value.
    pub fn q(&self) -> f64 {
        self.q
    }
}

impl FrequencyOracle for Grr {
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
        if self.domain == 1 {
            return Report::Grr(0);
        }
        let keep = rng.gen_bool(self.p);
        if keep {
            Report::Grr(value)
        } else {
            // Uniform over the other d − 1 values: draw from 0..d−1 and skip
            // the true value by shifting.
            let mut v = rng.gen_range(0..self.domain - 1);
            if v >= value {
                v += 1;
            }
            Report::Grr(v)
        }
    }

    fn shape(&self) -> ReportShape {
        ReportShape {
            kind: ReportKind::Grr,
            bound: self.domain,
        }
    }

    fn accumulate(&self, report: &Report, counts: &mut [u64]) -> Result<()> {
        self.check_report(report)?;
        self.count_batch(std::slice::from_ref(report), counts);
        Ok(())
    }

    fn count_batch(&self, reports: &[Report], counts: &mut [u64]) {
        for report in reports {
            let Report::Grr(v) = *report else {
                unreachable!("reports are checked before counting");
            };
            // ARITH: hot count kernel; a u64 tally cannot reach 2^64
            // reports in practice, and merge paths re-check with checked_add.
            counts[v as usize] = counts[v as usize].wrapping_add(1);
        }
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
        let denom = self.p - self.q;
        counts
            .iter()
            .map(|&c| (c as f64 / n - self.q) / denom)
            .collect()
    }

    fn variance(&self, n: usize) -> f64 {
        grr_variance(self.epsilon, self.domain, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felip_common::rng::seeded_rng;

    #[test]
    fn probabilities_satisfy_ldp() {
        for &(eps, d) in &[(0.5, 4u32), (1.0, 16), (2.0, 100), (4.0, 2)] {
            let g = Grr::new(eps, d);
            // p/q = e^ε exactly, and p + (d−1)q = 1.
            assert!((g.p() / g.q() - eps.exp()).abs() < 1e-9);
            assert!((g.p() + (d as f64 - 1.0) * g.q() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empirical_likelihood_ratio_bounded() {
        // For every output x and inputs v, v', Pr[Ψ(v)=x] / Pr[Ψ(v')=x] ≤ e^ε.
        let eps = 1.0;
        let d = 8u32;
        let g = Grr::new(eps, d);
        let trials = 200_000;
        let mut rng = seeded_rng(1);
        let count_output = |value: u32, rng: &mut rand::rngs::StdRng| {
            let mut c = vec![0u32; d as usize];
            for _ in 0..trials {
                if let Report::Grr(x) = g.perturb(value, rng) {
                    c[x as usize] += 1;
                }
            }
            c
        };
        let c0 = count_output(0, &mut rng);
        let c1 = count_output(1, &mut rng);
        for x in 0..d as usize {
            let p0 = c0[x] as f64 / trials as f64;
            let p1 = c1[x] as f64 / trials as f64;
            // 10% slack for sampling noise.
            assert!(p0 / p1 <= eps.exp() * 1.1, "ratio at {x}: {}", p0 / p1);
            assert!(p1 / p0 <= eps.exp() * 1.1);
        }
    }

    #[test]
    fn estimates_are_unbiased() {
        // True distribution: value v with frequency weights ∝ v+1 over d=5.
        let d = 5u32;
        let g = Grr::new(1.0, d);
        let n = 400_000usize;
        let mut rng = seeded_rng(7);
        let mut reports = Vec::with_capacity(n);
        let mut truth = vec![0.0f64; d as usize];
        for i in 0..n {
            let v = (i % 15) as u32; // weights 1..5 via triangular indexing
            let v = match v {
                0 => 0,
                1..=2 => 1,
                3..=5 => 2,
                6..=9 => 3,
                _ => 4,
            };
            truth[v as usize] += 1.0;
            reports.push(g.perturb(v, &mut rng));
        }
        for t in &mut truth {
            *t /= n as f64;
        }
        let est = g.aggregate(&reports).unwrap();
        let sd = g.variance(n).sqrt();
        for v in 0..d as usize {
            assert!(
                (est[v] - truth[v]).abs() < 6.0 * sd,
                "estimate {} vs truth {} (sd {sd})",
                est[v],
                truth[v]
            );
        }
    }

    #[test]
    fn estimates_sum_to_one() {
        // Σ_v Φ(v) = (1 − d·q)/(p − q) + ... algebraically = 1 for any report set.
        let g = Grr::new(0.8, 12);
        let mut rng = seeded_rng(3);
        let reports: Vec<_> = (0..5000).map(|i| g.perturb(i % 12, &mut rng)).collect();
        let est = g.aggregate(&reports).unwrap();
        assert!((est.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_variance_matches_formula() {
        // Estimate frequency of a value that never occurs; its estimator
        // variance should match Eq. (2).
        let d = 10u32;
        let eps = 1.0;
        let g = Grr::new(eps, d);
        let n = 2_000usize;
        let runs = 300;
        let mut rng = seeded_rng(11);
        let mut samples = Vec::with_capacity(runs);
        for _ in 0..runs {
            let reports: Vec<_> = (0..n).map(|_| g.perturb(3, &mut rng)).collect();
            samples.push(g.aggregate(&reports).unwrap()[7]); // value 7 has true freq 0
        }
        let emp = felip_common::metrics::sample_variance(&samples);
        let ana = g.variance(n);
        assert!(
            (emp - ana).abs() / ana < 0.35,
            "empirical {emp} vs analytical {ana}"
        );
    }

    #[test]
    fn degenerate_domain_of_one() {
        let g = Grr::new(1.0, 1);
        let mut rng = seeded_rng(0);
        assert_eq!(g.perturb(0, &mut rng), Report::Grr(0));
        let est = g.aggregate(&[Report::Grr(0), Report::Grr(0)]).unwrap();
        assert_eq!(est.len(), 1);
    }

    #[test]
    fn empty_reports_give_zeros() {
        let g = Grr::new(1.0, 4);
        assert_eq!(g.aggregate(&[]).unwrap(), vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn perturb_rejects_out_of_domain() {
        let g = Grr::new(1.0, 4);
        let mut rng = seeded_rng(0);
        g.perturb(4, &mut rng);
    }

    #[test]
    fn aggregate_rejects_foreign_reports() {
        let err = Grr::new(1.0, 4)
            .aggregate(&[Report::Olh { seed: 0, value: 0 }])
            .unwrap_err();
        assert!(
            matches!(err, felip_common::Error::ReportMismatch(_)),
            "{err}"
        );
    }

    #[test]
    fn accumulate_rejects_out_of_domain_value() {
        let g = Grr::new(1.0, 4);
        let mut counts = vec![0u64; 4];
        assert!(g.accumulate(&Report::Grr(4), &mut counts).is_err());
        assert_eq!(counts, vec![0u64; 4], "rejected report must not count");
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_nonpositive_epsilon() {
        Grr::new(0.0, 4);
    }
}
