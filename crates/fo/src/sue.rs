//! Symmetric Unary Encoding (the RAPPOR configuration; Erlingsson et al.,
//! CCS 2014, as analysed by Wang et al., USENIX Security 2017).
//!
//! Like [`crate::Oue`] the client one-hot encodes its value, but the bit
//! flip probabilities are symmetric: a bit is reported truthfully with
//! probability `e^{ε/2} / (e^{ε/2} + 1)`. SUE's variance is strictly worse
//! than OUE's — it is included as the historical reference point the
//! `afo_crossover` ablation and the FO benches compare against, completing
//! the protocol family of the original LDP literature.

use rand::{Rng, RngCore};

use felip_common::{Error, Result};

use crate::report::Report;
use crate::traits::FrequencyOracle;

/// Symmetric Unary Encoding (RAPPOR's permanent randomized response) over a
/// domain of size `d`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sue {
    epsilon: f64,
    domain: u32,
    /// Probability a bit is transmitted truthfully: `e^{ε/2}/(e^{ε/2}+1)`.
    p: f64,
}

impl Sue {
    /// Creates a SUE oracle.
    ///
    /// # Panics
    /// Panics when `epsilon <= 0` or `domain == 0`.
    pub fn new(epsilon: f64, domain: u32) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive, got {epsilon}");
        assert!(domain > 0, "domain must be non-empty");
        let half = (epsilon / 2.0).exp();
        Sue {
            epsilon,
            domain,
            p: half / (half + 1.0),
        }
    }

    /// Probability of transmitting a bit truthfully.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Probability a 0-bit is reported as 1 (`1 − p` by symmetry).
    pub fn q(&self) -> f64 {
        1.0 - self.p
    }

    fn words(&self) -> usize {
        (self.domain as usize).div_ceil(64)
    }
}

impl FrequencyOracle for Sue {
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
        let mut bits = vec![0u64; self.words()];
        for i in 0..self.domain {
            let truth = i == value;
            let reported_one = if rng.gen_bool(self.p) { truth } else { !truth };
            if reported_one {
                bits[(i / 64) as usize] |= 1u64 << (i % 64);
            }
        }
        Report::Oue(bits)
    }

    fn check_report(&self, report: &Report) -> Result<()> {
        match report {
            Report::Oue(bits) if bits.len() == self.words() => Ok(()),
            Report::Oue(bits) => Err(Error::ReportMismatch(format!(
                "SUE report has wrong width: {} words for domain {}",
                bits.len(),
                self.domain
            ))),
            other => Err(Error::ReportMismatch(format!(
                "SUE aggregator received incompatible report {:?}",
                other.kind()
            ))),
        }
    }

    fn accumulate(&self, report: &Report, counts: &mut [u64]) -> Result<()> {
        self.check_report(report)?;
        match report {
            Report::Oue(bits) => {
                for (v, slot) in counts.iter_mut().enumerate() {
                    if bits[v / 64] >> (v % 64) & 1 == 1 {
                        // ARITH: hot accumulate kernel; a u64 tally cannot
                        // reach 2^64 reports, and merge paths re-check with
                        // checked_add.
                        *slot = slot.wrapping_add(1);
                    }
                }
            }
            _ => unreachable!("check_report admits only OUE-shaped reports"),
        }
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
        let q = self.q();
        let denom = self.p - q;
        counts.iter().map(|&c| (c as f64 / n - q) / denom).collect()
    }

    fn variance(&self, n: usize) -> f64 {
        // Var[Φ_SUE] at small true frequency: q(1−q)/(n(p−q)²) with q = 1−p,
        // which simplifies to e^{ε/2} / (n (e^{ε/2} − 1)²).
        let half = (self.epsilon / 2.0).exp();
        half / (n as f64 * (half - 1.0) * (half - 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Oue;
    use felip_common::rng::seeded_rng;

    #[test]
    fn probabilities_are_symmetric() {
        let s = Sue::new(1.0, 8);
        assert!((s.p() + s.q() - 1.0).abs() < 1e-12);
        // Per-bit likelihood ratio is e^{ε/2}; over the two differing bits
        // of two one-hot encodings the total ratio is e^ε.
        assert!((s.p() / s.q() - 0.5f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn estimates_are_unbiased() {
        let d = 12u32;
        let s = Sue::new(1.0, d);
        let n = 60_000usize;
        let mut rng = seeded_rng(3);
        let reports: Vec<_> = (0..n).map(|_| s.perturb(5, &mut rng)).collect();
        let est = s.aggregate(&reports).unwrap();
        let sd = s.variance(n).sqrt();
        assert!((est[5] - 1.0).abs() < 6.0 * sd, "est {}", est[5]);
        assert!(est[0].abs() < 6.0 * sd);
    }

    #[test]
    fn sue_variance_worse_than_oue() {
        // The asymmetric OUE choice dominates SUE for every ε — the reason
        // OUE superseded RAPPOR's encoding.
        for eps in [0.5, 1.0, 2.0, 4.0] {
            let sue = Sue::new(eps, 16);
            let oue = Oue::new(eps, 16);
            assert!(
                sue.variance(1000) > oue.variance(1000),
                "ε = {eps}: SUE {} vs OUE {}",
                sue.variance(1000),
                oue.variance(1000)
            );
        }
    }

    #[test]
    fn empirical_variance_matches_formula() {
        let s = Sue::new(1.0, 16);
        let n = 2_000usize;
        let runs = 250;
        let mut rng = seeded_rng(8);
        let mut samples = Vec::with_capacity(runs);
        for _ in 0..runs {
            let reports: Vec<_> = (0..n).map(|_| s.perturb(0, &mut rng)).collect();
            samples.push(s.aggregate(&reports).unwrap()[9]); // true frequency 0
        }
        let emp = felip_common::metrics::sample_variance(&samples);
        let ana = s.variance(n);
        assert!(
            (emp - ana).abs() / ana < 0.35,
            "empirical {emp} vs analytical {ana}"
        );
    }

    #[test]
    fn multiword_domains() {
        let s = Sue::new(2.0, 100);
        let mut rng = seeded_rng(1);
        if let Report::Oue(bits) = s.perturb(99, &mut rng) {
            assert_eq!(bits.len(), 2);
        } else {
            panic!("wrong report type");
        }
    }

    #[test]
    fn rejects_foreign_reports() {
        let err = Sue::new(1.0, 4).aggregate(&[Report::Grr(0)]).unwrap_err();
        assert!(matches!(err, Error::ReportMismatch(_)), "{err}");
    }
}
