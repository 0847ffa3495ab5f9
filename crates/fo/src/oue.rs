//! Optimized Unary Encoding (Wang et al., USENIX Security 2017).
//!
//! Not used by FELIP's AFO (which adapts between GRR and OLH, §5.3), but
//! implemented as a third reference protocol: its variance is identical to
//! OLH's while its communication cost is Θ(d) bits, which the communication
//! ablation bench contrasts against OLH's Θ(log d).

use rand::{Rng, RngCore};

use felip_common::{Error, Result};

use crate::report::Report;
use crate::traits::FrequencyOracle;
use crate::variance::olh_variance;

/// Optimized Unary Encoding over a domain of size `d`.
///
/// The client one-hot encodes its value into `d` bits and flips each bit
/// independently: the 1-bit stays 1 with probability `p = 1/2`; each 0-bit
/// becomes 1 with probability `q = 1/(e^ε + 1)`. The asymmetric choice
/// minimises estimator variance, giving the same `4e^ε/(n(e^ε−1)²)` as OLH.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Oue {
    epsilon: f64,
    domain: u32,
    /// Probability that a 0-bit is reported as 1.
    q: f64,
}

impl Oue {
    /// Creates an OUE oracle.
    ///
    /// # Panics
    /// Panics when `epsilon <= 0` or `domain == 0`.
    pub fn new(epsilon: f64, domain: u32) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive, got {epsilon}");
        assert!(domain > 0, "domain must be non-empty");
        Oue {
            epsilon,
            domain,
            q: 1.0 / (epsilon.exp() + 1.0),
        }
    }

    /// Probability a zero bit flips to one.
    pub fn q(&self) -> f64 {
        self.q
    }

    fn words(&self) -> usize {
        (self.domain as usize).div_ceil(64)
    }
}

impl FrequencyOracle for Oue {
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
            let one = if i == value {
                rng.gen_bool(0.5)
            } else {
                rng.gen_bool(self.q)
            };
            if one {
                bits[(i / 64) as usize] |= 1u64 << (i % 64);
            }
        }
        Report::Oue(bits)
    }

    fn check_report(&self, report: &Report) -> Result<()> {
        match report {
            Report::Oue(bits) if bits.len() == self.words() => Ok(()),
            Report::Oue(bits) => Err(Error::ReportMismatch(format!(
                "OUE report has wrong width: {} words for domain {}",
                bits.len(),
                self.domain
            ))),
            other => Err(Error::ReportMismatch(format!(
                "OUE aggregator received non-OUE report {:?}",
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
            _ => unreachable!("check_report admits only OUE reports"),
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
        let p = 0.5;
        let denom = p - self.q;
        counts
            .iter()
            .map(|&c| (c as f64 / n - self.q) / denom)
            .collect()
    }

    fn variance(&self, n: usize) -> f64 {
        // OUE's optimal variance equals OLH's.
        olh_variance(self.epsilon, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felip_common::rng::seeded_rng;

    #[test]
    fn flip_probabilities() {
        let oue = Oue::new(1.0, 10);
        assert!((oue.q() - 1.0 / (1f64.exp() + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn estimates_are_unbiased() {
        let d = 20u32;
        let oue = Oue::new(1.0, d);
        let n = 60_000usize;
        let mut rng = seeded_rng(9);
        let mut reports = Vec::with_capacity(n);
        // All users hold value 4.
        for _ in 0..n {
            reports.push(oue.perturb(4, &mut rng));
        }
        let est = oue.aggregate(&reports).unwrap();
        let sd = oue.variance(n).sqrt();
        assert!((est[4] - 1.0).abs() < 6.0 * sd, "est {}", est[4]);
        assert!(est[5].abs() < 6.0 * sd);
    }

    #[test]
    fn multiword_domains() {
        // Domain > 64 exercises the bit packing across words.
        let d = 130u32;
        let oue = Oue::new(2.0, d);
        let mut rng = seeded_rng(4);
        let n = 30_000usize;
        let reports: Vec<_> = (0..n).map(|_| oue.perturb(129, &mut rng)).collect();
        let est = oue.aggregate(&reports).unwrap();
        assert_eq!(est.len(), 130);
        let sd = oue.variance(n).sqrt();
        assert!((est[129] - 1.0).abs() < 6.0 * sd);
        assert!(est[64].abs() < 6.0 * sd);
    }

    #[test]
    fn wire_cost_is_linear_in_domain() {
        let oue = Oue::new(1.0, 1000);
        let mut rng = seeded_rng(0);
        let r = oue.perturb(0, &mut rng);
        assert_eq!(r.wire_bytes(), 1000_usize.div_ceil(64) * 8);
    }

    #[test]
    fn aggregate_rejects_wrong_width() {
        let err = Oue::new(1.0, 130)
            .aggregate(&[Report::Oue(vec![0u64; 1])])
            .unwrap_err();
        assert!(matches!(err, Error::ReportMismatch(_)), "{err}");
    }

    #[test]
    fn aggregate_rejects_foreign_reports() {
        let err = Oue::new(1.0, 4).aggregate(&[Report::Grr(0)]).unwrap_err();
        assert!(matches!(err, Error::ReportMismatch(_)), "{err}");
    }
}
