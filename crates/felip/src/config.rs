//! FELIP configuration.

use felip_common::{Error, Result, Schema};
use felip_fo::FoKind;

/// Which FELIP strategy builds the grid collection (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Strategy {
    /// Optimized Uniform Grid: one 2-D grid per attribute pair; in-cell
    /// uniformity is assumed when answering. Best on uniform data.
    Oug,
    /// Optimized Hybrid Grid: OUG's 2-D grids plus one finer 1-D grid per
    /// numerical attribute, used to refine the response matrices. Best on
    /// skewed data.
    Ohg,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Oug => write!(f, "OUG"),
            Strategy::Ohg => write!(f, "OHG"),
        }
    }
}

/// Prior knowledge of query selectivity used when sizing grids (§5, §5.2).
///
/// The aggregator may know the exact selectivity of the workload it will
/// serve, a per-attribute estimate, or nothing (FELIP then uses 0.5, the
/// same assumption TDG/HDG hard-code).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum SelectivityPrior {
    /// One expected selectivity for every attribute.
    Uniform(f64),
    /// Per-attribute expected selectivities (schema order).
    PerAttribute(Vec<f64>),
}

impl SelectivityPrior {
    /// The expected selectivity for attribute `attr`.
    pub fn for_attr(&self, attr: usize) -> f64 {
        match self {
            SelectivityPrior::Uniform(r) => *r,
            SelectivityPrior::PerAttribute(rs) => rs[attr],
        }
    }

    /// Validates the prior against a schema.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        let check = |r: f64| {
            if r > 0.0 && r <= 1.0 {
                Ok(())
            } else {
                Err(Error::InvalidParameter(format!(
                    "selectivity {r} outside (0, 1]"
                )))
            }
        };
        match self {
            SelectivityPrior::Uniform(r) => check(*r),
            SelectivityPrior::PerAttribute(rs) => {
                if rs.len() != schema.len() {
                    return Err(Error::InvalidParameter(format!(
                        "{} selectivities for {} attributes",
                        rs.len(),
                        schema.len()
                    )));
                }
                rs.iter().try_for_each(|&r| check(r))
            }
        }
    }
}

/// Full configuration of a FELIP collection.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FelipConfig {
    /// Privacy budget ε each user's report satisfies.
    pub epsilon: f64,
    /// OUG or OHG.
    pub strategy: Strategy,
    /// 1-D non-uniformity constant α₁ (paper default 0.7).
    pub alpha1: f64,
    /// 2-D non-uniformity constant α₂ (paper default 0.03).
    pub alpha2: f64,
    /// Expected query selectivity used to size grids.
    pub selectivity: SelectivityPrior,
    /// When set, disables the Adaptive FO and forces one protocol everywhere
    /// (the OUG-OLH / OHG-OLH ablations of §6.3).
    pub force_fo: Option<FoKind>,
    /// Consistency ↔ non-negativity alternation rounds in post-processing
    /// (§5.4 "multiple times"; 2 matches the reference behaviour).
    pub postprocess_rounds: usize,
}

impl FelipConfig {
    /// A configuration with the paper's defaults: OHG, α₁ = 0.7, α₂ = 0.03,
    /// selectivity prior 0.5, adaptive oracle on, 2 post-processing rounds.
    pub fn new(epsilon: f64) -> Self {
        FelipConfig {
            epsilon,
            strategy: Strategy::Ohg,
            alpha1: 0.7,
            alpha2: 0.03,
            selectivity: SelectivityPrior::Uniform(0.5),
            force_fo: None,
            postprocess_rounds: 2,
        }
    }

    /// Sets the strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the selectivity prior.
    pub fn with_selectivity(mut self, prior: SelectivityPrior) -> Self {
        self.selectivity = prior;
        self
    }

    /// Forces a single protocol (disables AFO).
    pub fn with_forced_fo(mut self, fo: FoKind) -> Self {
        self.force_fo = Some(fo);
        self
    }

    /// Overrides the non-uniformity constants.
    pub fn with_alphas(mut self, alpha1: f64, alpha2: f64) -> Self {
        self.alpha1 = alpha1;
        self.alpha2 = alpha2;
        self
    }

    /// Overrides the post-processing round count.
    pub fn with_postprocess_rounds(mut self, rounds: usize) -> Self {
        self.postprocess_rounds = rounds;
        self
    }

    /// Validates the configuration against a schema.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        // `!(x > 0.0)` (rather than `x <= 0.0`) also rejects NaN.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.epsilon > 0.0) {
            return Err(Error::InvalidParameter(format!(
                "epsilon must be positive, got {}",
                self.epsilon
            )));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.alpha1 > 0.0) || !(self.alpha2 > 0.0) {
            return Err(Error::InvalidParameter(
                "alpha constants must be positive".into(),
            ));
        }
        self.selectivity.validate(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felip_common::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::numerical("a", 10),
            Attribute::numerical("b", 10),
        ])
        .unwrap()
    }

    #[test]
    fn defaults_match_paper() {
        let c = FelipConfig::new(1.0);
        assert_eq!(c.strategy, Strategy::Ohg);
        assert!((c.alpha1 - 0.7).abs() < 1e-12);
        assert!((c.alpha2 - 0.03).abs() < 1e-12);
        assert_eq!(c.selectivity.for_attr(0), 0.5);
        assert!(c.force_fo.is_none());
        assert!(c.validate(&schema()).is_ok());
    }

    #[test]
    fn builder_chain() {
        let c = FelipConfig::new(2.0)
            .with_strategy(Strategy::Oug)
            .with_forced_fo(FoKind::Olh)
            .with_alphas(0.5, 0.05)
            .with_postprocess_rounds(3)
            .with_selectivity(SelectivityPrior::PerAttribute(vec![0.1, 0.9]));
        assert_eq!(c.strategy, Strategy::Oug);
        assert_eq!(c.force_fo, Some(FoKind::Olh));
        assert_eq!(c.postprocess_rounds, 3);
        assert_eq!(c.selectivity.for_attr(1), 0.9);
        assert!(c.validate(&schema()).is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(FelipConfig::new(0.0).validate(&schema()).is_err());
        assert!(FelipConfig::new(1.0)
            .with_alphas(0.0, 0.03)
            .validate(&schema())
            .is_err());
        assert!(FelipConfig::new(1.0)
            .with_selectivity(SelectivityPrior::Uniform(0.0))
            .validate(&schema())
            .is_err());
        assert!(FelipConfig::new(1.0)
            .with_selectivity(SelectivityPrior::PerAttribute(vec![0.5]))
            .validate(&schema())
            .is_err());
        assert!(FelipConfig::new(1.0)
            .with_selectivity(SelectivityPrior::PerAttribute(vec![0.5, 1.5]))
            .validate(&schema())
            .is_err());
    }

    #[test]
    fn strategy_display() {
        assert_eq!(Strategy::Oug.to_string(), "OUG");
        assert_eq!(Strategy::Ohg.to_string(), "OHG");
    }
}
