//! Strategy dispatch: run any mechanism end-to-end and score it.

use felip::{simulate, FelipConfig, SelectivityPrior, Strategy};
use felip_baselines::hio::run_hio;
use felip_baselines::tdg::{run_hdg, run_tdg};
use felip_common::metrics::try_mae;
use felip_common::{Dataset, Query, Result};
use felip_fo::FoKind;

/// Every mechanism the evaluation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyUnderTest {
    /// FELIP Optimized Uniform Grid with the adaptive oracle.
    Oug,
    /// FELIP Optimized Hybrid Grid with the adaptive oracle.
    Ohg,
    /// OUG restricted to OLH (§6.3 ablation).
    OugOlh,
    /// OHG restricted to OLH (§6.3 ablation).
    OhgOlh,
    /// HIO baseline (branching factor 4).
    Hio,
    /// TDG baseline.
    Tdg,
    /// HDG baseline.
    Hdg,
}

impl StrategyUnderTest {
    /// Figure-1–6 contenders.
    pub fn main_contenders() -> [StrategyUnderTest; 3] {
        [
            StrategyUnderTest::Oug,
            StrategyUnderTest::Ohg,
            StrategyUnderTest::Hio,
        ]
    }

    /// Figure-7 uniform-grid panel.
    pub fn fig7_uniform() -> [StrategyUnderTest; 3] {
        [
            StrategyUnderTest::Oug,
            StrategyUnderTest::OugOlh,
            StrategyUnderTest::Tdg,
        ]
    }

    /// Figure-7 hybrid-grid panel.
    pub fn fig7_hybrid() -> [StrategyUnderTest; 3] {
        [
            StrategyUnderTest::Ohg,
            StrategyUnderTest::OhgOlh,
            StrategyUnderTest::Hdg,
        ]
    }
}

impl std::fmt::Display for StrategyUnderTest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyUnderTest::Oug => write!(f, "OUG"),
            StrategyUnderTest::Ohg => write!(f, "OHG"),
            StrategyUnderTest::OugOlh => write!(f, "OUG-OLH"),
            StrategyUnderTest::OhgOlh => write!(f, "OHG-OLH"),
            StrategyUnderTest::Hio => write!(f, "HIO"),
            StrategyUnderTest::Tdg => write!(f, "TDG"),
            StrategyUnderTest::Hdg => write!(f, "HDG"),
        }
    }
}

/// Runs `strategy` over `dataset` under ε-LDP, answers `queries`, and
/// returns the MAE against exact ground truth.
///
/// `selectivity_prior` feeds FELIP's grid sizing (pass the workload's true
/// selectivity to model an informed aggregator, or 0.5 for the uninformed
/// default; baselines ignore it — TDG/HDG hard-code 0.5 and HIO has no such
/// knob).
pub fn evaluate_mae(
    strategy: StrategyUnderTest,
    dataset: &Dataset,
    queries: &[Query],
    epsilon: f64,
    selectivity_prior: f64,
    seed: u64,
) -> Result<f64> {
    let _span = felip_obs::span!("bench.evaluate");
    let truth: Vec<f64> = queries.iter().map(|q| q.true_answer(dataset)).collect();
    let estimates: Vec<f64> = match strategy {
        StrategyUnderTest::Oug
        | StrategyUnderTest::Ohg
        | StrategyUnderTest::OugOlh
        | StrategyUnderTest::OhgOlh => {
            let base = match strategy {
                StrategyUnderTest::Oug | StrategyUnderTest::OugOlh => Strategy::Oug,
                _ => Strategy::Ohg,
            };
            let mut config = FelipConfig::new(epsilon)
                .with_strategy(base)
                .with_selectivity(SelectivityPrior::Uniform(selectivity_prior));
            if matches!(
                strategy,
                StrategyUnderTest::OugOlh | StrategyUnderTest::OhgOlh
            ) {
                config = config.with_forced_fo(FoKind::Olh);
            }
            let est = simulate(dataset, &config, seed)?;
            est.answer_all(queries)?
        }
        StrategyUnderTest::Hio => {
            let est = run_hio(dataset, epsilon, seed)?;
            est.answer_all(queries)?
        }
        StrategyUnderTest::Tdg => run_tdg(dataset, epsilon, seed)?.answer_all(queries)?,
        StrategyUnderTest::Hdg => run_hdg(dataset, epsilon, seed)?.answer_all(queries)?,
    };
    try_mae(&estimates, &truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use felip_datasets::{generate_queries, uniform, GenOptions, WorkloadOptions};

    fn opts() -> GenOptions {
        GenOptions {
            n: 20_000,
            numerical: 2,
            categorical: 1,
            numerical_domain: 32,
            categorical_domain: 4,
            seed: 1,
        }
    }

    #[test]
    fn all_strategies_produce_finite_mae() {
        let data = uniform(opts());
        let qs = generate_queries(
            data.schema(),
            WorkloadOptions {
                lambda: 2,
                selectivity: 0.5,
                count: 4,
                seed: 2,
                range_only: false,
            },
        )
        .unwrap();
        for s in [
            StrategyUnderTest::Oug,
            StrategyUnderTest::Ohg,
            StrategyUnderTest::OugOlh,
            StrategyUnderTest::OhgOlh,
            StrategyUnderTest::Hio,
        ] {
            let m = evaluate_mae(s, &data, &qs, 1.0, 0.5, 3).unwrap();
            assert!(m.is_finite() && m >= 0.0, "{s}: MAE {m}");
            assert!(m < 0.5, "{s}: MAE {m} absurdly high");
        }
    }

    #[test]
    fn grid_baselines_need_numerical_schema() {
        let data = uniform(opts()); // has a categorical attribute
        let qs = generate_queries(
            data.schema(),
            WorkloadOptions {
                lambda: 2,
                selectivity: 0.5,
                count: 2,
                seed: 2,
                range_only: true,
            },
        )
        .unwrap();
        assert!(evaluate_mae(StrategyUnderTest::Tdg, &data, &qs, 1.0, 0.5, 3).is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(StrategyUnderTest::OugOlh.to_string(), "OUG-OLH");
        assert_eq!(StrategyUnderTest::Hdg.to_string(), "HDG");
    }
}
