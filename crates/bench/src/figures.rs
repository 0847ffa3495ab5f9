//! One sweep function per paper figure (§6.2–§6.3) plus the ablations.
//!
//! Every function prints (and optionally writes) CSV rows:
//! `figure,dataset,lambda,x,strategy,mae` — one row per plotted point. The
//! MAE of each point is averaged over `profile.repeats` independent
//! collections.

use felip_common::metrics::mean;
use felip_common::{Dataset, Query};
use felip_datasets::{generate_queries, DatasetKind, GenOptions, WorkloadOptions};

use crate::profile::Profile;
use crate::runner::{evaluate_mae, StrategyUnderTest};
use crate::table::CsvSink;

/// Standard CSV header shared by all figures.
pub const HEADER: &str = "figure,dataset,lambda,x,strategy,mae";

/// The ε sweep of Figures 1 and 7.
pub fn epsilon_sweep(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.5, 1.0, 2.0, 3.0]
    } else {
        vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    }
}

/// The MAE of one plotted point, averaged over `profile.repeats`
/// collections. A failed repeat is an error naming the strategy, ε and the
/// repeat's seed: dropping it would silently average fewer repeats.
fn average_mae(
    strategy: StrategyUnderTest,
    data: &Dataset,
    queries: &[Query],
    epsilon: f64,
    selectivity: f64,
    profile: &Profile,
    point_seed: u64,
) -> std::io::Result<f64> {
    let maes = (0..profile.repeats.max(1))
        .map(|r| {
            let seed = point_seed ^ (r as u64) << 32;
            evaluate_mae(strategy, data, queries, epsilon, selectivity, seed).map_err(|e| {
                std::io::Error::other(format!("{strategy} at ε = {epsilon}, seed {seed}: {e}"))
            })
        })
        .collect::<std::io::Result<Vec<f64>>>()?;
    Ok(mean(&maes))
}

/// Figure 1: MAE vs privacy budget ε, four datasets, λ ∈ {2, 4},
/// OUG / OHG / HIO.
pub fn fig1(profile: &Profile) -> std::io::Result<()> {
    let mut sink = CsvSink::new("fig1", HEADER, profile.out_dir.as_deref())?;
    let quick = profile.n < 200_000;
    for kind in DatasetKind::all() {
        let data = kind.generate(profile.gen_options(0x01));
        for lambda in [2usize, 4] {
            let queries = generate_queries(
                data.schema(),
                WorkloadOptions {
                    lambda,
                    selectivity: 0.5,
                    count: profile.queries,
                    seed: profile.seed ^ 0xF1,
                    range_only: false,
                },
            )
            .expect("default schema supports lambda in {2,4}");
            for eps in epsilon_sweep(quick) {
                for strat in StrategyUnderTest::main_contenders() {
                    let m = average_mae(strat, &data, &queries, eps, 0.5, profile, profile.seed)?;
                    sink.write_row(&format!("fig1,{kind},{lambda},{eps},{strat},{m:.6}"))?;
                }
            }
        }
    }
    Ok(())
}

/// Figure 2: MAE vs query selectivity s ∈ {0.1 … 0.9}, ε = 1.
///
/// FELIP's grids are sized with the workload's true selectivity as the
/// prior (that knob is the point of §5.2); the baselines have no such input.
pub fn fig2(profile: &Profile) -> std::io::Result<()> {
    let mut sink = CsvSink::new("fig2", HEADER, profile.out_dir.as_deref())?;
    let quick = profile.n < 200_000;
    let sweep: Vec<f64> = if quick {
        vec![0.1, 0.3, 0.5, 0.7, 0.9]
    } else {
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    };
    for kind in DatasetKind::all() {
        let data = kind.generate(profile.gen_options(0x02));
        for lambda in [2usize, 4] {
            for &s in &sweep {
                let queries = generate_queries(
                    data.schema(),
                    WorkloadOptions {
                        lambda,
                        selectivity: s,
                        count: profile.queries,
                        seed: profile.seed ^ 0xF2,
                        range_only: false,
                    },
                )
                .expect("valid workload");
                for strat in StrategyUnderTest::main_contenders() {
                    let m = average_mae(strat, &data, &queries, 1.0, s, profile, profile.seed)?;
                    sink.write_row(&format!("fig2,{kind},{lambda},{s},{strat},{m:.6}"))?;
                }
            }
        }
    }
    Ok(())
}

/// Figure 3: MAE vs attribute domain size. Numerical domains sweep
/// 25 → 1600 (paper) / 16 → 256 (quick); categorical domains sweep 2 → 8
/// alongside.
pub fn fig3(profile: &Profile) -> std::io::Result<()> {
    let mut sink = CsvSink::new("fig3", HEADER, profile.out_dir.as_deref())?;
    let quick = profile.n < 200_000;
    let sweep: Vec<(u32, u32)> = if quick {
        vec![(16, 2), (32, 3), (64, 4), (128, 6), (256, 8)]
    } else {
        vec![
            (25, 2),
            (50, 3),
            (100, 4),
            (200, 5),
            (400, 6),
            (800, 7),
            (1600, 8),
        ]
    };
    for kind in DatasetKind::all() {
        for &(dn, dc) in &sweep {
            let opts = GenOptions {
                numerical_domain: dn,
                categorical_domain: dc,
                ..profile.gen_options(0x03)
            };
            let data = kind.generate(opts);
            for lambda in [2usize, 4] {
                let queries = generate_queries(
                    data.schema(),
                    WorkloadOptions {
                        lambda,
                        selectivity: 0.5,
                        count: profile.queries,
                        seed: profile.seed ^ 0xF3,
                        range_only: false,
                    },
                )
                .expect("valid workload");
                for strat in StrategyUnderTest::main_contenders() {
                    let m = average_mae(strat, &data, &queries, 1.0, 0.5, profile, profile.seed)?;
                    sink.write_row(&format!("fig3,{kind},{lambda},{dn},{strat},{m:.6}"))?;
                }
            }
        }
    }
    Ok(())
}

/// Figure 4: MAE vs query dimension λ ∈ {2 … 10} over a 10-attribute
/// schema (5 numerical + 5 categorical).
pub fn fig4(profile: &Profile) -> std::io::Result<()> {
    let mut sink = CsvSink::new("fig4", HEADER, profile.out_dir.as_deref())?;
    let quick = profile.n < 200_000;
    let lambdas: Vec<usize> = if quick {
        vec![2, 4, 6, 8, 10]
    } else {
        (2..=10).collect()
    };
    for kind in DatasetKind::all() {
        let opts = GenOptions {
            numerical: 5,
            categorical: 5,
            ..profile.gen_options(0x04)
        };
        let data = kind.generate(opts);
        for &lambda in &lambdas {
            let queries = generate_queries(
                data.schema(),
                WorkloadOptions {
                    lambda,
                    selectivity: 0.5,
                    count: profile.queries,
                    seed: profile.seed ^ 0xF4,
                    range_only: false,
                },
            )
            .expect("10-attribute schema supports lambda up to 10");
            for strat in StrategyUnderTest::main_contenders() {
                let m = average_mae(strat, &data, &queries, 1.0, 0.5, profile, profile.seed)?;
                sink.write_row(&format!("fig4,{kind},{lambda},{lambda},{strat},{m:.6}"))?;
            }
        }
    }
    Ok(())
}

/// Figure 5: MAE vs number of attributes k ∈ {4 … 10} (half numerical,
/// half categorical), λ ∈ {2, 4}.
pub fn fig5(profile: &Profile) -> std::io::Result<()> {
    let mut sink = CsvSink::new("fig5", HEADER, profile.out_dir.as_deref())?;
    let quick = profile.n < 200_000;
    let ks: Vec<usize> = if quick {
        vec![4, 6, 8, 10]
    } else {
        (4..=10).collect()
    };
    for kind in DatasetKind::all() {
        for &k in &ks {
            let opts = GenOptions {
                numerical: k.div_ceil(2),
                categorical: k / 2,
                ..profile.gen_options(0x05)
            };
            let data = kind.generate(opts);
            for lambda in [2usize, 4] {
                let queries = generate_queries(
                    data.schema(),
                    WorkloadOptions {
                        lambda,
                        selectivity: 0.5,
                        count: profile.queries,
                        seed: profile.seed ^ 0xF5,
                        range_only: false,
                    },
                )
                .expect("k >= 4 supports lambda in {2,4}");
                for strat in StrategyUnderTest::main_contenders() {
                    let m = average_mae(strat, &data, &queries, 1.0, 0.5, profile, profile.seed)?;
                    sink.write_row(&format!("fig5,{kind},{lambda},{k},{strat},{m:.6}"))?;
                }
            }
        }
    }
    Ok(())
}

/// Figure 6: MAE vs population size n. The paper sweeps 10⁵ → 10⁷ (Loan:
/// 10⁴ → 10⁶); quick mode scales the sweep down.
pub fn fig6(profile: &Profile) -> std::io::Result<()> {
    let mut sink = CsvSink::new("fig6", HEADER, profile.out_dir.as_deref())?;
    let quick = profile.n < 200_000;
    let base_sweep: Vec<usize> = if quick {
        vec![20_000, 60_000, 200_000]
    } else {
        vec![100_000, 300_000, 1_000_000, 3_000_000, 10_000_000]
    };
    for kind in DatasetKind::all() {
        // The Loan extract has 10× fewer records (§6.2.6).
        let sweep: Vec<usize> = if kind == DatasetKind::LoanLike {
            base_sweep.iter().map(|&n| n / 10).collect()
        } else {
            base_sweep.clone()
        };
        let max_n = *sweep.last().expect("non-empty sweep");
        let opts = GenOptions {
            n: max_n,
            ..profile.gen_options(0x06)
        };
        let full = kind.generate(opts);
        for lambda in [2usize, 4] {
            let queries = generate_queries(
                full.schema(),
                WorkloadOptions {
                    lambda,
                    selectivity: 0.5,
                    count: profile.queries,
                    seed: profile.seed ^ 0xF6,
                    range_only: false,
                },
            )
            .expect("valid workload");
            for &n in &sweep {
                let data = full.truncated(n);
                for strat in StrategyUnderTest::main_contenders() {
                    let m = average_mae(strat, &data, &queries, 1.0, 0.5, profile, profile.seed)?;
                    sink.write_row(&format!("fig6,{kind},{lambda},{n},{strat},{m:.6}"))?;
                }
            }
        }
    }
    Ok(())
}

/// Figure 7: range-constraint-only comparison against TDG/HDG over an
/// all-numerical 6-attribute schema (d = 100, λ = 3), ε sweep; uniform and
/// normal datasets, with and without the adaptive oracle (§6.3).
pub fn fig7(profile: &Profile) -> std::io::Result<()> {
    let mut sink = CsvSink::new("fig7", HEADER, profile.out_dir.as_deref())?;
    let quick = profile.n < 200_000;
    for kind in [DatasetKind::Uniform, DatasetKind::Normal] {
        let opts = GenOptions {
            numerical: 6,
            categorical: 0,
            numerical_domain: 100,
            ..profile.gen_options(0x07)
        };
        let data = kind.generate(opts);
        let queries = generate_queries(
            data.schema(),
            WorkloadOptions {
                lambda: 3,
                selectivity: 0.5,
                count: profile.queries,
                seed: profile.seed ^ 0xF7,
                range_only: true,
            },
        )
        .expect("all-numerical schema supports range-only queries");
        for eps in epsilon_sweep(quick) {
            for strat in StrategyUnderTest::fig7_uniform()
                .into_iter()
                .chain(StrategyUnderTest::fig7_hybrid())
            {
                let m = average_mae(strat, &data, &queries, eps, 0.5, profile, profile.seed)?;
                sink.write_row(&format!("fig7,{kind},3,{eps},{strat},{m:.6}"))?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A micro profile so figure smoke tests stay fast in CI.
    fn micro() -> Profile {
        Profile {
            n: 4_000,
            numerical_domain: 16,
            categorical_domain: 4,
            numerical: 2,
            categorical: 2,
            queries: 2,
            repeats: 1,
            seed: 1,
            out_dir: None,
        }
    }

    #[test]
    fn epsilon_sweep_shapes() {
        assert_eq!(epsilon_sweep(true).len(), 4);
        assert_eq!(epsilon_sweep(false).len(), 6);
    }

    #[test]
    fn fig1_smoke() {
        fig1(&micro()).unwrap();
    }

    #[test]
    fn fig7_smoke() {
        fig7(&micro()).unwrap();
    }

    #[test]
    fn a_failed_repeat_is_an_error_naming_strategy_epsilon_and_seed() {
        let profile = micro();
        let data = DatasetKind::all()[0].generate(profile.gen_options(0x01));
        let queries = generate_queries(
            data.schema(),
            WorkloadOptions {
                lambda: 2,
                selectivity: 0.5,
                count: 2,
                seed: 3,
                range_only: false,
            },
        )
        .unwrap();
        // ε = 0 gives no privacy budget: every repeat fails.
        let err = average_mae(
            StrategyUnderTest::Ohg,
            &data,
            &queries,
            0.0,
            0.5,
            &profile,
            7,
        )
        .expect_err("a failed repeat must not average to a number");
        let msg = err.to_string();
        assert!(
            msg.contains("OHG") && msg.contains("ε = 0") && msg.contains("seed 7"),
            "{msg}"
        );
    }
}
