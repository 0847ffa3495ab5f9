//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! These do not correspond to numbered figures in the paper; they isolate
//! individual mechanisms: the AFO crossover (§5.3), population partitioning
//! vs budget splitting (Theorem 5.1), post-processing (§5.4), and the
//! selectivity prior (§5.2).

use rand::Rng;

use felip::{simulate, FelipConfig, SelectivityPrior, Strategy};
use felip_common::metrics::mae;
use felip_common::rng::seeded_rng;
use felip_common::Dataset;
use felip_datasets::{generate_queries, DatasetKind, WorkloadOptions};
use felip_fo::{FrequencyOracle, Grr, Olh};

use crate::profile::Profile;
use crate::table::CsvSink;

/// AFO crossover: empirical MAE of GRR vs OLH for one frequency-estimation
/// task as the domain size L grows, at several ε. The empirical crossover
/// must track the analytic `L = 3e^ε + 2` (Eq. 13).
pub fn afo_crossover(profile: &Profile) -> std::io::Result<()> {
    let mut sink = CsvSink::new(
        "afo_crossover",
        "epsilon,cells,protocol,mae,analytic_variance",
        profile.out_dir.as_deref(),
    )?;
    let n = profile.n.min(100_000);
    for &eps in &[0.5f64, 1.0, 2.0] {
        for &cells in &[2u32, 4, 8, 12, 16, 24, 32, 64, 128] {
            // Ground truth: Zipf-ish distribution over the cells.
            let h: f64 = (1..=cells).map(|i| 1.0 / i as f64).sum();
            let truth: Vec<f64> = (1..=cells).map(|i| 1.0 / (i as f64 * h)).collect();
            let mut rng = seeded_rng(profile.seed ^ (cells as u64) << 8 ^ eps.to_bits());
            let values: Vec<u32> = (0..n)
                .map(|_| {
                    let mut u = rng.gen::<f64>();
                    for (v, &t) in truth.iter().enumerate() {
                        u -= t;
                        if u <= 0.0 {
                            return v as u32;
                        }
                    }
                    cells - 1
                })
                .collect();
            let grr = Grr::new(eps, cells);
            let olh = Olh::new(eps, cells);
            for (name, oracle) in [
                ("GRR", &grr as &dyn FrequencyOracle),
                ("OLH", &olh as &dyn FrequencyOracle),
            ] {
                let reports: Vec<_> = values
                    .iter()
                    .map(|&v| oracle.perturb(v, &mut rng))
                    .collect();
                let est = oracle.aggregate(&reports).unwrap();
                let m = mae(&est, &truth);
                sink.write_row(&format!(
                    "{eps},{cells},{name},{m:.6},{:.3e}",
                    oracle.variance(n)
                ))?;
            }
        }
    }
    Ok(())
}

/// Theorem 5.1 empirically: estimating one attribute's distribution when
/// the work is split over `m` tasks — divide the *users* (each reports once
/// with full ε) vs divide the *budget* (each user reports m times with
/// ε/m). User division must win for both protocols.
pub fn ablation_partitioning(profile: &Profile) -> std::io::Result<()> {
    let mut sink = CsvSink::new(
        "ablation_partitioning",
        "protocol,m,scheme,mae",
        profile.out_dir.as_deref(),
    )?;
    let n = profile.n.min(100_000);
    let cells = 16u32;
    let eps = 1.0;
    let truth: Vec<f64> = {
        let z: f64 = (1..=cells).map(|i| 1.0 / i as f64).sum();
        (1..=cells).map(|i| 1.0 / (i as f64 * z)).collect()
    };
    let mut rng = seeded_rng(profile.seed ^ 0xA11);
    let sample = |rng: &mut rand::rngs::StdRng| -> u32 {
        let mut u = rng.gen::<f64>();
        for (v, &t) in truth.iter().enumerate() {
            u -= t;
            if u <= 0.0 {
                return v as u32;
            }
        }
        cells - 1
    };
    for &m in &[2usize, 5, 10] {
        for proto in ["GRR", "OLH"] {
            let make = |e: f64| -> Box<dyn FrequencyOracle> {
                if proto == "GRR" {
                    Box::new(Grr::new(e, cells))
                } else {
                    Box::new(Olh::new(e, cells))
                }
            };
            // Scheme A: divide users — the first n/m users report with full ε.
            let full = make(eps);
            let reports: Vec<_> = (0..n / m)
                .map(|_| full.perturb(sample(&mut rng), &mut rng))
                .collect();
            let est = full.aggregate(&reports).unwrap();
            sink.write_row(&format!(
                "{proto},{m},divide-users,{:.6}",
                mae(&est, &truth)
            ))?;
            // Scheme B: split budget — all n users report with ε/m (one of
            // the m reports; by symmetry all m estimates are identically
            // distributed, so one representative grid suffices).
            let split = make(eps / m as f64);
            let reports: Vec<_> = (0..n)
                .map(|_| split.perturb(sample(&mut rng), &mut rng))
                .collect();
            let est = split.aggregate(&reports).unwrap();
            sink.write_row(&format!(
                "{proto},{m},split-budget,{:.6}",
                mae(&est, &truth)
            ))?;
        }
    }
    Ok(())
}

/// Post-processing ablation: OHG with 0 / 1 / 2 consistency rounds (0 still
/// applies the final norm-sub, per §5.4's closing step).
pub fn ablation_postprocess(profile: &Profile) -> std::io::Result<()> {
    let mut sink = CsvSink::new(
        "ablation_postprocess",
        "dataset,rounds,mae",
        profile.out_dir.as_deref(),
    )?;
    for kind in [DatasetKind::Normal, DatasetKind::IpumsLike] {
        let data = kind.generate(profile.gen_options(0xA2));
        let queries = generate_queries(
            data.schema(),
            WorkloadOptions {
                lambda: 2,
                selectivity: 0.5,
                count: profile.queries,
                seed: profile.seed ^ 0xA2,
                range_only: false,
            },
        )
        .expect("valid workload");
        let truth: Vec<f64> = queries.iter().map(|q| q.true_answer(&data)).collect();
        for rounds in [0usize, 1, 2, 4] {
            let config = FelipConfig::new(1.0)
                .with_strategy(Strategy::Ohg)
                .with_postprocess_rounds(rounds);
            let est = simulate(&data, &config, profile.seed).expect("simulation succeeds");
            let answers = est.answer_all(&queries).expect("answering succeeds");
            sink.write_row(&format!("{kind},{rounds},{:.6}", mae(&answers, &truth)))?;
        }
    }
    Ok(())
}

/// Selectivity-prior ablation: the workload has true selectivity 0.2; FELIP
/// sizes its grids with priors 0.2 (informed), 0.5 (uninformed default) and
/// 0.8 (misinformed). The informed prior should win (§5.2's knob).
pub fn ablation_selectivity(profile: &Profile) -> std::io::Result<()> {
    let mut sink = CsvSink::new(
        "ablation_selectivity",
        "dataset,prior,true_selectivity,mae",
        profile.out_dir.as_deref(),
    )?;
    let true_s = 0.2;
    for kind in [DatasetKind::Normal, DatasetKind::IpumsLike] {
        let data: Dataset = kind.generate(profile.gen_options(0xA3));
        let queries = generate_queries(
            data.schema(),
            WorkloadOptions {
                lambda: 2,
                selectivity: true_s,
                count: profile.queries,
                seed: profile.seed ^ 0xA3,
                range_only: false,
            },
        )
        .expect("valid workload");
        let truth: Vec<f64> = queries.iter().map(|q| q.true_answer(&data)).collect();
        for prior in [0.2, 0.5, 0.8] {
            let config = FelipConfig::new(1.0)
                .with_strategy(Strategy::Ohg)
                .with_selectivity(SelectivityPrior::Uniform(prior));
            let est = simulate(&data, &config, profile.seed).expect("simulation succeeds");
            let answers = est.answer_all(&queries).expect("answering succeeds");
            sink.write_row(&format!(
                "{kind},{prior},{true_s},{:.6}",
                mae(&answers, &truth)
            ))?;
        }
    }
    Ok(())
}

/// Two-phase data-aware binning ablation (DESIGN.md §8): one-phase FELIP vs
/// spending ρ of the population learning coarse marginals and binning by
/// equal mass, on skewed data with narrow queries.
pub fn ablation_twophase(profile: &Profile) -> std::io::Result<()> {
    let mut sink = CsvSink::new(
        "ablation_twophase",
        "dataset,selectivity,variant,mae",
        profile.out_dir.as_deref(),
    )?;
    for kind in [DatasetKind::Normal, DatasetKind::LoanLike] {
        let data = kind.generate(profile.gen_options(0xA5));
        for s in [0.1, 0.3, 0.5] {
            let queries = generate_queries(
                data.schema(),
                WorkloadOptions {
                    lambda: 2,
                    selectivity: s,
                    count: profile.queries,
                    seed: profile.seed ^ 0xA5,
                    range_only: false,
                },
            )
            .expect("valid workload");
            let truth: Vec<f64> = queries.iter().map(|q| q.true_answer(&data)).collect();
            let config = FelipConfig::new(1.0)
                .with_strategy(Strategy::Ohg)
                .with_selectivity(felip::SelectivityPrior::Uniform(s));
            let one = simulate(&data, &config, profile.seed).expect("one-phase run");
            sink.write_row(&format!(
                "{kind},{s},one-phase,{:.6}",
                mae(&one.answer_all(&queries).expect("answers"), &truth)
            ))?;
            for rho in [0.05, 0.1, 0.2] {
                let two = felip::simulate_two_phase(&data, &config, rho, profile.seed)
                    .expect("two-phase run");
                sink.write_row(&format!(
                    "{kind},{s},two-phase-{rho},{:.6}",
                    mae(&two.answer_all(&queries).expect("answers"), &truth)
                ))?;
            }
        }
    }
    Ok(())
}

/// 1-D marginal estimation shoot-out: the OLH grid OHG uses vs the Square
/// Wave + EM mechanism of Li et al. (the paper's reference \[25\]) on a
/// skewed ordinal attribute, across ε.
pub fn sw_vs_olh(profile: &Profile) -> std::io::Result<()> {
    use felip_fo::sw::SquareWave;
    let mut sink = CsvSink::new(
        "sw_vs_olh",
        "epsilon,mechanism,mae",
        profile.out_dir.as_deref(),
    )?;
    let d = 64u32;
    let n = profile.n.min(100_000);
    // Truth: normal-ish hump centred at d/3.
    let truth: Vec<f64> = {
        let mut t: Vec<f64> = (0..d)
            .map(|v| {
                let z = (v as f64 - d as f64 / 3.0) / (d as f64 / 8.0);
                (-0.5 * z * z).exp()
            })
            .collect();
        let s: f64 = t.iter().sum();
        t.iter_mut().for_each(|x| *x /= s);
        t
    };
    let mut rng = seeded_rng(profile.seed ^ 0xA6);
    let sample = |rng: &mut rand::rngs::StdRng| -> u32 {
        let mut u = rng.gen::<f64>();
        for (v, &t) in truth.iter().enumerate() {
            u -= t;
            if u <= 0.0 {
                return v as u32;
            }
        }
        d - 1
    };
    for &eps in &[0.5f64, 1.0, 2.0] {
        let values: Vec<u32> = (0..n).map(|_| sample(&mut rng)).collect();
        // OLH over the raw 64-value domain + norm-sub.
        let olh = Olh::new(eps, d);
        let reports: Vec<_> = values.iter().map(|&v| olh.perturb(v, &mut rng)).collect();
        let mut est = olh.aggregate(&reports).unwrap();
        felip_grid::postprocess::norm_sub(&mut est, 1.0);
        sink.write_row(&format!("{eps},OLH,{:.6}", mae(&est, &truth)))?;
        // Square Wave + EM.
        let sw = SquareWave::new(eps, d);
        let reports: Vec<f64> = values.iter().map(|&v| sw.perturb(v, &mut rng)).collect();
        let est = sw.estimate(&reports, 256, 60);
        sink.write_row(&format!("{eps},SquareWave,{:.6}", mae(&est, &truth)))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro() -> Profile {
        Profile {
            n: 3_000,
            numerical_domain: 16,
            categorical_domain: 4,
            numerical: 2,
            categorical: 2,
            queries: 2,
            repeats: 1,
            seed: 2,
            out_dir: None,
        }
    }

    #[test]
    fn partitioning_smoke() {
        ablation_partitioning(&micro()).unwrap();
    }

    #[test]
    fn selectivity_smoke() {
        ablation_selectivity(&micro()).unwrap();
    }
}
