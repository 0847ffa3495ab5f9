//! End-to-end simulation: runs the whole plan → collect → estimate pipeline
//! over an in-memory dataset, standing in for a real fleet of devices.

use std::sync::Arc;

use rand::Rng;
use rayon::prelude::*;

use felip_common::rng::{derive_seed, seeded_rng};
use felip_common::{Dataset, Result};

use crate::aggregator::{sort_by_group, Aggregator, OracleSet};
use crate::answer::Estimator;
use crate::config::FelipConfig;
use crate::plan::CollectionPlan;

/// Simulates a full FELIP collection over `dataset` and returns the
/// query-answering [`Estimator`].
///
/// Each record plays one user: it is assigned to a group, projected onto
/// that group's grid, perturbed under ε-LDP, and ingested by the aggregator.
/// The simulation is deterministic in `seed` and parallelises over record
/// shards (each shard owns an independent RNG stream and a private
/// aggregator; shards merge at the end, which
/// [`Aggregator::merge`] makes exactly equivalent to sequential ingestion).
pub fn simulate(dataset: &Dataset, config: &FelipConfig, seed: u64) -> Result<Estimator> {
    let _span = felip_obs::span!("simulate");
    let plan = CollectionPlan::build(
        dataset.schema(),
        dataset.len(),
        config,
        derive_seed(seed, 0),
    )?;
    let agg = collect(dataset, &plan, derive_seed(seed, 1))?;
    agg.estimate()
}

/// Records per collection shard. Shard `s` covers records
/// `s * SHARD .. (s + 1) * SHARD` and perturbs them with its own RNG
/// stream, `derive_seed(seed, s)`, so a replay that mirrors the sharding
/// reproduces [`collect`] exactly.
pub const SHARD: usize = 16_384;

/// Runs only the collection phase, returning the raw [`Aggregator`] (used by
/// tests and ablations that inspect pre-post-processing state).
pub fn collect(dataset: &Dataset, plan: &CollectionPlan, seed: u64) -> Result<Aggregator> {
    let _span = felip_obs::span!("collect");
    // One shared plan handle and one oracle set for the whole collection;
    // every shard clones the `Arc`s instead of rebuilding either.
    let plan = Arc::new(plan.clone());
    let oracles = Arc::new(OracleSet::build(&plan));

    let n = dataset.len();
    if n == 0 {
        return Err(felip_common::Error::InvalidParameter(
            "cannot collect from an empty dataset".into(),
        ));
    }
    let num_groups = plan.num_groups();
    let num_shards = n.div_ceil(SHARD);
    let mut shards: Vec<Aggregator> = (0..num_shards)
        .into_par_iter()
        .map(|s| {
            let _span = felip_obs::span!("shard");
            let mut rng = seeded_rng(derive_seed(seed, s as u64));
            let users = s * SHARD..((s + 1) * SHARD).min(n);
            // Perturb in record order, so the RNG stream is identical to
            // per-report ingestion, into one buffer laid out group by group;
            // then hand each group's run to the batch kernel in one call per
            // grid.
            let (reports, offsets) = {
                let _perturb = felip_obs::span!("perturb");
                let groups: Vec<usize> = users.clone().map(|u| plan.group_of(u)).collect();
                let perturbed = users.zip(&groups).map(|(u, &group)| {
                    let cell = plan.grids()[group].cell_of_record(dataset.row(u));
                    oracles.get(group).perturb(cell, &mut rng)
                });
                sort_by_group(&groups, perturbed, num_groups)
            };
            let mut agg = Aggregator::with_oracles(Arc::clone(&plan), Arc::clone(&oracles));
            {
                let _ingest = felip_obs::span!("ingest");
                for (group, run) in offsets.windows(2).enumerate() {
                    agg.ingest_group_batch(group, &reports[run[0]..run[1]])
                        .expect("group index is valid");
                }
            }
            agg
        })
        .collect();
    let mut total = shards
        .pop()
        .expect("num_shards >= 1 when the dataset is non-empty");
    for s in &shards {
        total.merge(s)?;
    }
    Ok(total)
}

/// Generates a uniform random dataset over `schema` — a convenience used by
/// doc examples and smoke tests (real generators live in `felip-datasets`).
pub fn uniform_dataset(schema: &felip_common::Schema, n: usize, seed: u64) -> Dataset {
    let mut rng = seeded_rng(seed);
    let mut data = Dataset::empty(schema.clone());
    let mut row = vec![0u32; schema.len()];
    for _ in 0..n {
        for (slot, attr) in row.iter_mut().zip(schema.attrs()) {
            *slot = rng.gen_range(0..attr.domain);
        }
        data.push_unchecked(&row);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;
    use felip_common::{Attribute, Predicate, Query, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::numerical("x", 64),
            Attribute::numerical("y", 64),
            Attribute::categorical("c", 3),
        ])
        .unwrap()
    }

    #[test]
    fn simulate_is_deterministic_in_seed() {
        let data = uniform_dataset(&schema(), 20_000, 1);
        let cfg = FelipConfig::new(1.0);
        let q = Query::new(&schema(), vec![Predicate::between(0, 0, 31)]).unwrap();
        let a = simulate(&data, &cfg, 99).unwrap().answer(&q).unwrap();
        let b = simulate(&data, &cfg, 99).unwrap().answer(&q).unwrap();
        assert_eq!(a, b);
        let c = simulate(&data, &cfg, 100).unwrap().answer(&q).unwrap();
        assert_ne!(a, c, "different seeds should perturb differently");
    }

    #[test]
    fn uniform_data_uniform_estimates() {
        let data = uniform_dataset(&schema(), 50_000, 2);
        let cfg = FelipConfig::new(1.0).with_strategy(Strategy::Oug);
        let est = simulate(&data, &cfg, 3).unwrap();
        let q = Query::new(
            &schema(),
            vec![Predicate::between(0, 0, 31), Predicate::between(1, 0, 31)],
        )
        .unwrap();
        let got = est.answer(&q).unwrap();
        assert!((got - 0.25).abs() < 0.08, "quadrant mass {got}");
    }

    #[test]
    fn rejects_empty_dataset() {
        let data = Dataset::empty(schema());
        assert!(simulate(&data, &FelipConfig::new(1.0), 0).is_err());
    }

    #[test]
    fn collection_covers_every_group() {
        let data = uniform_dataset(&schema(), 30_000, 4);
        let cfg = FelipConfig::new(1.0);
        let plan = CollectionPlan::build(&schema(), data.len(), &cfg, 5).unwrap();
        let agg = collect(&data, &plan, 6).unwrap();
        assert_eq!(agg.reports_ingested(), 30_000);
        assert!(
            agg.group_sizes().iter().all(|&s| s > 0),
            "{:?}",
            agg.group_sizes()
        );
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use crate::config::Strategy;
    use felip_common::{Attribute, Predicate, Query, Schema};

    /// Fewer users than groups: some groups receive zero reports; their
    /// grids estimate as uniform after post-processing and the pipeline
    /// still answers without panicking.
    #[test]
    fn fewer_users_than_groups() {
        let schema = Schema::new(
            (0..8)
                .map(|i| Attribute::numerical(format!("a{i}"), 16))
                .collect(),
        )
        .unwrap();
        // OHG over 8 attributes → 8 + 28 = 36 grids, but only 20 users.
        let data = uniform_dataset(&schema, 20, 3);
        let cfg = FelipConfig::new(1.0).with_strategy(Strategy::Ohg);
        let est = simulate(&data, &cfg, 5).unwrap();
        let q = Query::new(&schema, vec![Predicate::between(0, 0, 7)]).unwrap();
        let a = est.answer(&q).unwrap();
        assert!((0.0..=1.0).contains(&a));
        for g in est.grids() {
            assert!((g.total() - 1.0).abs() < 1e-6);
            assert!(g.freqs().iter().all(|&f| f >= 0.0));
        }
    }

    /// A single-attribute dataset end to end.
    #[test]
    fn single_attribute_end_to_end() {
        let schema = Schema::new(vec![Attribute::numerical("x", 64)]).unwrap();
        let data = uniform_dataset(&schema, 30_000, 4);
        let est = simulate(&data, &FelipConfig::new(1.0), 6).unwrap();
        let q = Query::new(&schema, vec![Predicate::between(0, 0, 31)]).unwrap();
        let a = est.answer(&q).unwrap();
        assert!((a - 0.5).abs() < 0.08, "answer {a}");
    }

    /// Algorithm 4 answers a λ = 3 query from its three pair answers.
    #[test]
    fn lambda_three_end_to_end() {
        let schema = Schema::new(vec![
            Attribute::numerical("x", 32),
            Attribute::numerical("y", 32),
            Attribute::numerical("z", 32),
        ])
        .unwrap();
        let data = uniform_dataset(&schema, 40_000, 7);
        let est = simulate(&data, &FelipConfig::new(1.0), 8).unwrap();
        let q = Query::new(
            &schema,
            vec![
                Predicate::between(0, 0, 15),
                Predicate::between(1, 0, 15),
                Predicate::between(2, 0, 15),
            ],
        )
        .unwrap();
        let a = est.answer(&q).unwrap();
        assert!((a - 0.125).abs() < 0.06, "answer {a} vs 0.125");
    }
}
