//! Algorithm 4 on the paper's own query lists (§6.2: k = 6, ε = 1, OHG,
//! |Q| = 10, s = 0.5): the fits of the λ = 4 and λ = 6 lists must stop
//! below their 1/n threshold instead of running into `MAX_SWEEPS`, and
//! where they stop the answer must already be the fixed point's. Checked
//! on two collections: the raw seeds this test started with, and the ones
//! `perfbench`'s `paper_batch --seed 1` expands with `derive_seed`.

use felip::{simulate, CollectionPlan, FelipConfig, Strategy};
use felip_common::rng::derive_seed;
use felip_common::Query;
use felip_datasets::generators::{ipums_like, GenOptions};
use felip_datasets::workload::{generate_queries, WorkloadOptions};
use felip_grid::lambda::{fit_constraints_full, Constraint, PairAnswer, MAX_SWEEPS};

const N: usize = 1_000_000;

/// The query lists' seed in `perfbench` (`paper::QUERY_SEED`).
const QUERY_SEED: u64 = 0xC0FFEE;

/// Threshold of the reference fit each answer is compared with.
const TIGHT: f64 = 1e-12;

/// Where a collection's randomness comes from.
struct Seeds {
    data: u64,
    plan: u64,
    collect: u64,
}

/// Fits every λ = 4 and λ = 6 query of the paper lists on one collection
/// and checks its stop and its answer.
fn check_lists(seeds: Seeds) {
    let opts = GenOptions::paper_default();
    let schema = opts.schema();
    let data = ipums_like(GenOptions {
        n: N,
        seed: seeds.data,
        ..opts
    });
    let config = FelipConfig::new(1.0).with_strategy(Strategy::Ohg);
    let plan = CollectionPlan::build(&schema, N, &config, seeds.plan).unwrap();
    let est = simulate::collect(&data, &plan, seeds.collect)
        .unwrap()
        .estimate()
        .unwrap();
    let threshold = 1.0 / N as f64;
    for lambda in [4, 6] {
        let queries: Vec<Query> = generate_queries(
            &schema,
            WorkloadOptions {
                lambda,
                seed: QUERY_SEED,
                ..WorkloadOptions::paper_default()
            },
        )
        .unwrap();
        for (q, query) in queries.iter().enumerate() {
            let preds = query.predicates();
            let mut constraints: Vec<Constraint> = Vec::new();
            for s in 0..lambda {
                for t in s + 1..lambda {
                    let m = est.response_matrix(preds[s].attr, preds[t].attr).unwrap();
                    let answer = m.answer(Some(&preds[s]), Some(&preds[t]));
                    constraints.push(PairAnswer { s, t, answer }.into());
                }
            }
            let fit = fit_constraints_full(lambda, &constraints, threshold);
            assert!(
                fit.converged(threshold) && fit.sweeps < MAX_SWEEPS,
                "λ {lambda} query {q}: residual {:e} after {} sweeps",
                fit.residual,
                fit.sweeps
            );
            let all = (1usize << lambda) - 1;
            let tight = fit_constraints_full(lambda, &constraints, TIGHT);
            assert!(
                (fit.z[all] - tight.z[all]).abs() < 1e-6,
                "λ {lambda} query {q}: answer {} at 1/n, {} at {TIGHT:e}",
                fit.z[all],
                tight.z[all]
            );
        }
    }
}

#[test]
fn paper_lambda_lists_converge_below_one_over_n() {
    check_lists(Seeds {
        data: GenOptions::paper_default().seed,
        plan: 1,
        collect: 2,
    });
}

#[test]
fn paper_batch_lambda_lists_converge_below_one_over_n() {
    check_lists(Seeds {
        data: derive_seed(1, 0xDA7A),
        plan: derive_seed(1, 1),
        collect: derive_seed(1, 2),
    });
}
