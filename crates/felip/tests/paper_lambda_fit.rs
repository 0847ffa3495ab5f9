//! Algorithm 4 on the paper's own query lists (§6.2: k = 6, ε = 1, OHG,
//! |Q| = 10, s = 0.5): the fits of the λ = 4 and λ = 6 lists must stop
//! below their 1/n threshold instead of running into `MAX_SWEEPS` (they
//! take 13–72 sweeps). These are the lists `perfbench`'s `paper_batch`
//! answers.

use felip::{simulate, CollectionPlan, FelipConfig, Strategy};
use felip_common::Query;
use felip_datasets::generators::{ipums_like, GenOptions};
use felip_datasets::workload::{generate_queries, WorkloadOptions};
use felip_grid::lambda::{fit_constraints_full, Constraint, PairAnswer, MAX_SWEEPS};

const N: usize = 1_000_000;

#[test]
fn paper_lambda_lists_converge_below_one_over_n() {
    let opts = GenOptions::paper_default();
    let schema = opts.schema();
    let data = ipums_like(GenOptions { n: N, ..opts });
    let config = FelipConfig::new(1.0).with_strategy(Strategy::Ohg);
    let plan = CollectionPlan::build(&schema, N, &config, 1).unwrap();
    let est = simulate::collect(&data, &plan, 2)
        .unwrap()
        .estimate()
        .unwrap();
    let threshold = 1.0 / N as f64;
    for lambda in [4, 6] {
        let queries: Vec<Query> = generate_queries(
            &schema,
            WorkloadOptions {
                lambda,
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
        }
    }
}
