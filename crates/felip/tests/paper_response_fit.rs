//! Algorithm 3 on the paper's own workload (§6.2: n = 10⁶, k = 6 with three
//! numerical and three categorical attributes, ε = 1, OHG): every response
//! matrix fit stops once a sweep moves the matrix by less than 1/n. A
//! num × cat fit reaches its fixed point after one sweep; a num × num fit's
//! movement decays geometrically and, at this seed, crosses 1/n after 167,
//! 137 and 105 sweeps for pairs (0, 1), (0, 2) and (1, 2). The nine
//! num × cat pairs stop at sweep 2; the three cat × cat pairs fit nothing.
//! These are the builds `perfbench`'s `paper_batch --seed 1` runs.
//!
//! Reads the process-global recorder, so it lives in its own test binary.

use felip::{simulate, CollectionPlan, FelipConfig, Strategy};
use felip_common::rng::derive_seed;
use felip_common::AttrKind;
use felip_datasets::generators::{ipums_like, GenOptions};
use felip_obs::MetricValue;

const N: usize = 1_000_000;

/// The run seed, expanded into data, plan and collection seeds the way
/// `paper_batch --seed 1` expands it.
const SEED: u64 = 1;

/// `MAX_SWEEPS` in `felip_grid::response`.
const MAX_SWEEPS: u64 = 200;

/// The `(count, max)` of the `grid.response.sweeps` histogram and the
/// `grid.response.converged` counter since the last reset.
fn recorded() -> (u64, u64, u64) {
    let rec = felip_obs::global();
    let (count, max) = match rec.metric("grid.response.sweeps").map(|m| m.value) {
        Some(MetricValue::Histogram(h)) => (h.count, h.max),
        _ => (0, 0),
    };
    let converged = match rec.metric("grid.response.converged").map(|m| m.value) {
        Some(MetricValue::Counter(c)) => c,
        _ => 0,
    };
    (count, max, converged)
}

#[test]
fn paper_response_fits_stop_at_their_fixed_point() {
    let opts = GenOptions::paper_default();
    let schema = opts.schema();
    let data = ipums_like(GenOptions {
        n: N,
        seed: derive_seed(SEED, 0xDA7A),
        ..opts
    });
    let config = FelipConfig::new(1.0).with_strategy(Strategy::Ohg);
    let plan = CollectionPlan::build(&schema, N, &config, derive_seed(SEED, 1)).unwrap();
    let est = simulate::collect(&data, &plan, derive_seed(SEED, 2))
        .unwrap()
        .estimate()
        .unwrap();

    let numerical = |a: usize| schema.attr(a).kind == AttrKind::Numerical;
    let mut report = Vec::new();
    for i in 0..schema.len() {
        for j in i + 1..schema.len() {
            felip_obs::global().reset();
            felip_obs::enable();
            est.response_matrix(i, j).unwrap();
            felip_obs::disable();
            let (builds, sweeps, converged) = recorded();
            report.push(format!("({i}, {j}) {sweeps}"));
            match (numerical(i), numerical(j)) {
                // The cat × cat grid is the matrix: nothing is fitted.
                (false, false) => assert_eq!(builds, 0, "cat × cat pair ({i}, {j})"),
                (true, true) => {
                    assert_eq!((builds, converged), (1, 1), "num × num pair ({i}, {j})");
                    assert!(sweeps < MAX_SWEEPS, "pair ({i}, {j}): {sweeps} sweeps");
                }
                _ => {
                    assert_eq!((builds, converged), (1, 1), "num × cat pair ({i}, {j})");
                    assert!(sweeps <= 3, "pair ({i}, {j}): {sweeps} sweeps");
                }
            }
        }
    }
    eprintln!("sweeps per pair: {}", report.join(", "));
}
