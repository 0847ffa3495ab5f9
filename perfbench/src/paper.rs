//! The paper's default experiment shape (§6.2): k = 6 attributes (3
//! numerical with d = 256, 3 categorical with d = 8), n = 10⁶ users,
//! ε = 1, the OHG grid strategy, and query lists of |Q| = 10 with
//! selectivity s = 0.5 for λ = 2, 4 and 6.

use felip::{CollectionPlan, FelipConfig, Strategy};
use felip_common::rng::derive_seed;
use felip_common::{AttrKind, Dataset, Query, Result, Schema};
use felip_datasets::generators::{ipums_like, GenOptions};
use felip_datasets::workload::{generate_queries, WorkloadOptions};

/// Users the plan is built for.
pub const N: usize = 1_000_000;
/// Privacy budget.
pub const EPSILON: f64 = 1.0;
/// Query dimensions of the three lists.
pub const LAMBDAS: [usize; 3] = [2, 4, 6];
/// Seed of the query lists. Fixed, not derived from `--seed`: every run
/// asks the same queries, so every run does the same answering work.
pub const QUERY_SEED: u64 = 0xC0FFEE;

/// The paper schema.
pub fn schema() -> Schema {
    GenOptions::paper_default().schema()
}

/// ε = 1 with OHG.
pub fn config() -> FelipConfig {
    FelipConfig::new(EPSILON).with_strategy(Strategy::Ohg)
}

/// The collection plan for `n` users, its group assignment drawn from
/// `seed`.
pub fn plan(n: usize, seed: u64) -> Result<CollectionPlan> {
    CollectionPlan::build(&schema(), n, &config(), seed)
}

/// IPUMS-like records for `n` users.
pub fn dataset(n: usize, seed: u64) -> Dataset {
    ipums_like(GenOptions {
        n,
        seed: derive_seed(seed, 0xDA7A),
        ..GenOptions::paper_default()
    })
}

/// The |Q| = 10, s = 0.5 list of λ-dimensional queries.
pub fn queries(lambda: usize) -> Vec<Query> {
    generate_queries(
        &schema(),
        WorkloadOptions {
            lambda,
            seed: QUERY_SEED,
            ..WorkloadOptions::paper_default()
        },
    )
    .expect("the paper query lists are valid for the paper schema")
}

/// Which kinds of attributes a pair joins; the response-matrix cost
/// differs by orders of magnitude between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PairKind {
    /// Two numerical attributes (d × d = 256 × 256).
    NumNum,
    /// One numerical, one categorical.
    NumCat,
    /// Two categorical attributes: the grid is the matrix.
    CatCat,
}

/// The kind of attribute pair `(i, j)`.
pub fn pair_kind(schema: &Schema, i: usize, j: usize) -> PairKind {
    match (schema.attr(i).kind, schema.attr(j).kind) {
        (AttrKind::Numerical, AttrKind::Numerical) => PairKind::NumNum,
        (AttrKind::Categorical, AttrKind::Categorical) => PairKind::CatCat,
        _ => PairKind::NumCat,
    }
}

/// Every attribute pair `(i, j)` with `i < j` that `queries` touch, in
/// first-use order.
pub fn pairs_of(queries: &[Query]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for q in queries {
        let attrs = q.attrs();
        for s in 0..attrs.len() {
            for t in s + 1..attrs.len() {
                let p = (attrs[s].min(attrs[t]), attrs[s].max(attrs[t]));
                if !out.contains(&p) {
                    out.push(p);
                }
            }
        }
    }
    out
}

/// A digest of answer bits, for determinism checks.
pub fn digest(answers: &[f64]) -> u64 {
    answers.iter().fold(0xcbf2_9ce4_8422_2325, |h, a| {
        felip_common::hash::mix64(h ^ a.to_bits())
    })
}
