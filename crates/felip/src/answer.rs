//! Query answering from estimated grids (§5.5–§5.6).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use felip_common::{AttrKind, Error, Query, Result};
use felip_grid::lambda::{fit_lambda, PairAnswer, MAX_LAMBDA};
use felip_grid::response::ResponseMatrix;
use felip_grid::{EstimatedGrid, GridId};

use crate::plan::CollectionPlan;

/// The aggregator's query-answering state: post-processed grids plus a lazy
/// cache of per-pair response matrices.
///
/// Response matrices can be large (`d_i × d_j`), so they are built on first
/// use per attribute pair and shared thereafter (the cache is thread-safe;
/// answering queries takes `&self`).
pub struct Estimator {
    plan: Arc<CollectionPlan>,
    grids: Vec<EstimatedGrid>,
    matrices: Mutex<HashMap<(usize, usize), Arc<ResponseMatrix>>>,
}

impl std::fmt::Debug for Estimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Estimator")
            .field("grids", &self.grids.len())
            .finish_non_exhaustive()
    }
}

impl Estimator {
    /// Wraps post-processed grids (called by
    /// [`crate::aggregator::Aggregator::estimate`]). Accepts the plan by
    /// value or as a shared `Arc` handle.
    pub fn new(plan: impl Into<Arc<CollectionPlan>>, grids: Vec<EstimatedGrid>) -> Self {
        Estimator {
            plan: plan.into(),
            grids,
            matrices: Mutex::new(HashMap::new()),
        }
    }

    /// The plan behind this estimator.
    pub fn plan(&self) -> &CollectionPlan {
        &self.plan
    }

    /// The post-processed grids.
    pub fn grids(&self) -> &[EstimatedGrid] {
        &self.grids
    }

    /// Convergence threshold for the iterative fitting stages: `1/n` (§5.5).
    fn threshold(&self) -> f64 {
        1.0 / self.plan.population() as f64
    }

    /// The response matrix for attribute pair `(i, j)` (`i < j`), building
    /// and caching it on first use (Algorithm 3).
    pub fn response_matrix(&self, i: usize, j: usize) -> Result<Arc<ResponseMatrix>> {
        if i >= j {
            return Err(Error::InvalidQuery(format!(
                "pair must satisfy i < j, got ({i}, {j})"
            )));
        }
        if let Some(m) = self
            .matrices
            .lock()
            .expect("matrix cache poisoned")
            .get(&(i, j))
        {
            felip_obs::counter!("felip.answer.matrix_cache_hits", 1);
            return Ok(Arc::clone(m));
        }
        felip_obs::counter!("felip.answer.matrix_cache_misses", 1);
        let schema = self.plan.schema();
        let pair_idx = self.plan.grid_index(GridId::Two(i, j)).ok_or_else(|| {
            Error::InvalidQuery(format!("no grid planned for attribute pair ({i}, {j})"))
        })?;
        let pair_grid = &self.grids[pair_idx];

        let both_categorical = schema.attr(i).kind == AttrKind::Categorical
            && schema.attr(j).kind == AttrKind::Categorical;
        let matrix = if both_categorical {
            // The cat × cat grid is already at value granularity (§5.5).
            ResponseMatrix::from_cat_cat_grid(pair_grid)
        } else {
            // Γ = {G(i), G(j), G(i,j)} — 1-D grids exist only under OHG and
            // only for numerical attributes.
            let mut related: Vec<&EstimatedGrid> = vec![pair_grid];
            for a in [i, j] {
                if let Some(idx) = self.plan.grid_index(GridId::One(a)) {
                    related.push(&self.grids[idx]);
                }
            }
            ResponseMatrix::build(
                i,
                j,
                schema.domain(i),
                schema.domain(j),
                &related,
                self.threshold(),
            )?
        };
        let arc = Arc::new(matrix);
        self.matrices
            .lock()
            .expect("matrix cache poisoned")
            .insert((i, j), Arc::clone(&arc));
        Ok(arc)
    }

    /// Estimates the answer of `query` (a frequency in `[0, 1]`).
    ///
    /// * λ = 1 — answered from the finest grid covering the attribute;
    /// * λ = 2 — answered exactly from the pair's response matrix;
    /// * λ ≥ 3 — split into `C(λ, 2)` 2-D queries answered from response
    ///   matrices, then fitted with Algorithm 4, whose `2^λ` vector caps λ
    ///   at [`MAX_LAMBDA`]; a longer query is an `InvalidQuery` error.
    pub fn answer(&self, query: &Query) -> Result<f64> {
        let _span = felip_obs::span!("answer");
        // Re-validate against this plan's schema (queries are cheap to check
        // and may originate elsewhere).
        let query = Query::new(self.plan.schema(), query.predicates().to_vec())?;
        let preds = query.predicates();
        let est = match preds {
            [] => unreachable!("Query::new rejects empty queries"),
            [p] => self.answer_single(p)?,
            [pi, pj] => {
                let m = self.response_matrix(pi.attr, pj.attr)?;
                m.answer(Some(pi), Some(pj))
            }
            _ if preds.len() > MAX_LAMBDA => {
                return Err(Error::InvalidQuery(format!(
                    "a query of {} predicates exceeds the λ-D fit's cap of {MAX_LAMBDA}",
                    preds.len()
                )))
            }
            _ => {
                let lambda = preds.len();
                let mut pairs = Vec::with_capacity(lambda * (lambda - 1) / 2);
                for s in 0..lambda {
                    for t in (s + 1)..lambda {
                        let m = self.response_matrix(preds[s].attr, preds[t].attr)?;
                        pairs.push(PairAnswer {
                            s,
                            t,
                            answer: m.answer(Some(&preds[s]), Some(&preds[t])),
                        });
                    }
                }
                let z = fit_lambda(lambda, &pairs, self.threshold());
                z[(1usize << lambda) - 1]
            }
        };
        Ok(est.clamp(0.0, 1.0))
    }

    /// Answers a batch of queries.
    pub fn answer_all(&self, queries: &[Query]) -> Result<Vec<f64>> {
        queries.iter().map(|q| self.answer(q)).collect()
    }

    fn answer_single(&self, pred: &felip_common::Predicate) -> Result<f64> {
        // Prefer the grid with the finest binning along the attribute:
        // the 1-D grid under OHG, otherwise the best 2-D marginal.
        let best = self
            .grids
            .iter()
            .filter(|g| g.spec().id().covers(pred.attr))
            .max_by_key(|g| g.spec().axis_for(pred.attr).expect("covers").cells())
            .ok_or_else(|| {
                Error::InvalidQuery(format!("no grid covers attribute {}", pred.attr))
            })?;
        Ok(best.answer(&[pred]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::Aggregator;
    use crate::client::respond;
    use crate::config::{FelipConfig, Strategy};
    use felip_common::rng::seeded_rng;
    use felip_common::{Attribute, Dataset, Predicate, Schema};
    use rand::Rng;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::numerical("x", 32),
            Attribute::numerical("y", 32),
            Attribute::categorical("c", 4),
        ])
        .unwrap()
    }

    /// Builds a skewed but simple dataset and runs the full pipeline.
    fn pipeline(strategy: Strategy, n: usize, seed: u64) -> (Dataset, Estimator) {
        let schema = schema();
        let mut rng = seeded_rng(seed);
        let mut data = Dataset::empty(schema.clone());
        for _ in 0..n {
            // x concentrated low, y uniform, c mostly category 0.
            let x = rng.gen_range(0..16u32);
            let y = rng.gen_range(0..32u32);
            let c = if rng.gen_bool(0.7) {
                0
            } else {
                rng.gen_range(1..4u32)
            };
            data.push(&[x, y, c]).unwrap();
        }
        let cfg = FelipConfig::new(1.0).with_strategy(strategy);
        let plan = crate::plan::CollectionPlan::build(&schema, n, &cfg, seed).unwrap();
        let mut agg = Aggregator::new(plan.clone());
        let mut prng = seeded_rng(seed ^ 0xabc);
        for (u, row) in data.rows().enumerate() {
            agg.ingest(&respond(&plan, u, row, &mut prng).unwrap())
                .unwrap();
        }
        (data, agg.estimate().unwrap())
    }

    #[test]
    fn two_dim_query_accuracy() {
        let (data, est) = pipeline(Strategy::Ohg, 60_000, 11);
        let q = Query::new(
            &schema(),
            vec![Predicate::between(0, 0, 15), Predicate::in_set(2, vec![0])],
        )
        .unwrap();
        let truth = q.true_answer(&data); // ≈ 0.7
        let got = est.answer(&q).unwrap();
        assert!((got - truth).abs() < 0.1, "est {got} vs truth {truth}");
    }

    #[test]
    fn single_predicate_query() {
        let (data, est) = pipeline(Strategy::Ohg, 60_000, 13);
        let q = Query::new(&schema(), vec![Predicate::between(0, 0, 7)]).unwrap();
        let truth = q.true_answer(&data); // ≈ 0.5
        let got = est.answer(&q).unwrap();
        assert!((got - truth).abs() < 0.12, "est {got} vs truth {truth}");
    }

    #[test]
    fn three_dim_query() {
        let (data, est) = pipeline(Strategy::Ohg, 60_000, 17);
        let q = Query::new(
            &schema(),
            vec![
                Predicate::between(0, 0, 15),
                Predicate::between(1, 0, 15),
                Predicate::in_set(2, vec![0]),
            ],
        )
        .unwrap();
        let truth = q.true_answer(&data); // ≈ 0.35
        let got = est.answer(&q).unwrap();
        assert!((got - truth).abs() < 0.15, "est {got} vs truth {truth}");
    }

    /// OUG on *uniform* data (its design point): the in-cell uniformity
    /// assumption is exact there. On skewed data OUG pays the
    /// non-uniformity bias by design — that regime is covered by the
    /// strategy-comparison integration tests.
    #[test]
    fn oug_also_answers() {
        let sch = schema();
        let n = 60_000;
        let mut rng = seeded_rng(19);
        let mut data = Dataset::empty(sch.clone());
        for _ in 0..n {
            data.push(&[
                rng.gen_range(0..32),
                rng.gen_range(0..32),
                rng.gen_range(0..4),
            ])
            .unwrap();
        }
        let cfg = FelipConfig::new(1.0).with_strategy(Strategy::Oug);
        let plan = crate::plan::CollectionPlan::build(&sch, n, &cfg, 19).unwrap();
        let mut agg = Aggregator::new(plan.clone());
        let mut prng = seeded_rng(20);
        for (u, row) in data.rows().enumerate() {
            agg.ingest(&respond(&plan, u, row, &mut prng).unwrap())
                .unwrap();
        }
        let est = agg.estimate().unwrap();
        let q = Query::new(
            &sch,
            vec![Predicate::between(0, 0, 15), Predicate::between(1, 0, 31)],
        )
        .unwrap();
        let truth = q.true_answer(&data); // ≈ 0.5
        let got = est.answer(&q).unwrap();
        assert!((got - truth).abs() < 0.12, "est {got} vs truth {truth}");
    }

    #[test]
    fn answers_are_clamped() {
        let (_, est) = pipeline(Strategy::Ohg, 5_000, 23);
        // A maximally selective query: noisy estimate may dip negative
        // before clamping.
        let q = Query::new(
            &schema(),
            vec![
                Predicate::between(0, 31, 31),
                Predicate::between(1, 0, 0),
                Predicate::in_set(2, vec![3]),
            ],
        )
        .unwrap();
        let got = est.answer(&q).unwrap();
        assert!((0.0..=1.0).contains(&got));
    }

    #[test]
    fn response_matrix_is_cached() {
        let (_, est) = pipeline(Strategy::Ohg, 10_000, 29);
        let a = est.response_matrix(0, 1).unwrap();
        let b = est.response_matrix(0, 1).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn rejects_reversed_pair() {
        let (_, est) = pipeline(Strategy::Ohg, 5_000, 31);
        assert!(est.response_matrix(1, 0).is_err());
        assert!(est.response_matrix(1, 1).is_err());
    }

    #[test]
    fn rejects_query_on_unknown_attribute() {
        let (_, est) = pipeline(Strategy::Ohg, 5_000, 37);
        let q = Query::new(&schema(), vec![Predicate::between(0, 0, 5)]).unwrap();
        // Mangle: build a query for a *different* schema and sneak it in.
        let other = Schema::new(vec![
            Attribute::numerical("p", 100),
            Attribute::numerical("q", 100),
            Attribute::numerical("r", 100),
            Attribute::numerical("s", 100),
        ])
        .unwrap();
        let bad = Query::new(&other, vec![Predicate::between(3, 0, 99)]).unwrap();
        assert!(est.answer(&bad).is_err());
        assert!(est.answer(&q).is_ok());
    }

    /// λ past the fit's cap is a typed error, raised before any response
    /// matrix or `2^λ` vector is built; the estimator still answers after.
    #[test]
    fn rejects_lambda_past_the_cap() {
        let k = MAX_LAMBDA + 1;
        let schema = Schema::new(
            (0..k)
                .map(|a| Attribute::categorical(format!("c{a}"), 2))
                .collect(),
        )
        .unwrap();
        let data = crate::simulate::uniform_dataset(&schema, 5_000, 1);
        let est = crate::simulate(&data, &FelipConfig::new(1.0), 7).unwrap();
        let all = Query::new(&schema, (0..k).map(|a| Predicate::equals(a, 0)).collect()).unwrap();
        match est.answer(&all) {
            Err(Error::InvalidQuery(msg)) => assert!(msg.contains("cap of 20"), "{msg}"),
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
        assert!(est.matrices.lock().unwrap().is_empty());
        let three = Query::new(&schema, (0..3).map(|a| Predicate::equals(a, 0)).collect()).unwrap();
        assert!((0.0..=1.0).contains(&est.answer(&three).unwrap()));
    }

    #[test]
    fn answer_all_matches_individual() {
        let (_, est) = pipeline(Strategy::Oug, 10_000, 41);
        let qs = vec![
            Query::new(&schema(), vec![Predicate::between(0, 0, 15)]).unwrap(),
            Query::new(&schema(), vec![Predicate::in_set(2, vec![0, 1])]).unwrap(),
        ];
        let batch = est.answer_all(&qs).unwrap();
        for (q, b) in qs.iter().zip(&batch) {
            assert_eq!(est.answer(q).unwrap(), *b);
        }
    }

    /// Categorical × categorical pairs must bypass the IPF and use the grid
    /// directly.
    #[test]
    fn cat_cat_matrix_is_the_grid() {
        let schema = Schema::new(vec![
            Attribute::categorical("a", 3),
            Attribute::categorical("b", 4),
        ])
        .unwrap();
        let n = 30_000;
        let mut rng = seeded_rng(5);
        let mut data = Dataset::empty(schema.clone());
        for _ in 0..n {
            let a = rng.gen_range(0..3u32);
            let b = if a == 0 { 0 } else { rng.gen_range(0..4u32) };
            data.push(&[a, b]).unwrap();
        }
        let cfg = FelipConfig::new(2.0);
        let plan = crate::plan::CollectionPlan::build(&schema, n, &cfg, 1).unwrap();
        let mut agg = Aggregator::new(plan.clone());
        let mut prng = seeded_rng(6);
        for (u, row) in data.rows().enumerate() {
            agg.ingest(&respond(&plan, u, row, &mut prng).unwrap())
                .unwrap();
        }
        let est = agg.estimate().unwrap();
        let q = Query::new(
            &schema,
            vec![Predicate::equals(0, 0), Predicate::equals(1, 0)],
        )
        .unwrap();
        let truth = q.true_answer(&data); // ≈ 1/3
        let got = est.answer(&q).unwrap();
        assert!((got - truth).abs() < 0.08, "est {got} vs truth {truth}");
    }
}
