//! `paper_batch`: the paper's own offline pipeline at §6.2 scale. Each
//! cycle builds the plan, collects 10⁶ perturbed reports, estimates, builds
//! the response matrices the query lists need and answers the lists on the
//! cold estimator; warm passes over the same lists follow.

use std::sync::Arc;
use std::time::{Duration, Instant};

use felip::aggregator::{Aggregator, OracleSet};
use felip::{simulate, Estimator};
use felip_common::rng::{derive_seed, seeded_rng};
use felip_common::{Dataset, Query, Result};

use crate::layers::{self, Layers};
use crate::paper::{self, LAMBDAS, N};
use crate::trace::Tracer;
use crate::{Opts, Outcome, Window};

/// Warm passes over the three lists after each cycle.
const WARM_PASSES: usize = 10;
/// Users perturbed one by one in the traced run's perturbation probe.
const PERTURB_SAMPLE: usize = 100_000;
/// Upper edge of the accepted mean absolute error per λ at the reference
/// (ε = 1, n = 10⁶). Seeds 1–10 measured 0.005–0.018; the band leaves
/// room for other seeds while catching a broken estimator, whose errors
/// are an order of magnitude larger.
const MAE_BAND: f64 = 0.04;

struct Batch {
    data: Dataset,
    lists: Vec<(usize, Vec<Query>)>,
    pairs: Vec<(usize, usize)>,
    plan_seed: u64,
    collect_seed: u64,
    reference: Vec<f64>,
    /// Mean absolute error of the reference per λ.
    mae: Vec<(usize, f64)>,
}

struct Cycle {
    answers: Vec<f64>,
    estimator: Estimator,
    aggregator: Aggregator,
}

impl Batch {
    fn setup(seed: u64, n: usize, tr: &Tracer) -> Result<Batch> {
        let data = paper::dataset(n, seed);
        let lists: Vec<(usize, Vec<Query>)> =
            LAMBDAS.iter().map(|&l| (l, paper::queries(l))).collect();
        let all: Vec<Query> = lists.iter().flat_map(|(_, q)| q.clone()).collect();
        let mut b = Batch {
            pairs: paper::pairs_of(&all),
            data,
            lists,
            plan_seed: derive_seed(seed, 1),
            collect_seed: derive_seed(seed, 2),
            reference: Vec::new(),
            mae: Vec::new(),
        };
        // The reference cycle doubles as the warm-up.
        b.reference = b.cycle(tr)?.answers;
        let mut at = 0;
        for (lambda, queries) in &b.lists {
            let mae = queries
                .iter()
                .zip(&b.reference[at..])
                .map(|(q, a)| (a - q.true_answer(&b.data)).abs())
                .sum::<f64>()
                / queries.len() as f64;
            at += queries.len();
            b.mae.push((*lambda, mae));
        }
        Ok(b)
    }

    /// One plan → collect → estimate → response matrices → cold answers
    /// cycle, each step in its own span.
    fn cycle(&self, tr: &Tracer) -> Result<Cycle> {
        let _c = tr.span("cycle");
        let plan = tr.time("plan.build", || {
            paper::plan(self.data.len(), self.plan_seed)
        })?;
        let aggregator = tr.time("collect", || {
            simulate::collect(&self.data, &plan, self.collect_seed)
        })?;
        let estimator = tr.time("estimate", || aggregator.estimate())?;
        for &(i, j) in &self.pairs {
            tr.time("grid.response", || estimator.response_matrix(i, j))?;
        }
        let answers = tr.time("answer.cold", || self.answer_all(&estimator))?;
        Ok(Cycle {
            answers,
            estimator,
            aggregator,
        })
    }

    fn answer_all(&self, est: &Estimator) -> Result<Vec<f64>> {
        self.lists
            .iter()
            .flat_map(|(_, q)| q)
            .map(|q| est.answer(q))
            .collect()
    }

    /// Cycles until `secs` pass, then finishes the cycle in progress.
    fn window(&self, secs: f64, tr: &Tracer, out: &mut Outcome) -> Result<(Window, Cycle)> {
        let mut w = Window::start();
        let end = Instant::now() + Duration::from_secs_f64(secs);
        let mut last = None;
        while Instant::now() < end || last.is_none() {
            let t = Instant::now();
            let c = self.cycle(tr)?;
            w.write_ms.push(t.elapsed().as_secs_f64() * 1e3);
            w.reports += self.data.len() as u64;
            out.attempted += 1 + c.answers.len() as u64;
            out.check_bits(&c.answers, &self.reference, "cold cycle answer");
            let _warm = tr.span("answer.warm");
            for _ in 0..WARM_PASSES {
                let t = Instant::now();
                let warm = self.answer_all(&c.estimator)?;
                w.read_ms
                    .push(t.elapsed().as_secs_f64() * 1e3 / warm.len() as f64);
                out.attempted += warm.len() as u64;
                out.check_bits(&warm, &self.reference, "warm answer");
            }
            last = Some(c);
        }
        Ok((w.stop(), last.expect("at least one cycle ran")))
    }
}

/// Runs the workload.
pub fn run(opts: &Opts, out: &mut Outcome) -> Result<()> {
    let off = Tracer::new(false);
    let mut digests = Vec::new();
    let b = crate::timed_setup(out, || {
        let b = Batch::setup(opts.seed, N, &off)?;
        digests.push(paper::digest(&b.reference));
        Ok(b)
    })?;
    out.gate(
        digests.iter().all(|d| *d == digests[0]),
        format!("set-up references differ: {digests:x?}"),
    );
    for &(lambda, mae) in &b.mae {
        out.note(&format!("reference MAE λ={lambda}: {mae:.5}"));
        out.gate(
            mae.is_finite() && mae <= MAE_BAND,
            format!("λ={lambda} MAE {mae} outside [0, {MAE_BAND}]"),
        );
    }
    if !opts.trace {
        let (w, _) = b.window(opts.seconds, &off, out)?;
        out.window(&w);
        return Ok(());
    }
    let (untraced, _) = b.window(opts.seconds / 2.0, &off, out)?;
    let tr = Tracer::new(true);
    felip_obs::global().reset();
    felip_obs::enable();
    let (traced, last) = b.window(opts.seconds / 2.0, &tr, out)?;
    felip_obs::disable();
    out.traced(&untraced, &traced);
    let l = &mut out.layers;
    layers::obs_response_counters(l);
    let spans = tr.spans();
    let median_span = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        crate::stats::median(&v).unwrap_or(0.0)
    };
    l.insert("plan.build_ms", median_span("plan.build"));
    l.insert("collect.ms", median_span("collect"));
    l.insert("collect.reports", N as f64);

    let plan = Arc::new(last.aggregator.plan().clone());
    let oracles = Arc::new(OracleSet::build(&plan));
    layers::estimation(
        &tr,
        &plan,
        &oracles,
        last.aggregator.counts(),
        last.aggregator.group_sizes(),
        &b.lists,
        l,
    )?;
    let reports = perturb_probe(&tr, &b, &plan, &oracles, l)?;
    layers::accumulate(&tr, &plan, &oracles, &reports, l)?;
    l.insert(
        "trace.layer_sum_ratio",
        layer_sum_ms(&b, l) / crate::stats::median(&traced.write_ms).unwrap_or(f64::NAN),
    );
    out.spans = tr.spans();
    Ok(())
}

/// Perturbs the first `PERTURB_SAMPLE` users one after another on one
/// thread — the per-report cost the sharded collector spreads over cores.
fn perturb_probe(
    tr: &Tracer,
    b: &Batch,
    plan: &Arc<felip::CollectionPlan>,
    oracles: &Arc<OracleSet>,
    l: &mut Layers,
) -> Result<Vec<felip::UserReport>> {
    let _root = tr.span("probe.perturb");
    let mut rng = seeded_rng(b.collect_seed);
    let t = Instant::now();
    let reports: Vec<felip::UserReport> = tr.time("fo.perturb", || {
        (0..PERTURB_SAMPLE)
            .map(|u| {
                let group = plan.group_of(u);
                let cell = plan.grids()[group].cell_of_record(b.data.row(u));
                felip::UserReport {
                    group,
                    report: oracles.get(group).perturb(cell, &mut rng),
                }
            })
            .collect()
    });
    l.insert(
        "fo.perturb_ns_per_report",
        t.elapsed().as_nanos() as f64 / PERTURB_SAMPLE as f64,
    );
    Ok(reports)
}

/// The cycle rebuilt from independently measured layer costs: plan build
/// and collect (spans), de-bias and post-processing, one response matrix
/// per pair the lists use, and every answer at its warm cost.
fn layer_sum_ms(b: &Batch, l: &Layers) -> f64 {
    let get = |k: &str| l.get(k).copied().unwrap_or(0.0);
    let schema = paper::schema();
    let matrices: f64 = b
        .pairs
        .iter()
        .map(|&(i, j)| layers::matrix_ms(l, &schema, i, j))
        .sum();
    let answers: f64 = b
        .lists
        .iter()
        .map(|(lambda, q)| get(layers::warm_name(*lambda)) * q.len() as f64)
        .sum();
    get("plan.build_ms")
        + get("collect.ms")
        + get("fo.debias_ms")
        + get("grid.postprocess_ms")
        + matrices
        + answers
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same seed reproduces the reference answers bit for bit, on a
    /// fresh set-up and on every later cycle; another seed does not.
    #[test]
    fn one_seed_gives_identical_answer_digests() {
        let off = Tracer::new(false);
        let a = Batch::setup(3, 20_000, &off).unwrap();
        let b = Batch::setup(3, 20_000, &off).unwrap();
        assert_eq!(paper::digest(&a.reference), paper::digest(&b.reference));
        let again = a.cycle(&off).unwrap().answers;
        assert_eq!(paper::digest(&again), paper::digest(&a.reference));
        let c = Batch::setup(4, 20_000, &off).unwrap();
        assert_ne!(paper::digest(&c.reference), paper::digest(&a.reference));
    }
}
