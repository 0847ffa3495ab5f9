//! Per-layer probes: timed calls into each layer's public functions on the
//! inputs a workload already holds. Traced runs only; every call sits in a
//! span of the benchmark's tracer.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use felip::aggregator::{Aggregator, OracleSet};
use felip::client::UserReport;
use felip::{CollectionPlan, Estimator, QueryEngine};
use felip_common::{Query, Result, Schema};
use felip_grid::lambda::{fit_constraints, Constraint, PairAnswer};
use felip_grid::postprocess::post_process;
use felip_grid::EstimatedGrid;
use felip_server::wire::{decode_batch, FrameView};

use crate::net::Load;
use crate::paper::{pair_kind, PairKind};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Window;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Passes over a query list when timing warm answers and λ fits.
const PASSES: usize = 20;
/// Cold builds of every pair's response matrix.
const MATRIX_PASSES: usize = 3;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median over `PASSES` passes of the mean per-item time of `f` over
/// `items`, in ms.
fn per_item_ms<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            items.iter().for_each(&mut f);
            ms(t) / items.len().max(1) as f64
        })
        .collect();
    median(&passes).unwrap_or(0.0)
}

/// The estimation layers on one count state: de-bias, post-processing,
/// response matrices per pair kind, warm answers and λ fits per list, and
/// a query-engine refresh that re-estimates every grid.
pub fn estimation(
    tr: &Tracer,
    plan: &Arc<CollectionPlan>,
    oracles: &Arc<OracleSet>,
    counts: &[Vec<u64>],
    sizes: &[usize],
    lists: &[(usize, Vec<Query>)],
    out: &mut Layers,
) -> Result<()> {
    let _root = tr.span("probe.estimation");
    let t = Instant::now();
    let freqs: Vec<Vec<f64>> = tr.time("fo.debias", || {
        counts
            .iter()
            .zip(sizes)
            .enumerate()
            .map(|(g, (c, &n))| oracles.get(g).estimate_from_counts(c, n))
            .collect()
    });
    out.insert("fo.debias_ms", ms(t));

    let mut grids: Vec<EstimatedGrid> = plan
        .grids()
        .iter()
        .zip(freqs)
        .map(|(spec, f)| EstimatedGrid::new(spec.clone(), f))
        .collect();
    let t = Instant::now();
    tr.time("grid.postprocess", || {
        post_process(
            &mut grids,
            plan.schema().len(),
            &plan.cell_variances(),
            plan.config().postprocess_rounds,
        )
    })?;
    out.insert("grid.postprocess_ms", ms(t));

    // Every pair's matrix, built cold on `MATRIX_PASSES` fresh estimators;
    // the median per pair kind.
    let k = plan.schema().len();
    let mut by_kind: BTreeMap<PairKind, Vec<f64>> = BTreeMap::new();
    for _ in 0..MATRIX_PASSES {
        let cold = Estimator::new(Arc::clone(plan), grids.clone());
        for i in 0..k {
            for j in i + 1..k {
                let t = Instant::now();
                tr.time("grid.response", || cold.response_matrix(i, j))?;
                by_kind
                    .entry(pair_kind(plan.schema(), i, j))
                    .or_default()
                    .push(ms(t));
            }
        }
    }
    for (kind, name) in [
        (PairKind::NumNum, "grid.response.numnum_ms"),
        (PairKind::NumCat, "grid.response.numcat_ms"),
        (PairKind::CatCat, "grid.response.catcat_ms"),
    ] {
        let v = by_kind.get(&kind).map_or(&[][..], |v| v.as_slice());
        out.insert(name, median(v).unwrap_or(0.0));
    }

    let est = Estimator::new(Arc::clone(plan), grids);
    for (lambda, queries) in lists {
        let warm = tr.time("answer.warm", || {
            per_item_ms(queries, |q| {
                std::hint::black_box(est.answer(q).expect("warm answer"));
            })
        });
        out.insert(warm_name(*lambda), warm);
        if *lambda < 3 {
            continue;
        }
        let threshold = 1.0 / plan.population() as f64;
        let constraints: Vec<Vec<Constraint>> = queries
            .iter()
            .map(|q| pair_constraints(&est, q))
            .collect::<Result<_>>()?;
        let fit = tr.time("grid.lambda.fit", || {
            per_item_ms(&constraints, |c| {
                std::hint::black_box(fit_constraints(*lambda, c, threshold));
            })
        });
        out.insert(fit_name(*lambda), fit);
    }

    let mut engine = QueryEngine::new(Arc::clone(plan), Arc::clone(oracles));
    let t = Instant::now();
    let outcome = tr.time("query.refresh", || engine.refresh(counts, sizes))?;
    out.insert("query.refresh_ms", ms(t));
    out.insert("query.refreshed_grids", outcome.refreshed_grids as f64);
    Ok(())
}

/// The `C(λ, 2)` pair constraints `Estimator::answer` fits for `q`.
fn pair_constraints(est: &Estimator, q: &Query) -> Result<Vec<Constraint>> {
    let preds = q.predicates();
    let mut out = Vec::new();
    for s in 0..preds.len() {
        for t in s + 1..preds.len() {
            let m = est.response_matrix(preds[s].attr, preds[t].attr)?;
            out.push(
                PairAnswer {
                    s,
                    t,
                    answer: m.answer(Some(&preds[s]), Some(&preds[t])),
                }
                .into(),
            );
        }
    }
    Ok(out)
}

/// `answer.warm_ms.l<λ>`.
pub fn warm_name(lambda: usize) -> &'static str {
    match lambda {
        2 => "answer.warm_ms.l2",
        4 => "answer.warm_ms.l4",
        _ => "answer.warm_ms.l6",
    }
}

/// `grid.lambda.fit_ms.l<λ>`.
pub fn fit_name(lambda: usize) -> &'static str {
    match lambda {
        4 => "grid.lambda.fit_ms.l4",
        _ => "grid.lambda.fit_ms.l6",
    }
}

/// The accumulate and merge layers on a set of user reports: the
/// per-group batch kernel the offline collector uses, the mixed-group
/// batch path the server's workers use, and one aggregator merge.
pub fn accumulate(
    tr: &Tracer,
    plan: &Arc<CollectionPlan>,
    oracles: &Arc<OracleSet>,
    reports: &[UserReport],
    out: &mut Layers,
) -> Result<()> {
    let _root = tr.span("probe.accumulate");
    let n = reports.len().max(1) as f64;
    let mut buckets: Vec<Vec<felip_fo::Report>> = vec![Vec::new(); plan.num_groups()];
    for r in reports {
        buckets[r.group].push(r.report.clone());
    }
    let mut grouped = Aggregator::with_oracles(Arc::clone(plan), Arc::clone(oracles));
    let t = Instant::now();
    tr.time("fo.accumulate", || {
        buckets
            .iter()
            .enumerate()
            .try_for_each(|(g, b)| grouped.ingest_group_batch(g, b))
    })?;
    out.insert("fo.accumulate_ns_per_report", ms(t) * 1e6 / n);

    let mut mixed = Aggregator::with_oracles(Arc::clone(plan), Arc::clone(oracles));
    let t = Instant::now();
    tr.time("aggregator.ingest_batch", || mixed.ingest_batch(reports))?;
    out.insert("aggregator.ingest_batch_ns_per_report", ms(t) * 1e6 / n);

    let t = Instant::now();
    tr.time("aggregator.merge", || grouped.merge(&mixed))?;
    out.insert("aggregator.merge_ms", ms(t));
    Ok(())
}

/// The wire decode layer on pre-encoded `ReportBatch` frames: header, CRC
/// and payload decode, per report, plus the bytes each report costs.
pub fn wire_decode(tr: &Tracer, frames: &[Vec<u8>], out: &mut Layers) {
    let _root = tr.span("probe.wire_decode");
    let t = Instant::now();
    let mut reports = 0usize;
    let mut bytes = 0usize;
    tr.time("wire.decode", || {
        for f in frames {
            let (view, used) = FrameView::decode_prefix(f)
                .expect("pre-encoded frame decodes")
                .expect("pre-encoded frame is complete");
            let (_, batch) = decode_batch(view.payload).expect("pre-encoded batch decodes");
            reports += batch.len();
            bytes += used;
        }
    });
    let n = reports.max(1) as f64;
    out.insert("wire.decode_ns_per_report", ms(t) * 1e6 / n);
    out.insert("wire.bytes_per_report", bytes as f64 / n);
}

/// A counter's or gauge's current value on the global recorder (0 when
/// never recorded).
pub fn obs_value(name: &str) -> f64 {
    felip_obs::global()
        .metric(name)
        .and_then(|m| m.value.as_u64())
        .unwrap_or(0) as f64
}

/// A histogram's snapshot on the global recorder.
pub fn obs_hist(name: &str) -> Option<felip_obs::HistogramSnapshot> {
    match felip_obs::global().metric(name).map(|m| m.value) {
        Some(felip_obs::MetricValue::Histogram(h)) if h.count > 0 => Some(h),
        _ => None,
    }
}

fn ratio(hit: f64, miss: f64) -> f64 {
    if hit + miss > 0.0 {
        hit / (hit + miss)
    } else {
        0.0
    }
}

/// Response-matrix builds, sweeps per build and the matrix cache's hit
/// ratio, from the program's own instruments.
pub fn obs_response_counters(l: &mut Layers) {
    let hits = obs_value("felip.answer.matrix_cache_hits");
    let misses = obs_value("felip.answer.matrix_cache_misses");
    l.insert("grid.response.builds", misses);
    l.insert("answer.matrix_hit_ratio", ratio(hits, misses));
    if let Some(h) = obs_hist("grid.response.sweeps") {
        l.insert("grid.response.sweeps", h.mean());
    }
}

/// The query engine's grid-cache hit ratio.
pub fn obs_query_counters(l: &mut Layers) {
    let hit = obs_value("query.cache.hit");
    let miss = obs_value("query.cache.miss");
    l.insert("query.cache.hit_ratio", ratio(hit, miss));
}

/// The reactor's per-frame stage histograms, per accepted report.
pub fn obs_reactor_stages(l: &mut Layers, reports: u64) {
    for (hist, name) in [
        ("server.stage.accept", "reactor.accept_ns_per_report"),
        ("server.stage.decode", "reactor.decode_ns_per_report"),
        ("server.stage.ingest", "reactor.ingest_ns_per_report"),
        ("server.stage.ack", "reactor.ack_ns_per_report"),
        ("server.stage.flush", "reactor.flush_ns_per_report"),
    ] {
        let sum = obs_hist(hist).map_or(0, |h| h.sum);
        l.insert(name, sum as f64 / reports.max(1) as f64);
    }
}

/// The load side's own numbers for a traced window.
pub fn load_layers(load: &Load, w: &Window, l: &mut Layers) {
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
    l.insert("loadgen.lag_p50_ms", p(&w.lag_ms, 50.0));
    l.insert("loadgen.lag_max_ms", p(&w.lag_ms, 100.0));
    l.insert("ack_p50_ms", p(&w.ack_ms, 50.0));
    l.insert("ack_p99_ms", p(&w.ack_ms, 99.0));
    l.insert("ack.samples", w.ack_ms.len() as f64);
    l.insert("query_p99_ms", p(&w.query_ms, 99.0));
    l.insert("query.samples", w.query_ms.len() as f64);
    l.insert("query_rps", w.query_ms.len() as f64 / w.secs);
    let floor = p(&w.stat_ms, 50.0);
    l.insert("wire.floor_ms", floor);
    // `+ 0.0` turns the empty sum's -0.0 into 0.0.
    let busy: f64 = w.query_ms.iter().map(|q| (q - floor).max(0.0)).sum::<f64>() + 0.0;
    l.insert("reactor.query_busy_share", busy / 1e3 / w.secs);
    if let Some(a) = &load.asker {
        let stale = a.answers.iter().map(|a| a.head_epoch - a.epoch).max();
        l.insert("query.staleness_max", stale.unwrap_or(0) as f64);
    }
}

/// The cold build cost of the response matrix for pair `(i, j)`, as the
/// estimation probe measured it for the pair's kind.
pub fn matrix_ms(l: &Layers, schema: &Schema, i: usize, j: usize) -> f64 {
    let name = match pair_kind(schema, i.min(j), i.max(j)) {
        PairKind::NumNum => "grid.response.numnum_ms",
        PairKind::NumCat => "grid.response.numcat_ms",
        PairKind::CatCat => "grid.response.catcat_ms",
    };
    l.get(name).copied().unwrap_or(0.0)
}

/// Query round-trip time not explained by the layers measured outside the
/// server: the window's mean round trip − (`Stat` floor + refresh + the
/// response matrix each listed query's pair needs + a warm answer). What
/// remains is the consistent cut and whatever else the server does in
/// between.
pub fn residual(l: &mut Layers, w: &Window, queries: &[Query], schema: &Schema) {
    let get = |k: &str| l.get(k).copied().unwrap_or(0.0);
    let matrix = queries
        .iter()
        .map(|q| {
            let a = q.attrs();
            matrix_ms(l, schema, a[0], a[1])
        })
        .sum::<f64>()
        / queries.len().max(1) as f64;
    let explained =
        get("wire.floor_ms") + get("query.refresh_ms") + matrix + get("answer.warm_ms.l2");
    let mean = w.query_ms.iter().sum::<f64>() / w.query_ms.len().max(1) as f64;
    l.insert("cut.residual_ms", mean - explained);
}
