//! Integration tests for the pipeline's observability instrumentation:
//! a full [`simulate`] run must time every stage into its histogram, and
//! recording must never perturb the estimates.
//!
//! All tests here toggle the process-global recorder, so they serialize on
//! one lock (the test binary runs them on concurrent threads otherwise).

use std::sync::Mutex;

use felip::plan::CollectionPlan;
use felip::simulate::uniform_dataset;
use felip::{simulate, FelipConfig};
use felip_common::{Attribute, Predicate, Query, Schema};
use felip_obs::{HistogramSnapshot, MetricValue};
use proptest::prelude::*;

static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A panicking test must not wedge the others.
    RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::numerical("x", 64),
        Attribute::numerical("y", 64),
        Attribute::categorical("c", 4),
    ])
    .unwrap()
}

/// The histogram a span (or `hist!`) recorded into on the global recorder.
fn hist(name: &str) -> HistogramSnapshot {
    match felip_obs::global().metric(name).map(|m| m.value) {
        Some(MetricValue::Histogram(h)) => h,
        other => panic!("no `{name}` histogram: {other:?}"),
    }
}

#[test]
fn simulate_times_every_stage_into_histograms() {
    let _g = lock();
    felip_obs::global().reset();
    felip_obs::enable();

    let data = uniform_dataset(&schema(), 20_000, 1);
    let est = simulate(&data, &FelipConfig::new(1.0), 7).unwrap();
    // A λ=2 query: exercises the response-matrix path, not just a 1-D read.
    let q = Query::new(
        &schema(),
        vec![Predicate::between(0, 0, 31), Predicate::between(1, 0, 31)],
    )
    .unwrap();
    est.answer(&q).unwrap();
    felip_obs::disable();

    // One observation per stage run: 20k users / 16384 per shard = 2
    // shards, each perturbing and ingesting once.
    for (name, runs) in [
        ("simulate", 1),
        ("plan", 1),
        ("collect", 1),
        ("shard", 2),
        ("perturb", 2),
        ("ingest", 2),
        ("estimate", 1),
        ("postprocess", 1),
        ("answer", 1),
        ("grid.response.build", 1),
    ] {
        let h = hist(name);
        assert_eq!(h.count, runs, "`{name}` ran {runs}×: {h:?}");
        assert_eq!(
            felip_obs::global().metric(name).unwrap().unit,
            "ns",
            "`{name}` is a span"
        );
    }

    // The stages nest: `simulate` encloses plan, collect and estimate,
    // which run one after another; `collect` waits for its slowest shard,
    // and each shard perturbs and then ingests.
    let sum = |name: &str| hist(name).sum;
    assert!(sum("simulate") >= sum("plan") + sum("collect") + sum("estimate"));
    assert!(sum("estimate") >= sum("postprocess"));
    assert!(hist("collect").max >= hist("shard").max);
    assert!(sum("shard") >= sum("perturb") + sum("ingest"));
    assert!(sum("answer") >= sum("grid.response.build"));
}

#[test]
fn simulate_records_afo_and_ingest_metrics() {
    let _g = lock();
    felip_obs::global().reset();
    felip_obs::enable();
    let data = uniform_dataset(&schema(), 20_000, 2);
    simulate(&data, &FelipConfig::new(1.0), 9).unwrap();
    felip_obs::disable();

    let rec = felip_obs::global();
    let afo_grr = rec
        .metric("fo.afo.chose_grr")
        .and_then(|m| m.value.as_u64())
        .unwrap_or(0);
    let afo_olh = rec
        .metric("fo.afo.chose_olh")
        .and_then(|m| m.value.as_u64())
        .unwrap_or(0);
    let grids = afo_grr + afo_olh;
    assert!(grids > 0, "AFO decisions recorded per grid");
    let ingested = rec
        .metric("felip.ingest.reports")
        .expect("ingest counter registered")
        .value
        .as_u64()
        .expect("counter is integral");
    assert_eq!(ingested, 20_000, "every report counted exactly once");
    // One AFO decision per grid of the plan.
    let plan = CollectionPlan::build(&schema(), 20_000, &FelipConfig::new(1.0), 0).unwrap();
    assert_eq!(grids, plan.grids().len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Recording is observation only: enabling the recorder must not change
    /// any estimate bit-for-bit.
    #[test]
    fn enabling_recorder_preserves_estimates(seed in 0u64..256, eps in 0.5f64..3.0) {
        let _g = lock();
        let data = uniform_dataset(&schema(), 5_000, seed ^ 0xD5);
        let cfg = FelipConfig::new(eps);
        let queries: Vec<Query> = vec![
            Query::new(&schema(), vec![Predicate::between(0, 0, 31)]).unwrap(),
            Query::new(
                &schema(),
                vec![Predicate::between(0, 8, 47), Predicate::between(1, 16, 63)],
            )
            .unwrap(),
        ];

        felip_obs::disable();
        let quiet = simulate(&data, &cfg, seed).unwrap();
        felip_obs::global().reset();
        felip_obs::enable();
        let recorded = simulate(&data, &cfg, seed).unwrap();
        felip_obs::disable();

        for q in &queries {
            let a = quiet.answer(q).unwrap();
            let b = recorded.answer(q).unwrap();
            prop_assert_eq!(a.to_bits(), b.to_bits(), "estimate changed: {} vs {}", a, b);
        }
    }
}
