//! Wire-format round-trips: a deployment serialises the plan (server →
//! clients) and the reports (clients → server); both must survive JSON
//! round-trips bit-exactly.

use felip::{respond, Aggregator, CollectionPlan, FelipConfig, Strategy};
use felip_common::rng::seeded_rng;
use felip_common::{Attribute, Schema};

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::numerical("x", 64),
        Attribute::categorical("c", 4),
    ])
    .unwrap()
}

#[test]
fn plan_round_trips_through_json() {
    let cfg = FelipConfig::new(1.0).with_strategy(Strategy::Ohg);
    let plan = CollectionPlan::build(&schema(), 10_000, &cfg, 9).unwrap();
    let json = serde_json::to_string(&plan).unwrap();
    let back: CollectionPlan = serde_json::from_str(&json).unwrap();
    assert_eq!(back.num_groups(), plan.num_groups());
    assert_eq!(back.grids(), plan.grids());
    // Group assignment (seed-dependent) must survive too.
    for u in 0..100 {
        assert_eq!(back.group_of(u), plan.group_of(u));
    }
}

#[test]
fn reports_round_trip_and_aggregate_identically() {
    let cfg = FelipConfig::new(1.0);
    let plan = CollectionPlan::build(&schema(), 2_000, &cfg, 9).unwrap();
    let mut rng = seeded_rng(1);
    let reports: Vec<_> = (0..2_000)
        .map(|u| respond(&plan, u, &[(u % 64) as u32, (u % 4) as u32], &mut rng).unwrap())
        .collect();

    // Serialise every report (as a device would), then re-ingest.
    let mut direct = Aggregator::new(plan.clone());
    let mut via_json = Aggregator::new(plan.clone());
    for r in &reports {
        direct.ingest(r).unwrap();
        let json = serde_json::to_string(r).unwrap();
        let back: felip::UserReport = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, r);
        via_json.ingest(&back).unwrap();
    }
    let a = direct.estimate().unwrap();
    let b = via_json.estimate().unwrap();
    for (ga, gb) in a.grids().iter().zip(b.grids()) {
        assert_eq!(ga.freqs(), gb.freqs());
    }
}

#[test]
fn config_round_trips() {
    let cfg = FelipConfig::new(2.5)
        .with_strategy(Strategy::Oug)
        .with_postprocess_rounds(4);
    let json = serde_json::to_string(&cfg).unwrap();
    let back: FelipConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back, cfg);

    // A config saved with a field this version no longer has still loads:
    // fields are looked up by name and unknown ones are ignored.
    let older = json.replacen('{', r#"{"retired_flag":true,"#, 1);
    let back: FelipConfig = serde_json::from_str(&older).unwrap();
    assert_eq!(back, cfg);
}
