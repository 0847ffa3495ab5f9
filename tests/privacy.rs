//! Empirical local-differential-privacy checks over the *whole client
//! path* — not just the oracle in isolation. For two arbitrary records
//! v, v′ and any observable report r, `Pr[Ψ(v) = r] ≤ e^ε · Pr[Ψ(v′) = r]`
//! must hold (§5.7). We estimate both distributions by Monte Carlo for one
//! fixed user (fixed group assignment) and bound the likelihood ratio.

use felip_repro::common::rng::seeded_rng;
use felip_repro::engine::{respond, CollectionPlan};
use felip_repro::fo::Report;
use felip_repro::{Attribute, FelipConfig, Schema, Strategy};

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::numerical("x", 16),
        Attribute::categorical("c", 4),
    ])
    .unwrap()
}

/// Distribution of the observable part of the report for a fixed user and
/// record, estimated over `trials` perturbations.
fn report_distribution(
    plan: &CollectionPlan,
    user: usize,
    record: &[u32],
    trials: usize,
    seed: u64,
) -> std::collections::HashMap<u32, f64> {
    let mut rng = seeded_rng(seed);
    let mut counts: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for _ in 0..trials {
        let r = respond(plan, user, record, &mut rng).unwrap();
        // For GRR the observable is the value; for OLH we condition on the
        // hash seed being public and uniform — the *perturbed bucket* is the
        // only part that depends on the record, so we bucket on it.
        let key = match r.report {
            Report::Grr(v) => v,
            Report::Olh { value, .. } => value,
        };
        *counts.entry(key).or_default() += 1;
    }
    counts
        .into_iter()
        .map(|(k, c)| (k, c as f64 / trials as f64))
        .collect()
}

fn check_ldp_bound(epsilon: f64, strategy: Strategy) {
    let schema = schema();
    let config = FelipConfig::new(epsilon).with_strategy(strategy);
    let plan = CollectionPlan::build(&schema, 1_000, &config, 3).unwrap();
    let trials = 120_000;
    // Two maximally different records, same user (same group/grid).
    let da = report_distribution(&plan, 7, &[0, 0], trials, 1);
    let db = report_distribution(&plan, 7, &[15, 3], trials, 2);
    let bound = epsilon.exp();
    for (key, pa) in &da {
        if *pa < 0.01 {
            continue; // too rare to estimate the ratio reliably
        }
        let pb = db.get(key).copied().unwrap_or(0.0);
        assert!(pb > 0.0, "output {key} observed for v but never for v'");
        let ratio = pa / pb;
        // 15% Monte-Carlo slack.
        assert!(
            ratio <= bound * 1.15,
            "strategy {strategy}, ε = {epsilon}: likelihood ratio {ratio} exceeds e^ε = {bound}"
        );
    }
}

#[test]
fn client_reports_satisfy_ldp_ohg() {
    check_ldp_bound(1.0, Strategy::Ohg);
}

#[test]
fn client_reports_satisfy_ldp_oug() {
    check_ldp_bound(1.0, Strategy::Oug);
}

#[test]
fn client_reports_satisfy_ldp_small_epsilon() {
    check_ldp_bound(0.5, Strategy::Ohg);
}

/// Each user sends exactly one report about exactly one grid: the privacy
/// budget is never split (§5.1).
#[test]
fn one_report_per_user() {
    let schema = schema();
    let config = FelipConfig::new(1.0);
    let plan = CollectionPlan::build(&schema, 100, &config, 3).unwrap();
    let mut rng = seeded_rng(0);
    for user in 0..100 {
        // The group (hence the single grid reported on) is a deterministic
        // function of the user index — repeated perturbation never leaks a
        // second grid's worth of information.
        let g1 = respond(&plan, user, &[1, 1], &mut rng).unwrap().group;
        let g2 = respond(&plan, user, &[1, 1], &mut rng).unwrap().group;
        assert_eq!(g1, g2);
    }
}

/// The report payload never contains the raw record, for any record.
#[test]
fn report_is_small_and_opaque() {
    let schema = schema();
    let config = FelipConfig::new(1.0);
    let plan = CollectionPlan::build(&schema, 1_000, &config, 5).unwrap();
    let mut rng = seeded_rng(1);
    for user in 0..200 {
        let record = [(user % 16) as u32, (user % 4) as u32];
        let r = respond(&plan, user, &record, &mut rng).unwrap();
        assert!(
            std::mem::size_of_val(&r.report) <= 16,
            "reports stay a fixed few bytes"
        );
        if let Report::Grr(v) = r.report {
            let cells = plan.grids()[r.group].num_cells();
            assert!(
                v < cells,
                "GRR report must be a cell index, not a raw value"
            );
        }
    }
}
