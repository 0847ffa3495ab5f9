//! The deployment-shaped API: an explicit client/server split instead of
//! the `simulate` convenience wrapper.
//!
//! The server builds a public [`CollectionPlan`] and ships it to clients.
//! Each client — holding one private record — projects it onto its assigned
//! grid, perturbs the cell under ε-LDP, and sends back a tiny
//! [`UserReport`]. The server ingests reports *streamingly* (it never
//! stores them) and, once enough arrived, estimates and answers queries.
//!
//! ```sh
//! cargo run --release --example client_server
//! ```

use felip_repro::common::rng::seeded_rng;
use felip_repro::engine::{respond, Aggregator, CollectionPlan};
use felip_repro::{Attribute, FelipConfig, Predicate, Query, Schema, Strategy};
use rand::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = Schema::new(vec![
        Attribute::numerical("commute_minutes", 120),
        Attribute::categorical("transport", 4), // walk / bike / car / transit
    ])?;
    let n = 80_000;

    // --- Server side: publish the plan. ---
    let config = FelipConfig::new(1.2).with_strategy(Strategy::Ohg);
    let plan = CollectionPlan::build(&schema, n, &config, /*assignment seed*/ 99)?;
    println!(
        "server: published plan with {} grids; each user reports one perturbed cell",
        plan.num_groups()
    );

    // --- Client side: every device perturbs locally. ---
    // (Simulated here; `respond` is the only function that touches a raw
    // record, and its output is the only thing transmitted.)
    let mut device_rng = seeded_rng(1);
    let mut reports = Vec::with_capacity(n);
    let mut ground_truth = Vec::with_capacity(n);
    for user in 0..n {
        let transport = device_rng.gen_range(0..4u32);
        let commute = match transport {
            0 => device_rng.gen_range(0..30),   // walkers: short
            1 => device_rng.gen_range(5..45),   // cyclists
            2 => device_rng.gen_range(10..90),  // drivers
            _ => device_rng.gen_range(20..120), // transit: long
        };
        let record = [commute, transport];
        let report = respond(&plan, user, &record, &mut device_rng)?;
        reports.push(report);
        ground_truth.push(record);
    }

    // --- Server side: streaming ingestion, then estimation. ---
    let mut aggregator = Aggregator::new(plan);
    for r in &reports {
        aggregator.ingest(r)?;
    }
    println!(
        "server: ingested {} reports (memory stays O(grid cells))",
        aggregator.reports_ingested()
    );
    let estimator = aggregator.estimate()?;

    let q = Query::new(
        &schema,
        vec![
            Predicate::between(0, 45, 119),
            Predicate::in_set(1, vec![3]),
        ],
    )?;
    let est = estimator.answer(&q)?;
    let truth = ground_truth
        .iter()
        .filter(|r| (45..=119).contains(&r[0]) && r[1] == 3)
        .count() as f64
        / n as f64;
    println!("\nlong transit commutes (>45 min): estimated {est:.4}, true {truth:.4}");
    println!("the server never saw a single raw commute time.");
    Ok(())
}
