//! Equivalence properties of the batched ingestion pipeline: sharded
//! collection, `ingest_batch` bucketing, and `Aggregator::merge` must all be
//! *exactly* (bit-for-bit, not statistically) equivalent to ingesting every
//! report one at a time in sequence.

use std::sync::Arc;

use proptest::prelude::*;

use felip::simulate::{collect, uniform_dataset, SHARD};
use felip::{Aggregator, CollectionPlan, FelipConfig, OracleSet, Strategy, UserReport};
use felip_common::rng::{derive_seed, seeded_rng};
use felip_common::{Attribute, Schema};

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::numerical("a", 32),
        Attribute::numerical("b", 16),
        Attribute::categorical("c", 4),
    ])
    .unwrap()
}

/// Asserts two aggregators hold identical state: per-group report tallies
/// and every grid's exact support counts.
fn assert_same_state(a: &Aggregator, b: &Aggregator) {
    assert_eq!(a.group_sizes(), b.group_sizes(), "group sizes differ");
    assert_eq!(a.counts(), b.counts(), "support counts differ");
}

/// `collect` (sharded, per-group-buffered, batch-kernel ingestion) produces
/// exactly the counts and group sizes of a single sequential per-report
/// pass replaying the same per-shard RNG streams. The population spans two
/// shards so cross-shard merging is exercised.
#[test]
fn collect_matches_sequential_ingestion_across_shards() {
    let n = SHARD + 3_000;
    let data = uniform_dataset(&schema(), n, 11);
    let cfg = FelipConfig::new(1.0).with_strategy(Strategy::Ohg);
    let plan = CollectionPlan::build(&schema(), n, &cfg, 12).unwrap();
    let seed = 13u64;

    let sharded = collect(&data, &plan, seed).unwrap();

    let oracles = OracleSet::build(&plan);
    let mut sequential = Aggregator::new(plan.clone());
    for s in 0..n.div_ceil(SHARD) {
        let mut rng = seeded_rng(derive_seed(seed, s as u64));
        for u in s * SHARD..((s + 1) * SHARD).min(n) {
            let group = plan.group_of(u);
            let cell = plan.grids()[group].cell_of_record(data.row(u));
            let report = oracles.get(group).perturb(cell, &mut rng);
            sequential.ingest(&UserReport { group, report }).unwrap();
        }
    }

    assert_same_state(&sharded, &sequential);
}

proptest! {
    /// For an arbitrary mixed-group report stream, ingesting it (a) one
    /// report at a time, (b) in one `ingest_batch` call, and (c) split into
    /// chunked shard aggregators sharing one plan/oracle set and merged,
    /// all yield identical counts and group sizes.
    #[test]
    fn batch_and_sharded_ingestion_equal_sequential(
        n in 1usize..300,
        seed in 0u64..500,
        chunk in 1usize..64,
    ) {
        let cfg = FelipConfig::new(1.0);
        let plan = Arc::new(CollectionPlan::build(&schema(), n, &cfg, seed).unwrap());
        let oracles = Arc::new(OracleSet::build(&plan));

        // An arbitrary report stream with groups interleaved (user order,
        // which the plan's group assignment scatters across groups).
        let mut rng = seeded_rng(derive_seed(seed, 7));
        let stream: Vec<UserReport> = (0..n)
            .map(|u| {
                let group = plan.group_of(u);
                let grid = &plan.grids()[group];
                let cell = (u as u32 * 31 + seed as u32) % grid.num_cells();
                UserReport { group, report: oracles.get(group).perturb(cell, &mut rng) }
            })
            .collect();

        let mut sequential = Aggregator::with_oracles(Arc::clone(&plan), Arc::clone(&oracles));
        for r in &stream {
            sequential.ingest(r).unwrap();
        }

        let mut batched = Aggregator::with_oracles(Arc::clone(&plan), Arc::clone(&oracles));
        batched.ingest_batch(&stream).unwrap();
        prop_assert_eq!(batched.group_sizes(), sequential.group_sizes());
        prop_assert_eq!(batched.counts(), sequential.counts());

        let mut chunks = stream.chunks(chunk);
        let mut merged = Aggregator::with_oracles(Arc::clone(&plan), Arc::clone(&oracles));
        if let Some(first) = chunks.next() {
            merged.ingest_batch(first).unwrap();
        }
        for c in chunks {
            let mut shard = Aggregator::with_oracles(Arc::clone(&plan), Arc::clone(&oracles));
            shard.ingest_batch(c).unwrap();
            merged.merge(&shard).expect("merge");
        }
        prop_assert_eq!(merged.group_sizes(), sequential.group_sizes());
        prop_assert_eq!(merged.counts(), sequential.counts());
    }

    /// `ingest_batch` validates every group index before touching state: a
    /// stream with one bad report leaves the aggregator exactly unchanged.
    #[test]
    fn ingest_batch_is_atomic_on_bad_group(n in 1usize..50, seed in 0u64..200) {
        let cfg = FelipConfig::new(1.0);
        let plan = CollectionPlan::build(&schema(), n.max(2), &cfg, seed).unwrap();
        let mut agg = Aggregator::new(plan.clone());
        let mut rng = seeded_rng(seed);
        let oracles = OracleSet::build(&plan);
        let mut stream: Vec<UserReport> = (0..n)
            .map(|u| {
                let group = plan.group_of(u);
                UserReport { group, report: oracles.get(group).perturb(0, &mut rng) }
            })
            .collect();
        stream.push(UserReport { group: plan.num_groups(), report: felip_fo::Report::Grr(0) });
        prop_assert!(agg.ingest_batch(&stream).is_err());
        prop_assert_eq!(agg.reports_ingested(), 0);
        prop_assert!(agg.counts().iter().all(|c| c.iter().all(|&x| x == 0)));
    }

    /// `ingest_batch` checks every report against its group's oracle
    /// before touching state: a valid group with the wrong protocol's
    /// report, anywhere in the stream, leaves the aggregator unchanged.
    #[test]
    fn ingest_batch_is_atomic_on_bad_report(
        n in 1usize..300,
        seed in 0u64..200,
        at in 0usize..300,
    ) {
        let cfg = FelipConfig::new(1.0);
        let plan = CollectionPlan::build(&schema(), n.max(2), &cfg, seed).unwrap();
        let mut agg = Aggregator::new(plan.clone());
        let mut rng = seeded_rng(seed);
        let oracles = OracleSet::build(&plan);
        let mut stream: Vec<UserReport> = (0..n)
            .map(|u| {
                let group = plan.group_of(u);
                UserReport { group, report: oracles.get(group).perturb(0, &mut rng) }
            })
            .collect();
        // A report no oracle accepts: an OLH value far outside any hash
        // range, or a GRR value outside any grid, by the group's protocol.
        let at = at % stream.len();
        let group = stream[at].group;
        let bad = match stream[at].report {
            felip_fo::Report::Olh { .. } => felip_fo::Report::Grr(u32::MAX),
            _ => felip_fo::Report::Olh { seed: 1, value: u32::MAX },
        };
        stream[at] = UserReport { group, report: bad };
        prop_assert!(agg.ingest_batch(&stream).is_err());
        prop_assert_eq!(agg.reports_ingested(), 0);
        prop_assert!(agg.counts().iter().all(|c| c.iter().all(|&x| x == 0)));
    }
}
