//! Equivalence properties of the incremental estimation engine: every
//! answer `QueryEngine` serves from a refresh must be *bit-identical* (not
//! statistically close) to a fresh offline `Aggregator::estimate` computed
//! on the exact same count cut — across arbitrary interleavings of ingest
//! chunks and refreshes, and across the cache-warm and cache-cold paths.

use std::sync::Arc;

use proptest::prelude::*;

use felip::{respond, Aggregator, CollectionPlan, Estimator, FelipConfig, QueryEngine, Strategy};
use felip_common::rng::{derive_seed, seeded_rng};
use felip_common::{Attribute, Predicate, Query, Schema};

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::numerical("a", 32),
        Attribute::categorical("b", 4),
        Attribute::numerical("c", 16),
    ])
    .unwrap()
}

fn plan(seed: u64) -> Arc<CollectionPlan> {
    let config = FelipConfig::new(1.0).with_strategy(Strategy::Ohg);
    Arc::new(CollectionPlan::build(&schema(), 4_000, &config, seed).unwrap())
}

/// Deterministic per-user records, same construction the engine unit tests
/// and the server loadgen use: value depends only on (user, attribute).
fn ingest_users(agg: &mut Aggregator, users: std::ops::Range<usize>, seed: u64) {
    let plan = agg.plan_handle();
    let schema = plan.schema();
    for user in users {
        let mut rng = seeded_rng(derive_seed(seed, user as u64));
        let record: Vec<u32> = (0..schema.len())
            .map(|a| (user as u32).wrapping_mul(a as u32 + 3) % schema.domain(a))
            .collect();
        let report = respond(&plan, user, &record, &mut rng).unwrap();
        agg.ingest(&report).unwrap();
    }
}

/// λ-D probes spanning the predicate grammar: a 1-D range marginal, a 1-D
/// categorical set, and a 3-D conjunction.
fn probes(schema: &Schema) -> Vec<Query> {
    vec![
        Query::new(schema, vec![Predicate::between(0, 4, 20)]).unwrap(),
        Query::new(schema, vec![Predicate::in_set(1, vec![0, 2])]).unwrap(),
        Query::new(
            schema,
            vec![
                Predicate::between(0, 8, 24),
                Predicate::in_set(1, vec![1, 3]),
                Predicate::between(2, 2, 9),
            ],
        )
        .unwrap(),
    ]
}

/// The headline invariant: every grid's post-processed frequencies and
/// every probe answer from the incremental estimator equal the offline
/// batch estimate on the same counts, bit for bit.
fn assert_matches_batch(est: &Estimator, agg: &Aggregator, queries: &[Query]) {
    let batch = agg.estimate().unwrap();
    for (g, (inc, off)) in est.grids().iter().zip(batch.grids()).enumerate() {
        let inc_bits: Vec<u64> = inc.freqs().iter().map(|f| f.to_bits()).collect();
        let off_bits: Vec<u64> = off.freqs().iter().map(|f| f.to_bits()).collect();
        assert_eq!(
            inc_bits, off_bits,
            "grid {g} diverges from the batch estimate"
        );
    }
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            est.answer(q).unwrap().to_bits(),
            batch.answer(q).unwrap().to_bits(),
            "probe {i} diverges from the batch estimate"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Random interleavings of ingest chunks and refreshes. After every
    /// cut the incremental estimator is compared bit-for-bit against an
    /// offline batch estimate on that cut; even-sized chunks additionally
    /// re-refresh on unchanged counts to exercise the warm path mid-stream.
    #[test]
    fn interleaved_ingest_and_queries_match_batch_bit_identically(
        seed in 0u64..200,
        cuts in proptest::collection::vec(1usize..60, 1..7),
    ) {
        let plan = plan(seed);
        let queries = probes(plan.schema());
        let mut agg = Aggregator::new(Arc::clone(&plan));
        let mut engine = QueryEngine::new(agg.plan_handle(), agg.oracles());

        let mut next_user = 0usize;
        let mut expected_epoch = 0u64;
        for chunk in cuts {
            ingest_users(&mut agg, next_user..next_user + chunk, seed);
            next_user += chunk;

            let out = engine.refresh_from(&agg).unwrap();
            expected_epoch += 1;
            prop_assert!(!out.warm);
            prop_assert!(out.refreshed_grids >= 1);
            prop_assert_eq!(out.epoch, expected_epoch);
            prop_assert_eq!(out.reports, next_user as u64);
            assert_matches_batch(&out.estimator, &agg, &queries);

            if chunk % 2 == 0 {
                // Unchanged counts: the cache must serve the same
                // estimator without advancing the epoch.
                let warm = engine.refresh_from(&agg).unwrap();
                prop_assert!(warm.warm);
                prop_assert_eq!(warm.epoch, expected_epoch);
                prop_assert_eq!(warm.refreshed_grids, 0);
                prop_assert!(Arc::ptr_eq(&warm.estimator, &out.estimator));
            }
        }
    }
}

/// Cold → warm → invalidation lifecycle on one engine: the cold refresh
/// recomputes every grid, the warm refresh reuses the estimator wholesale,
/// and ingesting more reports invalidates and still matches batch.
#[test]
fn cold_warm_and_invalidated_refreshes_all_match_batch() {
    let plan = plan(41);
    let queries = probes(plan.schema());
    let mut agg = Aggregator::new(Arc::clone(&plan));
    ingest_users(&mut agg, 0..350, 41);

    let mut engine = QueryEngine::new(agg.plan_handle(), agg.oracles());
    let cold = engine.refresh_from(&agg).unwrap();
    assert!(!cold.warm);
    assert_eq!(cold.refreshed_grids, plan.num_groups());
    assert_matches_batch(&cold.estimator, &agg, &queries);

    let warm = engine.refresh_from(&agg).unwrap();
    assert!(warm.warm);
    assert!(Arc::ptr_eq(&warm.estimator, &cold.estimator));

    ingest_users(&mut agg, 350..500, 41);
    let invalidated = engine.refresh_from(&agg).unwrap();
    assert!(!invalidated.warm);
    assert_eq!(invalidated.epoch, 2);
    assert_matches_batch(&invalidated.estimator, &agg, &queries);
}
