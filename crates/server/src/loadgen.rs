//! Deterministic synthetic report streams for load generation and
//! end-to-end verification.
//!
//! Every user's record *and* randomness derive solely from `(seed, user
//! index)`, so the report stream is independent of how users are split
//! across connections, batches, or server restarts. That is what lets the
//! CI serve job kill the server mid-run, resume from a snapshot, and demand
//! final counts bit-identical to an uninterrupted offline collection of the
//! same stream.

use felip_sync::Arc;

use felip::aggregator::Aggregator;
use felip::client::{respond, UserReport};
use felip::plan::CollectionPlan;
use felip_common::hash::mix64;
use felip_common::rng::{derive_seed, seeded_rng};
use felip_common::{Result, Schema};

/// The deterministic synthetic record of user `u`: per attribute, the
/// minimum of two independent hashes of `(u, attribute)` modulo the domain
/// — a mildly lower-skewed distribution, so estimates have visible shape
/// without any dataset on disk.
pub fn synth_record(schema: &Schema, user: usize) -> Vec<u32> {
    (0..schema.len())
        .map(|a| {
            let d = schema.domain(a) as u64;
            let h1 = mix64((user as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ a as u64);
            let h2 = mix64(h1 ^ 0xd1b5_4a32_d192_ed03);
            ((h1 % d).min(h2 % d)) as u32
        })
        .collect()
}

/// The perturbed report user `u` submits under `plan`, reproducible from
/// `(seed, u)` alone.
pub fn user_report(plan: &CollectionPlan, user: usize, seed: u64) -> Result<UserReport> {
    let record = synth_record(plan.schema(), user);
    let mut rng = seeded_rng(derive_seed(seed, user as u64));
    respond(plan, user, &record, &mut rng)
}

/// The reports of batch `id` (numbered from 1) when `users` is cut into
/// batches of `size` users — the batch source a [`crate::Client`] sends
/// from. An id past the last batch yields an empty batch.
pub fn batch_reports(
    plan: &CollectionPlan,
    users: &[usize],
    size: usize,
    seed: u64,
    id: u64,
) -> Result<Vec<UserReport>> {
    let start = (id.saturating_sub(1) as usize)
        .saturating_mul(size)
        .min(users.len());
    let end = start.saturating_add(size).min(users.len());
    users[start..end]
        .iter()
        .map(|&u| user_report(plan, u, seed))
        .collect()
}

/// Collects users `range` offline into a fresh aggregator — the ground
/// truth a served (possibly killed-and-resumed) run must match exactly.
pub fn offline_reference(
    plan: &Arc<CollectionPlan>,
    users: std::ops::Range<usize>,
    seed: u64,
) -> Result<Aggregator> {
    let mut agg = Aggregator::new(Arc::clone(plan));
    for u in users {
        agg.ingest(&user_report(plan, u, seed)?)?;
    }
    Ok(agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use felip::config::FelipConfig;
    use felip_common::Attribute;

    fn plan() -> Arc<CollectionPlan> {
        let schema = Schema::new(vec![
            Attribute::numerical("a", 64),
            Attribute::numerical("b", 64),
        ])
        .unwrap();
        Arc::new(CollectionPlan::build(&schema, 5_000, &FelipConfig::new(1.0), 11).unwrap())
    }

    #[test]
    fn records_are_deterministic_and_in_domain() {
        let p = plan();
        for u in [0usize, 1, 999, 4999] {
            let r1 = synth_record(p.schema(), u);
            let r2 = synth_record(p.schema(), u);
            assert_eq!(r1, r2);
            p.schema().check_record(&r1).unwrap();
        }
    }

    #[test]
    fn reports_do_not_depend_on_generation_order() {
        let p = plan();
        let forward: Vec<_> = (0..100).map(|u| user_report(&p, u, 42).unwrap()).collect();
        let mut backward: Vec<_> = (0..100)
            .rev()
            .map(|u| user_report(&p, u, 42).unwrap())
            .collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn offline_reference_is_order_independent() {
        let p = plan();
        let whole = offline_reference(&p, 0..400, 7).unwrap();
        let mut left = offline_reference(&p, 0..150, 7).unwrap();
        let right = offline_reference(&p, 150..400, 7).unwrap();
        left.merge(&right).expect("merge");
        assert_eq!(left.counts(), whole.counts());
        assert_eq!(left.group_sizes(), whole.group_sizes());
    }
}
