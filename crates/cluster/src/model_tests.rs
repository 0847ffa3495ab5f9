//! Model-checked concurrency tests for the cluster tier (DESIGN.md §14,
//! §16): the `felip-sync` scheduler explores every interleaving (up to its
//! preemption bound) of delta applies and merged-state captures, so the
//! epoch-handoff and merge-vs-apply invariants hold by exhaustion.
//!
//! Compiled only under `--features model`; `cargo test -p felip-cluster
//! --features model model_` runs just these.

use felip_sync::model;
use felip_sync::{thread, Arc};

use felip::aggregator::OracleSet;
use felip::config::FelipConfig;
use felip::plan::CollectionPlan;
use felip_common::{Attribute, Schema};
use felip_server::Snapshot;

use crate::state::ClusterState;

/// A tiny but real plan shared by every schedule of a check (immutable, so
/// building it once outside the explored closure keeps schedules cheap).
fn tiny_plan() -> (Arc<CollectionPlan>, Arc<OracleSet>) {
    let schema = Schema::new(vec![Attribute::numerical("a", 8)]).expect("static schema");
    let plan = Arc::new(
        CollectionPlan::build(&schema, 4, &FelipConfig::new(1.0), 5).expect("static plan"),
    );
    let oracles = Arc::new(OracleSet::build(&plan));
    (plan, oracles)
}

/// A node's cumulative state whose first grid carries `value` in cell 0
/// and whose first group holds `reports` reports.
fn unit_delta(plan: &Arc<CollectionPlan>, value: u64, reports: usize) -> Snapshot {
    let counts: Vec<Vec<u64>> = plan
        .grids()
        .iter()
        .enumerate()
        .map(|(g, grid)| {
            let mut cells = vec![0u64; grid.num_cells() as usize];
            if g == 0 && !cells.is_empty() {
                cells[0] = value;
            }
            cells
        })
        .collect();
    let mut group_sizes = vec![0usize; plan.num_groups()];
    if let Some(first) = group_sizes.first_mut() {
        *first = reports;
    }
    Snapshot {
        plan_hash: plan.schema_hash(),
        counts,
        group_sizes,
        dedup: Vec::new(),
    }
}

/// Two connections racing the *same* node's next epoch (a reconnect racing
/// a not-yet-dead predecessor) serialise on the cluster lock: exactly one
/// apply wins, the other is a duplicate, and the counts reflect the winner
/// exactly once — under every interleaving.
#[test]
fn model_racing_same_epoch_applies_exactly_once() {
    let (plan, oracles) = tiny_plan();
    let stats = model::check(|| {
        let state = ClusterState::new(Arc::clone(&plan), Arc::clone(&oracles));
        let d = unit_delta(&plan, 3, 1);
        let (a, b) = thread::scope(|s| {
            let ta = s.spawn(|| state.apply(7, 1, d.clone()).expect("valid delta"));
            let tb = s.spawn(|| state.apply(7, 1, d.clone()).expect("valid delta"));
            (ta.join().expect("join a"), tb.join().expect("join b"))
        });
        assert!(
            a.applied != b.applied,
            "exactly one racer may apply epoch 1, the other is a duplicate: {a:?} {b:?}"
        );
        assert_eq!((a.last_applied, b.last_applied), (1, 1));
        let merged = state.merged().expect("merged");
        assert_eq!(merged.counts()[0][0], 3, "counts applied exactly once");
        assert_eq!(state.last_epoch(7), 1);
        assert_eq!(state.change_version(), 1);
    })
    .expect("no violation");
    assert!(stats.schedules > 1, "the race must actually interleave");
}

/// A merged-state capture racing a delta apply never observes torn state:
/// the merge sees either the whole new state or none of it, and the epoch
/// cursor agrees with the counts it covers.
#[test]
fn model_merge_never_tears_an_apply() {
    let (plan, oracles) = tiny_plan();
    let stats = model::check(|| {
        let state = ClusterState::new(Arc::clone(&plan), Arc::clone(&oracles));
        state
            .apply(1, 1, unit_delta(&plan, 5, 2))
            .expect("seed delta");
        let d2 = unit_delta(&plan, 9, 3);
        thread::scope(|s| {
            let applier = s.spawn(|| {
                state.apply(1, 2, d2.clone()).expect("valid delta");
            });
            let observer = s.spawn(|| {
                let merged = state.merged().expect("merged");
                let epoch = state.last_epoch(1);
                let cell = merged.counts()[0][0];
                // Before the apply: 5 at epoch ≥ 1. After: 9 at epoch 2.
                // Anything else is a torn read.
                assert!(
                    cell == 5 || cell == 9,
                    "merge saw half an apply: cell {cell}"
                );
                if cell == 9 {
                    // The observer reads the epoch *after* the merge, so
                    // counts that include d2 imply epoch 2.
                    assert_eq!(epoch, 2, "counts ahead of the epoch cursor");
                }
            });
            applier.join().expect("join applier");
            observer.join().expect("join observer");
        });
        let merged = state.merged().expect("merged");
        assert_eq!(merged.counts()[0][0], 9);
        assert_eq!(state.last_epoch(1), 2);
    })
    .expect("no violation");
    assert!(stats.schedules > 1);
}

/// The one epoch rule under a race: a node's deltas for epochs e and e+1
/// (a reconnect racing its not-yet-dead predecessor) race each other and a
/// merged cut. In every interleaving the view ends as e+1's state, and
/// every cut sees one whole state — the seed, e's or e+1's — paired with
/// the change version it was read under, never a mix.
#[test]
fn model_newer_epoch_wins_and_cuts_see_whole_states() {
    let (plan, oracles) = tiny_plan();
    let stats = model::check(|| {
        let state = ClusterState::new(Arc::clone(&plan), Arc::clone(&oracles));
        state
            .apply(3, 1, unit_delta(&plan, 2, 1))
            .expect("seed delta");
        let older = unit_delta(&plan, 4, 2);
        let newer = unit_delta(&plan, 6, 3);
        thread::scope(|s| {
            let to = s.spawn(|| state.apply(3, 2, older.clone()).expect("valid e"));
            let tn = s.spawn(|| state.apply(3, 3, newer.clone()).expect("valid e+1"));
            let tc = s.spawn(|| {
                let (merged, version) = state.merged_versioned().expect("merged cut");
                let whole = (merged.counts()[0][0], merged.reports_ingested());
                match version {
                    1 => assert_eq!(whole, (2, 1), "seed state"),
                    2 => assert!(whole == (4, 2) || whole == (6, 3), "mixed cut {whole:?}"),
                    3 => assert_eq!(whole, (6, 3), "e+1 applied last"),
                    v => panic!("version {v} after at most three applies"),
                }
            });
            let ro = to.join().expect("join e");
            let rn = tn.join().expect("join e+1");
            tc.join().expect("join cut");
            // e+1 always applies; e applies only if it came first.
            assert!(rn.applied, "e+1 must replace the view: {rn:?}");
            assert_eq!(rn.last_applied, 3);
            assert_eq!(ro.last_applied, if ro.applied { 2 } else { 3 });
        });
        let merged = state.merged().expect("merged");
        assert_eq!(merged.counts()[0][0], 6);
        assert_eq!(merged.reports_ingested(), 3);
        assert_eq!(state.last_epoch(3), 3);
    })
    .expect("no violation");
    assert!(stats.schedules > 1);
}
