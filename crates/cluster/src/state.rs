//! The aggregator tier's cluster-wide state: one cumulative [`Aggregator`]
//! per ingest node, merged on demand into the cluster view (DESIGN.md §16).
//!
//! ## Why per-node cumulative state
//!
//! FELIP count vectors are exact `u64` tallies, so the cluster total is
//! *defined* as the sum of each node's cumulative counts — addition
//! commutes and associates, which is what makes the merged result
//! bit-identical to a single-node run over the union stream regardless of
//! delta arrival order. Keeping the per-node cumulative state (rather than
//! a single running sum) buys the loss-free rejoin path: a node that lost
//! track of what it already streamed (crash, resume from an older
//! snapshot, aggregator restart) sends its full cumulative state and the
//! aggregator *replaces* its view of that node. Replacement is idempotent
//! and self-correcting in both directions — it can never double-count and
//! converges to exact counts as soon as the node itself has re-ingested
//! its share.
//!
//! ## Epoch discipline
//!
//! Deltas are epoch-numbered per node, mirroring the client batch-cursor
//! machinery: `epoch ≤ last` is a duplicate (re-acked, not re-applied),
//! an incremental delta must be exactly `last + 1` (a gap demands a full
//! resync), and a full delta is accepted at any `epoch > last`.
//!
//! ## Durability (FCLU)
//!
//! The aggregator persists its per-node states in one checksummed `FCLU`
//! container — a sequence of embedded FSNP snapshots plus epochs:
//!
//! ```text
//! magic:u32 "FCLU" | version:u8 | reserved:[u8;3] | plan_hash:u64
//! num_nodes:u32  then per node:
//!   node_id:u64  epoch:u64  snap_len:u32  FSNP bytes (Snapshot::encode)
//! crc32:u32 over everything above
//! ```

use std::collections::BTreeMap;
use std::path::Path;

use felip_sync::atomic::{AtomicU64, Ordering};
use felip_sync::{Arc, Mutex};

use felip::aggregator::{Aggregator, OracleSet};
use felip::plan::CollectionPlan;
use felip_server::snapshot::Snapshot;
use felip_server::wire::{self, CountDelta, DeltaFlavor, DeltaStatus, WireError};
use felip_server::CutSource;

/// Cluster-state magic: the bytes `FCLU` read as a little-endian u32.
pub const CLUSTER_MAGIC: u32 = u32::from_le_bytes(*b"FCLU");

/// Current cluster-state container version.
pub const CLUSTER_VERSION: u8 = 1;

/// One ingest node as the aggregator sees it: its cumulative counts and
/// the last delta epoch applied.
struct NodeState {
    agg: Aggregator,
    epoch: u64,
}

/// The fate of one delta, plus the node's resulting cursor — what the
/// `DeltaAck` echoes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyResult {
    /// Applied / duplicate / resync-required.
    pub status: DeltaStatus,
    /// The node's highest applied epoch after this delta.
    pub last_applied: u64,
}

/// Cluster-wide merge state: per-node cumulative aggregators behind one
/// lock, so a delta apply and a merged-snapshot capture can never observe
/// each other half-done (the race the model tests pin down).
pub struct ClusterState {
    plan: Arc<CollectionPlan>,
    oracles: Arc<OracleSet>,
    plan_hash: u64,
    nodes: Mutex<BTreeMap<u64, NodeState>>,
    /// Bumped (under the nodes lock) every time a delta is applied — the
    /// cheap "did the merged view change?" token the query cache keys on.
    version: AtomicU64,
}

impl ClusterState {
    /// An empty cluster state for `plan`.
    pub fn new(plan: Arc<CollectionPlan>, oracles: Arc<OracleSet>) -> ClusterState {
        let plan_hash = plan.schema_hash();
        ClusterState {
            plan,
            oracles,
            plan_hash,
            nodes: Mutex::new(BTreeMap::new()),
            version: AtomicU64::new(0),
        }
    }

    /// `plan.schema_hash()` — what every frame is checked against.
    pub fn plan_hash(&self) -> u64 {
        self.plan_hash
    }

    /// The shared plan handle.
    pub fn plan_handle(&self) -> Arc<CollectionPlan> {
        Arc::clone(&self.plan)
    }

    /// The shared oracle-set handle.
    pub fn oracles_handle(&self) -> Arc<OracleSet> {
        Arc::clone(&self.oracles)
    }

    /// The current change version: bumped on every applied delta. A query
    /// cache whose version still matches knows the merged view is
    /// unchanged without merging anything.
    pub fn change_version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// The node's highest applied epoch (0 for an unknown node) — what the
    /// `Hello` ack echoes so a reconnecting node resyncs its cursor.
    pub fn last_epoch(&self, node_id: u64) -> u64 {
        self.nodes
            .lock()
            .get(&node_id)
            .map(|n| n.epoch)
            .unwrap_or(0)
    }

    /// `(node_id, epoch, reports)` per known node, sorted by node id.
    pub fn node_rows(&self) -> Vec<(u64, u64, u64)> {
        self.nodes
            .lock()
            .iter()
            .map(|(&id, n)| (id, n.epoch, n.agg.reports_ingested() as u64))
            .collect()
    }

    /// Applies one delta under the epoch discipline described in the
    /// module docs. Counts validation (grid/group shapes against the plan,
    /// total vs. group sizes) happens before any state changes, so a
    /// malformed delta can neither corrupt counts nor advance the cursor.
    pub fn apply(&self, delta: &CountDelta) -> Result<ApplyResult, WireError> {
        let group_sizes = converted_group_sizes(&delta.group_sizes)?;
        let sum: u64 = delta
            .group_sizes
            .iter()
            .try_fold(0u64, |acc, &s| acc.checked_add(s))
            .ok_or_else(|| WireError::Malformed("delta group sizes overflow u64".to_string()))?;
        if sum != delta.total {
            return Err(WireError::Malformed(format!(
                "delta total {} disagrees with group sizes summing to {sum}",
                delta.total
            )));
        }
        // Restoring through the aggregator validates every shape against
        // the plan; the restored value doubles as the merge operand.
        let incoming = Aggregator::restore(
            Arc::clone(&self.plan),
            Arc::clone(&self.oracles),
            delta.counts.clone(),
            group_sizes,
        )
        .map_err(|e| WireError::Malformed(e.to_string()))?;

        let mut nodes = self.nodes.lock();
        let node = nodes.entry(delta.node_id).or_insert_with(|| NodeState {
            agg: Aggregator::with_oracles(Arc::clone(&self.plan), Arc::clone(&self.oracles)),
            epoch: 0,
        });
        if delta.epoch <= node.epoch {
            felip_obs::counter!("cluster.delta.duplicate", 1, "deltas");
            return Ok(ApplyResult {
                status: DeltaStatus::Duplicate,
                last_applied: node.epoch,
            });
        }
        match delta.flavor {
            DeltaFlavor::Full => {
                // Replacement: the node's cumulative truth wins wholesale.
                node.agg = incoming;
                node.epoch = delta.epoch;
            }
            DeltaFlavor::Incremental => {
                if Some(delta.epoch) != node.epoch.checked_add(1) {
                    felip_obs::counter!("cluster.delta.resync", 1, "deltas");
                    return Ok(ApplyResult {
                        status: DeltaStatus::ResyncRequired,
                        last_applied: node.epoch,
                    });
                }
                if let Err(e) = node.agg.merge(&incoming) {
                    // The failed merge left this node's cumulative state
                    // unspecified: discard it so the next delta (rejected
                    // below as non-successor) forces a full resync instead
                    // of merging onto corrupt counts.
                    nodes.remove(&delta.node_id);
                    return Err(WireError::Malformed(format!(
                        "delta apply failed, full resync required: {e}"
                    )));
                }
                node.epoch = delta.epoch;
            }
        }
        // Bumped while the nodes guard is still held, so a
        // `merged_versioned` cut can never pair old counts with the new
        // version (or vice versa).
        self.version.fetch_add(1, Ordering::Release);
        felip_obs::counter!("cluster.delta.applied", 1, "deltas");
        let last_applied = node.epoch;
        // Keep the merged-view gauge live during ingestion, not just on
        // snapshot/shutdown merges — `felip stat` mid-run reads it.
        let total: u64 = nodes.values().fold(0u64, |acc, n| {
            // ARITH: live gauge only — a saturated reading still tells the
            // operator the tier is ingesting; exact totals come from merges.
            acc.saturating_add(n.agg.reports_ingested() as u64)
        });
        felip_obs::gauge!("cluster.merge.reports", total, "reports");
        Ok(ApplyResult {
            status: DeltaStatus::Applied,
            last_applied,
        })
    }

    /// The cluster-wide merge: the sum of every node's cumulative state.
    /// Taken under the nodes lock, so it is a consistent cut — no delta is
    /// ever half-included. `Err` means a cross-node count overflowed `u64`
    /// (per-node state is untouched).
    pub fn merged(&self) -> Result<Aggregator, felip_common::Error> {
        Ok(self.merged_versioned()?.0)
    }

    /// [`merged`](ClusterState::merged) plus the change version read under
    /// the same nodes guard — the exact token the merged counts correspond
    /// to, for query-cache keying.
    pub fn merged_versioned(&self) -> Result<(Aggregator, u64), felip_common::Error> {
        let nodes = self.nodes.lock();
        let version = self.version.load(Ordering::Acquire);
        let mut merged =
            Aggregator::with_oracles(Arc::clone(&self.plan), Arc::clone(&self.oracles));
        for node in nodes.values() {
            merged.merge(&node.agg)?;
        }
        felip_obs::gauge!(
            "cluster.merge.reports",
            merged.reports_ingested(),
            "reports"
        );
        Ok((merged, version))
    }

    /// A plain merged FSNP snapshot (no dedup cursors — those live on the
    /// ingest tier), for `felip estimate` / `felip verify`.
    pub fn capture_merged(&self) -> Result<Snapshot, felip_common::Error> {
        Ok(Snapshot::capture(&self.merged()?, self.plan_hash))
    }

    /// Serialises the full per-node container (FCLU).
    pub fn encode(&self) -> Vec<u8> {
        let nodes = self.nodes.lock();
        let mut buf = Vec::new();
        buf.extend_from_slice(&CLUSTER_MAGIC.to_le_bytes());
        buf.push(CLUSTER_VERSION);
        buf.extend_from_slice(&[0u8; 3]);
        buf.extend_from_slice(&self.plan_hash.to_le_bytes());
        buf.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
        for (&id, node) in nodes.iter() {
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(&node.epoch.to_le_bytes());
            let snap = Snapshot::capture(&node.agg, self.plan_hash).encode();
            buf.extend_from_slice(&(snap.len() as u32).to_le_bytes());
            buf.extend_from_slice(&snap);
        }
        let crc = wire::crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes and validates an FCLU container into a live cluster state.
    pub fn decode(
        bytes: &[u8],
        plan: Arc<CollectionPlan>,
        oracles: Arc<OracleSet>,
    ) -> Result<ClusterState, WireError> {
        if bytes.len() < 20 {
            return Err(WireError::Truncated {
                have: bytes.len(),
                need: 20,
            });
        }
        let body = &bytes[..bytes.len() - 4];
        let expected = wire::crc32(body);
        let actual = le_u32(&bytes[bytes.len() - 4..]);
        if expected != actual {
            return Err(WireError::BadCrc { expected, actual });
        }
        let magic = le_u32(&body[0..4]);
        if magic != CLUSTER_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        if body[4] != CLUSTER_VERSION {
            return Err(WireError::BadVersion(body[4]));
        }
        if body[5..8] != [0u8; 3] {
            return Err(WireError::Malformed("reserved bytes are nonzero".into()));
        }
        let plan_hash = le_u64(&body[8..16]);
        let ours = plan.schema_hash();
        if plan_hash != ours {
            return Err(WireError::PlanMismatch {
                ours,
                theirs: plan_hash,
            });
        }
        let num_nodes = le_u32(&body[16..20]) as usize;
        let mut pos = 20usize;
        let mut nodes = BTreeMap::new();
        for _ in 0..num_nodes {
            if body.len() - pos < 20 {
                return Err(WireError::Truncated {
                    have: body.len() - pos,
                    need: 20,
                });
            }
            let node_id = le_u64(&body[pos..pos + 8]);
            let epoch = le_u64(&body[pos + 8..pos + 16]);
            let snap_len = le_u32(&body[pos + 16..pos + 20]) as usize;
            pos += 20;
            if body.len() - pos < snap_len {
                return Err(WireError::Truncated {
                    have: body.len() - pos,
                    need: snap_len,
                });
            }
            let snap = Snapshot::decode(&body[pos..pos + snap_len])?;
            pos += snap_len;
            let agg = snap.restore(Arc::clone(&plan), Arc::clone(&oracles))?;
            if nodes.insert(node_id, NodeState { agg, epoch }).is_some() {
                return Err(WireError::Malformed(format!(
                    "node {node_id} appears twice in cluster state"
                )));
            }
        }
        if pos != body.len() {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after cluster state",
                body.len() - pos
            )));
        }
        // A restored state starts its version counter over at zero; the
        // query engine paired with it must likewise start cold (epoch 0)
        // so a resumed aggregator can never serve a pre-restore cached
        // grid against the reset counter.
        Ok(ClusterState {
            plan,
            oracles,
            plan_hash: ours,
            nodes: Mutex::new(nodes),
            version: AtomicU64::new(0),
        })
    }

    /// Writes the container atomically (temp + fsync + rename), same
    /// discipline as FSNP snapshots.
    pub fn write_atomic(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let bytes = self.encode();
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and validates a container from disk.
    pub fn read(
        path: &Path,
        plan: Arc<CollectionPlan>,
        oracles: Arc<OracleSet>,
    ) -> Result<ClusterState, WireError> {
        let bytes = std::fs::read(path)?;
        ClusterState::decode(&bytes, plan, oracles)
    }
}

/// Delta group sizes travel as `u64`; the aggregator stores `usize`.
fn converted_group_sizes(sizes: &[u64]) -> Result<Vec<usize>, WireError> {
    sizes
        .iter()
        .map(|&s| {
            usize::try_from(s)
                .map_err(|_| WireError::Malformed(format!("group size {s} exceeds usize")))
        })
        .collect()
}

#[inline]
fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[..4]);
    u32::from_le_bytes(a)
}

#[inline]
fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// The aggregator's query cut source: the versioned merge, keyed on the
/// change version (bumped under the nodes lock on every applied delta),
/// so an unchanged merged view stays warm across queries.
impl CutSource for ClusterState {
    fn head(&self) -> u64 {
        self.change_version()
    }

    fn cut(&self) -> Result<(Aggregator, u64), felip_common::Error> {
        self.merged_versioned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felip::config::FelipConfig;
    use felip_common::{Attribute, Schema};

    fn tiny_plan() -> Arc<CollectionPlan> {
        let schema = Schema::new(vec![
            Attribute::numerical("a", 32),
            Attribute::categorical("c", 4),
        ])
        .unwrap();
        Arc::new(CollectionPlan::build(&schema, 60, &FelipConfig::new(1.0), 3).unwrap())
    }

    fn state() -> ClusterState {
        let plan = tiny_plan();
        let oracles = Arc::new(OracleSet::build(&plan));
        ClusterState::new(plan, oracles)
    }

    fn delta_of(
        state: &ClusterState,
        node: u64,
        epoch: u64,
        flavor: DeltaFlavor,
        users: std::ops::Range<usize>,
        seed: u64,
    ) -> CountDelta {
        let agg =
            felip_server::loadgen::offline_reference(&state.plan_handle(), users, seed).unwrap();
        CountDelta {
            node_id: node,
            epoch,
            flavor,
            total: agg.reports_ingested() as u64,
            counts: agg.counts().to_vec(),
            group_sizes: agg.group_sizes().iter().map(|&s| s as u64).collect(),
        }
    }

    #[test]
    fn incremental_epochs_apply_exactly_once() {
        let st = state();
        let d1 = delta_of(&st, 1, 1, DeltaFlavor::Incremental, 0..10, 7);
        let d2 = delta_of(&st, 1, 2, DeltaFlavor::Incremental, 10..20, 7);
        assert_eq!(st.apply(&d1).unwrap().status, DeltaStatus::Applied);
        // A resent epoch is a duplicate: re-acked, never re-applied.
        let dup = st.apply(&d1).unwrap();
        assert_eq!(dup.status, DeltaStatus::Duplicate);
        assert_eq!(dup.last_applied, 1);
        assert_eq!(st.apply(&d2).unwrap().status, DeltaStatus::Applied);
        let expect = felip_server::loadgen::offline_reference(&st.plan_handle(), 0..20, 7).unwrap();
        assert_eq!(st.merged().expect("merged").counts(), expect.counts());
        assert_eq!(
            st.merged().expect("merged").group_sizes(),
            expect.group_sizes()
        );
    }

    #[test]
    fn incremental_gap_demands_resync_and_full_replaces() {
        let st = state();
        let d1 = delta_of(&st, 1, 1, DeltaFlavor::Incremental, 0..10, 3);
        assert_eq!(st.apply(&d1).unwrap().status, DeltaStatus::Applied);
        // Epoch 3 skips 2: the cursor must not move.
        let gap = delta_of(&st, 1, 3, DeltaFlavor::Incremental, 10..20, 3);
        let r = st.apply(&gap).unwrap();
        assert_eq!(r.status, DeltaStatus::ResyncRequired);
        assert_eq!(r.last_applied, 1);
        // The full fallback replaces the node's whole view, at any higher
        // epoch — regardless of what the earlier incremental contained.
        let full = delta_of(&st, 1, 5, DeltaFlavor::Full, 0..20, 3);
        assert_eq!(st.apply(&full).unwrap().status, DeltaStatus::Applied);
        assert_eq!(st.last_epoch(1), 5);
        let expect = felip_server::loadgen::offline_reference(&st.plan_handle(), 0..20, 3).unwrap();
        assert_eq!(st.merged().expect("merged").counts(), expect.counts());
    }

    #[test]
    fn malformed_deltas_cannot_move_the_cursor() {
        let st = state();
        let mut bad = delta_of(&st, 1, 1, DeltaFlavor::Incremental, 0..5, 1);
        bad.total += 1; // disagrees with group sizes
        assert!(st.apply(&bad).is_err());
        assert_eq!(st.last_epoch(1), 0);
        let mut bad_shape = delta_of(&st, 1, 1, DeltaFlavor::Incremental, 0..5, 1);
        bad_shape.counts.pop(); // wrong grid count for the plan
        assert!(st.apply(&bad_shape).is_err());
        assert_eq!(st.last_epoch(1), 0);
    }

    #[test]
    fn fclu_round_trips_and_rejects_corruption() {
        let st = state();
        for node in 1..=3u64 {
            let lo = (node as usize - 1) * 10;
            let d = delta_of(&st, node, 1, DeltaFlavor::Full, lo..lo + 10, 11);
            st.apply(&d).unwrap();
        }
        let bytes = st.encode();
        let restored = ClusterState::decode(
            &bytes,
            st.plan_handle(),
            Arc::new(OracleSet::build(&st.plan_handle())),
        )
        .unwrap();
        assert_eq!(restored.node_rows(), st.node_rows());
        assert_eq!(
            restored.merged().expect("merged").counts(),
            st.merged().expect("merged").counts()
        );
        assert_eq!(
            restored.merged().expect("merged").counts_digest(),
            st.merged().expect("merged").counts_digest()
        );
        // Any flipped byte is caught by the CRC (or a structural check).
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(
                ClusterState::decode(
                    &bad,
                    st.plan_handle(),
                    Arc::new(OracleSet::build(&st.plan_handle()))
                )
                .is_err(),
                "flip at {i} accepted"
            );
        }
        for cut in (0..bytes.len()).step_by(13) {
            assert!(ClusterState::decode(
                &bytes[..cut],
                st.plan_handle(),
                Arc::new(OracleSet::build(&st.plan_handle()))
            )
            .is_err());
        }
    }

    #[test]
    fn fclu_survives_a_disk_round_trip() {
        let st = state();
        let d = delta_of(&st, 9, 4, DeltaFlavor::Full, 0..25, 2);
        st.apply(&d).unwrap();
        let dir = std::env::temp_dir().join(format!("felip-fclu-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cluster.fclu");
        st.write_atomic(&path).unwrap();
        let restored = ClusterState::read(
            &path,
            st.plan_handle(),
            Arc::new(OracleSet::build(&st.plan_handle())),
        )
        .unwrap();
        assert_eq!(restored.last_epoch(9), 4);
        assert_eq!(
            restored.merged().expect("merged").counts(),
            st.merged().expect("merged").counts()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
