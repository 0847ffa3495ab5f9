//! The aggregator tier's cluster-wide state: one cumulative [`Aggregator`]
//! per ingest node, merged on demand into the cluster view (DESIGN.md §16).
//!
//! ## Why per-node cumulative state
//!
//! FELIP count vectors are exact `u64` tallies, so the cluster total is
//! *defined* as the sum of each node's cumulative counts — addition
//! commutes and associates, which is what makes the merged result
//! bit-identical to a single-node run over the union stream regardless of
//! delta arrival order. Every delta is the node's whole cumulative state,
//! and the aggregator *replaces* its view of that node with it. Replacement
//! is idempotent and self-correcting in both directions: a node that lost
//! track of what it already streamed (crash, resume from an older
//! snapshot, aggregator restart) just sends what it has now, which can
//! never double-count and converges to exact counts as soon as the node
//! itself has re-ingested its share.
//!
//! ## The epoch rule
//!
//! Deltas are epoch-numbered per node, mirroring the client batch-cursor
//! machinery: a delta with `epoch > last` replaces the node's view and
//! becomes `last`; any other is a duplicate (re-acked, not re-applied).
//!
//! ## Durability (FCLU)
//!
//! The aggregator persists its per-node states in one checksummed `FCLU`
//! container — a sequence of embedded FSNP snapshots plus epochs, read
//! back through the same [`Snapshot::decode`] every delta goes through:
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
use felip_server::snapshot::{open_container, write_file_verified, MangleFn, Snapshot};
use felip_server::wire::{self, WireError};
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
    /// Whether the delta replaced the node's view (`false`: a duplicate).
    pub applied: bool,
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
    /// `Hello` ack echoes so a reconnecting node stamps its next delta
    /// one past it.
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

    /// Applies node `node_id`'s cumulative `snapshot` at `epoch` under the
    /// epoch rule in the module docs. The snapshot is restored (plan hash
    /// and every shape checked) before any state changes, so a malformed
    /// delta can neither corrupt counts nor advance the cursor.
    pub fn apply(
        &self,
        node_id: u64,
        epoch: u64,
        snapshot: Snapshot,
    ) -> Result<ApplyResult, WireError> {
        let incoming = snapshot.restore(Arc::clone(&self.plan), Arc::clone(&self.oracles))?;
        let mut nodes = self.nodes.lock();
        let last = nodes.get(&node_id).map_or(0, |n| n.epoch);
        if epoch <= last {
            felip_obs::counter!("cluster.delta.duplicate", 1, "deltas");
            return Ok(ApplyResult {
                applied: false,
                last_applied: last,
            });
        }
        nodes.insert(
            node_id,
            NodeState {
                agg: incoming,
                epoch,
            },
        );
        // Bumped while the nodes guard is still held, so a
        // `merged_versioned` cut can never pair old counts with the new
        // version (or vice versa).
        self.version.fetch_add(1, Ordering::Release);
        felip_obs::counter!("cluster.delta.applied", 1, "deltas");
        // Keep the merged-view gauge live during ingestion, not just on
        // snapshot/shutdown merges — `felip stat` mid-run reads it.
        let total: u64 = nodes.values().fold(0u64, |acc, n| {
            // ARITH: live gauge only — a saturated reading still tells the
            // operator the tier is ingesting; exact totals come from merges.
            acc.saturating_add(n.agg.reports_ingested() as u64)
        });
        felip_obs::gauge!("cluster.merge.reports", total, "reports");
        Ok(ApplyResult {
            applied: true,
            last_applied: epoch,
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
    /// Each node record's FSNP bytes go through [`Snapshot::decode`].
    pub fn decode(
        bytes: &[u8],
        plan: Arc<CollectionPlan>,
        oracles: Arc<OracleSet>,
    ) -> Result<ClusterState, WireError> {
        let (plan_hash, mut r) = open_container(bytes, CLUSTER_MAGIC, CLUSTER_VERSION)?;
        let ours = plan.schema_hash();
        if plan_hash != ours {
            return Err(WireError::PlanMismatch {
                ours,
                theirs: plan_hash,
            });
        }
        let num_nodes = r.u32()?;
        let mut nodes = BTreeMap::new();
        for _ in 0..num_nodes {
            let node_id = r.u64()?;
            let epoch = r.u64()?;
            let snap_len = r.u32()? as usize;
            let snap = Snapshot::decode(r.take(snap_len)?)?;
            let agg = snap.restore(Arc::clone(&plan), Arc::clone(&oracles))?;
            if nodes.insert(node_id, NodeState { agg, epoch }).is_some() {
                return Err(WireError::Malformed(format!(
                    "node {node_id} appears twice in cluster state"
                )));
            }
        }
        if r.remaining() != 0 {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after cluster state",
                r.remaining()
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

    /// Writes the container with the same durable writer as FSNP snapshots
    /// ([`write_file_verified`]): the read-back must equal the encoded bytes
    /// and decode, or the write is quarantined and the previous container
    /// at `path` stays.
    /// `mangle` is the fault-injection hook (`None` = write faithfully).
    pub fn write_verified(
        &self,
        path: &Path,
        mangle: Option<&mut MangleFn<'_>>,
    ) -> Result<(), WireError> {
        let bytes = self.encode();
        let expected = bytes.clone();
        write_file_verified(path, bytes, mangle, |read_back| {
            if read_back != expected {
                return Err(WireError::Malformed(
                    "cluster state read-back differs from what was written".into(),
                ));
            }
            ClusterState::decode(read_back, Arc::clone(&self.plan), Arc::clone(&self.oracles))
                .map(drop)
        })
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

    /// The cumulative state of a node that ingested `users`.
    fn delta_of(state: &ClusterState, users: std::ops::Range<usize>, seed: u64) -> Snapshot {
        let agg =
            felip_server::loadgen::offline_reference(&state.plan_handle(), users, seed).unwrap();
        Snapshot::capture(&agg, state.plan_hash())
    }

    #[test]
    fn each_epoch_applies_exactly_once_and_replaces() {
        let st = state();
        let d1 = delta_of(&st, 0..10, 7);
        let d2 = delta_of(&st, 0..20, 7);
        assert!(st.apply(1, 1, d1.clone()).unwrap().applied);
        // A resent epoch is a duplicate: re-acked, never re-applied.
        let dup = st.apply(1, 1, d2.clone()).unwrap();
        assert_eq!(
            dup,
            ApplyResult {
                applied: false,
                last_applied: 1
            }
        );
        assert_eq!(st.merged().unwrap().reports_ingested(), 10);
        // Any newer epoch replaces the node's whole view, gap or not.
        assert!(st.apply(1, 5, d2).unwrap().applied);
        assert_eq!(st.last_epoch(1), 5);
        let stale = st.apply(1, 4, d1).unwrap();
        assert_eq!((stale.applied, stale.last_applied), (false, 5));
        let expect = felip_server::loadgen::offline_reference(&st.plan_handle(), 0..20, 7).unwrap();
        assert_eq!(st.merged().unwrap().counts(), expect.counts());
        assert_eq!(st.merged().unwrap().group_sizes(), expect.group_sizes());
    }

    #[test]
    fn malformed_deltas_cannot_move_the_cursor() {
        let st = state();
        let mut foreign = delta_of(&st, 0..5, 1);
        foreign.plan_hash ^= 1;
        assert!(matches!(
            st.apply(1, 1, foreign),
            Err(WireError::PlanMismatch { .. })
        ));
        assert_eq!(st.last_epoch(1), 0);
        let mut bad_shape = delta_of(&st, 0..5, 1);
        bad_shape.counts.pop(); // wrong grid count for the plan
        assert!(st.apply(1, 1, bad_shape).is_err());
        assert_eq!(st.last_epoch(1), 0);
        assert_eq!(st.change_version(), 0);
    }

    /// A container too short for its `num_nodes` field, with a valid CRC,
    /// is a typed truncation — not a slice-index panic.
    #[test]
    fn short_crc_valid_container_is_truncated() {
        let st = state();
        let mut bytes = st.encode();
        bytes.truncate(16); // magic, version, reserved, plan hash
        let crc = wire::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(bytes.len(), 20);
        let plan = st.plan_handle();
        let oracles = Arc::new(OracleSet::build(&plan));
        assert!(matches!(
            ClusterState::decode(&bytes, plan, oracles),
            Err(WireError::Truncated { have: 0, need: 4 })
        ));
    }

    #[test]
    fn fclu_round_trips_and_rejects_corruption() {
        let st = state();
        for node in 1..=3u64 {
            let lo = (node as usize - 1) * 10;
            let d = delta_of(&st, lo..lo + 10, 11);
            st.apply(node, 1, d).unwrap();
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
        let d = delta_of(&st, 0..25, 2);
        st.apply(9, 4, d).unwrap();
        let dir = std::env::temp_dir().join(format!("felip-fclu-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cluster.fclu");
        st.write_verified(&path, None).unwrap();
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

    #[test]
    fn torn_fclu_write_is_quarantined_and_the_previous_container_restores() {
        let st = state();
        st.apply(9, 4, delta_of(&st, 0..25, 2)).unwrap();
        let dir = std::env::temp_dir().join(format!("felip-fclu-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cluster.fclu");
        st.write_verified(&path, None).unwrap();
        let good = std::fs::read(&path).unwrap();

        // More state arrives, and its write is torn mid-file.
        st.apply(9, 5, delta_of(&st, 0..60, 2)).unwrap();
        let mut tear = |bytes: &[u8]| Some(bytes[..bytes.len() / 2].to_vec());
        assert!(st.write_verified(&path, Some(&mut tear)).is_err());
        assert_eq!(
            std::fs::read(&path).unwrap(),
            good,
            "previous container clobbered"
        );
        let quarantine = path.with_extension("quarantine");
        assert!(quarantine.exists(), "torn write not kept for post-mortem");

        let plan = st.plan_handle();
        let oracles = Arc::new(OracleSet::build(&plan));
        let restored = ClusterState::read(&path, Arc::clone(&plan), Arc::clone(&oracles)).unwrap();
        assert_eq!(restored.last_epoch(9), 4);
        assert_eq!(restored.merged().expect("merged").reports_ingested(), 25);
        assert!(ClusterState::read(&quarantine, plan, oracles).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
