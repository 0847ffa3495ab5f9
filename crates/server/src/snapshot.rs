//! Durable aggregator snapshots (DESIGN.md §12.3).
//!
//! A snapshot is the aggregator's exact state — per-grid support counts and
//! per-group report tallies, all `u64` integers — in a checksummed,
//! versioned binary file:
//!
//! ```text
//! magic:u32 "FSNP" | version:u8 | reserved:[u8;3] | plan_hash:u64
//! total_reports:u64
//! num_grids:u32  then per grid:  cells:u32  count[cells]:u64
//! num_groups:u32 then per group: size:u64
//! num_dedup:u32  then per entry: client_id:u64 batch_id:u64  (sorted)
//! crc32:u32 over everything above
//! ```
//!
//! Version 2 added the dedup table: the per-client highest-accepted batch
//! id, persisted so a restarted server keeps rejecting duplicates of
//! batches it already counted (the exactly-once half of the
//! exactly-once-or-rejected invariant survives restarts).
//!
//! Because counts are exact integers, `restore → continue ingesting →
//! estimate` is bit-identical to a run that never stopped. Writes are
//! atomic and verified ([`write_file_verified`], shared with the cluster
//! tier's FCLU container): the snapshot is written to a sibling temp file,
//! fsynced, decoded back, and only then renamed over the destination, so a
//! crash mid-write leaves the previous snapshot intact and a torn write is
//! *quarantined* (renamed to `.quarantine` beside the destination) instead
//! of replacing the last good snapshot with garbage.

use felip_sync::Arc;
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

use felip::aggregator::{Aggregator, OracleSet};
use felip::plan::CollectionPlan;

use crate::wire::{crc32, ByteReader, WireError};

/// Fault-injection hook type: sees encoded bytes, may return a corrupted
/// replacement (`None` = write faithfully).
pub type MangleFn<'a> = dyn FnMut(&[u8]) -> Option<Vec<u8>> + 'a;

/// The one durable file writer (FSNP snapshots and FCLU containers):
/// writes `bytes` (or `mangle`'s corrupted replacement) to a sibling temp
/// file and fsyncs it, then reads the file back and renames it over `path`
/// only if `verify` accepts what actually hit the filesystem. A write that
/// fails verification is *quarantined* — renamed to `<path>.quarantine`
/// for post-mortem — and whatever was at `path` is left untouched.
pub fn write_file_verified(
    path: &Path,
    bytes: Vec<u8>,
    mangle: Option<&mut MangleFn<'_>>,
    verify: impl FnOnce(&[u8]) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let _span = felip_obs::span!("server.snapshot.write_verified");
    let written = match mangle.and_then(|m| m(&bytes)) {
        Some(torn) => torn,
        None => bytes,
    };
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&written)?;
        f.sync_all()?;
    }
    match fs::read(&tmp)
        .map_err(WireError::Io)
        .and_then(|b| verify(&b))
    {
        Ok(()) => Ok(fs::rename(&tmp, path)?),
        Err(e) => {
            let _ = fs::rename(&tmp, path.with_extension("quarantine"));
            felip_obs::counter!("server.snapshot.quarantined", 1, "snapshots");
            Err(e)
        }
    }
}

/// Snapshot magic: the bytes `FSNP` read as a little-endian u32.
pub const SNAPSHOT_MAGIC: u32 = u32::from_le_bytes(*b"FSNP");

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u8 = 2;

/// An aggregator's durable state, decoupled from the plan it was built for
/// (the embedded `plan_hash` re-binds them at restore time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// [`CollectionPlan::schema_hash`] of the plan the counts belong to.
    pub plan_hash: u64,
    /// Per-grid support counts, exactly as accumulated.
    pub counts: Vec<Vec<u64>>,
    /// Reports ingested per group.
    pub group_sizes: Vec<usize>,
    /// Per-client dedup cursors: `(client_id, highest accepted batch_id)`,
    /// sorted by client id. Empty for offline captures.
    pub dedup: Vec<(u64, u64)>,
}

impl Snapshot {
    /// Captures the aggregator's current state (no dedup table — offline
    /// captures have no notion of clients).
    pub fn capture(agg: &Aggregator, plan_hash: u64) -> Snapshot {
        Snapshot {
            plan_hash,
            counts: agg.counts().to_vec(),
            group_sizes: agg.group_sizes().to_vec(),
            dedup: Vec::new(),
        }
    }

    /// Captures aggregator state *and* the server's per-client dedup
    /// cursors, so duplicates keep being suppressed after a restart.
    /// `dedup` need not be sorted; the snapshot stores it canonically.
    pub fn capture_with_dedup(
        agg: &Aggregator,
        plan_hash: u64,
        dedup: Vec<(u64, u64)>,
    ) -> Snapshot {
        let mut dedup = dedup;
        dedup.sort_unstable();
        Snapshot {
            plan_hash,
            counts: agg.counts().to_vec(),
            group_sizes: agg.group_sizes().to_vec(),
            dedup,
        }
    }

    /// Total reports across all groups.
    pub fn reports_ingested(&self) -> usize {
        self.group_sizes
            .iter()
            // ARITH: diagnostic total only; saturate rather than wrap so a
            // corrupt container can never panic or alias a small count.
            .fold(0usize, |acc, &s| acc.saturating_add(s))
    }

    /// Serialises the snapshot to its on-disk byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let cells: usize = self.counts.iter().map(Vec::len).sum();
        let mut buf = Vec::with_capacity(32 + cells * 8 + self.group_sizes.len() * 8);
        buf.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
        buf.push(SNAPSHOT_VERSION);
        buf.extend_from_slice(&[0u8; 3]);
        buf.extend_from_slice(&self.plan_hash.to_le_bytes());
        buf.extend_from_slice(&(self.reports_ingested() as u64).to_le_bytes());
        buf.extend_from_slice(&(self.counts.len() as u32).to_le_bytes());
        for grid in &self.counts {
            buf.extend_from_slice(&(grid.len() as u32).to_le_bytes());
            for &c in grid {
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }
        buf.extend_from_slice(&(self.group_sizes.len() as u32).to_le_bytes());
        for &s in &self.group_sizes {
            buf.extend_from_slice(&(s as u64).to_le_bytes());
        }
        buf.extend_from_slice(&(self.dedup.len() as u32).to_le_bytes());
        for &(client, batch) in &self.dedup {
            buf.extend_from_slice(&client.to_le_bytes());
            buf.extend_from_slice(&batch.to_le_bytes());
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parses and checksums an on-disk snapshot: the one decoder of the
    /// per-grid count body, which `Delta` payloads and FCLU node records
    /// embed as FSNP bytes.
    ///
    /// Like the wire decoder this consumes untrusted bytes (a torn or
    /// corrupted file), so every failure is a typed [`WireError`].
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, WireError> {
        let (plan_hash, mut r) = open_container(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
        let total = r.u64()?;
        let num_grids = r.u32()? as usize;
        if num_grids > r.remaining() / 4 {
            return Err(WireError::Malformed(format!(
                "grid count {num_grids} impossible"
            )));
        }
        let mut counts = Vec::with_capacity(num_grids);
        for _ in 0..num_grids {
            let cells = r.u32()? as usize;
            if cells > r.remaining() / 8 {
                return Err(WireError::Malformed(format!(
                    "cell count {cells} impossible"
                )));
            }
            let mut grid = Vec::with_capacity(cells);
            for _ in 0..cells {
                grid.push(r.u64()?);
            }
            counts.push(grid);
        }
        let num_groups = r.u32()? as usize;
        if num_groups > r.remaining() / 8 {
            return Err(WireError::Malformed(format!(
                "group count {num_groups} impossible"
            )));
        }
        let mut group_sizes = Vec::with_capacity(num_groups);
        for _ in 0..num_groups {
            group_sizes.push(r.u64()? as usize);
        }
        let num_dedup = r.u32()? as usize;
        if num_dedup > r.remaining() / 16 {
            return Err(WireError::Malformed(format!(
                "dedup count {num_dedup} impossible"
            )));
        }
        let mut dedup = Vec::with_capacity(num_dedup);
        for _ in 0..num_dedup {
            let client = r.u64()?;
            let batch = r.u64()?;
            dedup.push((client, batch));
        }
        if dedup.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(WireError::Malformed(
                "dedup table not sorted by unique client id".into(),
            ));
        }
        if r.remaining() != 0 {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes in snapshot",
                r.remaining()
            )));
        }
        let snap = Snapshot {
            plan_hash,
            counts,
            group_sizes,
            dedup,
        };
        if snap.reports_ingested() as u64 != total {
            return Err(WireError::Malformed(format!(
                "header claims {total} reports, groups sum to {}",
                snap.reports_ingested()
            )));
        }
        Ok(snap)
    }

    /// Writes the snapshot with [`write_file_verified`]: the read-back
    /// must decode to exactly this snapshot, or the write is quarantined
    /// and the last good snapshot at `path` stays.
    ///
    /// `mangle` is the fault-injection hook: it sees the encoded bytes and
    /// may return a corrupted replacement (`None` = write faithfully). The
    /// production server passes `None`; the chaos harness wires it to its
    /// [`crate::fault::FaultSchedule`].
    pub fn write_verified(
        &self,
        path: &Path,
        mangle: Option<&mut MangleFn<'_>>,
    ) -> Result<(), WireError> {
        let bytes = self.encode();
        let len = bytes.len();
        write_file_verified(path, bytes, mangle, |read_back| {
            if Snapshot::decode(read_back)? == *self {
                Ok(())
            } else {
                Err(WireError::Malformed(
                    "snapshot read-back decoded to different state".into(),
                ))
            }
        })?;
        felip_obs::counter!("server.snapshot.writes", 1, "snapshots");
        felip_obs::counter!("server.snapshot.bytes", len, "bytes");
        Ok(())
    }

    /// Reads and validates a snapshot file.
    pub fn read(path: &Path) -> Result<Snapshot, WireError> {
        let bytes = fs::read(path)?;
        Snapshot::decode(&bytes)
    }

    /// Rebuilds a live [`Aggregator`] from this snapshot, verifying the
    /// plan fingerprint and all shapes first.
    pub fn restore(
        self,
        plan: Arc<CollectionPlan>,
        oracles: Arc<OracleSet>,
    ) -> Result<Aggregator, WireError> {
        let ours = plan.schema_hash();
        if self.plan_hash != ours {
            return Err(WireError::PlanMismatch {
                ours,
                theirs: self.plan_hash,
            });
        }
        Aggregator::restore(plan, oracles, self.counts, self.group_sizes)
            .map_err(|e| WireError::Malformed(e.to_string()))
    }
}

/// Opens a checksummed container (an FSNP snapshot or an FCLU cluster
/// state): checks the CRC trailer, then the shared header
/// `magic:u32 | version:u8 | reserved:[u8;3] | plan_hash:u64`. Returns
/// the plan hash and a reader positioned just after it.
pub fn open_container(
    bytes: &[u8],
    magic: u32,
    version: u8,
) -> Result<(u64, ByteReader<'_>), WireError> {
    let mut r = ByteReader::crc_checked(bytes)?;
    let got = r.u32()?;
    if got != magic {
        return Err(WireError::BadMagic(got));
    }
    let got = r.u8()?;
    if got != version {
        return Err(WireError::BadVersion(got));
    }
    if r.take(3)? != [0u8; 3] {
        return Err(WireError::Malformed("reserved bytes are nonzero".into()));
    }
    Ok((r.u64()?, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use felip::client::respond;
    use felip::config::FelipConfig;
    use felip_common::rng::seeded_rng;
    use felip_common::{Attribute, Schema};

    fn plan() -> Arc<CollectionPlan> {
        let schema = Schema::new(vec![
            Attribute::numerical("a", 32),
            Attribute::categorical("c", 3),
        ])
        .unwrap();
        Arc::new(CollectionPlan::build(&schema, 2_000, &FelipConfig::new(1.0), 5).unwrap())
    }

    fn collected(plan: &Arc<CollectionPlan>, users: std::ops::Range<usize>) -> Aggregator {
        let mut agg = Aggregator::new(Arc::clone(plan));
        for u in users {
            let mut rng = seeded_rng(u as u64);
            let r = respond(plan, u, &[(u % 32) as u32, (u % 3) as u32], &mut rng).unwrap();
            agg.ingest(&r).unwrap();
        }
        agg
    }

    #[test]
    fn snapshot_round_trips() {
        let plan = plan();
        let agg = collected(&plan, 0..500);
        let snap = Snapshot::capture(&agg, plan.schema_hash());
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.reports_ingested(), 500);
    }

    #[test]
    fn decode_rejects_any_bit_flip() {
        let plan = plan();
        let agg = collected(&plan, 0..50);
        let good = Snapshot::capture(&agg, plan.schema_hash()).encode();
        for i in (0..good.len()).step_by(17) {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            assert!(Snapshot::decode(&bad).is_err(), "flip at byte {i} accepted");
        }
        assert!(Snapshot::decode(&good[..good.len() / 2]).is_err());
        assert!(Snapshot::decode(&[]).is_err());
    }

    #[test]
    fn restore_is_bit_identical() {
        let plan = plan();
        let whole = collected(&plan, 0..800);

        // Stop after 300 users, snapshot, restore, continue with the rest.
        let first = collected(&plan, 0..300);
        let snap = Snapshot::capture(&first, plan.schema_hash());
        let mut resumed = snap.restore(Arc::clone(&plan), first.oracles()).unwrap();
        for u in 300..800 {
            let mut rng = seeded_rng(u as u64);
            let r = respond(&plan, u, &[(u % 32) as u32, (u % 3) as u32], &mut rng).unwrap();
            resumed.ingest(&r).unwrap();
        }
        assert_eq!(resumed.counts(), whole.counts());
        assert_eq!(resumed.group_sizes(), whole.group_sizes());
        let a = resumed.estimate().unwrap();
        let b = whole.estimate().unwrap();
        for (ga, gb) in a.grids().iter().zip(b.grids()) {
            assert_eq!(ga.freqs(), gb.freqs(), "estimates must be bit-identical");
        }
    }

    #[test]
    fn restore_rejects_foreign_plan() {
        let plan = plan();
        let agg = collected(&plan, 0..50);
        let snap = Snapshot::capture(&agg, plan.schema_hash() ^ 1);
        let err = snap.restore(Arc::clone(&plan), agg.oracles()).unwrap_err();
        assert!(matches!(err, WireError::PlanMismatch { .. }), "{err}");
    }

    #[test]
    fn atomic_write_and_read() {
        let plan = plan();
        let agg = collected(&plan, 0..100);
        let snap = Snapshot::capture(&agg, plan.schema_hash());
        let dir = std::env::temp_dir();
        let path = dir.join(format!("felip-snap-test-{}.bin", std::process::id()));
        snap.write_verified(&path, None).unwrap();
        let read = Snapshot::read(&path).unwrap();
        assert_eq!(read, snap);
        // Overwrite in place: the rename replaces the old file atomically.
        let later = Snapshot::capture(&collected(&plan, 0..200), plan.schema_hash());
        later.write_verified(&path, None).unwrap();
        assert_eq!(Snapshot::read(&path).unwrap().reports_ingested(), 200);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn dedup_table_round_trips_and_survives_restore_path() {
        let plan = plan();
        let agg = collected(&plan, 0..100);
        let snap =
            Snapshot::capture_with_dedup(&agg, plan.schema_hash(), vec![(7, 3), (2, 41), (19, 1)]);
        // Canonicalised on capture, preserved through encode/decode.
        assert_eq!(snap.dedup, vec![(2, 41), (7, 3), (19, 1)]);
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn decode_rejects_unsorted_or_duplicate_dedup_entries() {
        let plan = plan();
        let agg = collected(&plan, 0..20);
        let mut snap = Snapshot::capture(&agg, plan.schema_hash());
        snap.dedup = vec![(9, 1), (3, 2)]; // bypass capture's sort
        let err = Snapshot::decode(&snap.encode()).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err}");
        snap.dedup = vec![(3, 1), (3, 2)];
        assert!(Snapshot::decode(&snap.encode()).is_err());
    }

    #[test]
    fn write_verified_quarantines_torn_writes_and_keeps_last_good() {
        let plan = plan();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("felip-snap-verify-{}.bin", std::process::id()));
        let quarantine = path.with_extension("quarantine");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&quarantine);

        // A good write lands.
        let good = Snapshot::capture(&collected(&plan, 0..100), plan.schema_hash());
        good.write_verified(&path, None).unwrap();
        assert_eq!(Snapshot::read(&path).unwrap(), good);

        // A torn write is quarantined; the good file is untouched.
        let newer = Snapshot::capture(&collected(&plan, 0..200), plan.schema_hash());
        let mut mangle = |bytes: &[u8]| Some(bytes[..bytes.len() / 2].to_vec());
        let err = newer.write_verified(&path, Some(&mut mangle)).unwrap_err();
        assert!(
            matches!(err, WireError::Truncated { .. } | WireError::BadCrc { .. }),
            "{err}"
        );
        assert_eq!(Snapshot::read(&path).unwrap(), good, "last good clobbered");
        assert!(quarantine.exists(), "torn write not kept for post-mortem");
        assert!(Snapshot::read(&quarantine).is_err());

        // The retry (no fault this time) replaces the old snapshot.
        newer.write_verified(&path, None).unwrap();
        assert_eq!(Snapshot::read(&path).unwrap(), newer);
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(&quarantine);
    }
}
