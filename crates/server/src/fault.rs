//! Seeded, deterministic fault injection for the simulation harness.
//!
//! A [`FaultSchedule`] is a pure function of its seed and an internal draw
//! counter: the i-th decision of a run is `mix64(derive_seed(seed, i))`
//! reduced to the needed range, so replaying the same seed replays the
//! exact fault sequence — byte-for-byte, which is what makes a failing
//! chaos seed reproducible from the CLI
//! (`cargo run --release -p bench --bin chaos -- --seed N`).
//!
//! Faults model what real deployments see between a reporting client and
//! the aggregation server: lost and truncated frames, duplicated and
//! reordered delivery, bit corruption in transit, connection resets,
//! stalled reads, and torn snapshot writes (short write / ENOSPC). The
//! probabilities are expressed in parts-per-million per *logical frame
//! send*, so one knob scales chaos intensity without changing the stream
//! of decisions.

use std::collections::HashSet;

use felip_common::hash::mix64;
use felip_common::rng::derive_seed;

/// The injectable fault kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The frame is silently never delivered.
    Drop,
    /// Only a prefix of the frame's bytes arrives (torn write / early FIN).
    Truncate,
    /// The frame is delivered twice.
    Duplicate,
    /// The frame is delivered late, after frames sent later.
    Reorder,
    /// One byte of the frame is flipped in transit.
    Corrupt,
    /// The connection is reset; neither side can use it afterwards.
    Reset,
    /// Delivery stalls long enough to trip the receiver's deadline.
    Stall,
}

/// Per-fault-kind probabilities in parts per million, applied independently
/// per logical frame send (first match in declaration order wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// P(frame dropped), ppm.
    pub drop_ppm: u32,
    /// P(frame truncated), ppm.
    pub truncate_ppm: u32,
    /// P(frame duplicated), ppm.
    pub duplicate_ppm: u32,
    /// P(frame reordered), ppm.
    pub reorder_ppm: u32,
    /// P(one byte corrupted), ppm.
    pub corrupt_ppm: u32,
    /// P(connection reset at this send), ppm.
    pub reset_ppm: u32,
    /// P(delivery stalled past the read deadline), ppm.
    pub stall_ppm: u32,
    /// P(a snapshot write is torn/corrupted before it hits "disk"), ppm —
    /// drawn once per snapshot write, not per frame.
    pub snapshot_corrupt_ppm: u32,
}

impl FaultConfig {
    /// No faults at all (the sim then reduces to a lossless run).
    pub const NONE: FaultConfig = FaultConfig {
        drop_ppm: 0,
        truncate_ppm: 0,
        duplicate_ppm: 0,
        reorder_ppm: 0,
        corrupt_ppm: 0,
        reset_ppm: 0,
        stall_ppm: 0,
        snapshot_corrupt_ppm: 0,
    };

    /// Every fault kind enabled at a rate that makes multi-fault runs the
    /// norm on a few-hundred-frame simulation (~3% per frame overall,
    /// 20% per snapshot write).
    pub const ALL: FaultConfig = FaultConfig {
        drop_ppm: 6_000,
        truncate_ppm: 4_000,
        duplicate_ppm: 6_000,
        reorder_ppm: 6_000,
        corrupt_ppm: 4_000,
        reset_ppm: 3_000,
        stall_ppm: 3_000,
        snapshot_corrupt_ppm: 200_000,
    };

    /// Sum of the per-frame fault probabilities (snapshot corruption is
    /// drawn separately).
    fn total_frame_ppm(&self) -> u64 {
        self.drop_ppm as u64
            + self.truncate_ppm as u64
            + self.duplicate_ppm as u64
            + self.reorder_ppm as u64
            + self.corrupt_ppm as u64
            + self.reset_ppm as u64
            + self.stall_ppm as u64
    }
}

/// The deterministic decision stream: seed + draw counter in, faults out.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    seed: u64,
    draws: u64,
    config: FaultConfig,
    /// Faults injected so far, for reporting.
    pub injected: u64,
    /// Draw indices whose frame fault is *suppressed* (delivered normally
    /// instead). The draw stream is unshifted — every other decision stays
    /// put — which is what lets [`crate::simharness::minimize_failing_seed`]
    /// remove faults one at a time from a failing run.
    suppressed: HashSet<u64>,
    /// `(draw index, kind)` of every frame fault that actually fired, in
    /// firing order — the raw material of the schedule token.
    fired: Vec<(u64, FaultKind)>,
}

impl FaultSchedule {
    /// A schedule driven by `seed` with the given probabilities.
    pub fn new(seed: u64, config: FaultConfig) -> FaultSchedule {
        FaultSchedule::with_suppressed(seed, config, HashSet::new())
    }

    /// A schedule that replays `seed` but delivers the frame sends at the
    /// given draw indices normally even when the seed says to fault them.
    pub fn with_suppressed(seed: u64, config: FaultConfig, suppressed: HashSet<u64>) -> Self {
        FaultSchedule {
            seed,
            draws: 0,
            config,
            injected: 0,
            suppressed,
            fired: Vec::new(),
        }
    }

    /// The frame faults that fired this run, as `(draw index, kind)`.
    pub fn fired(&self) -> &[(u64, FaultKind)] {
        &self.fired
    }

    /// A printable token that replays this exact fault schedule:
    /// `seed=S` plus, when faults were suppressed during minimization,
    /// `;suppress=i,j,…`. Feed it back through
    /// [`FaultSchedule::parse_token`].
    pub fn token(&self) -> String {
        if self.suppressed.is_empty() {
            return format!("seed={}", self.seed);
        }
        let mut idx: Vec<u64> = self.suppressed.iter().copied().collect();
        idx.sort_unstable();
        let list: Vec<String> = idx.iter().map(u64::to_string).collect();
        format!("seed={};suppress={}", self.seed, list.join(","))
    }

    /// Parses a [`FaultSchedule::token`] back into `(seed, suppressed)`.
    pub fn parse_token(token: &str) -> Result<(u64, HashSet<u64>), String> {
        let mut seed = None;
        let mut suppressed = HashSet::new();
        for part in token.split(';').filter(|p| !p.is_empty()) {
            match part.split_once('=') {
                Some(("seed", v)) => {
                    seed = Some(v.parse().map_err(|e| format!("bad seed {v:?}: {e}"))?);
                }
                Some(("suppress", v)) => {
                    for i in v.split(',').filter(|s| !s.is_empty()) {
                        suppressed.insert(i.parse().map_err(|e| format!("bad index {i:?}: {e}"))?);
                    }
                }
                _ => return Err(format!("unrecognised token part {part:?}")),
            }
        }
        match seed {
            Some(s) => Ok((s, suppressed)),
            None => Err(format!("token {token:?} is missing seed=")),
        }
    }

    /// The next raw 64-bit decision value; advances the counter.
    fn draw(&mut self) -> u64 {
        let v = mix64(derive_seed(self.seed, self.draws));
        self.draws += 1;
        v
    }

    /// A uniform value in `0..bound` (`bound > 0`).
    pub fn draw_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.draw() % bound
    }

    /// Decides the fate of one logical frame send. `None` means the frame
    /// is delivered normally.
    pub fn next_frame_fault(&mut self) -> Option<FaultKind> {
        let total = self.config.total_frame_ppm();
        if total == 0 {
            // Still consume one draw so enabling a single fault kind does
            // not shift every other decision in the stream.
            self.draw();
            return None;
        }
        let idx = self.draws;
        let x = self.draw() % 1_000_000;
        let c = &self.config;
        let mut acc = 0u64;
        let table = [
            (FaultKind::Drop, c.drop_ppm),
            (FaultKind::Truncate, c.truncate_ppm),
            (FaultKind::Duplicate, c.duplicate_ppm),
            (FaultKind::Reorder, c.reorder_ppm),
            (FaultKind::Corrupt, c.corrupt_ppm),
            (FaultKind::Reset, c.reset_ppm),
            (FaultKind::Stall, c.stall_ppm),
        ];
        for (kind, ppm) in table {
            acc += ppm as u64;
            if x < acc {
                if self.suppressed.contains(&idx) {
                    // Minimization: this fault is switched off, the frame
                    // goes through; the draw already happened so the rest
                    // of the decision stream is untouched.
                    return None;
                }
                self.injected += 1;
                self.fired.push((idx, kind));
                return Some(kind);
            }
        }
        None
    }

    /// Whether this snapshot write is torn (drawn once per write).
    pub fn snapshot_write_corrupts(&mut self) -> bool {
        let x = self.draw() % 1_000_000;
        let hit = x < self.config.snapshot_corrupt_ppm as u64;
        if hit {
            self.injected += 1;
        }
        hit
    }

    /// Mangles snapshot bytes the way a torn write would: either truncate
    /// (short write / ENOSPC) or flip a byte (bit rot).
    pub fn mangle_snapshot(&mut self, bytes: &[u8]) -> Vec<u8> {
        if bytes.is_empty() {
            return Vec::new();
        }
        if self.draw().is_multiple_of(2) {
            let keep = self.draw_below(bytes.len() as u64) as usize;
            bytes[..keep].to_vec()
        } else {
            let mut out = bytes.to_vec();
            let idx = self.draw_below(out.len() as u64) as usize;
            let bit = 1u8 << (self.draw_below(8) as u8);
            out[idx] ^= bit;
            out
        }
    }

    /// Corrupts one byte of an in-flight frame.
    pub fn corrupt_frame(&mut self, bytes: &mut [u8]) {
        if bytes.is_empty() {
            return;
        }
        let idx = self.draw_below(bytes.len() as u64) as usize;
        let bit = 1u8 << (self.draw_below(8) as u8);
        bytes[idx] ^= bit;
    }

    /// Truncates an in-flight frame to a strict prefix.
    pub fn truncate_frame(&mut self, bytes: &[u8]) -> Vec<u8> {
        if bytes.is_empty() {
            return Vec::new();
        }
        let keep = self.draw_below(bytes.len() as u64) as usize;
        bytes[..keep].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_identical_decisions() {
        let mut a = FaultSchedule::new(7, FaultConfig::ALL);
        let mut b = FaultSchedule::new(7, FaultConfig::ALL);
        for _ in 0..10_000 {
            assert_eq!(a.next_frame_fault(), b.next_frame_fault());
        }
        assert_eq!(a.injected, b.injected);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultSchedule::new(7, FaultConfig::ALL);
        let mut b = FaultSchedule::new(8, FaultConfig::ALL);
        let va: Vec<_> = (0..1_000).map(|_| a.next_frame_fault()).collect();
        let vb: Vec<_> = (0..1_000).map(|_| b.next_frame_fault()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn all_fault_kinds_eventually_fire() {
        let mut s = FaultSchedule::new(3, FaultConfig::ALL);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200_000 {
            if let Some(k) = s.next_frame_fault() {
                seen.insert(k);
            }
        }
        for kind in [
            FaultKind::Drop,
            FaultKind::Truncate,
            FaultKind::Duplicate,
            FaultKind::Reorder,
            FaultKind::Corrupt,
            FaultKind::Reset,
            FaultKind::Stall,
        ] {
            assert!(seen.contains(&kind), "{kind:?} never fired");
        }
    }

    #[test]
    fn no_faults_config_never_fires_but_still_draws() {
        let mut s = FaultSchedule::new(1, FaultConfig::NONE);
        for _ in 0..1_000 {
            assert_eq!(s.next_frame_fault(), None);
        }
        assert_eq!(s.injected, 0);
        // The counter advanced: enabling faults later starts from the same
        // stream position as a run that had them all along.
        assert_eq!(s.draws, 1_000);
    }

    #[test]
    fn mangled_snapshots_differ_from_original() {
        let mut s = FaultSchedule::new(5, FaultConfig::ALL);
        let bytes: Vec<u8> = (0..128u8).collect();
        for _ in 0..32 {
            let m = s.mangle_snapshot(&bytes);
            assert_ne!(m, bytes, "mangle must change the bytes");
        }
    }

    #[test]
    fn corrupt_and_truncate_change_frames() {
        let mut s = FaultSchedule::new(9, FaultConfig::ALL);
        let original: Vec<u8> = (0..64u8).collect();
        let mut corrupted = original.clone();
        s.corrupt_frame(&mut corrupted);
        assert_ne!(corrupted, original);
        let truncated = s.truncate_frame(&original);
        assert!(truncated.len() < original.len());
    }
}
