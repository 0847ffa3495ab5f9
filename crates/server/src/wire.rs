//! The versioned, length-prefixed binary wire format (DESIGN.md §12.1).
//!
//! Every exchange between a client and the ingestion server is a *frame*:
//!
//! ```text
//! offset  size  field
//!      0     4  magic        "FELP", little-endian u32
//!      4     1  version      protocol version (currently 6)
//!      5     1  kind         frame kind discriminant
//!      6     2  reserved     must be zero
//!      8     4  payload_len  payload byte count, ≤ MAX_PAYLOAD
//!     12     8  plan_hash    CollectionPlan::schema_hash() of the sender
//!     20     …  payload      kind-specific body
//!      …     4  crc32        IEEE CRC-32 over header + payload
//! ```
//!
//! All integers are explicit little-endian; encoding and decoding use only
//! safe byte slicing (no transmutes; the one `unsafe` is the CRC-32
//! kernel's vector loads), and decoding untrusted
//! bytes returns a typed [`WireError`] — it never panics and never
//! allocates more than the declared (bounded) payload length.
//!
//! A `ReportBatch` payload carries a batch id and perturbed [`UserReport`]s:
//!
//! ```text
//! batch_id:u64  count:u32  then per report:
//!   group:u32  tag:u8
//!   tag 0 (GRR)  value:u32
//!   tag 1 (OLH)  seed:u64  value:u32
//! ```
//!
//! Both report encodings are fixed-size (9 and 17 bytes); any other tag is
//! [`WireError::Malformed`].
//!
//! Version 2 added end-to-end idempotency: `Hello` carries the client's
//! `client_id:u64`, every `ReportBatch` a per-client monotonically
//! increasing `batch_id:u64`, and `Ack`/`Retry` echo the batch id they
//! answer. The server deduplicates on `(client_id, batch_id)`, so a client
//! that re-sends after a lost `Ack` cannot double-count its reports, and a
//! client that receives a stale reply can discard it — the
//! exactly-once-or-rejected invariant the chaos harness asserts.
//!
//! Version 3 added the **STAT admin plane**: a `Stat` request (one `mode`
//! byte: full snapshot, delta rollup, or flight-recorder dump) answered by
//! a `StatReply` whose payload is the metrics JSON / flight JSONL.
//!
//! Version 4 added the **cluster tier** (DESIGN.md §16): an ingest node
//! streams epoch-numbered count snapshots to its aggregator via `Delta`
//! frames, answered by `DeltaAck`.
//!
//! Version 5 adds **online query serving** (DESIGN.md §17): a `Query`
//! frame asks the server for a λ-D frequency estimate computed from a
//! snapshot-consistent count read, answered by `QueryReply`. A `Query`
//! payload carries a client-chosen correlation id, a consistency mode
//! byte (cached vs. fresh-cut), and the predicate list:
//!
//! ```text
//! query_id:u64  mode:u8  count:u32  then per predicate:
//!   attr:u32  tag:u8
//!   tag 0 (range)  lo:u32  hi:u32
//!   tag 1 (set)    n:u32  value[n]:u32
//! ```
//!
//! `QueryReply` is fixed-size: `query_id:u64  answer_bits:u64 (f64 bit
//! pattern — bit-identical to the offline batch estimate on the same cut)
//! epoch:u64  head_epoch:u64  reports:u64`.
//!
//! Version 6 made every `Delta` the node's **cumulative** state: the
//! payload is the node's epoch followed by an FSNP snapshot
//! ([`Snapshot::encode`], DESIGN.md §12), and the node id is the one the
//! connection's `Hello` named. The aggregator replaces its view of that
//! node when the epoch is newer than the last one applied; otherwise the
//! delta is a duplicate. `DeltaAck` echoes the answered epoch and the
//! node's last applied one:
//!
//! ```text
//! Delta     epoch:u64  FSNP bytes
//! DeltaAck  epoch:u64  last_applied:u64
//! ```
//!
//! Every peer speaks exactly one version: decoders accept [`VERSION`] only
//! and reject anything else as [`WireError::BadVersion`], and every frame
//! is stamped with [`VERSION`]. There is no per-connection negotiation.

use std::fmt;
use std::io::{self, Read, Write};

use felip::client::UserReport;
use felip_common::{Predicate, PredicateTarget};
use felip_fo::Report;

use crate::snapshot::Snapshot;

/// Frame magic: the bytes `FELP` read as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"FELP");

/// Current protocol version (6: a `Delta` carries the node's cumulative
/// FSNP snapshot).
pub const VERSION: u8 = 6;

/// Fixed header size in bytes (everything before the payload).
pub const HEADER_LEN: usize = 20;

/// Trailing checksum size in bytes.
pub const TRAILER_LEN: usize = 4;

/// Upper bound on a frame's payload, rejecting absurd length prefixes
/// before any allocation happens (16 MiB ≫ any sane report batch).
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Little-endian reads for the decoders here. Every call site has already
/// bounds-checked its slice (`take`, an explicit length check), so these
/// copy through a fixed array rather than a fallible `try_into` — the
/// conversion itself cannot fail.
#[inline]
fn le_u16(b: &[u8]) -> u16 {
    let mut a = [0u8; 2];
    a.copy_from_slice(&b[..2]);
    u16::from_le_bytes(a)
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

/// Slice-by-16 lookup tables (compile-time generated). Table 0 is the
/// classic byte-at-a-time table; table `k` advances a byte through `k`
/// further zero bytes, letting the hot loop fold 16 input bytes per
/// iteration with 16 independent table loads instead of a 16-deep
/// load-xor dependency chain. Same polynomial, same answers — only the
/// evaluation order changes, and CRC-32 is linear over GF(2).
const CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// Folds `bytes` into a running CRC state (`state` is the *raw* register,
/// i.e. already complemented). The hot loop is the slice-by-16 kernel,
/// with a byte-at-a-time tail for the remainder.
#[inline]
fn crc32_fold(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(16);
    for ch in chunks.by_ref() {
        let a = le_u32(&ch[0..4]) ^ c;
        let b = le_u32(&ch[4..8]);
        let d = le_u32(&ch[8..12]);
        let e = le_u32(&ch[12..16]);
        c = CRC_TABLES[15][(a & 0xFF) as usize]
            ^ CRC_TABLES[14][((a >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[13][((a >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[12][(a >> 24) as usize]
            ^ CRC_TABLES[11][(b & 0xFF) as usize]
            ^ CRC_TABLES[10][((b >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[9][((b >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[8][(b >> 24) as usize]
            ^ CRC_TABLES[7][(d & 0xFF) as usize]
            ^ CRC_TABLES[6][((d >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((d >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(d >> 24) as usize]
            ^ CRC_TABLES[3][(e & 0xFF) as usize]
            ^ CRC_TABLES[2][((e >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((e >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(e >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Inputs at least this long take the carry-less-multiply kernel; below
/// it, the kernel's 64-byte load and final reduction cost more than the
/// slice-by-16 loop they replace.
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN_LEN: usize = 128;

/// IEEE CRC-32 (the zlib/Ethernet polynomial) over `bytes`.
///
/// The kernel is picked at runtime: on x86_64 hosts with `pclmulqdq` and
/// `sse4.1`, an input of at least [`CLMUL_MIN_LEN`] bytes folds its
/// 16-byte-aligned head with [`crc32_clmul`] and its tail with
/// [`crc32_fold`]; everywhere else [`crc32_fold`] does it all. Both
/// evaluate the same polynomial, so the value never depends on the host.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= CLMUL_MIN_LEN
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        let (head, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: the pclmulqdq and sse4.1 features were just detected at
        // runtime; `head` is a multiple of 16 bytes long.
        let c = unsafe { crc32_clmul(0xFFFF_FFFF, head) };
        return crc32_fold(c, tail) ^ 0xFFFF_FFFF;
    }
    crc32_fold(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Folding constants for the bit-reflected IEEE polynomial, from Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction" (Intel, 2009), as `(low, high)` lane pairs: `x^(k) mod P`
/// for the fold distances 4 × 128 bits (`FOLD_512`) and 128 bits
/// (`FOLD_128`), then the 64 → 32-bit step (`FOLD_64`).
#[cfg(target_arch = "x86_64")]
const FOLD_512: (i64, i64) = (0x01_5444_2bd4, 0x01_c6e4_1596);
#[cfg(target_arch = "x86_64")]
const FOLD_128: (i64, i64) = (0x01_7519_97d0, 0x00_ccaa_009e);
#[cfg(target_arch = "x86_64")]
const FOLD_64: i64 = 0x01_63cd_6124;
/// Barrett reduction pair: the reflected polynomial `P'` and
/// `μ = ⌊x^64 / P⌋`, reflected.
#[cfg(target_arch = "x86_64")]
const BARRETT: (i64, i64) = (0x01_db71_0641, 0x01_f701_1641);

/// Carry-less-multiply CRC-32: folds four 128-bit lanes 64 bytes at a
/// time, folds them into one, folds the remaining 16-byte blocks, then
/// reduces 128 → 64 → 32 bits with a Barrett reduction. Like
/// [`crc32_fold`], it takes and returns the raw (complemented) register.
///
/// # Safety
/// The host must support `pclmulqdq` and `sse4.1`. `bytes.len()` must be a
/// multiple of 16 for the value to be right; memory safety does not
/// depend on it.
// SAFETY: `unsafe fn` because of `#[target_feature]`: callers must have
// runtime-detected both features first; every load is bounds-checked.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn crc32_clmul(c: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;

    /// One unaligned 16-byte lane from the front of `b`.
    #[inline(always)]
    fn lane(b: &[u8]) -> __m128i {
        assert!(b.len() >= 16, "a lane needs 16 bytes");
        // SAFETY: the assert above keeps the 16-byte read inside `b`, and
        // `loadu` has no alignment requirement.
        unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
    }

    /// `x · k` carry-lessly, 128 bits ahead, xor the next lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    debug_assert!(bytes.len().is_multiple_of(16));
    if bytes.len() < 64 {
        return crc32_fold(c, bytes);
    }
    let (first, rest) = bytes.split_at(64);
    let mut blocks = rest.chunks_exact(64);
    let mut x1 = _mm_xor_si128(lane(first), _mm_cvtsi32_si128(c as i32));
    let mut x2 = lane(&first[16..]);
    let mut x3 = lane(&first[32..]);
    let mut x4 = lane(&first[48..]);
    let k = _mm_set_epi64x(FOLD_512.1, FOLD_512.0);
    for b in blocks.by_ref() {
        x1 = fold(x1, k, lane(b));
        x2 = fold(x2, k, lane(&b[16..]));
        x3 = fold(x3, k, lane(&b[32..]));
        x4 = fold(x4, k, lane(&b[48..]));
    }
    let k = _mm_set_epi64x(FOLD_128.1, FOLD_128.0);
    let mut x = fold(fold(fold(x1, k, x2), k, x3), k, x4);
    for b in blocks.remainder().chunks_exact(16) {
        x = fold(x, k, lane(b));
    }

    // 128 → 64 bits.
    let low32 = _mm_setr_epi32(!0, 0, !0, 0);
    x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, k));
    let k = _mm_set_epi64x(0, FOLD_64);
    x = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k),
        _mm_srli_si128::<4>(x),
    );
    // Barrett: 64 → 32 bits.
    let k = _mm_set_epi64x(BARRETT.1, BARRETT.0);
    let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), k);
    t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), k);
    _mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32
}

/// What kind of frame this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: opens a session; both sides verify `plan_hash`.
    Hello = 0,
    /// Client → server: a batch of perturbed user reports.
    ReportBatch = 1,
    /// Server → client: the previous frame was accepted.
    Ack = 2,
    /// Server → client: the ingest queue is full — back off and resend.
    Retry = 3,
    /// Either direction: protocol error; payload is a UTF-8 message.
    Error = 4,
    /// Client → server (v3): request live telemetry; payload is one
    /// [`StatMode`] byte. Exempt from plan-hash validation — an operator
    /// polling a server need not know its collection plan.
    Stat = 5,
    /// Server → client (v3): the telemetry answer; payload is metrics
    /// JSON (full/delta modes) or flight-recorder JSONL (flight mode).
    StatReply = 6,
    /// Ingest node → aggregator (v4): the node's cumulative counts at one
    /// consistent cut, stamped with an epoch (see [`encode_delta`]).
    Delta = 7,
    /// Aggregator → ingest node (v4): the epoch answered and the node's
    /// last applied one (see [`encode_delta_ack`]).
    DeltaAck = 8,
    /// Client → server (v5): a λ-D frequency query against the live
    /// collection; payload is a [`QueryRequest`].
    Query = 9,
    /// Server → client (v5): the query's answer plus the epoch it was
    /// served from; payload is a [`QueryAnswer`].
    QueryReply = 10,
}

impl FrameKind {
    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(FrameKind::Hello),
            1 => Ok(FrameKind::ReportBatch),
            2 => Ok(FrameKind::Ack),
            3 => Ok(FrameKind::Retry),
            4 => Ok(FrameKind::Error),
            5 => Ok(FrameKind::Stat),
            6 => Ok(FrameKind::StatReply),
            7 => Ok(FrameKind::Delta),
            8 => Ok(FrameKind::DeltaAck),
            9 => Ok(FrameKind::Query),
            10 => Ok(FrameKind::QueryReply),
            other => Err(WireError::BadKind(other)),
        }
    }
}

/// What a `Stat` frame asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatMode {
    /// A full snapshot of every registered metric.
    Full = 0,
    /// The delta since the previous delta-mode request on this server.
    Delta = 1,
    /// A flight-recorder dump (JSONL) of recent protocol events.
    Flight = 2,
}

impl StatMode {
    /// Parses the mode discriminant.
    pub fn from_u8(v: u8) -> Result<StatMode, WireError> {
        match v {
            0 => Ok(StatMode::Full),
            1 => Ok(StatMode::Delta),
            2 => Ok(StatMode::Flight),
            other => Err(WireError::Malformed(format!("unknown stat mode {other}"))),
        }
    }
}

/// Serialises a `Stat` payload: the single mode byte.
pub fn encode_stat(mode: StatMode) -> Vec<u8> {
    vec![mode as u8]
}

/// Parses a `Stat` payload back into its mode.
pub fn decode_stat(payload: &[u8]) -> Result<StatMode, WireError> {
    let mut r = ByteReader::new(payload);
    let mode = StatMode::from_u8(r.u8()?)?;
    if r.remaining() != 0 {
        return Err(WireError::Malformed("oversized stat payload".into()));
    }
    Ok(mode)
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame kind.
    pub kind: FrameKind,
    /// The sender's [`felip::plan::CollectionPlan::schema_hash`].
    pub plan_hash: u64,
    /// Kind-specific body.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A payload-less frame of the given kind.
    pub fn control(kind: FrameKind, plan_hash: u64) -> Frame {
        Frame {
            kind,
            plan_hash,
            payload: Vec::new(),
        }
    }

    /// An `Error` frame carrying a human-readable message.
    pub fn error(plan_hash: u64, message: &str) -> Frame {
        Frame {
            kind: FrameKind::Error,
            plan_hash,
            payload: message.as_bytes().to_vec(),
        }
    }

    /// Serialises the frame: header, payload, CRC-32 trailer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + self.payload.len() + TRAILER_LEN);
        append_frame(&mut buf, self.kind, self.plan_hash, &self.payload);
        buf
    }

    /// Appends the frame's wire bytes to `out` (the allocation-reusing twin
    /// of [`Frame::encode`] for hot paths that batch many frames into one
    /// buffer).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        append_frame(out, self.kind, self.plan_hash, &self.payload);
    }

    /// Decodes exactly one frame from `buf`, rejecting trailing bytes.
    ///
    /// This is the owned, whole-buffer form of [`FrameView::decode_prefix`],
    /// used by tests and the sim harness, which deliver framed bytes.
    pub fn decode(buf: &[u8]) -> Result<Frame, WireError> {
        match FrameView::decode_prefix(buf)? {
            Some((view, used)) if used == buf.len() => Ok(view.to_frame()),
            Some((_, used)) => Err(WireError::Malformed(format!(
                "{} trailing bytes after frame",
                buf.len() - used
            ))),
            None => Err(WireError::Truncated {
                have: buf.len(),
                need: declared_len(buf),
            }),
        }
    }
}

/// Appends one whole frame (header, payload, CRC trailer) to `out`.
///
/// This is the single encoder every path funnels through; the CRC is
/// computed over the bytes just written, so header and payload are never
/// assembled in a scratch buffer first.
pub fn append_frame(out: &mut Vec<u8>, kind: FrameKind, plan_hash: u64, payload: &[u8]) {
    let start = out.len();
    out.reserve(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&plan_hash.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// A decoded frame whose payload *borrows* the receive buffer — the
/// zero-copy twin of [`Frame`] for the reactor's batched decode path,
/// where frames are parsed in place out of a connection's read buffer and
/// the payload never needs to outlive the wakeup that decoded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// The frame kind.
    pub kind: FrameKind,
    /// The sender's plan schema hash.
    pub plan_hash: u64,
    /// Kind-specific body, borrowed from the receive buffer.
    pub payload: &'a [u8],
}

impl<'a> FrameView<'a> {
    /// Attempts to decode one frame from the *front* of `buf` without
    /// copying anything.
    ///
    /// Returns `Ok(Some((view, consumed)))` when a complete checksummed
    /// frame starts at `buf[0]`, `Ok(None)` when more bytes are needed
    /// (partial frame — keep reading), and `Err` when the stream is
    /// garbled (bad magic/version/CRC — fatal for the connection).
    pub fn decode_prefix(buf: &'a [u8]) -> Result<Option<(FrameView<'a>, usize)>, WireError> {
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let head = parse_header(&buf[..HEADER_LEN])?;
        let total = HEADER_LEN + head.payload_len as usize + TRAILER_LEN;
        if buf.len() < total {
            return Ok(None);
        }
        let expected = crc32(&buf[..total - TRAILER_LEN]);
        let actual = le_u32(&buf[total - TRAILER_LEN..total]);
        if expected != actual {
            return Err(WireError::BadCrc { expected, actual });
        }
        Ok(Some((
            FrameView {
                kind: head.kind,
                plan_hash: head.plan_hash,
                payload: &buf[HEADER_LEN..HEADER_LEN + head.payload_len as usize],
            },
            total,
        )))
    }

    /// Copies the view into an owned [`Frame`].
    pub fn to_frame(&self) -> Frame {
        Frame {
            kind: self.kind,
            plan_hash: self.plan_hash,
            payload: self.payload.to_vec(),
        }
    }
}

impl Frame {
    /// Borrows the frame as a [`FrameView`].
    pub fn view(&self) -> FrameView<'_> {
        FrameView {
            kind: self.kind,
            plan_hash: self.plan_hash,
            payload: &self.payload,
        }
    }
}

/// A parsed fixed-size frame header.
struct ParsedHeader {
    kind: FrameKind,
    plan_hash: u64,
    payload_len: u32,
}

/// Parses a fixed-size header. Accepts [`VERSION`] only — the CRC trailer
/// covers the version byte, so a corrupted version still fails the
/// checksum.
fn parse_header(h: &[u8]) -> Result<ParsedHeader, WireError> {
    debug_assert_eq!(h.len(), HEADER_LEN);
    let magic = le_u32(&h[0..4]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if h[4] != VERSION {
        return Err(WireError::BadVersion(h[4]));
    }
    let kind = FrameKind::from_u8(h[5])?;
    let reserved = le_u16(&h[6..8]);
    if reserved != 0 {
        return Err(WireError::Malformed(format!(
            "reserved header bytes are {reserved:#06x}, expected zero"
        )));
    }
    let payload_len = le_u32(&h[8..12]);
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::TooLarge(payload_len));
    }
    let plan_hash = le_u64(&h[12..20]);
    Ok(ParsedHeader {
        kind,
        plan_hash,
        payload_len,
    })
}

/// Writes one frame to `w` (a single buffered `write_all`).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.encode())?;
    w.flush()
}

/// Reads one frame from `r`.
///
/// Returns `Ok(None)` on a clean EOF *between* frames; EOF mid-frame is an
/// error (a truncated stream, e.g. a client killed mid-write). The header
/// is checked by [`FrameView::decode_prefix`] before its length is trusted
/// to size the read, and the whole frame by it once read.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, WireError> {
    let mut buf = vec![0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended mid-header",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    // A lone header is never a whole frame: this only checks it.
    FrameView::decode_prefix(&buf)?;
    let need = declared_len(&buf);
    buf.resize(need, 0);
    r.read_exact(&mut buf[HEADER_LEN..])
        .map_err(WireError::Io)?;
    match FrameView::decode_prefix(&buf)? {
        Some((view, _)) => Ok(Some(view.to_frame())),
        None => Err(WireError::Truncated {
            have: buf.len(),
            need,
        }),
    }
}

/// The whole frame's length as the header at the front of `buf` declares
/// it; the shortest possible frame while the header is incomplete.
fn declared_len(buf: &[u8]) -> usize {
    let payload = if buf.len() < HEADER_LEN {
        0
    } else {
        le_u32(&buf[8..12]) as usize
    };
    HEADER_LEN + payload + TRAILER_LEN
}

/// Serialises a batch of user reports into a `ReportBatch` payload.
pub fn encode_reports(reports: &[UserReport]) -> Result<Vec<u8>, WireError> {
    if reports.len() > u32::MAX as usize {
        return Err(WireError::Malformed("batch exceeds u32 count".into()));
    }
    let mut buf = Vec::with_capacity(4 + reports.len() * 16);
    buf.extend_from_slice(&(reports.len() as u32).to_le_bytes());
    for r in reports {
        let group = u32::try_from(r.group)
            .map_err(|_| WireError::Malformed(format!("group {} exceeds u32", r.group)))?;
        buf.extend_from_slice(&group.to_le_bytes());
        match r.report {
            Report::Grr(v) => {
                buf.push(0);
                buf.extend_from_slice(&v.to_le_bytes());
            }
            Report::Olh { seed, value } => {
                buf.push(1);
                buf.extend_from_slice(&seed.to_le_bytes());
                buf.extend_from_slice(&value.to_le_bytes());
            }
        }
    }
    Ok(buf)
}

/// Parses a `ReportBatch` payload back into user reports.
///
/// Every read is bounds-checked against the remaining payload, so hostile
/// length prefixes cannot trigger large allocations or panics.
pub fn decode_reports(payload: &[u8]) -> Result<Vec<UserReport>, WireError> {
    let mut r = ByteReader::new(payload);
    let count = r.u32()? as usize;
    // Smallest report encoding is 9 bytes (group + tag + u32 body); an
    // impossible count is rejected before reserving capacity for it.
    if count > payload.len() / 9 {
        return Err(WireError::Malformed(format!(
            "report count {count} impossible in a {}-byte payload",
            payload.len()
        )));
    }
    let mut reports = Vec::with_capacity(count);
    for _ in 0..count {
        let group = r.u32()? as usize;
        let report = match r.u8()? {
            0 => Report::Grr(r.u32()?),
            1 => Report::Olh {
                seed: r.u64()?,
                value: r.u32()?,
            },
            tag => return Err(WireError::Malformed(format!("unknown report tag {tag}"))),
        };
        reports.push(UserReport { group, report });
    }
    if r.remaining() != 0 {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after {count} reports",
            r.remaining()
        )));
    }
    Ok(reports)
}

/// Serialises a `Hello` payload carrying the client's id.
pub fn encode_hello(client_id: u64) -> Vec<u8> {
    client_id.to_le_bytes().to_vec()
}

/// Parses a `Hello` payload back into the client id.
pub fn decode_hello(payload: &[u8]) -> Result<u64, WireError> {
    let mut r = ByteReader::new(payload);
    let id = r.u64()?;
    if r.remaining() != 0 {
        return Err(WireError::Malformed("oversized hello payload".into()));
    }
    Ok(id)
}

/// Serialises a `ReportBatch` payload: the batch id followed by the
/// [`encode_reports`] body.
pub fn encode_batch(batch_id: u64, reports: &[UserReport]) -> Result<Vec<u8>, WireError> {
    let body = encode_reports(reports)?;
    let mut buf = Vec::with_capacity(8 + body.len());
    buf.extend_from_slice(&batch_id.to_le_bytes());
    buf.extend_from_slice(&body);
    Ok(buf)
}

/// Parses a `ReportBatch` payload into its batch id and reports.
pub fn decode_batch(payload: &[u8]) -> Result<(u64, Vec<UserReport>), WireError> {
    let mut r = ByteReader::new(payload);
    let batch_id = r.u64()?;
    let reports = decode_reports(&payload[8..])?;
    Ok((batch_id, reports))
}

/// Serialises an `Ack` payload: the batch id it answers and the number of
/// accepted reports (0 for the Hello ack, whose batch id is 0 too).
pub fn encode_ack(batch_id: u64, accepted: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12);
    buf.extend_from_slice(&batch_id.to_le_bytes());
    buf.extend_from_slice(&accepted.to_le_bytes());
    buf
}

/// Parses an `Ack` payload into `(batch_id, accepted)`.
pub fn decode_ack(payload: &[u8]) -> Result<(u64, u32), WireError> {
    let mut r = ByteReader::new(payload);
    let batch_id = r.u64()?;
    let n = r.u32()?;
    if r.remaining() != 0 {
        return Err(WireError::Malformed("oversized ack payload".into()));
    }
    Ok((batch_id, n))
}

/// Serialises a `Retry` payload carrying the batch id to resend.
pub fn encode_retry(batch_id: u64) -> Vec<u8> {
    batch_id.to_le_bytes().to_vec()
}

/// Parses a `Retry` payload back into the batch id.
pub fn decode_retry(payload: &[u8]) -> Result<u64, WireError> {
    let mut r = ByteReader::new(payload);
    let id = r.u64()?;
    if r.remaining() != 0 {
        return Err(WireError::Malformed("oversized retry payload".into()));
    }
    Ok(id)
}

/// Serialises a `Delta` payload: `epoch` then the node's cumulative state
/// as FSNP bytes.
pub fn encode_delta(epoch: u64, snapshot: &Snapshot) -> Vec<u8> {
    let mut buf = epoch.to_le_bytes().to_vec();
    buf.extend_from_slice(&snapshot.encode());
    buf
}

/// Parses a `Delta` payload into `(epoch, snapshot)`; the snapshot body
/// goes through [`Snapshot::decode`], checksum and all.
pub fn decode_delta(payload: &[u8]) -> Result<(u64, Snapshot), WireError> {
    let mut r = ByteReader::new(payload);
    let epoch = r.u64()?;
    Ok((epoch, Snapshot::decode(r.take(r.remaining())?)?))
}

/// Serialises a `DeltaAck` payload: the epoch it answers and the node's
/// highest applied epoch.
pub fn encode_delta_ack(epoch: u64, last_applied: u64) -> Vec<u8> {
    let mut buf = epoch.to_le_bytes().to_vec();
    buf.extend_from_slice(&last_applied.to_le_bytes());
    buf
}

/// Parses a `DeltaAck` payload into `(epoch, last_applied)`.
pub fn decode_delta_ack(payload: &[u8]) -> Result<(u64, u64), WireError> {
    let mut r = ByteReader::new(payload);
    let epoch = r.u64()?;
    let last_applied = r.u64()?;
    if r.remaining() != 0 {
        return Err(WireError::Malformed("oversized delta-ack payload".into()));
    }
    Ok((epoch, last_applied))
}

/// How a `Query` wants its consistency handled (v5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// Serve from the cached epoch when the ingest head has not moved
    /// since it was built; otherwise take a fresh consistent cut first.
    Cached = 0,
    /// Always take a fresh consistent cut before answering, even when the
    /// cache looks warm.
    Fresh = 1,
}

impl QueryMode {
    /// Parses the mode discriminant.
    pub fn from_u8(v: u8) -> Result<QueryMode, WireError> {
        match v {
            0 => Ok(QueryMode::Cached),
            1 => Ok(QueryMode::Fresh),
            other => Err(WireError::Malformed(format!("unknown query mode {other}"))),
        }
    }
}

/// A decoded `Query` payload: a client-chosen correlation id, the
/// consistency mode, and the λ-D predicate list (validated against the
/// plan's schema server-side via [`felip_common::Query::new`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// Echoed verbatim in the reply so pipelined clients can correlate.
    pub query_id: u64,
    /// Cached vs. fresh-cut consistency.
    pub mode: QueryMode,
    /// The query's predicates, one per attribute, sorted by attribute.
    pub predicates: Vec<Predicate>,
}

/// A decoded `QueryReply` payload: the answer and the epoch bookkeeping
/// that lets the client compute staleness (`head_epoch - epoch`).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// The request's correlation id, echoed.
    pub query_id: u64,
    /// The estimated frequency in `[0, 1]` — shipped as the exact `f64`
    /// bit pattern, bit-identical to the offline batch estimate on the
    /// cut it was served from.
    pub answer: f64,
    /// The cache epoch the answer was computed at.
    pub epoch: u64,
    /// The ingest head's epoch at answer time (`>= epoch`).
    pub head_epoch: u64,
    /// Reports behind the answer's estimator.
    pub reports: u64,
}

/// Serialises a `Query` payload.
pub fn encode_query(req: &QueryRequest) -> Result<Vec<u8>, WireError> {
    let count = u32::try_from(req.predicates.len())
        .map_err(|_| WireError::Malformed("predicate count exceeds u32".into()))?;
    let mut buf = Vec::with_capacity(13 + req.predicates.len() * 13);
    buf.extend_from_slice(&req.query_id.to_le_bytes());
    buf.push(req.mode as u8);
    buf.extend_from_slice(&count.to_le_bytes());
    for p in &req.predicates {
        let attr = u32::try_from(p.attr)
            .map_err(|_| WireError::Malformed("predicate attr exceeds u32".into()))?;
        buf.extend_from_slice(&attr.to_le_bytes());
        match &p.target {
            PredicateTarget::Range { lo, hi } => {
                buf.push(0);
                buf.extend_from_slice(&lo.to_le_bytes());
                buf.extend_from_slice(&hi.to_le_bytes());
            }
            PredicateTarget::Set(values) => {
                buf.push(1);
                let n = u32::try_from(values.len())
                    .map_err(|_| WireError::Malformed("set size exceeds u32".into()))?;
                buf.extend_from_slice(&n.to_le_bytes());
                for v in values {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }
    Ok(buf)
}

/// Parses a `Query` payload. Every length prefix is validated against the
/// remaining bytes before any allocation, same discipline as
/// [`decode_reports`].
pub fn decode_query(payload: &[u8]) -> Result<QueryRequest, WireError> {
    let mut r = ByteReader::new(payload);
    let query_id = r.u64()?;
    let mode = QueryMode::from_u8(r.u8()?)?;
    let count = r.u32()? as usize;
    // A predicate costs at least 9 bytes (attr + tag + smallest body).
    if count > r.remaining() / 9 {
        return Err(WireError::Malformed(format!(
            "predicate count {count} impossible in remaining payload"
        )));
    }
    let mut predicates = Vec::with_capacity(count);
    for _ in 0..count {
        let attr = r.u32()? as usize;
        let target = match r.u8()? {
            0 => PredicateTarget::Range {
                lo: r.u32()?,
                hi: r.u32()?,
            },
            1 => {
                let n = r.u32()? as usize;
                if n > r.remaining() / 4 {
                    return Err(WireError::Malformed(format!(
                        "set size {n} exceeds remaining payload"
                    )));
                }
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(r.u32()?);
                }
                PredicateTarget::Set(values)
            }
            other => {
                return Err(WireError::Malformed(format!(
                    "unknown predicate tag {other}"
                )))
            }
        };
        predicates.push(Predicate { attr, target });
    }
    if r.remaining() != 0 {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after query",
            r.remaining()
        )));
    }
    Ok(QueryRequest {
        query_id,
        mode,
        predicates,
    })
}

/// Serialises a `QueryReply` payload (fixed 40 bytes).
pub fn encode_query_reply(ans: &QueryAnswer) -> Vec<u8> {
    let mut buf = Vec::with_capacity(40);
    buf.extend_from_slice(&ans.query_id.to_le_bytes());
    buf.extend_from_slice(&ans.answer.to_bits().to_le_bytes());
    buf.extend_from_slice(&ans.epoch.to_le_bytes());
    buf.extend_from_slice(&ans.head_epoch.to_le_bytes());
    buf.extend_from_slice(&ans.reports.to_le_bytes());
    buf
}

/// Parses a `QueryReply` payload.
pub fn decode_query_reply(payload: &[u8]) -> Result<QueryAnswer, WireError> {
    let mut r = ByteReader::new(payload);
    let query_id = r.u64()?;
    let answer = f64::from_bits(r.u64()?);
    let epoch = r.u64()?;
    let head_epoch = r.u64()?;
    let reports = r.u64()?;
    if r.remaining() != 0 {
        return Err(WireError::Malformed("oversized query-reply payload".into()));
    }
    Ok(QueryAnswer {
        query_id,
        answer,
        epoch,
        head_epoch,
        reports,
    })
}

/// Bounds-checked little-endian reader over a byte slice: the one reader
/// every payload, FSNP snapshot and FCLU container decoder uses. A read
/// past the end is [`WireError::Truncated`], never a panic.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// A reader over the body of a checksummed container: `bytes` minus
    /// its trailing `crc32:u32`, which must match the body.
    pub fn crc_checked(bytes: &'a [u8]) -> Result<Self, WireError> {
        let Some(body_len) = bytes.len().checked_sub(TRAILER_LEN) else {
            return Err(WireError::Truncated {
                have: bytes.len(),
                need: TRAILER_LEN,
            });
        };
        let (body, trailer) = bytes.split_at(body_len);
        let expected = crc32(body);
        let actual = le_u32(trailer);
        if expected != actual {
            return Err(WireError::BadCrc { expected, actual });
        }
        Ok(ByteReader::new(body))
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                have: self.remaining(),
                need: n,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(le_u32(self.take(4)?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(le_u64(self.take(8)?))
    }
}

/// Everything that can go wrong speaking the wire protocol (or reading a
/// snapshot, which shares the checksummed-binary discipline).
#[derive(Debug)]
pub enum WireError {
    /// Underlying transport failure.
    Io(io::Error),
    /// The stream does not start with the FELP magic.
    BadMagic(u32),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame-kind discriminant.
    BadKind(u8),
    /// Checksum mismatch: the frame was corrupted in transit or on disk.
    BadCrc {
        /// CRC computed over the received bytes.
        expected: u32,
        /// CRC carried by the frame.
        actual: u32,
    },
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(u32),
    /// Fewer bytes than a field or frame requires.
    Truncated {
        /// Bytes available.
        have: usize,
        /// Bytes needed.
        need: usize,
    },
    /// Structurally invalid contents (bad tag, trailing bytes, ...).
    Malformed(String),
    /// The peer (or snapshot) was built for a different `CollectionPlan`.
    PlanMismatch {
        /// Our plan's schema hash.
        ours: u64,
        /// The peer's schema hash.
        theirs: u64,
    },
    /// The server rejected a frame; carries its error message.
    Rejected(String),
    /// The client's bounded retry budget ran out before a batch was acked.
    BudgetExhausted {
        /// Attempts made (connects + sends) before giving up.
        attempts: u32,
        /// Why the last attempt failed: the connect or io error, the
        /// server's error reply, or its backpressure.
        last: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadCrc { expected, actual } => {
                write!(
                    f,
                    "crc mismatch: computed {expected:#010x}, frame carries {actual:#010x}"
                )
            }
            WireError::TooLarge(n) => write!(f, "payload of {n} bytes exceeds limit"),
            WireError::Truncated { have, need } => {
                write!(f, "truncated: have {have} bytes, need {need}")
            }
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::PlanMismatch { ours, theirs } => write!(
                f,
                "collection plan mismatch: ours {ours:#018x}, peer {theirs:#018x}"
            ),
            WireError::Rejected(m) => write!(f, "rejected by server: {m}"),
            WireError::BudgetExhausted { attempts, last } => {
                write!(
                    f,
                    "retry budget exhausted after {attempts} attempts; last failure: {last}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slice_by_16_agrees_with_bytewise_at_every_length() {
        // The fallback kernel, called directly (on every host): every
        // remainder length through the 16-byte kernel boundary and past
        // the 128-byte carry-less-multiply threshold, against a reference
        // byte-at-a-time implementation.
        let data: Vec<u8> = (0..256u32)
            .map(|i| (i.wrapping_mul(167) ^ 91) as u8)
            .collect();
        for len in 0..data.len() {
            let bytes = &data[..len];
            let mut reference = 0xFFFF_FFFFu32;
            for &b in bytes {
                reference =
                    CRC_TABLES[0][((reference ^ b as u32) & 0xFF) as usize] ^ (reference >> 8);
            }
            assert_eq!(crc32_fold(0xFFFF_FFFF, bytes), reference, "length {len}");
        }
    }

    #[test]
    fn dispatched_crc32_equals_the_fallback_at_every_length_and_offset() {
        // Whatever kernel this host dispatches to must equal `crc32_fold`:
        // every length 0..=1024 (both sides of the carry-less-multiply
        // threshold, every 16-byte tail), one ingest frame's worth
        // (68 036 B) and a page, each at every start offset 0..16 so
        // unaligned loads are covered.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..68_036 + 16)
            .map(|_| {
                x = felip_common::hash::mix64(x);
                x as u8
            })
            .collect();
        let lengths = (0..=1024).chain([4096, 68_036]);
        for len in lengths {
            for off in 0..16 {
                let bytes = &data[off..off + len];
                let fallback = crc32_fold(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF;
                assert_eq!(crc32(bytes), fallback, "length {len}, offset {off}");
            }
        }
    }

    #[test]
    fn decode_prefix_handles_partial_and_batched_frames() {
        let f1 = Frame {
            kind: FrameKind::ReportBatch,
            plan_hash: 7,
            payload: vec![9; 33],
        };
        let f2 = Frame::control(FrameKind::Ack, 7);
        let mut bytes = f1.encode();
        f2.encode_into(&mut bytes);

        // Every strict prefix of the first frame decodes to "need more".
        let first_len = f1.encode().len();
        for cut in 0..first_len {
            assert!(
                matches!(FrameView::decode_prefix(&bytes[..cut]), Ok(None)),
                "cut at {cut} should want more bytes"
            );
        }
        // The full buffer yields both frames back to back, zero-copy.
        let (v1, used1) = FrameView::decode_prefix(&bytes).unwrap().unwrap();
        assert_eq!(v1.to_frame(), f1);
        assert_eq!(used1, first_len);
        let (v2, used2) = FrameView::decode_prefix(&bytes[used1..]).unwrap().unwrap();
        assert_eq!(v2.to_frame(), f2);
        assert_eq!(used1 + used2, bytes.len());
    }

    #[test]
    fn decode_prefix_rejects_corruption_but_not_truncation() {
        let frame = Frame {
            kind: FrameKind::ReportBatch,
            plan_hash: 3,
            payload: vec![1, 2, 3],
        };
        let good = frame.encode();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            // A flipped byte is either an immediate framing error or (when
            // it inflates payload_len) an honest "need more bytes" — never
            // a successfully decoded frame.
            match FrameView::decode_prefix(&bad) {
                Err(_) | Ok(None) => {}
                Ok(Some(_)) => panic!("flip at byte {i} accepted"),
            }
        }
    }

    #[test]
    fn encode_into_appends_identically_to_encode() {
        let frame = Frame {
            kind: FrameKind::Retry,
            plan_hash: 99,
            payload: vec![5; 10],
        };
        let mut appended = vec![0xAB, 0xCD]; // pre-existing bytes survive
        frame.encode_into(&mut appended);
        assert_eq!(&appended[..2], &[0xAB, 0xCD]);
        assert_eq!(&appended[2..], frame.encode().as_slice());
    }

    #[test]
    fn frame_round_trips() {
        let frame = Frame {
            kind: FrameKind::ReportBatch,
            plan_hash: 0xDEAD_BEEF_F00D_CAFE,
            payload: vec![1, 2, 3, 4, 5],
        };
        let bytes = frame.encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), frame);
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(frame));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn decode_rejects_corruption() {
        let frame = Frame::control(FrameKind::Hello, 7);
        let good = frame.encode();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(Frame::decode(&bad).is_err(), "flip at byte {i} accepted");
        }
        assert!(matches!(
            Frame::decode(&good[..good.len() - 1]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn decode_rejects_absurd_length() {
        let mut bytes = Frame::control(FrameKind::Hello, 0).encode();
        // Inflate the declared payload length beyond the cap; the length
        // check must fire before any allocation or CRC work.
        bytes[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(Frame::decode(&bytes), Err(WireError::TooLarge(_))));
    }

    #[test]
    fn reports_round_trip() {
        let reports = vec![
            UserReport {
                group: 0,
                report: Report::Grr(42),
            },
            UserReport {
                group: 3,
                report: Report::Olh {
                    seed: u64::MAX,
                    value: 5,
                },
            },
        ];
        let payload = encode_reports(&reports).unwrap();
        assert_eq!(payload.len(), 4 + 9 + 17);
        assert_eq!(decode_reports(&payload).unwrap(), reports);
    }

    #[test]
    fn report_decode_rejects_bad_tags_and_counts() {
        let mut payload = encode_reports(&[UserReport {
            group: 0,
            report: Report::Grr(1),
        }])
        .unwrap();
        payload[8] = 9; // tag byte of the first report
        assert!(decode_reports(&payload).is_err());

        // Tag 2, the retired unary bit vector, with a well-formed one-word
        // body, is no report either.
        let mut unary = Vec::new();
        unary.extend_from_slice(&1u32.to_le_bytes()); // count
        unary.extend_from_slice(&0u32.to_le_bytes()); // group
        unary.push(2);
        unary.extend_from_slice(&1u32.to_le_bytes()); // word count
        unary.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_reports(&unary),
            Err(WireError::Malformed(msg)) if msg.contains("tag 2")
        ));

        // Count claims more reports than the payload can possibly hold.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_reports(&huge).is_err());
    }

    #[test]
    fn ack_round_trips() {
        assert_eq!(decode_ack(&encode_ack(9, 12345)).unwrap(), (9, 12345));
        assert!(decode_ack(&[1, 2]).is_err());
        let mut oversized = encode_ack(1, 2);
        oversized.push(0);
        assert!(decode_ack(&oversized).is_err());
    }

    #[test]
    fn hello_and_retry_round_trip() {
        assert_eq!(decode_hello(&encode_hello(u64::MAX)).unwrap(), u64::MAX);
        assert!(decode_hello(&[0; 4]).is_err());
        assert_eq!(decode_retry(&encode_retry(77)).unwrap(), 77);
        assert!(decode_retry(&[0; 12]).is_err());
    }

    #[test]
    fn stat_round_trips() {
        for mode in [StatMode::Full, StatMode::Delta, StatMode::Flight] {
            assert_eq!(decode_stat(&encode_stat(mode)).unwrap(), mode);
        }
        assert!(decode_stat(&[]).is_err());
        assert!(decode_stat(&[9]).is_err());
        assert!(decode_stat(&[0, 0]).is_err());
        assert!(matches!(FrameKind::from_u8(5), Ok(FrameKind::Stat)));
        assert!(matches!(FrameKind::from_u8(6), Ok(FrameKind::StatReply)));
    }

    #[test]
    fn versions_outside_the_window_are_rejected() {
        for v in [0u8, 1, 2, 3, 4, 5, VERSION + 1, 0xFF] {
            let mut bytes = Frame::control(FrameKind::Hello, 0).encode();
            bytes[4] = v;
            // Recompute the CRC so only the version check can object.
            let crc_at = bytes.len() - TRAILER_LEN;
            let crc = crc32(&bytes[..crc_at]);
            bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
            assert!(
                matches!(Frame::decode(&bytes), Err(WireError::BadVersion(got)) if got == v),
                "version {v} accepted"
            );
        }
    }

    fn snapshot() -> Snapshot {
        Snapshot {
            plan_hash: 0xA11C_E5ED_0000_0001,
            counts: vec![vec![1, 2, 3], vec![], vec![u64::MAX, 0]],
            group_sizes: vec![7, 0, 5],
            dedup: Vec::new(),
        }
    }

    #[test]
    fn delta_round_trips() {
        let snap = snapshot();
        let payload = encode_delta(17, &snap);
        assert_eq!(payload[..8], 17u64.to_le_bytes());
        assert_eq!(payload[8..], snap.encode());
        assert_eq!(decode_delta(&payload).unwrap(), (17, snap));
    }

    #[test]
    fn delta_decode_rejects_corruption_and_hostile_lengths() {
        let good = encode_delta(2, &snapshot());
        // Truncations never panic, never succeed.
        for cut in 0..good.len() {
            assert!(decode_delta(&good[..cut]).is_err(), "cut at {cut} accepted");
        }
        // Trailing bytes are rejected.
        let mut oversized = good.clone();
        oversized.push(0);
        assert!(decode_delta(&oversized).is_err());
        // A hostile grid count cannot trigger a large allocation.
        let mut hostile = good;
        hostile[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_delta(&hostile).is_err());
    }

    #[test]
    fn delta_ack_round_trips() {
        let payload = encode_delta_ack(9, 8);
        assert_eq!(decode_delta_ack(&payload).unwrap(), (9, 8));
        assert!(decode_delta_ack(&[0; 15]).is_err());
        let mut oversized = payload;
        oversized.push(0);
        assert!(decode_delta_ack(&oversized).is_err());
        assert!(matches!(FrameKind::from_u8(7), Ok(FrameKind::Delta)));
        assert!(matches!(FrameKind::from_u8(8), Ok(FrameKind::DeltaAck)));
    }

    #[test]
    fn query_round_trips() {
        let req = QueryRequest {
            query_id: 0xFEED_F00D_0000_0042,
            mode: QueryMode::Cached,
            predicates: vec![
                Predicate::between(0, 3, 17),
                Predicate::in_set(2, vec![0, 2, u32::MAX]),
            ],
        };
        let payload = encode_query(&req).unwrap();
        assert_eq!(decode_query(&payload).unwrap(), req);

        let fresh = QueryRequest {
            mode: QueryMode::Fresh,
            ..req
        };
        let payload = encode_query(&fresh).unwrap();
        assert_eq!(decode_query(&payload).unwrap(), fresh);
        assert!(matches!(FrameKind::from_u8(9), Ok(FrameKind::Query)));
        assert!(matches!(FrameKind::from_u8(10), Ok(FrameKind::QueryReply)));
    }

    #[test]
    fn query_decode_rejects_corruption_and_hostile_lengths() {
        let req = QueryRequest {
            query_id: 1,
            mode: QueryMode::Fresh,
            predicates: vec![Predicate::between(1, 2, 5), Predicate::in_set(3, vec![7])],
        };
        let good = encode_query(&req).unwrap();
        // Truncations never panic, never succeed.
        for cut in 0..good.len() {
            assert!(decode_query(&good[..cut]).is_err(), "cut at {cut} accepted");
        }
        // Trailing bytes are rejected.
        let mut oversized = good.clone();
        oversized.push(0);
        assert!(decode_query(&oversized).is_err());
        // A hostile predicate count cannot trigger a large allocation.
        let mut hostile = good.clone();
        hostile[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_query(&hostile).is_err());
        // A hostile set size cannot either (set-size prefix of pred 2:
        // 13 header + 13-byte range predicate + 4 attr + 1 tag = 31).
        let mut hostile_set = good.clone();
        hostile_set[31..35].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_query(&hostile_set).is_err());
        // Unknown mode and predicate tag bytes are rejected.
        let mut bad_mode = good.clone();
        bad_mode[8] = 9;
        assert!(decode_query(&bad_mode).is_err());
        let mut bad_tag = good;
        bad_tag[17] = 9;
        assert!(decode_query(&bad_tag).is_err());
    }

    #[test]
    fn query_reply_round_trips_bit_exactly() {
        // Including non-finite and signed-zero patterns: the reply ships
        // the raw f64 bits, so every pattern must survive verbatim.
        for answer in [0.0f64, -0.0, 0.25, f64::NAN, f64::INFINITY, 1e-300] {
            let ans = QueryAnswer {
                query_id: 77,
                answer,
                epoch: 3,
                head_epoch: 5,
                reports: 1_000_000,
            };
            let payload = encode_query_reply(&ans);
            assert_eq!(payload.len(), 40);
            let back = decode_query_reply(&payload).unwrap();
            assert_eq!(back.answer.to_bits(), answer.to_bits());
            assert_eq!(back.query_id, 77);
            assert_eq!(back.epoch, 3);
            assert_eq!(back.head_epoch, 5);
            assert_eq!(back.reports, 1_000_000);
        }
        assert!(decode_query_reply(&[0; 39]).is_err());
        assert!(decode_query_reply(&[0; 41]).is_err());
    }

    #[test]
    fn batch_round_trips_with_id() {
        let reports = vec![UserReport {
            group: 2,
            report: Report::Grr(5),
        }];
        let payload = encode_batch(0xABCD, &reports).unwrap();
        let (id, decoded) = decode_batch(&payload).unwrap();
        assert_eq!(id, 0xABCD);
        assert_eq!(decoded, reports);
        assert!(decode_batch(&payload[..4]).is_err());
    }
}
