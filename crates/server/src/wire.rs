//! The versioned, length-prefixed binary wire format (DESIGN.md §12.1).
//!
//! Every exchange between a client and the ingestion server is a *frame*:
//!
//! ```text
//! offset  size  field
//!      0     4  magic        "FELP", little-endian u32
//!      4     1  version      protocol version (currently 5)
//!      5     1  kind         frame kind discriminant
//!      6     2  reserved     must be zero
//!      8     4  payload_len  payload byte count, ≤ MAX_PAYLOAD
//!     12     8  plan_hash    CollectionPlan::schema_hash() of the sender
//!     20     …  payload      kind-specific body
//!      …     4  crc32        IEEE CRC-32 over header + payload
//! ```
//!
//! All integers are explicit little-endian; encoding and decoding use only
//! safe byte slicing (no `unsafe`, no transmutes), and decoding untrusted
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
//!   tag 2 (OUE)  words:u32  word[words]:u64
//! ```
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
//! streams epoch-numbered count deltas to its aggregator via `Delta`
//! frames, answered by `DeltaAck`. A `Delta` payload carries the sending
//! node's id, the epoch, a flavor byte (incremental add vs. full cumulative
//! replacement), and the same per-grid count layout FSNP snapshots use:
//!
//! ```text
//! node_id:u64  epoch:u64  flavor:u8  total:u64
//! num_grids:u32  then per grid:  cells:u32  count[cells]:u64
//! num_groups:u32  then per group:  size:u64
//! ```
//!
//! `DeltaAck` echoes `epoch:u64  last_applied:u64  status:u8` (applied /
//! duplicate / resync-required), giving the upstream streamer the same
//! exactly-once-or-rejected discipline report batches already have.
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
//! Every peer speaks exactly one version: decoders accept [`VERSION`] only
//! and reject anything else as [`WireError::BadVersion`], and every frame
//! is stamped with [`VERSION`]. There is no per-connection negotiation.

use std::fmt;
use std::io::{self, Read, Write};

use felip::client::UserReport;
use felip_common::{Predicate, PredicateTarget};
use felip_fo::Report;

/// Frame magic: the bytes `FELP` read as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"FELP");

/// Current protocol version (5: online query serving — `Query`/`QueryReply`
/// frames answering λ-D frequency queries from snapshot-consistent count
/// reads).
pub const VERSION: u8 = 5;

/// Fixed header size in bytes (everything before the payload).
pub const HEADER_LEN: usize = 20;

/// Trailing checksum size in bytes.
pub const TRAILER_LEN: usize = 4;

/// Upper bound on a frame's payload, rejecting absurd length prefixes
/// before any allocation happens (16 MiB ≫ any sane report batch).
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Little-endian reads for the decoders here and in `snapshot`. Every call
/// site has already bounds-checked its slice (`take`, an explicit length
/// check), so these copy through a fixed array rather than a fallible
/// `try_into` — the conversion itself cannot fail.
#[inline]
pub(crate) fn le_u16(b: &[u8]) -> u16 {
    let mut a = [0u8; 2];
    a.copy_from_slice(&b[..2]);
    u16::from_le_bytes(a)
}

#[inline]
pub(crate) fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[..4]);
    u32::from_le_bytes(a)
}

#[inline]
pub(crate) fn le_u64(b: &[u8]) -> u64 {
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
/// i.e. already complemented). Exposed through [`Crc32`]; the hot loop is
/// the slice-by-16 kernel, with a byte-at-a-time tail for the remainder.
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

/// Incremental IEEE CRC-32: feed discontiguous pieces (header, then
/// payload) without first copying them into one buffer.
#[derive(Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh CRC state.
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the state.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        self.0 = crc32_fold(self.0, bytes);
    }

    /// The finished checksum.
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// IEEE CRC-32 (the zlib/Ethernet polynomial) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_fold(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
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
    /// Ingest node → aggregator (v4): an epoch-numbered count delta
    /// derived from a consistent cut; payload is a [`CountDelta`].
    Delta = 7,
    /// Aggregator → ingest node (v4): the delta's fate — applied,
    /// duplicate, or resync-required (see [`DeltaStatus`]).
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
    /// This is the pure-slice twin of [`read_frame`], used by tests and any
    /// transport that already framed the bytes.
    pub fn decode(buf: &[u8]) -> Result<Frame, WireError> {
        if buf.len() < HEADER_LEN + TRAILER_LEN {
            return Err(WireError::Truncated {
                have: buf.len(),
                need: HEADER_LEN + TRAILER_LEN,
            });
        }
        let head = parse_header(&buf[..HEADER_LEN])?;
        let total = HEADER_LEN + head.payload_len as usize + TRAILER_LEN;
        if buf.len() < total {
            return Err(WireError::Truncated {
                have: buf.len(),
                need: total,
            });
        }
        if buf.len() > total {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after frame",
                buf.len() - total
            )));
        }
        let payload = &buf[HEADER_LEN..HEADER_LEN + head.payload_len as usize];
        let expected = crc32(&buf[..total - TRAILER_LEN]);
        let actual = le_u32(&buf[total - TRAILER_LEN..total]);
        if expected != actual {
            return Err(WireError::BadCrc { expected, actual });
        }
        Ok(Frame {
            kind: head.kind,
            plan_hash: head.plan_hash,
            payload: payload.to_vec(),
        })
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
/// error (a truncated stream, e.g. a client killed mid-write).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
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
    let head = parse_header(&header)?;
    let mut rest = vec![0u8; head.payload_len as usize + TRAILER_LEN];
    r.read_exact(&mut rest).map_err(WireError::Io)?;
    let body_end = head.payload_len as usize;
    let mut crc = Crc32::new();
    crc.update(&header);
    crc.update(&rest[..body_end]);
    let expected = crc.finish();
    let actual = le_u32(&rest[body_end..]);
    if expected != actual {
        return Err(WireError::BadCrc { expected, actual });
    }
    rest.truncate(body_end);
    Ok(Some(Frame {
        kind: head.kind,
        plan_hash: head.plan_hash,
        payload: rest,
    }))
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
        match &r.report {
            Report::Grr(v) => {
                buf.push(0);
                buf.extend_from_slice(&v.to_le_bytes());
            }
            Report::Olh { seed, value } => {
                buf.push(1);
                buf.extend_from_slice(&seed.to_le_bytes());
                buf.extend_from_slice(&value.to_le_bytes());
            }
            Report::Oue(words) => {
                buf.push(2);
                let n = u32::try_from(words.len())
                    .map_err(|_| WireError::Malformed("OUE word count exceeds u32".into()))?;
                buf.extend_from_slice(&n.to_le_bytes());
                for w in words {
                    buf.extend_from_slice(&w.to_le_bytes());
                }
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
            2 => {
                let n = r.u32()? as usize;
                if n > r.remaining() / 8 {
                    return Err(WireError::Malformed(format!(
                        "OUE word count {n} exceeds remaining payload"
                    )));
                }
                let mut words = Vec::with_capacity(n);
                for _ in 0..n {
                    words.push(r.u64()?);
                }
                Report::Oue(words)
            }
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

/// How a [`CountDelta`]'s counts relate to the aggregator's view of the
/// sending node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaFlavor {
    /// Counts are an increment over the node's previous epoch: the
    /// aggregator *adds* them, and the epoch must be exactly `last + 1`.
    Incremental = 0,
    /// Counts are the node's full cumulative state: the aggregator
    /// *replaces* its per-node view — the loss-free rejoin/catch-up path,
    /// valid at any epoch greater than the last applied one.
    Full = 1,
}

impl DeltaFlavor {
    /// Parses the flavor discriminant.
    pub fn from_u8(v: u8) -> Result<DeltaFlavor, WireError> {
        match v {
            0 => Ok(DeltaFlavor::Incremental),
            1 => Ok(DeltaFlavor::Full),
            other => Err(WireError::Malformed(format!(
                "unknown delta flavor {other}"
            ))),
        }
    }
}

/// What the aggregator did with a delta, echoed in the `DeltaAck`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaStatus {
    /// The delta was applied; `last_applied` advanced to its epoch.
    Applied = 0,
    /// The epoch was already applied — re-acked without re-applying
    /// (the exactly-once half of the cursor discipline).
    Duplicate = 1,
    /// An incremental delta skipped an epoch; the node must fall back to
    /// a [`DeltaFlavor::Full`] resync.
    ResyncRequired = 2,
}

impl DeltaStatus {
    /// Parses the status discriminant.
    pub fn from_u8(v: u8) -> Result<DeltaStatus, WireError> {
        match v {
            0 => Ok(DeltaStatus::Applied),
            1 => Ok(DeltaStatus::Duplicate),
            2 => Ok(DeltaStatus::ResyncRequired),
            other => Err(WireError::Malformed(format!(
                "unknown delta status {other}"
            ))),
        }
    }
}

/// A decoded `Delta` payload: one ingest node's count movement between two
/// consistent cuts (or its full cumulative state, per [`DeltaFlavor`]).
/// The count layout mirrors the FSNP snapshot body, so a delta *is* a
/// snapshot diff in the same shape the aggregator already merges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountDelta {
    /// The sending ingest node's stable identity.
    pub node_id: u64,
    /// The node's epoch counter for this delta (monotonic per node).
    pub epoch: u64,
    /// Increment vs. full-replacement semantics.
    pub flavor: DeltaFlavor,
    /// Total reports the counts represent (cumulative for `Full`, the
    /// increment's share for `Incremental`) — a cheap cross-check.
    pub total: u64,
    /// Per-grid count vectors, same order as the plan's grids.
    pub counts: Vec<Vec<u64>>,
    /// Per-group user totals, same order as the plan's groups.
    pub group_sizes: Vec<u64>,
}

/// Serialises a `Delta` payload.
pub fn encode_delta(delta: &CountDelta) -> Result<Vec<u8>, WireError> {
    if delta.counts.len() > u32::MAX as usize || delta.group_sizes.len() > u32::MAX as usize {
        return Err(WireError::Malformed("delta exceeds u32 counts".into()));
    }
    let cells: usize = delta.counts.iter().map(|g| g.len()).sum();
    let mut buf = Vec::with_capacity(33 + delta.counts.len() * 4 + cells * 8);
    buf.extend_from_slice(&delta.node_id.to_le_bytes());
    buf.extend_from_slice(&delta.epoch.to_le_bytes());
    buf.push(delta.flavor as u8);
    buf.extend_from_slice(&delta.total.to_le_bytes());
    buf.extend_from_slice(&(delta.counts.len() as u32).to_le_bytes());
    for grid in &delta.counts {
        let n = u32::try_from(grid.len())
            .map_err(|_| WireError::Malformed("grid cell count exceeds u32".into()))?;
        buf.extend_from_slice(&n.to_le_bytes());
        for &c in grid {
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }
    buf.extend_from_slice(&(delta.group_sizes.len() as u32).to_le_bytes());
    for &s in &delta.group_sizes {
        buf.extend_from_slice(&s.to_le_bytes());
    }
    Ok(buf)
}

/// Parses a `Delta` payload. Every length prefix is validated against the
/// remaining bytes before any allocation, same discipline as
/// [`decode_reports`].
pub fn decode_delta(payload: &[u8]) -> Result<CountDelta, WireError> {
    let mut r = ByteReader::new(payload);
    let node_id = r.u64()?;
    let epoch = r.u64()?;
    let flavor = DeltaFlavor::from_u8(r.u8()?)?;
    let total = r.u64()?;
    let num_grids = r.u32()? as usize;
    // A grid costs at least 4 bytes (its cell-count prefix).
    if num_grids > r.remaining() / 4 {
        return Err(WireError::Malformed(format!(
            "grid count {num_grids} impossible in remaining payload"
        )));
    }
    let mut counts = Vec::with_capacity(num_grids);
    for _ in 0..num_grids {
        let cells = r.u32()? as usize;
        if cells > r.remaining() / 8 {
            return Err(WireError::Malformed(format!(
                "cell count {cells} exceeds remaining payload"
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
            "group count {num_groups} exceeds remaining payload"
        )));
    }
    let mut group_sizes = Vec::with_capacity(num_groups);
    for _ in 0..num_groups {
        group_sizes.push(r.u64()?);
    }
    if r.remaining() != 0 {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after delta",
            r.remaining()
        )));
    }
    Ok(CountDelta {
        node_id,
        epoch,
        flavor,
        total,
        counts,
        group_sizes,
    })
}

/// Serialises a `DeltaAck` payload: the epoch it answers, the node's
/// highest applied epoch, and the status byte.
pub fn encode_delta_ack(epoch: u64, last_applied: u64, status: DeltaStatus) -> Vec<u8> {
    let mut buf = Vec::with_capacity(17);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&last_applied.to_le_bytes());
    buf.push(status as u8);
    buf
}

/// Parses a `DeltaAck` payload into `(epoch, last_applied, status)`.
pub fn decode_delta_ack(payload: &[u8]) -> Result<(u64, u64, DeltaStatus), WireError> {
    let mut r = ByteReader::new(payload);
    let epoch = r.u64()?;
    let last_applied = r.u64()?;
    let status = DeltaStatus::from_u8(r.u8()?)?;
    if r.remaining() != 0 {
        return Err(WireError::Malformed("oversized delta-ack payload".into()));
    }
    Ok((epoch, last_applied, status))
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

/// Bounds-checked little-endian reader over a byte slice.
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
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

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(le_u32(self.take(4)?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
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
            WireError::BudgetExhausted { attempts } => {
                write!(f, "retry budget exhausted after {attempts} attempts")
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
        // Exercise every remainder length through the 16-byte kernel
        // boundary against a reference byte-at-a-time implementation.
        let data: Vec<u8> = (0..64u32)
            .map(|i| (i.wrapping_mul(167) ^ 91) as u8)
            .collect();
        for len in 0..data.len() {
            let bytes = &data[..len];
            let mut reference = 0xFFFF_FFFFu32;
            for &b in bytes {
                reference =
                    CRC_TABLES[0][((reference ^ b as u32) & 0xFF) as usize] ^ (reference >> 8);
            }
            assert_eq!(crc32(bytes), reference ^ 0xFFFF_FFFF, "length {len}");
        }
    }

    #[test]
    fn crc32_streaming_matches_one_shot_across_splits() {
        let data: Vec<u8> = (0..100u8).collect();
        let whole = crc32(&data);
        for split in 0..data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
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
            UserReport {
                group: 1,
                report: Report::Oue(vec![0xAAAA, 0, u64::MAX]),
            },
        ];
        let payload = encode_reports(&reports).unwrap();
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
        for v in [0u8, 1, 2, 3, 4, VERSION + 1, 0xFF] {
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

    #[test]
    fn delta_round_trips() {
        let delta = CountDelta {
            node_id: 0xA11C_E5ED_0000_0001,
            epoch: 17,
            flavor: DeltaFlavor::Incremental,
            total: 1234,
            counts: vec![vec![1, 2, 3], vec![], vec![u64::MAX, 0]],
            group_sizes: vec![7, 0, u64::MAX],
        };
        let payload = encode_delta(&delta).unwrap();
        assert_eq!(decode_delta(&payload).unwrap(), delta);

        let full = CountDelta {
            flavor: DeltaFlavor::Full,
            ..delta
        };
        let payload = encode_delta(&full).unwrap();
        assert_eq!(decode_delta(&payload).unwrap(), full);
    }

    #[test]
    fn delta_decode_rejects_corruption_and_hostile_lengths() {
        let delta = CountDelta {
            node_id: 1,
            epoch: 2,
            flavor: DeltaFlavor::Full,
            total: 3,
            counts: vec![vec![4, 5]],
            group_sizes: vec![6],
        };
        let good = encode_delta(&delta).unwrap();
        // Truncations never panic, never succeed.
        for cut in 0..good.len() {
            assert!(decode_delta(&good[..cut]).is_err(), "cut at {cut} accepted");
        }
        // Trailing bytes are rejected.
        let mut oversized = good.clone();
        oversized.push(0);
        assert!(decode_delta(&oversized).is_err());
        // A hostile grid count cannot trigger a large allocation.
        let mut hostile = good.clone();
        hostile[25..29].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_delta(&hostile).is_err());
        // Unknown flavor byte is rejected.
        let mut bad_flavor = good;
        bad_flavor[16] = 9;
        assert!(decode_delta(&bad_flavor).is_err());
    }

    #[test]
    fn delta_ack_round_trips() {
        for status in [
            DeltaStatus::Applied,
            DeltaStatus::Duplicate,
            DeltaStatus::ResyncRequired,
        ] {
            let payload = encode_delta_ack(9, 8, status);
            assert_eq!(decode_delta_ack(&payload).unwrap(), (9, 8, status));
        }
        assert!(decode_delta_ack(&[0; 16]).is_err());
        let mut oversized = encode_delta_ack(1, 1, DeltaStatus::Applied);
        oversized.push(0);
        assert!(decode_delta_ack(&oversized).is_err());
        let mut bad_status = encode_delta_ack(1, 1, DeltaStatus::Applied);
        bad_status[16] = 7;
        assert!(decode_delta_ack(&bad_status).is_err());
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
