//! The client side of the wire protocol: connect, handshake with a stable
//! client identity, send numbered report batches, honour backpressure with
//! a jittered, budget-bounded retry policy.
//!
//! Exactly-once from the client's side: every batch carries a sequence
//! number (`1, 2, 3, …` per client). If an ack is lost the client re-sends
//! the *same* numbered batch; the server recognises the duplicate and acks
//! without double-counting. On reconnect the `Hello` ack tells the client
//! the highest batch the server already accepted, so nothing accepted is
//! ever re-sent.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use felip_sync::atomic::{AtomicU64, Ordering};
use felip_sync::thread;

use felip::client::UserReport;
use felip_common::hash::mix64;
use felip_common::rng::derive_seed;

use crate::wire::{
    decode_ack, decode_query_reply, encode_batch, encode_hello, encode_query, read_frame,
    write_frame, Frame, FrameKind, QueryAnswer, QueryMode, QueryRequest, WireError,
};
use felip_common::Predicate;

/// Process-wide allocator for default client ids (`connect` uses it;
/// `connect_with` lets callers pin ids for reproducible runs).
static NEXT_CLIENT_ID: AtomicU64 = AtomicU64::new(1);

/// Server verdict on one `ReportBatch` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchReply {
    /// Accepted; carries the number of reports ingested.
    Ack(u32),
    /// The server's ingest queue was full — back off and resend the batch.
    Retry,
}

/// How a client spaces resends: exponential backoff from `base` capped at
/// `cap`, each delay jittered deterministically from `jitter_seed` (so two
/// clients hitting the same full queue don't retry in lockstep), the whole
/// thing bounded by `max_attempts` before the send fails with
/// [`WireError::BudgetExhausted`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total send attempts (first try included) before giving up.
    pub max_attempts: u32,
    /// First backoff delay.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // Generous budget: under sustained backpressure the capped delay
        // makes 100 attempts ~2s of patience, after which the caller
        // learns the server is truly saturated.
        RetryPolicy {
            max_attempts: 100,
            base: Duration::from_micros(200),
            cap: Duration::from_millis(20),
            jitter_seed: 0x5eed_c0de,
        }
    }
}

impl RetryPolicy {
    /// The delay before attempt `attempt` (1-based): exponential, capped,
    /// multiplied by a jitter factor in `[0.5, 1.0]` drawn deterministically
    /// from the policy's seed and the attempt number.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.min(20);
        let raw = self
            .base
            .saturating_mul(1u32 << exp.min(31))
            .min(self.cap)
            .max(self.base);
        let draw = mix64(derive_seed(self.jitter_seed, attempt as u64));
        let frac = 500_000 + draw % 500_001; // parts-per-million in [0.5, 1.0]
        let nanos = (raw.as_nanos() as u64).saturating_mul(frac) / 1_000_000;
        Duration::from_nanos(nanos)
    }
}

/// A connected, handshaken ingestion client.
///
/// The client keeps its resolved server addresses and its wire identity,
/// so [`Client::reconnect`] re-establishes the *same* identity after the
/// connection is lost (idle reap, mid-frame stall, reset). The `Hello`
/// ack then resyncs `last_acked`, which is what makes exactly-once hold
/// across reconnects — a fresh id would let the server re-count batches
/// it already accepted under the old one.
pub struct Client {
    stream: TcpStream,
    addrs: Vec<SocketAddr>,
    plan_hash: u64,
    client_id: u64,
    last_acked: u64,
    policy: RetryPolicy,
    next_query_id: u64,
}

/// Dials the first reachable address of a resolved set.
fn dial(addrs: &[SocketAddr]) -> Result<TcpStream, WireError> {
    let mut last_err: Option<io::Error> = None;
    for addr in addrs {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).map_err(WireError::Io)?;
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(WireError::Io(last_err.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::AddrNotAvailable, "no addresses to dial")
    })))
}

impl Client {
    /// Connects with a fresh process-unique client id and the default
    /// retry policy, and performs the `Hello` handshake, proving both
    /// sides hold the same `CollectionPlan`.
    ///
    /// The identity lives in the returned `Client` and survives
    /// [`Client::reconnect`]; callers that need dedup continuity across
    /// *processes* (resuming an interrupted load) should pin an explicit
    /// id via [`Client::connect_with`] instead.
    pub fn connect(addr: impl ToSocketAddrs, plan_hash: u64) -> Result<Client, WireError> {
        let id = NEXT_CLIENT_ID.fetch_add(1, Ordering::Relaxed);
        Client::connect_with(addr, plan_hash, id, RetryPolicy::default())
    }

    /// Connects as a specific client id with an explicit retry policy.
    /// Reconnecting with the id of an earlier session resumes its batch
    /// sequence where the server left off.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        plan_hash: u64,
        client_id: u64,
        policy: RetryPolicy,
    ) -> Result<Client, WireError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs().map_err(WireError::Io)?.collect();
        let stream = dial(&addrs)?;
        let mut client = Client {
            stream,
            addrs,
            plan_hash,
            client_id,
            last_acked: 0,
            policy,
            next_query_id: 0,
        };
        client.handshake()?;
        Ok(client)
    }

    /// Re-dials the server and re-handshakes with the *same* client id,
    /// resyncing `last_acked` from the `Hello` ack. Batches the server
    /// already accepted under this identity are therefore never re-sent —
    /// the exactly-once guarantee survives lost connections.
    pub fn reconnect(&mut self) -> Result<(), WireError> {
        felip_obs::counter!("client.reconnect", 1, "connections");
        self.stream = dial(&self.addrs)?;
        self.handshake()
    }

    /// Sends `Hello` and adopts the server's view of the highest batch it
    /// accepted for this id (the server is the source of truth — a resume
    /// from an older snapshot may legitimately wind the cursor back, and
    /// the gap check would reject ids ahead of it).
    fn handshake(&mut self) -> Result<(), WireError> {
        self.send(&Frame {
            kind: FrameKind::Hello,
            plan_hash: self.plan_hash,
            payload: encode_hello(self.client_id),
        })?;
        match self.read_reply()? {
            (FrameKind::Ack, payload) => {
                let (last_acked, _) = decode_ack(&payload)?;
                self.last_acked = last_acked;
                Ok(())
            }
            (kind, payload) => Err(reply_error(kind, &payload)),
        }
    }

    /// This client's wire identity.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// Highest batch id the server has acknowledged for this client.
    pub fn last_acked(&self) -> u64 {
        self.last_acked
    }

    /// Sends one batch of reports (as batch `last_acked + 1`) and returns
    /// the server's verdict.
    ///
    /// A [`BatchReply::Retry`] means the batch was *not* ingested; the
    /// caller decides when to resend (see [`Client::send_batch_retrying`]).
    pub fn send_batch(&mut self, reports: &[UserReport]) -> Result<BatchReply, WireError> {
        let batch_id = self.last_acked + 1;
        let frame = Frame {
            kind: FrameKind::ReportBatch,
            plan_hash: self.plan_hash,
            payload: encode_batch(batch_id, reports)?,
        };
        self.send(&frame)?;
        loop {
            match self.read_reply()? {
                (FrameKind::Ack, payload) => {
                    let (acked_id, count) = decode_ack(&payload)?;
                    if acked_id < batch_id {
                        // A stale ack for an earlier batch (duplicate
                        // delivery); keep waiting for ours.
                        continue;
                    }
                    self.last_acked = batch_id;
                    return Ok(BatchReply::Ack(count));
                }
                (FrameKind::Retry, _) => return Ok(BatchReply::Retry),
                (kind, payload) => return Err(reply_error(kind, &payload)),
            }
        }
    }

    /// Sends a batch, backing off and resending on RETRY — and surviving a
    /// lost connection by [`Client::reconnect`]ing under the same identity
    /// — per the client's [`RetryPolicy`]. Returns how many retried
    /// attempts were absorbed, or [`WireError::BudgetExhausted`] once the
    /// attempt budget is spent.
    ///
    /// If the connection died after the server accepted the batch but
    /// before the ack arrived, the reconnect handshake reveals it (the
    /// `Hello` ack covers the batch's id) and the batch is *not* re-sent.
    pub fn send_batch_retrying(&mut self, reports: &[UserReport]) -> Result<u32, WireError> {
        // The id this call's batch will be (or was) sent under; acked means
        // these reports are counted, whichever connection carried them.
        let target = self.last_acked + 1;
        let mut attempts = 0u32;
        loop {
            if self.last_acked >= target {
                // A reconnect handshake showed the server already accepted
                // this batch — the ack was lost in flight, not the batch.
                return Ok(attempts);
            }
            attempts += 1;
            match self.send_batch(reports) {
                Ok(BatchReply::Ack(_)) => return Ok(attempts - 1),
                Ok(BatchReply::Retry) => {
                    if attempts >= self.policy.max_attempts {
                        felip_obs::counter!("client.retry.exhausted", 1, "batches");
                        return Err(WireError::BudgetExhausted { attempts });
                    }
                    thread::sleep(self.policy.backoff(attempts));
                }
                Err(WireError::Io(_)) => {
                    // The connection is gone (reaped while we backed off,
                    // stalled, reset). Burn an attempt, back off, and come
                    // back as the same identity; a failed reconnect just
                    // burns another attempt on the next lap.
                    if attempts >= self.policy.max_attempts {
                        felip_obs::counter!("client.retry.exhausted", 1, "batches");
                        return Err(WireError::BudgetExhausted { attempts });
                    }
                    thread::sleep(self.policy.backoff(attempts));
                    let _ = self.reconnect();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one v5 `Query` and waits for its `QueryReply`. The request's
    /// correlation id is derived from the client id and an internal
    /// counter; stale replies (mismatched ids) are skipped.
    pub fn query(
        &mut self,
        predicates: Vec<Predicate>,
        mode: QueryMode,
    ) -> Result<QueryAnswer, WireError> {
        self.next_query_id = self.next_query_id.wrapping_add(1);
        let req = QueryRequest {
            query_id: mix64(self.client_id ^ self.next_query_id),
            mode,
            predicates,
        };
        let frame = Frame {
            kind: FrameKind::Query,
            plan_hash: self.plan_hash,
            payload: encode_query(&req)?,
        };
        self.send(&frame)?;
        loop {
            match self.read_reply()? {
                (FrameKind::QueryReply, payload) => {
                    let ans = decode_query_reply(&payload)?;
                    if ans.query_id != req.query_id {
                        continue;
                    }
                    return Ok(ans);
                }
                (kind, payload) => return Err(reply_error(kind, &payload)),
            }
        }
    }

    fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        // The encoding is already one contiguous buffer; write it straight
        // through instead of paying a `BufWriter` allocation per frame.
        write_frame(&mut &self.stream, frame).map_err(WireError::Io)
    }

    fn read_reply(&mut self) -> Result<(FrameKind, Vec<u8>), WireError> {
        match read_frame(&mut &self.stream)? {
            Some(f) => Ok((f.kind, f.payload)),
            None => Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
        }
    }
}

fn reply_error(kind: FrameKind, payload: &[u8]) -> WireError {
    match kind {
        FrameKind::Error => WireError::Rejected(String::from_utf8_lossy(payload).into_owned()),
        other => WireError::Malformed(format!("unexpected {other:?} reply")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let p = RetryPolicy::default();
        for attempt in 1..40 {
            let d = p.backoff(attempt);
            assert_eq!(d, p.backoff(attempt), "jitter must be deterministic");
            assert!(d <= p.cap, "attempt {attempt}: {d:?} above cap");
            assert!(d >= p.base / 2, "attempt {attempt}: {d:?} below base/2");
        }
        // High attempts sit in the jittered band below the cap.
        let late: Vec<Duration> = (30..38).map(|a| p.backoff(a)).collect();
        assert!(late.iter().any(|d| *d != late[0]), "no jitter: {late:?}");
    }
}
