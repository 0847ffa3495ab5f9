//! The client side of the wire protocol: connect, handshake with a stable
//! client identity, send numbered report batches, honour backpressure with
//! a jittered, budget-bounded retry policy.
//!
//! Every protocol decision lives in one sans-I/O core, [`ClientCore`]: the
//! `Hello` handshake, the next batch id, stale acks, `Retry` backoff,
//! reconnects and the attempt budget. It reads no socket and sleeps on no
//! clock; it turns replies and lost connections into [`Step`]s. [`Client`]
//! drives it over blocking TCP, and the deterministic sim harness drives
//! the same core on its virtual clock, so the chaos sweep tests the client
//! that ships.
//!
//! Exactly-once from the client's side: a client numbers its batches
//! `1, 2, 3, …` and the next batch it sends is always the server's cursor
//! plus one, pulled from a caller-supplied source. If an ack is lost the
//! client re-sends the *same* numbered batch; the server recognises the
//! duplicate and acks without double-counting. On reconnect the `Hello`
//! ack tells the client the highest batch the server holds, so nothing it
//! holds is re-sent, and a server restored from an older snapshot gets the
//! batches it lost resent under their own ids.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use felip_sync::atomic::{AtomicU64, Ordering};
use felip_sync::thread;

use felip::client::UserReport;
use felip_common::hash::mix64;
use felip_common::rng::derive_seed;
use felip_common::Predicate;

use crate::wire::{
    decode_ack, decode_query_reply, encode_batch, encode_hello, encode_query, read_frame,
    write_frame, Frame, FrameKind, QueryAnswer, QueryMode, QueryRequest, WireError,
};

/// Process-wide allocator for default client ids (`connect` uses it;
/// `connect_with` lets callers pin ids for reproducible runs).
static NEXT_CLIENT_ID: AtomicU64 = AtomicU64::new(1);

/// How long a [`Client`] waits on one read or write before it counts the
/// connection as lost: the server's default mid-frame read deadline, so a
/// server that accepts and never answers costs one attempt, not a hang.
const REPLY_DEADLINE: Duration = Duration::from_secs(5);

/// How a client spaces resends: exponential backoff from `base` capped at
/// `cap`, each delay jittered deterministically from `jitter_seed` (so two
/// clients hitting the same full queue don't retry in lockstep), the whole
/// thing bounded by `max_attempts` before the send fails with
/// [`WireError::BudgetExhausted`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Connects and batch sends allowed without progress (an ack that
    /// moves the cursor forward) before giving up.
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

/// The reports of batch `id`, asked for whenever the core sends that id —
/// again after a server rewound its cursor past it.
pub(crate) type BatchSource<'a> = dyn FnMut(u64) -> felip_common::Result<Vec<UserReport>> + 'a;

/// What the driver of a [`ClientCore`] does next.
#[derive(Debug)]
pub(crate) enum Step {
    /// Open a new connection, write this `Hello` on it and await a reply.
    Connect(Frame),
    /// Write this frame on the connection and await a reply.
    Send(Frame),
    /// Await the next reply on the connection.
    Await,
    /// Sleep this long, keeping the connection, then call
    /// [`ClientCore::wake`].
    Backoff(Duration),
    /// Close the connection, sleep this long, then call
    /// [`ClientCore::wake`].
    Reconnect(Duration),
    /// Every batch through the target is acked.
    Done,
    /// The send failed for good.
    Failed(WireError),
}

/// Where the core stands on its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No connection: the next wake connects.
    Disconnected,
    /// `Hello` sent on a fresh connection; awaiting its ack.
    Hello,
    /// Connected with nothing in flight.
    Idle,
    /// Batch `cursor + 1` sent; awaiting its ack.
    Batch,
}

/// The ingest client's protocol, free of I/O: it turns the driver's
/// events (a reply, a lost connection, a finished sleep) into [`Step`]s.
pub(crate) struct ClientCore {
    plan_hash: u64,
    client_id: u64,
    policy: RetryPolicy,
    phase: Phase,
    /// Highest batch id the server acked, per its last reply.
    cursor: u64,
    /// Send every batch through this id.
    target: u64,
    /// Connects and sends since the cursor last moved forward.
    attempts: u32,
}

impl ClientCore {
    /// A disconnected core for `client_id`, with nothing acked yet.
    pub(crate) fn new(plan_hash: u64, client_id: u64, policy: RetryPolicy) -> ClientCore {
        ClientCore {
            plan_hash,
            client_id,
            policy,
            phase: Phase::Disconnected,
            cursor: 0,
            target: 0,
            attempts: 0,
        }
    }

    /// Highest batch id the server acked, per its last reply.
    pub(crate) fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Aims the core at batch `through` with a fresh attempt budget; the
    /// driver then calls [`ClientCore::wake`].
    pub(crate) fn begin(&mut self, through: u64) {
        self.target = through;
        self.attempts = 0;
    }

    /// The driver is ready to act: connect, send the next batch, or finish.
    pub(crate) fn wake(&mut self, source: &mut BatchSource<'_>) -> Step {
        if self.phase == Phase::Disconnected {
            self.attempts += 1;
            self.phase = Phase::Hello;
            return Step::Connect(Frame {
                kind: FrameKind::Hello,
                plan_hash: self.plan_hash,
                payload: encode_hello(self.client_id),
            });
        }
        self.phase = Phase::Idle;
        if self.cursor >= self.target {
            return Step::Done;
        }
        let id = self.cursor + 1;
        let payload = source(id)
            .map_err(|e| WireError::Malformed(format!("cannot build batch {id}: {e}")))
            .and_then(|reports| encode_batch(id, &reports));
        match payload {
            Ok(payload) => {
                self.attempts += 1;
                self.phase = Phase::Batch;
                Step::Send(Frame {
                    kind: FrameKind::ReportBatch,
                    plan_hash: self.plan_hash,
                    payload,
                })
            }
            Err(e) => Step::Failed(e),
        }
    }

    /// A reply arrived, or reading one failed (`Err`: the connection
    /// closed, the reply deadline expired, or the bytes were garbled).
    pub(crate) fn on_reply(
        &mut self,
        reply: Result<Frame, WireError>,
        source: &mut BatchSource<'_>,
    ) -> Step {
        if !matches!(self.phase, Phase::Hello | Phase::Batch) {
            // Nothing is awaited: a late or duplicated reply.
            return Step::Await;
        }
        let Ok(frame) = reply else {
            return self.lost();
        };
        match frame.kind {
            FrameKind::Ack => match decode_ack(&frame.payload) {
                // The server's cursor is the truth, behind ours too (a
                // server restored from an older snapshot): the batches
                // after it are sent again, each under its own id.
                Ok((last, _)) if self.phase == Phase::Hello => self.acked(last, source),
                // An ack for an earlier batch (a duplicated or late
                // reply): keep waiting for ours.
                Ok((id, _)) if id <= self.cursor => Step::Await,
                Ok(_) => self.acked(self.cursor + 1, source),
                Err(_) => self.lost(),
            },
            FrameKind::Retry if self.phase == Phase::Batch => self.back_off(Phase::Idle),
            FrameKind::Error if frame.plan_hash != self.plan_hash => {
                self.phase = Phase::Disconnected;
                Step::Failed(WireError::Rejected(
                    String::from_utf8_lossy(&frame.payload).into_owned(),
                ))
            }
            // An `Error` from a server on our plan (it dropped a garbled
            // or stalled frame and closed), or a reply that makes no sense
            // here: the connection is unusable.
            _ => self.lost(),
        }
    }

    /// The connection is gone, or its reply deadline expired: reconnect
    /// under the same id after backing off, unless the budget is spent.
    pub(crate) fn lost(&mut self) -> Step {
        self.back_off(Phase::Disconnected)
    }

    fn acked(&mut self, cursor: u64, source: &mut BatchSource<'_>) -> Step {
        if cursor > self.cursor {
            self.attempts = 0;
        }
        self.cursor = cursor;
        self.wake(source)
    }

    fn back_off(&mut self, phase: Phase) -> Step {
        self.phase = phase;
        if self.attempts >= self.policy.max_attempts {
            return Step::Failed(WireError::BudgetExhausted {
                attempts: self.attempts,
            });
        }
        let delay = self.policy.backoff(self.attempts);
        match phase {
            Phase::Disconnected => Step::Reconnect(delay),
            _ => Step::Backoff(delay),
        }
    }
}

/// A connected, handshaken ingestion client: the blocking TCP driver of a
/// [`ClientCore`].
///
/// The client keeps its resolved server addresses and its wire identity,
/// so a lost connection (idle reap, mid-frame stall, reset, a restarted
/// server) is re-established under the *same* identity, and the `Hello`
/// ack resyncs the cursor. A fresh id would let the server re-count
/// batches it already accepted under the old one.
pub struct Client {
    stream: Option<TcpStream>,
    addrs: Vec<SocketAddr>,
    core: ClientCore,
    next_query_id: u64,
}

impl Client {
    /// Connects with a fresh process-unique client id and the default
    /// retry policy, and performs the `Hello` handshake, proving both
    /// sides hold the same `CollectionPlan`.
    ///
    /// The identity lives in the returned `Client` and survives
    /// reconnects; callers that need dedup continuity across *processes*
    /// (resuming an interrupted load) should pin an explicit id via
    /// [`Client::connect_with`] instead.
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
        let mut client = Client {
            stream: None,
            addrs,
            core: ClientCore::new(plan_hash, client_id, policy),
            next_query_id: 0,
        };
        client.drive(0, &mut |_| Ok(Vec::new()))?;
        Ok(client)
    }

    /// This client's wire identity.
    pub fn client_id(&self) -> u64 {
        self.core.client_id
    }

    /// Highest batch id the server has acknowledged for this client.
    pub fn last_acked(&self) -> u64 {
        self.core.cursor()
    }

    /// Sends every batch through id `through`, each built by `batch(id)`
    /// when it is sent: the next id is always the server's cursor plus
    /// one, so a batch the server already holds is skipped and one a
    /// restarted server lost is sent again. Backs off and resends on
    /// RETRY, and reconnects under the same identity after a lost
    /// connection, an expired reply deadline, a garbled reply or an
    /// `Error` from a server on this plan, per the client's
    /// [`RetryPolicy`].
    ///
    /// Returns how many backoffs were absorbed, [`WireError::Rejected`] if
    /// a server on another plan answered, or
    /// [`WireError::BudgetExhausted`] once the attempt budget is spent.
    pub fn send_through(
        &mut self,
        through: u64,
        mut batch: impl FnMut(u64) -> felip_common::Result<Vec<UserReport>>,
    ) -> Result<u32, WireError> {
        self.drive(through, &mut batch)
    }

    /// Runs the core until it is done or fails.
    fn drive(&mut self, through: u64, source: &mut BatchSource<'_>) -> Result<u32, WireError> {
        let mut backoffs = 0u32;
        self.core.begin(through);
        let mut step = self.core.wake(source);
        loop {
            step = match step {
                Step::Connect(hello) => {
                    let reply = self.dial().and_then(|()| self.exchange(&hello));
                    self.core.on_reply(reply, source)
                }
                Step::Send(frame) => {
                    let reply = self.exchange(&frame);
                    self.core.on_reply(reply, source)
                }
                Step::Await => {
                    let reply = self.read_reply();
                    self.core.on_reply(reply, source)
                }
                Step::Backoff(delay) => {
                    backoffs += 1;
                    thread::sleep(delay);
                    self.core.wake(source)
                }
                Step::Reconnect(delay) => {
                    backoffs += 1;
                    self.stream = None;
                    felip_obs::counter!("client.reconnect", 1, "connections");
                    thread::sleep(delay);
                    self.core.wake(source)
                }
                Step::Done => return Ok(backoffs),
                Step::Failed(e) => {
                    if matches!(e, WireError::BudgetExhausted { .. }) {
                        felip_obs::counter!("client.retry.exhausted", 1, "batches");
                    }
                    return Err(e);
                }
            };
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
            query_id: mix64(self.core.client_id ^ self.next_query_id),
            mode,
            predicates,
        };
        let frame = Frame {
            kind: FrameKind::Query,
            plan_hash: self.core.plan_hash,
            payload: encode_query(&req)?,
        };
        let mut reply = self.exchange(&frame)?;
        loop {
            match reply.kind {
                FrameKind::QueryReply => {
                    let ans = decode_query_reply(&reply.payload)?;
                    if ans.query_id == req.query_id {
                        return Ok(ans);
                    }
                }
                FrameKind::Error => {
                    return Err(WireError::Rejected(
                        String::from_utf8_lossy(&reply.payload).into_owned(),
                    ))
                }
                other => return Err(WireError::Malformed(format!("unexpected {other:?} reply"))),
            }
            reply = self.read_reply()?;
        }
    }

    /// Dials the first reachable address, with the reply deadline on
    /// every read and write.
    fn dial(&mut self) -> Result<(), WireError> {
        let mut last_err: Option<io::Error> = None;
        for addr in &self.addrs {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(REPLY_DEADLINE))?;
                    stream.set_write_timeout(Some(REPLY_DEADLINE))?;
                    self.stream = Some(stream);
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(WireError::Io(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::AddrNotAvailable, "no addresses to dial")
        })))
    }

    /// Writes `frame` and reads the reply.
    fn exchange(&mut self, frame: &Frame) -> Result<Frame, WireError> {
        // The encoding is already one contiguous buffer; write it straight
        // through instead of paying a `BufWriter` allocation per frame.
        write_frame(&mut self.stream()?, frame)?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> Result<Frame, WireError> {
        read_frame(&mut self.stream()?)?.ok_or_else(|| {
            WireError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })
    }

    fn stream(&self) -> Result<&TcpStream, WireError> {
        self.stream
            .as_ref()
            .ok_or_else(|| WireError::Io(io::ErrorKind::NotConnected.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_batch, encode_ack};
    use std::net::TcpListener;
    use std::sync::mpsc;

    const PLAN: u64 = 0xfe11_cafe;

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

    #[test]
    fn a_server_that_never_replies_spends_the_budget_instead_of_hanging() {
        // The listener's backlog completes every TCP handshake, but
        // nothing ever reads the Hello or answers it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let policy = RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            };
            let _ = tx.send(Client::connect_with(addr, PLAN, 1, policy).map(|c| c.last_acked()));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("connect_with still blocked on a silent server after 60 s");
        assert!(
            matches!(outcome, Err(WireError::BudgetExhausted { attempts: 2 })),
            "{outcome:?}"
        );
        drop(listener);
    }

    #[test]
    fn an_error_on_our_own_plan_reconnects_and_resends_the_batch() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ack = |id: u64| Frame {
            kind: FrameKind::Ack,
            plan_hash: PLAN,
            payload: encode_ack(id, 0),
        };
        let server = thread::spawn(move || {
            let mut acked = 0;
            for life in 0..2 {
                let (mut conn, _) = listener.accept().unwrap();
                let hello = read_frame(&mut conn).unwrap().unwrap();
                assert_eq!(hello.kind, FrameKind::Hello);
                write_frame(&mut conn, &ack(0)).unwrap();
                let batch = read_frame(&mut conn).unwrap().unwrap();
                assert_eq!(decode_batch(&batch.payload).unwrap().0, 1);
                if life == 0 {
                    // The first life dropped the batch (a mid-frame stall,
                    // say), tells the client on its own plan, and closes.
                    let error = Frame::error(PLAN, "read deadline exceeded mid-frame");
                    write_frame(&mut conn, &error).unwrap();
                } else {
                    write_frame(&mut conn, &ack(1)).unwrap();
                    acked += 1;
                    // Hold the connection until the client hangs up.
                    let _ = read_frame(&mut conn);
                }
            }
            acked
        });
        let mut client = Client::connect_with(addr, PLAN, 3, RetryPolicy::default()).unwrap();
        client
            .send_through(1, |_| Ok(Vec::new()))
            .expect("an Error on our own plan is a lost connection, not a rejection");
        assert_eq!(client.last_acked(), 1);
        drop(client);
        assert_eq!(server.join().unwrap(), 1, "batch 1 acked exactly once");
    }
}
