//! The readiness-driven serve hot path: a single-threaded epoll event
//! loop that serves both tiers' connections on Linux/x86_64 (the portable
//! loop in `serve.rs` serves them elsewhere).
//!
//! ## Why an event loop
//!
//! Thread-per-connection pays a context switch per frame (the handler
//! blocks in `read`, the kernel wakes it, it blocks again) plus a 20 ms
//! poll timeout per shutdown check per connection. At millions of
//! reports per second those switches dominate the budget. The reactor
//! instead parks *once* in `epoll_wait` for all connections, drains every
//! readable socket to `EAGAIN` (edge-triggered), decodes frames in place
//! with [`FrameView::decode_prefix`] (zero payload copies), and batches
//! reply bytes per wakeup.
//!
//! ## Discipline
//!
//! * All raw `epoll_*`/`sched_*` syscalls in the workspace live in THIS
//!   file — `xtask analyze` (rule `reactor-syscalls`) enforces it. There is
//!   no libc crate; the syscalls are issued with `core::arch::asm!`.
//! * The reactor does I/O only. Every protocol decision goes through the
//!   tier's [`Handler`] behind the shared prelude ([`dispatch`]) — on the
//!   ingest tier the same `Session` state machine the deterministic chaos
//!   harness drives on its virtual clock. Reactor I/O sits outside the
//!   modeled sync points, so the model checker's session/queue/snapshot
//!   results keep applying verbatim.
//! * The loop is single-threaded: connection state needs no locks. The
//!   only shared mutation (dedup cursors, queue pushes, delta applies)
//!   happens inside the handler call, under `felip_sync` primitives.
//!
//! ## Deadlines
//!
//! `epoll_wait` uses a 10 ms tick so the shutdown flag and the two
//! connection deadlines (idle reap; mid-frame stall) are swept at least
//! every ~10 ms, mirroring the `TcpTransport` semantics: waiting for a
//! frame's *first* byte is bounded by the tier's idle timeout, finishing
//! a frame that started arriving by its read timeout.

use std::cell::Cell;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use felip_sync::thread;

use crate::query::{reply_frame, CutSource};
use crate::queue::Mailbox;
use crate::serve::{dispatch, Handler, Tier};
use crate::session::Reply;
use crate::wire::{Frame, FrameView, QueryRequest, WireError};

// ---------------------------------------------------------------------------
// Raw syscall layer (the only one in the workspace)
// ---------------------------------------------------------------------------

const SYS_CLOSE: usize = 3;
const SYS_SCHED_SETAFFINITY: usize = 203;
const SYS_SCHED_GETAFFINITY: usize = 204;
const SYS_EPOLL_WAIT: usize = 232;
const SYS_EPOLL_CTL: usize = 233;
const SYS_EPOLL_CREATE1: usize = 291;

const EPOLL_CLOEXEC: usize = 0o2000000;
const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_MOD: usize = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

const EINTR: i32 = 4;

/// One raw Linux syscall with up to four arguments, returning the raw
/// kernel result (negative errno on failure).
///
/// # Safety
///
/// The caller must pass a valid syscall number and arguments satisfying
/// that syscall's contract: pointers must be valid for the access the
/// kernel performs, lengths must match, and fds must be owned.
// SAFETY: callers uphold the per-syscall contract spelled out in the
// `# Safety` doc above; the body itself only encodes the kernel ABI.
unsafe fn syscall4(nr: usize, a: usize, b: usize, c: usize, d: usize) -> isize {
    let ret: isize;
    // SAFETY: this emits the bare x86_64 Linux syscall ABI — number in
    // rax, arguments in rdi/rsi/rdx/r10, result in rax, rcx/r11
    // clobbered by the `syscall` instruction. Nothing else is touched;
    // the semantic contract of the specific syscall is the caller's
    // obligation per this function's safety doc.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// Converts a raw syscall return into `io::Result`.
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// `struct epoll_event` — packed on x86_64 (the one architecture this
/// module compiles for), so the u64 payload sits at offset 4.
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// An owned epoll instance.
struct Epoll {
    fd: i32,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes only a flags word and returns a
        // fresh fd this struct then owns (closed in Drop).
        let fd = check(unsafe { syscall4(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0) })?;
        Ok(Epoll { fd: fd as i32 })
    }

    /// Registers or re-arms `fd` with the given interest mask and token.
    fn ctl(&self, op: usize, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `&ev` is a valid, live `struct epoll_event` pointer for
        // the duration of the call (the kernel copies it before
        // returning); `self.fd` and `fd` are open fds we (or the caller)
        // own.
        check(unsafe {
            syscall4(
                SYS_EPOLL_CTL,
                self.fd as usize,
                op,
                fd as usize,
                &ev as *const EpollEvent as usize,
            )
        })?;
        Ok(())
    }

    /// Waits up to `timeout_ms` for events, retrying on `EINTR`.
    fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the pointer/length pair describes the caller's
            // `events` buffer, which the kernel fills with at most
            // `events.len()` entries; `self.fd` is the owned epoll fd.
            let ret = unsafe {
                syscall4(
                    SYS_EPOLL_WAIT,
                    self.fd as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    timeout_ms as usize,
                )
            };
            if ret == -(EINTR as isize) {
                continue;
            }
            return check(ret);
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is the epoll fd this struct owns; it is
        // closed exactly once, here.
        unsafe {
            syscall4(SYS_CLOSE, self.fd as usize, 0, 0, 0);
        }
    }
}

/// CPU affinity mask wide enough for 1024 cores.
type CpuMask = [u64; 16];

/// Pins the *calling thread* to `core`. Returns whether the kernel
/// accepted the mask (failure is harmless — the thread just floats).
fn pin_to_core(core: usize) -> bool {
    let mut mask: CpuMask = [0; 16];
    mask[(core / 64) % 16] = 1u64 << (core % 64);
    // SAFETY: pid 0 addresses the calling thread; the pointer/length
    // pair describes `mask`, which outlives the call (the kernel copies
    // it before returning).
    let ret = unsafe {
        syscall4(
            SYS_SCHED_SETAFFINITY,
            0,
            std::mem::size_of::<CpuMask>(),
            mask.as_ptr() as usize,
            0,
        )
    };
    ret >= 0
}

/// How many cores the process may run on (its affinity mask width).
fn num_cores() -> usize {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: pid 0 addresses the calling thread; the kernel writes at
    // most `size_of::<CpuMask>()` bytes into `mask`.
    let ret = unsafe {
        syscall4(
            SYS_SCHED_GETAFFINITY,
            0,
            std::mem::size_of::<CpuMask>(),
            mask.as_mut_ptr() as usize,
            0,
        )
    };
    if ret <= 0 {
        return 1;
    }
    let bits: u32 = mask.iter().map(|w| w.count_ones()).sum();
    (bits as usize).max(1)
}

/// Pins ingest worker `w` under the serve pinning policy: the reactor
/// owns core 0, workers round-robin over the remaining cores (the query
/// worker takes the slot after the last ingest worker). On a single-core
/// box pinning is skipped (everything shares the core regardless, and an
/// explicit mask would only fight the scheduler). A tier without ingest
/// workers (the cluster aggregator) pins nothing.
pub(crate) fn pin_worker(w: usize) {
    let n = num_cores();
    if n > 1 {
        let _ = pin_to_core(1 + w % (n - 1));
    }
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

/// The listener's epoll token; connections use their slab index.
const LISTENER_TOKEN: u64 = u64::MAX;

/// The query worker's wake socket's epoll token.
const WAKE_TOKEN: u64 = u64::MAX - 1;

/// Base interest for every connection: readable + peer-closed, edge
/// triggered.
const CONN_INTEREST: u32 = EPOLLIN | EPOLLRDHUP | EPOLLET;

/// Per-connection state owned by the reactor (single-threaded, so none
/// of this needs locks).
struct Conn<C> {
    stream: TcpStream,
    /// The handler's protocol state for this connection.
    state: C,
    /// Bytes received but not yet decoded: at most one partial frame
    /// after each wakeup, or — while a query is out — what the last read
    /// pass took before decoding parked.
    rbuf: Vec<u8>,
    /// Encoded reply bytes not yet written to the socket.
    wbuf: Vec<u8>,
    /// How much of `wbuf` is already written.
    wpos: usize,
    /// Last instant any byte arrived (drives the idle reap).
    last_byte: Instant,
    /// Set while `rbuf` holds a partial frame (drives the stall check).
    partial_since: Option<Instant>,
    /// Whether `EPOLLOUT` is currently armed (kernel buffer was full).
    want_write: bool,
    /// Close once `wbuf` drains (a fatal reply is in flight).
    close_after_flush: Option<WireError>,
    /// Stamped at accept from a run-wide counter: a query reply names the
    /// generation it was asked on, so a slot's next occupant never gets
    /// its predecessor's answer.
    generation: u64,
    /// A query is out at the query worker. Decoding and reading are
    /// parked until its reply lands, so replies leave in the order frames
    /// arrived and unread bytes stay in the kernel (TCP backpressure).
    query_out: bool,
}

/// A `Query` frame handed to the query worker, tagged with the
/// connection it came from.
struct QueryJob {
    slot: usize,
    generation: u64,
    req: QueryRequest,
}

/// The query worker's encoded reply for one [`QueryJob`].
struct QueryDone {
    slot: usize,
    generation: u64,
    reply: Frame,
}

/// Flight-event codes for [`felip_obs::flight::KIND_CONN`] records.
const CONN_OPEN: u16 = 0;
/// Clean close (EOF, reap, shutdown).
const CONN_CLOSE_CLEAN: u16 = 1;
/// Close after a protocol/transport error.
const CONN_CLOSE_ERROR: u16 = 2;

/// Why a connection ended (mirrors the portable loop's paths).
enum Closed {
    /// Clean EOF, idle reap, or shutdown — not an error.
    Clean,
    /// Protocol/transport failure; logged like the portable loop logs
    /// its connection errors.
    Error(WireError),
}

/// What every connection needs besides the connection itself.
struct Shared<'a, H, C> {
    epoll: &'a Epoll,
    tier: &'a Tier<'a, C>,
    handler: &'a H,
    /// Where `Query` frames go: the query worker's inbox.
    jobs: &'a Mailbox<QueryJob>,
    /// Starts the query worker. The first `Query` takes it, so a run that
    /// is never asked never has the thread.
    start_worker: Cell<Option<Box<dyn FnOnce() + 'a>>>,
}

/// Runs the serve event loop until `stop` flips. Accepts connections,
/// drains readable sockets, decodes and dispatches frames through the
/// shared prelude and `handler`, hands `Query` frames to one query worker
/// thread and writes its replies back, and enforces the idle/stall
/// deadlines — everything but query answering on the calling thread.
pub(crate) fn run_reactor<C: CutSource + Sync, H: Handler, F: Fn() -> bool>(
    listener: &TcpListener,
    tier: &Tier<'_, C>,
    handler: &H,
    stop: &F,
) -> io::Result<()> {
    if tier.workers > 0 && num_cores() > 1 {
        // Keep the hot loop cache-resident on core 0; workers take 1..n.
        let _ = pin_to_core(0);
    }
    let epoll = Epoll::new()?;
    epoll.ctl(EPOLL_CTL_ADD, listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
    // The query worker posts replies to `done`, then writes one byte to
    // `wake_tx`. The reactor empties `wake_rx` *before* taking `done`, so
    // a reply posted after that take always brings a fresh edge.
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    epoll.ctl(
        EPOLL_CTL_ADD,
        wake_rx.as_raw_fd(),
        EPOLLIN | EPOLLET,
        WAKE_TOKEN,
    )?;
    let jobs = Mailbox::default();
    let done = Mailbox::default();
    thread::scope(|scope| {
        let (jobs_in, done_out, wake) = (&jobs, &done, &wake_tx);
        let shared = Shared {
            epoll: &epoll,
            tier,
            handler,
            jobs: &jobs,
            start_worker: Cell::new(Some(Box::new(move || {
                scope.spawn(move || query_worker(tier, jobs_in, done_out, wake));
            }))),
        };
        let served = event_loop(listener, &shared, &wake_rx, &done, stop);
        // The worker finishes its batch and exits; replies it still posts
        // die with their connections.
        jobs.close();
        served
    })
}

/// The query worker: answers queued queries one at a time, in arrival
/// order, posting each reply and waking the reactor as soon as it is
/// ready.
fn query_worker<C: CutSource>(
    tier: &Tier<'_, C>,
    jobs: &Mailbox<QueryJob>,
    done: &Mailbox<QueryDone>,
    mut wake: &UnixStream,
) {
    // Pinning policy (DESIGN.md §15): off core 0, after the ingest workers.
    if tier.workers > 0 {
        pin_worker(tier.workers);
    }
    while let Some(queued) = jobs.wait_take() {
        for job in queued {
            let reply = reply_frame(tier.plan_hash, tier.query.answer(&job.req));
            done.post(QueryDone {
                slot: job.slot,
                generation: job.generation,
                reply,
            });
            // A full wake socket already holds an unread byte, so a
            // refused write loses no wakeup.
            let _ = wake.write(&[1]);
        }
    }
}

/// The reactor proper; see [`run_reactor`].
fn event_loop<H: Handler, C, F: Fn() -> bool>(
    listener: &TcpListener,
    sh: &Shared<'_, H, C>,
    wake_rx: &UnixStream,
    done: &Mailbox<QueryDone>,
    stop: &F,
) -> io::Result<()> {
    let mut conns: Vec<Option<Conn<H::Conn>>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events = vec![EpollEvent { events: 0, data: 0 }; 1024];
    // Socket reads land here first, then append to the connection's
    // rbuf; one scratch serves every connection since the loop is
    // single-threaded.
    let mut scratch = vec![0u8; 256 * 1024];
    let mut next_conn = 0u64;
    let mut last_sweep = Instant::now();

    while !stop() {
        let n = sh.epoll.wait(&mut events, 10)?;
        // Indices freed this batch are reusable only on the next one, so
        // a stale event late in `events` can never alias a fresh
        // connection accepted earlier in the same batch.
        let mut freed: Vec<usize> = Vec::new();
        for ev in events.iter().take(n) {
            let (mask, token) = (ev.events, ev.data);
            if token == LISTENER_TOKEN {
                let t0 = Instant::now();
                accept_ready(listener, sh, &mut conns, &mut free, &mut next_conn)?;
                felip_obs::hist!("server.stage.accept", t0.elapsed().as_nanos() as u64, "ns");
                continue;
            }
            if token == WAKE_TOKEN {
                drain_wake(wake_rx);
                for reply in done.take() {
                    let slot = reply.slot;
                    let Some(conn) = conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                        continue; // the asker closed; nobody to tell
                    };
                    if conn.generation != reply.generation {
                        continue; // the slot was reused; not this peer's answer
                    }
                    conn.query_out = false;
                    let r = reply.reply;
                    crate::wire::append_frame(&mut conn.wbuf, r.kind, r.plan_hash, &r.payload);
                    // Resume: read what the kernel held back (to EAGAIN,
                    // so edge-triggered readiness re-arms), then decode
                    // the frames parked behind the query.
                    if let Some(closed) = on_readable(conn, slot as u64, sh, &mut scratch) {
                        close_slot(&mut conns, &mut freed, slot, closed);
                    }
                }
                continue;
            }
            let idx = token as usize;
            let Some(conn) = conns.get_mut(idx).and_then(|c| c.as_mut()) else {
                // The connection died earlier in this batch (it cannot
                // have been replaced — see `freed`).
                continue;
            };
            if let Some(closed) = handle_event(conn, mask, token, sh, &mut scratch) {
                close_slot(&mut conns, &mut freed, idx, closed);
            }
        }
        free.append(&mut freed);

        if last_sweep.elapsed() >= Duration::from_millis(10) {
            last_sweep = Instant::now();
            sweep_deadlines(&mut conns, &mut free, sh.tier);
            let open = conns.len() - free.len();
            felip_obs::gauge!("server.conn.open", open, "connections");
        }
    }

    // Shutdown: flush whatever reply bytes are pending (best effort) and
    // drop every connection; clients resync via Hello on reconnect.
    for conn in conns.iter_mut().flatten() {
        let _ = flush(conn);
    }
    Ok(())
}

/// Ends the connection in slot `idx`; the slot becomes reusable with the
/// next event batch.
fn close_slot<C>(
    conns: &mut [Option<Conn<C>>],
    freed: &mut Vec<usize>,
    idx: usize,
    closed: Closed,
) {
    finish(closed);
    if let Some(slot) = conns.get_mut(idx) {
        *slot = None;
    }
    freed.push(idx);
}

/// Empties the wake socket (edge-triggered: read to `EAGAIN`).
fn drain_wake(mut wake: &UnixStream) {
    let mut buf = [0u8; 64];
    loop {
        match wake.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Accepts until the listener would block, registering each connection
/// edge-triggered with the handler's state for it. `next_conn` numbers
/// accepted connections: the handler sees the number (the ingest tier
/// picks a worker with it) and it becomes the connection's generation.
fn accept_ready<H: Handler, C>(
    listener: &TcpListener,
    sh: &Shared<'_, H, C>,
    conns: &mut Vec<Option<Conn<H::Conn>>>,
    free: &mut Vec<usize>,
    next_conn: &mut u64,
) -> io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                felip_obs::counter!("server.accept", 1, "connections");
                sh.tier.stats.bump_connection();
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    // The peer is already gone; nothing to clean up.
                    continue;
                }
                let generation = *next_conn;
                *next_conn += 1;
                let conn = Conn {
                    stream,
                    state: sh.handler.open(generation),
                    rbuf: Vec::new(),
                    wbuf: Vec::new(),
                    wpos: 0,
                    last_byte: Instant::now(),
                    partial_since: None,
                    want_write: false,
                    close_after_flush: None,
                    generation,
                    query_out: false,
                };
                let idx = match free.pop() {
                    Some(i) => i,
                    None => {
                        conns.push(None);
                        conns.len() - 1
                    }
                };
                let fd = conn.stream.as_raw_fd();
                if let Some(slot) = conns.get_mut(idx) {
                    *slot = Some(conn);
                }
                if sh
                    .epoll
                    .ctl(EPOLL_CTL_ADD, fd, CONN_INTEREST, idx as u64)
                    .is_err()
                {
                    // Registration failed (fd limit pressure); drop it.
                    if let Some(slot) = conns.get_mut(idx) {
                        *slot = None;
                    }
                    free.push(idx);
                } else {
                    felip_obs::flight::flight().record(
                        felip_obs::flight::KIND_CONN,
                        CONN_OPEN,
                        idx as u64,
                        0,
                    );
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Transient per-connection accept failures (ECONNABORTED,
            // EMFILE under load) must not kill the serve loop.
            Err(_) => return Ok(()),
        }
    }
}

/// Handles one epoll event for a connection. Returns `Some` when the
/// connection must be dropped.
fn handle_event<H: Handler, C>(
    conn: &mut Conn<H::Conn>,
    mask: u32,
    token: u64,
    sh: &Shared<'_, H, C>,
    scratch: &mut [u8],
) -> Option<Closed> {
    if mask & (EPOLLERR | EPOLLHUP) != 0 {
        return Some(Closed::Error(WireError::Io(io::Error::new(
            io::ErrorKind::ConnectionReset,
            "socket error/hangup between readiness and read",
        ))));
    }
    if mask & EPOLLOUT != 0 {
        match flush(conn) {
            Ok(true) => {
                if let Some(e) = conn.close_after_flush.take() {
                    return Some(Closed::Error(e));
                }
                // Kernel buffer drained: stop watching for writability.
                if conn.want_write
                    && sh
                        .epoll
                        .ctl(EPOLL_CTL_MOD, conn.stream.as_raw_fd(), CONN_INTEREST, token)
                        .is_err()
                {
                    return Some(Closed::Error(WireError::Io(io::Error::other(
                        "failed to disarm EPOLLOUT",
                    ))));
                }
                conn.want_write = false;
            }
            Ok(false) => {} // still blocked; EPOLLOUT stays armed
            Err(e) => return Some(Closed::Error(WireError::Io(e))),
        }
    }
    // While a query is out the socket is left unread: the reply's
    // arrival resumes with a read to EAGAIN.
    if mask & (EPOLLIN | EPOLLRDHUP) != 0 && !conn.query_out {
        return on_readable(conn, token, sh, scratch);
    }
    None
}

/// Drains the socket to `EAGAIN` (edge-triggered contract), then
/// processes what arrived.
fn on_readable<H: Handler, C>(
    conn: &mut Conn<H::Conn>,
    token: u64,
    sh: &Shared<'_, H, C>,
    scratch: &mut [u8],
) -> Option<Closed> {
    let t_read = Instant::now();
    let mut eof = false;
    loop {
        match (&conn.stream).read(scratch) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(got) => {
                conn.rbuf.extend_from_slice(&scratch[..got]);
                conn.last_byte = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                // Reset between readiness and read: the wakeup raced the
                // peer's RST. Nothing decoded from this wakeup is lost —
                // acked batches are already queued.
                return Some(Closed::Error(WireError::Io(e)));
            }
        }
    }
    process(conn, token, sh, t_read.elapsed().as_nanos() as u64, eof)
}

/// Decodes and dispatches every complete buffered frame, queues replies,
/// and flushes. A `Query` goes to the query worker and parks decoding:
/// the frames behind it wait in `rbuf` (and the kernel) until its reply
/// lands, which reads and calls this again. `read_ns` is the socket-read
/// time to charge to the first decoded frame; `eof` says the peer
/// half-closed.
fn process<H: Handler, C>(
    conn: &mut Conn<H::Conn>,
    token: u64,
    sh: &Shared<'_, H, C>,
    read_ns: u64,
    eof: bool,
) -> Option<Closed> {
    // Decode every complete frame in place; payloads borrow from rbuf.
    // Each stage records one histogram observation *per frame* (not the
    // old per-wakeup ns-sum counters), so the exported quantiles describe
    // real per-frame latency. The socket-read time is charged to the
    // first frame's decode observation (`carry`); a wakeup that decodes
    // nothing records no stage observations.
    let mut consumed = 0usize;
    let mut fatal: Option<WireError> = None;
    let mut t_prev = Instant::now();
    let mut carry = read_ns;
    while !conn.query_out {
        match FrameView::decode_prefix(&conn.rbuf[consumed..]) {
            Ok(Some((view, used))) => {
                let t_decoded = Instant::now();
                felip_obs::hist!(
                    "server.stage.decode",
                    carry + (t_decoded - t_prev).as_nanos() as u64,
                    "ns"
                );
                carry = 0;
                let frame_kind = view.kind as u16;
                let frame_len = view.payload.len() as u64;
                let outcome = dispatch(sh.tier, sh.handler, &mut conn.state, view);
                consumed += used;
                let t_ingested = Instant::now();
                felip_obs::hist!(
                    "server.stage.ingest",
                    (t_ingested - t_decoded).as_nanos() as u64,
                    "ns"
                );
                felip_obs::flight::flight().record(
                    felip_obs::flight::KIND_FRAME,
                    frame_kind,
                    sh.handler.peer_id(&conn.state),
                    frame_len,
                );
                match outcome.reply {
                    Reply::Frame(reply) => crate::wire::append_frame(
                        &mut conn.wbuf,
                        reply.kind,
                        reply.plan_hash,
                        &reply.payload,
                    ),
                    Reply::Query(req) => {
                        if let Some(start) = sh.start_worker.take() {
                            start();
                        }
                        sh.jobs.post(QueryJob {
                            slot: token as usize,
                            generation: conn.generation,
                            req,
                        });
                        conn.query_out = true;
                    }
                }
                t_prev = Instant::now();
                felip_obs::hist!(
                    "server.stage.ack",
                    (t_prev - t_ingested).as_nanos() as u64,
                    "ns"
                );
                if let Some(e) = outcome.close {
                    fatal = Some(e);
                    break;
                }
            }
            Ok(None) => break,
            Err(e) => {
                // Garbled framing: answer with an error (best effort)
                // and drop the connection, like the portable loop.
                sh.tier.stats.bump_rejected();
                felip_obs::flight::flight().record(
                    felip_obs::flight::KIND_ERROR,
                    0,
                    felip_obs::flight::fnv1a(&e.to_string()),
                    0,
                );
                let reply = Frame::error(sh.tier.plan_hash, &e.to_string());
                crate::wire::append_frame(
                    &mut conn.wbuf,
                    reply.kind,
                    reply.plan_hash,
                    &reply.payload,
                );
                fatal = Some(e);
                break;
            }
        }
    }

    // Drop consumed bytes. Whatever remains is one partial frame whose
    // stall clock starts at the first pass that saw it — unless decoding
    // is parked: then the bytes wait on us, not on the peer.
    if consumed > 0 {
        let len = conn.rbuf.len();
        conn.rbuf.copy_within(consumed..len, 0);
        conn.rbuf.truncate(len - consumed);
    }
    conn.partial_since = if conn.query_out || conn.rbuf.is_empty() {
        None
    } else if consumed > 0 {
        Some(Instant::now())
    } else {
        conn.partial_since.or_else(|| Some(Instant::now()))
    };
    // A half-closed peer is done once nothing it sent waits on a query;
    // the resuming read sees the EOF again.
    let eof = eof && !conn.query_out;

    let t_flush = Instant::now();
    let result = match flush(conn) {
        Ok(true) => match fatal {
            Some(e) => Some(Closed::Error(e)),
            None if eof => Some(Closed::Clean),
            None => None,
        },
        Ok(false) => {
            if eof {
                // Peer half-closed and its receive window is full — the
                // replies can never land; don't keep a zombie.
                return Some(match fatal {
                    Some(e) => Closed::Error(e),
                    None => Closed::Clean,
                });
            }
            if let Some(e) = fatal {
                conn.close_after_flush = Some(e);
            }
            if !conn.want_write {
                if sh
                    .epoll
                    .ctl(
                        EPOLL_CTL_MOD,
                        conn.stream.as_raw_fd(),
                        CONN_INTEREST | EPOLLOUT,
                        token,
                    )
                    .is_err()
                {
                    return Some(Closed::Error(WireError::Io(io::Error::other(
                        "failed to arm EPOLLOUT",
                    ))));
                }
                conn.want_write = true;
            }
            None
        }
        Err(e) => Some(Closed::Error(WireError::Io(e))),
    };
    felip_obs::hist!(
        "server.stage.flush",
        t_flush.elapsed().as_nanos() as u64,
        "ns"
    );
    result
}

/// Writes pending reply bytes until done (`Ok(true)`) or the kernel
/// buffer fills (`Ok(false)`).
fn flush<C>(conn: &mut Conn<C>) -> io::Result<bool> {
    while conn.wpos < conn.wbuf.len() {
        match (&conn.stream).write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "socket accepted zero bytes",
                ))
            }
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    conn.wbuf.clear();
    conn.wpos = 0;
    Ok(true)
}

/// Enforces the idle and mid-frame-stall deadlines across all live
/// connections (runs on the 10 ms tick).
fn sweep_deadlines<S, C>(conns: &mut [Option<Conn<S>>], free: &mut Vec<usize>, tier: &Tier<'_, C>) {
    let now = Instant::now();
    for (idx, slot) in conns.iter_mut().enumerate() {
        let Some(conn) = slot.as_mut() else { continue };
        let closed = if conn
            .partial_since
            .is_some_and(|t| now.duration_since(t) >= tier.read_timeout)
        {
            // A frame started arriving and stalled: an error, not
            // idleness — matches `TcpTransport`'s stall semantics.
            let e = WireError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "read deadline exceeded mid-frame",
            ));
            tier.stats.bump_rejected();
            let reply = Frame::error(tier.plan_hash, &e.to_string());
            crate::wire::append_frame(&mut conn.wbuf, reply.kind, reply.plan_hash, &reply.payload);
            let _ = flush(conn);
            Some(Closed::Error(e))
        } else if !conn.query_out && now.duration_since(conn.last_byte) >= tier.idle_timeout {
            // Quiet too long: reap. Safe — a returning client
            // reconnects and resyncs its cursor from the Hello ack.
            tier.stats.bump_reaped();
            Some(Closed::Clean)
        } else {
            None
        };
        if let Some(closed) = closed {
            finish(closed);
            *slot = None;
            free.push(idx);
        }
    }
}

/// Final accounting for a closing connection (parity with how the
/// portable loop logs its connection results).
fn finish(closed: Closed) {
    match closed {
        Closed::Error(e) => {
            felip_obs::counter!("server.conn.errors", 1, "connections");
            let msg = format!("connection closed: {e}");
            felip_obs::flight::flight().record(
                felip_obs::flight::KIND_CONN,
                CONN_CLOSE_ERROR,
                felip_obs::flight::fnv1a(&msg),
                0,
            );
            felip_obs::diag::line(&msg);
        }
        Closed::Clean => {
            felip_obs::flight::flight().record(
                felip_obs::flight::KIND_CONN,
                CONN_CLOSE_CLEAN,
                0,
                0,
            );
        }
    }
}
