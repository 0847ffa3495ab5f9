//! One serve loop for both tiers (DESIGN.md §15).
//!
//! A tier plugs its protocol into the loop as a [`Handler`] plus a
//! [`Tier`] describing it: the ingest server's session over its worker
//! queues, or the cluster aggregator's Hello/Delta handling over its
//! cluster state. The loop owns everything else, once for both: accepting,
//! framing, the STAT-first and plan-hash prelude, handing `Query` frames
//! to the tier's [`QueryService`], replies in frame order, backpressure,
//! and the idle and mid-frame deadlines.
//!
//! [`serve`] runs the epoll reactor on Linux/x86_64 and the portable loop
//! — one thread per connection over [`TcpTransport`] — elsewhere. The
//! portable loop compiles on every target, so tests drive it on Linux too.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use felip_sync::atomic::{AtomicUsize, Ordering};
use felip_sync::thread;

use crate::query::{reply_frame, CutSource, QueryService};
pub use crate::server::AtomicStats;
use crate::session::prelude;
pub use crate::session::FrameOutcome;
use crate::session::Reply;
use crate::transport::{RecvOutcome, TcpTransport};
use crate::wire::{Frame, FrameView, WireError};

/// How long the portable loop may block writing one reply.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// What the serve loop needs to know about a tier besides its frames.
pub struct Tier<'a, C> {
    /// The plan hash every frame but STAT must carry.
    pub plan_hash: u64,
    /// The counters the loop bumps: connections, rejections, reaps.
    pub stats: &'a AtomicStats,
    /// The service that answers this tier's `Query` frames.
    pub query: &'a QueryService<C>,
    /// How long a frame may take once its first byte arrived; a peer that
    /// stalls longer gets an `Error` frame and is closed.
    pub read_timeout: Duration,
    /// How long a connection may stay quiet before it is reaped.
    pub idle_timeout: Duration,
    /// Ingest workers the tier runs. When nonzero, the reactor takes core 0
    /// and its query worker the core after the workers' (DESIGN.md §15).
    pub workers: usize,
}

/// One tier's frames, as the serve loop sees them (static dispatch).
pub trait Handler: Sync {
    /// Per-connection protocol state.
    type Conn;
    /// State for the `seq`-th accepted connection (numbered from 0).
    fn open(&self, seq: u64) -> Self::Conn;
    /// Answers one frame that passed the prelude.
    fn on_frame(&self, conn: &mut Self::Conn, frame: FrameView<'_>) -> FrameOutcome;
    /// The peer's id for flight-recorder events (0 before its `Hello`).
    fn peer_id(&self, _conn: &Self::Conn) -> u64 {
        0
    }
}

/// Runs one frame through the shared prelude, then the tier's handler.
pub fn dispatch<H: Handler, C>(
    tier: &Tier<'_, C>,
    handler: &H,
    conn: &mut H::Conn,
    frame: FrameView<'_>,
) -> FrameOutcome {
    prelude(&frame, tier.plan_hash, tier.stats).unwrap_or_else(|| handler.on_frame(conn, frame))
}

impl FrameOutcome {
    /// The reply to send, with a `Query` answered on the spot by the
    /// tier's service, and why the connection closes after it, if it does.
    pub fn into_reply<C: CutSource>(self, tier: &Tier<'_, C>) -> (Frame, Option<WireError>) {
        let reply = match self.reply {
            Reply::Frame(f) => f,
            Reply::Query(req) => reply_frame(tier.plan_hash, tier.query.answer(&req)),
        };
        (reply, self.close)
    }
}

/// Which loop serves a tier's connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// The epoll reactor where the target has one, else the portable loop.
    Native,
    /// The portable loop on every target.
    Portable,
}

/// Serves `listener` with `handler` until `stop` returns true, then drops
/// every connection. Returns once every connection thread (portable loop)
/// or the query worker (reactor) has finished.
pub fn serve<C: CutSource + Sync, H: Handler, F: Fn() -> bool + Sync>(
    serve_loop: Loop,
    listener: &TcpListener,
    tier: &Tier<'_, C>,
    handler: &H,
    stop: &F,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    if serve_loop == Loop::Native {
        return crate::reactor::run_reactor(listener, tier, handler, stop);
    }
    let _ = serve_loop;
    let open = AtomicUsize::new(0);
    thread::scope(|scope| {
        // No handle is kept: a finished connection leaves nothing behind,
        // and the scope joins the threads still running at shutdown.
        let (open, mut seq) = (&open, 0u64);
        while !stop() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    felip_obs::counter!("server.accept", 1, "connections");
                    tier.stats.bump_connection();
                    let conn_seq = seq;
                    seq += 1;
                    let now_open = open.fetch_add(1, Ordering::Relaxed) + 1;
                    felip_obs::gauge!("server.conn.open", now_open, "connections");
                    scope.spawn(move || {
                        let conn = handler.open(conn_seq);
                        if let Err(e) = serve_conn(&stream, tier, handler, conn, stop) {
                            // Peer went away or spoke garbage; the
                            // connection is already torn down.
                            felip_obs::counter!("server.conn.errors", 1, "connections");
                            felip_obs::diag::line(&format!("connection closed: {e}"));
                        }
                        let now_open = open.fetch_sub(1, Ordering::Relaxed) - 1;
                        felip_obs::gauge!("server.conn.open", now_open, "connections");
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    })
}

/// Serves one connection of the portable loop over a deadline-aware
/// [`TcpTransport`], answering its queries on the same thread.
fn serve_conn<C: CutSource, H: Handler, F: Fn() -> bool>(
    stream: &TcpStream,
    tier: &Tier<'_, C>,
    handler: &H,
    mut conn: H::Conn,
    stop: &F,
) -> Result<(), WireError> {
    // Some targets hand accepted sockets the listener's nonblocking mode.
    stream.set_nonblocking(false).map_err(WireError::Io)?;
    let mut transport = TcpTransport::new(
        stream,
        stop,
        tier.read_timeout,
        WRITE_TIMEOUT,
        tier.idle_timeout,
    )?;
    loop {
        match transport.recv() {
            RecvOutcome::Frame(frame) => {
                let (reply, close) =
                    dispatch(tier, handler, &mut conn, frame.view()).into_reply(tier);
                match close {
                    // Closing anyway: the error reply is best-effort.
                    Some(e) => {
                        let _ = transport.send(&reply);
                        return Err(e);
                    }
                    None => transport.send(&reply)?,
                }
            }
            // Clean EOF, or the shutdown flag flipped mid-wait.
            RecvOutcome::Eof | RecvOutcome::Shutdown => return Ok(()),
            RecvOutcome::Idle => {
                // The reaper: nothing arrived for the whole idle window.
                // Closing is safe — a client that comes back reconnects
                // and resyncs from its Hello ack.
                tier.stats.bump_reaped();
                return Ok(());
            }
            RecvOutcome::Err(e) => {
                // Garbled framing or a mid-frame stall: tell the peer
                // (best effort) and drop the connection.
                tier.stats.bump_rejected();
                let _ = transport.send(&Frame::error(tier.plan_hash, &e.to_string()));
                return Err(e);
            }
        }
    }
}
