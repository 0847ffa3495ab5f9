//! `ingest_wire` and `query_mixed`: an in-process ingest server on
//! loopback with one ingest worker.
//!
//! * `ingest_wire` streams pre-encoded `ReportBatch` frames open loop and
//!   polls `Stat` closed loop with a think time: wire decode, reactor,
//!   session, queue and accumulate do all the work; nothing estimates.
//! * `query_mixed` streams reports at a lower rate while a second
//!   connection asks the paper's λ = 2 list in `Cached` mode closed loop.
//!   Every query after ingest moved the head cuts, refreshes and rebuilds
//!   its response matrix on the reactor thread, so the query path shows
//!   in both query and ack latency.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use felip::aggregator::{Aggregator, OracleSet};
use felip::client::UserReport;
use felip::CollectionPlan;
use felip_common::rng::derive_seed;
use felip_common::{Query, Result};
use felip_server::loadgen::{offline_reference, user_report};
use felip_server::wire::{
    decode_query_reply, encode_batch, encode_query, encode_stat, Frame, FrameKind, QueryMode,
    QueryRequest, StatMode,
};
use felip_server::{Server, ServerConfig, ServerRun};

use crate::layers;
use crate::net::{burst_completion_ms, Ask, Asker, Conn, Feed, Load, Schedule, Tracker, Writer};
use crate::paper::{self, N};
use crate::trace::Tracer;
use crate::{Opts, Outcome, Window};

/// Distinct users behind the replayed frames.
const USERS: usize = 100_000;
/// Open-loop warm-up before the timed window, part of set-up.
const WARMUP: Duration = Duration::from_millis(500);
/// How long to wait for outstanding replies after the window.
const GRACE: Duration = Duration::from_secs(10);

/// The two ways the server is loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 10⁶ reports/s in frames of 4 000, sent in bursts of 16 frames; a
    /// flight-recorder `Stat` and a metrics `Stat` in turn, 10 ms apart.
    IngestOnly,
    /// 10⁵ reports/s in frames of 500; λ = 2 queries back to back, with
    /// one `Stat` after each pass over the list.
    WithQueries,
}

impl Mix {
    /// Reports per `ReportBatch` frame.
    pub fn batch(self) -> usize {
        match self {
            Mix::IngestOnly => 4000,
            Mix::WithQueries => 500,
        }
    }

    /// Frames sent together with one due time. Ingest-only traffic comes
    /// in bursts of 64 000 reports (many clients flushing at once), so a
    /// burst's completion time is set by server work rather than by
    /// thread wake-ups.
    pub fn burst(self) -> u64 {
        match self {
            Mix::IngestOnly => 16,
            Mix::WithQueries => 1,
        }
    }

    /// Offered `ReportBatch` frames per second.
    pub fn frame_rate(self) -> f64 {
        match self {
            Mix::IngestOnly => 250.0,
            // A num × num query stalls the reactor ~0.1 s; at this rate the
            // frames that pile up meanwhile stay far below the worker
            // queue's 64 slots, so backpressure never fires.
            Mix::WithQueries => 200.0,
        }
    }
}

/// A served server running on its own threads.
struct Running<R> {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<R>>,
}

impl<R> Running<R> {
    /// Runs `serve` on a new thread; `stop` ends it.
    fn spawn(stop: Arc<AtomicBool>, serve: impl FnOnce() -> R + Send + 'static) -> Self
    where
        R: Send + 'static,
    {
        Running {
            stop,
            thread: Some(std::thread::spawn(serve)),
        }
    }

    /// Stops the server and returns what its run returned.
    fn finish(mut self) -> R {
        self.stop.store(true, Ordering::SeqCst);
        self.thread
            .take()
            .expect("finish runs once")
            .join()
            .expect("server thread panicked")
    }
}

impl<R> Drop for Running<R> {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = t.join();
        }
    }
}

struct Setup {
    plan: Arc<CollectionPlan>,
    seed: u64,
    frames: Vec<Vec<u8>>,
    reports: Vec<UserReport>,
    queries: Vec<Query>,
    // Dropped before the server, so a discarded set-up closes its
    // connections first.
    load: Load,
    server: Running<std::result::Result<ServerRun, felip_server::ServerError>>,
    plan_ms: f64,
    perturb_ns: f64,
}

fn setup(mix: Mix, seed: u64) -> Result<Setup> {
    let t = Instant::now();
    let plan = Arc::new(paper::plan(N, derive_seed(seed, 1))?);
    let plan_ms = t.elapsed().as_secs_f64() * 1e3;
    let plan_hash = plan.schema_hash();
    let report_seed = derive_seed(seed, 2);
    let t = Instant::now();
    let reports: Vec<UserReport> = (0..USERS)
        .map(|u| user_report(&plan, u, report_seed))
        .collect::<Result<_>>()?;
    let perturb_ns = t.elapsed().as_nanos() as f64 / USERS as f64;
    let frames = encode_frames(plan_hash, &reports, mix.batch());
    let counts: Vec<u32> = reports
        .chunks(mix.batch())
        .map(|c| c.len() as u32)
        .collect();

    let server = Server::bind(
        Arc::clone(&plan),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| felip_common::Error::InvalidParameter(e.to_string()))?;
    let addr = server.local_addr();
    let server = Running::spawn(server.shutdown_handle(), move || server.run(None));

    let stat = |mode, ask| {
        let f = Frame {
            kind: FrameKind::Stat,
            plan_hash,
            payload: encode_stat(mode),
        };
        (f.encode(), ask)
    };
    let queries = paper::queries(2);
    let (items, think) = match mix {
        // The flight-recorder dump is the ingest-only workload's read: real
        // work on the reactor (1 024 events as JSON lines), no estimation.
        // The metrics `Stat` between dumps measures the wire floor.
        Mix::IngestOnly => (
            vec![
                stat(StatMode::Flight, Ask::Flight),
                stat(StatMode::Full, Ask::Stat),
            ],
            Duration::from_millis(10),
        ),
        Mix::WithQueries => {
            let mut items = query_frames(plan_hash, &queries, QueryMode::Cached);
            items.push(stat(StatMode::Full, Ask::Stat));
            (items, Duration::ZERO)
        }
    };
    let io = |e: std::io::Error| felip_common::Error::InvalidParameter(e.to_string());
    let writer = Writer {
        conn: Conn::connect(addr).map_err(io)?,
        feed: Feed {
            frames: frames.clone(),
            reports: counts,
            client_base: derive_seed(seed, 3),
            plan_hash,
            sent: 0,
        },
        schedule: Schedule::bursts(mix.frame_rate(), mix.burst()),
        tracker: Tracker::default(),
    };
    let asker = Asker::new(Conn::connect(addr).map_err(io)?, items, think);
    let mut load = Load::new(Some(writer), Some(asker));
    load.run(Instant::now() + WARMUP, false, GRACE);
    Ok(Setup {
        plan,
        seed: report_seed,
        frames,
        reports,
        queries,
        server,
        load,
        plan_ms,
        perturb_ns,
    })
}

/// `ReportBatch` frames 1, 2, … of `batch` reports each.
fn encode_frames(plan_hash: u64, reports: &[UserReport], batch: usize) -> Vec<Vec<u8>> {
    reports
        .chunks(batch)
        .enumerate()
        .map(|(i, chunk)| {
            Frame {
                kind: FrameKind::ReportBatch,
                plan_hash,
                payload: encode_batch(i as u64 + 1, chunk).expect("batch encodes"),
            }
            .encode()
        })
        .collect()
}

/// Pre-encoded `Query` frames for `queries`.
fn query_frames(plan_hash: u64, queries: &[Query], mode: QueryMode) -> Vec<(Vec<u8>, Ask)> {
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let req = QueryRequest {
                query_id: i as u64 + 1,
                mode,
                predicates: q.predicates().to_vec(),
            };
            let frame = Frame {
                kind: FrameKind::Query,
                plan_hash,
                payload: encode_query(&req).expect("paper queries encode"),
            };
            (frame.encode(), Ask::Query)
        })
        .collect()
}

/// Runs the load until `secs` pass and returns the window's samples;
/// `read` picks which closed-loop round trips are the workload's reads.
fn window(load: &mut Load, secs: f64, read: Ask) -> Window {
    let marks = |l: &Load| {
        let w = l.writer.as_ref().expect("wire workloads write");
        let a = l.asker.as_ref().expect("wire workloads read");
        (
            w.tracker.latency_ms.len(),
            w.tracker.lag_ms.len(),
            a.query_ms.len(),
            a.stat_ms.len(),
            a.flight_ms.len(),
            w.tracker.acked_reports,
        )
    };
    let (w0, l0, q0, s0, f0, r0) = marks(load);
    let mut win = Window::start();
    load.run(Instant::now() + Duration::from_secs_f64(secs), false, GRACE);
    let w = load.writer.as_ref().expect("wire workloads write");
    let a = load.asker.as_ref().expect("wire workloads read");
    win.ack_ms = w.tracker.latency_ms[w0..].to_vec();
    win.write_ms = burst_completion_ms(
        w.tracker.acked_due[w0..]
            .iter()
            .copied()
            .zip(win.ack_ms.iter().copied()),
    );
    win.lag_ms = w.tracker.lag_ms[l0..].to_vec();
    win.query_ms = a.query_ms[q0..].to_vec();
    win.stat_ms = a.stat_ms[s0..].to_vec();
    win.read_ms = match read {
        Ask::Query => win.query_ms.clone(),
        Ask::Stat => win.stat_ms.clone(),
        Ask::Flight => a.flight_ms[f0..].to_vec(),
    };
    win.reports = w.tracker.acked_reports - r0;
    win.stop()
}

/// `reps` copies of `full` plus `part`, as one aggregator.
fn scaled(full: &Aggregator, reps: u64, part: &Aggregator) -> Result<Aggregator> {
    let counts = full
        .counts()
        .iter()
        .zip(part.counts())
        .map(|(f, p)| f.iter().zip(p).map(|(a, b)| a * reps + b).collect())
        .collect();
    let sizes = full
        .group_sizes()
        .iter()
        .zip(part.group_sizes())
        .map(|(a, b)| a * reps as usize + b)
        .collect();
    Aggregator::restore(
        full.plan_handle(),
        Arc::new(OracleSet::build(full.plan())),
        counts,
        sizes,
    )
}

/// Asks every query `Fresh` on `asker`'s connection and compares the
/// answers bit for bit with the offline estimate from `expected`.
fn fresh_check(
    conn: &mut Conn,
    plan_hash: u64,
    queries: &[Query],
    expected: &Aggregator,
    out: &mut Outcome,
) -> Result<()> {
    let offline = expected.estimate()?;
    for (q, (frame, _)) in queries
        .iter()
        .zip(query_frames(plan_hash, queries, QueryMode::Fresh))
    {
        out.attempted += 1;
        let want = offline.answer(q)?;
        match conn.request(&frame, GRACE) {
            Ok(f) if f.kind == FrameKind::QueryReply => match decode_query_reply(&f.payload) {
                Ok(a) => out.check_bits(&[a.answer], &[want], "final Fresh answer"),
                Err(e) => out.fail(format!("final Fresh reply: {e}")),
            },
            Ok(f) => out.fail(format!("final Fresh query answered {:?}", f.kind)),
            Err(e) => out.fail(format!("final Fresh query: {e}")),
        }
    }
    Ok(())
}

/// Runs `ingest_wire` or `query_mixed`.
pub fn run(mix: Mix, opts: &Opts, out: &mut Outcome) -> Result<()> {
    let mut s = crate::timed_setup(out, || setup(mix, opts.seed))?;
    let ask = match mix {
        Mix::IngestOnly => Ask::Flight,
        Mix::WithQueries => Ask::Query,
    };
    let tr = Tracer::new(opts.trace);
    let traced = if opts.trace {
        let untraced = window(&mut s.load, opts.seconds / 2.0, ask);
        felip_obs::global().reset();
        felip_obs::enable();
        let depth = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let d = std::rc::Rc::clone(&depth);
        s.load.sampler = Some(Box::new(move || {
            let v = layers::obs_value("server.queue.depth.w0");
            d.set(d.get().max(v as u64));
        }));
        let traced = tr.time("window", || window(&mut s.load, opts.seconds / 2.0, ask));
        s.load.sampler = None;
        out.traced(&untraced, &traced);
        out.layers.insert("queue.depth_max", depth.get() as f64);
        layers::obs_response_counters(&mut out.layers);
        layers::obs_query_counters(&mut out.layers);
        layers::obs_reactor_stages(&mut out.layers, traced.reports);
        layers::load_layers(&s.load, &traced, &mut out.layers);
        felip_obs::disable();
        Some(traced)
    } else {
        let w = window(&mut s.load, opts.seconds, ask);
        out.window(&w);
        None
    };
    s.load.run(Instant::now(), true, GRACE);
    out.absorb(&s.load);

    // Correctness: every frame the run acked, and nothing else, is counted.
    let batches = s.load.writer.as_ref().map_or(0, |w| w.feed.sent);
    let f = s.frames.len() as u64;
    let (reps, part) = (batches / f, (batches % f) as usize * mix.batch());
    let full = offline_reference(&s.plan, 0..USERS, s.seed)?;
    let expected = scaled(&full, reps, &offline_reference(&s.plan, 0..part, s.seed)?)?;
    if mix == Mix::WithQueries {
        let asker = s.load.asker.as_mut().expect("query_mixed reads");
        fresh_check(
            &mut asker.conn,
            s.plan.schema_hash(),
            &s.queries,
            &expected,
            out,
        )?;
    }
    drop(s.load);
    match s.server.finish() {
        Ok(run) => {
            out.gate(
                run.aggregator.counts() == expected.counts()
                    && run.aggregator.group_sizes() == expected.group_sizes(),
                format!("served counts differ from {reps} × offline reference + {part} users"),
            );
            out.note(&format!(
                "served {} reports = {reps} replays of {USERS} users + {part}",
                run.aggregator.reports_ingested()
            ));
        }
        Err(e) => out.fail(format!("server run failed: {e}")),
    }

    if let Some(traced) = traced {
        out.layers.insert("plan.build_ms", s.plan_ms);
        out.layers.insert("fo.perturb_ns_per_report", s.perturb_ns);
        let oracles = Arc::new(OracleSet::build(&s.plan));
        layers::wire_decode(&tr, &s.frames, &mut out.layers);
        layers::accumulate(&tr, &s.plan, &oracles, &s.reports, &mut out.layers)?;
        if mix == Mix::WithQueries {
            let lists = [(2, s.queries.clone())];
            layers::estimation(
                &tr,
                &s.plan,
                &oracles,
                expected.counts(),
                expected.group_sizes(),
                &lists,
                &mut out.layers,
            )?;
            layers::residual(&mut out.layers, &traced, &s.queries, &paper::schema());
        }
        out.spans = tr.spans();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(seed: u64) -> Vec<Vec<u8>> {
        let plan = paper::plan(N, derive_seed(seed, 1)).unwrap();
        let reports: Vec<UserReport> = (0..2_000)
            .map(|u| user_report(&plan, u, derive_seed(seed, 2)).unwrap())
            .collect();
        encode_frames(plan.schema_hash(), &reports, 500)
    }

    #[test]
    fn one_seed_gives_identical_frame_bytes() {
        let a = frames(7);
        assert_eq!(a.len(), 4);
        assert_eq!(a, frames(7));
        assert_ne!(a, frames(8));
    }
}
