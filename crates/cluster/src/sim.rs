//! The cluster tier's deterministic sweep, on the sim harness's virtual
//! clock (DESIGN.md §13, §16).
//!
//! N ingest nodes, each the shipped [`StreamerCore`] over a node modelled
//! by its cumulative cuts (its share ingested batch by batch with
//! `loadgen::batch_reports`), and one aggregator: the real
//! `AggregatorHandler` behind the shared prelude ([`dispatch`]), the real
//! [`ClusterState`] with its FCLU encode, persist and restore, and the
//! real `QueryService` as the query mixer. Every frame goes through the
//! seeded [`FaultSchedule`] in both directions. Seeded faults on top:
//! one node killed, rejoining fresh or from its last local snapshot, and
//! an aggregator bounce — fresh, resumed from its state, or crashed back
//! to the last periodic FCLU.
//!
//! Per seed the merged counts, group sizes and digest must equal the
//! offline single-node collection, and the settled answer must equal the
//! offline estimate's bits. Every query answer must equal the offline
//! estimate of the merged view it was asked against, and every `DeltaAck`
//! a core takes must name the state the aggregator holds for its node.
//! The ingest tier's own exactly-once property is the server sweep's job.

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Duration;

use felip_sync::atomic::{AtomicU64, Ordering};
use felip_sync::Arc;

use felip::aggregator::{Aggregator, OracleSet};
use felip::config::FelipConfig;
use felip::plan::CollectionPlan;
use felip_common::{Attribute, Predicate, Query, Schema};
use felip_server::client::{RetryPolicy, Step};
use felip_server::fault::{FaultConfig, FaultKind, FaultSchedule, MS, REPLY_DEADLINE_NS};
use felip_server::loadgen::{batch_reports, offline_reference};
use felip_server::serve::{dispatch, AtomicStats, Tier};
use felip_server::server::CutState;
use felip_server::simharness::{minimize, EventQueue, FaultRun, MAX_EVENTS};
use felip_server::wire::{Frame, QueryMode, QueryRequest};
use felip_server::QueryService;

use crate::server::{AggregatorHandler, DeltaCounts};
use crate::state::ClusterState;
use crate::streamer::StreamerCore;

/// Users per ingested batch.
const BATCH: usize = 10;
/// A node ingests one batch per tick.
const INGEST_TICK_NS: u64 = 2 * MS;
/// A node's server cuts and offers its state this often.
const CUT_TICK_NS: u64 = 3 * MS;
/// The aggregator's periodic FCLU persist; a crash restores the last one.
const PERSIST_TICK_NS: u64 = 8 * MS;
/// The query mixer asks this often.
const QUERY_TICK_NS: u64 = 4 * MS;
/// How long a finishing node waits for its final flush to be acked.
const FINISH_DEADLINE_NS: u64 = 10_000 * MS;

/// What one cluster sim run produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ClusterSimReport {
    pub seed: u64,
    pub events: u64,
    /// Order-sensitive digest of the event trace.
    pub trace_hash: u64,
    /// Digest of the final merged counts.
    pub counts_digest: u64,
    pub nodes: usize,
    pub faults_injected: u64,
    pub fault_token: String,
    pub faults_fired: Vec<(u64, FaultKind)>,
    pub fresh_rejoins: u64,
    pub snapshot_rejoins: u64,
    pub bounces: u64,
    pub resumed_bounces: u64,
    /// Bounces that crashed back to the last periodic FCLU.
    pub crashes: u64,
    /// FCLU writes torn, quarantined and retried.
    pub quarantined: u64,
    pub queries_answered: u64,
    pub deltas_acked: u64,
    /// Bits of the settled answer.
    pub settled_bits: u64,
    pub violations: Vec<String>,
}

impl FaultRun for ClusterSimReport {
    fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn faults_fired(&self) -> &[(u64, FaultKind)] {
        &self.faults_fired
    }

    fn fault_token(&self) -> &str {
        &self.fault_token
    }
}

enum Ev {
    Ingest {
        node: usize,
        life: u32,
    },
    Cut {
        node: usize,
        life: u32,
    },
    Finish {
        node: usize,
        life: u32,
    },
    FinishDeadline(usize),
    /// A node's backoff ended.
    Wake {
        node: usize,
        life: u32,
    },
    /// A node's reply deadline (ignored unless `token` is current).
    Timeout {
        node: usize,
        token: u64,
    },
    ToAgg {
        conn: u64,
        bytes: Vec<u8>,
    },
    ToNode {
        node: usize,
        conn: u64,
        bytes: Vec<u8>,
    },
    Kill(usize),
    Rejoin(usize),
    Bounce,
    Persist,
    Query,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Life {
    Ingesting,
    /// The share is ingested; the node serves on until it finishes.
    Idle,
    /// `finish` offered the final cut; waiting for its ack.
    Finishing,
    Finished,
    Dead,
}

struct Node {
    users: Vec<usize>,
    batches: u64,
    /// The node server's cumulative counts.
    counts: Aggregator,
    ingested: u64,
    cuts: u64,
    /// The node's local snapshot: batches covered, and its cut.
    snapshot: Option<(u64, CutState)>,
    core: StreamerCore,
    life: Life,
    /// Bumped at each kill, so events of a dead life are dropped.
    gen: u32,
    conn: u64,
    /// Bumped at every step but `Await`; a deadline fires only if current.
    token: u64,
    /// The core's last step was `Done`: an offer wakes it.
    parked: bool,
    /// Event index at which the final flush was acked.
    finished_at: Option<u64>,
}

/// One aggregator life.
struct Agg {
    state: Arc<ClusterState>,
    query: QueryService<Arc<ClusterState>>,
    stats: AtomicStats,
    /// The handler's state per connection still open on this side.
    conns: std::collections::HashMap<u64, Option<u64>>,
    last_epoch: u64,
}

/// The seeded faults of one run, drawn before the first event.
struct Plan {
    victim: usize,
    kill_at: u64,
    rejoin_after: u64,
    from_snapshot: bool,
    /// 0: no bounce, 1: fresh, 2: resumed, 3: crash.
    bounce: u64,
    bounce_at: u64,
    outage: u64,
}

struct Sim {
    seed: u64,
    total: usize,
    plan: Arc<CollectionPlan>,
    oracles: Arc<OracleSet>,
    plan_hash: u64,
    probe: Query,
    q: EventQueue<Ev>,
    schedule: FaultSchedule,
    faults: Plan,
    nodes: Vec<Node>,
    agg: Agg,
    /// Connections whose node side is open: conn → node.
    links: std::collections::HashMap<u64, usize>,
    next_conn: u64,
    agg_down_until: u64,
    fclu: PathBuf,
    /// Event index of the last FCLU write that survived verification.
    persisted_at: Option<u64>,
    next_query_id: u64,
    /// `(counts digest, answer bits)` of the last offline estimate.
    offline_memo: Option<(u64, u64)>,
    report: ClusterSimReport,
}

/// Runs the cluster sim for `seed`.
pub(crate) fn run_cluster_sim(seed: u64) -> ClusterSimReport {
    run_suppressed(seed, &HashSet::new())
}

/// Re-runs the exact run a [`ClusterSimReport::fault_token`] came from.
pub(crate) fn replay(token: &str) -> Result<ClusterSimReport, String> {
    let (seed, suppressed) = FaultSchedule::parse_token(token)?;
    Ok(run_suppressed(seed, &suppressed))
}

/// [`run_cluster_sim`] with the frame faults at `suppressed` draw indices
/// switched off.
pub(crate) fn run_suppressed(seed: u64, suppressed: &HashSet<u64>) -> ClusterSimReport {
    let schema = Schema::new(vec![
        Attribute::numerical("a", 32),
        Attribute::categorical("c", 4),
    ])
    .expect("schema");
    let plan =
        Arc::new(CollectionPlan::build(&schema, 1_000, &FelipConfig::new(1.0), 5).expect("plan"));
    let oracles = Arc::new(OracleSet::build(&plan));
    let predicates = vec![
        Predicate::between(0, 4, 20),
        Predicate::in_set(1, vec![1, 2]),
    ];
    let probe = Query::new(plan.schema(), predicates).expect("probe");
    let mut schedule = FaultSchedule::with_suppressed(seed, FaultConfig::ALL, suppressed.clone());

    let count = 2 + schedule.draw_below(2) as usize;
    let total = 90 + 30 * schedule.draw_below(4) as usize;
    let nodes: Vec<Node> = (0..count)
        .map(|i| {
            let users: Vec<usize> = (0..total).filter(|u| u % count == i).collect();
            Node {
                batches: users.len().div_ceil(BATCH) as u64,
                users,
                counts: Aggregator::with_oracles(Arc::clone(&plan), Arc::clone(&oracles)),
                ingested: 0,
                cuts: 0,
                snapshot: None,
                core: core(&plan, seed, i),
                life: Life::Ingesting,
                gen: 0,
                conn: 0,
                token: 0,
                parked: true,
                finished_at: None,
            }
        })
        .collect();
    let victim = schedule.draw_below(count as u64) as usize;
    let faults = Plan {
        victim,
        kill_at: MS + schedule.draw_below(nodes[victim].batches * INGEST_TICK_NS),
        rejoin_after: schedule.draw_below(10 * MS),
        from_snapshot: schedule.draw_below(2) == 0,
        bounce: schedule.draw_below(4),
        bounce_at: 2 * MS + schedule.draw_below(40 * MS),
        outage: schedule.draw_below(5 * MS),
    };
    static SIM_FILE_ID: AtomicU64 = AtomicU64::new(0);
    let fclu = std::env::temp_dir().join(format!(
        "felip-cluster-sim-{seed}-{}-{}.fclu",
        std::process::id(),
        SIM_FILE_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let agg = Agg::new(ClusterState::new(Arc::clone(&plan), Arc::clone(&oracles)));
    let sim = Sim {
        seed,
        total,
        plan_hash: plan.schema_hash(),
        plan,
        oracles,
        probe,
        q: EventQueue::default(),
        schedule,
        faults,
        nodes,
        agg,
        links: Default::default(),
        next_conn: 1,
        agg_down_until: 0,
        fclu,
        persisted_at: None,
        next_query_id: 0,
        offline_memo: None,
        report: ClusterSimReport {
            seed,
            nodes: count,
            ..ClusterSimReport::default()
        },
    };
    sim.run()
}

/// A fresh streamer core for node `i` (its id is `i + 1`).
fn core(plan: &CollectionPlan, seed: u64, i: usize) -> StreamerCore {
    let policy = RetryPolicy {
        jitter_seed: seed ^ i as u64,
        ..RetryPolicy::default()
    };
    StreamerCore::new(plan.schema_hash(), i as u64 + 1, policy)
}

fn cut_of(agg: &Aggregator) -> CutState {
    CutState {
        counts: agg.counts().to_vec(),
        group_sizes: agg.group_sizes().to_vec(),
        reports: agg.reports_ingested() as u64,
    }
}

impl Agg {
    /// An aggregator life over `state`; its query engine starts cold.
    fn new(state: ClusterState) -> Agg {
        let state = Arc::new(state);
        Agg {
            query: QueryService::new(
                state.plan_handle(),
                state.oracles_handle(),
                Arc::clone(&state),
            ),
            state,
            stats: AtomicStats::default(),
            conns: Default::default(),
            last_epoch: 0,
        }
    }
}

impl Sim {
    fn violation(&mut self, v: String) {
        self.report.violations.push(v);
    }

    fn run(mut self) -> ClusterSimReport {
        for n in 0..self.nodes.len() {
            let jitter = self.schedule.draw_below(MS);
            self.q.at(jitter, Ev::Ingest { node: n, life: 0 });
            self.q
                .at(jitter + CUT_TICK_NS, Ev::Cut { node: n, life: 0 });
        }
        self.q.at(self.faults.kill_at, Ev::Kill(self.faults.victim));
        if self.faults.bounce != 0 {
            self.q.at(self.faults.bounce_at, Ev::Bounce);
        }
        self.q.at(PERSIST_TICK_NS, Ev::Persist);
        self.q.at(QUERY_TICK_NS, Ev::Query);

        while let Some(ev) = self.q.pop() {
            if self.q.popped() > MAX_EVENTS {
                self.violation(format!("did not settle within {MAX_EVENTS} events"));
                break;
            }
            match ev {
                Ev::Ingest { node, life } => self.on_ingest(node, life),
                Ev::Cut { node, life } => self.on_cut(node, life),
                Ev::Finish { node, life } => self.on_finish(node, life),
                Ev::FinishDeadline(n) => {
                    if self.nodes[n].life == Life::Finishing {
                        self.violation(format!("node {n} final flush never acked"));
                        self.nodes[n].life = Life::Finished;
                    }
                }
                Ev::Wake { node, life } => {
                    if self.nodes[node].gen == life && self.nodes[node].life != Life::Dead {
                        self.drive(node, |core| core.wake());
                    }
                }
                Ev::Timeout { node, token } => {
                    if self.nodes[node].token == token {
                        self.q.trace(12, node as u64, token);
                        self.drive(node, |core| core.lost());
                    }
                }
                Ev::ToAgg { conn, bytes } => self.on_to_agg(conn, bytes),
                Ev::ToNode { node, conn, bytes } => self.on_to_node(node, conn, bytes),
                Ev::Kill(n) => self.on_kill(n),
                Ev::Rejoin(n) => self.on_rejoin(n),
                Ev::Bounce => self.on_bounce(),
                Ev::Persist => {
                    self.persist();
                    if !self.all_finished() {
                        self.q.after(PERSIST_TICK_NS, Ev::Persist);
                    }
                }
                Ev::Query => {
                    let mode = match self.next_query_id % 2 {
                        0 => QueryMode::Cached,
                        _ => QueryMode::Fresh,
                    };
                    self.on_query(mode);
                    if !self.all_finished() {
                        self.q.after(QUERY_TICK_NS, Ev::Query);
                    }
                }
            }
        }
        for ext in ["fclu", "quarantine", "tmp"] {
            let _ = std::fs::remove_file(self.fclu.with_extension(ext));
        }
        self.verify();
        self.report.events = self.q.popped();
        self.report.trace_hash = self.q.trace_hash();
        self.report.faults_injected = self.schedule.injected;
        self.report.fault_token = self.schedule.token();
        self.report.faults_fired = self.schedule.fired().to_vec();
        self.report
    }

    fn all_finished(&self) -> bool {
        self.nodes.iter().all(|n| n.life == Life::Finished)
    }

    fn on_ingest(&mut self, n: usize, life: u32) {
        let node = &mut self.nodes[n];
        if node.gen != life || node.life != Life::Ingesting {
            return;
        }
        let id = node.ingested + 1;
        let ingested = batch_reports(&self.plan, &node.users, BATCH, self.seed, id)
            .and_then(|reports| node.counts.ingest_batch(&reports));
        if let Err(e) = ingested {
            self.violation(format!("node {n} batch {id} failed: {e}"));
            return;
        }
        node.ingested = id;
        self.q.trace(20, n as u64, id);
        if id < node.batches {
            self.q.after(INGEST_TICK_NS, Ev::Ingest { node: n, life });
        } else {
            self.idle(n);
        }
    }

    /// The node's share is in: it serves on for a seeded while, then
    /// shuts down and flushes.
    fn idle(&mut self, n: usize) {
        self.nodes[n].life = Life::Idle;
        let life = self.nodes[n].gen;
        let linger = 4 * MS + self.schedule.draw_below(26 * MS);
        self.q.after(linger, Ev::Finish { node: n, life });
    }

    fn on_cut(&mut self, n: usize, life: u32) {
        let node = &mut self.nodes[n];
        if node.gen != life || !matches!(node.life, Life::Ingesting | Life::Idle) {
            return;
        }
        let cut = cut_of(&node.counts);
        node.cuts += 1;
        if node.cuts % 2 == 1 {
            node.snapshot = Some((node.ingested, cut.clone()));
        }
        self.q.trace(21, n as u64, cut.reports);
        node.core.offer(cut);
        self.q.after(CUT_TICK_NS, Ev::Cut { node: n, life });
        if self.nodes[n].parked {
            self.drive(n, |core| core.wake());
        }
    }

    fn on_finish(&mut self, n: usize, life: u32) {
        let node = &mut self.nodes[n];
        if node.gen != life || node.life != Life::Idle {
            return;
        }
        node.life = Life::Finishing;
        node.core.finish(cut_of(&node.counts));
        self.q.trace(22, n as u64, node.ingested);
        self.q.after(FINISH_DEADLINE_NS, Ev::FinishDeadline(n));
        if self.nodes[n].parked {
            self.drive(n, |core| core.wake());
        }
    }

    /// Hands node `n`'s core one event and carries out the step it
    /// answers. Every ack the core takes must name the state the
    /// aggregator holds for the node.
    fn drive(&mut self, n: usize, event: impl FnOnce(&mut StreamerCore) -> Step) {
        let acked = self.nodes[n].core.report().deltas_acked;
        let step = event(&mut self.nodes[n].core);
        if self.nodes[n].core.report().deltas_acked > acked {
            self.report.deltas_acked += 1;
            self.check_ack(n);
        }
        let node = &mut self.nodes[n];
        if node.life == Life::Finishing && node.core.flushed() {
            node.life = Life::Finished;
            node.finished_at = Some(self.q.popped());
            self.q
                .trace(9, n as u64, node.core.report().flushed_reports);
        }
        if !matches!(step, Step::Await) {
            self.nodes[n].token += 1;
        }
        self.act(n, step);
    }

    fn check_ack(&mut self, n: usize) {
        let core = &self.nodes[n].core;
        let took = (core.last_applied(), core.report().flushed_reports);
        let id = n as u64 + 1;
        let held = self.agg.state.node_rows().into_iter().find(|r| r.0 == id);
        if held.map(|(_, epoch, reports)| (epoch, reports)) != Some(took) {
            self.violation(format!(
                "node {n} took an ack for (epoch, reports) {took:?} but the aggregator holds {held:?}"
            ));
        }
    }

    /// Carries out one step of node `n`'s core on the virtual network.
    fn act(&mut self, n: usize, step: Step) {
        if !matches!(step, Step::Await) {
            self.nodes[n].parked = matches!(step, Step::Done);
        }
        match step {
            Step::Connect(hello) => {
                if self.q.now() < self.agg_down_until {
                    // Refused: the core hears of it one latency later.
                    self.q.trace(4, n as u64, 0);
                    let token = self.nodes[n].token;
                    self.q.after(MS, Ev::Timeout { node: n, token });
                    return;
                }
                let conn = self.next_conn;
                self.next_conn += 1;
                self.links.insert(conn, n);
                self.agg.conns.insert(conn, None);
                self.nodes[n].conn = conn;
                self.q.trace(4, n as u64, conn);
                self.send(n, &hello);
            }
            Step::Send(frame) => {
                self.q.trace(5, n as u64, frame.payload.len() as u64);
                self.send(n, &frame);
            }
            Step::Await => {}
            Step::Reconnect(delay) | Step::Backoff(delay) => {
                self.close(n);
                self.q.trace(11, n as u64, delay.as_nanos() as u64);
                let life = self.nodes[n].gen;
                self.q
                    .after(delay.as_nanos() as u64, Ev::Wake { node: n, life });
            }
            Step::Done => {
                if self.nodes[n].life == Life::Finished {
                    self.close(n);
                }
            }
            Step::Failed(e) => self.violation(format!("node {n} streamer failed: {e}")),
        }
    }

    /// Routes a node frame to the aggregator and arms the reply deadline.
    fn send(&mut self, n: usize, frame: &Frame) {
        let (conn, token) = (self.nodes[n].conn, self.nodes[n].token);
        self.route(conn, frame, true, n);
        self.q
            .after(REPLY_DEADLINE_NS, Ev::Timeout { node: n, token });
    }

    fn route(&mut self, conn: u64, frame: &Frame, to_agg: bool, node: usize) {
        let routed = self.schedule.route(frame.encode());
        self.q
            .trace(1, conn, routed.fault.map_or(0, |k| k as u64 + 1));
        if routed.fault == Some(FaultKind::Reset) {
            self.reset(conn);
            return;
        }
        for (delay, bytes) in routed.arrivals {
            let ev = if to_agg {
                Ev::ToAgg { conn, bytes }
            } else {
                Ev::ToNode { node, conn, bytes }
            };
            self.q.after(delay, ev);
        }
    }

    /// Both directions of `conn` die.
    fn reset(&mut self, conn: u64) {
        let linked = self.links.remove(&conn).is_some();
        let open = self.agg.conns.remove(&conn).is_some();
        if linked || open {
            self.q.trace(2, conn, 0);
        }
    }

    fn close(&mut self, n: usize) {
        let conn = std::mem::take(&mut self.nodes[n].conn);
        if conn != 0 {
            self.reset(conn);
        }
    }

    fn on_to_agg(&mut self, conn: u64, bytes: Vec<u8>) {
        let Some(peer) = self.agg.conns.get_mut(&conn) else {
            self.q.trace(6, conn, 0);
            return;
        };
        let (reply, close) = match Frame::decode(&bytes) {
            Ok(frame) => {
                let tier = Tier {
                    plan_hash: self.plan_hash,
                    stats: &self.agg.stats,
                    query: &self.agg.query,
                    read_timeout: Duration::ZERO,
                    idle_timeout: Duration::ZERO,
                    workers: 0,
                };
                let handler = AggregatorHandler {
                    state: &self.agg.state,
                    stats: &self.agg.stats,
                    deltas: DeltaCounts::default(),
                };
                dispatch(&tier, &handler, peer, frame.view()).into_reply(&tier)
            }
            // Garbled bytes: an error reply and a close, as on a socket.
            Err(e) => (Frame::error(self.plan_hash, &e.to_string()), Some(e)),
        };
        self.q.trace(6, conn, bytes.len() as u64);
        if let Some(&node) = self.links.get(&conn) {
            self.route(conn, &reply, false, node);
        }
        if close.is_some() {
            // The aggregator stops reading; its reply still lands.
            self.agg.conns.remove(&conn);
            self.q.trace(2, conn, 1);
        }
    }

    fn on_to_node(&mut self, n: usize, conn: u64, bytes: Vec<u8>) {
        if self.nodes[n].conn != conn || !self.links.contains_key(&conn) {
            self.q.trace(7, conn, 0);
            return;
        }
        self.q.trace(7, conn, bytes.len() as u64);
        self.drive(n, |core| core.on_reply(Frame::decode(&bytes)));
    }

    /// Kills a node that has not begun to finish: its streamer is
    /// abandoned with whatever it had not shipped.
    fn on_kill(&mut self, n: usize) {
        if !matches!(self.nodes[n].life, Life::Ingesting | Life::Idle) {
            self.q.trace(13, n as u64, 0);
            return;
        }
        self.close(n);
        let node = &mut self.nodes[n];
        node.token += 1;
        node.gen += 1;
        node.life = Life::Dead;
        self.q.trace(13, n as u64, 1);
        self.q.after(self.faults.rejoin_after, Ev::Rejoin(n));
    }

    /// The killed node comes back under the same id with a fresh streamer:
    /// from its local snapshot, or empty to re-ingest its whole share.
    fn on_rejoin(&mut self, n: usize) {
        let from_snapshot = self.faults.from_snapshot;
        let snapshot = self.nodes[n].snapshot.take().filter(|_| from_snapshot);
        let restored = match snapshot {
            Some((ingested, cut)) => Aggregator::restore(
                Arc::clone(&self.plan),
                Arc::clone(&self.oracles),
                cut.counts,
                cut.group_sizes,
            )
            .map(|counts| (ingested, counts)),
            None => Ok((
                0,
                Aggregator::with_oracles(Arc::clone(&self.plan), Arc::clone(&self.oracles)),
            )),
        };
        let (ingested, counts) = match restored {
            Ok(r) => r,
            Err(e) => {
                self.violation(format!("node {n} snapshot restore failed: {e}"));
                return;
            }
        };
        if ingested > 0 {
            self.report.snapshot_rejoins += 1;
        } else {
            self.report.fresh_rejoins += 1;
        }
        let node = &mut self.nodes[n];
        node.counts = counts;
        node.ingested = ingested;
        node.cuts = 0;
        node.core = core(&self.plan, self.seed, n);
        node.parked = true;
        let life = node.gen;
        self.q.trace(15, n as u64, ingested);
        self.q.after(CUT_TICK_NS, Ev::Cut { node: n, life });
        if ingested < self.nodes[n].batches {
            self.nodes[n].life = Life::Ingesting;
            self.q.after(INGEST_TICK_NS, Ev::Ingest { node: n, life });
        } else {
            self.idle(n);
        }
    }

    /// Bounces the aggregator: fresh, resumed from a state written now, or
    /// crashed back to the last periodic FCLU. Every connection drops and
    /// the new life's query engine starts cold. A fresh restart after a
    /// node finished would lose that node by design (DESIGN.md §16), so it
    /// resumes instead.
    fn on_bounce(&mut self) {
        let kind = self.faults.bounce;
        let crash = kind == 3 && self.persisted_at.is_some() && self.crash_spares_settled_nodes();
        let fresh = kind == 1 && self.nodes.iter().all(|n| n.finished_at.is_none());
        let restored = if fresh {
            Ok(ClusterState::new(
                Arc::clone(&self.plan),
                Arc::clone(&self.oracles),
            ))
        } else if crash || self.persist() {
            ClusterState::read(
                &self.fclu,
                Arc::clone(&self.plan),
                Arc::clone(&self.oracles),
            )
        } else {
            return;
        };
        let state = match restored {
            Ok(state) => state,
            Err(e) => {
                self.violation(format!("aggregator restore failed: {e}"));
                return;
            }
        };
        self.report.bounces += 1;
        if crash {
            self.report.crashes += 1;
        } else if !fresh {
            self.report.resumed_bounces += 1;
        }
        let mut open: Vec<u64> = self
            .links
            .keys()
            .chain(self.agg.conns.keys())
            .copied()
            .collect();
        open.sort_unstable();
        open.dedup();
        for conn in open {
            self.reset(conn);
        }
        self.agg = Agg::new(state);
        self.agg_down_until = self.q.now() + self.faults.outage;
        self.q.trace(16, kind, crash as u64);
    }

    /// Whether crashing back to the last periodic FCLU keeps every
    /// finished node's final state: a finished node is gone and ships
    /// nothing again, so it must not have finished since that persist. A
    /// `DeltaAck` that waits for a durable write would make this guard,
    /// and the server sim's `crash_spares_settled_clients`, unnecessary.
    fn crash_spares_settled_nodes(&self) -> bool {
        let persisted = self.persisted_at.unwrap_or(0);
        self.nodes
            .iter()
            .all(|n| n.finished_at.is_none_or(|at| at < persisted))
    }

    /// Writes the FCLU through the verified writer, with torn writes
    /// drawn from the schedule; the first write that survives is the
    /// crash-restore point.
    fn persist(&mut self) -> bool {
        for _attempt in 0..64 {
            let corrupt = self.schedule.snapshot_write_corrupts();
            let schedule = &mut self.schedule;
            let mut mangle = |bytes: &[u8]| corrupt.then(|| schedule.mangle_snapshot(bytes));
            match self.agg.state.write_verified(&self.fclu, Some(&mut mangle)) {
                Ok(()) => {
                    self.persisted_at = Some(self.q.popped());
                    return true;
                }
                Err(_) => self.report.quarantined += 1,
            }
        }
        self.violation("FCLU write never survived verification in 64 attempts".into());
        false
    }

    /// One mixer query: its answer must be the offline estimate of the
    /// merged view it was asked against, at an epoch that never rewinds
    /// within an aggregator life and starts at 1 after a bounce.
    fn on_query(&mut self, mode: QueryMode) -> Option<u64> {
        self.next_query_id += 1;
        let req = QueryRequest {
            query_id: self.next_query_id,
            mode,
            predicates: self.probe.predicates().to_vec(),
        };
        let merged = match self.agg.state.merged() {
            Ok(m) => m,
            Err(e) => {
                self.violation(format!("merge failed: {e}"));
                return None;
            }
        };
        let reports = merged.reports_ingested() as u64;
        let answer = self.agg.query.answer(&req);
        self.q
            .trace(14, reports, answer.as_ref().map_or(0, |a| a.epoch));
        let ans = match answer {
            Ok(ans) => ans,
            Err(_) if reports == 0 => return None,
            Err(e) => {
                self.violation(format!("query at {reports} reports failed: {e}"));
                return None;
            }
        };
        self.report.queries_answered += 1;
        let first = self.agg.last_epoch == 0;
        if ans.reports != reports
            || ans.epoch > ans.head_epoch
            || ans.epoch < self.agg.last_epoch
            || (first && ans.epoch != 1)
        {
            self.violation(format!(
                "query answered {ans:?} over {reports} merged reports after epoch {}",
                self.agg.last_epoch
            ));
        }
        self.agg.last_epoch = ans.epoch;
        let digest = merged.counts_digest();
        let offline = match self.offline_memo {
            Some((d, bits)) if d == digest => Ok(bits),
            _ => merged
                .estimate()
                .and_then(|e| e.answer(&self.probe))
                .map(f64::to_bits),
        };
        match offline {
            Ok(bits) => {
                self.offline_memo = Some((digest, bits));
                if ans.answer.to_bits() != bits {
                    self.violation(format!(
                        "query answer {} diverges from the offline estimate at {reports} reports",
                        ans.answer
                    ));
                }
            }
            Err(e) => self.violation(format!("offline estimate failed: {e}")),
        }
        Some(ans.answer.to_bits())
    }

    fn verify(&mut self) {
        for (n, node) in self.nodes.iter().enumerate() {
            if node.life != Life::Finished || !node.core.flushed() {
                self.report
                    .violations
                    .push(format!("node {n} never finished ({:?})", node.life));
            }
        }
        let expected = match offline_reference(&self.plan, 0..self.total, self.seed) {
            Ok(agg) => agg,
            Err(e) => return self.violation(format!("offline reference failed: {e}")),
        };
        let merged = match self.agg.state.merged() {
            Ok(m) => m,
            Err(e) => return self.violation(format!("final merge failed: {e}")),
        };
        self.report.counts_digest = merged.counts_digest();
        if merged.reports_ingested() != self.total
            || merged.counts() != expected.counts()
            || merged.group_sizes() != expected.group_sizes()
            || merged.counts_digest() != expected.counts_digest()
        {
            self.violation(format!(
                "merged {} reports differ from the offline single-node {}",
                merged.reports_ingested(),
                self.total
            ));
        }
        let rows = self.agg.state.node_rows().len();
        if rows != self.nodes.len() {
            self.violation(format!("{rows} node rows for {} nodes", self.nodes.len()));
        }
        // The settled answer: a `Fresh` ask over the full merged view.
        self.report.settled_bits = self.on_query(QueryMode::Fresh).unwrap_or(0);
        let offline = expected
            .estimate()
            .and_then(|e| e.answer(&self.probe))
            .map(f64::to_bits);
        if offline.as_ref().ok() != Some(&self.report.settled_bits) {
            self.violation(format!(
                "settled answer bits {:#x} differ from the offline estimate {offline:?}",
                self.report.settled_bits
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On failure, shrink the seed's fault schedule and report the token
    /// that replays the minimized run.
    fn assert_seed_ok(r: &ClusterSimReport) {
        if r.ok() {
            return;
        }
        let seed = r.seed;
        let shrunk = minimize(|suppressed| run_suppressed(seed, suppressed));
        panic!(
            "seed {seed} violated invariants: {:?}\nreplay token: {}\nminimized: {:?}",
            r.violations,
            r.fault_token,
            shrunk.map(|m| (m.token, m.faults, m.report.violations)),
        );
    }

    #[test]
    fn sixty_four_seed_virtual_clock_sweep_is_bit_identical() {
        let mut t = ClusterSimReport::default();
        for seed in 0..64 {
            let r = run_cluster_sim(seed);
            assert_seed_ok(&r);
            t.fresh_rejoins += r.fresh_rejoins;
            t.snapshot_rejoins += r.snapshot_rejoins;
            t.bounces += r.bounces;
            t.resumed_bounces += r.resumed_bounces;
            t.crashes += r.crashes;
            t.faults_injected += r.faults_injected;
            t.queries_answered += r.queries_answered;
        }
        // The sweep must not pass vacuously: every fault class fired.
        assert!(t.fresh_rejoins >= 8, "{t:?}");
        assert!(t.snapshot_rejoins >= 8, "{t:?}");
        assert!(t.bounces >= 16, "{t:?}");
        assert!(t.resumed_bounces >= 4, "{t:?}");
        assert!(t.crashes >= 1, "{t:?}");
        assert!(t.faults_injected > 64, "{t:?}");
        assert!(t.queries_answered >= 64, "{t:?}");
    }

    #[test]
    fn same_seed_and_replayed_tokens_are_bit_identical() {
        let a = run_cluster_sim(11);
        assert!(a.ok(), "{:?}", a.violations);
        assert_eq!(a, run_cluster_sim(11), "same seed, same run");
        assert_eq!(a, replay(&a.fault_token).expect("token parses"));
        assert!(!a.faults_fired.is_empty(), "seed 11 fires no fault");
        let calm: HashSet<u64> = a.faults_fired.iter().map(|&(i, _)| i).collect();
        let b = run_suppressed(11, &calm);
        assert!(b.ok(), "{:?}", b.violations);
        assert_eq!(b, replay(&b.fault_token).expect("token parses"));
        assert_ne!(a.trace_hash, b.trace_hash);
        assert_eq!(a.counts_digest, b.counts_digest);
    }
}
