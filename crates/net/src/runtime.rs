//! The live concurrent runtime: a router on the calling thread driving
//! a bounded pool of workers, the calling thread among them.
//!
//! Each node's [`ProtocolMachine`] — a
//! [`VerifierMachine`](crate::machine::VerifierMachine) for pure
//! verification runs, a [`ComputeMachine`](crate::ComputeMachine) for
//! distributed construction — is stepped by whichever worker leases
//! the node; the router owns the graph topology, the [`Link`] (fault
//! decisions), the event log, and the cost counters. Every frame a
//! machine emits travels router-ward, is offered to the link, and the
//! surviving copies are dispatched to the receiving node — so the
//! workers race freely, but every decision that affects the protocol
//! (drop, delay, duplicate, crash) is made in one place, in a
//! well-defined order, and logged.
//!
//! # The worker pool
//!
//! Machine steps are scheduled as events on a
//! [`KeyedQueue`](mstv_trees::KeyedQueue) of per-node FIFO inboxes
//! served by `min(workers, n)` workers ([`Engine`] sizes the pool): the
//! calling thread, which steps a queued event itself whenever the
//! report it waits for is not in, plus `min(workers, n) − 1` helper
//! threads. One worker spawns no thread: the router steps every
//! machine on the calling thread, with no channel traffic and no
//! wake-up. Per-node event order is preserved by the queue's lease
//! discipline, so machines observe exactly the sequences the router
//! dispatched.
//!
//! The pool size is **unobservable**: the router consumes worker
//! reports in *dispatch order* (a sequence-numbered reorder buffer), so
//! the sequence of link decisions, dispatches, and therefore the
//! [`EventLog`], the verdict, and every counter are deterministic
//! functions of `(instance, link)` — byte-identical for one worker and
//! for many, and across runs. The single-threaded
//! [`replay`](crate::replay::replay) reproduces them from the log.
//!
//! Quiescence is tracked by an outstanding-event counter: an event is
//! outstanding from dispatch until its report (outputs + local verdict)
//! has been processed. When no event is outstanding and no frame is
//! held back, either every node has decided — the run is over — or some
//! frame was lost and a retransmission boundary fires: the link's round
//! counter increments, the link may pick crash victims, and every node
//! gets a tick to re-offer unacknowledged frames.
//!
//! # The clock
//!
//! Retransmission boundaries are the router's internal clock: they pace
//! the link ([`Link::round_start`], crash picks, adversary windows) and
//! [`NetConfig::max_rounds`] bounds them. The *cost* of a run is counted
//! in causal rounds instead, the paper's unit: a payload frame sent by
//! `v` has depth `clock(v) + 1`, where `clock(v)` is the deepest payload
//! frame delivered to `v` so far, and `MessageCost::rounds` is the
//! depth of the deepest delivered frame. A frame's depth travels with
//! it through the holdback buffer and the dispatched
//! [`LogEvent::Deliver`], and the router moves a node's clock when it
//! reaches that node's report — in dispatch order, so the clocks are as
//! deterministic as the log, and replay recomputes them from it. On a
//! perfect link, verification takes exactly one round.
//!
//! A machine that panics while an event is outstanding surfaces as
//! [`NetError::WorkerDied`] naming the node — never a hang: the panic is
//! caught at the machine step and reported in-band, on whichever worker
//! stepped it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

use mstv_core::{Labeling, MessageCost, Verdict};
use mstv_graph::{ConfigGraph, Graph, NodeId, Port};
use mstv_labels::BitString;
use mstv_trees::{KeyedQueue, ParallelConfig};

use crate::error::NetError;
use crate::link::Link;
use crate::log::{EventLog, LogEvent, RunSummary};
use crate::machine::{NodeEvent, ProtocolMachine, VerifierMachine, WireScheme};
use crate::wire::{PhaseClass, WireMsg};

/// Runtime limits and switches.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Give up (with [`NetError::NoConvergence`]) once this many
    /// retransmission rounds have started (the first round counts).
    pub max_rounds: u64,
    /// Record the dispatched schedule in the returned [`EventLog`]
    /// (default `true`). Recording never affects the run — verdict and
    /// counters are identical either way — but a 100k-node lossy run
    /// logs millions of frames, so benchmarks measuring runtime memory
    /// switch it off; the returned log then carries only headers and
    /// the summary trailer and is not replayable.
    pub record_log: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_rounds: 10_000,
            record_log: true,
        }
    }
}

/// How the node machines are scheduled: multiplexed over a bounded
/// pool of `min(workers, n)` workers with per-node FIFO inboxes. The
/// calling thread counts as one of them, so the pool spawns
/// `min(workers, n) − 1` threads, and one worker spawns none. The pool
/// size changes wall time only — never the verdict, the cost, or the
/// event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Event-driven scheduling over the worker pool.
    Events {
        /// Worker-pool sizing, the calling thread included.
        workers: ParallelConfig,
    },
}

impl Default for Engine {
    /// The pool sized to the host's available parallelism.
    fn default() -> Self {
        Engine::Events {
            workers: ParallelConfig::default(),
        }
    }
}

/// [`MessageCost`] split by protocol phase. For a pure verification run
/// everything lands in `verify`; a construction run
/// ([`run_compute`](crate::run_compute)) splits its traffic between the
/// GHS fragment protocol, the distributed marker, and the embedded
/// verification.
///
/// `msgs` and `bits` are exact per phase (every frame carries its phase
/// in its kind tag). Rounds are causal depth (see
/// [`MessageCost::rounds`]): each phase is charged the depth its
/// delivered payload frames add over the phases before it, in the order
/// GHS, marker, verify — so the three always sum to the run's total,
/// and on a perfect link a construction run reads GHS's depth, then
/// what the marker adds, then the one round of verification. A run that
/// delivers no payload at all (a single isolated node decides without
/// talking) charges its one round to `verify`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCost {
    /// GHS fragment protocol (phase A).
    pub ghs: MessageCost,
    /// Distributed marker: spanning labels, centroid election,
    /// separator announcements (phase B).
    pub marker: MessageCost,
    /// Label-exchange verification (phase C, and the entirety of a
    /// pure verification run).
    pub verify: MessageCost,
}

/// The causal clock and the per-phase counters behind [`NetRun::cost`]
/// and [`PhaseCost`], kept identically by the live router and the
/// replayer.
///
/// A payload frame (a label, a GHS or a marker frame) sent by node `v`
/// has depth `clock(v) + 1`, where `clock(v)` is the largest depth of
/// any payload frame delivered to `v` so far (0 before the first).
/// Acks have no depth and move no clock.
#[derive(Debug, Clone, Default)]
pub(crate) struct PhaseTally {
    msgs: [u64; 3],
    bits: [u128; 3],
    /// Depth of the deepest payload frame delivered in each phase.
    deepest: [u64; 3],
    /// `clock(v)` per node.
    clocks: Vec<u64>,
    /// The least clock at which a node has reported a rejecting verdict.
    first_reject: Option<u64>,
}

impl PhaseTally {
    pub(crate) fn new(n: usize) -> Self {
        PhaseTally {
            clocks: vec![0; n],
            ..PhaseTally::default()
        }
    }

    fn class_index(msg: &WireMsg) -> usize {
        match msg.phase_class() {
            PhaseClass::Ghs => 0,
            PhaseClass::Marker => 1,
            PhaseClass::Verify => 2,
        }
    }

    /// Records that `msg`, carrying `depth`, is delivered to its
    /// receiver.
    pub(crate) fn deliver(&mut self, msg: &WireMsg, depth: u64) {
        let i = PhaseTally::class_index(msg);
        self.deepest[i] = self.deepest[i].max(depth);
    }

    /// Advances `node`'s clock past an event it consumed (`depth` is
    /// the delivered frame's, 0 for any other event) and returns the
    /// depth of the payload frames it sends in response.
    pub(crate) fn step(&mut self, node: usize, depth: u64) -> u64 {
        let clock = &mut self.clocks[node];
        *clock = (*clock).max(depth);
        *clock + 1
    }

    /// Records that `node`, just stepped, reports a rejecting verdict at
    /// its current clock.
    pub(crate) fn reject(&mut self, node: usize) {
        let at = self.clocks[node];
        self.first_reject = Some(self.first_reject.map_or(at, |first| first.min(at)));
    }

    /// The causal depth at which the first node rejected, if any did.
    pub(crate) fn first_reject(&self) -> Option<u64> {
        self.first_reject
    }

    /// Charges one sent message to its phase, returning its depth:
    /// `send_depth` for a payload frame, 0 for an ack.
    pub(crate) fn send(&mut self, msg: &WireMsg, send_depth: u64) -> u64 {
        let i = PhaseTally::class_index(msg);
        self.msgs[i] += 1;
        self.bits[i] += u128::from(msg.wire_bits());
        if msg.is_ack() {
            0
        } else {
            send_depth
        }
    }

    /// The run's total cost and its phase split. The total's rounds are
    /// `max(1, deepest delivered depth)`; each phase gets what its
    /// frames add over the phases before it, so the split sums to the
    /// total — pinned by `phase_costs_are_exhaustive_and_attributed`
    /// and the adversary suite's reorder test.
    pub(crate) fn finish(&self) -> (MessageCost, PhaseCost) {
        let mut reached = 0;
        let mut rounds = [0u64; 3];
        for (i, r) in rounds.iter_mut().enumerate() {
            // The clock runs for at least the one round verification
            // owes, even if no payload frame is ever delivered.
            let floor = if i == 2 { 1 } else { 0 };
            let depth = reached.max(self.deepest[i]).max(floor);
            *r = depth - reached;
            reached = depth;
        }
        let cost = |i: usize| MessageCost {
            msgs: self.msgs[i],
            bits: self.bits[i],
            rounds: rounds[i],
        };
        let total = MessageCost {
            msgs: self.msgs.iter().sum(),
            bits: self.bits.iter().sum(),
            rounds: reached,
        };
        let phases = PhaseCost {
            ghs: cost(0),
            marker: cost(1),
            verify: cost(2),
        };
        (total, phases)
    }
}

/// Outcome of a live run or a replay.
#[derive(Debug, Clone)]
pub struct NetRun {
    /// The global verdict (per-node verifier outputs, aggregated).
    pub verdict: Verdict,
    /// Messages, bits, and rounds consumed.
    pub cost: MessageCost,
    /// The same cost split by protocol phase (GHS / marker / verify).
    pub phases: PhaseCost,
    /// Detection latency: the causal depth at which the first node
    /// rejected (its clock when it first reported a rejecting verdict,
    /// least over all nodes), `None` when no node ever rejected. On a
    /// perfect link a node that rejects a neighbour's label does so at
    /// depth 1, the paper's one round; a replay reproduces it.
    pub first_reject: Option<u64>,
    /// Crash-restarts that occurred.
    pub crash_restarts: u64,
    /// The complete event schedule, replayable with
    /// [`replay`](crate::replay::replay) (empty if the run was started
    /// with [`NetConfig::record_log`] off).
    pub log: EventLog,
}

/// What stepping one event yields, on a helper thread or the router's.
struct Report {
    node: usize,
    sends: Vec<(Port, WireMsg)>,
    verdict: Option<bool>,
}

/// A report, or the news that the machine panicked on the event.
enum WorkerReport {
    Done(Report),
    Panicked,
}

/// A frame in flight, held back by the link's delay decision.
struct HeldFrame {
    steps: u32,
    to: usize,
    port: Port,
    msg: WireMsg,
    /// Causal depth (0 for an ack).
    depth: u64,
}

/// Runs one machine step, converting a panic into an in-band report so
/// the router can surface [`NetError::WorkerDied`] instead of hanging.
fn machine_step<M: ProtocolMachine>(machine: &mut M, node: usize, ev: &NodeEvent) -> WorkerReport {
    match catch_unwind(AssertUnwindSafe(|| {
        let sends = machine.on_event(ev);
        (sends, machine.decided())
    })) {
        Ok((sends, verdict)) => WorkerReport::Done(Report {
            node,
            sends,
            verdict,
        }),
        Err(_) => WorkerReport::Panicked,
    }
}

/// A dispatched event awaiting its report.
struct Pending {
    node: usize,
    /// Depth of the delivered frame (0 for any other event), which
    /// moves the node's clock when the router reaches the report.
    depth: u64,
    /// The report, once it is in but the router has not reached it.
    report: Option<WorkerReport>,
}

/// The router's side of the worker pool: dispatches carry a global
/// sequence number, helper threads send reports back tagged over one
/// shared channel, and each report waits in its dispatch's slot of
/// `pending` until the router reaches it — the ordering contract that
/// makes the router (and the event log) deterministic. While the report
/// it needs is not in, the router steps queued events itself.
struct Pool<'q, M> {
    machines: &'q [Mutex<M>],
    queue: &'q KeyedQueue<(u64, NodeEvent)>,
    report_rx: mpsc::Receiver<(u64, WorkerReport)>,
    /// Every outstanding dispatch, in dispatch order.
    pending: VecDeque<Pending>,
    /// Sequence number of `pending`'s front entry.
    head_seq: u64,
}

impl<M: ProtocolMachine> Pool<'_, M> {
    /// Queues `ev`, delivering a frame of `depth` (0 for any other
    /// event), for `node`'s machine.
    fn dispatch(&mut self, node: usize, ev: NodeEvent, depth: u64) {
        let seq = self.head_seq + self.pending.len() as u64;
        self.queue.post(node, (seq, ev));
        self.pending.push_back(Pending {
            node,
            depth,
            report: None,
        });
    }

    /// The report of the oldest not-yet-reported dispatch, with the
    /// depth that dispatch delivered. Until it is in, takes the reports
    /// helpers have sent, steps a queued event on this thread, and
    /// blocks on the channel only when no event is left to step.
    fn next_report(&mut self) -> Result<(Report, u64), NetError> {
        loop {
            let front = self.pending.front_mut().expect("a report is outstanding");
            let node = NodeId(front.node as u32);
            let depth = front.depth;
            if let Some(report) = front.report.take() {
                self.pending.pop_front();
                self.head_seq += 1;
                return match report {
                    WorkerReport::Done(report) => Ok((report, depth)),
                    WorkerReport::Panicked => Err(NetError::WorkerDied { node }),
                };
            }
            let (seq, report) = if let Ok(sent) = self.report_rx.try_recv() {
                sent
            } else if let Some((key, (seq, ev))) = self.queue.try_next() {
                (seq, step_leased(self.machines, self.queue, key, &ev))
            } else if let Ok(sent) = self.report_rx.recv() {
                sent
            } else {
                // No helper is left to send the report, and no event
                // is queued that could produce it.
                return Err(NetError::WorkerDied { node });
            };
            let slot = usize::try_from(seq - self.head_seq).expect("pending fits usize");
            self.pending[slot].report = Some(report);
        }
    }
}

/// Steps `node`'s machine on `ev`, which the caller leased from the
/// queue, and releases the lease.
fn step_leased<M: ProtocolMachine>(
    machines: &[Mutex<M>],
    queue: &KeyedQueue<(u64, NodeEvent)>,
    node: usize,
    ev: &NodeEvent,
) -> WorkerReport {
    let report = match machines[node].lock() {
        Ok(mut machine) => machine_step(&mut *machine, node, ev),
        // Poisoned by an earlier panic on this node: report the
        // death again rather than stepping a broken machine.
        Err(_) => WorkerReport::Panicked,
    };
    queue.done(node);
    report
}

/// One helper thread: lease a node, step its machine on the oldest
/// queued event, release the lease, report.
fn event_worker<M: ProtocolMachine>(
    machines: &[Mutex<M>],
    queue: &KeyedQueue<(u64, NodeEvent)>,
    report_tx: &mpsc::Sender<(u64, WorkerReport)>,
) {
    while let Some((node, (seq, ev))) = queue.next() {
        let report = step_leased(machines, queue, node, &ev);
        if report_tx.send((seq, report)).is_err() {
            return; // the router is gone; shut down quietly
        }
    }
}

/// Closes the queue on every exit path so helper threads can never be
/// left blocked after the router stops consuming reports.
struct CloseOnDrop<'q, T>(&'q KeyedQueue<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The router: owns the link, the log, the counters and clocks, the
/// holdback buffer, and the quiescence/retransmission logic. It runs on
/// the calling thread and alone decides the schedule, which is why the
/// pool size never shows in the log.
struct RouterCore<'l> {
    net: NetConfig,
    /// Retransmission boundaries passed, plus one: the link's clock
    /// ([`Link::round_start`]) and what [`NetConfig::max_rounds`]
    /// bounds. The run's cost counts causal depth instead.
    round: u64,
    link: &'l mut dyn Link,
    /// `(neighbor, neighbor's in-port)` per `(node, port)`, resolved up
    /// front so the loop never touches the graph. CSR-flattened — one
    /// allocation instead of one per node — so the router itself stays
    /// O(1) bytes per node beyond the edge list: the entry for
    /// `(v, p)` lives at `other_end[other_off[v] + p]`.
    other_end: Vec<(u32, Port)>,
    other_off: Vec<u32>,
    log: EventLog,
    phases: PhaseTally,
    verdicts: Vec<Option<bool>>,
    held: Vec<HeldFrame>,
    /// Events queued for dispatch, in dispatch order. Everything goes
    /// through this queue so [`DISPATCH_WINDOW`] can bound how far the
    /// workers run ahead of the router without reordering anything.
    ready: VecDeque<LogEvent>,
    outstanding: usize,
    crash_restarts: u64,
}

/// Hard ceiling on dispatched-but-unreported events. The router is the
/// pipeline's serial stage, so without a bound the workers run a whole
/// round ahead of it and every in-flight frame, inbox entry, and
/// report sits allocated at once — O(round traffic) live memory at
/// 100k nodes. Dispatching through [`RouterCore::ready`] keeps the pool's
/// queues and report backlogs O(window) instead, and costs no
/// wall-clock (the router was the bottleneck anyway). The *order* of
/// dispatches is exactly the unbounded order — the queue is FIFO and
/// reports are consumed in dispatch order — so logs, costs, and
/// verdicts are bit-identical to an unbounded run.
const DISPATCH_WINDOW: usize = 1024;

impl<'l> RouterCore<'l> {
    fn new(g: &Graph, link: &'l mut dyn Link, net: NetConfig) -> Self {
        let n = g.num_nodes();
        let mut other_end: Vec<(u32, Port)> = Vec::new();
        let mut other_off: Vec<u32> = Vec::with_capacity(n);
        for v in 0..n {
            other_off.push(u32::try_from(other_end.len()).expect("edge table fits u32"));
            for nb in g.neighbors(NodeId(v as u32)) {
                let back = g
                    .port_towards(nb.node, NodeId(v as u32))
                    .expect("edges are bidirectional");
                other_end.push((nb.node.0, back));
            }
        }
        RouterCore {
            net,
            link,
            other_end,
            other_off,
            round: 1,
            log: EventLog::new(),
            phases: PhaseTally::new(n),
            verdicts: vec![None; n],
            held: Vec::new(),
            ready: VecDeque::new(),
            outstanding: 0,
            crash_restarts: 0,
        }
    }

    fn dispatch<M: ProtocolMachine>(&mut self, pool: &mut Pool<'_, M>, ev: LogEvent) {
        let node = ev.target().expect("dispatched events target a node") as usize;
        let nev = ev.to_node_event().expect("dispatched events map to inputs");
        let depth = match &ev {
            LogEvent::Deliver { msg, depth, .. } => {
                self.phases.deliver(msg, *depth);
                *depth
            }
            _ => 0,
        };
        if self.net.record_log {
            self.log.events.push(ev);
        }
        pool.dispatch(node, nev, depth);
        self.outstanding += 1;
    }

    /// Dispatches queued events until the window is full or the queue
    /// is empty.
    fn pump_ready<M: ProtocolMachine>(&mut self, pool: &mut Pool<'_, M>) {
        while self.outstanding < DISPATCH_WINDOW {
            let Some(ev) = self.ready.pop_front() else {
                return;
            };
            self.dispatch(pool, ev);
        }
    }

    /// One scheduler step over the holdback buffer: everything due is
    /// dispatched in holdback order, the rest ages by one in place.
    fn pump_held<M: ProtocolMachine>(&mut self, pool: &mut Pool<'_, M>) {
        let due = self.held.extract_if(.., |frame| {
            if frame.steps == 0 {
                return true;
            }
            frame.steps -= 1;
            false
        });
        for frame in due {
            self.ready.push_back(LogEvent::Deliver {
                to: frame.to as u32,
                port: frame.port.0,
                msg: frame.msg,
                depth: frame.depth,
            });
        }
        self.pump_ready(pool);
    }

    fn drive<M: ProtocolMachine>(&mut self, pool: &mut Pool<'_, M>) -> Result<(), NetError> {
        let n = self.verdicts.len();
        self.link.round_start(self.round);
        for v in 0..n {
            self.ready.push_back(LogEvent::Start { node: v as u32 });
        }
        loop {
            self.pump_ready(pool);
            while self.outstanding > 0 {
                let (report, delivered) = pool.next_report()?;
                self.outstanding -= 1;
                self.verdicts[report.node] = report.verdict;
                let send_depth = self.phases.step(report.node, delivered);
                if report.verdict == Some(false) {
                    self.phases.reject(report.node);
                }
                for (port, msg) in report.sends {
                    let depth = self.phases.send(&msg, send_depth);
                    let (to, in_port) =
                        self.other_end[self.other_off[report.node] as usize + port.index()];
                    let to = to as usize;
                    for steps in self.link.offer_edge(report.node, to) {
                        self.held.push(HeldFrame {
                            steps,
                            to,
                            port: in_port,
                            msg: msg.clone(),
                            depth,
                        });
                    }
                }
                self.pump_held(pool);
                self.pump_ready(pool);
            }

            if !self.held.is_empty() {
                // Quiescent but frames are still aging: advance the
                // clock without a retransmission round.
                self.pump_held(pool);
                continue;
            }

            if self.verdicts.iter().all(Option::is_some) {
                return Ok(());
            }

            if self.round >= self.net.max_rounds {
                return Err(NetError::NoConvergence { rounds: self.round });
            }

            // Retransmission boundary: some frame was lost. Crash picks
            // first (a crashed node restarts and re-offers everything),
            // then every node re-offers on unacked ports.
            self.round += 1;
            if self.net.record_log {
                self.log.events.push(LogEvent::Round);
            }
            self.link.round_start(self.round);
            for v in self.link.crash_picks(n) {
                self.crash_restarts += 1;
                self.verdicts[v] = None;
                self.ready.push_back(LogEvent::Crash { node: v as u32 });
            }
            for v in 0..n {
                self.ready.push_back(LogEvent::Tick { node: v as u32 });
            }
        }
    }

    fn finish(mut self) -> NetRun {
        let n = self.verdicts.len();
        let rejecting: Vec<NodeId> = self
            .verdicts
            .iter()
            .enumerate()
            .filter(|(_, v)| **v == Some(false))
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let verdict = Verdict {
            rejecting: rejecting.clone(),
            num_nodes: n,
        };
        let (cost, phases) = self.phases.finish();
        self.log.summary = Some(RunSummary { rejecting, cost });
        NetRun {
            verdict,
            cost,
            phases,
            first_reject: self.phases.first_reject(),
            crash_restarts: self.crash_restarts,
            log: self.log,
        }
    }
}

fn build_machines<W: WireScheme>(
    scheme: &W,
    cfg: &ConfigGraph<W::State>,
    labeling: &Labeling<W::Label>,
) -> Vec<VerifierMachine<W>> {
    (0..cfg.graph().num_nodes())
        .map(|v| {
            VerifierMachine::new(
                scheme.clone(),
                cfg,
                NodeId(v as u32),
                labeling.encoded(NodeId(v as u32)).clone(),
            )
        })
        .collect()
}

/// Drives a set of node machines to quiescence on `engine`'s worker
/// pool, returning the run outcome together with each node's final
/// machine (`None` for a machine the user's panic hook ate —
/// unreachable when the run itself succeeded). This is the shared
/// chassis under [`run_verification_with`] and
/// [`run_compute`](crate::run_compute).
pub(crate) fn run_machines<M: ProtocolMachine>(
    machines: Vec<M>,
    g: &Graph,
    link: &mut dyn Link,
    net: NetConfig,
    engine: Engine,
) -> Result<(NetRun, Vec<Option<M>>), NetError> {
    let n = machines.len();
    assert_eq!(n, g.num_nodes(), "one machine per node");
    let Engine::Events { workers } = engine;
    // The calling thread is one of the workers.
    let helpers = workers.resolved_threads().get().min(n.max(1)) - 1;
    let mut core = RouterCore::new(g, link, net);
    let machines: Vec<Mutex<M>> = machines.into_iter().map(Mutex::new).collect();
    let queue: KeyedQueue<(u64, NodeEvent)> = KeyedQueue::new(n);
    let (report_tx, report_rx) = mpsc::channel();
    thread::scope(|s| {
        let _closer = CloseOnDrop(&queue);
        for _ in 0..helpers {
            let tx = report_tx.clone();
            let machines = &machines;
            let queue = &queue;
            s.spawn(move || event_worker(machines, queue, &tx));
        }
        // Only helpers hold senders, so a report owed by nobody ends
        // the wait in `recv` as `WorkerDied` instead of a hang.
        drop(report_tx);
        let mut pool = Pool {
            machines: &machines,
            queue: &queue,
            report_rx,
            pending: VecDeque::new(),
            head_seq: 0,
        };
        core.drive(&mut pool)
        // `_closer` drops here: the queue closes and the scope can join
        // its helpers, error or not.
    })?;
    let finals = machines
        .into_iter()
        .map(|m| m.into_inner().ok()) // poisoned = panicked machine
        .collect();
    Ok((core.finish(), finals))
}

/// Runs the ack-hardened one-round verification protocol live on the
/// host-sized worker pool, frames subjected to `link`'s fault
/// decisions. Equivalent to [`run_verification_with`] with
/// [`Engine::default`].
///
/// Returns the aggregated verdict, the exact communication cost, and
/// an event log whose replay reproduces both.
///
/// # Errors
///
/// [`NetError::NoConvergence`] if the round budget runs out before
/// every node decides; [`NetError::WorkerDied`] if a node's machine
/// panics mid-run.
///
/// # Panics
///
/// Panics if `labeling` does not cover the configuration's nodes.
pub fn run_verification<W: WireScheme>(
    scheme: &W,
    cfg: &ConfigGraph<W::State>,
    labeling: &Labeling<W::Label>,
    link: &mut dyn Link,
    net: NetConfig,
) -> Result<NetRun, NetError> {
    run_verification_with(scheme, cfg, labeling, link, net, Engine::default())
}

/// [`run_verification`] on a worker pool of a chosen size.
///
/// Every pool size executes the identical router schedule (see the
/// module docs): for the same instance and link, it returns the same
/// verdict, the same [`MessageCost`], and a byte-identical event log.
///
/// # Errors
///
/// [`NetError::NoConvergence`] if the round budget runs out before
/// every node decides; [`NetError::WorkerDied`] if a node's machine
/// panics mid-run.
///
/// # Panics
///
/// Panics if `labeling` does not cover the configuration's nodes.
pub fn run_verification_with<W: WireScheme>(
    scheme: &W,
    cfg: &ConfigGraph<W::State>,
    labeling: &Labeling<W::Label>,
    link: &mut dyn Link,
    net: NetConfig,
    engine: Engine,
) -> Result<NetRun, NetError> {
    let machines = build_machines(scheme, cfg, labeling);
    let (run, _finals) = run_machines(machines, cfg.graph(), link, net, engine)?;
    Ok(run)
}

/// [`run_verification_with`] from pre-encoded certificates alone.
///
/// Node `v` holds `encoded[v]` as its certificate and decodes labels
/// only at decide time, exactly as it decodes neighbor frames — no
/// structured [`Labeling`] (Θ(n log n) words of decoded labels) need
/// exist anywhere in the process. Certificates travel as shared
/// [`Arc`]s, so beyond the bit payloads each machine costs only its
/// port list and receive slots; this is the entry point the scale
/// benches use to measure the runtime, not the instance materializer.
///
/// # Errors
///
/// [`NetError::NoConvergence`] if the round budget runs out before
/// every node decides; [`NetError::WorkerDied`] if a node's machine
/// panics mid-run.
///
/// # Panics
///
/// Panics if `encoded` does not have one certificate per node.
pub fn run_verification_encoded_with<W: WireScheme>(
    scheme: &W,
    cfg: &ConfigGraph<W::State>,
    encoded: Vec<Arc<BitString>>,
    link: &mut dyn Link,
    net: NetConfig,
    engine: Engine,
) -> Result<NetRun, NetError> {
    assert_eq!(
        encoded.len(),
        cfg.graph().num_nodes(),
        "one certificate per node"
    );
    let machines: Vec<VerifierMachine<W>> = encoded
        .into_iter()
        .enumerate()
        .map(|(v, e)| VerifierMachine::new(scheme.clone(), cfg, NodeId(v as u32), e))
        .collect();
    let (run, _finals) = run_machines(machines, cfg.graph(), link, net, engine)?;
    Ok(run)
}
