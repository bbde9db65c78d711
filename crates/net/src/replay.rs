//! Single-threaded deterministic replay of an event log.
//!
//! The replayer re-feeds a recorded schedule to fresh machines, in the
//! log's dispatch order, on one thread. Machines are pure functions of
//! their event sequence and the log preserves each node's sequence
//! exactly, so a replay recomputes every send the live run counted —
//! message and bit counters (total and per-phase) are *recomputed from
//! machine outputs*, not copied from the trailer, which is what makes a
//! trailer comparison a real cross-check of the runtime and not a
//! tautology.
//!
//! The replayer is the reference the live runtime is checked against:
//! a log records the router's dispatch schedule, which every worker-pool
//! size produces identically, so a log replays the same way whatever
//! pool recorded it — there is no scheduler marker in the format and
//! none is needed. The causal clock is recomputed the same way: from
//! the depths the log's deliveries carry, not copied from the trailer.

use mstv_core::{Labeling, Verdict};
use mstv_graph::{ConfigGraph, NodeId, Port};

use crate::error::NetError;
use crate::log::{EventLog, LogEvent};
use crate::machine::{ProtocolMachine, VerifierMachine, WireScheme};
use crate::runtime::{NetRun, PhaseTally};

/// The replay core: feeds the schedule to `machines` and recomputes the
/// counters exactly as the live router did. The clocks come from the
/// depths the log's deliveries record: each node's clock, the depth of
/// every frame it sends, and the phase split are recomputed from them,
/// and a delivery whose depth no replayed send produced (an ack with a
/// depth, a payload without one, or one deeper than anything sent so
/// far) is a malformed log, as is one its machine calls
/// [malformed](ProtocolMachine::malformed). Every error names the
/// event's line in the log's text.
///
/// Returns the reproduced outcome plus the machines in their final
/// states (construction replays read the computed labels out of them).
pub(crate) fn replay_machines<M: ProtocolMachine>(
    machines: &mut [M],
    log: &EventLog,
) -> Result<NetRun, NetError> {
    let mut tally = PhaseTally::new(machines.len());
    let mut deepest_sent = 0u64;
    let mut crash_restarts = 0u64;
    for (i, ev) in log.events.iter().enumerate() {
        let Some(target) = ev.target() else {
            continue;
        };
        let bad = |reason: String| NetError::BadLog {
            line: log.line_of(i),
            reason,
        };
        let machine = machines
            .get_mut(target as usize)
            .ok_or_else(|| bad(format!("event targets node {target} outside the instance")))?;
        let delivered = match ev {
            LogEvent::Crash { .. } => {
                crash_restarts += 1;
                0
            }
            LogEvent::Deliver {
                port, msg, depth, ..
            } => {
                if msg.is_ack() != (*depth == 0) || *depth > deepest_sent {
                    return Err(bad(format!("delivery at depth {depth} was never sent")));
                }
                if let Some(reason) = machine.malformed(Port(*port), msg) {
                    return Err(bad(reason));
                }
                tally.deliver(msg, *depth);
                *depth
            }
            _ => 0,
        };
        let sends = machine.on_event(&ev.to_node_event().expect("targeted events map to inputs"));
        let send_depth = tally.step(target as usize, delivered);
        if machine.decided() == Some(false) {
            tally.reject(target as usize);
        }
        for (_, msg) in sends {
            deepest_sent = deepest_sent.max(tally.send(&msg, send_depth));
        }
    }

    let mut rejecting = Vec::new();
    for (v, machine) in machines.iter().enumerate() {
        match machine.decided() {
            Some(false) => rejecting.push(NodeId(v as u32)),
            Some(true) => {}
            None => {
                return Err(NetError::Undecided {
                    node: NodeId(v as u32),
                })
            }
        }
    }
    let (cost, phases) = tally.finish();
    Ok(NetRun {
        verdict: Verdict {
            rejecting,
            num_nodes: machines.len(),
        },
        cost,
        phases,
        first_reject: tally.first_reject(),
        crash_restarts,
        log: log.clone(),
    })
}

/// Replays `log` against the given instance, returning the reproduced
/// outcome. The input log rides along in the result (trailer included,
/// untouched) so callers can diff it against the reproduced cost.
///
/// # Errors
///
/// [`NetError::Undecided`] if the schedule ends before every node has
/// decided, [`NetError::BadLog`] naming the log's line if an event
/// targets a node or port outside the instance or carries a depth no
/// replayed send produced.
///
/// # Panics
///
/// Panics if `labeling` does not cover the configuration's nodes.
pub fn replay<W: WireScheme>(
    scheme: &W,
    cfg: &ConfigGraph<W::State>,
    labeling: &Labeling<W::Label>,
    log: &EventLog,
) -> Result<NetRun, NetError> {
    let n = cfg.graph().num_nodes();
    let mut machines: Vec<VerifierMachine<W>> = (0..n)
        .map(|v| {
            VerifierMachine::new(
                scheme.clone(),
                cfg,
                NodeId(v as u32),
                labeling.encoded(NodeId(v as u32)).clone(),
            )
        })
        .collect();
    replay_machines(&mut machines, log)
}
