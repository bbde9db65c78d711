//! The append-only event log and its text format.
//!
//! A live run records every event it dispatches — starts, deliveries,
//! ticks, crash-restarts, and retransmission boundaries — in dispatch
//! order. Each delivery records its frame's causal depth (0 for a
//! construction ack), so the log carries the run's clock as well as its
//! schedule.
//! Because the router is the only producer of events and each node
//! consumes its mailbox in FIFO order, the log's per-node subsequence
//! is exactly the event sequence that node's machine observed; since
//! machines are deterministic, the log is a complete schedule and can
//! be re-fed through the single-threaded [replayer](crate::replay) to
//! reproduce the run's verdict and message counts bit for bit.
//!
//! The format is a line-oriented text file:
//!
//! ```text
//! mstv-net-log v4
//! h nodes 8              # free-form key/value headers (provenance)
//! s 0                    # start event at node 0
//! d 3 1 1 l 42 a3f2..    # delivery to node 3, port 1, depth 1: label, 42 bits, hex payload
//! d 3 1 2 lr 42 a3f2..   # same, with the refresh (pull) flag set, depth 2
//! d 2 0 5 g 7 18 b4c1..  # construction payload, GHS phase: seq 7, 18 bits
//! d 2 0 9 m 9 18 b4c1..  # construction payload, marker phase
//! d 4 1 0 ga 8           # construction ack, GHS phase: next expected seq 8 (no depth)
//! d 4 1 0 ma 10          # construction ack, marker phase
//! r                      # retransmission-round boundary
//! t 0                    # tick at node 0
//! c 5                    # crash-restart at node 5
//! end rejecting=- msgs=64 bits=2710 rounds=2   # summary trailer (optional)
//! ```
//!
//! The trailer's `rounds` is the causal depth of the deepest delivered
//! frame; the `r` markers count retransmission boundaries, each followed
//! by the boundary's crash-restarts and a tick for every node still
//! undecided. A log whose magic names another version is refused
//! with [`NetError::LogVersion`]: `v1` logs counted retransmission
//! generations as rounds and carry no depths, `v2` logs record the
//! ack-gated label exchange, whose acks (`a`) and unconditional ticks
//! this build's machines no longer produce, and `v3` construction logs
//! record the marker's retired preorder walk, whose payload kinds
//! (walk, return, total, minimum) this build's machines neither send
//! nor decode.
//!
//! A parsed log remembers the text line of each event, so a replay
//! that finds an event malformed names the line of the file; a log
//! built in memory names the line its text form would put the event
//! on.

use std::fmt;

use mstv_core::MessageCost;
use mstv_graph::{NodeId, Port};
use mstv_labels::BitString;

use crate::error::NetError;
use crate::machine::NodeEvent;
use crate::wire::WireMsg;

const MAGIC_PREFIX: &str = "mstv-net-log ";
/// The format version this build writes and reads.
pub(crate) const LOG_VERSION: &str = "v4";

/// One logged event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogEvent {
    /// Protocol start dispatched to a node.
    Start {
        /// The node.
        node: u32,
    },
    /// A frame delivered to a node's port.
    Deliver {
        /// Receiving node.
        to: u32,
        /// Receiving port.
        port: u32,
        /// The frame.
        msg: WireMsg,
        /// The frame's causal depth (0 for a construction ack).
        depth: u64,
    },
    /// A retransmission boundary (the link's round clock ticks).
    Round,
    /// A tick dispatched to a node.
    Tick {
        /// The node.
        node: u32,
    },
    /// A crash-restart dispatched to a node.
    Crash {
        /// The node.
        node: u32,
    },
}

impl LogEvent {
    /// The node this event is dispatched to, if any (`Round` is a
    /// marker, not a dispatch).
    pub fn target(&self) -> Option<u32> {
        match self {
            LogEvent::Start { node } | LogEvent::Tick { node } | LogEvent::Crash { node } => {
                Some(*node)
            }
            LogEvent::Deliver { to, .. } => Some(*to),
            LogEvent::Round => None,
        }
    }

    /// The machine input this event corresponds to (`None` for
    /// `Round`).
    pub fn to_node_event(&self) -> Option<NodeEvent> {
        match self {
            LogEvent::Start { .. } => Some(NodeEvent::Start),
            LogEvent::Tick { .. } => Some(NodeEvent::Tick),
            LogEvent::Crash { .. } => Some(NodeEvent::CrashRestart),
            LogEvent::Deliver { port, msg, .. } => Some(NodeEvent::Deliver {
                port: Port(*port),
                msg: msg.clone(),
            }),
            LogEvent::Round => None,
        }
    }
}

/// The run outcome recorded in the `end` trailer, used to cross-check a
/// replay against the live run it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Nodes whose verifier rejected, in id order.
    pub rejecting: Vec<NodeId>,
    /// Communication cost of the run.
    pub cost: MessageCost,
}

/// A complete event log: provenance headers, the event schedule, and an
/// optional outcome summary.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// Free-form `(key, value)` provenance headers (instance
    /// parameters, fault profile, seeds). Keys must not contain
    /// whitespace; values may.
    pub headers: Vec<(String, String)>,
    /// The schedule, in dispatch order.
    pub events: Vec<LogEvent>,
    /// The live run's outcome, if recorded.
    pub summary: Option<RunSummary>,
    /// The 1-based text line of each event, for a parsed log (empty
    /// for a log built in memory).
    lines: Vec<usize>,
}

/// Two logs are equal when their records are: where a parsed log's
/// events sat in its text is not part of the log.
impl PartialEq for EventLog {
    fn eq(&self, other: &Self) -> bool {
        (&self.headers, &self.events, &self.summary)
            == (&other.headers, &other.events, &other.summary)
    }
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Adds a provenance header.
    ///
    /// # Panics
    ///
    /// Panics if `key` contains whitespace.
    pub fn push_header(&mut self, key: &str, value: impl fmt::Display) {
        assert!(
            !key.chars().any(char::is_whitespace),
            "header key {key:?} contains whitespace"
        );
        self.headers.push((key.to_string(), value.to_string()));
    }

    /// The first value recorded for a header key.
    pub fn header(&self, key: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The 1-based text line of event `i`: where the parsed text had
    /// it, or for a log built in memory, where its text form puts it
    /// (the magic line, then the headers, then the events).
    pub(crate) fn line_of(&self, i: usize) -> usize {
        self.lines
            .get(i)
            .copied()
            .unwrap_or(2 + self.headers.len() + i)
    }

    /// Parses a log from its text form.
    pub fn parse(text: &str) -> Result<EventLog, NetError> {
        let mut lines = text.lines().enumerate();
        let bad = |line: usize, reason: &str| NetError::BadLog {
            line: line + 1,
            reason: reason.to_string(),
        };
        match lines
            .next()
            .and_then(|(_, first)| first.trim().strip_prefix(MAGIC_PREFIX))
        {
            Some(LOG_VERSION) => {}
            Some(found) => {
                return Err(NetError::LogVersion {
                    found: found.to_string(),
                })
            }
            None => return Err(bad(0, "missing magic line")),
        }
        let mut log = EventLog::new();
        for (i, raw) in lines {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let mut f = line.split_whitespace();
            let tag = f.next().expect("non-empty line has a first field");
            fn num(
                f: &mut std::str::SplitWhitespace<'_>,
                line: usize,
                what: &str,
            ) -> Result<u32, NetError> {
                f.next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| NetError::BadLog {
                        line: line + 1,
                        reason: what.to_string(),
                    })
            }
            let ev = match tag {
                "h" => {
                    let key = f.next().ok_or_else(|| bad(i, "header without key"))?;
                    let key = key.to_string();
                    let value = f.collect::<Vec<_>>().join(" ");
                    log.headers.push((key, value));
                    continue;
                }
                "s" => LogEvent::Start {
                    node: num(&mut f, i, "start without node")?,
                },
                "t" => LogEvent::Tick {
                    node: num(&mut f, i, "tick without node")?,
                },
                "c" => LogEvent::Crash {
                    node: num(&mut f, i, "crash without node")?,
                },
                "r" => LogEvent::Round,
                "d" => {
                    let to = num(&mut f, i, "delivery without node")?;
                    let port = num(&mut f, i, "delivery without port")?;
                    let depth = f
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad(i, "delivery without depth"))?;
                    let msg = match f.next() {
                        Some(kind @ ("l" | "lr")) => {
                            let bits = num(&mut f, i, "label without bit length")? as usize;
                            let hex = f.next().ok_or_else(|| bad(i, "label without payload"))?;
                            let bytes = hex_decode(hex).ok_or_else(|| bad(i, "bad hex payload"))?;
                            let payload = BitString::from_bytes(&bytes, bits)
                                .ok_or_else(|| bad(i, "payload does not frame"))?;
                            WireMsg::Label {
                                bits: payload.into(),
                                refresh: kind == "lr",
                            }
                        }
                        Some(kind @ ("g" | "m")) => {
                            let seq = num(&mut f, i, "payload without sequence number")?;
                            let bits = num(&mut f, i, "payload without bit length")? as usize;
                            let hex = f.next().ok_or_else(|| bad(i, "payload without body"))?;
                            let bytes = hex_decode(hex).ok_or_else(|| bad(i, "bad hex payload"))?;
                            let payload = BitString::from_bytes(&bytes, bits)
                                .ok_or_else(|| bad(i, "payload does not frame"))?;
                            WireMsg::Compute {
                                marker: kind == "m",
                                seq,
                                bits: payload.into(),
                            }
                        }
                        Some(kind @ ("ga" | "ma")) => WireMsg::ComputeAck {
                            marker: kind == "ma",
                            seq: num(&mut f, i, "ack without sequence number")?,
                        },
                        _ => return Err(bad(i, "unknown delivery kind")),
                    };
                    LogEvent::Deliver {
                        to,
                        port,
                        msg,
                        depth,
                    }
                }
                "end" => {
                    log.summary = Some(parse_summary(line, i)?);
                    continue;
                }
                _ => return Err(bad(i, "unknown record tag")),
            };
            if log.summary.is_some() {
                return Err(bad(i, "event after summary trailer"));
            }
            log.events.push(ev);
            log.lines.push(i + 1);
        }
        Ok(log)
    }
}

fn parse_summary(line: &str, i: usize) -> Result<RunSummary, NetError> {
    let bad = |reason: &str| NetError::BadLog {
        line: i + 1,
        reason: reason.to_string(),
    };
    let mut rejecting = None;
    let mut cost = MessageCost::new();
    let mut seen = 0u8;
    for field in line.split_whitespace().skip(1) {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| bad("bad trailer field"))?;
        match key {
            "rejecting" => {
                let nodes = if value == "-" {
                    Vec::new()
                } else {
                    value
                        .split(',')
                        .map(|s| s.parse().map(NodeId))
                        .collect::<Result<_, _>>()
                        .map_err(|_| bad("bad rejecting list"))?
                };
                rejecting = Some(nodes);
            }
            "msgs" => {
                cost.msgs = value.parse().map_err(|_| bad("bad msgs"))?;
                seen |= 1;
            }
            "bits" => {
                cost.bits = value.parse().map_err(|_| bad("bad bits"))?;
                seen |= 2;
            }
            "rounds" => {
                cost.rounds = value.parse().map_err(|_| bad("bad rounds"))?;
                seen |= 4;
            }
            _ => return Err(bad("unknown trailer field")),
        }
    }
    match (rejecting, seen) {
        (Some(rejecting), 7) => Ok(RunSummary { rejecting, cost }),
        _ => Err(bad("incomplete trailer")),
    }
}

impl fmt::Display for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{MAGIC_PREFIX}{LOG_VERSION}")?;
        for (k, v) in &self.headers {
            writeln!(f, "h {k} {v}")?;
        }
        for ev in &self.events {
            match ev {
                LogEvent::Start { node } => writeln!(f, "s {node}")?,
                LogEvent::Tick { node } => writeln!(f, "t {node}")?,
                LogEvent::Crash { node } => writeln!(f, "c {node}")?,
                LogEvent::Round => writeln!(f, "r")?,
                LogEvent::Deliver {
                    to,
                    port,
                    msg,
                    depth,
                } => match msg {
                    WireMsg::Label { bits, refresh } => writeln!(
                        f,
                        "d {to} {port} {depth} {} {} {}",
                        if *refresh { "lr" } else { "l" },
                        bits.len(),
                        hex_encode(&bits.to_bytes())
                    )?,
                    WireMsg::Compute { marker, seq, bits } => writeln!(
                        f,
                        "d {to} {port} {depth} {} {seq} {} {}",
                        if *marker { "m" } else { "g" },
                        bits.len(),
                        hex_encode(&bits.to_bytes())
                    )?,
                    WireMsg::ComputeAck { marker, seq } => writeln!(
                        f,
                        "d {to} {port} {depth} {} {seq}",
                        if *marker { "ma" } else { "ga" }
                    )?,
                },
            }
        }
        if let Some(summary) = &self.summary {
            let rejecting = if summary.rejecting.is_empty() {
                "-".to_string()
            } else {
                summary
                    .rejecting
                    .iter()
                    .map(|v| v.0.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            writeln!(
                f,
                "end rejecting={rejecting} msgs={} bits={} rounds={}",
                summary.cost.msgs, summary.cost.bits, summary.cost.rounds
            )?;
        }
        Ok(())
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    if bytes.is_empty() {
        return "-".to_string();
    }
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if s == "-" {
        return Some(Vec::new());
    }
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.as_bytes()
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).ok()?, 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> EventLog {
        let mut bits = BitString::new();
        bits.push_bits(0b1_0110_1001, 9);
        let mut log = EventLog::new();
        log.push_header("nodes", 4);
        log.push_header("profile", "drop=0.25 dup=0 delay=2");
        log.events = vec![
            LogEvent::Start { node: 0 },
            LogEvent::Deliver {
                to: 1,
                port: 0,
                depth: 3,
                msg: WireMsg::Label {
                    bits: bits.into(),
                    refresh: true,
                },
            },
            LogEvent::Deliver {
                to: 0,
                port: 2,
                depth: 1,
                msg: WireMsg::Label {
                    bits: BitString::new().into(),
                    refresh: false,
                },
            },
            LogEvent::Round,
            LogEvent::Tick { node: 3 },
            LogEvent::Crash { node: 2 },
            LogEvent::Deliver {
                to: 2,
                port: 1,
                depth: 2,
                msg: WireMsg::Compute {
                    marker: false,
                    seq: 7,
                    bits: {
                        let mut b = BitString::new();
                        b.push_bits(0b10_1101, 6);
                        b.into()
                    },
                },
            },
            LogEvent::Deliver {
                to: 3,
                port: 0,
                depth: 4,
                msg: WireMsg::Compute {
                    marker: true,
                    seq: 0,
                    bits: BitString::new().into(),
                },
            },
            LogEvent::Deliver {
                to: 1,
                port: 2,
                depth: 0,
                msg: WireMsg::ComputeAck {
                    marker: false,
                    seq: 8,
                },
            },
            LogEvent::Deliver {
                to: 0,
                port: 1,
                depth: 0,
                msg: WireMsg::ComputeAck {
                    marker: true,
                    seq: 1,
                },
            },
        ];
        log.summary = Some(RunSummary {
            rejecting: vec![NodeId(1), NodeId(3)],
            cost: MessageCost {
                msgs: 12,
                bits: 345,
                rounds: 2,
            },
        });
        log
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let log = sample_log();
        let text = log.to_string();
        let parsed = EventLog::parse(&text).expect("parses");
        assert_eq!(parsed, log);
        assert_eq!(parsed.header("nodes"), Some("4"));
        assert_eq!(parsed.header("profile"), Some("drop=0.25 dup=0 delay=2"));
    }

    #[test]
    fn events_know_their_text_lines() {
        let log = sample_log();
        let text = log.to_string();
        // A log built in memory places its events where its text puts
        // them; a parsed one remembers where they were, blank lines
        // and late headers included.
        let first = text.lines().position(|l| l.starts_with("s ")).unwrap() + 1;
        assert_eq!(log.line_of(0), first);
        assert_eq!(EventLog::parse(&text).unwrap().line_of(0), first);
        let spaced = text.replacen("\ns 0\n", "\n\nh late 1\ns 0\n", 1);
        let parsed = EventLog::parse(&spaced).unwrap();
        assert_eq!(parsed.line_of(0), first + 2);
        assert_eq!(parsed.line_of(1), first + 3);
    }

    #[test]
    fn malformed_logs_are_rejected() {
        assert!(EventLog::parse("").is_err());
        assert!(EventLog::parse("not a log\n").is_err());
        let magic = format!("{MAGIC_PREFIX}{LOG_VERSION}");
        let bad_tag = format!("{magic}\nx 1\n");
        assert!(EventLog::parse(&bad_tag).is_err());
        let truncated_label = format!("{magic}\nd 0 0 1 l 9\n");
        assert!(EventLog::parse(&truncated_label).is_err());
        let truncated_compute = format!("{magic}\nd 0 0 1 g 7 9\n");
        assert!(EventLog::parse(&truncated_compute).is_err());
        let seqless_ack = format!("{magic}\nd 0 0 0 ma\n");
        assert!(EventLog::parse(&seqless_ack).is_err());
        let event_after_end = format!("{magic}\nend rejecting=- msgs=0 bits=0 rounds=1\ns 0\n");
        assert!(EventLog::parse(&event_after_end).is_err());
        let depthless = format!("{magic}\nd 0 0 l 9 ff80\n");
        assert!(EventLog::parse(&depthless).is_err());
        // The label ack is gone with the ack-gated protocol.
        let label_ack = format!("{magic}\nd 0 2 0 a\n");
        assert!(EventLog::parse(&label_ack).is_err());
    }
}
