//! Error type of the runtime, replayer, and log parser.

use std::error::Error;
use std::fmt;

use mstv_core::MarkerError;
use mstv_graph::NodeId;

/// Why a run, replay, or log parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The run did not quiesce with every node decided within the round
    /// budget — the fault schedule starved some edge of delivery.
    NoConvergence {
        /// Retransmission rounds started before giving up.
        rounds: u64,
    },
    /// The log was written in a format version this build does not
    /// read. Its frames' meaning changed between versions, so replaying
    /// it could only end in a trailer mismatch.
    LogVersion {
        /// The version the log's magic line names.
        found: String,
    },
    /// The configuration cannot be labelled: the graph is disconnected
    /// ([`MarkerError::NotSpanning`]), or its states fail the scheme's
    /// predicate.
    Marker(MarkerError),
    /// A replayed schedule ended with an undecided node: the log is
    /// truncated or was produced by a different configuration.
    Undecided {
        /// The first undecided node.
        node: NodeId,
    },
    /// The log text is malformed.
    BadLog {
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The log lacks a header the caller needs (e.g. to rebuild the
    /// instance for a replay).
    MissingHeader {
        /// The absent key.
        key: String,
    },
    /// A node worker died (panicked) while an event was outstanding.
    /// The run cannot produce a verdict; the router shuts the remaining
    /// workers down and surfaces the dead node instead of hanging on a
    /// report that will never arrive.
    WorkerDied {
        /// The node whose worker died.
        node: NodeId,
    },
    /// A label payload exceeds what the byte-frame length field can
    /// carry (`2^32 - 1` bits); encoding it would silently truncate.
    FrameTooLarge {
        /// The payload length that does not fit.
        bits: usize,
    },
    /// A frame carries a payload-kind tag this build does not know —
    /// e.g. a log or capture produced by a newer protocol revision.
    /// Typed (instead of a generic parse failure) so old replayers
    /// reject new kinds loudly rather than misparsing them.
    UnknownMsgKind {
        /// The unrecognized tag byte.
        tag: u8,
    },
    /// A frame is structurally malformed: short buffer, trailing bytes,
    /// or dirty padding bits.
    BadFrame {
        /// What was wrong with it.
        reason: String,
    },
    /// An adversary specification string
    /// (see [`AdversarySpec`](crate::AdversarySpec)) does not parse.
    BadAdversarySpec {
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NoConvergence { rounds } => {
                write!(
                    f,
                    "run did not converge within {rounds} retransmission rounds"
                )
            }
            NetError::LogVersion { found } => write!(
                f,
                "event log version {found} is not supported (this build reads {})",
                crate::log::LOG_VERSION
            ),
            NetError::Marker(e) => write!(f, "cannot label the network: {e}"),
            NetError::Undecided { node } => {
                write!(f, "replayed schedule leaves {node} undecided")
            }
            NetError::BadLog { line, reason } => {
                write!(f, "malformed event log at line {line}: {reason}")
            }
            NetError::MissingHeader { key } => {
                write!(f, "event log lacks required header {key:?}")
            }
            NetError::WorkerDied { node } => {
                write!(f, "worker for {node} died while an event was outstanding")
            }
            NetError::FrameTooLarge { bits } => {
                write!(
                    f,
                    "label payload of {bits} bits exceeds the frame length field (2^32 - 1 bits)"
                )
            }
            NetError::UnknownMsgKind { tag } => {
                write!(f, "unknown wire message kind (tag {tag:#04x})")
            }
            NetError::BadFrame { reason } => write!(f, "malformed wire frame: {reason}"),
            NetError::BadAdversarySpec { reason } => {
                write!(f, "malformed adversary spec: {reason}")
            }
        }
    }
}

impl Error for NetError {}
