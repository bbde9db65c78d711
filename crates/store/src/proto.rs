//! The versioned query wire protocol: one schema for the in-process
//! batch API and the network serving tier.
//!
//! [`Query`] and [`Answer`] started life as in-process types of the
//! [`crate::QueryEngine`]; this module promotes them to a first-class
//! wire schema so `run_batch_response` and a TCP front end (the
//! `mstv-serve` crate) speak the same language. The design follows the
//! `mstv-net` framing conventions: little-endian, length-prefixed,
//! self-delimiting frames with the workspace-wide
//! [`mstv_labels::MAX_FRAME_BYTES`] guard, so an oversized payload is a
//! typed [`ProtoError::Oversized`] rather than a silently truncated
//! length field.
//!
//! # Frame layout (v1)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "MSQP"
//! 4       2     protocol version, u16 LE (currently 1)
//! 6       1     frame kind: 1 Request, 2 Response, 3 AdminRequest,
//!               4 AdminReply
//! 7       4     payload length in bytes, u32 LE
//! 11      len   payload (kind-specific, see below)
//! ```
//!
//! Payloads, all little-endian:
//!
//! * **Request** — `id: u64 | count: u32 | count × Query` where a query
//!   is `tag: u8 (1 Max, 2 Flow, 3 Dist, 4 VerifyEdge) | u: u32 |
//!   v: u32` plus `w: u64` for `VerifyEdge`.
//! * **Response** — `id: u64 | server_epoch: u64 | count: u32 |
//!   count × result`. A result starts with a status byte: `0` is
//!   success followed by an answer (`tag: u8` mirroring the query tags,
//!   then `w: u64` / `d: u64` / `accept: u8, max: u64`); a non-zero
//!   status is an [`ErrorCode`] with its arguments (layout in
//!   [`ErrorCode`]'s docs).
//! * **AdminRequest** — `tag: u8`: `1` stats, `2` swap-snapshot
//!   followed by `len: u32 | len × utf-8 path bytes`, `3` shutdown,
//!   `4` apply-delta followed by `len: u32 | len × record bytes` (one
//!   serialized `MSTVJRNL` [`crate::DeltaRecord`] frame).
//! * **AdminReply** — `tag: u8`: `1` ok followed by `epoch: u64`,
//!   `2` stats followed by a length-prefixed JSON string, `3` error
//!   followed by a length-prefixed message.
//!
//! The v1 byte layout is pinned by a golden fixture in
//! `tests/proto_wire.rs`; encoding and decoding round-trip is
//! property-tested over every query, answer, and error variant.

use std::fmt;

use mstv_graph::{NodeId, Weight};
use mstv_labels::MAX_FRAME_BYTES;

use crate::engine::{Answer, Query};
use crate::StoreError;

/// First bytes of every protocol frame.
pub const PROTO_MAGIC: [u8; 4] = *b"MSQP";

/// The protocol version this module encodes (and the newest it decodes).
pub const PROTO_VERSION: u16 = 1;

/// Bytes before the payload: magic, version, kind, payload length.
pub const FRAME_HEADER_LEN: usize = 11;

/// The largest payload a frame may carry, in bytes — the shared
/// [`mstv_labels::MAX_FRAME_BYTES`] framing bound.
pub const MAX_FRAME_PAYLOAD: usize = MAX_FRAME_BYTES;

/// A failure while encoding or decoding a protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The buffer does not start with [`PROTO_MAGIC`].
    BadMagic,
    /// The frame's version is newer than this decoder understands.
    UnsupportedVersion {
        /// The version number found in the header.
        found: u16,
    },
    /// The header names a frame kind this decoder does not know.
    UnknownKind {
        /// The offending kind byte.
        kind: u8,
    },
    /// The buffer ended before a field could be read.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A payload longer than [`MAX_FRAME_PAYLOAD`] — refused on both
    /// the encode and the decode path.
    Oversized {
        /// The payload length that was requested or claimed.
        bytes: u64,
    },
    /// A structurally invalid field (unknown tags, bad UTF-8, ...).
    Malformed {
        /// Where the defect was found.
        context: &'static str,
    },
    /// Bytes remained after the payload was fully decoded.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::BadMagic => write!(f, "not a query-protocol frame (bad magic)"),
            ProtoError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported protocol version {found} (speaking v{PROTO_VERSION})"
                )
            }
            ProtoError::UnknownKind { kind } => write!(f, "unknown frame kind {kind:#04x}"),
            ProtoError::Truncated { context } => write!(f, "truncated frame: {context}"),
            ProtoError::Oversized { bytes } => write!(
                f,
                "frame payload of {bytes} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte bound"
            ),
            ProtoError::Malformed { context } => write!(f, "malformed frame: {context}"),
            ProtoError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the payload")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// The label section a wire error refers to, as a closed enum instead
/// of the in-process `&'static str`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// The `MAX` label section.
    Max,
    /// The `FLOW` label section.
    Flow,
    /// The optional `DIST` label section.
    Dist,
}

impl SectionKind {
    fn code(self) -> u8 {
        match self {
            SectionKind::Max => 1,
            SectionKind::Flow => 2,
            SectionKind::Dist => 3,
        }
    }

    fn from_code(code: u8) -> Option<SectionKind> {
        match code {
            1 => Some(SectionKind::Max),
            2 => Some(SectionKind::Flow),
            3 => Some(SectionKind::Dist),
            _ => None,
        }
    }

    /// The section's name, matching the `StoreError` vocabulary.
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Max => "max",
            SectionKind::Flow => "flow",
            SectionKind::Dist => "dist",
        }
    }
}

/// A typed per-query failure as it travels on the wire (and as
/// [`crate::BatchResponse`] reports it in-process).
///
/// Wire layout: the status byte named next to each variant, followed by
/// the variant's fields in order, little-endian.
///
/// Status `5` is retired and never reused, so that no peer built against
/// an older version can read a new code as the failure it once named (a
/// panicked shard worker, which an engine that answers each batch inline
/// cannot have). A response carrying it decodes as
/// [`ProtoError::Malformed`] with context `"result status"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Status `1`: a query endpoint the snapshot carries no label for
    /// (`node: u32 | nodes: u32`).
    UnknownNode {
        /// The offending node id.
        node: u32,
        /// Number of labelled nodes in the serving snapshot.
        nodes: u32,
    },
    /// Status `2`: a stored label record that does not decode
    /// (`section: u8 | node: u32`).
    CorruptLabel {
        /// The section the record lives in.
        section: SectionKind,
        /// The node whose record is bad.
        node: u32,
    },
    /// Status `3`: two labels from different trees (`u: u32 | v: u32`).
    LabelMismatch {
        /// First query endpoint.
        u: u32,
        /// Second query endpoint.
        v: u32,
    },
    /// Status `4`: a query against an absent section (`section: u8`).
    MissingSection {
        /// The absent section.
        section: SectionKind,
    },
    /// Status `6`: the server refused the request because its queue was
    /// full (`pending: u32 | limit: u32`) — admission control, not an
    /// engine failure. Retry later.
    Overloaded {
        /// Requests already waiting when this one arrived.
        pending: u32,
        /// The configured queue-depth bound.
        limit: u32,
    },
    /// Status `7`: an engine failure with no wire representation
    /// (I/O, container corruption, ...). Details stay server-side.
    Internal,
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorCode::UnknownNode { node, nodes } => {
                write!(
                    f,
                    "node {node} is not labelled (snapshot holds {nodes} nodes)"
                )
            }
            ErrorCode::CorruptLabel { section, node } => {
                write!(f, "{} label of node {node} does not decode", section.name())
            }
            ErrorCode::LabelMismatch { u, v } => {
                write!(f, "labels of {u} and {v} share no separator prefix")
            }
            ErrorCode::MissingSection { section } => {
                write!(f, "snapshot has no {} section", section.name())
            }
            ErrorCode::Overloaded { pending, limit } => {
                write!(
                    f,
                    "server overloaded ({pending} requests pending, limit {limit})"
                )
            }
            ErrorCode::Internal => write!(f, "internal server error"),
        }
    }
}

impl From<&StoreError> for ErrorCode {
    /// Maps an in-process engine failure to its wire code. Store-side
    /// failures with no serving-time meaning (I/O, container framing)
    /// collapse to [`ErrorCode::Internal`].
    fn from(e: &StoreError) -> ErrorCode {
        fn section_of(name: &str) -> Option<SectionKind> {
            match name {
                "max" => Some(SectionKind::Max),
                "flow" => Some(SectionKind::Flow),
                "dist" => Some(SectionKind::Dist),
                _ => None,
            }
        }
        match *e {
            StoreError::UnknownNode { node, nodes } => ErrorCode::UnknownNode { node, nodes },
            StoreError::CorruptLabel { section, node } => match section_of(section) {
                Some(section) => ErrorCode::CorruptLabel { section, node },
                None => ErrorCode::Internal,
            },
            StoreError::LabelMismatch { u, v } => ErrorCode::LabelMismatch { u, v },
            StoreError::MissingSection { section } => match section_of(section) {
                Some(section) => ErrorCode::MissingSection { section },
                None => ErrorCode::Internal,
            },
            _ => ErrorCode::Internal,
        }
    }
}

/// A batch of queries as it travels client → server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response —
    /// what makes pipelining (several requests in flight on one
    /// connection) unambiguous.
    pub id: u64,
    /// The queries, answered in order.
    pub batch: Vec<Query>,
}

/// The answers to one [`Request`], server → client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request's correlation id, echoed.
    pub id: u64,
    /// The serving snapshot's epoch — increments on every hot swap, so
    /// a client can tell which snapshot generation answered. All
    /// answers of one response come from a single epoch, never a mix.
    pub server_epoch: u64,
    /// One result per query, in request order.
    pub results: Vec<Result<Answer, ErrorCode>>,
}

/// Out-of-band server operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminRequest {
    /// Ask for the server's metrics JSON.
    Stats,
    /// Load the snapshot at `path` (a path on the *server's*
    /// filesystem) and atomically swap it in under live traffic.
    SwapSnapshot {
        /// Server-side path of the replacement `MSTVSNAP` file.
        path: String,
    },
    /// Drain and stop the server.
    Shutdown,
    /// Fold one journal delta record into the serving snapshot in place
    /// (no engine rebuild, no epoch-resetting swap): the live-mutation
    /// path of `mstv-dyn`. The reply's epoch reflects the new delta
    /// sequence.
    ApplyDelta {
        /// One serialized [`crate::DeltaRecord`] frame
        /// (`DeltaRecord::to_bytes`).
        bytes: Vec<u8>,
    },
}

/// Server replies to [`AdminRequest`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminReply {
    /// The operation succeeded; `epoch` is the serving epoch afterwards.
    Ok {
        /// Current snapshot epoch.
        epoch: u64,
    },
    /// The stats JSON (server block + engine block).
    Stats {
        /// One-line JSON document.
        json: String,
    },
    /// The operation failed; the message says why.
    Err {
        /// Human-readable failure description.
        message: String,
    },
}

/// Any protocol frame, ready to encode or freshly decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A query batch, client → server.
    Request(Request),
    /// A batch's answers, server → client.
    Response(Response),
    /// An admin operation, client → server.
    Admin(AdminRequest),
    /// An admin operation's outcome, server → client.
    AdminReply(AdminReply),
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Request(_) => 1,
            Frame::Response(_) => 2,
            Frame::Admin(_) => 3,
            Frame::AdminReply(_) => 4,
        }
    }

    /// Serializes the frame: header ([`FRAME_HEADER_LEN`] bytes) plus
    /// payload.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Oversized`] if the payload would exceed
    /// [`MAX_FRAME_PAYLOAD`].
    pub fn encode(&self) -> Result<Vec<u8>, ProtoError> {
        let mut payload = Vec::new();
        match self {
            Frame::Request(req) => {
                put_u64(&mut payload, req.id);
                put_u32(
                    &mut payload,
                    u32::try_from(req.batch.len())
                        .map_err(|_| ProtoError::Oversized { bytes: u64::MAX })?,
                );
                for q in &req.batch {
                    encode_query(&mut payload, q);
                }
            }
            Frame::Response(resp) => {
                put_u64(&mut payload, resp.id);
                put_u64(&mut payload, resp.server_epoch);
                put_u32(
                    &mut payload,
                    u32::try_from(resp.results.len())
                        .map_err(|_| ProtoError::Oversized { bytes: u64::MAX })?,
                );
                for r in &resp.results {
                    encode_result(&mut payload, r);
                }
            }
            Frame::Admin(req) => encode_admin(&mut payload, req)?,
            Frame::AdminReply(reply) => encode_admin_reply(&mut payload, reply)?,
        }
        if payload.len() > MAX_FRAME_PAYLOAD {
            return Err(ProtoError::Oversized {
                bytes: payload.len() as u64,
            });
        }
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        out.extend_from_slice(&PROTO_MAGIC);
        out.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        out.push(self.kind());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }

    /// Parses one complete frame (header + payload, nothing after).
    ///
    /// # Errors
    ///
    /// Every malformation is a specific [`ProtoError`]; see
    /// [`header_payload_len`] for the header checks.
    pub fn decode(bytes: &[u8]) -> Result<Frame, ProtoError> {
        if bytes.len() < FRAME_HEADER_LEN {
            return Err(ProtoError::Truncated {
                context: "frame header",
            });
        }
        let header: &[u8; FRAME_HEADER_LEN] = bytes[..FRAME_HEADER_LEN]
            .try_into()
            .expect("length checked");
        let payload_len = header_payload_len(header)?;
        let payload = &bytes[FRAME_HEADER_LEN..];
        if payload.len() < payload_len {
            return Err(ProtoError::Truncated {
                context: "frame payload",
            });
        }
        if payload.len() > payload_len {
            return Err(ProtoError::TrailingBytes {
                extra: payload.len() - payload_len,
            });
        }
        let mut r = Reader {
            buf: payload,
            at: 0,
        };
        let frame = match header[6] {
            1 => {
                let id = r.u64("request id")?;
                let count = r.u32("query count")?;
                let mut batch = Vec::with_capacity(count.min(65_536) as usize);
                for _ in 0..count {
                    batch.push(decode_query(&mut r)?);
                }
                Frame::Request(Request { id, batch })
            }
            2 => {
                let id = r.u64("response id")?;
                let server_epoch = r.u64("server epoch")?;
                let count = r.u32("result count")?;
                let mut results = Vec::with_capacity(count.min(65_536) as usize);
                for _ in 0..count {
                    results.push(decode_result(&mut r)?);
                }
                Frame::Response(Response {
                    id,
                    server_epoch,
                    results,
                })
            }
            3 => Frame::Admin(decode_admin(&mut r)?),
            4 => Frame::AdminReply(decode_admin_reply(&mut r)?),
            kind => return Err(ProtoError::UnknownKind { kind }),
        };
        if r.at != r.buf.len() {
            return Err(ProtoError::TrailingBytes {
                extra: r.buf.len() - r.at,
            });
        }
        Ok(frame)
    }
}

/// Validates a frame header and returns the payload length it claims —
/// the streaming entry point: read [`FRAME_HEADER_LEN`] bytes, call
/// this, read exactly that many payload bytes, then [`Frame::decode`]
/// the concatenation.
///
/// # Errors
///
/// [`ProtoError::BadMagic`], [`ProtoError::UnsupportedVersion`],
/// [`ProtoError::UnknownKind`], or [`ProtoError::Oversized`] when the
/// claimed length exceeds [`MAX_FRAME_PAYLOAD`] — the guard that keeps
/// a hostile header from provoking a half-gigabyte allocation.
pub fn header_payload_len(header: &[u8; FRAME_HEADER_LEN]) -> Result<usize, ProtoError> {
    if header[..4] != PROTO_MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != PROTO_VERSION {
        return Err(ProtoError::UnsupportedVersion { found: version });
    }
    if !(1..=4).contains(&header[6]) {
        return Err(ProtoError::UnknownKind { kind: header[6] });
    }
    let len = u32::from_le_bytes([header[7], header[8], header[9], header[10]]) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(ProtoError::Oversized { bytes: len as u64 });
    }
    Ok(len)
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&[u8], ProtoError> {
        if self.buf.len() - self.at < n {
            return Err(ProtoError::Truncated { context });
        }
        let out = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, ProtoError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self, context: &'static str) -> Result<String, ProtoError> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::Malformed { context })
    }

    fn bytes(&mut self, context: &'static str) -> Result<Vec<u8>, ProtoError> {
        let len = self.u32(context)? as usize;
        Ok(self.take(len, context)?.to_vec())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_string(out: &mut Vec<u8>, s: &str) -> Result<(), ProtoError> {
    put_bytes(out, s.as_bytes())
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) -> Result<(), ProtoError> {
    let len = u32::try_from(bytes.len()).map_err(|_| ProtoError::Oversized {
        bytes: bytes.len() as u64,
    })?;
    put_u32(out, len);
    out.extend_from_slice(bytes);
    Ok(())
}

fn encode_query(out: &mut Vec<u8>, q: &Query) {
    match *q {
        Query::Max { u, v } => {
            out.push(1);
            put_u32(out, u.0);
            put_u32(out, v.0);
        }
        Query::Flow { u, v } => {
            out.push(2);
            put_u32(out, u.0);
            put_u32(out, v.0);
        }
        Query::Dist { u, v } => {
            out.push(3);
            put_u32(out, u.0);
            put_u32(out, v.0);
        }
        Query::VerifyEdge { u, v, w } => {
            out.push(4);
            put_u32(out, u.0);
            put_u32(out, v.0);
            put_u64(out, w.0);
        }
    }
}

fn decode_query(r: &mut Reader<'_>) -> Result<Query, ProtoError> {
    let tag = r.u8("query tag")?;
    let u = NodeId(r.u32("query endpoint u")?);
    let v = NodeId(r.u32("query endpoint v")?);
    Ok(match tag {
        1 => Query::Max { u, v },
        2 => Query::Flow { u, v },
        3 => Query::Dist { u, v },
        4 => Query::VerifyEdge {
            u,
            v,
            w: Weight(r.u64("verify weight")?),
        },
        _ => {
            return Err(ProtoError::Malformed {
                context: "query tag",
            })
        }
    })
}

fn encode_answer(out: &mut Vec<u8>, a: &Answer) {
    match *a {
        Answer::Max(w) => {
            out.push(1);
            put_u64(out, w.0);
        }
        Answer::Flow(w) => {
            out.push(2);
            put_u64(out, w.0);
        }
        Answer::Dist(d) => {
            out.push(3);
            put_u64(out, d);
        }
        Answer::VerifyEdge {
            accept,
            max_on_path,
        } => {
            out.push(4);
            out.push(u8::from(accept));
            put_u64(out, max_on_path.0);
        }
    }
}

fn decode_answer(r: &mut Reader<'_>) -> Result<Answer, ProtoError> {
    Ok(match r.u8("answer tag")? {
        1 => Answer::Max(Weight(r.u64("max weight")?)),
        2 => Answer::Flow(Weight(r.u64("flow weight")?)),
        3 => Answer::Dist(r.u64("distance")?),
        4 => {
            let accept = match r.u8("verify verdict")? {
                0 => false,
                1 => true,
                _ => {
                    return Err(ProtoError::Malformed {
                        context: "verify verdict",
                    })
                }
            };
            Answer::VerifyEdge {
                accept,
                max_on_path: Weight(r.u64("verify path max")?),
            }
        }
        _ => {
            return Err(ProtoError::Malformed {
                context: "answer tag",
            })
        }
    })
}

fn encode_result(out: &mut Vec<u8>, r: &Result<Answer, ErrorCode>) {
    match r {
        Ok(a) => {
            out.push(0);
            encode_answer(out, a);
        }
        Err(e) => match *e {
            ErrorCode::UnknownNode { node, nodes } => {
                out.push(1);
                put_u32(out, node);
                put_u32(out, nodes);
            }
            ErrorCode::CorruptLabel { section, node } => {
                out.push(2);
                out.push(section.code());
                put_u32(out, node);
            }
            ErrorCode::LabelMismatch { u, v } => {
                out.push(3);
                put_u32(out, u);
                put_u32(out, v);
            }
            ErrorCode::MissingSection { section } => {
                out.push(4);
                out.push(section.code());
            }
            ErrorCode::Overloaded { pending, limit } => {
                out.push(6);
                put_u32(out, pending);
                put_u32(out, limit);
            }
            ErrorCode::Internal => out.push(7),
        },
    }
}

fn decode_result(r: &mut Reader<'_>) -> Result<Result<Answer, ErrorCode>, ProtoError> {
    let section = |r: &mut Reader<'_>| -> Result<SectionKind, ProtoError> {
        SectionKind::from_code(r.u8("section code")?).ok_or(ProtoError::Malformed {
            context: "section code",
        })
    };
    Ok(match r.u8("result status")? {
        0 => Ok(decode_answer(r)?),
        1 => Err(ErrorCode::UnknownNode {
            node: r.u32("unknown node")?,
            nodes: r.u32("node count")?,
        }),
        2 => Err(ErrorCode::CorruptLabel {
            section: section(r)?,
            node: r.u32("corrupt node")?,
        }),
        3 => Err(ErrorCode::LabelMismatch {
            u: r.u32("mismatch u")?,
            v: r.u32("mismatch v")?,
        }),
        4 => Err(ErrorCode::MissingSection {
            section: section(r)?,
        }),
        6 => Err(ErrorCode::Overloaded {
            pending: r.u32("pending count")?,
            limit: r.u32("queue limit")?,
        }),
        7 => Err(ErrorCode::Internal),
        _ => {
            return Err(ProtoError::Malformed {
                context: "result status",
            })
        }
    })
}

fn encode_admin(out: &mut Vec<u8>, req: &AdminRequest) -> Result<(), ProtoError> {
    match req {
        AdminRequest::Stats => out.push(1),
        AdminRequest::SwapSnapshot { path } => {
            out.push(2);
            put_string(out, path)?;
        }
        AdminRequest::Shutdown => out.push(3),
        AdminRequest::ApplyDelta { bytes } => {
            out.push(4);
            put_bytes(out, bytes)?;
        }
    }
    Ok(())
}

fn decode_admin(r: &mut Reader<'_>) -> Result<AdminRequest, ProtoError> {
    Ok(match r.u8("admin tag")? {
        1 => AdminRequest::Stats,
        2 => AdminRequest::SwapSnapshot {
            path: r.string("swap path")?,
        },
        3 => AdminRequest::Shutdown,
        4 => AdminRequest::ApplyDelta {
            bytes: r.bytes("delta record")?,
        },
        _ => {
            return Err(ProtoError::Malformed {
                context: "admin tag",
            })
        }
    })
}

fn encode_admin_reply(out: &mut Vec<u8>, reply: &AdminReply) -> Result<(), ProtoError> {
    match reply {
        AdminReply::Ok { epoch } => {
            out.push(1);
            put_u64(out, *epoch);
        }
        AdminReply::Stats { json } => {
            out.push(2);
            put_string(out, json)?;
        }
        AdminReply::Err { message } => {
            out.push(3);
            put_string(out, message)?;
        }
    }
    Ok(())
}

fn decode_admin_reply(r: &mut Reader<'_>) -> Result<AdminReply, ProtoError> {
    Ok(match r.u8("admin reply tag")? {
        1 => AdminReply::Ok {
            epoch: r.u64("epoch")?,
        },
        2 => AdminReply::Stats {
            json: r.string("stats json")?,
        },
        3 => AdminReply::Err {
            message: r.string("error message")?,
        },
        _ => {
            return Err(ProtoError::Malformed {
                context: "admin reply tag",
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_smoke() {
        let frames = [
            Frame::Request(Request {
                id: 7,
                batch: vec![
                    Query::Max {
                        u: NodeId(1),
                        v: NodeId(2),
                    },
                    Query::VerifyEdge {
                        u: NodeId(3),
                        v: NodeId(4),
                        w: Weight(900),
                    },
                ],
            }),
            Frame::Response(Response {
                id: 7,
                server_epoch: 3,
                results: vec![
                    Ok(Answer::Max(Weight(41))),
                    Err(ErrorCode::Overloaded {
                        pending: 64,
                        limit: 64,
                    }),
                ],
            }),
            Frame::Admin(AdminRequest::SwapSnapshot {
                path: "/tmp/x.snap".to_owned(),
            }),
            Frame::Admin(AdminRequest::ApplyDelta {
                bytes: vec![0xDE, 0xAD, 0xBE, 0xEF],
            }),
            Frame::AdminReply(AdminReply::Stats {
                json: "{\"ok\":true}".to_owned(),
            }),
        ];
        for f in frames {
            let bytes = f.encode().expect("frames fit");
            assert_eq!(Frame::decode(&bytes).expect("own frames decode"), f);
        }
    }

    #[test]
    fn header_rejections_are_typed() {
        let good = Frame::Admin(AdminRequest::Stats).encode().unwrap();
        let header = |bytes: &[u8]| -> [u8; FRAME_HEADER_LEN] {
            bytes[..FRAME_HEADER_LEN].try_into().unwrap()
        };
        assert!(header_payload_len(&header(&good)).is_ok());

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(
            header_payload_len(&header(&bad_magic)),
            Err(ProtoError::BadMagic)
        );

        let mut future = good.clone();
        future[4] = 2;
        assert_eq!(
            header_payload_len(&header(&future)),
            Err(ProtoError::UnsupportedVersion { found: 2 })
        );

        let mut unknown = good.clone();
        unknown[6] = 9;
        assert_eq!(
            header_payload_len(&header(&unknown)),
            Err(ProtoError::UnknownKind { kind: 9 })
        );

        let mut huge = good.clone();
        huge[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            header_payload_len(&header(&huge)),
            Err(ProtoError::Oversized {
                bytes: u64::from(u32::MAX)
            })
        );
    }

    #[test]
    fn error_code_mapping_covers_the_queryable_subset() {
        let cases: [(StoreError, ErrorCode); 4] = [
            (
                StoreError::UnknownNode { node: 9, nodes: 4 },
                ErrorCode::UnknownNode { node: 9, nodes: 4 },
            ),
            (
                StoreError::CorruptLabel {
                    section: "flow",
                    node: 2,
                },
                ErrorCode::CorruptLabel {
                    section: SectionKind::Flow,
                    node: 2,
                },
            ),
            (
                StoreError::LabelMismatch { u: 1, v: 2 },
                ErrorCode::LabelMismatch { u: 1, v: 2 },
            ),
            (
                StoreError::MissingSection { section: "dist" },
                ErrorCode::MissingSection {
                    section: SectionKind::Dist,
                },
            ),
        ];
        for (store, wire) in cases {
            assert_eq!(ErrorCode::from(&store), wire);
        }
        // Everything without serving-time meaning collapses to Internal.
        assert_eq!(ErrorCode::from(&StoreError::BadMagic), ErrorCode::Internal);
        assert_eq!(
            ErrorCode::from(&StoreError::Io(std::io::Error::other("x"))),
            ErrorCode::Internal
        );
    }
}
