//! Wire protocol coverage: encode/decode round-trips over every
//! `Query`/`Answer`/`ErrorCode` variant, rejection of truncated and
//! trailing-byte frames, and golden fixtures pinning the v1 byte
//! layout so a future refactor cannot silently change what is on the
//! wire.

use mstv_graph::{NodeId, Weight};
use mstv_store::proto::{
    AdminReply, AdminRequest, ErrorCode, Frame, ProtoError, Request, Response, SectionKind,
    FRAME_HEADER_LEN, PROTO_MAGIC, PROTO_VERSION,
};
use mstv_store::{Answer, Query};
use proptest::prelude::*;

fn query_strategy() -> impl Strategy<Value = Query> {
    prop_oneof![
        (any::<u32>(), any::<u32>()).prop_map(|(u, v)| Query::Max {
            u: NodeId(u),
            v: NodeId(v)
        }),
        (any::<u32>(), any::<u32>()).prop_map(|(u, v)| Query::Flow {
            u: NodeId(u),
            v: NodeId(v)
        }),
        (any::<u32>(), any::<u32>()).prop_map(|(u, v)| Query::Dist {
            u: NodeId(u),
            v: NodeId(v)
        }),
        (any::<u32>(), any::<u32>(), any::<u64>()).prop_map(|(u, v, w)| Query::VerifyEdge {
            u: NodeId(u),
            v: NodeId(v),
            w: Weight(w)
        }),
    ]
}

fn answer_strategy() -> impl Strategy<Value = Answer> {
    prop_oneof![
        any::<u64>().prop_map(|w| Answer::Max(Weight(w))),
        any::<u64>().prop_map(|w| Answer::Flow(Weight(w))),
        any::<u64>().prop_map(Answer::Dist),
        (any::<bool>(), any::<u64>()).prop_map(|(accept, w)| Answer::VerifyEdge {
            accept,
            max_on_path: Weight(w)
        }),
    ]
}

fn section_strategy() -> impl Strategy<Value = SectionKind> {
    prop_oneof![
        Just(SectionKind::Max),
        Just(SectionKind::Flow),
        Just(SectionKind::Dist),
    ]
}

fn error_strategy() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        (any::<u32>(), any::<u32>())
            .prop_map(|(node, nodes)| ErrorCode::UnknownNode { node, nodes }),
        (section_strategy(), any::<u32>())
            .prop_map(|(section, node)| ErrorCode::CorruptLabel { section, node }),
        (any::<u32>(), any::<u32>()).prop_map(|(u, v)| ErrorCode::LabelMismatch { u, v }),
        section_strategy().prop_map(|section| ErrorCode::MissingSection { section }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(pending, limit)| ErrorCode::Overloaded { pending, limit }),
        Just(ErrorCode::Internal),
    ]
}

fn result_strategy() -> impl Strategy<Value = Result<Answer, ErrorCode>> {
    prop_oneof![
        answer_strategy().prop_map(Ok),
        error_strategy().prop_map(Err),
    ]
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (
            any::<u64>(),
            proptest::collection::vec(query_strategy(), 0..20)
        )
            .prop_map(|(id, batch)| Frame::Request(Request { id, batch })),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(result_strategy(), 0..20)
        )
            .prop_map(|(id, server_epoch, results)| Frame::Response(Response {
                id,
                server_epoch,
                results
            })),
        Just(Frame::Admin(AdminRequest::Stats)),
        Just(Frame::Admin(AdminRequest::Shutdown)),
        (0usize..40).prop_map(|n| Frame::Admin(AdminRequest::SwapSnapshot {
            path: "p/".repeat(n)
        })),
        proptest::collection::vec(any::<u8>(), 0..64)
            .prop_map(|bytes| Frame::Admin(AdminRequest::ApplyDelta { bytes })),
        any::<u64>().prop_map(|epoch| Frame::AdminReply(AdminReply::Ok { epoch })),
        (0usize..40).prop_map(|n| Frame::AdminReply(AdminReply::Stats {
            json: "{}".repeat(n)
        })),
        (0usize..40).prop_map(|n| Frame::AdminReply(AdminReply::Err {
            message: "e!".repeat(n)
        })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_frame_roundtrips(frame in frame_strategy()) {
        let bytes = frame.encode().expect("test frames fit the bound");
        prop_assert!(bytes.len() >= FRAME_HEADER_LEN);
        prop_assert_eq!(&bytes[..4], &PROTO_MAGIC[..]);
        let back = Frame::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn every_truncation_is_a_typed_error(frame in frame_strategy(), cut_pick in any::<u64>()) {
        let bytes = frame.encode().expect("test frames fit the bound");
        let cut = (cut_pick % bytes.len() as u64) as usize;
        prop_assert!(
            Frame::decode(&bytes[..cut]).is_err(),
            "frame cut to {} of {} bytes still decoded",
            cut, bytes.len()
        );
    }

    #[test]
    fn trailing_bytes_are_rejected(frame in frame_strategy(), extra in 1usize..9) {
        let mut bytes = frame.encode().expect("test frames fit the bound");
        bytes.extend(std::iter::repeat_n(0xAAu8, extra));
        prop_assert_eq!(
            Frame::decode(&bytes),
            Err(ProtoError::TrailingBytes { extra })
        );
    }
}

/// Golden fixture for a v1 request frame: byte-for-byte layout pinned
/// independently of the encoder, so any change to the wire format
/// breaks this test instead of silently breaking old clients.
#[test]
fn golden_v1_request_layout() {
    let frame = Frame::Request(Request {
        id: 0x0102_0304_0506_0708,
        batch: vec![
            Query::Max {
                u: NodeId(1),
                v: NodeId(2),
            },
            Query::VerifyEdge {
                u: NodeId(3),
                v: NodeId(4),
                w: Weight(500),
            },
        ],
    });
    #[rustfmt::skip]
    let want: Vec<u8> = vec![
        // header: magic "MSQP" | version 1 LE | kind 1 (request) | payload len 38 LE
        0x4D, 0x53, 0x51, 0x50,  0x01, 0x00,  0x01,  0x26, 0x00, 0x00, 0x00,
        // id (u64 LE)
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
        // query count (u32 LE)
        0x02, 0x00, 0x00, 0x00,
        // Max { u: 1, v: 2 }: tag 1 | u LE | v LE
        0x01,  0x01, 0x00, 0x00, 0x00,  0x02, 0x00, 0x00, 0x00,
        // VerifyEdge { u: 3, v: 4, w: 500 }: tag 4 | u | v | w (u64 LE)
        0x04,  0x03, 0x00, 0x00, 0x00,  0x04, 0x00, 0x00, 0x00,
        0xF4, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    ];
    assert_eq!(frame.encode().unwrap(), want);
    assert_eq!(Frame::decode(&want).unwrap(), frame);
    assert_eq!(PROTO_VERSION, 1, "bump requires a new golden fixture");
}

/// Golden fixture for a v1 response frame, covering both a success
/// result and a typed error result.
#[test]
fn golden_v1_response_layout() {
    let frame = Frame::Response(Response {
        id: 7,
        server_epoch: 2,
        results: vec![
            Ok(Answer::VerifyEdge {
                accept: true,
                max_on_path: Weight(9),
            }),
            Err(ErrorCode::Overloaded {
                pending: 3,
                limit: 4,
            }),
        ],
    });
    #[rustfmt::skip]
    let want: Vec<u8> = vec![
        // header: magic | version 1 | kind 2 (response) | payload len 40 LE
        0x4D, 0x53, 0x51, 0x50,  0x01, 0x00,  0x02,  0x28, 0x00, 0x00, 0x00,
        // id 7 | server_epoch 2 (u64 LE each)
        0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // result count (u32 LE)
        0x02, 0x00, 0x00, 0x00,
        // Ok(VerifyEdge { accept: true, max: 9 }): status 0 | tag 4 | accept 1 | max LE
        0x00,  0x04,  0x01,  0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        // Err(Overloaded { pending: 3, limit: 4 }): status 6 | pending LE | limit LE
        0x06,  0x03, 0x00, 0x00, 0x00,  0x04, 0x00, 0x00, 0x00,
    ];
    assert_eq!(frame.encode().unwrap(), want);
    assert_eq!(Frame::decode(&want).unwrap(), frame);
}

/// Unknown tags inside a structurally complete payload are `Malformed`,
/// not panics or misreads.
#[test]
fn unknown_interior_tags_are_malformed() {
    let mut bytes = Frame::Request(Request {
        id: 1,
        batch: vec![Query::Max {
            u: NodeId(0),
            v: NodeId(0),
        }],
    })
    .encode()
    .unwrap();
    // The query tag byte sits right after id (8) + count (4).
    bytes[FRAME_HEADER_LEN + 12] = 0x7F;
    assert_eq!(
        Frame::decode(&bytes),
        Err(ProtoError::Malformed {
            context: "query tag"
        })
    );

    // Result status 5 is retired: a response carrying it, laid out as it
    // once was (status | shard: u32), is malformed.
    let mut retired = Frame::Response(Response {
        id: 1,
        server_epoch: 1,
        results: vec![Err(ErrorCode::Internal)],
    })
    .encode()
    .unwrap();
    // The status byte sits right after id (8) + epoch (8) + count (4).
    let status = FRAME_HEADER_LEN + 20;
    assert_eq!(retired[status], 7, "Internal is status 7");
    retired[status] = 5;
    retired.extend_from_slice(&3u32.to_le_bytes());
    let payload_len = (retired.len() - FRAME_HEADER_LEN) as u32;
    retired[FRAME_HEADER_LEN - 4..FRAME_HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    assert_eq!(
        Frame::decode(&retired),
        Err(ProtoError::Malformed {
            context: "result status"
        })
    );

    // A version from the future is refused up front.
    let mut future = Frame::Admin(AdminRequest::Stats).encode().unwrap();
    future[4] = 9;
    assert_eq!(
        Frame::decode(&future),
        Err(ProtoError::UnsupportedVersion { found: 9 })
    );
}
