//! Differential property tests: the word-batched `BitString` against
//! the pinned one-bit-per-call implementation in
//! `mstv_labels::reference`.
//!
//! The reference module is the executable specification of the stream
//! layout. Random operation sequences run through both implementations
//! and must agree on every observable: bit length, every `get`, the
//! packed byte output, `from_bytes` acceptance, and the values each
//! reader hands back (both the panicking and the fallible flavors),
//! including a reader windowed at any bit offset of a larger buffer.
//! A batched shortcut that changes even one emitted bit fails here.

use mstv_labels::reference::{RefBitReader, RefBitString};
use mstv_labels::{BitSlice, BitString};
use proptest::prelude::*;

/// One operation applied to both implementations in lockstep.
#[derive(Debug, Clone)]
enum Op {
    Push(bool),
    Bits(u64, u32),
    Gamma(u64),
    Delta(u64),
    /// Append a second stream built from the given bit pattern.
    Extend(Vec<bool>),
    /// Values at one width: one `push_fields` call against one
    /// `push_bits` per value.
    Fields(Vec<u64>, u32),
}

/// `v` cut to its low `w` bits.
fn fit(v: u64, w: u32) -> u64 {
    if w == 64 {
        v
    } else if w == 0 {
        0
    } else {
        v & ((1u64 << w) - 1)
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<bool>().prop_map(Op::Push),
        (any::<u64>(), 0u32..=64).prop_map(|(v, w)| Op::Bits(fit(v, w), w)),
        // Bias toward boundary values: the shift-overflow sweep lives
        // at width 63/64 and u64::MAX, the one-chunk code ends at 32
        // significant bits.
        prop_oneof![
            Just(u64::MAX),
            Just(u64::MAX - 1),
            Just(1u64 << 63),
            Just((1u64 << 63) - 1),
            Just(u64::from(u32::MAX)),
            Just(1u64 << 32),
            1u64..=u64::MAX,
            1u64..=1 << 33,
            1u64..64,
        ]
        .prop_map(Op::Gamma),
        prop_oneof![Just(u64::MAX), Just(1u64 << 63), 1u64..=u64::MAX].prop_map(Op::Delta),
        proptest::collection::vec(any::<bool>(), 0..100).prop_map(Op::Extend),
        (proptest::collection::vec(any::<u64>(), 0..12), 0u32..=64)
            .prop_map(|(vs, w)| Op::Fields(vs.into_iter().map(|v| fit(v, w)).collect(), w)),
    ]
}

fn build_both(ops: &[Op]) -> (BitString, RefBitString) {
    let mut new = BitString::new();
    let mut old = RefBitString::new();
    for op in ops {
        match op {
            Op::Push(b) => {
                new.push(*b);
                old.push(*b);
            }
            Op::Bits(v, w) => {
                new.push_bits(*v, *w);
                old.push_bits(*v, *w);
            }
            Op::Gamma(v) => {
                new.push_elias_gamma(*v);
                old.push_elias_gamma(*v);
            }
            Op::Delta(v) => {
                new.push_elias_delta(*v);
                old.push_elias_delta(*v);
            }
            Op::Extend(bits) => {
                let mut new_other = BitString::new();
                let mut old_other = RefBitString::new();
                for &b in bits {
                    new_other.push(b);
                    old_other.push(b);
                }
                new.extend_from(&new_other);
                old.extend_from(&old_other);
            }
            Op::Fields(vs, w) => {
                new.push_fields(vs.iter().copied(), *w);
                for &v in vs {
                    old.push_bits(v, *w);
                }
            }
        }
    }
    (new, old)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_op_sequences_build_identical_streams(
        ops in proptest::collection::vec(op_strategy(), 0..40)
    ) {
        let (new, old) = build_both(&ops);
        prop_assert_eq!(new.len(), old.len());
        for i in 0..old.len() {
            prop_assert_eq!(new.get(i), old.get(i), "bit {}", i);
        }
        // Packed byte output is identical, and each implementation
        // accepts the other's bytes.
        let new_bytes = new.to_bytes();
        let old_bytes = old.to_bytes();
        prop_assert_eq!(&new_bytes, &old_bytes);
        let new_back = BitString::from_bytes(&old_bytes, old.len());
        prop_assert_eq!(new_back.as_ref(), Some(&new));
        let old_back = RefBitString::from_bytes(&new_bytes, new.len());
        prop_assert_eq!(old_back.as_ref(), Some(&old));
    }

    #[test]
    fn readers_agree_on_encoder_output(
        ops in proptest::collection::vec(op_strategy(), 0..40)
    ) {
        let (new, old) = build_both(&ops);
        let mut new_r = new.reader();
        let mut old_r = old.reader();
        for op in &ops {
            match op {
                Op::Push(_) => prop_assert_eq!(new_r.read_bit(), old_r.read_bit()),
                Op::Bits(_, w) => {
                    prop_assert_eq!(new_r.read_bits(*w), old_r.read_bits(*w));
                }
                Op::Gamma(_) => {
                    prop_assert_eq!(new_r.read_elias_gamma(), old_r.read_elias_gamma());
                }
                Op::Delta(_) => {
                    prop_assert_eq!(new_r.read_elias_delta(), old_r.read_elias_delta());
                }
                Op::Extend(bits) => {
                    for _ in bits {
                        prop_assert_eq!(new_r.read_bit(), old_r.read_bit());
                    }
                }
                Op::Fields(vs, w) => {
                    for _ in vs {
                        prop_assert_eq!(new_r.read_bits(*w), old_r.read_bits(*w));
                    }
                }
            }
            prop_assert_eq!(new_r.position(), old_r.position());
        }
        prop_assert_eq!(new_r.remaining(), 0);
        prop_assert_eq!(old_r.remaining(), 0);
    }

    #[test]
    fn fallible_readers_agree_on_random_chunking(
        ops in proptest::collection::vec(op_strategy(), 0..25),
        widths in proptest::collection::vec(0u32..=64, 0..60)
    ) {
        // Re-read the identical stream through an arbitrary sequence of
        // fixed-width windows that ignores the original op boundaries:
        // both fallible readers must agree value-for-value, including
        // on where the stream runs out.
        let (new, old) = build_both(&ops);
        let mut new_r = new.reader();
        let mut old_r = old.reader();
        for &w in &widths {
            prop_assert_eq!(new_r.try_read_bits(w), old_r.try_read_bits(w));
        }
        prop_assert_eq!(new_r.remaining(), old_r.remaining());
    }

    #[test]
    fn fallible_gamma_agrees_on_encoder_output(
        values in proptest::collection::vec(
            prop_oneof![Just(u64::MAX), Just(1u64 << 63), 1u64..=u64::MAX, 1u64..=1 << 33],
            0..20
        )
    ) {
        let mut new = BitString::new();
        let mut old = RefBitString::new();
        for &v in &values {
            new.push_elias_gamma(v);
            old.push_elias_gamma(v);
        }
        let mut new_r = new.reader();
        let mut old_r = old.reader();
        for _ in &values {
            prop_assert_eq!(new_r.try_read_elias_gamma(), old_r.try_read_elias_gamma());
        }
        prop_assert_eq!(new_r.try_read_elias_gamma(), None);
        prop_assert_eq!(old_r.try_read_elias_gamma(), None);
    }
}

/// One read against both readers in the windowed-reader test.
#[derive(Debug, Clone)]
enum Read {
    Bit,
    Bits(u32),
    /// A skip; on the reference, a read whose result is thrown away.
    Skip(usize),
    Gamma,
    Token,
}

fn read_strategy() -> impl Strategy<Value = Read> {
    prop_oneof![
        Just(Read::Bit),
        (0u32..=64).prop_map(Read::Bits),
        (0usize..=200).prop_map(Read::Skip),
        Just(Read::Gamma),
        Just(Read::Token),
    ]
}

/// The reference's γ read under the batched reader's contract: `None`,
/// cursor unmoved, on a truncated codeword or on a zero run of 64 or
/// more (which the reference would wrap into a bogus value).
fn ref_gamma(r: &mut RefBitReader<'_>) -> Option<u64> {
    let mut scan = r.clone();
    let mut zeros = 0;
    while scan.try_read_bit() == Some(false) {
        zeros += 1;
    }
    if zeros >= 64 {
        return None;
    }
    let mut probe = r.clone();
    let value = probe.try_read_elias_gamma()?;
    *r = probe;
    Some(value)
}

/// `bits` re-windowed at bit offset `8 * pre.len() + lead.len()` of a
/// buffer that holds garbage on both sides: `pre` bytes, `lead` bits,
/// the stream, `trail` bits, then `post` bytes.
fn host_buffer(
    bits: &BitString,
    pre: &[u8],
    lead: &[bool],
    trail: &[bool],
    post: &[u8],
) -> Vec<u8> {
    let mut host = BitString::new();
    for &b in lead {
        host.push(b);
    }
    host.extend_from(bits);
    for &b in trail {
        host.push(b);
    }
    [pre, host.as_bytes(), post].concat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn windowed_reader_agrees_at_any_offset_under_mixed_reads(
        ops in proptest::collection::vec(op_strategy(), 0..25),
        reads in proptest::collection::vec(read_strategy(), 0..80),
        pre in proptest::collection::vec(any::<u8>(), 0..10),
        lead in proptest::collection::vec(any::<bool>(), 0..8),
        trail in proptest::collection::vec(any::<bool>(), 0..8),
        post in proptest::collection::vec(any::<u8>(), 0..10)
    ) {
        // Random garbage around a random bit offset makes window
        // refills take both load paths (a full 8-byte load, and the
        // short one at the buffer's end) and must never leak into a
        // value. Reads ignore the op boundaries, so γ reads also meet
        // truncated and overlong codewords.
        let (new, old) = build_both(&ops);
        let buf = host_buffer(&new, &pre, &lead, &trail, &post);
        let slice = BitSlice::new(&buf, 8 * pre.len() + lead.len(), new.len());
        let mut new_r = slice.reader();
        let mut old_r = old.reader();
        let mut tokens = Vec::new();
        for read in &reads {
            match *read {
                Read::Bit => prop_assert_eq!(new_r.try_read_bit(), old_r.try_read_bit()),
                Read::Bits(w) => prop_assert_eq!(new_r.try_read_bits(w), old_r.try_read_bits(w)),
                Read::Skip(n) => {
                    let skipped = (old_r.remaining() >= n).then(|| {
                        for _ in 0..n {
                            old_r.read_bit();
                        }
                    });
                    prop_assert_eq!(new_r.try_skip_bits(n), skipped);
                }
                Read::Gamma => {
                    prop_assert_eq!(new_r.try_read_elias_gamma(), ref_gamma(&mut old_r));
                }
                Read::Token => {
                    let token = new_r.try_read_elias_gamma_token();
                    let value = ref_gamma(&mut old_r);
                    prop_assert_eq!(token.is_some(), value.is_some());
                    tokens.extend(token.zip(value));
                }
            }
            prop_assert_eq!(new_r.position(), old_r.position(), "after {:?}", read);
        }
        for &(ta, va) in &tokens {
            for &(tb, vb) in &tokens {
                prop_assert_eq!(ta == tb, va == vb);
            }
        }
    }

    #[test]
    fn gamma_tokens_are_equal_exactly_when_values_are_across_the_window(
        fields in proptest::collection::vec(
            (20u32..=40, prop_oneof![Just(0u64), Just(1), Just(2), Just(u64::MAX)]),
            1..24
        ),
        lead in proptest::collection::vec(any::<bool>(), 0..8)
    ) {
        // Zero runs of 20–40 give codewords of 41–81 bits, on both
        // sides of the 56-bit register window.
        let values: Vec<u64> = fields
            .iter()
            .map(|&(zeros, low)| 1u64 << zeros | low & ((1u64 << zeros) - 1))
            .collect();
        let mut stream = BitString::new();
        for &v in &values {
            stream.push_elias_gamma(v);
        }
        let buf = host_buffer(&stream, &[], &lead, &[], &[]);
        let mut r = BitSlice::new(&buf, lead.len(), stream.len()).reader();
        let tokens: Vec<_> = values
            .iter()
            .map(|_| r.try_read_elias_gamma_token().expect("encoder output decodes"))
            .collect();
        prop_assert_eq!(r.remaining(), 0);
        for (ta, va) in tokens.iter().zip(&values) {
            for (tb, vb) in tokens.iter().zip(&values) {
                prop_assert_eq!(ta == tb, va == vb, "{} vs {}", va, vb);
            }
        }
    }
}
