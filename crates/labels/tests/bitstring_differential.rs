//! Differential property tests: the word-batched `BitString` against
//! the pinned one-bit-per-call implementation in
//! `mstv_labels::reference`.
//!
//! The reference module is the executable specification of the stream
//! layout. Random operation sequences run through both implementations
//! and must agree on every observable: bit length, every `get`, the
//! packed byte output, `from_bytes` acceptance, and the values each
//! reader hands back (both the panicking and the fallible flavors).
//! A batched shortcut that changes even one emitted bit fails here.

use mstv_labels::reference::RefBitString;
use mstv_labels::BitString;
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
