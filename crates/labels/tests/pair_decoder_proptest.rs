//! The fused pair decoders are the query engine's only answer path, and
//! the engine calls them on whatever bits a snapshot holds, with no
//! panic catch around them. So they must return (`None` for a window
//! they cannot read) under every codec the snapshot reader accepts:
//! Elias gamma or fixed-width separator fields of 0..=64 bits, and `ω`
//! and `δ` value fields of 1..=64 bits.

use mstv_graph::{gen, NodeId};
use mstv_labels::{
    decode_dist, decode_flow, decode_max, dist_labels, encode_dist_label, flow_labels, max_labels,
    BitSlice, BitString, LabelCodec, SepFieldCodec,
};
use mstv_trees::{centroid_decomposition, RootedTree};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A codec and a `δ` width.
fn codec() -> impl Strategy<Value = (LabelCodec, u32)> {
    let sep = prop_oneof![
        Just(SepFieldCodec::EliasGamma),
        (0u32..=64).prop_map(|bits| SepFieldCodec::FixedWidth { bits }),
    ];
    (sep, 1u32..=64, 1u32..=64).prop_map(|(sep_codec, omega_bits, delta_bits)| {
        (
            LabelCodec {
                sep_codec,
                omega_bits,
            },
            delta_bits,
        )
    })
}

/// Runs every decoder on the pair both ways round and on each window
/// paired with itself, which is how the engine blames a broken window.
/// Each window starts `shift` bits into its buffer, as labels inside a
/// columnar snapshot section do, and set bits follow its end.
fn decode_all(codec: LabelCodec, delta_bits: u32, a: &[bool], b: &[bool], shift: usize) {
    let buffer = |bits: &[bool]| {
        let mut out = BitString::new();
        (0..shift).for_each(|_| out.push(false));
        bits.iter().for_each(|&bit| out.push(bit));
        (0..64).for_each(|_| out.push(true));
        out
    };
    let (buf_a, buf_b) = (buffer(a), buffer(b));
    let a = BitSlice::new(buf_a.as_bytes(), shift, a.len());
    let b = BitSlice::new(buf_b.as_bytes(), shift, b.len());
    for (x, y) in [(a, b), (b, a), (a, a), (b, b)] {
        let _ = codec.try_decode_max_pair(x, y);
        let _ = codec.try_decode_flow_pair(x, y);
        let _ = codec.try_decode_dist_pair(x, y, delta_bits);
    }
}

/// The bits of an encoded label after one random corruption: flipped
/// bits, a cut, or appended bits.
fn damaged(label: &BitString, rng: &mut StdRng) -> Vec<bool> {
    let mut bits: Vec<bool> = (0..label.len()).map(|i| label.get(i)).collect();
    match rng.gen_range(0..3) {
        0 if !bits.is_empty() => {
            for _ in 0..rng.gen_range(1..=4) {
                let i = rng.gen_range(0..bits.len());
                bits[i] = !bits[i];
            }
        }
        1 if !bits.is_empty() => bits.truncate(rng.gen_range(0..bits.len())),
        _ => bits.extend((0..rng.gen_range(1..=64)).map(|_| rng.gen_range(0..2) == 1)),
    }
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_windows_never_panic(
        (codec, delta_bits) in codec(),
        (a, b) in (vec(any::<u8>(), 0..=600), vec(any::<u8>(), 0..=600)),
        (density, shift) in (0u8..4, 0usize..8),
    ) {
        // Each byte gives one bit, set with chance 1/2, 7/8, 1/8 or 1/64;
        // the last makes zero runs longer than any Elias gamma code.
        let bit = |x: &u8| match density {
            0 => x % 2 == 1,
            1 => !x.is_multiple_of(8),
            2 => x.is_multiple_of(8),
            _ => x.is_multiple_of(64),
        };
        let a: Vec<bool> = a.iter().map(bit).collect();
        let b: Vec<bool> = b.iter().map(bit).collect();
        decode_all(codec, delta_bits, &a, &b, shift);
    }

    #[test]
    fn damaged_honest_labels_never_panic(
        (codec, delta_bits) in codec(),
        n in 1usize..=40,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Weights fill `ω` where they can while the tree's total weight
        // fits u64, as distance labels require.
        let max_w = (u64::MAX >> (64 - codec.omega_bits)).min(u64::MAX / n as u64);
        let g = gen::random_tree(n, gen::WeightDist::Uniform { max: max_w }, &mut rng);
        let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        let sep = centroid_decomposition(&tree);
        let (max, flow, dist) =
            (max_labels(&tree, &sep), flow_labels(&tree, &sep), dist_labels(&tree, &sep));
        // A drawn width too narrow for the tree's fields widens to fit.
        let fit = |widest: Option<&u64>, bits: u32| {
            (64 - widest.copied().unwrap_or(0).leading_zeros()).max(bits)
        };
        let codec = match codec.sep_codec {
            SepFieldCodec::FixedWidth { bits } => LabelCodec {
                sep_codec: SepFieldCodec::FixedWidth {
                    bits: fit(max.iter().flat_map(|l| &l.sep[1..]).max(), bits),
                },
                ..codec
            },
            SepFieldCodec::EliasGamma => codec,
        };
        let delta_bits = fit(dist.iter().flat_map(|l| &l.delta).max(), delta_bits);
        let encode = |v: usize| {
            [
                codec.encode_max(&max[v]),
                codec.encode_flow(&flow[v]),
                encode_dist_label(&dist[v], codec.sep_codec, delta_bits),
            ]
        };

        for _ in 0..8 {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let (lu, lv) = (encode(u), encode(v));
            // Honest pairs decode to the label-level answers.
            let (mu, mv) = (lu[0].as_slice(), lv[0].as_slice());
            let want = decode_max(&max[u], &max[v]);
            prop_assert_eq!(codec.try_decode_max_pair(mu, mv), Some(want));
            let (fu, fv) = (lu[1].as_slice(), lv[1].as_slice());
            let want = decode_flow(&flow[u], &flow[v]);
            prop_assert_eq!(codec.try_decode_flow_pair(fu, fv), Some(want));
            let (du, dv) = (lu[2].as_slice(), lv[2].as_slice());
            let want = decode_dist(&dist[u], &dist[v]);
            prop_assert_eq!(codec.try_decode_dist_pair(du, dv, delta_bits), Some(Some(want)));

            for (a, b) in lu.iter().zip(&lv) {
                let bad_a = damaged(a, &mut rng);
                let honest_b: Vec<bool> = (0..b.len()).map(|i| b.get(i)).collect();
                decode_all(codec, delta_bits, &bad_a, &honest_b, rng.gen_range(0..8));
                let bad_b = damaged(b, &mut rng);
                decode_all(codec, delta_bits, &bad_a, &bad_b, rng.gen_range(0..8));
            }
        }
    }
}
