//! Bit-level encodings of the implicit labels, with exact size accounting.
//!
//! Two separator-field codecs realize the paper's size distinction:
//!
//! * [`SepFieldCodec::EliasGamma`] — `γ_small` (Section 3.1.2): ranks are
//!   ordered by decreasing subtree size, so the rank written at level `k`
//!   costs `O(1 + log(size_{k-1} / size_k))` bits and the whole separator
//!   path telescopes to `O(log n)` bits (the technique borrowed from the
//!   approximate-distance labels of Gavoille–Peleg–Pérennes–Raz).
//! * [`SepFieldCodec::FixedWidth`] — the unoptimized member of `Γ`:
//!   `⌈log₂ n⌉` bits per field, `O(log² n)` total, which is exactly the
//!   separator-path cost of the earlier `O(log² n + log n log W)` schemes
//!   (\[KKP05\] for MST, \[KKKP04\] for FLOW). Keeping it around gives the
//!   baseline for experiments E2/E8 and the ablation of DESIGN.md.
//!
//! `ω` fields are fixed-width at `⌈log₂(W+1)⌉` bits. All encodings are
//! self-delimiting and round-trip exactly, so reported bit counts are
//! honest.

use mstv_graph::{NodeId, Weight};
use mstv_trees::{centroid_decomposition, ParallelConfig, RootedTree, SeparatorDecomposition};

use crate::{
    decode_flow, decode_max, flow_labels_parallel, max_labels_parallel, BitSlice, BitString,
    DistLabel, FlowLabel, MaxLabel, FLOW_INFINITY,
};

/// How separator-path fields are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SepFieldCodec {
    /// Elias gamma of `rank + 1`; sizes telescope for size-ordered ranks.
    EliasGamma,
    /// A fixed number of bits per field.
    FixedWidth {
        /// Bits per separator field.
        bits: u32,
    },
}

/// Scheme-level encoding parameters, shared by all labels of one instance
/// (they are "known to the algorithm", not carried per label).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelCodec {
    /// Separator-field codec.
    pub sep_codec: SepFieldCodec,
    /// Width of each `ω` field: `⌈log₂(W+1)⌉` for maximum weight `W`.
    pub omega_bits: u32,
}

impl LabelCodec {
    /// Derives a codec for `tree`: `ω` fields sized for the tree's largest
    /// weight.
    pub fn for_tree(tree: &RootedTree, sep_codec: SepFieldCodec) -> Self {
        let max_w = tree.edges().map(|(_, _, w)| w).max().unwrap_or(Weight(1));
        LabelCodec {
            sep_codec,
            omega_bits: max_w.bit_width(),
        }
    }

    fn push_sep_field(&self, out: &mut BitString, value: u64) {
        match self.sep_codec {
            SepFieldCodec::EliasGamma => out.push_elias_gamma(value + 1),
            SepFieldCodec::FixedWidth { bits } => out.push_bits(value, bits),
        }
    }

    fn try_read_sep_field(&self, r: &mut crate::BitReader<'_>) -> Option<u64> {
        match self.sep_codec {
            SepFieldCodec::EliasGamma => Some(r.try_read_elias_gamma()? - 1),
            SepFieldCodec::FixedWidth { bits } => r.try_read_bits(bits),
        }
    }

    /// Writes one `Γ` label, the layout all three families share:
    /// `gamma(l)`, the `l - 1` non-constant separator fields, then the
    /// `l` raw value fields at `value_bits` each.
    pub(crate) fn encode_fields_into(
        &self,
        sep: &[u64],
        values: impl IntoIterator<Item = u64>,
        value_bits: u32,
        out: &mut BitString,
    ) {
        out.push_elias_gamma(sep.len() as u64);
        for &f in &sep[1..] {
            self.push_sep_field(out, f);
        }
        out.push_fields(values, value_bits);
    }

    /// Reads one `Γ` label written by [`LabelCodec::encode_fields_into`],
    /// mapping each raw value field through `value`; `None` on a
    /// truncated or implausible stream (a claimed level that cannot fit
    /// in the remaining bits).
    fn try_decode_fields_from<T>(
        &self,
        r: &mut crate::BitReader<'_>,
        value_bits: u32,
        value: impl Fn(u64) -> T,
    ) -> Option<(Vec<u64>, Vec<T>)> {
        let l = r.try_read_elias_gamma()? as usize;
        if l == 0 || l > r.remaining() + 1 {
            return None;
        }
        let mut sep = Vec::with_capacity(l);
        sep.push(0);
        for _ in 1..l {
            sep.push(self.try_read_sep_field(r)?);
        }
        let mut values = Vec::with_capacity(l);
        for _ in 0..l {
            values.push(value(r.try_read_bits(value_bits)?));
        }
        Some((sep, values))
    }

    /// Serializes a `MAX` label: `gamma(l)`, then the `l - 1` non-constant
    /// separator fields, then `l` fixed-width `ω` fields.
    ///
    /// # Panics
    ///
    /// Panics if an `ω` value does not fit in `omega_bits` or a separator
    /// field overflows a fixed-width codec.
    pub fn encode_max(&self, label: &MaxLabel) -> BitString {
        let mut out = BitString::new();
        self.encode_max_into(label, &mut out);
        out
    }

    /// [`LabelCodec::encode_max`] appending to an existing buffer — the
    /// arena path: encode a whole tree's labels into one
    /// [`crate::PackedLabels`] with zero per-node allocations.
    ///
    /// # Panics
    ///
    /// As [`LabelCodec::encode_max`].
    pub fn encode_max_into(&self, label: &MaxLabel, out: &mut BitString) {
        let omega = label.omega.iter().map(|w| w.0);
        self.encode_fields_into(&label.sep, omega, self.omega_bits, out);
    }

    /// Deserializes a `MAX` label.
    ///
    /// # Panics
    ///
    /// Panics on a truncated bit string.
    pub fn decode_max_label(&self, bits: &BitString) -> MaxLabel {
        self.decode_max_from(&mut bits.reader())
    }

    /// Deserializes a `MAX` label from an open reader, leaving the
    /// cursor just past the label — for composite encodings (such as
    /// `π_mst` wire messages) that append further sublabels.
    ///
    /// # Panics
    ///
    /// Panics on a truncated bit string.
    pub fn decode_max_from(&self, r: &mut crate::BitReader<'_>) -> MaxLabel {
        self.try_decode_max_from(r).expect("truncated MAX label")
    }

    /// Non-panicking [`LabelCodec::decode_max_from`]: returns `None` on a
    /// truncated or implausible stream (a claimed level that cannot fit
    /// in the remaining bits), for wire-level validation of untrusted
    /// frames.
    pub fn try_decode_max_from(&self, r: &mut crate::BitReader<'_>) -> Option<MaxLabel> {
        let (sep, omega) = self.try_decode_fields_from(r, self.omega_bits, Weight)?;
        Some(MaxLabel { sep, omega })
    }

    /// Non-panicking [`LabelCodec::decode_max_label`]: decodes a whole
    /// bit string as one `MAX` label, rejecting truncated streams and
    /// trailing garbage — the shape snapshot loaders want, where every
    /// record claims to be exactly one label.
    pub fn try_decode_max_label(&self, bits: &BitString) -> Option<MaxLabel> {
        let mut r = bits.reader();
        let label = self.try_decode_max_from(&mut r)?;
        (r.remaining() == 0).then_some(label)
    }

    /// Non-panicking `FLOW` twin of [`LabelCodec::try_decode_max_from`]:
    /// returns `None` on a truncated or implausible stream, for
    /// validating untrusted frames and snapshot records.
    pub fn try_decode_flow_from(&self, r: &mut crate::BitReader<'_>) -> Option<FlowLabel> {
        let (sep, phi) = self.try_decode_fields_from(r, self.omega_bits, flow_value)?;
        Some(FlowLabel { sep, phi })
    }

    /// Non-panicking [`LabelCodec::decode_flow_label`]: one whole bit
    /// string, no trailing garbage.
    pub fn try_decode_flow_label(&self, bits: &BitString) -> Option<FlowLabel> {
        let mut r = bits.reader();
        let label = self.try_decode_flow_from(&mut r)?;
        (r.remaining() == 0).then_some(label)
    }

    /// Non-panicking decoder for the distance labels written by
    /// [`crate::ImplicitDistScheme`]: the separator fields follow this codec's
    /// `sep_codec`, the `δ` fields are `delta_bits` wide (the scheme's
    /// own width, carried separately because distances are bounded by
    /// `n·W`, not `W`). Rejects truncated streams and trailing garbage.
    pub fn try_decode_dist_label(&self, bits: &BitString, delta_bits: u32) -> Option<DistLabel> {
        let mut r = bits.reader();
        let (sep, delta) = self.try_decode_fields_from(&mut r, delta_bits, |d| d)?;
        (r.remaining() == 0).then_some(DistLabel { sep, delta })
    }

    /// Answers `MAX(u, v)` straight from two encoded label windows —
    /// no intermediate label, no heap allocation. An answer only needs
    /// the `ω` field at the shared-prefix index, so the decoder streams
    /// both separator paths in lockstep to find that index and then
    /// jumps straight to the one value field per label (value blocks
    /// are fixed-width). This is the query engine's answer path;
    /// validation matches [`LabelCodec::try_decode_max_label`] —
    /// truncation, implausible levels, and trailing garbage all return
    /// `None`.
    ///
    /// Passing the same window twice validates that one window alone,
    /// which is how a failed pair decode is attributed to the broken
    /// label.
    pub fn try_decode_max_pair(&self, a: BitSlice<'_>, b: BitSlice<'_>) -> Option<Weight> {
        let (x, y) = self.pair_values(a, b, self.omega_bits)?;
        Some(Weight(x.max(y)))
    }

    /// [`LabelCodec::try_decode_max_pair`] for `FLOW` labels: the raw
    /// `0` pattern means [`FLOW_INFINITY`], and the combine is `min`.
    pub fn try_decode_flow_pair(&self, a: BitSlice<'_>, b: BitSlice<'_>) -> Option<Weight> {
        let (x, y) = self.pair_values(a, b, self.omega_bits)?;
        Some(flow_value(x).min(flow_value(y)))
    }

    /// [`LabelCodec::try_decode_max_pair`] for distance labels: the
    /// outer `Option` is window validity, the inner one is the
    /// [`crate::try_decode_dist`] overflow guard — `Some(None)` when
    /// `δ_u + δ_v` overflows `u64`.
    pub fn try_decode_dist_pair(
        &self,
        a: BitSlice<'_>,
        b: BitSlice<'_>,
        delta_bits: u32,
    ) -> Option<Option<u64>> {
        let (x, y) = self.pair_values(a, b, delta_bits)?;
        Some(x.checked_add(y))
    }

    /// The lockstep walk behind the pairwise decoders: read both
    /// levels, compare separator fields as they stream past to find
    /// the shared-prefix length `cp` (at least 1 — `sep[0] = 0` is
    /// implicit in both), drain the longer path, then skip directly to
    /// value field `cp - 1` of each window and read only that.
    fn pair_values(&self, a: BitSlice<'_>, b: BitSlice<'_>, value_bits: u32) -> Option<(u64, u64)> {
        let mut ra = a.reader();
        let mut rb = b.reader();
        let la = ra.try_read_elias_gamma()? as usize;
        let lb = rb.try_read_elias_gamma()? as usize;
        if la == 0 || la > ra.remaining() + 1 || lb == 0 || lb > rb.remaining() + 1 {
            return None;
        }
        let m = la.min(lb) - 1;
        let mut cp = 1usize;
        let mut diverged = false;
        for _ in 0..m {
            let fa = self.try_read_sep_field(&mut ra)?;
            let fb = self.try_read_sep_field(&mut rb)?;
            if !diverged && fa == fb {
                cp += 1;
            } else {
                diverged = true;
            }
        }
        for _ in m..la - 1 {
            self.try_read_sep_field(&mut ra)?;
        }
        for _ in m..lb - 1 {
            self.try_read_sep_field(&mut rb)?;
        }
        // Exact framing: what remains must be precisely the two value
        // blocks — the pairwise twin of the trailing-garbage check.
        if ra.remaining() != la * value_bits as usize || rb.remaining() != lb * value_bits as usize
        {
            return None;
        }
        ra.try_skip_bits((cp - 1) * value_bits as usize)?;
        rb.try_skip_bits((cp - 1) * value_bits as usize)?;
        Some((ra.try_read_bits(value_bits)?, rb.try_read_bits(value_bits)?))
    }

    /// Serializes a `FLOW` label; the neutral `+∞` is written as the
    /// reserved pattern `0` (weights are positive, so `0` is free).
    ///
    /// # Panics
    ///
    /// Panics if a finite `φ` value does not fit in `omega_bits`.
    pub fn encode_flow(&self, label: &FlowLabel) -> BitString {
        let mut out = BitString::new();
        self.encode_flow_into(label, &mut out);
        out
    }

    /// [`LabelCodec::encode_flow`] appending to an existing buffer —
    /// the arena path, mirroring [`LabelCodec::encode_max_into`].
    ///
    /// # Panics
    ///
    /// As [`LabelCodec::encode_flow`].
    pub fn encode_flow_into(&self, label: &FlowLabel, out: &mut BitString) {
        let phi = label.phi.iter().map(|&w| flow_raw(w));
        self.encode_fields_into(&label.sep, phi, self.omega_bits, out);
    }

    /// Deserializes a `FLOW` label.
    ///
    /// # Panics
    ///
    /// Panics on a truncated bit string.
    pub fn decode_flow_label(&self, bits: &BitString) -> FlowLabel {
        self.try_decode_flow_from(&mut bits.reader())
            .expect("truncated FLOW label")
    }
}

/// A `FLOW` field as written: [`FLOW_INFINITY`] is the reserved
/// pattern `0` (weights are positive, so `0` is free).
pub(crate) fn flow_raw(w: Weight) -> u64 {
    if w == FLOW_INFINITY {
        0
    } else {
        w.0
    }
}

/// A raw `FLOW` field: the reserved pattern `0` is [`FLOW_INFINITY`]
/// (weights are positive, so `0` is free).
fn flow_value(raw: u64) -> Weight {
    if raw == 0 {
        FLOW_INFINITY
    } else {
        Weight(raw)
    }
}

/// One worker: the configuration each sequential builder pins its
/// parallel twin to.
pub(crate) fn one_worker() -> ParallelConfig {
    ParallelConfig::with_threads(std::num::NonZeroUsize::MIN)
}

/// Encodes every label with `encode`, chunked across `config`'s workers.
pub(crate) fn encode_all<L: Sync>(
    labels: &[L],
    config: ParallelConfig,
    encode: impl Fn(&L) -> BitString + Sync,
) -> Vec<BitString> {
    mstv_trees::par_map_chunks(labels.len(), config.resolved_threads(), |lo, hi| {
        labels[lo..hi].iter().map(&encode).collect()
    })
}

/// A label family [`ImplicitScheme`] materializes: `MAX` ([`MaxLabel`])
/// or `FLOW` ([`FlowLabel`]), whose value fields share the codec's
/// `ω` width.
pub trait SchemeLabel: Sized + Send + Sync {
    /// The family's batch builder, e.g. [`max_labels_parallel`].
    fn build(tree: &RootedTree, sep: &SeparatorDecomposition, config: ParallelConfig) -> Vec<Self>;
    /// The family's encoder, e.g. [`LabelCodec::encode_max_into`].
    fn encode_into(&self, codec: &LabelCodec, out: &mut BitString);
    /// The family's decoder, e.g. [`decode_max`].
    fn decode(a: &Self, b: &Self) -> Weight;
}

impl SchemeLabel for MaxLabel {
    fn build(tree: &RootedTree, sep: &SeparatorDecomposition, config: ParallelConfig) -> Vec<Self> {
        max_labels_parallel(tree, sep, config)
    }

    fn encode_into(&self, codec: &LabelCodec, out: &mut BitString) {
        codec.encode_max_into(self, out);
    }

    fn decode(a: &Self, b: &Self) -> Weight {
        decode_max(a, b)
    }
}

impl SchemeLabel for FlowLabel {
    fn build(tree: &RootedTree, sep: &SeparatorDecomposition, config: ParallelConfig) -> Vec<Self> {
        flow_labels_parallel(tree, sep, config)
    }

    fn encode_into(&self, codec: &LabelCodec, out: &mut BitString) {
        codec.encode_flow_into(self, out);
    }

    fn decode(a: &Self, b: &Self) -> Weight {
        decode_flow(a, b)
    }
}

/// A fully materialized implicit labeling scheme over one tree:
/// structured labels, their exact bit encodings, and the decoder.
#[derive(Debug, Clone)]
pub struct ImplicitScheme<L> {
    codec: LabelCodec,
    labels: Vec<L>,
    encoded: Vec<BitString>,
}

/// The implicit `MAX` scheme; its small member is `γ_small`.
pub type ImplicitMaxScheme = ImplicitScheme<MaxLabel>;

/// The implicit `FLOW` scheme derived from `γ_small` (Section 3.1.2).
pub type ImplicitFlowScheme = ImplicitScheme<FlowLabel>;

impl<L: SchemeLabel> ImplicitScheme<L> {
    /// `γ_small` (Lemma 3.2): perfect (centroid) separator decomposition
    /// with size-ordered Elias-gamma ranks — `O(log n log W)` bits.
    pub fn gamma_small(tree: &RootedTree) -> Self {
        let sep = centroid_decomposition(tree);
        Self::with_decomposition(tree, &sep, SepFieldCodec::EliasGamma)
    }

    /// The unoptimized baseline: centroid decomposition with fixed-width
    /// `⌈log₂ n⌉`-bit separator fields — `O(log² n + log n log W)` bits,
    /// the size of the previously known schemes (\[KKP05\] for `MAX`,
    /// \[KKKP04\] for `FLOW`).
    pub fn fixed_width_baseline(tree: &RootedTree) -> Self {
        let sep = centroid_decomposition(tree);
        let bits = (usize::BITS - tree.num_nodes().leading_zeros()).max(1);
        Self::with_decomposition(tree, &sep, SepFieldCodec::FixedWidth { bits })
    }

    /// An arbitrary member of the family, any decomposition and any
    /// codec: the one-worker [`ImplicitScheme::with_decomposition_parallel`].
    ///
    /// # Panics
    ///
    /// Panics if `sep` does not match `tree`, or if a rank overflows a
    /// fixed-width codec.
    pub fn with_decomposition(
        tree: &RootedTree,
        sep: &SeparatorDecomposition,
        sep_codec: SepFieldCodec,
    ) -> Self {
        Self::with_decomposition_parallel(tree, sep, sep_codec, one_worker())
    }

    /// [`ImplicitScheme::with_decomposition`] with label assembly and
    /// encoding fanned across a scoped thread pool. Byte-identical to
    /// the sequential builder for every thread count.
    ///
    /// # Panics
    ///
    /// As [`ImplicitScheme::with_decomposition`].
    pub fn with_decomposition_parallel(
        tree: &RootedTree,
        sep: &SeparatorDecomposition,
        sep_codec: SepFieldCodec,
        config: ParallelConfig,
    ) -> Self {
        let codec = LabelCodec::for_tree(tree, sep_codec);
        let labels = L::build(tree, sep, config);
        let encoded = encode_all(&labels, config, |l| {
            let mut out = BitString::new();
            l.encode_into(&codec, &mut out);
            out
        });
        ImplicitScheme {
            codec,
            labels,
            encoded,
        }
    }

    /// The codec shared by all labels.
    pub fn codec(&self) -> LabelCodec {
        self.codec
    }

    /// The structured label of `v`.
    pub fn label(&self, v: NodeId) -> &L {
        &self.labels[v.index()]
    }

    /// All structured labels.
    pub fn labels(&self) -> &[L] {
        &self.labels
    }

    /// The bit encoding of `v`'s label.
    pub fn encoded(&self, v: NodeId) -> &BitString {
        &self.encoded[v.index()]
    }

    /// The scheme's size: the maximum label length in bits.
    pub fn max_label_bits(&self) -> usize {
        self.encoded.iter().map(BitString::len).max().unwrap_or(0)
    }

    /// Total bits over all labels.
    pub fn total_bits(&self) -> usize {
        self.encoded.iter().map(BitString::len).sum()
    }

    /// `MAX(u, v)` or `FLOW(u, v)` through the decoder.
    pub fn query(&self, u: NodeId, v: NodeId) -> Weight {
        L::decode(self.label(u), self.label(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_graph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tree_of(n: usize, max_w: u64, seed: u64) -> RootedTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(n, gen::WeightDist::Uniform { max: max_w }, &mut rng);
        RootedTree::from_graph(&g, NodeId(0)).unwrap()
    }

    #[test]
    fn max_label_roundtrip() {
        let t = tree_of(80, 1000, 1);
        for scheme in [
            ImplicitMaxScheme::gamma_small(&t),
            ImplicitMaxScheme::fixed_width_baseline(&t),
        ] {
            for v in t.nodes() {
                let decoded = scheme.codec().decode_max_label(scheme.encoded(v));
                assert_eq!(&decoded, scheme.label(v), "v={v}");
            }
        }
    }

    #[test]
    fn flow_label_roundtrip() {
        let t = tree_of(80, 1000, 2);
        for scheme in [
            ImplicitFlowScheme::gamma_small(&t),
            ImplicitFlowScheme::fixed_width_baseline(&t),
        ] {
            for v in t.nodes() {
                let decoded = scheme.codec().decode_flow_label(scheme.encoded(v));
                assert_eq!(&decoded, scheme.label(v), "v={v}");
            }
        }
    }

    #[test]
    fn queries_through_encoded_labels() {
        // Decode from bits, then run the decoder: end-to-end correctness.
        let t = tree_of(50, 300, 3);
        let scheme = ImplicitMaxScheme::gamma_small(&t);
        let codec = scheme.codec();
        for u in t.nodes() {
            for v in t.nodes() {
                if u == v {
                    continue;
                }
                let a = codec.decode_max_label(scheme.encoded(u));
                let b = codec.decode_max_label(scheme.encoded(v));
                assert_eq!(decode_max(&a, &b), t.max_on_path_naive(u, v));
            }
        }
    }

    #[test]
    fn try_decoders_roundtrip_and_reject_garbage() {
        let t = tree_of(60, 700, 12);
        let max_scheme = ImplicitMaxScheme::gamma_small(&t);
        let flow_scheme = ImplicitFlowScheme::gamma_small(&t);
        let dist_scheme = crate::ImplicitDistScheme::gamma_small(&t);
        let codec = max_scheme.codec();
        for v in t.nodes() {
            assert_eq!(
                codec.try_decode_max_label(max_scheme.encoded(v)).as_ref(),
                Some(max_scheme.label(v))
            );
            assert_eq!(
                codec.try_decode_flow_label(flow_scheme.encoded(v)).as_ref(),
                Some(flow_scheme.label(v))
            );
            assert_eq!(
                codec
                    .try_decode_dist_label(dist_scheme.encoded(v), dist_scheme.delta_bits())
                    .as_ref(),
                Some(dist_scheme.label(v))
            );
        }
        // Trailing garbage after a well-formed label is rejected.
        let mut padded = max_scheme.encoded(NodeId(3)).clone();
        padded.push(true);
        assert_eq!(codec.try_decode_max_label(&padded), None);
        let mut padded = flow_scheme.encoded(NodeId(3)).clone();
        padded.push(true);
        assert_eq!(codec.try_decode_flow_label(&padded), None);
        // Truncated streams are rejected, never panic.
        let enc = flow_scheme.encoded(NodeId(5));
        let mut cut = BitString::new();
        for i in 0..enc.len() / 2 {
            cut.push(enc.get(i));
        }
        assert_eq!(codec.try_decode_flow_label(&cut), None);
        assert_eq!(codec.try_decode_max_label(&BitString::new()), None);
    }

    #[test]
    fn pair_decoders_agree_with_structured_decoders() {
        use crate::{dist_labels, flow_labels, max_labels, try_decode_dist};
        use mstv_trees::centroid_decomposition;
        let t = tree_of(90, 800, 13);
        let sep = centroid_decomposition(&t);
        for codec in [
            LabelCodec::for_tree(&t, SepFieldCodec::EliasGamma),
            LabelCodec::for_tree(&t, SepFieldCodec::FixedWidth { bits: 7 }),
        ] {
            let max = max_labels(&t, &sep);
            let flow = flow_labels(&t, &sep);
            let dist = dist_labels(&t, &sep);
            let delta_bits = dist
                .iter()
                .flat_map(|l| l.delta.iter())
                .map(|&d| 64 - d.leading_zeros())
                .max()
                .unwrap()
                .max(1);
            let enc_max: Vec<_> = max.iter().map(|l| codec.encode_max(l)).collect();
            let enc_flow: Vec<_> = flow.iter().map(|l| codec.encode_flow(l)).collect();
            let enc_dist: Vec<_> = dist
                .iter()
                .map(|l| {
                    let mut out = BitString::new();
                    crate::encode_dist_label_into(l, codec.sep_codec, delta_bits, &mut out);
                    out
                })
                .collect();
            for u in (0..90).step_by(7) {
                for v in (0..90).step_by(13) {
                    assert_eq!(
                        codec.try_decode_max_pair(enc_max[u].as_slice(), enc_max[v].as_slice()),
                        Some(decode_max(&max[u], &max[v])),
                        "max {u},{v}"
                    );
                    assert_eq!(
                        codec.try_decode_flow_pair(enc_flow[u].as_slice(), enc_flow[v].as_slice()),
                        Some(decode_flow(&flow[u], &flow[v])),
                        "flow {u},{v}"
                    );
                    assert_eq!(
                        codec.try_decode_dist_pair(
                            enc_dist[u].as_slice(),
                            enc_dist[v].as_slice(),
                            delta_bits
                        ),
                        Some(try_decode_dist(&dist[u], &dist[v])),
                        "dist {u},{v}"
                    );
                }
            }
        }
    }

    #[test]
    fn pair_decoders_reject_malformed_windows() {
        let t = tree_of(40, 300, 14);
        let scheme = ImplicitMaxScheme::gamma_small(&t);
        let codec = scheme.codec();
        let good = scheme.encoded(NodeId(2));
        // Trailing garbage on either side is rejected.
        let mut padded = good.clone();
        padded.push(true);
        assert_eq!(
            codec.try_decode_max_pair(padded.as_slice(), good.as_slice()),
            None
        );
        assert_eq!(
            codec.try_decode_max_pair(good.as_slice(), padded.as_slice()),
            None
        );
        // Truncated windows are rejected, never panic.
        let enc = scheme.encoded(NodeId(5));
        let mut cut = BitString::new();
        for i in 0..enc.len() / 2 {
            cut.push(enc.get(i));
        }
        assert_eq!(
            codec.try_decode_max_pair(cut.as_slice(), good.as_slice()),
            None
        );
        assert_eq!(
            codec.try_decode_max_pair(BitString::new().as_slice(), good.as_slice()),
            None
        );
    }

    #[test]
    fn gamma_small_never_larger_than_fixed_width() {
        for (n, w, seed) in [(20usize, 10u64, 4u64), (200, 1000, 5), (999, 7, 6)] {
            let t = tree_of(n, w, seed);
            let small = ImplicitMaxScheme::gamma_small(&t);
            let wide = ImplicitMaxScheme::fixed_width_baseline(&t);
            assert!(
                small.max_label_bits() <= wide.max_label_bits(),
                "n={n} w={w}: {} > {}",
                small.max_label_bits(),
                wide.max_label_bits()
            );
        }
    }

    #[test]
    fn gamma_small_size_is_log_n_log_w() {
        // Generous constant-factor check of Lemma 3.2 on random trees.
        for (n, w, seed) in [(64usize, 255u64, 7u64), (512, 65_535, 8), (2048, 3, 9)] {
            let t = tree_of(n, w, seed);
            let scheme = ImplicitMaxScheme::gamma_small(&t);
            let log_n = (usize::BITS - n.leading_zeros()) as usize;
            let log_w = Weight(w).bit_width() as usize;
            let bound = 6 * log_n * log_w + 8 * log_n + 32;
            assert!(
                scheme.max_label_bits() <= bound,
                "n={n} W={w}: {} bits > bound {bound}",
                scheme.max_label_bits()
            );
        }
    }

    #[test]
    fn flow_scheme_correct_through_bits() {
        let t = tree_of(40, 500, 10);
        let scheme = ImplicitFlowScheme::gamma_small(&t);
        for u in t.nodes() {
            for v in t.nodes() {
                if u != v {
                    assert_eq!(scheme.query(u, v), t.min_on_path_naive(u, v));
                }
            }
        }
        assert_eq!(scheme.query(NodeId(0), NodeId(0)), FLOW_INFINITY);
    }

    #[test]
    fn sizes_reported_consistently() {
        let t = tree_of(30, 50, 11);
        let scheme = ImplicitMaxScheme::gamma_small(&t);
        let max = scheme.max_label_bits();
        let total = scheme.total_bits();
        assert!(max > 0);
        assert!(total >= max);
        assert!(total <= max * t.num_nodes());
        assert_eq!(scheme.labels().len(), 30);
    }
}
