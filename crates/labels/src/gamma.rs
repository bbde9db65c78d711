//! The `Γ` construction shared by the `MAX`, `FLOW` and `DIST` label
//! families (Section 3.1 of the paper).
//!
//! Given a separator decomposition of a tree, the label of a level-`l`
//! vertex `v` holds `l` separator-path fields (`E_sep`, see
//! [`crate::MaxLabel`]) and `l` aggregate fields: field `k` aggregates the
//! edge weights on the tree path from `v` to its level-`(k+1)` separator,
//! so the own-level field is the empty path. The families differ only in
//! that aggregate ([`PathAggregate`]): `MAX` is the maximum from 0, `FLOW`
//! the minimum from [`FLOW_INFINITY`], `DIST` the sum from 0. The batch
//! sweep and the per-node walk below are written once for all three, and
//! so is the Lemma 3.3 checker in `mstv-core`. [`GammaPass`] runs the
//! sweep once with all three aggregates side by side, for callers that
//! want every family of one tree.

use mstv_graph::{NodeId, Weight};
use mstv_trees::{par_map_chunks, ParallelConfig, RootedTree, SeparatorDecomposition};

use crate::codec::flow_raw;
use crate::{dist_fits, BitString, DistLabel, FlowLabel, LabelCodec, MaxLabel, FLOW_INFINITY};

/// The path aggregate a `Γ` label family stores in its value fields.
///
/// `extend(EMPTY, w) == w` for every family, so a field one edge away
/// from its separator needs no special case.
pub trait PathAggregate {
    /// The field type.
    type Value: Copy + Eq + std::fmt::Debug + Send + Sync + 'static;
    /// The aggregate of the empty path: a vertex's own-level field.
    const EMPTY: Self::Value;
    /// The aggregate of the path `acc` extended by one edge of weight `w`.
    fn extend(acc: Self::Value, w: Weight) -> Self::Value;
}

/// `MAX`: the heaviest edge weight, 0 on the empty path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MaxAggregate;

impl PathAggregate for MaxAggregate {
    type Value = Weight;
    const EMPTY: Weight = Weight::ZERO;

    #[inline]
    fn extend(acc: Weight, w: Weight) -> Weight {
        acc.max(w)
    }
}

/// `FLOW`: the lightest edge weight, [`FLOW_INFINITY`] on the empty path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowAggregate;

impl PathAggregate for FlowAggregate {
    type Value = Weight;
    const EMPTY: Weight = FLOW_INFINITY;

    #[inline]
    fn extend(acc: Weight, w: Weight) -> Weight {
        acc.min(w)
    }
}

/// `DIST`: the summed edge weight, 0 on the empty path. The sum
/// saturates at `u64::MAX` instead of wrapping, so a forged field near
/// the top of the range never wraps round to a plausible distance; the
/// builders only run on trees whose total weight fits (see
/// [`crate::dist_fits`]), where no sum reaches the cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DistAggregate;

impl PathAggregate for DistAggregate {
    type Value = u64;
    const EMPTY: u64 = 0;

    #[inline]
    fn extend(acc: u64, w: Weight) -> u64 {
        acc.saturating_add(w.0)
    }
}

/// One field of all three families: `(MAX, FLOW, DIST)`.
type Triple = (Weight, Weight, u64);

/// `MAX`, `FLOW` and `DIST` side by side, each extended by its own
/// family's rule: the aggregate one sweep carries to fill every family.
struct TripleAggregate;

impl PathAggregate for TripleAggregate {
    type Value = Triple;
    const EMPTY: Self::Value = (
        MaxAggregate::EMPTY,
        FlowAggregate::EMPTY,
        DistAggregate::EMPTY,
    );

    #[inline]
    fn extend((max, min, sum): Self::Value, w: Weight) -> Self::Value {
        (
            MaxAggregate::extend(max, w),
            FlowAggregate::extend(min, w),
            DistAggregate::extend(sum, w),
        )
    }
}

/// The fields of all three `Γ` families over one tree and decomposition,
/// from one pass: each vertex's separator fields once, and one
/// [`omega_sweep`] carrying the `(max, min, sum)` triple. The families'
/// labels are projections of it, encoded straight to bits
/// ([`GammaPass::encode`], or [`GammaPass::encode_node`] for one vertex)
/// or materialized ([`GammaPass::into_labels`]), and equal what the
/// per-family builders ([`crate::max_labels_parallel`] and its twins)
/// produce. `DIST` is projected only when the tree's total weight fits in
/// a `u64` ([`crate::dist_fits`]).
///
/// The pass is also a store an incremental relabeler keeps: after the
/// tree or its decomposition changes, [`GammaPass::relabel`] rewrites the
/// fields of the vertices whose labels changed, in place, and leaves it
/// equal to a fresh [`GammaPass::build`] of the new tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GammaPass {
    /// Each vertex's separator-path fields.
    fields: Vec<Vec<u64>>,
    /// Each vertex's `(MAX, FLOW, DIST)` aggregate fields, one a level.
    values: Vec<Vec<Triple>>,
    /// Whether the built tree's total weight fits in a `u64`, so that
    /// `DIST` is projected.
    dist: bool,
}

/// The bit encodings [`GammaPass::encode`] writes, one per vertex and
/// family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GammaEncoding {
    /// The `MAX` labels.
    pub max: Vec<BitString>,
    /// The `FLOW` labels.
    pub flow: Vec<BitString>,
    /// The `δ` field width and the `DIST` labels, when the tree has them.
    pub dist: Option<(u32, Vec<BitString>)>,
}

// The raw value field each family writes from a triple.

fn max_field(t: &Triple) -> u64 {
    t.0 .0
}

fn flow_field(t: &Triple) -> u64 {
    flow_raw(t.1)
}

fn dist_field(t: &Triple) -> u64 {
    t.2
}

impl GammaPass {
    /// Runs the pass: separator fields fanned across `config`'s workers,
    /// then one sweep. Output is identical for every worker count.
    ///
    /// # Panics
    ///
    /// Panics if `sep` does not belong to `tree` (mismatched node counts).
    pub fn build(tree: &RootedTree, sep: &SeparatorDecomposition, config: ParallelConfig) -> Self {
        let (fields, values) = gamma_fields::<TripleAggregate>(tree, sep, config);
        GammaPass {
            fields,
            values,
            dist: dist_fits(tree),
        }
    }

    /// Whether [`GammaPass::relabel`] sweeps a dirty list of `dirty` of
    /// `n` vertices: past one vertex in 16 (of at least 16,384), where
    /// the listed vertices' own chain walks, O(depth) a field, would cost
    /// more than sweeping the separators above them.
    pub fn sweeps(dirty: usize, n: usize) -> bool {
        dirty.saturating_mul(16) > n.max(16_384)
    }

    /// Rewrites, in place, the fields of the vertices in `dirty` for
    /// `tree` and its decomposition `sep`. `dirty` must list every vertex
    /// whose label changed since the pass was built or last relabelled
    /// (it may list more); the pass then equals [`GammaPass::build`] of
    /// `tree` and `sep`.
    ///
    /// A short list ([`GammaPass::sweeps`] false) walks each listed
    /// vertex's own chain paths, as [`walk_labels`] does. A long one
    /// sweeps only the separators whose component holds a listed vertex
    /// (those on its chain), with the sweep a fresh build runs over every
    /// separator: the fields it rewrites off the list are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `tree` or `sep` has another node count than the pass,
    /// or (on the walk) if a path's summed weight overflows `u64`.
    pub fn relabel(&mut self, tree: &RootedTree, sep: &SeparatorDecomposition, dirty: &[NodeId]) {
        let n = self.fields.len();
        assert!(
            tree.num_nodes() == n && sep.num_nodes() == n,
            "tree and decomposition must match the pass"
        );
        let mut chain = Vec::new();
        if !GammaPass::sweeps(dirty.len(), n) {
            for &v in dirty {
                let (fields, values) = (&mut self.fields[v.index()], &mut self.values[v.index()]);
                walk_node(tree, sep, v, &mut chain, fields, values);
            }
            return;
        }
        let mut swept = vec![false; n];
        for &v in dirty {
            let i = v.index();
            sep_fields_into(sep, v, &mut chain, &mut self.fields[i]);
            self.values[i].resize(chain.len(), TripleAggregate::EMPTY);
            // Chains climb to the root, so the first separator already
            // marked has its whole chain marked.
            for &s in chain.iter().rev() {
                if std::mem::replace(&mut swept[s.index()], true) {
                    break;
                }
            }
        }
        let mut stack = Vec::new();
        for s in tree.nodes().filter(|s| swept[s.index()]) {
            sweep_component::<TripleAggregate>(tree, sep, s, &mut self.values, &mut stack);
        }
    }

    /// `MAX(u, v)`: the heaviest edge on the tree path, decoded from the
    /// two vertices' fields as [`crate::decode_max`] decodes their
    /// labels.
    pub fn max_between(&self, u: NodeId, v: NodeId) -> Weight {
        let cp = common_prefix(&self.fields[u.index()], &self.fields[v.index()]);
        let field = |w: NodeId| self.values[w.index()][cp - 1].0;
        field(u).max(field(v))
    }

    /// The largest `δ` field of `v`: its summed distance to the farthest
    /// separator on its chain.
    pub fn max_delta(&self, v: NodeId) -> u64 {
        self.values[v.index()]
            .iter()
            .map(dist_field)
            .max()
            .unwrap_or(0)
    }

    /// Width of the `δ` fields (the bit width of the largest one), when
    /// the pass projects `DIST`.
    fn delta_bits(&self) -> Option<u32> {
        self.dist.then(|| {
            let max_delta = self.values.iter().flatten().map(dist_field).max();
            Weight(max_delta.unwrap_or(0)).bit_width()
        })
    }

    /// Every vertex's `MAX` and `FLOW` label under `codec`, and its
    /// `DIST` label with `δ` fields as wide as the widest one — bit for
    /// bit what [`crate::ImplicitScheme`] and
    /// [`crate::ImplicitDistScheme`] write — with the vertices fanned
    /// across `config`'s workers. Output is identical for every worker
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if a `MAX` or `FLOW` value does not fit in
    /// `codec.omega_bits`, or a separator field overflows a fixed-width
    /// codec.
    pub fn encode(&self, codec: LabelCodec, config: ParallelConfig) -> GammaEncoding {
        // One family at a time, so each family's labels are allocated
        // together and a section is read back from contiguous memory.
        let family = |bits: u32, field: fn(&Triple) -> u64| {
            par_map_chunks(self.fields.len(), config.resolved_threads(), |lo, hi| {
                let mut scratch = BitString::new();
                (lo..hi)
                    .map(|i| {
                        self.write_row(i, codec, bits, field, &mut scratch);
                        scratch.clone()
                    })
                    .collect()
            })
        };
        GammaEncoding {
            max: family(codec.omega_bits, max_field),
            flow: family(codec.omega_bits, flow_field),
            dist: self
                .delta_bits()
                .map(|bits| (bits, family(bits, dist_field))),
        }
    }

    /// Writes `v`'s `MAX`, `FLOW` and `DIST` rows into `rows`, in that
    /// order, each cleared first: bit for bit the rows
    /// [`GammaPass::encode`] writes for `v` under `codec`, with `δ` fields
    /// `delta_bits` wide.
    ///
    /// # Panics
    ///
    /// As [`GammaPass::encode`].
    pub fn encode_node(
        &self,
        v: NodeId,
        codec: LabelCodec,
        delta_bits: u32,
        rows: &mut [BitString; 3],
    ) {
        let [max, flow, dist] = rows;
        self.write_row(v.index(), codec, codec.omega_bits, max_field, max);
        self.write_row(v.index(), codec, codec.omega_bits, flow_field, flow);
        self.write_row(v.index(), codec, delta_bits, dist_field, dist);
    }

    /// Writes one family's row of vertex `i`, with value fields `bits`
    /// wide, into `out` (cleared first).
    fn write_row(
        &self,
        i: usize,
        codec: LabelCodec,
        bits: u32,
        field: fn(&Triple) -> u64,
        out: &mut BitString,
    ) {
        out.clear();
        codec.encode_fields_into(&self.fields[i], self.values[i].iter().map(field), bits, out);
    }

    /// The structured labels of every vertex: `MAX`, `FLOW`, and `DIST`
    /// when the tree has them.
    pub fn into_labels(self) -> (Vec<MaxLabel>, Vec<FlowLabel>, Option<Vec<DistLabel>>) {
        let n = self.fields.len();
        let mut max = Vec::with_capacity(n);
        let mut flow = Vec::with_capacity(n);
        let mut dist = Vec::with_capacity(if self.dist { n } else { 0 });
        for (sep, values) in self.fields.into_iter().zip(self.values) {
            max.push(MaxLabel {
                sep: sep.clone(),
                omega: values.iter().map(|v| v.0).collect(),
            });
            flow.push(FlowLabel {
                sep: sep.clone(),
                phi: values.iter().map(|v| v.1).collect(),
            });
            if self.dist {
                dist.push(DistLabel {
                    sep,
                    delta: values.iter().map(|v| v.2).collect(),
                });
            }
        }
        (max, flow, self.dist.then_some(dist))
    }
}

/// The separator-path and aggregate fields of every vertex: the
/// separator fields fanned across `config`'s workers, the aggregate
/// fields from one [`omega_sweep`]. Output is identical for every
/// worker count.
///
/// # Panics
///
/// Panics if `sep` does not belong to `tree` (mismatched node counts).
pub(crate) fn gamma_fields<A: PathAggregate>(
    tree: &RootedTree,
    sep: &SeparatorDecomposition,
    config: ParallelConfig,
) -> (Vec<Vec<u64>>, Vec<Vec<A::Value>>) {
    assert_eq!(
        tree.num_nodes(),
        sep.num_nodes(),
        "decomposition does not match tree"
    );
    let values = omega_sweep::<A>(tree, sep);
    let fields = par_map_chunks(tree.num_nodes(), config.resolved_threads(), |lo, hi| {
        let mut chain = Vec::new();
        (lo..hi)
            .map(|i| {
                let mut fields = Vec::new();
                sep_fields_into(sep, NodeId::from_index(i), &mut chain, &mut fields);
                fields
            })
            .collect()
    });
    (fields, values)
}

/// The aggregate fields of every vertex: the sweep of every separator
/// ([`sweep_component`]), so each of the `Σ_v level(v)` fields costs O(1)
/// amortized with near-sequential array traffic — the batch path.
/// [`walk_labels`] computes the same fields node by node.
fn omega_sweep<A: PathAggregate>(
    tree: &RootedTree,
    sep: &SeparatorDecomposition,
) -> Vec<Vec<A::Value>> {
    let mut values: Vec<Vec<A::Value>> = tree
        .nodes()
        .map(|v| vec![A::EMPTY; sep.level(v) as usize])
        .collect();
    let mut stack = Vec::new();
    for s in tree.nodes() {
        sweep_component::<A>(tree, sep, s, &mut values, &mut stack);
    }
    values
}

/// Fills separator `s`'s field (slot `level(s) - 1`) at every vertex of
/// its component, by one DFS from `s` carrying the running aggregate
/// outward. The component is what `s` reaches through vertices of higher
/// level, since the vertices around it are separators removed before it.
/// `stack` is caller-owned scratch, empty between calls; its entries are
/// (node, predecessor, field value).
fn sweep_component<A: PathAggregate>(
    tree: &RootedTree,
    sep: &SeparatorDecomposition,
    s: NodeId,
    values: &mut [Vec<A::Value>],
    stack: &mut Vec<(NodeId, NodeId, A::Value)>,
) {
    let level = sep.level(s);
    let slot = level as usize - 1;
    let inside = |u: NodeId| sep.level(u) > level;
    stack.push((s, s, A::EMPTY));
    while let Some((u, prev, m)) = stack.pop() {
        values[u.index()][slot] = m;
        if let Some(p) = tree.parent(u) {
            if p != prev && inside(p) {
                stack.push((p, u, A::extend(m, tree.parent_weight(u))));
            }
        }
        for &c in tree.children(u) {
            if c != prev && inside(c) {
                stack.push((c, u, A::extend(m, tree.parent_weight(c))));
            }
        }
    }
}

/// The `E_sep` fields of one vertex into `fields` (cleared first), with
/// the separator chain staged in a caller-owned buffer, which keeps it.
fn sep_fields_into(
    sep: &SeparatorDecomposition,
    v: NodeId,
    chain: &mut Vec<NodeId>,
    fields: &mut Vec<u64>,
) {
    sep.ancestors_into(v, chain);
    fields.clear();
    fields.reserve(chain.len());
    fields.push(0u64);
    fields.extend(chain[1..].iter().map(|&a| u64::from(sep.child_rank(a))));
}

/// One vertex's separator and aggregate fields into `fields` and
/// `values` (both cleared first), from one
/// [`RootedTree::path_stats_naive`] climb per chain separator: O(depth)
/// per field and no preprocessing.
fn walk_node(
    tree: &RootedTree,
    sep: &SeparatorDecomposition,
    v: NodeId,
    chain: &mut Vec<NodeId>,
    fields: &mut Vec<u64>,
    values: &mut Vec<Triple>,
) {
    sep_fields_into(sep, v, chain, fields);
    values.clear();
    values.extend(chain.iter().map(|&a| tree.path_stats_naive(v, a)));
}

/// The `MAX`, `FLOW` and `DIST` labels of one vertex, from one
/// [`RootedTree::path_stats_naive`] climb per chain separator: the walk
/// [`GammaPass::relabel`] runs on a short dirty list, and the per-node
/// reference the sweep is checked against. The output equals the batch
/// builders' ([`crate::max_labels_parallel`] and its `FLOW` and `DIST`
/// twins) at `v`.
///
/// # Panics
///
/// Panics if `sep` does not belong to `tree`, or if a path's summed
/// weight overflows `u64` (never when [`crate::dist_fits`] holds).
pub fn walk_labels(
    tree: &RootedTree,
    sep: &SeparatorDecomposition,
    v: NodeId,
) -> (MaxLabel, FlowLabel, DistLabel) {
    let (mut fields, mut values) = (Vec::new(), Vec::new());
    walk_node(tree, sep, v, &mut Vec::new(), &mut fields, &mut values);
    (
        MaxLabel {
            sep: fields.clone(),
            omega: values.iter().map(|t| t.0).collect(),
        },
        FlowLabel {
            sep: fields.clone(),
            phi: values.iter().map(|t| t.1).collect(),
        },
        DistLabel {
            sep: fields,
            delta: values.iter().map(|t| t.2).collect(),
        },
    )
}

/// Length of the agreeing prefix of two separator paths: the level of
/// the deepest separator common to both vertices.
pub(crate) fn common_prefix(a: &[u64], b: &[u64]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dist_labels_parallel, flow_labels_parallel, max_labels_parallel};
    use mstv_graph::gen;
    use mstv_trees::{centroid_decomposition, first_vertex_decomposition, random_decomposition};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tree_of(n: usize, max_w: u64, seed: u64) -> RootedTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(n, gen::WeightDist::Uniform { max: max_w }, &mut rng);
        RootedTree::from_graph(&g, NodeId(0)).unwrap()
    }

    #[test]
    fn batch_sweep_identical_to_per_node_assembler() {
        // The batch builders' per-separator sweeps, the one pass carrying
        // all three aggregates, and the per-node walk must agree field
        // for field on every member of Γ, for all three aggregates and
        // at any worker count — the incremental relabeler mixes them.
        let mut rng = StdRng::seed_from_u64(59);
        for (n, seed) in [(1usize, 64u64), (2, 60), (17, 61), (120, 62), (301, 63)] {
            let t = tree_of(n, 300, seed);
            for d in [
                centroid_decomposition(&t),
                first_vertex_decomposition(&t),
                random_decomposition(&t, &mut rng),
            ] {
                for threads in [1usize, 3] {
                    let pc =
                        ParallelConfig::with_threads(std::num::NonZeroUsize::new(threads).unwrap());
                    let max = max_labels_parallel(&t, &d, pc);
                    let flow = flow_labels_parallel(&t, &d, pc);
                    let dist = dist_labels_parallel(&t, &d, pc);
                    let (pass_max, pass_flow, pass_dist) =
                        GammaPass::build(&t, &d, pc).into_labels();
                    let pass_dist = pass_dist.expect("a 300-weight tree has distance labels");
                    for v in t.nodes() {
                        let (m, f, x) = walk_labels(&t, &d, v);
                        let i = v.index();
                        assert_eq!(max[i], m, "MAX n={n} v={v} threads={threads}");
                        assert_eq!(flow[i], f, "FLOW n={n} v={v} threads={threads}");
                        assert_eq!(dist[i], x, "DIST n={n} v={v} threads={threads}");
                        assert_eq!(pass_max[i], m, "pass MAX n={n} v={v} threads={threads}");
                        assert_eq!(pass_flow[i], f, "pass FLOW n={n} v={v} threads={threads}");
                        assert_eq!(pass_dist[i], x, "pass DIST n={n} v={v} threads={threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn one_edge_extends_the_empty_path_to_its_weight() {
        for w in [Weight(1), Weight(77), Weight(u64::MAX)] {
            assert_eq!(MaxAggregate::extend(MaxAggregate::EMPTY, w), w);
            assert_eq!(FlowAggregate::extend(FlowAggregate::EMPTY, w), w);
            assert_eq!(DistAggregate::extend(DistAggregate::EMPTY, w), w.0);
        }
        assert_eq!(DistAggregate::extend(u64::MAX - 1, Weight(5)), u64::MAX);
    }
}
