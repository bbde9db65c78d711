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
/// ([`GammaPass::encode`]) or materialized ([`GammaPass::into_labels`]),
/// and equal what the per-family builders ([`crate::max_labels_parallel`]
/// and its twins) produce. `DIST` is projected only when the tree's total
/// weight fits in a `u64` ([`crate::dist_fits`]).
#[derive(Debug, Clone)]
pub struct GammaPass {
    nodes: Vec<(Vec<u64>, Vec<Triple>)>,
    /// Width of the `δ` fields (the bit width of the largest one), when
    /// the tree has `DIST` labels.
    delta_bits: Option<u32>,
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

impl GammaPass {
    /// Runs the pass: separator fields fanned across `config`'s workers,
    /// then one sweep. Output is identical for every worker count.
    ///
    /// # Panics
    ///
    /// Panics if `sep` does not belong to `tree` (mismatched node counts).
    pub fn build(tree: &RootedTree, sep: &SeparatorDecomposition, config: ParallelConfig) -> Self {
        let nodes: Vec<_> = gamma_fields::<TripleAggregate>(tree, sep, config).collect();
        let delta_bits = dist_fits(tree).then(|| {
            let max_delta = nodes
                .iter()
                .flat_map(|(_, values)| values.iter().map(|&(_, _, sum)| sum))
                .max()
                .unwrap_or(0);
            Weight(max_delta).bit_width()
        });
        GammaPass { nodes, delta_bits }
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
            par_map_chunks(self.nodes.len(), config.resolved_threads(), |lo, hi| {
                let mut scratch = BitString::new();
                self.nodes[lo..hi]
                    .iter()
                    .map(|(sep, values)| {
                        scratch.clear();
                        codec.encode_fields_into(sep, values.iter().map(field), bits, &mut scratch);
                        scratch.clone()
                    })
                    .collect()
            })
        };
        GammaEncoding {
            max: family(codec.omega_bits, |v| v.0 .0),
            flow: family(codec.omega_bits, |v| flow_raw(v.1)),
            dist: self.delta_bits.map(|bits| (bits, family(bits, |v| v.2))),
        }
    }

    /// The structured labels of every vertex: `MAX`, `FLOW`, and `DIST`
    /// when the tree has them.
    pub fn into_labels(self) -> (Vec<MaxLabel>, Vec<FlowLabel>, Option<Vec<DistLabel>>) {
        let n = self.nodes.len();
        let has_dist = self.delta_bits.is_some();
        let mut max = Vec::with_capacity(n);
        let mut flow = Vec::with_capacity(n);
        let mut dist = Vec::with_capacity(if has_dist { n } else { 0 });
        for (sep, values) in self.nodes {
            max.push(MaxLabel {
                sep: sep.clone(),
                omega: values.iter().map(|v| v.0).collect(),
            });
            flow.push(FlowLabel {
                sep: sep.clone(),
                phi: values.iter().map(|v| v.1).collect(),
            });
            if has_dist {
                dist.push(DistLabel {
                    sep,
                    delta: values.iter().map(|v| v.2).collect(),
                });
            }
        }
        (max, flow, has_dist.then_some(dist))
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
) -> impl Iterator<Item = (Vec<u64>, Vec<A::Value>)> {
    assert_eq!(
        tree.num_nodes(),
        sep.num_nodes(),
        "decomposition does not match tree"
    );
    let values = omega_sweep::<A>(tree, sep);
    let fields: Vec<Vec<u64>> =
        par_map_chunks(tree.num_nodes(), config.resolved_threads(), |lo, hi| {
            let mut chain = Vec::new();
            (lo..hi)
                .map(|i| sep_fields(sep, NodeId::from_index(i), &mut chain))
                .collect()
        });
    fields.into_iter().zip(values)
}

/// The aggregate fields of every vertex, computed by one DFS sweep per
/// separator over its own component: the sweep from `s` carries the
/// running aggregate outward, so each of the `Σ_v level(v)` fields
/// costs O(1) amortized with near-sequential array traffic — the batch
/// path. [`walk_labels`] computes the same fields node by node.
fn omega_sweep<A: PathAggregate>(
    tree: &RootedTree,
    sep: &SeparatorDecomposition,
) -> Vec<Vec<A::Value>> {
    let n = tree.num_nodes();
    let mut values: Vec<Vec<A::Value>> = (0..n)
        .map(|i| vec![A::EMPTY; sep.level(NodeId::from_index(i)) as usize])
        .collect();
    // Interval-label the separator tree so "u lies in the component of
    // separator s" is the O(1) test tin[s] <= tin[u] < tout[s] (u's
    // level-l(s) separator is s iff s is its separator-tree ancestor).
    // Children live in one flat CSR array to keep the setup allocation-
    // and cache-cheap.
    let mut off = vec![0u32; n + 1];
    for i in 0..n {
        if let Some(p) = sep.sep_parent(NodeId::from_index(i)) {
            off[p.index() + 1] += 1;
        }
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let mut kids = vec![NodeId(0); n.saturating_sub(1)];
    let mut cursor: Vec<u32> = off[..n].to_vec();
    for i in 0..n {
        let v = NodeId::from_index(i);
        if let Some(p) = sep.sep_parent(v) {
            kids[cursor[p.index()] as usize] = v;
            cursor[p.index()] += 1;
        }
    }
    let mut tin = vec![0u32; n];
    let mut tout = vec![0u32; n];
    let mut timer = 0u32;
    let mut walk: Vec<(NodeId, u32)> = vec![(sep.root(), off[sep.root().index()])];
    tin[sep.root().index()] = timer;
    timer += 1;
    while let Some(top) = walk.last_mut() {
        let (v, next_child) = *top;
        if next_child < off[v.index() + 1] {
            top.1 += 1;
            let c = kids[next_child as usize];
            tin[c.index()] = timer;
            timer += 1;
            walk.push((c, off[c.index()]));
        } else {
            tout[v.index()] = timer;
            walk.pop();
        }
    }
    // One DFS per separator, confined to its component, carrying the
    // running aggregate; entries are (node, predecessor, field value).
    let mut stack: Vec<(NodeId, NodeId, A::Value)> = Vec::new();
    for i in 0..n {
        let s = NodeId::from_index(i);
        let slot = sep.level(s) as usize - 1;
        let (lo, hi) = (tin[i], tout[i]);
        let inside = |u: NodeId| (lo..hi).contains(&tin[u.index()]);
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
    values
}

/// The `E_sep` fields of one vertex, with the separator chain staged in a
/// caller-owned buffer so batch builders allocate one chain per worker.
fn sep_fields(sep: &SeparatorDecomposition, v: NodeId, chain: &mut Vec<NodeId>) -> Vec<u64> {
    sep.ancestors_into(v, chain);
    let mut fields = Vec::with_capacity(chain.len());
    fields.push(0u64);
    for &a in &chain[1..] {
        fields.push(u64::from(sep.child_rank(a)));
    }
    fields
}

/// The `MAX`, `FLOW` and `DIST` labels of one vertex, from one
/// [`RootedTree::path_stats_naive`] climb per chain separator: O(depth)
/// per field and no preprocessing, so an incremental relabeler with a
/// small dirty set pays for its dirty vertices only. The output equals
/// the batch builders' ([`crate::max_labels_parallel`] and its `FLOW`
/// and `DIST` twins) at `v`.
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
    let mut chain = Vec::new();
    let fields = sep_fields(sep, v, &mut chain);
    let mut omega = Vec::with_capacity(chain.len());
    let mut phi = Vec::with_capacity(chain.len());
    let mut delta = Vec::with_capacity(chain.len());
    for &a in &chain {
        let (max, min, sum) = tree.path_stats_naive(v, a);
        omega.push(max);
        phi.push(min);
        delta.push(sum);
    }
    (
        MaxLabel {
            sep: fields.clone(),
            omega,
        },
        FlowLabel {
            sep: fields.clone(),
            phi,
        },
        DistLabel { sep: fields, delta },
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
