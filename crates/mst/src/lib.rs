//! Minimum spanning tree construction and *sequential* verification.
//!
//! The sequential side of the paper's story: computing an MST takes
//! near-linear time and several classic algorithms (Kruskal, Prim, Borůvka
//! — all implemented here), while *verifying* a candidate tree reduces to
//! path-maximum queries via the cycle property:
//!
//! > a spanning tree `T` of `G` is an MST iff for every edge
//! > `e = (u, v)` of `G`, `ω(e) ≥ MAX(u, v)` computed on `T`.
//!
//! Two verifiers are provided: one answers each non-tree edge's
//! path-maximum query in O(1) from the Kruskal reconstruction tree, the
//! other sorts the edges once and sweeps a union-find; the distributed
//! schemes in `mstv-core` are tested against them.
//!
//! ```
//! use mstv_graph::gen;
//! use mstv_mst::{kruskal, check_mst, MstVerdict};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(3);
//! let g = gen::random_connected(50, 80, gen::WeightDist::Uniform { max: 99 }, &mut rng);
//! let t = kruskal(&g);
//! assert_eq!(check_mst(&g, &t), MstVerdict::Mst);
//! ```

mod algorithms;
mod boruvka;
mod dynamic;
mod perturb;
mod second_best;
mod unionfind;
mod verify;

pub use algorithms::{kruskal, mst_weight, prim, shortest_path_tree};
pub use boruvka::{boruvka, boruvka_trace, BoruvkaPhase, BoruvkaTrace};
pub use dynamic::{repair_after_weight_change, repair_after_weight_change_in, Repair};
pub use perturb::{tree_favored_key, EdgeKey};
pub use second_best::second_best_mst_weight;
pub use unionfind::UnionFind;
pub use verify::{
    check_mst, check_mst_offline, is_max_spanning_tree, is_mst, maximum_spanning_tree, MstVerdict,
};
