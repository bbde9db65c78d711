//! The versioned binary snapshot container.
//!
//! A snapshot persists everything the serving tier needs to answer
//! `MAX`/`FLOW`/`DIST`/`VerifyEdge` queries for one marked tree: the tree
//! itself plus the full encoded label stack. All integers are
//! little-endian; every section payload carries a CRC32 so bit flips are
//! rejected at load time with a typed [`StoreError`], never served as a
//! wrong answer.
//!
//! ```text
//! offset size  field
//! 0      8     magic  "MSTVSNAP"
//! 8      2     version (= 1)
//! 10     2     reserved (= 0)
//! 12     4     header length H
//! 16     4     header CRC32
//! 20     H     header: n u32 · root u32 · max_weight u64 · sep_codec u8
//!              · sep_bits u32 · omega_bits u32 · section count u32
//! then, per section:
//!        1     tag (1 = tree, 2 = max, 3 = flow, 4 = dist)
//!        8     payload length
//!        4     payload CRC32
//!        ...   payload
//! ```
//!
//! The tree payload is `n` records of `parent u32` (`0xFFFF_FFFF` at the
//! root) and `weight u64`. Label payloads are `n` length-prefixed records
//! (`bit_len u32`, then `⌈bit_len/8⌉` bytes from
//! [`BitString::to_bytes`]); the dist payload additionally opens with its
//! `delta_bits u32` field width. Tree, max, and flow sections are
//! mandatory; dist is optional. Unknown tags are rejected — version 1
//! files contain exactly these sections.
//!
//! # Version 2: columnar label sections
//!
//! Version 2 keeps the magic, prelude, header, tree section, and section
//! framing byte-for-byte, and replaces the three row-oriented label
//! sections with *columnar* ones (tags 5 = max, 6 = flow, 7 = dist)
//! whose payload is
//!
//! ```text
//! [delta_bits u32]            dist section only
//! offsets   (n+1) × u64 LE    bit offsets, offsets[0] = 0
//! payload   ⌈offsets[n]/8⌉    every label back-to-back, bit-packed
//! ```
//!
//! Label `v` is bits `offsets[v] .. offsets[v+1]` of the payload — the
//! exact same bits the v1 record for `v` carries, just without the `n`
//! length prefixes and the per-record byte padding. The layout is what
//! [`mstv_labels::PackedLabels`] holds in memory, which buys two things:
//! a sequential scan touches one contiguous buffer instead of `n`
//! heap-scattered records, and a memory-mapped file can serve a label as
//! a borrowed [`mstv_labels::BitSlice`] with zero copies (see
//! [`crate::MappedSnapshot`]). Both versions stay readable forever;
//! [`Snapshot::to_bytes`] keeps writing v1 so existing golden fixtures
//! and byte-comparison tooling are unaffected, and
//! [`Snapshot::to_bytes_format`] selects explicitly.

use std::path::Path;

use mstv_graph::{NodeId, Weight};
use mstv_labels::{BitString, GammaPass, LabelCodec, PackedLabels, SepFieldCodec};
use mstv_trees::{centroid_decomposition_parallel, ParallelConfig, PathMaxIndex, RootedTree};

use crate::crc::crc32;
use crate::StoreError;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"MSTVSNAP";

/// The original (row-oriented) container version. This is what
/// [`Snapshot::to_bytes`] writes by default.
pub const VERSION: u16 = 1;

/// The columnar container version (see the module docs). Readable by
/// [`Snapshot::from_bytes`] and [`crate::MappedSnapshot`]; written on
/// request via [`Snapshot::to_bytes_format`].
pub const VERSION_V2: u16 = 2;

/// Which container version to write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotFormat {
    /// Version 1: row-oriented, length-prefixed label records.
    #[default]
    V1,
    /// Version 2: columnar label sections (offsets table + one
    /// contiguous bit payload per family), mmap-servable.
    V2,
}

impl SnapshotFormat {
    /// The version number this format stamps into the prelude.
    pub fn version(self) -> u16 {
        match self {
            SnapshotFormat::V1 => VERSION,
            SnapshotFormat::V2 => VERSION_V2,
        }
    }
}

impl std::str::FromStr for SnapshotFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "v1" | "1" => Ok(SnapshotFormat::V1),
            "v2" | "2" => Ok(SnapshotFormat::V2),
            other => Err(format!(
                "unknown snapshot format {other:?} (expected v1 or v2)"
            )),
        }
    }
}

/// Parent sentinel for the root node in the tree section (shared with
/// the delta-journal tree records).
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// Largest label record accepted on read (bits). Labels are
/// `O(log n · log W)`, so even pathological trees stay far below this;
/// the cap keeps a corrupted length prefix from driving allocations.
pub(crate) const MAX_LABEL_BITS: u32 = 1 << 26;

pub(crate) mod tag {
    pub const TREE: u8 = 1;
    pub const MAX: u8 = 2;
    pub const FLOW: u8 = 3;
    pub const DIST: u8 = 4;
    // Version-2 columnar label sections.
    pub const MAXC: u8 = 5;
    pub const FLOWC: u8 = 6;
    pub const DISTC: u8 = 7;
}

/// The optional distance-label section: `δ` fields are wider than `ω`
/// fields (distances are bounded by `n·W`), so the section carries its
/// own field width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistSection {
    /// Width of each `δ` field in bits.
    pub delta_bits: u32,
    /// Encoded distance label per node.
    pub labels: Vec<BitString>,
}

/// What `fsck` verified, for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// Nodes in the snapshot.
    pub nodes: u32,
    /// Whether a dist section was present and checked.
    pub has_dist: bool,
    /// Largest encoded label across all sections, in bits.
    pub max_label_bits: usize,
    /// Total encoded label volume, in bits.
    pub total_label_bits: usize,
    /// Node pairs cross-checked against the tree oracle.
    pub pairs_checked: usize,
}

/// An in-memory label snapshot: one marked tree plus its full label
/// stack, exactly what [`Snapshot::to_bytes`] persists and
/// [`Snapshot::from_bytes`] restores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    root: NodeId,
    max_weight: Weight,
    codec: LabelCodec,
    parents: Vec<Option<(NodeId, Weight)>>,
    max_labels: Vec<BitString>,
    flow_labels: Vec<BitString>,
    dist: Option<DistSection>,
}

impl Snapshot {
    /// Runs the markers over `tree` and captures the full label stack:
    /// `MAX`, `FLOW`, and `DIST` labels under one shared centroid
    /// decomposition and the given separator-field codec. A tree whose
    /// total weight overflows `u64` has no `DIST` labels
    /// ([`mstv_labels::dist_fits`]), and its snapshot no dist section.
    pub fn build(tree: &RootedTree, sep_codec: SepFieldCodec) -> Snapshot {
        Self::build_parallel(
            tree,
            sep_codec,
            ParallelConfig::with_threads(std::num::NonZeroUsize::MIN),
        )
    }

    /// [`Snapshot::build`] with the whole labeling pipeline — centroid
    /// decomposition, the one [`GammaPass`] that fills the `MAX`, `FLOW`
    /// and `DIST` fields together, and bit-level encoding — fanned across
    /// a scoped thread pool.
    ///
    /// The output is byte-identical to the sequential builder for every
    /// thread count (`Snapshot::build` *is* this function pinned to one
    /// worker), so golden snapshot fixtures and checksums are stable no
    /// matter how a snapshot was produced.
    pub fn build_parallel(
        tree: &RootedTree,
        sep_codec: SepFieldCodec,
        config: ParallelConfig,
    ) -> Snapshot {
        let sep = centroid_decomposition_parallel(tree, config);
        let codec = LabelCodec::for_tree(tree, sep_codec);
        let labels = GammaPass::build(tree, &sep, config).encode(codec, config);
        let parents = tree
            .nodes()
            .map(|v| tree.parent(v).map(|p| (p, tree.parent_weight(v))))
            .collect();
        Snapshot {
            root: tree.root(),
            max_weight: tree.edges().map(|(_, _, w)| w).max().unwrap_or(Weight(1)),
            codec,
            parents,
            max_labels: labels.max,
            flow_labels: labels.flow,
            dist: labels
                .dist
                .map(|(delta_bits, labels)| DistSection { delta_bits, labels }),
        }
    }

    /// Assembles a snapshot directly from its parts, bypassing the
    /// marker. This is the constructor incremental relabelers
    /// (`mstv-dyn`) use to persist a label stack they maintained
    /// themselves; nothing is validated here — run [`Snapshot::fsck`]
    /// to vouch for the result.
    ///
    /// # Panics
    ///
    /// Panics if the per-node vectors disagree on length.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        root: NodeId,
        max_weight: Weight,
        codec: LabelCodec,
        parents: Vec<Option<(NodeId, Weight)>>,
        max_labels: Vec<BitString>,
        flow_labels: Vec<BitString>,
        dist: Option<DistSection>,
    ) -> Snapshot {
        assert_eq!(parents.len(), max_labels.len(), "per-node vectors differ");
        assert_eq!(parents.len(), flow_labels.len(), "per-node vectors differ");
        if let Some(d) = &dist {
            assert_eq!(parents.len(), d.labels.len(), "per-node vectors differ");
        }
        Snapshot {
            root,
            max_weight,
            codec,
            parents,
            max_labels,
            flow_labels,
            dist,
        }
    }

    /// Number of labelled nodes.
    pub fn num_nodes(&self) -> u32 {
        self.parents.len() as u32
    }

    /// The root the stored tree is hung from.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The largest tree-edge weight (`W`), as recorded in the header.
    pub fn max_weight(&self) -> Weight {
        self.max_weight
    }

    /// The codec all stored `MAX`/`FLOW` labels were encoded under.
    pub fn codec(&self) -> LabelCodec {
        self.codec
    }

    /// The encoded `MAX` label records.
    pub fn max_labels(&self) -> &[BitString] {
        &self.max_labels
    }

    /// The encoded `FLOW` label records.
    pub fn flow_labels(&self) -> &[BitString] {
        &self.flow_labels
    }

    /// The distance section, if the snapshot carries one.
    pub fn dist(&self) -> Option<&DistSection> {
        self.dist.as_ref()
    }

    /// Largest encoded label across all sections, in bits.
    pub fn max_label_bits(&self) -> usize {
        self.label_sections()
            .flat_map(|(_, labels)| labels.iter().map(BitString::len))
            .max()
            .unwrap_or(0)
    }

    /// Total encoded label volume across all sections, in bits.
    pub fn total_label_bits(&self) -> usize {
        self.label_sections()
            .flat_map(|(_, labels)| labels.iter().map(BitString::len))
            .sum()
    }

    fn label_sections(&self) -> impl Iterator<Item = (&'static str, &[BitString])> {
        [
            ("max", self.max_labels.as_slice()),
            ("flow", self.flow_labels.as_slice()),
        ]
        .into_iter()
        .chain(self.dist.iter().map(|d| ("dist", d.labels.as_slice())))
    }

    /// Drops the optional dist section; `MAX`/`FLOW`/`VerifyEdge`
    /// queries are unaffected and the written file shrinks accordingly.
    pub fn strip_dist(&mut self) {
        self.dist = None;
    }

    #[cfg(test)]
    pub(crate) fn corrupt_max_label_for_test(&mut self, v: NodeId) {
        self.max_labels[v.index()] = BitString::new();
    }

    /// In-place mutators for the delta-journal applier: a
    /// [`crate::DeltaRecord`] rewrites exactly the dirty rows of each
    /// section plus the scheme-wide header fields. Crate-private so
    /// every mutation path outside this crate goes through the
    /// journal's validation.
    pub(crate) fn set_scheme_widths(
        &mut self,
        max_weight: Weight,
        omega_bits: u32,
        delta_bits: u32,
    ) {
        self.max_weight = max_weight;
        self.codec.omega_bits = omega_bits;
        if let Some(d) = &mut self.dist {
            d.delta_bits = delta_bits;
        }
    }

    pub(crate) fn set_parent_entry(&mut self, v: usize, entry: Option<(NodeId, Weight)>) {
        self.parents[v] = entry;
    }

    // The label setters copy into the row's existing buffer, reusing
    // its capacity.
    pub(crate) fn set_max_label(&mut self, v: usize, bits: &BitString) {
        self.max_labels[v].clone_from(bits);
    }

    pub(crate) fn set_flow_label(&mut self, v: usize, bits: &BitString) {
        self.flow_labels[v].clone_from(bits);
    }

    pub(crate) fn set_dist_label(&mut self, v: usize, bits: &BitString) {
        if let Some(d) = &mut self.dist {
            d.labels[v].clone_from(bits);
        }
    }

    /// Reconstructs the stored tree.
    ///
    /// # Errors
    ///
    /// [`StoreError::Malformed`] if the parent pointers do not form a
    /// tree rooted at the recorded root.
    pub fn tree(&self) -> Result<RootedTree, StoreError> {
        RootedTree::from_parents(self.root, self.parents.clone()).map_err(|e| {
            StoreError::Malformed {
                context: "tree section",
                reason: e.to_string(),
            }
        })
    }

    /// Serializes the snapshot into the default (version 1) container
    /// format. Byte-stable: golden fixtures and checksum tooling can
    /// compare this output across builds.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_format(SnapshotFormat::V1)
    }

    /// Serializes the snapshot in the requested container version. Both
    /// versions carry bit-identical label streams — a v1 and a v2 file
    /// written from the same snapshot parse back [`PartialEq`]-equal.
    pub fn to_bytes_format(&self, format: SnapshotFormat) -> Vec<u8> {
        let len = self.encoded_len(format);
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&format.version().to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());

        let (sep_id, sep_bits) = match self.codec.sep_codec {
            SepFieldCodec::EliasGamma => (0u8, 0u32),
            SepFieldCodec::FixedWidth { bits } => (1u8, bits),
        };
        let mut header = Vec::with_capacity(29);
        header.extend_from_slice(&self.num_nodes().to_le_bytes());
        header.extend_from_slice(&self.root.0.to_le_bytes());
        header.extend_from_slice(&self.max_weight.0.to_le_bytes());
        header.push(sep_id);
        header.extend_from_slice(&sep_bits.to_le_bytes());
        header.extend_from_slice(&self.codec.omega_bits.to_le_bytes());
        let section_count = 3 + u32::from(self.dist.is_some());
        header.extend_from_slice(&section_count.to_le_bytes());
        out.extend_from_slice(&(header.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&header).to_le_bytes());
        out.extend_from_slice(&header);

        let mut tree_payload = Vec::with_capacity(12 * self.parents.len());
        for entry in &self.parents {
            let (parent, w) = match entry {
                Some((p, w)) => (p.0, w.0),
                None => (NO_PARENT, 0),
            };
            tree_payload.extend_from_slice(&parent.to_le_bytes());
            tree_payload.extend_from_slice(&w.to_le_bytes());
        }
        push_section(&mut out, tag::TREE, &tree_payload);
        match format {
            SnapshotFormat::V1 => {
                push_section(&mut out, tag::MAX, &label_payload(&self.max_labels, &[]));
                push_section(&mut out, tag::FLOW, &label_payload(&self.flow_labels, &[]));
                if let Some(dist) = &self.dist {
                    let prefix = dist.delta_bits.to_le_bytes();
                    push_section(&mut out, tag::DIST, &label_payload(&dist.labels, &prefix));
                }
            }
            SnapshotFormat::V2 => {
                push_section(
                    &mut out,
                    tag::MAXC,
                    &columnar_payload(&self.max_labels, &[]),
                );
                push_section(
                    &mut out,
                    tag::FLOWC,
                    &columnar_payload(&self.flow_labels, &[]),
                );
                if let Some(dist) = &self.dist {
                    let prefix = dist.delta_bits.to_le_bytes();
                    push_section(
                        &mut out,
                        tag::DISTC,
                        &columnar_payload(&dist.labels, &prefix),
                    );
                }
            }
        }
        debug_assert_eq!(out.len(), len, "snapshot length computed up front");
        out
    }

    /// The exact length of [`Snapshot::to_bytes_format`]'s output, so it
    /// is written into one allocation.
    fn encoded_len(&self, format: SnapshotFormat) -> usize {
        // Magic, version, reserved, header length and checksum, then
        // the 29-byte header.
        const PRELUDE: usize = MAGIC.len() + 2 + 2 + 4 + 4 + 29;
        // Tag, payload length and checksum.
        const FRAME: usize = 1 + 8 + 4;
        let family = |labels: &[BitString], prefix: usize| {
            let payload = match format {
                SnapshotFormat::V1 => labels.iter().map(|l| 4 + l.len().div_ceil(8)).sum(),
                SnapshotFormat::V2 => {
                    let bits: usize = labels.iter().map(BitString::len).sum();
                    8 * (labels.len() + 1) + bits.div_ceil(8)
                }
            };
            FRAME + prefix + payload
        };
        let dist = self.dist.as_ref().map_or(0, |d| family(&d.labels, 4));
        PRELUDE
            + FRAME
            + 12 * self.parents.len()
            + family(&self.max_labels, 0)
            + family(&self.flow_labels, 0)
            + dist
    }

    /// Parses a snapshot, validating magic, version, every CRC, and the
    /// framing of every record.
    ///
    /// # Errors
    ///
    /// The precise [`StoreError`] naming what was wrong: [`StoreError::BadMagic`],
    /// [`StoreError::UnsupportedVersion`], [`StoreError::Truncated`],
    /// [`StoreError::CrcMismatch`], or [`StoreError::Malformed`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, StoreError> {
        let mut r = ByteReader::new(bytes);
        let (version, header) = parse_prelude(&mut r)?;
        let SnapHeader {
            n,
            root,
            max_weight,
            codec,
            section_count,
        } = header;

        let mut parents = None;
        let mut max_labels = None;
        let mut flow_labels = None;
        let mut dist = None;
        for _ in 0..section_count {
            let tag = r.read_u8("section tag")?;
            let len = r.read_u64("section length")? as usize;
            let stored = r.read_u32("section checksum")?;
            let section_name = section_name(version, tag)?;
            let payload = r.take(len, section_name)?;
            let computed = crc32(payload);
            if computed != stored {
                return Err(StoreError::CrcMismatch {
                    section: section_name,
                    stored,
                    computed,
                });
            }
            match tag {
                tag::TREE => {
                    reject_duplicate(parents.is_some(), section_name)?;
                    parents = Some(parse_tree_payload(payload, n)?);
                }
                tag::MAX => {
                    reject_duplicate(max_labels.is_some(), section_name)?;
                    max_labels = Some(parse_label_payload(payload, n, section_name)?);
                }
                tag::FLOW => {
                    reject_duplicate(flow_labels.is_some(), section_name)?;
                    flow_labels = Some(parse_label_payload(payload, n, section_name)?);
                }
                tag::DIST => {
                    reject_duplicate(dist.is_some(), section_name)?;
                    let mut d = ByteReader::new(payload);
                    let delta_bits = read_delta_bits(&mut d)?;
                    let labels = parse_label_payload(d.rest(), n, section_name)?;
                    dist = Some(DistSection { delta_bits, labels });
                }
                tag::MAXC => {
                    reject_duplicate(max_labels.is_some(), section_name)?;
                    let col = parse_columnar(payload, n, section_name)?;
                    max_labels = Some(col.to_bitstrings());
                }
                tag::FLOWC => {
                    reject_duplicate(flow_labels.is_some(), section_name)?;
                    let col = parse_columnar(payload, n, section_name)?;
                    flow_labels = Some(col.to_bitstrings());
                }
                tag::DISTC => {
                    reject_duplicate(dist.is_some(), section_name)?;
                    let mut d = ByteReader::new(payload);
                    let delta_bits = read_delta_bits(&mut d)?;
                    let col = parse_columnar(d.rest(), n, section_name)?;
                    dist = Some(DistSection {
                        delta_bits,
                        labels: col.to_bitstrings(),
                    });
                }
                _ => unreachable!("section_name rejected unknown tags"),
            }
        }
        if !r.rest().is_empty() {
            return Err(StoreError::Malformed {
                context: "container",
                reason: format!("{} trailing bytes after last section", r.rest().len()),
            });
        }
        let missing = |section| StoreError::MissingSection { section };
        Ok(Snapshot {
            root,
            max_weight,
            codec,
            parents: parents.ok_or(missing("tree"))?,
            max_labels: max_labels.ok_or(missing("max"))?,
            flow_labels: flow_labels.ok_or(missing("flow"))?,
            dist,
        })
    }

    /// Writes the snapshot to a file in the default (version 1) format.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        self.write_file_format(path, SnapshotFormat::V1)
    }

    /// Writes the snapshot to a file in the requested container version.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn write_file_format(
        &self,
        path: impl AsRef<Path>,
        format: SnapshotFormat,
    ) -> Result<(), StoreError> {
        std::fs::write(path, self.to_bytes_format(format)).map_err(StoreError::from)
    }

    /// Reads and parses a snapshot file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, otherwise whatever
    /// [`Snapshot::from_bytes`] reports.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Snapshot, StoreError> {
        Snapshot::from_bytes(&std::fs::read(path)?)
    }

    /// Deep-checks the snapshot: decodes every label record through the
    /// non-panicking codecs, reconstructs the tree, and cross-checks
    /// `pairs` deterministic node pairs against a fresh path oracle on
    /// the stored tree — so a snapshot whose labels belong to a
    /// *different* tree (every CRC intact) is still caught.
    ///
    /// # Errors
    ///
    /// [`StoreError::CorruptLabel`] naming the first undecodable record,
    /// [`StoreError::Malformed`] for a broken tree or an oracle
    /// disagreement, [`StoreError::LabelMismatch`] for label pairs from
    /// different schemes.
    pub fn fsck(&self, pairs: usize) -> Result<FsckReport, StoreError> {
        let n = self.num_nodes();
        let corrupt = |section, node: u32| StoreError::CorruptLabel { section, node };
        let mut max_decoded = Vec::with_capacity(n as usize);
        let mut flow_decoded = Vec::with_capacity(n as usize);
        for v in 0..n {
            max_decoded.push(
                self.codec
                    .try_decode_max_label(&self.max_labels[v as usize])
                    .ok_or_else(|| corrupt("max", v))?,
            );
            flow_decoded.push(
                self.codec
                    .try_decode_flow_label(&self.flow_labels[v as usize])
                    .ok_or_else(|| corrupt("flow", v))?,
            );
        }
        let mut dist_decoded = Vec::new();
        if let Some(dist) = &self.dist {
            for v in 0..n {
                dist_decoded.push(
                    self.codec
                        .try_decode_dist_label(&dist.labels[v as usize], dist.delta_bits)
                        .ok_or_else(|| corrupt("dist", v))?,
                );
            }
        }

        let tree = self.tree()?;
        let idx = PathMaxIndex::new(&tree);
        let mut wdepth = vec![0u64; tree.num_nodes()];
        if self.dist.is_some() {
            // Weighted depths fit whenever the tree has distance labels.
            for &v in tree.order() {
                if let Some(p) = tree.parent(v) {
                    wdepth[v.index()] = wdepth[p.index()]
                        .checked_add(tree.parent_weight(v).0)
                        .ok_or(StoreError::Malformed {
                            context: "dist section",
                            reason: "the stored tree's total weight overflows u64, so it has \
                                     no distance labels"
                                .to_owned(),
                        })?;
                }
            }
        }
        let mut checked = 0;
        for i in 0..pairs {
            let Some((u, v)) = fsck_pair(i, n) else {
                break; // n < 2: path queries need distinct endpoints
            };
            let (nu, nv) = (NodeId(u), NodeId(v));
            let mismatch = |what: &str, got: String, want: String| StoreError::Malformed {
                context: "label cross-check",
                reason: format!("{what}({u}, {v}) decodes to {got}, tree oracle says {want}"),
            };
            let got =
                mstv_labels::try_decode_max(&max_decoded[u as usize], &max_decoded[v as usize])
                    .ok_or(StoreError::LabelMismatch { u, v })?;
            let want = idx
                .try_max_on_path(nu, nv)
                .expect("fsck pairs are in range");
            if got != want {
                return Err(mismatch("MAX", got.to_string(), want.to_string()));
            }
            let got =
                mstv_labels::try_decode_flow(&flow_decoded[u as usize], &flow_decoded[v as usize])
                    .ok_or(StoreError::LabelMismatch { u, v })?;
            let want = idx
                .try_min_on_path(nu, nv)
                .expect("fsck pairs are in range");
            if got != want {
                return Err(mismatch("FLOW", got.to_string(), want.to_string()));
            }
            if !dist_decoded.is_empty() {
                let got = mstv_labels::try_decode_dist(
                    &dist_decoded[u as usize],
                    &dist_decoded[v as usize],
                )
                .ok_or(StoreError::LabelMismatch { u, v })?;
                let x = idx.try_lca(nu, nv).expect("fsck pairs are in range");
                let want = wdepth[nu.index()] + wdepth[nv.index()] - 2 * wdepth[x.index()];
                if got != want {
                    return Err(mismatch("DIST", got.to_string(), want.to_string()));
                }
            }
            checked += 1;
        }
        Ok(FsckReport {
            nodes: n,
            has_dist: self.dist.is_some(),
            max_label_bits: self.max_label_bits(),
            total_label_bits: self.total_label_bits(),
            pairs_checked: checked,
        })
    }
}

/// The deterministic pair sampler behind [`Snapshot::fsck`]: maps a
/// check index `i` to a node pair `(u, v)` with `u ≠ v`, or `None` when
/// `n < 2` (path queries are only specified for distinct endpoints, so
/// a 0- or 1-node snapshot has no pairs to check).
///
/// Two properties the fsck depends on, by construction:
///
/// * **Full endpoint coverage** — `u = i mod n`, so any window of `n`
///   consecutive indices visits every node as a first endpoint, and
///   every stored record takes part in a cross-check. The earlier
///   multiplicative sweep (`i·0x9E37_79B9 mod n`) visited only
///   `gcd`-reachable residues for unlucky `n`, leaving whole residue
///   classes of nodes unchecked, and could pair a node with itself,
///   silently skipping the check.
/// * **Distinct endpoints** — the offset `1 + splitmix64(i) mod (n-1)`
///   lies in `[1, n-1]`, so `v` never wraps onto `u`. The
///   `mod (n-1)` of a 64-bit hash carries bias at most `(n-1)/2⁶⁴` per
///   offset — unobservable at any n a snapshot can hold, and the
///   price of keeping the sampler allocation-free and O(1) per index.
///
/// No RNG state: fsck results are reproducible byte-for-byte.
pub fn fsck_pair(i: usize, n: u32) -> Option<(u32, u32)> {
    if n < 2 {
        return None;
    }
    let u = (i as u64 % u64::from(n)) as u32;
    let offset = 1 + (splitmix64(i as u64) % u64::from(n - 1)) as u32;
    let v = (u + offset) % n;
    Some((u, v))
}

/// SplitMix64's finalizer: a fixed 64-bit mixing permutation
/// (Steele–Lea–Flood, the seeding function of the xoshiro family).
fn splitmix64(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The header fields shared by every container version, decoded and
/// validated. What [`parse_prelude`] hands back to both the owning
/// parser ([`Snapshot::from_bytes`]) and the mapping one
/// ([`crate::MappedSnapshot`]).
pub(crate) struct SnapHeader {
    pub n: u32,
    pub root: NodeId,
    pub max_weight: Weight,
    pub codec: LabelCodec,
    pub section_count: u32,
}

/// Parses and validates everything before the first section: magic,
/// version (1 or 2), reserved word, and the CRC-protected header. On
/// return the reader is positioned at the first section tag.
pub(crate) fn parse_prelude(r: &mut ByteReader<'_>) -> Result<(u16, SnapHeader), StoreError> {
    if r.take(8, "magic")? != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.read_u16("version")?;
    if version != VERSION && version != VERSION_V2 {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let reserved = r.read_u16("reserved")?;
    if reserved != 0 {
        // Both versions write zero; insisting on it keeps every byte of
        // the file covered by some check.
        return Err(StoreError::Malformed {
            context: "container",
            reason: format!("reserved field is {reserved:#06x}, expected 0"),
        });
    }
    let header_len = r.read_u32("header length")? as usize;
    let header_crc = r.read_u32("header checksum")?;
    let header_bytes = r.take(header_len, "header")?;
    let computed = crc32(header_bytes);
    if computed != header_crc {
        return Err(StoreError::CrcMismatch {
            section: "header",
            stored: header_crc,
            computed,
        });
    }
    let mut h = ByteReader::new(header_bytes);
    let n = h.read_u32("node count")?;
    let root = NodeId(h.read_u32("root")?);
    let max_weight = Weight(h.read_u64("max weight")?);
    let sep_id = h.read_u8("separator codec id")?;
    let sep_bits = h.read_u32("separator field width")?;
    let omega_bits = h.read_u32("omega field width")?;
    let section_count = h.read_u32("section count")?;
    let sep_codec = match sep_id {
        0 => SepFieldCodec::EliasGamma,
        1 => SepFieldCodec::FixedWidth { bits: sep_bits },
        other => {
            return Err(StoreError::Malformed {
                context: "header",
                reason: format!("unknown separator codec id {other}"),
            })
        }
    };
    if root.0 >= n.max(1) {
        return Err(StoreError::Malformed {
            context: "header",
            reason: format!("root {} out of range for {n} nodes", root.0),
        });
    }
    if omega_bits == 0 || omega_bits > 64 || sep_bits > 64 {
        return Err(StoreError::Malformed {
            context: "header",
            reason: format!("implausible field widths ω={omega_bits} sep={sep_bits}"),
        });
    }
    Ok((
        version,
        SnapHeader {
            n,
            root,
            max_weight,
            codec: LabelCodec {
                sep_codec,
                omega_bits,
            },
            section_count,
        },
    ))
}

pub(crate) fn read_delta_bits(d: &mut ByteReader<'_>) -> Result<u32, StoreError> {
    let delta_bits = d.read_u32("delta field width")?;
    if delta_bits == 0 || delta_bits > 64 {
        return Err(StoreError::Malformed {
            context: "dist section",
            reason: format!("implausible delta width {delta_bits}"),
        });
    }
    Ok(delta_bits)
}

pub(crate) fn section_name(version: u16, tag: u8) -> Result<&'static str, StoreError> {
    let (name, version_ok) = match tag {
        tag::TREE => ("tree", true),
        tag::MAX => ("max", version == VERSION),
        tag::FLOW => ("flow", version == VERSION),
        tag::DIST => ("dist", version == VERSION),
        tag::MAXC => ("max", version == VERSION_V2),
        tag::FLOWC => ("flow", version == VERSION_V2),
        tag::DISTC => ("dist", version == VERSION_V2),
        other => {
            return Err(StoreError::Malformed {
                context: "container",
                reason: format!("unknown section tag {other}"),
            })
        }
    };
    if !version_ok {
        return Err(StoreError::Malformed {
            context: "container",
            reason: format!("section tag {tag} is not valid in a version {version} container"),
        });
    }
    Ok(name)
}

pub(crate) fn reject_duplicate(present: bool, section: &'static str) -> Result<(), StoreError> {
    if present {
        return Err(StoreError::Malformed {
            context: "container",
            reason: format!("duplicate {section} section"),
        });
    }
    Ok(())
}

fn push_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

fn label_payload(labels: &[BitString], prefix: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(prefix.len() + labels.len() * 8);
    payload.extend_from_slice(prefix);
    for bits in labels {
        payload.extend_from_slice(&(bits.len() as u32).to_le_bytes());
        payload.extend_from_slice(bits.as_bytes());
    }
    payload
}

/// The version-2 columnar payload: `prefix`, then `n + 1` little-endian
/// `u64` bit offsets, then the packed label bits. The heavy lifting is
/// [`PackedLabels`] — this serializes an arena verbatim.
fn columnar_payload(labels: &[BitString], prefix: &[u8]) -> Vec<u8> {
    let arena = PackedLabels::from_bitstrings(labels);
    let offsets = arena.offsets();
    let bits = arena.payload_bytes();
    let mut payload = Vec::with_capacity(prefix.len() + offsets.len() * 8 + bits.len());
    payload.extend_from_slice(prefix);
    for o in offsets {
        payload.extend_from_slice(&o.to_le_bytes());
    }
    payload.extend_from_slice(bits);
    payload
}

/// A validated borrowed view of one columnar label section: the offsets
/// table and the packed payload, both still in the container's bytes.
/// This is what [`crate::MappedSnapshot`] keeps per family — label `v`
/// is served as a [`mstv_labels::BitSlice`] straight out of `payload`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnarSection<'a> {
    offsets: &'a [u8],
    payload: &'a [u8],
    n: u32,
}

impl<'a> ColumnarSection<'a> {
    /// Number of labels.
    pub(crate) fn len(&self) -> usize {
        self.n as usize
    }

    /// Bit offset `i` (`0 ..= n`), unaligned little-endian load.
    pub(crate) fn offset(&self, i: usize) -> u64 {
        u64::from_le_bytes(self.offsets[8 * i..8 * i + 8].try_into().expect("8 bytes"))
    }

    /// A borrowed window over label `v`'s bits.
    ///
    /// # Panics
    ///
    /// Panics if `v >= len()`.
    pub(crate) fn slice(&self, v: usize) -> mstv_labels::BitSlice<'a> {
        let start = self.offset(v) as usize;
        let end = self.offset(v + 1) as usize;
        mstv_labels::BitSlice::new(self.payload, start, end - start)
    }

    /// Materializes every label as an owned [`BitString`] (the owning
    /// v2 parse path).
    pub(crate) fn to_bitstrings(self) -> Vec<BitString> {
        (0..self.len())
            .map(|v| self.slice(v).to_bitstring())
            .collect()
    }
}

/// Validates a columnar payload (after any section-specific prefix) and
/// returns the borrowed view: offsets start at 0, never decrease, no
/// label exceeds [`MAX_LABEL_BITS`], the payload is exactly
/// `⌈offsets[n]/8⌉` bytes, and the final byte's padding bits are zero —
/// so every serving path downstream can slice without rechecking.
pub(crate) fn parse_columnar<'a>(
    payload: &'a [u8],
    n: u32,
    section: &'static str,
) -> Result<ColumnarSection<'a>, StoreError> {
    let mut r = ByteReader::new(payload);
    let offsets = r.take((n as usize + 1) * 8, "columnar offsets table")?;
    let bits = r.rest();
    let col = ColumnarSection {
        offsets,
        payload: bits,
        n,
    };
    let malformed = |reason: String| StoreError::Malformed {
        context: section,
        reason,
    };
    if col.offset(0) != 0 {
        return Err(malformed(format!(
            "columnar offsets start at {}, expected 0",
            col.offset(0)
        )));
    }
    for v in 0..n as usize {
        let (start, end) = (col.offset(v), col.offset(v + 1));
        if end < start {
            return Err(malformed(format!(
                "columnar offsets decrease at record {v} ({start} -> {end})"
            )));
        }
        if end - start > u64::from(MAX_LABEL_BITS) {
            return Err(malformed(format!("record {v} claims {} bits", end - start)));
        }
    }
    let total_bits = col.offset(n as usize);
    let expected_bytes = (total_bits as usize).div_ceil(8);
    if bits.len() != expected_bytes {
        return Err(malformed(format!(
            "columnar payload is {} bytes, {total_bits} bits need {expected_bytes}",
            bits.len()
        )));
    }
    if !total_bits.is_multiple_of(8) {
        let last = bits[bits.len() - 1];
        if last >> (total_bits % 8) != 0 {
            return Err(malformed(
                "columnar payload has dirty padding bits in its final byte".to_string(),
            ));
        }
    }
    Ok(col)
}

pub(crate) fn parse_tree_payload(
    payload: &[u8],
    n: u32,
) -> Result<Vec<Option<(NodeId, Weight)>>, StoreError> {
    let mut r = ByteReader::new(payload);
    let mut parents = Vec::with_capacity(n as usize);
    for v in 0..n {
        let parent = r.read_u32("tree record parent")?;
        let w = r.read_u64("tree record weight")?;
        if parent == NO_PARENT {
            parents.push(None);
        } else {
            if parent >= n {
                return Err(StoreError::Malformed {
                    context: "tree section",
                    reason: format!("node {v} points at out-of-range parent {parent}"),
                });
            }
            parents.push(Some((NodeId(parent), Weight(w))));
        }
    }
    if !r.rest().is_empty() {
        return Err(StoreError::Malformed {
            context: "tree section",
            reason: format!("{} trailing bytes after {n} records", r.rest().len()),
        });
    }
    Ok(parents)
}

pub(crate) fn parse_label_payload(
    payload: &[u8],
    n: u32,
    section: &'static str,
) -> Result<Vec<BitString>, StoreError> {
    let mut r = ByteReader::new(payload);
    let mut labels = Vec::with_capacity(n as usize);
    for v in 0..n {
        let bit_len = r.read_u32("label record length")?;
        if bit_len > MAX_LABEL_BITS {
            return Err(StoreError::Malformed {
                context: section,
                reason: format!("record {v} claims {bit_len} bits"),
            });
        }
        let bytes = r.take((bit_len as usize).div_ceil(8), "label record")?;
        labels.push(
            BitString::from_bytes(bytes, bit_len as usize)
                .ok_or(StoreError::CorruptLabel { section, node: v })?,
        );
    }
    if !r.rest().is_empty() {
        return Err(StoreError::Malformed {
            context: section,
            reason: format!("{} trailing bytes after {n} records", r.rest().len()),
        });
    }
    Ok(labels)
}

/// A bounds-checked little-endian cursor; every read that would run past
/// the end reports [`StoreError::Truncated`] with the offset it needed.
/// Shared with the delta-journal reader, which frames records the same
/// way the snapshot frames sections.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub(crate) fn take(
        &mut self,
        len: usize,
        context: &'static str,
    ) -> Result<&'a [u8], StoreError> {
        if self.buf.len() - self.pos < len {
            return Err(StoreError::Truncated {
                context,
                offset: self.pos,
            });
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Byte offset of the cursor from the start of the buffer.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    pub(crate) fn read_u8(&mut self, context: &'static str) -> Result<u8, StoreError> {
        Ok(self.take(1, context)?[0])
    }

    pub(crate) fn read_u16(&mut self, context: &'static str) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(
            self.take(2, context)?.try_into().expect("2 bytes"),
        ))
    }

    pub(crate) fn read_u32(&mut self, context: &'static str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn read_u64(&mut self, context: &'static str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
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
    fn roundtrip_identity() {
        for (n, w, seed) in [(1usize, 1u64, 1u64), (2, 5, 2), (60, 900, 3), (257, 7, 4)] {
            let t = tree_of(n, w, seed);
            for codec in [
                SepFieldCodec::EliasGamma,
                SepFieldCodec::FixedWidth { bits: 12 },
            ] {
                let snap = Snapshot::build(&t, codec);
                let bytes = snap.to_bytes();
                let back = Snapshot::from_bytes(&bytes).expect("roundtrip");
                assert_eq!(back, snap, "n={n} codec={codec:?}");
                assert_eq!(back.tree().unwrap(), t);
            }
        }
    }

    #[test]
    fn parallel_build_is_byte_identical() {
        for (n, w, seed) in [(1usize, 1u64, 20u64), (70, 400, 21), (311, 90, 22)] {
            let t = tree_of(n, w, seed);
            for codec in [
                SepFieldCodec::EliasGamma,
                SepFieldCodec::FixedWidth { bits: 12 },
            ] {
                let baseline = Snapshot::build(&t, codec).to_bytes();
                for threads in [1usize, 2, 8] {
                    let cfg =
                        ParallelConfig::with_threads(std::num::NonZeroUsize::new(threads).unwrap());
                    let par = Snapshot::build_parallel(&t, codec, cfg).to_bytes();
                    assert_eq!(
                        par, baseline,
                        "n={n} codec={codec:?} threads={threads}: snapshot bytes diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn fsck_accepts_honest_snapshots() {
        let t = tree_of(120, 500, 5);
        let snap = Snapshot::build(&t, SepFieldCodec::EliasGamma);
        let report = snap.fsck(200).expect("honest snapshot");
        assert_eq!(report.nodes, 120);
        assert!(report.has_dist);
        assert_eq!(report.pairs_checked, 200);
        assert!(report.max_label_bits > 0);
        assert!(report.total_label_bits >= report.max_label_bits);
    }

    #[test]
    fn fsck_pair_covers_every_residue_without_degenerate_pairs() {
        // A sampler that never produces an endpoint in some residue
        // class mod 4 leaves the records of every node in that class
        // uncrosschecked. 257 is prime (and 1 mod 4), the worst case
        // for the old multiplicative sweep's residue reachability.
        const MODULUS: u32 = 4;
        for n in [1u32, 2, 3, 257] {
            if n < 2 {
                assert_eq!(fsck_pair(0, n), None);
                assert_eq!(fsck_pair(17, n), None);
                continue;
            }
            let mut u_classes = vec![false; MODULUS as usize];
            let mut v_classes = vec![false; MODULUS as usize];
            let pairs = 4 * n as usize;
            for i in 0..pairs {
                let (u, v) = fsck_pair(i, n).expect("n >= 2 always yields a pair");
                assert!(u < n && v < n, "n={n} i={i}: ({u}, {v}) out of range");
                assert_ne!(u, v, "n={n} i={i}: degenerate pair");
                u_classes[(u % MODULUS) as usize] = true;
                v_classes[(v % MODULUS) as usize] = true;
            }
            // Every residue class a node of this instance can inhabit
            // must appear among the sampled endpoints.
            for c in 0..MODULUS.min(n) as usize {
                assert!(u_classes[c], "n={n}: no pair with u ≡ {c} (mod {MODULUS})");
                assert!(v_classes[c], "n={n}: no pair with v ≡ {c} (mod {MODULUS})");
            }
        }
    }

    #[test]
    fn fsck_on_single_node_snapshot_checks_zero_pairs() {
        let t = tree_of(1, 1, 9);
        let snap = Snapshot::build(&t, SepFieldCodec::EliasGamma);
        let report = snap.fsck(64).expect("single-node snapshot is honest");
        assert_eq!(report.pairs_checked, 0);
    }

    #[test]
    fn fsck_catches_labels_from_a_different_tree() {
        // Swap the max labels for another tree's: every CRC is intact,
        // only the semantic cross-check can notice.
        let t1 = tree_of(80, 300, 6);
        let t2 = tree_of(80, 300, 7);
        let mut snap = Snapshot::build(&t1, SepFieldCodec::EliasGamma);
        let foreign = Snapshot::build(&t2, SepFieldCodec::EliasGamma);
        snap.max_labels = foreign.max_labels.clone();
        let reparsed = Snapshot::from_bytes(&snap.to_bytes()).expect("structurally valid");
        assert!(matches!(
            reparsed.fsck(400),
            Err(StoreError::Malformed { context, .. }) if context == "label cross-check"
        ));
    }

    #[test]
    fn v2_roundtrips_equal_to_v1() {
        for (n, w, seed) in [
            (1usize, 1u64, 30u64),
            (2, 5, 31),
            (60, 900, 32),
            (257, 7, 33),
        ] {
            let t = tree_of(n, w, seed);
            for codec in [
                SepFieldCodec::EliasGamma,
                SepFieldCodec::FixedWidth { bits: 12 },
            ] {
                let snap = Snapshot::build(&t, codec);
                let v1 = snap.to_bytes_format(SnapshotFormat::V1);
                let v2 = snap.to_bytes_format(SnapshotFormat::V2);
                assert_eq!(v1, snap.to_bytes(), "default format must stay v1");
                assert_eq!(&v2[8..10], &2u16.to_le_bytes(), "v2 version stamp");
                let from_v1 = Snapshot::from_bytes(&v1).expect("v1 parse");
                let from_v2 = Snapshot::from_bytes(&v2).expect("v2 parse");
                assert_eq!(from_v1, snap, "n={n} codec={codec:?}");
                assert_eq!(from_v2, snap, "n={n} codec={codec:?}");
                from_v2.fsck(50).expect("v2 labels decode and cross-check");
            }
        }
    }

    #[test]
    fn v2_without_dist_roundtrips() {
        let t = tree_of(40, 100, 34);
        let mut snap = Snapshot::build(&t, SepFieldCodec::EliasGamma);
        snap.strip_dist();
        let back = Snapshot::from_bytes(&snap.to_bytes_format(SnapshotFormat::V2)).unwrap();
        assert_eq!(back, snap);
        assert!(back.dist().is_none());
    }

    #[test]
    fn columnar_tags_rejected_in_v1_and_row_tags_in_v2() {
        let t = tree_of(10, 20, 35);
        let snap = Snapshot::build(&t, SepFieldCodec::EliasGamma);
        // Splice each file's version stamp to the other version: every
        // label section now carries a tag foreign to the claimed
        // version, which must be a parse error, not a misread.
        for format in [SnapshotFormat::V1, SnapshotFormat::V2] {
            let mut bytes = snap.to_bytes_format(format);
            let other = match format {
                SnapshotFormat::V1 => VERSION_V2,
                SnapshotFormat::V2 => VERSION,
            };
            bytes[8..10].copy_from_slice(&other.to_le_bytes());
            assert!(
                matches!(
                    Snapshot::from_bytes(&bytes),
                    Err(StoreError::Malformed {
                        context: "container",
                        ..
                    })
                ),
                "{format:?} sections must be invalid under version {other}"
            );
        }
    }

    #[test]
    fn v2_corrupt_columnar_payloads_are_rejected() {
        let t = tree_of(30, 60, 36);
        let snap = Snapshot::build(&t, SepFieldCodec::EliasGamma);
        let good = snap.to_bytes_format(SnapshotFormat::V2);
        // Bit flips anywhere in the file trip a CRC; these aimed
        // corruptions instead rewrite a section payload *and* its CRC,
        // exercising the structural validation behind the checksum.
        let n = snap.num_nodes() as usize;
        let rewrite_first_columnar = |f: &mut dyn FnMut(&mut Vec<u8>)| {
            let mut bytes = good.clone();
            // Walk to the MAXC section: prelude, then tree section.
            let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
            let mut pos = 20 + header_len;
            assert_eq!(bytes[pos], tag::TREE);
            let tree_len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
            pos += 13 + tree_len;
            assert_eq!(bytes[pos], tag::MAXC);
            let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
            let payload_at = pos + 13;
            let mut payload = bytes[payload_at..payload_at + len].to_vec();
            f(&mut payload);
            let mut out = bytes[..pos].to_vec();
            out.push(tag::MAXC);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crate::crc::crc32(&payload).to_le_bytes());
            out.extend_from_slice(&payload);
            out.extend_from_slice(&bytes[payload_at + len..]);
            bytes = out;
            bytes
        };
        // offsets[0] != 0
        let b = rewrite_first_columnar(&mut |p: &mut Vec<u8>| p[0] = 1);
        assert!(matches!(
            Snapshot::from_bytes(&b),
            Err(StoreError::Malformed { context: "max", .. })
        ));
        // decreasing offsets
        let b = rewrite_first_columnar(&mut |p: &mut Vec<u8>| {
            p[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        });
        assert!(matches!(
            Snapshot::from_bytes(&b),
            Err(StoreError::Malformed { context: "max", .. })
        ));
        // truncated payload
        let b = rewrite_first_columnar(&mut |p: &mut Vec<u8>| {
            p.pop();
        });
        assert!(matches!(
            Snapshot::from_bytes(&b),
            Err(StoreError::Malformed { context: "max", .. })
        ));
        // dirty padding in the final byte (only when padding exists)
        let total_bits = u64::from_le_bytes(good_offsets_last(&good, n));
        if !total_bits.is_multiple_of(8) {
            let b = rewrite_first_columnar(&mut |p: &mut Vec<u8>| {
                *p.last_mut().unwrap() |= 0x80;
            });
            assert!(matches!(
                Snapshot::from_bytes(&b),
                Err(StoreError::Malformed { context: "max", .. })
            ));
        }
    }

    /// Little helper for the corruption test: the last offset entry of
    /// the first columnar section of a v2 file.
    fn good_offsets_last(bytes: &[u8], n: usize) -> [u8; 8] {
        let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let mut pos = 20 + header_len;
        let tree_len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
        pos += 13 + tree_len;
        let payload_at = pos + 13;
        bytes[payload_at + 8 * n..payload_at + 8 * (n + 1)]
            .try_into()
            .unwrap()
    }

    #[test]
    fn empty_input_is_truncated_not_panic() {
        assert!(matches!(
            Snapshot::from_bytes(&[]),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn single_node_tree_roundtrips() {
        let t = RootedTree::from_parents(NodeId(0), vec![None]).unwrap();
        let snap = Snapshot::build(&t, SepFieldCodec::EliasGamma);
        let back = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(back.num_nodes(), 1);
        back.fsck(10).unwrap();
    }
}
