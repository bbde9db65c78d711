//! The MSTVJRNL delta journal: a mutation stream as an append-only file.
//!
//! A journal turns "the graph changed" into an *append* instead of a
//! 100k-label rewrite: it names a base snapshot (by node count, root,
//! and CRC32 of the base file bytes) and carries one [`DeltaRecord`]
//! per mutation — the mutation itself plus exactly the tree rows and
//! encoded label records the incremental marker (`mstv-dyn`) rewrote.
//! Replaying the records over the base ([`Journal::compact`]) folds the
//! journal back into a full snapshot that is byte-identical to
//! `Snapshot::build` on the mutated tree, because the incremental
//! marker asserts that identity per mutation before the record is ever
//! emitted.
//!
//! The container mirrors the MSTVSNAP framing (same [`ByteReader`],
//! same paranoia): all integers little-endian, every record payload
//! CRC32-guarded, truncation mid-record rejected with a typed
//! [`StoreError::Truncated`], never a partial apply.
//!
//! ```text
//! offset size  field
//! 0      8     magic  "MSTVJRNL"
//! 8      2     version (= 1)
//! 10     2     reserved (= 0)
//! 12     4     header length H
//! 16     4     header CRC32
//! 20     H     header: base_nodes u32 · base_root u32 · base_crc u32
//! then, per record, to end of file:
//!        8     seq u64 (contiguous, starting at 1)
//!        8     payload length
//!        4     payload CRC32
//!        ...   payload
//! ```
//!
//! A record payload is: mutation tag `u8` (1 = set-weight `u u32 · v u32
//! · w u64`, 2 = swap-weights `u1 u32 · v1 u32 · u2 u32 · v2 u32`),
//! outcome `u8`, the post-mutation scheme widths (`max tree-edge weight
//! u64`, `omega_bits u32`, `delta_bits u32`), a tree-delta list
//! (`count u32`, then `node u32 · parent u32 · weight u64` rows,
//! `0xFFFF_FFFF` parent at the root), and three label-delta lists
//! (max, flow, dist; `count u32`, then `node u32 · bit_len u32 ·
//! ⌈bit_len/8⌉ bytes` records).

use std::path::Path;

use mstv_graph::{NodeId, Weight};
use mstv_labels::BitString;

use crate::crc::crc32;
use crate::format::{ByteReader, FsckReport, Snapshot, MAX_LABEL_BITS, NO_PARENT};
use crate::StoreError;

/// The 8-byte journal file magic.
pub const JOURNAL_MAGIC: [u8; 8] = *b"MSTVJRNL";

/// The journal container version this code writes and reads.
pub const JOURNAL_VERSION: u16 = 1;

mod mutation_tag {
    pub const SET_WEIGHT: u8 = 1;
    pub const SWAP_WEIGHTS: u8 = 2;
}

/// The graph mutation a record journals, in endpoint form (edge ids are
/// a property of one `Graph` instance; endpoints survive serialization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalMutation {
    /// The edge between `u` and `v` took weight `w`.
    SetWeight {
        /// First endpoint.
        u: u32,
        /// Second endpoint.
        v: u32,
        /// The new weight.
        w: u64,
    },
    /// The edges `(u1, v1)` and `(u2, v2)` swapped weights atomically —
    /// the journal form of a `FlipTreeEdge`-style link flap.
    SwapWeights {
        /// First edge, first endpoint.
        u1: u32,
        /// First edge, second endpoint.
        v1: u32,
        /// Second edge, first endpoint.
        u2: u32,
        /// Second edge, second endpoint.
        v2: u32,
    },
}

/// What the incremental marker had to do for a mutation — informational
/// (the deltas alone determine the applied state), but kept in the
/// record so `mstv mutate` and the benches can report no-op rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// The mutation crossed no sensitivity threshold and changed no
    /// scheme width: zero labels rewritten.
    NoOp = 0,
    /// The tree's edge set survived; only `ω`/`φ`/`δ` fields of the
    /// nodes on the changed edge's paths were rewritten.
    WeightsOnly = 1,
    /// The mutation swapped a tree edge; labels of the touched centroid
    /// subtrees were rewritten.
    TreeSwap = 2,
    /// A scheme-wide field width changed, forcing a re-encode of every
    /// label record (assembly is still incremental).
    Reencode = 3,
}

impl DeltaOutcome {
    fn from_tag(tag: u8) -> Result<DeltaOutcome, StoreError> {
        match tag {
            0 => Ok(DeltaOutcome::NoOp),
            1 => Ok(DeltaOutcome::WeightsOnly),
            2 => Ok(DeltaOutcome::TreeSwap),
            3 => Ok(DeltaOutcome::Reencode),
            other => Err(StoreError::Malformed {
                context: "journal record",
                reason: format!("unknown outcome tag {other}"),
            }),
        }
    }
}

/// One rewritten row of the tree section: `node`'s new parent pointer
/// (`None` when `node` became the root) and parent-edge weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeDelta {
    /// The node whose parent entry changed.
    pub node: u32,
    /// The new `(parent, weight)` entry, `None` for the root.
    pub parent: Option<(u32, u64)>,
}

/// One rewritten label record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelDelta {
    /// The node whose label was rewritten.
    pub node: u32,
    /// The new encoded label.
    pub bits: BitString,
}

/// Everything one mutation did to the snapshot: the mutation, the
/// marker's outcome, the post-mutation scheme widths, and the rewritten
/// rows of every section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRecord {
    /// Position in the journal, contiguous from 1.
    pub seq: u64,
    /// The graph mutation this record journals.
    pub mutation: JournalMutation,
    /// What the incremental marker did.
    pub outcome: DeltaOutcome,
    /// The largest tree-edge weight after the mutation (the snapshot
    /// header's `max_weight`).
    pub new_max_weight: Weight,
    /// `ω` field width after the mutation.
    pub new_omega_bits: u32,
    /// `δ` field width after the mutation.
    pub new_delta_bits: u32,
    /// Rewritten tree rows.
    pub tree: Vec<TreeDelta>,
    /// Rewritten `MAX` label records.
    pub max: Vec<LabelDelta>,
    /// Rewritten `FLOW` label records.
    pub flow: Vec<LabelDelta>,
    /// Rewritten `DIST` label records.
    pub dist: Vec<LabelDelta>,
}

impl DeltaRecord {
    /// The union of node ids this record touches in any section, sorted
    /// and deduplicated — the nodes whose rows applying the record
    /// rewrites.
    pub fn dirty_nodes(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self
            .tree
            .iter()
            .map(|d| d.node)
            .chain(
                [&self.max, &self.flow, &self.dist]
                    .into_iter()
                    .flatten()
                    .map(|d| d.node),
            )
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Serializes the record with its framing (`seq`, length, CRC32) —
    /// the exact bytes [`Journal::to_bytes`] appends per record, and the
    /// payload of a serve-tier apply-delta admin request. Framing and
    /// payload go into one buffer of exact size, and each label row is
    /// copied once, from its own bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let sections = [&self.max, &self.flow, &self.dist];
        let rows: usize = sections
            .iter()
            .flat_map(|section| section.iter())
            .map(|d| 8 + d.bits.as_bytes().len())
            .sum();
        // Mutation (tag and 16 bytes of endpoints or weight), outcome,
        // widths, the tree list, then the three label lists.
        let payload_len = 17 + 1 + 16 + 4 + 16 * self.tree.len() + 4 * sections.len() + rows;
        let mut p = Vec::with_capacity(20 + payload_len);
        p.extend_from_slice(&self.seq.to_le_bytes());
        p.extend_from_slice(&(payload_len as u64).to_le_bytes());
        // The payload's CRC32, written once the payload is.
        p.extend_from_slice(&[0; 4]);
        match self.mutation {
            JournalMutation::SetWeight { u, v, w } => {
                p.push(mutation_tag::SET_WEIGHT);
                p.extend_from_slice(&u.to_le_bytes());
                p.extend_from_slice(&v.to_le_bytes());
                p.extend_from_slice(&w.to_le_bytes());
            }
            JournalMutation::SwapWeights { u1, v1, u2, v2 } => {
                p.push(mutation_tag::SWAP_WEIGHTS);
                p.extend_from_slice(&u1.to_le_bytes());
                p.extend_from_slice(&v1.to_le_bytes());
                p.extend_from_slice(&u2.to_le_bytes());
                p.extend_from_slice(&v2.to_le_bytes());
            }
        }
        p.push(self.outcome as u8);
        p.extend_from_slice(&self.new_max_weight.0.to_le_bytes());
        p.extend_from_slice(&self.new_omega_bits.to_le_bytes());
        p.extend_from_slice(&self.new_delta_bits.to_le_bytes());
        p.extend_from_slice(&(self.tree.len() as u32).to_le_bytes());
        for d in &self.tree {
            let (parent, w) = match d.parent {
                Some((parent, w)) => (parent, w),
                None => (NO_PARENT, 0),
            };
            p.extend_from_slice(&d.node.to_le_bytes());
            p.extend_from_slice(&parent.to_le_bytes());
            p.extend_from_slice(&w.to_le_bytes());
        }
        for section in sections {
            p.extend_from_slice(&(section.len() as u32).to_le_bytes());
            for d in section {
                p.extend_from_slice(&d.node.to_le_bytes());
                p.extend_from_slice(&(d.bits.len() as u32).to_le_bytes());
                p.extend_from_slice(d.bits.as_bytes());
            }
        }
        debug_assert_eq!(p.len(), 20 + payload_len, "record size");
        let crc = crc32(&p[20..]);
        p[16..20].copy_from_slice(&crc.to_le_bytes());
        p
    }

    /// Parses one standalone framed record (no trailing bytes allowed),
    /// validating the CRC and every node id against `n`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`], [`StoreError::CrcMismatch`], or
    /// [`StoreError::Malformed`] naming the defect.
    pub fn from_bytes(bytes: &[u8], n: u32) -> Result<DeltaRecord, StoreError> {
        let mut r = ByteReader::new(bytes);
        let record = Self::read_from(&mut r, n)?;
        if !r.rest().is_empty() {
            return Err(StoreError::Malformed {
                context: "journal record",
                reason: format!("{} trailing bytes after record", r.rest().len()),
            });
        }
        Ok(record)
    }

    /// Reads one framed record from an open cursor; shared by the
    /// journal walker and the standalone parser.
    fn read_from(r: &mut ByteReader<'_>, n: u32) -> Result<DeltaRecord, StoreError> {
        let seq = r.read_u64("record seq")?;
        let len = r.read_u64("record length")? as usize;
        let stored = r.read_u32("record checksum")?;
        let payload = r.take(len, "record payload")?;
        let computed = crc32(payload);
        if computed != stored {
            return Err(StoreError::CrcMismatch {
                section: "journal record",
                stored,
                computed,
            });
        }
        let mut p = ByteReader::new(payload);
        let check_node = |node: u32| -> Result<u32, StoreError> {
            if node >= n {
                return Err(StoreError::Malformed {
                    context: "journal record",
                    reason: format!("node {node} out of range for {n} nodes"),
                });
            }
            Ok(node)
        };
        let mutation = match p.read_u8("mutation tag")? {
            mutation_tag::SET_WEIGHT => JournalMutation::SetWeight {
                u: check_node(p.read_u32("mutation endpoint")?)?,
                v: check_node(p.read_u32("mutation endpoint")?)?,
                w: p.read_u64("mutation weight")?,
            },
            mutation_tag::SWAP_WEIGHTS => JournalMutation::SwapWeights {
                u1: check_node(p.read_u32("mutation endpoint")?)?,
                v1: check_node(p.read_u32("mutation endpoint")?)?,
                u2: check_node(p.read_u32("mutation endpoint")?)?,
                v2: check_node(p.read_u32("mutation endpoint")?)?,
            },
            other => {
                return Err(StoreError::Malformed {
                    context: "journal record",
                    reason: format!("unknown mutation tag {other}"),
                })
            }
        };
        let outcome = DeltaOutcome::from_tag(p.read_u8("outcome tag")?)?;
        let new_max_weight = Weight(p.read_u64("max weight")?);
        let new_omega_bits = p.read_u32("omega field width")?;
        let new_delta_bits = p.read_u32("delta field width")?;
        if new_omega_bits == 0 || new_omega_bits > 64 || new_delta_bits == 0 || new_delta_bits > 64
        {
            return Err(StoreError::Malformed {
                context: "journal record",
                reason: format!("implausible field widths ω={new_omega_bits} δ={new_delta_bits}"),
            });
        }
        let tree_count = p.read_u32("tree delta count")?;
        if u64::from(tree_count) > u64::from(n) {
            return Err(StoreError::Malformed {
                context: "journal record",
                reason: format!("{tree_count} tree deltas for {n} nodes"),
            });
        }
        let mut tree = Vec::with_capacity(tree_count as usize);
        for _ in 0..tree_count {
            let node = check_node(p.read_u32("tree delta node")?)?;
            let parent = p.read_u32("tree delta parent")?;
            let w = p.read_u64("tree delta weight")?;
            let parent = if parent == NO_PARENT {
                None
            } else {
                Some((check_node(parent)?, w))
            };
            tree.push(TreeDelta { node, parent });
        }
        let mut sections = [Vec::new(), Vec::new(), Vec::new()];
        for section in &mut sections {
            let count = p.read_u32("label delta count")?;
            if u64::from(count) > u64::from(n) {
                return Err(StoreError::Malformed {
                    context: "journal record",
                    reason: format!("{count} label deltas for {n} nodes"),
                });
            }
            section.reserve(count as usize);
            for _ in 0..count {
                let node = check_node(p.read_u32("label delta node")?)?;
                let bit_len = p.read_u32("label delta length")?;
                if bit_len > MAX_LABEL_BITS {
                    return Err(StoreError::Malformed {
                        context: "journal record",
                        reason: format!("label delta claims {bit_len} bits"),
                    });
                }
                let bytes = p.take((bit_len as usize).div_ceil(8), "label delta bits")?;
                let bits = BitString::from_bytes(bytes, bit_len as usize).ok_or(
                    StoreError::CorruptLabel {
                        section: "journal record",
                        node,
                    },
                )?;
                section.push(LabelDelta { node, bits });
            }
        }
        if !p.rest().is_empty() {
            return Err(StoreError::Malformed {
                context: "journal record",
                reason: format!("{} trailing bytes in record payload", p.rest().len()),
            });
        }
        let [max, flow, dist] = sections;
        Ok(DeltaRecord {
            seq,
            mutation,
            outcome,
            new_max_weight,
            new_omega_bits,
            new_delta_bits,
            tree,
            max,
            flow,
            dist,
        })
    }

    /// Applies the record to a snapshot in place: scheme widths, tree
    /// rows, then label rows. Validation only concerns *shape* (node
    /// range, section presence) — the record's content is vouched for
    /// by its CRC plus the incremental marker's per-mutation rebuild
    /// assertion, and [`Snapshot::fsck`] can re-check the result.
    ///
    /// # Errors
    ///
    /// [`StoreError::Malformed`] when a node id is out of range for
    /// this snapshot or the record carries dist deltas for a snapshot
    /// without a dist section. The snapshot is unmodified on error.
    pub fn apply_to(&self, snap: &mut Snapshot) -> Result<(), StoreError> {
        let n = snap.num_nodes();
        let in_range = |node: u32| -> Result<usize, StoreError> {
            if node >= n {
                return Err(StoreError::Malformed {
                    context: "journal record",
                    reason: format!("node {node} out of range for {n} nodes"),
                });
            }
            Ok(node as usize)
        };
        // Validate everything before the first write: apply is atomic.
        for d in &self.tree {
            in_range(d.node)?;
            if let Some((p, _)) = d.parent {
                in_range(p)?;
            }
        }
        for section in [&self.max, &self.flow, &self.dist] {
            for d in section {
                in_range(d.node)?;
            }
        }
        if !self.dist.is_empty() && snap.dist().is_none() {
            return Err(StoreError::Malformed {
                context: "journal record",
                reason: "dist deltas for a snapshot without a dist section".into(),
            });
        }
        snap.set_scheme_widths(
            self.new_max_weight,
            self.new_omega_bits,
            self.new_delta_bits,
        );
        for d in &self.tree {
            let entry = d.parent.map(|(p, w)| (NodeId(p), Weight(w)));
            snap.set_parent_entry(d.node as usize, entry);
        }
        for d in &self.max {
            snap.set_max_label(d.node as usize, &d.bits);
        }
        for d in &self.flow {
            snap.set_flow_label(d.node as usize, &d.bits);
        }
        for d in &self.dist {
            snap.set_dist_label(d.node as usize, &d.bits);
        }
        Ok(())
    }
}

/// An in-memory delta journal: the base-snapshot reference plus the
/// record sequence, exactly what [`Journal::to_bytes`] persists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journal {
    base_nodes: u32,
    base_root: u32,
    base_crc: u32,
    records: Vec<DeltaRecord>,
}

impl Journal {
    /// An empty journal anchored to `base` (node count, root, and the
    /// CRC32 of the base's serialized bytes).
    pub fn new(base: &Snapshot) -> Journal {
        Journal {
            base_nodes: base.num_nodes(),
            base_root: base.root().0,
            base_crc: crc32(&base.to_bytes()),
            records: Vec::new(),
        }
    }

    /// Nodes in the base snapshot.
    pub fn base_nodes(&self) -> u32 {
        self.base_nodes
    }

    /// Root of the base snapshot.
    pub fn base_root(&self) -> u32 {
        self.base_root
    }

    /// CRC32 of the base snapshot's file bytes.
    pub fn base_crc(&self) -> u32 {
        self.base_crc
    }

    /// The journaled records, in sequence order.
    pub fn records(&self) -> &[DeltaRecord] {
        &self.records
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics if `record.seq` is not the next sequence number — the
    /// appender (not the file reader) owns contiguity, so a gap here is
    /// a caller bug, not data corruption.
    pub fn append(&mut self, record: DeltaRecord) {
        assert_eq!(
            record.seq,
            self.records.len() as u64 + 1,
            "journal records must be appended in sequence"
        );
        self.records.push(record);
    }

    /// Checks that `base` is the snapshot this journal was cut against.
    ///
    /// # Errors
    ///
    /// [`StoreError::Malformed`] naming the mismatched anchor field.
    pub fn verify_base(&self, base: &Snapshot) -> Result<(), StoreError> {
        let mismatch = |what: &str, got: String, want: String| StoreError::Malformed {
            context: "journal base reference",
            reason: format!("base {what} is {got}, journal expects {want}"),
        };
        if base.num_nodes() != self.base_nodes {
            return Err(mismatch(
                "node count",
                base.num_nodes().to_string(),
                self.base_nodes.to_string(),
            ));
        }
        if base.root().0 != self.base_root {
            return Err(mismatch(
                "root",
                base.root().0.to_string(),
                self.base_root.to_string(),
            ));
        }
        let crc = crc32(&base.to_bytes());
        if crc != self.base_crc {
            return Err(mismatch(
                "crc",
                format!("{crc:#010x}"),
                format!("{:#010x}", self.base_crc),
            ));
        }
        Ok(())
    }

    /// Folds the journal into a full snapshot: verifies the base
    /// anchor, then applies every record in sequence. The result is
    /// byte-identical to `Snapshot::build` on the mutated tree (the
    /// incremental marker asserts that identity before emitting each
    /// record).
    ///
    /// # Errors
    ///
    /// Whatever [`Journal::verify_base`] or [`DeltaRecord::apply_to`]
    /// report.
    pub fn compact(&self, base: &Snapshot) -> Result<Snapshot, StoreError> {
        self.verify_base(base)?;
        let mut snap = base.clone();
        for record in &self.records {
            record.apply_to(&mut snap)?;
        }
        Ok(snap)
    }

    /// Walks the journal the way `fsck` walks a snapshot: verifies the
    /// base anchor, applies every record (each CRC already enforced at
    /// parse time), and deep-checks the compacted result with
    /// [`Snapshot::fsck`]. Returns the records walked and the final
    /// snapshot's report.
    ///
    /// # Errors
    ///
    /// Whatever [`Journal::compact`] or [`Snapshot::fsck`] report.
    pub fn fsck(&self, base: &Snapshot, pairs: usize) -> Result<(usize, FsckReport), StoreError> {
        let compacted = self.compact(base)?;
        let report = compacted.fsck(pairs)?;
        Ok((self.records.len(), report))
    }

    /// Serializes the journal into the container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + 64 * self.records.len());
        out.extend_from_slice(&JOURNAL_MAGIC);
        out.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        let mut header = Vec::with_capacity(12);
        header.extend_from_slice(&self.base_nodes.to_le_bytes());
        header.extend_from_slice(&self.base_root.to_le_bytes());
        header.extend_from_slice(&self.base_crc.to_le_bytes());
        out.extend_from_slice(&(header.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&header).to_le_bytes());
        out.extend_from_slice(&header);
        for record in &self.records {
            out.extend_from_slice(&record.to_bytes());
        }
        out
    }

    /// Parses a journal, validating magic, version, the header CRC,
    /// every record CRC, and sequence contiguity. A file truncated
    /// mid-record is rejected ([`StoreError::Truncated`]) — an
    /// interrupted append never yields a silently shorter journal.
    ///
    /// # Errors
    ///
    /// The precise [`StoreError`] naming what was wrong.
    pub fn from_bytes(bytes: &[u8]) -> Result<Journal, StoreError> {
        let mut r = ByteReader::new(bytes);
        if r.take(8, "journal magic")? != JOURNAL_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = r.read_u16("journal version")?;
        if version != JOURNAL_VERSION {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        let reserved = r.read_u16("journal reserved")?;
        if reserved != 0 {
            return Err(StoreError::Malformed {
                context: "journal container",
                reason: format!("reserved field is {reserved:#06x}, expected 0"),
            });
        }
        let header_len = r.read_u32("journal header length")? as usize;
        let header_crc = r.read_u32("journal header checksum")?;
        let header_bytes = r.take(header_len, "journal header")?;
        let computed = crc32(header_bytes);
        if computed != header_crc {
            return Err(StoreError::CrcMismatch {
                section: "journal header",
                stored: header_crc,
                computed,
            });
        }
        let mut h = ByteReader::new(header_bytes);
        let base_nodes = h.read_u32("base node count")?;
        let base_root = h.read_u32("base root")?;
        let base_crc = h.read_u32("base checksum")?;
        if !h.rest().is_empty() {
            return Err(StoreError::Malformed {
                context: "journal header",
                reason: format!("{} trailing header bytes", h.rest().len()),
            });
        }
        if base_root >= base_nodes.max(1) {
            return Err(StoreError::Malformed {
                context: "journal header",
                reason: format!("base root {base_root} out of range for {base_nodes} nodes"),
            });
        }
        let mut records = Vec::new();
        while !r.is_empty() {
            let record = DeltaRecord::read_from(&mut r, base_nodes)?;
            let expected = records.len() as u64 + 1;
            if record.seq != expected {
                return Err(StoreError::Malformed {
                    context: "journal record",
                    reason: format!(
                        "sequence gap: found seq {}, expected {expected}",
                        record.seq
                    ),
                });
            }
            records.push(record);
        }
        Ok(Journal {
            base_nodes,
            base_root,
            base_crc,
            records,
        })
    }

    /// Writes the journal to a file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        std::fs::write(path, self.to_bytes()).map_err(StoreError::from)
    }

    /// Reads and parses a journal file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, otherwise whatever
    /// [`Journal::from_bytes`] reports.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Journal, StoreError> {
        Journal::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mstv_labels::SepFieldCodec;
    use mstv_trees::RootedTree;

    fn small_base() -> Snapshot {
        let parents = vec![
            None,
            Some((NodeId(0), Weight(5))),
            Some((NodeId(0), Weight(3))),
            Some((NodeId(1), Weight(9))),
        ];
        let tree = RootedTree::from_parents(NodeId(0), parents).unwrap();
        Snapshot::build(&tree, SepFieldCodec::EliasGamma)
    }

    fn bits_of(pattern: &[bool]) -> BitString {
        let mut b = BitString::new();
        for &x in pattern {
            b.push(x);
        }
        b
    }

    fn sample_record(seq: u64) -> DeltaRecord {
        DeltaRecord {
            seq,
            mutation: JournalMutation::SetWeight { u: 1, v: 3, w: 2 },
            outcome: DeltaOutcome::WeightsOnly,
            new_max_weight: Weight(9),
            new_omega_bits: 4,
            new_delta_bits: 5,
            tree: vec![TreeDelta {
                node: 3,
                parent: Some((1, 2)),
            }],
            max: vec![LabelDelta {
                node: 1,
                bits: bits_of(&[true, false, true]),
            }],
            flow: vec![LabelDelta {
                node: 3,
                bits: bits_of(&[false; 9]),
            }],
            dist: vec![],
        }
    }

    #[test]
    fn journal_roundtrips() {
        let base = small_base();
        let mut j = Journal::new(&base);
        j.append(sample_record(1));
        let mut second = sample_record(2);
        second.mutation = JournalMutation::SwapWeights {
            u1: 0,
            v1: 1,
            u2: 0,
            v2: 2,
        };
        second.outcome = DeltaOutcome::TreeSwap;
        j.append(second);
        let back = Journal::from_bytes(&j.to_bytes()).expect("roundtrip");
        assert_eq!(back, j);
        back.verify_base(&base).expect("anchored to its base");
    }

    #[test]
    fn record_roundtrips_standalone() {
        let rec = sample_record(7);
        let back = DeltaRecord::from_bytes(&rec.to_bytes(), 4).expect("roundtrip");
        assert_eq!(back, rec);
        assert_eq!(back.dirty_nodes(), vec![1, 3]);
    }

    #[test]
    fn mid_record_truncation_is_rejected() {
        let base = small_base();
        let mut j = Journal::new(&base);
        j.append(sample_record(1));
        let bytes = j.to_bytes();
        // Every strict prefix that cuts into the record must fail with
        // a typed error, never parse short.
        let header_end = 20 + 12;
        for cut in header_end + 1..bytes.len() {
            let err = Journal::from_bytes(&bytes[..cut]).expect_err("truncated");
            assert!(
                matches!(err, StoreError::Truncated { .. }),
                "cut at {cut}: got {err}"
            );
        }
    }

    #[test]
    fn bit_flips_are_caught() {
        let base = small_base();
        let mut j = Journal::new(&base);
        j.append(sample_record(1));
        let bytes = j.to_bytes();
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x01;
            assert!(
                Journal::from_bytes(&bad).is_err(),
                "flip at byte {byte} went unnoticed"
            );
        }
    }

    #[test]
    fn sequence_gaps_are_rejected() {
        let base = small_base();
        let mut j = Journal::new(&base);
        j.append(sample_record(1));
        let mut bytes = j.to_bytes();
        // Rewrite the record's seq from 1 to 2 (first 8 bytes after the
        // 32-byte preamble), leaving its CRC intact (seq is outside the
        // payload, covered by contiguity instead).
        bytes[32] = 2;
        assert!(matches!(
            Journal::from_bytes(&bytes),
            Err(StoreError::Malformed {
                context: "journal record",
                ..
            })
        ));
    }

    #[test]
    #[should_panic(expected = "in sequence")]
    fn append_rejects_gaps() {
        let base = small_base();
        let mut j = Journal::new(&base);
        j.append(sample_record(2));
    }

    #[test]
    fn verify_base_catches_foreign_base() {
        let base = small_base();
        let mut j = Journal::new(&base);
        j.append(sample_record(1));
        let parents = vec![None, Some((NodeId(0), Weight(1)))];
        let other = Snapshot::build(
            &RootedTree::from_parents(NodeId(0), parents).unwrap(),
            SepFieldCodec::EliasGamma,
        );
        assert!(matches!(
            j.verify_base(&other),
            Err(StoreError::Malformed {
                context: "journal base reference",
                ..
            })
        ));
        // Same shape, different bytes: caught by the CRC anchor.
        let mut near = base.clone();
        near.set_max_label(0, &bits_of(&[true]));
        assert!(matches!(
            j.verify_base(&near),
            Err(StoreError::Malformed {
                context: "journal base reference",
                ..
            })
        ));
    }

    #[test]
    fn apply_rewrites_exactly_the_dirty_rows() {
        let base = small_base();
        let rec = sample_record(1);
        let mut snap = base.clone();
        rec.apply_to(&mut snap).expect("in range");
        assert_eq!(snap.max_weight(), Weight(9));
        assert_eq!(snap.codec().omega_bits, 4);
        assert_eq!(snap.dist().unwrap().delta_bits, 5);
        assert_eq!(snap.max_labels()[1], bits_of(&[true, false, true]));
        assert_eq!(snap.flow_labels()[3], bits_of(&[false; 9]));
        // Untouched rows are bit-identical to the base.
        assert_eq!(snap.max_labels()[0], base.max_labels()[0]);
        assert_eq!(snap.flow_labels()[2], base.flow_labels()[2]);
        assert_eq!(snap.dist().unwrap().labels, base.dist().unwrap().labels);
    }

    #[test]
    fn apply_rejects_out_of_range_and_missing_dist() {
        let base = small_base();
        let mut rec = sample_record(1);
        rec.max[0].node = 99;
        let mut snap = base.clone();
        assert!(rec.apply_to(&mut snap).is_err());
        assert_eq!(snap, base, "failed apply must not modify the snapshot");

        let mut rec = sample_record(1);
        rec.dist.push(LabelDelta {
            node: 0,
            bits: bits_of(&[true]),
        });
        let mut stripped = base.clone();
        stripped.strip_dist();
        assert!(rec.apply_to(&mut stripped).is_err());
    }

    #[test]
    fn journal_magic_is_distinct_from_snapshot_magic() {
        assert_ne!(JOURNAL_MAGIC, crate::MAGIC);
        // A snapshot handed to the journal parser (and vice versa) is a
        // BadMagic, not a crash or a misparse.
        let base = small_base();
        assert!(matches!(
            Journal::from_bytes(&base.to_bytes()),
            Err(StoreError::BadMagic)
        ));
        let j = Journal::new(&base);
        assert!(matches!(
            Snapshot::from_bytes(&j.to_bytes()),
            Err(StoreError::BadMagic)
        ));
    }
}
