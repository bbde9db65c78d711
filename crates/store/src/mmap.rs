//! Zero-copy snapshot serving from a memory map.
//!
//! [`Snapshot::from_bytes`] materializes every label as an owned
//! [`mstv_labels::BitString`] — `n` heap blocks per family before the
//! first query runs. A [`MappedSnapshot`] instead keeps the file bytes
//! mapped read-only and serves each label as a borrowed
//! [`BitSlice`] pointing straight into the map; nothing is decoded or
//! copied until a query actually touches a node, and the query engine's
//! pair decoders then read the two windows in place, never an owned
//! copy of the encoded bits.
//!
//! This is only possible for version-2 (columnar) files, whose label
//! sections are one contiguous bit payload plus an offsets table (see
//! the [`crate::format`] module docs). Version-1 files are still
//! accepted — their length-prefixed records cannot be sliced in place,
//! so they are repacked once at open into a [`PackedLabels`] arena (one
//! allocation per family, not `n`).
//!
//! Integrity is checked *once*, at [`MappedSnapshot::open`]: magic,
//! version, header CRC, every section CRC, tree structure, and the
//! columnar offset tables. After that the serving path trusts the
//! bytes. The trade-off versus owned snapshots: the map is read-only,
//! so the delta journal cannot be applied to it —
//! [`StoreError::ReadOnlySnapshot`] — and the file must not be
//! truncated or rewritten in place while mapped (replace snapshots
//! atomically via rename, as `mstv-serve` already does).

use std::fmt;
use std::ops::Deref;
use std::path::Path;

use mstv_graph::{NodeId, Weight};
use mstv_labels::{BitSlice, BitString, LabelCodec, PackedLabels};
use mstv_trees::RootedTree;

use crate::format::{read_sections, Family, Sections, SnapHeader};
use crate::{DistSection, Snapshot, StoreError};

/// The bytes backing a mapped snapshot: a real `mmap` on Unix, a heap
/// read everywhere else (and for empty files, where `mmap` is not
/// defined). Either way, `Deref<Target = [u8]>`.
enum MapBuf {
    #[cfg(unix)]
    Mmap {
        ptr: *const u8,
        len: usize,
    },
    Heap(Vec<u8>),
}

// The mapping is private (MAP_PRIVATE) and read-only for the lifetime
// of the value; sharing &[u8] views across threads is as safe as for a
// Vec<u8>.
unsafe impl Send for MapBuf {}
unsafe impl Sync for MapBuf {}

#[cfg(unix)]
mod sys {
    use core::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

impl MapBuf {
    #[cfg(unix)]
    fn open(path: &Path) -> std::io::Result<MapBuf> {
        use std::os::unix::io::AsRawFd;
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            return Ok(MapBuf::Heap(Vec::new()));
        }
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::map_failed() {
            return Err(std::io::Error::last_os_error());
        }
        // The fd can close now; the mapping outlives it.
        Ok(MapBuf::Mmap {
            ptr: ptr as *const u8,
            len,
        })
    }

    #[cfg(not(unix))]
    fn open(path: &Path) -> std::io::Result<MapBuf> {
        Ok(MapBuf::Heap(std::fs::read(path)?))
    }
}

impl Deref for MapBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            MapBuf::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            MapBuf::Heap(v) => v,
        }
    }
}

impl Drop for MapBuf {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let MapBuf::Mmap { ptr, len } = self {
            unsafe {
                sys::munmap(*ptr as *mut core::ffi::c_void, *len);
            }
        }
    }
}

impl fmt::Debug for MapBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            #[cfg(unix)]
            MapBuf::Mmap { len, .. } => write!(f, "MapBuf::Mmap({len} bytes)"),
            MapBuf::Heap(v) => write!(f, "MapBuf::Heap({} bytes)", v.len()),
        }
    }
}

/// Where one family's labels live.
#[derive(Debug)]
enum LabelColumn {
    /// A validated v2 columnar section, still in the file bytes:
    /// absolute byte offsets of the offsets table and the bit payload.
    InFile {
        offsets_at: usize,
        payload_at: usize,
        payload_len: usize,
    },
    /// A v1 section repacked into one contiguous arena at open.
    Repacked(PackedLabels),
}

/// A read-only snapshot served from a memory-mapped file. See the
/// module docs for what this buys and what it forbids.
#[derive(Debug)]
pub struct MappedSnapshot {
    buf: MapBuf,
    version: u16,
    root: NodeId,
    max_weight: Weight,
    codec: LabelCodec,
    n: u32,
    parents: Vec<Option<(NodeId, Weight)>>,
    max: LabelColumn,
    flow: LabelColumn,
    dist: Option<(u32, LabelColumn)>,
}

impl MappedSnapshot {
    /// Maps `path` and validates the whole container: magic, version (1
    /// or 2), header CRC, every section CRC, and — for columnar
    /// sections — the offsets-table structure. Labels themselves are
    /// *not* decoded; that happens lazily per query.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the file cannot be opened or mapped,
    /// otherwise the same typed errors as [`Snapshot::from_bytes`].
    pub fn open(path: impl AsRef<Path>) -> Result<MappedSnapshot, StoreError> {
        let buf = MapBuf::open(path.as_ref())?;
        let sections = read_sections(&buf, |family| match family {
            Family::Rows(rows) => LabelColumn::Repacked(PackedLabels::from_bitstrings(&rows)),
            Family::Column { at, col } => LabelColumn::InFile {
                offsets_at: at,
                payload_at: at + 8 * (col.len() + 1),
                payload_len: col.payload_len(),
            },
        })?;
        let Sections {
            version,
            header,
            parents,
            max,
            flow,
            dist,
        } = sections;
        let SnapHeader {
            n,
            root,
            max_weight,
            codec,
            ..
        } = header;
        Ok(MappedSnapshot {
            buf,
            version,
            root,
            max_weight,
            codec,
            n,
            parents,
            max,
            flow,
            dist,
        })
    }

    /// The container version of the underlying file (1 or 2). Version 2
    /// is served zero-copy; version 1 was repacked once at open.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Whether labels are served directly out of the file bytes
    /// (columnar file on a real map) rather than from a repacked arena.
    pub fn is_zero_copy(&self) -> bool {
        matches!(self.max, LabelColumn::InFile { .. })
    }

    /// Number of labelled nodes.
    pub fn num_nodes(&self) -> u32 {
        self.n
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

    /// The `δ` field width of the dist section, if one is present.
    pub fn dist_delta_bits(&self) -> Option<u32> {
        self.dist.as_ref().map(|(bits, _)| *bits)
    }

    fn column_slice<'a>(&'a self, col: &'a LabelColumn, v: usize) -> BitSlice<'a> {
        match col {
            LabelColumn::InFile {
                offsets_at,
                payload_at,
                payload_len,
            } => {
                let off = |i: usize| {
                    let at = offsets_at + 8 * i;
                    u64::from_le_bytes(self.buf[at..at + 8].try_into().expect("8 bytes"))
                };
                let (start, end) = (off(v) as usize, off(v + 1) as usize);
                BitSlice::new(
                    &self.buf[*payload_at..payload_at + payload_len],
                    start,
                    end - start,
                )
            }
            LabelColumn::Repacked(arena) => arena.get(v),
        }
    }

    /// The encoded `MAX` label of `v`, borrowed from the map.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_nodes()`.
    pub fn max_slice(&self, v: usize) -> BitSlice<'_> {
        self.column_slice(&self.max, v)
    }

    /// The encoded `FLOW` label of `v`, borrowed from the map.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_nodes()`.
    pub fn flow_slice(&self, v: usize) -> BitSlice<'_> {
        self.column_slice(&self.flow, v)
    }

    /// The encoded dist label of `v`, borrowed from the map, or `None`
    /// if the snapshot has no dist section.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_nodes()`.
    pub fn dist_slice(&self, v: usize) -> Option<BitSlice<'_>> {
        self.dist.as_ref().map(|(_, col)| self.column_slice(col, v))
    }

    /// Reconstructs the stored tree (same contract as
    /// [`Snapshot::tree`]).
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

    /// Materializes an owned [`Snapshot`] with the same contents —
    /// label streams bit-identical to what the map serves. The bridge
    /// back to every owned-only path (delta application, re-writing,
    /// [`Snapshot::fsck`]).
    pub fn to_snapshot(&self) -> Snapshot {
        let collect = |col: &LabelColumn| -> Vec<BitString> {
            (0..self.n as usize)
                .map(|v| self.column_slice(col, v).to_bitstring())
                .collect()
        };
        Snapshot::from_parts(
            self.root,
            self.max_weight,
            self.codec,
            self.parents.clone(),
            collect(&self.max),
            collect(&self.flow),
            self.dist.as_ref().map(|(delta_bits, col)| DistSection {
                delta_bits: *delta_bits,
                labels: collect(col),
            }),
        )
    }

    /// Deep-checks the mapped labels exactly as [`Snapshot::fsck`]
    /// does, by materializing an owned snapshot first.
    ///
    /// # Errors
    ///
    /// Whatever [`Snapshot::fsck`] reports.
    pub fn fsck(&self, pairs: usize) -> Result<crate::FsckReport, StoreError> {
        self.to_snapshot().fsck(pairs)
    }
}

impl Snapshot {
    /// Opens a snapshot file as a read-only [`MappedSnapshot`] — the
    /// zero-copy serving path. Both container versions are accepted;
    /// only version 2 (columnar) files serve labels directly from the
    /// map.
    ///
    /// # Errors
    ///
    /// See [`MappedSnapshot::open`].
    pub fn open_mmap(path: impl AsRef<Path>) -> Result<MappedSnapshot, StoreError> {
        MappedSnapshot::open(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SnapshotFormat;
    use mstv_graph::gen;
    use mstv_labels::SepFieldCodec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build_snap(n: usize, seed: u64) -> Snapshot {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(n, gen::WeightDist::Uniform { max: 500 }, &mut rng);
        let tree = RootedTree::from_graph(&g, NodeId(0)).unwrap();
        Snapshot::build(&tree, SepFieldCodec::EliasGamma)
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mstv-mmap-test-{}-{name}.snap", std::process::id()));
        p
    }

    #[test]
    fn mapped_v2_serves_identical_labels_zero_copy() {
        let snap = build_snap(90, 40);
        let path = tmp_path("v2");
        snap.write_file_format(&path, SnapshotFormat::V2).unwrap();
        let mapped = Snapshot::open_mmap(&path).unwrap();
        assert_eq!(mapped.version(), 2);
        assert!(mapped.is_zero_copy());
        assert_eq!(mapped.num_nodes(), snap.num_nodes());
        assert_eq!(mapped.root(), snap.root());
        assert_eq!(mapped.codec(), snap.codec());
        assert_eq!(mapped.dist_delta_bits(), snap.dist().map(|d| d.delta_bits));
        for v in 0..snap.num_nodes() as usize {
            assert_eq!(mapped.max_slice(v), snap.max_labels()[v].as_slice());
            assert_eq!(mapped.flow_slice(v), snap.flow_labels()[v].as_slice());
            assert_eq!(
                mapped.dist_slice(v).unwrap(),
                snap.dist().unwrap().labels[v].as_slice()
            );
        }
        assert_eq!(mapped.to_snapshot(), snap);
        mapped.fsck(50).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_v1_repacks_and_serves_identical_labels() {
        let snap = build_snap(70, 41);
        let path = tmp_path("v1");
        snap.write_file(&path).unwrap();
        let mapped = Snapshot::open_mmap(&path).unwrap();
        assert_eq!(mapped.version(), 1);
        assert!(!mapped.is_zero_copy());
        for v in 0..snap.num_nodes() as usize {
            assert_eq!(mapped.max_slice(v), snap.max_labels()[v].as_slice());
            assert_eq!(mapped.flow_slice(v), snap.flow_labels()[v].as_slice());
        }
        assert_eq!(mapped.to_snapshot(), snap);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapped_open_rejects_corruption() {
        let snap = build_snap(40, 42);
        let path = tmp_path("corrupt");
        let mut bytes = snap.to_bytes_format(SnapshotFormat::V2);
        let at = bytes.len() - 3;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Snapshot::open_mmap(&path),
            Err(StoreError::CrcMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(Snapshot::open_mmap(&path), Err(StoreError::Io(_))));
    }

    #[test]
    fn mapped_snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MappedSnapshot>();
    }

    #[test]
    fn single_node_v2_maps() {
        let t = RootedTree::from_parents(NodeId(0), vec![None]).unwrap();
        let snap = Snapshot::build(&t, SepFieldCodec::EliasGamma);
        let path = tmp_path("single");
        snap.write_file_format(&path, SnapshotFormat::V2).unwrap();
        let mapped = Snapshot::open_mmap(&path).unwrap();
        assert_eq!(mapped.num_nodes(), 1);
        assert_eq!(mapped.to_snapshot(), snap);
        std::fs::remove_file(&path).unwrap();
    }
}
