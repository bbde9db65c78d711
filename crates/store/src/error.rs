//! Typed failures of the snapshot store and query engine.
//!
//! Everything a corrupted file, a foreign label, or an out-of-range node
//! id can do to the store surfaces as a [`StoreError`] — never a panic.
//! The variants are deliberately specific so `mstv snapshot fsck` and the
//! tests can assert *which* defence caught a given corruption.

use std::fmt;

/// A failure while writing, reading, or querying a label snapshot.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure (file read/write).
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The container version is newer than this reader understands.
    UnsupportedVersion {
        /// The version number found in the file.
        found: u16,
    },
    /// The byte stream ended before a field could be read.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
        /// Byte offset at which the read was attempted.
        offset: usize,
    },
    /// A section's checksum does not match its payload — the file was
    /// bit-flipped (or truncated mid-payload) after it was written.
    CrcMismatch {
        /// Which section failed (`"header"`, `"tree"`, `"max"`, ...).
        section: &'static str,
        /// The CRC32 recorded in the file.
        stored: u32,
        /// The CRC32 computed over the payload as read.
        computed: u32,
    },
    /// A structurally invalid field (impossible counts, unknown section
    /// tags, non-tree parent pointers, ...).
    Malformed {
        /// Where the defect was found.
        context: &'static str,
        /// Human-readable description of the defect.
        reason: String,
    },
    /// A section required by the requested operation is absent.
    MissingSection {
        /// The absent section's name.
        section: &'static str,
    },
    /// A stored label record does not decode under the snapshot's codec.
    CorruptLabel {
        /// The section the record lives in.
        section: &'static str,
        /// The node whose record is bad.
        node: u32,
    },
    /// A query named a node this snapshot carries no label for.
    UnknownNode {
        /// The offending node id.
        node: u32,
        /// Number of labelled nodes in the snapshot.
        nodes: u32,
    },
    /// Two labels share no separator prefix: they were produced for
    /// different trees (a foreign-snapshot mix-up), so no decoder output
    /// is meaningful.
    LabelMismatch {
        /// First query endpoint.
        u: u32,
        /// Second query endpoint.
        v: u32,
    },
    /// A mutation (delta-journal apply) was attempted against a
    /// memory-mapped snapshot, which serves its labels directly from the
    /// read-only file bytes. Reopen the snapshot as an owned
    /// [`crate::Snapshot`] to mutate it.
    ReadOnlySnapshot,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            StoreError::Truncated { context, offset } => {
                write!(f, "truncated file: {context} at byte {offset}")
            }
            StoreError::CrcMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in {section} section: stored {stored:#010x}, computed {computed:#010x}"
            ),
            StoreError::Malformed { context, reason } => {
                write!(f, "malformed {context}: {reason}")
            }
            StoreError::MissingSection { section } => {
                write!(f, "snapshot has no {section} section")
            }
            StoreError::CorruptLabel { section, node } => {
                write!(f, "{section} label of node {node} does not decode")
            }
            StoreError::UnknownNode { node, nodes } => {
                write!(f, "node {node} is not labelled (snapshot holds {nodes} nodes)")
            }
            StoreError::LabelMismatch { u, v } => write!(
                f,
                "labels of {u} and {v} share no separator prefix (foreign snapshot?)"
            ),
            StoreError::ReadOnlySnapshot => write!(
                f,
                "snapshot is memory-mapped (read-only); deltas need an owned snapshot"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        assert!(StoreError::BadMagic.to_string().contains("magic"));
        assert!(StoreError::UnsupportedVersion { found: 9 }
            .to_string()
            .contains('9'));
        assert!(StoreError::Truncated {
            context: "tree record",
            offset: 17
        }
        .to_string()
        .contains("byte 17"));
        let crc = StoreError::CrcMismatch {
            section: "max",
            stored: 1,
            computed: 2,
        };
        assert!(crc.to_string().contains("max"));
        assert!(StoreError::UnknownNode { node: 8, nodes: 4 }
            .to_string()
            .contains("8"));
        assert!(StoreError::LabelMismatch { u: 1, v: 2 }
            .to_string()
            .contains("prefix"));
        assert!(StoreError::ReadOnlySnapshot
            .to_string()
            .contains("read-only"));
        let io: StoreError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(std::error::Error::source(&io).is_some());
        assert!(std::error::Error::source(&StoreError::BadMagic).is_none());
    }
}
