//! Blocks: the unit of storage, replication, and map-task scheduling.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::config::NodeId;

/// Globally unique block identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

/// Block payload plus its replica locations.
///
/// The simulation keeps one canonical byte copy per block; `replicas`
/// lists the nodes nominally holding it. Silent corruption is modelled as
/// a per-replica *overlay*: a node in `corrupt` serves the overlaid bytes
/// instead of the canonical payload, while `crc` still describes the
/// bytes that were written — which is exactly how readers detect the rot.
#[derive(Clone, Debug)]
pub struct BlockData {
    /// Raw record-aligned bytes (newline-terminated text records).
    pub data: Arc<[u8]>,
    /// CRC-64/XZ of `data`, computed once at write time.
    pub crc: u64,
    /// File this block belongs to (read-repair invalidates caches by
    /// path).
    pub path: String,
    /// Nodes holding a replica; the first entry is the "primary" written
    /// by the creating node.
    pub replicas: Vec<NodeId>,
    /// Silently corrupted replicas: the bytes the named node would
    /// actually serve (bit-rot / torn-write injection).
    pub corrupt: BTreeMap<NodeId, Arc<[u8]>>,
}

/// Location metadata exposed to the MapReduce scheduler — everything it
/// needs for locality-aware task placement, without the payload.
#[derive(Clone, Debug)]
pub struct BlockInfo {
    /// Block id.
    pub id: BlockId,
    /// Payload bytes.
    pub len: u64,
    /// Nodes holding a replica.
    pub replicas: Vec<NodeId>,
}

impl BlockData {
    /// True when at least one replica lives on a node in `alive`.
    pub fn available(&self, alive: &[bool]) -> bool {
        self.replicas
            .iter()
            .any(|&n| alive.get(n).copied().unwrap_or(false))
    }

    /// The bytes replica `node` would serve: the corruption overlay when
    /// one is installed, the canonical payload otherwise.
    pub fn replica_bytes(&self, node: NodeId) -> &Arc<[u8]> {
        self.corrupt.get(&node).unwrap_or(&self.data)
    }

    /// True when replica `node` serves bytes matching the write-time
    /// checksum.
    pub fn replica_healthy(&self, node: NodeId) -> bool {
        match self.corrupt.get(&node) {
            None => true,
            Some(bytes) => crate::crc64::crc64(bytes) == self.crc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc64::crc64;

    fn block(data: &'static [u8], replicas: Vec<NodeId>) -> BlockData {
        BlockData {
            data: Arc::from(data),
            crc: crc64(data),
            path: "/f".to_string(),
            replicas,
            corrupt: BTreeMap::new(),
        }
    }

    #[test]
    fn availability_follows_replicas() {
        let b = block(b"1 2\n", vec![0, 2]);
        assert!(b.available(&[true, true, true]));
        assert!(b.available(&[false, false, true]));
        assert!(!b.available(&[false, true, false]));
    }

    #[test]
    fn corruption_overlay_shadows_one_replica() {
        let mut b = block(b"1 2\n", vec![0, 2]);
        assert!(b.replica_healthy(0) && b.replica_healthy(2));
        b.corrupt.insert(0, Arc::from(&b"9 2\n"[..]));
        assert!(!b.replica_healthy(0), "flipped replica must fail its crc");
        assert!(b.replica_healthy(2), "other replica untouched");
        assert_eq!(&b.replica_bytes(0)[..], b"9 2\n");
        assert_eq!(&b.replica_bytes(2)[..], b"1 2\n");
    }
}
