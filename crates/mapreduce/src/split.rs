//! Input splits: the unit of map-task scheduling, and the handle a map
//! attempt reads its split's blocks through.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sh_dfs::{BlockInfo, Dfs, DfsError, NodeId};

/// One map task's input: a set of blocks read together, plus the
/// partition metadata the SpatialFileSplitter in `sh-core` attaches.
///
/// Plain Hadoop jobs use one split per block ([`InputSplit::from_file`]).
/// SpatialHadoop jobs use one split per *index partition* (all blocks of
/// the partition file), carrying the partition cell so local-processing
/// steps can apply partition-relative pruning rules. Anything else a
/// task needs from the global index its mapper holds: the driver and
/// the tasks share one process.
#[derive(Clone, Debug)]
pub struct InputSplit {
    /// Path the blocks belong to (diagnostics only; `a+b` for a
    /// [`InputSplit::pair`]).
    pub path: String,
    /// Blocks to read, in order.
    pub blocks: Vec<BlockInfo>,
    /// Input tag for multi-input jobs (e.g. joins: 0 = left, 1 = right).
    pub tag: u32,
    /// Index-partition id when this split is a spatial partition; a
    /// pair's number (e.g. `i * nb + j`) when it is two.
    pub partition_id: Option<usize>,
    /// Partition cell `[x1, y1, x2, y2]` when spatially partitioned.
    pub mbr: Option<[f64; 4]>,
    /// How many of the leading blocks belong to the *first* input of a
    /// two-input split ([`InputSplit::pair`]).
    pub first_blocks: Option<usize>,
}

impl InputSplit {
    /// Splits a two-input split's concatenated data back into the first
    /// and second input's bytes where the first input's blocks end
    /// (`first_blocks`; each input is its own file, so the cut falls
    /// between records).
    ///
    /// The cut point is clamped to the data actually read: a short read —
    /// e.g. from a degraded replica — must not panic the task, it just
    /// yields a shorter first input.
    pub fn split_data_bytes<'a>(&self, data: &'a [u8]) -> (&'a [u8], &'a [u8]) {
        match self.first_blocks {
            Some(n) => {
                let first: u64 = self.blocks.iter().take(n).map(|b| b.len).sum();
                data.split_at((first as usize).min(data.len()))
            }
            None => (data, &[]),
        }
    }
}

impl InputSplit {
    fn new(path: &str, blocks: Vec<BlockInfo>) -> InputSplit {
        InputSplit {
            path: path.to_string(),
            blocks,
            tag: 0,
            partition_id: None,
            mbr: None,
            first_blocks: None,
        }
    }

    /// One split per block of `path` — Hadoop's default splitter.
    pub fn from_file(dfs: &Dfs, path: &str) -> Result<Vec<InputSplit>, DfsError> {
        Ok(dfs
            .block_locations(path)?
            .into_iter()
            .map(|b| InputSplit::new(path, vec![b]))
            .collect())
    }

    /// A single split covering the whole file (small side-inputs).
    pub fn whole_file(dfs: &Dfs, path: &str) -> Result<InputSplit, DfsError> {
        Ok(InputSplit::new(path, dfs.block_locations(path)?))
    }

    /// Two splits read by one task: `left`'s blocks, then `right`'s,
    /// cut apart again where `left` ends ([`InputSplit::split_data_bytes`]).
    pub fn pair(left: InputSplit, right: InputSplit) -> InputSplit {
        let first_blocks = left.blocks.len();
        let mut blocks = left.blocks;
        blocks.extend(right.blocks);
        InputSplit {
            first_blocks: Some(first_blocks),
            ..InputSplit::new(&format!("{}+{}", left.path, right.path), blocks)
        }
    }

    /// Total input bytes.
    pub fn len(&self) -> u64 {
        self.blocks.iter().map(|b| b.len).sum()
    }

    /// True when the split has no blocks (empty partition file).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Nodes holding a replica of the first block — the scheduler's
    /// locality preference list.
    pub fn preferred_nodes(&self) -> &[NodeId] {
        self.blocks
            .first()
            .map(|b| b.replicas.as_slice())
            .unwrap_or(&[])
    }

    /// Returns a copy tagged as input `tag` (multi-input jobs).
    pub fn with_tag(mut self, tag: u32) -> InputSplit {
        self.tag = tag;
        self
    }

    /// Attaches spatial partition metadata.
    pub fn with_partition(mut self, id: usize, mbr: [f64; 4]) -> InputSplit {
        self.partition_id = Some(id);
        self.mbr = Some(mbr);
        self
    }
}

/// One map attempt's handle on its split's data. The mapper pulls the
/// blocks it needs: [`SplitInput::block`] reads and checksums a block the
/// first time it is asked for, and hands out the payload the DFS itself
/// holds, so a mapper that keeps bytes past its task shares a block
/// instead of copying it. No block is read twice in one attempt.
///
/// A task is charged its whole split either way: when it ends, each
/// block nobody asked for is charged its length, local when the task's
/// node holds a replica ([`SplitInput::charge`]), so simulated time
/// models the paper's cache-less Hadoop whatever the mapper read.
pub struct SplitInput<'a> {
    dfs: &'a Dfs,
    split: &'a InputSplit,
    node: NodeId,
    read: Vec<Option<Arc<[u8]>>>,
    local: u64,
    remote: u64,
    /// Time spent in DFS reads, which the task's compute time excludes.
    pub(crate) read_time: Duration,
}

impl<'a> SplitInput<'a> {
    pub(crate) fn new(dfs: &'a Dfs, split: &'a InputSplit, node: NodeId) -> SplitInput<'a> {
        SplitInput {
            dfs,
            split,
            node,
            read: vec![None; split.blocks.len()],
            local: 0,
            remote: 0,
            read_time: Duration::ZERO,
        }
    }

    /// Block `i` of the split, read and checksummed on first use.
    pub fn block(&mut self, i: usize) -> Result<Arc<[u8]>, DfsError> {
        if let Some(bytes) = &self.read[i] {
            return Ok(bytes.clone());
        }
        let t = Instant::now();
        let (bytes, was_local) = self.dfs.read_block(self.split.blocks[i].id, self.node)?;
        self.read_time += t.elapsed();
        if was_local {
            self.local += bytes.len() as u64;
        } else {
            self.remote += bytes.len() as u64;
        }
        self.read[i] = Some(bytes.clone());
        Ok(bytes)
    }

    /// Blocks `range` of the split, in order.
    pub fn blocks(&mut self, range: Range<usize>) -> Result<Vec<Arc<[u8]>>, DfsError> {
        range.map(|i| self.block(i)).collect()
    }

    /// Every block of the split, in order.
    pub fn all(&mut self) -> Result<Vec<Arc<[u8]>>, DfsError> {
        self.blocks(0..self.read.len())
    }

    /// The `(local, remote)` bytes the task is charged: what it read, as
    /// the DFS reported it, plus the length of every block it did not.
    pub(crate) fn charge(&self) -> (u64, u64) {
        let (mut local, mut remote) = (self.local, self.remote);
        for (b, read) in self.split.blocks.iter().zip(&self.read) {
            match read {
                Some(_) => {}
                None if b.replicas.contains(&self.node) => local += b.len,
                None => remote += b.len,
            }
        }
        (local, remote)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sh_dfs::ClusterConfig;

    #[test]
    fn from_file_yields_one_split_per_block() {
        let fs = Dfs::new(ClusterConfig::small_for_tests()); // 8 KiB blocks
        let mut w = fs.create("/f").unwrap();
        for i in 0..2000 {
            w.write_line(&format!("{i} {i}"));
        }
        w.close().unwrap();
        let splits = InputSplit::from_file(&fs, "/f").unwrap();
        assert_eq!(splits.len(), fs.stat("/f").unwrap().num_blocks);
        assert!(splits.len() > 1);
        let total: u64 = splits.iter().map(InputSplit::len).sum();
        assert_eq!(total, fs.stat("/f").unwrap().len);
        for s in &splits {
            assert!(!s.preferred_nodes().is_empty());
        }
    }

    #[test]
    fn whole_file_is_one_split() {
        let fs = Dfs::new(ClusterConfig::small_for_tests());
        fs.write_string("/f", &"r\n".repeat(10_000)).unwrap();
        let s = InputSplit::whole_file(&fs, "/f").unwrap();
        assert!(s.blocks.len() > 1);
        assert_eq!(s.len(), fs.stat("/f").unwrap().len);
    }

    /// A pair of the one-block files `a` and `b`.
    fn pair_of(fs: &Dfs, a: &str, b: &str) -> InputSplit {
        fs.write_string("/a", a).unwrap();
        fs.write_string("/b", b).unwrap();
        let whole = |path| InputSplit::whole_file(fs, path).unwrap();
        InputSplit::pair(whole("/a"), whole("/b"))
    }

    #[test]
    fn split_data_clamps_short_reads() {
        let fs = Dfs::new(ClusterConfig::small_for_tests());
        let s = pair_of(&fs, "a\n", "b\n");
        assert_eq!(s.split_data_bytes(b"a\nb\n"), (&b"a\n"[..], &b"b\n"[..]));
        // Regression: a short read used to panic in split_at; now the
        // cut clamps to whatever data arrived.
        assert_eq!(s.split_data_bytes(b"a"), (&b"a"[..], &b""[..]));
        assert_eq!(s.split_data_bytes(b""), (&b""[..], &b""[..]));
    }

    #[test]
    fn split_data_bytes_cuts_exactly_and_clamps() {
        let fs = Dfs::new(ClusterConfig::small_for_tests());
        let mut s = pair_of(&fs, "ab\n", "d\n");
        let data = [1u8, 2, 3, 4, 5];
        assert_eq!(s.split_data_bytes(&data), (&data[..3], &data[3..]));
        assert_eq!(s.split_data_bytes(&data[..2]), (&data[..2], &[][..]));
        s.first_blocks = Some(2);
        assert_eq!(s.split_data_bytes(&data), (&data[..], &[][..]));
        s.first_blocks = None;
        assert_eq!(s.split_data_bytes(&data), (&data[..], &[][..]));
    }

    #[test]
    fn a_pair_reads_left_then_right_and_cuts_where_left_ends() {
        let fs = Dfs::new(ClusterConfig::small_for_tests()); // 8 KiB blocks
        let write = |path: &str, lines: usize| {
            let mut w = fs.create(path).unwrap();
            for i in 0..lines {
                w.write_line(&format!("{path} {i}"));
            }
            w.close().unwrap();
            assert_eq!(fs.stat(path).unwrap().num_blocks > 1, lines > 10);
        };
        write("/one", 10);
        write("/many", 3000);
        write("/also-one", 5);
        let ids = |blocks: &[BlockInfo]| blocks.iter().map(|b| b.id).collect::<Vec<_>>();
        for (a, b) in [
            ("/one", "/also-one"),
            ("/one", "/many"),
            ("/many", "/one"),
            ("/many", "/many"),
        ] {
            let (left, right) = (
                InputSplit::whole_file(&fs, a).unwrap(),
                InputSplit::whole_file(&fs, b).unwrap(),
            );
            let pair = InputSplit::pair(left.clone(), right.clone());
            assert_eq!(pair.path, format!("{a}+{b}"));
            assert_eq!(
                ids(&pair.blocks),
                [ids(&left.blocks), ids(&right.blocks)].concat()
            );
            assert_eq!(pair.len(), left.len() + right.len());
            assert_eq!(pair.first_blocks, Some(left.blocks.len()));
            assert_eq!(pair.preferred_nodes(), left.preferred_nodes());
            let (left_data, right_data) = (fs.read_bytes(a).unwrap(), fs.read_bytes(b).unwrap());
            let data = [left_data.clone(), right_data.clone()].concat();
            assert_eq!(
                pair.split_data_bytes(&data),
                (&left_data[..], &right_data[..]),
                "{a}+{b}"
            );
        }
    }

    #[test]
    fn tagging_and_partition_metadata() {
        let fs = Dfs::new(ClusterConfig::small_for_tests());
        fs.write_string("/f", "1 1\n").unwrap();
        let s = InputSplit::whole_file(&fs, "/f")
            .unwrap()
            .with_tag(1)
            .with_partition(7, [0.0, 0.0, 10.0, 10.0]);
        assert_eq!(s.tag, 1);
        assert_eq!(s.partition_id, Some(7));
        assert_eq!(s.mbr, Some([0.0, 0.0, 10.0, 10.0]));
    }
}
