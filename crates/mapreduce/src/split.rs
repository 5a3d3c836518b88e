//! Input splits: the unit of map-task scheduling.

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
    /// Byte length of the leading blocks that belong to the *first* input
    /// of a two-input split ([`InputSplit::pair`]; blocks are
    /// record-aligned so this cuts between records).
    pub first_input_bytes: Option<u64>,
}

impl InputSplit {
    /// Splits a two-input split's concatenated data back into the first
    /// and second input's bytes at `first_input_bytes` (blocks are
    /// record-aligned, so the cut falls between records).
    ///
    /// The cut point is clamped to the data actually read: a short read —
    /// e.g. from a degraded replica — must not panic the task, it just
    /// yields a shorter first input.
    pub fn split_data_bytes<'a>(&self, data: &'a [u8]) -> (&'a [u8], &'a [u8]) {
        match self.first_input_bytes {
            Some(b) => data.split_at((b as usize).min(data.len())),
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
            first_input_bytes: None,
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
        let first_input_bytes = left.len();
        let mut blocks = left.blocks;
        blocks.extend(right.blocks);
        InputSplit {
            first_input_bytes: Some(first_input_bytes),
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

    #[test]
    fn split_data_clamps_short_reads() {
        let fs = Dfs::new(ClusterConfig::small_for_tests());
        fs.write_string("/f", "a\nb\n").unwrap();
        let mut s = InputSplit::whole_file(&fs, "/f").unwrap();
        s.first_input_bytes = Some(2);
        assert_eq!(s.split_data_bytes(b"a\nb\n"), (&b"a\n"[..], &b"b\n"[..]));
        // Regression: a short read used to panic in split_at; now the
        // cut clamps to whatever data arrived.
        s.first_input_bytes = Some(100);
        assert_eq!(s.split_data_bytes(b"a\n"), (&b"a\n"[..], &b""[..]));
        s.first_input_bytes = Some(2);
        assert_eq!(s.split_data_bytes(b""), (&b""[..], &b""[..]));
    }

    #[test]
    fn split_data_bytes_cuts_exactly_and_clamps() {
        let fs = Dfs::new(ClusterConfig::small_for_tests());
        fs.write_string("/f", "ab").unwrap();
        let mut s = InputSplit::whole_file(&fs, "/f").unwrap();
        s.first_input_bytes = Some(3);
        let data = [1u8, 2, 3, 4, 5];
        assert_eq!(s.split_data_bytes(&data), (&data[..3], &data[3..]));
        s.first_input_bytes = Some(100);
        assert_eq!(s.split_data_bytes(&data), (&data[..], &[][..]));
        s.first_input_bytes = None;
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
            assert_eq!(pair.first_input_bytes, Some(left.len()));
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
