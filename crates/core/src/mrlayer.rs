//! The spatial MapReduce layer: SpatialFileSplitter, SpatialRecordReader,
//! and the reference-point duplicate-avoidance rule.

use std::borrow::Cow;
use std::sync::Arc;

use sh_dfs::{Dfs, DfsError};
use sh_geom::{Point, Record, Rect};
use sh_index::{owns_point, LocalRTree};
use sh_mapreduce::InputSplit;

use crate::catalog::SpatialFile;
use crate::colblock::{self, ColumnarBlock};
use crate::opresult::OpError;

/// Sidecar path of a partition file: `.../part-NNNNN` →
/// `.../_lidx-NNNNN`. `None` for paths that are not partition files
/// (heap files, block-level splits) — those have no persisted index.
pub fn local_index_path(part_path: &str) -> Option<String> {
    let (dir, name) = part_path.rsplit_once('/')?;
    let suffix = name.strip_prefix("part-")?;
    Some(format!("{dir}/_lidx-{suffix}"))
}

/// SpatialFileSplitter: turns an indexed file into map-task splits, one
/// per partition that passes the *filter function* — the mechanism every
/// SpatialHadoop operation uses to prune partitions that cannot
/// contribute to its answer.
pub struct SpatialFileSplitter;

impl SpatialFileSplitter {
    /// One split per partition with `filter(meta) == true`. The split
    /// carries the partition id and boundary cell so the map function can
    /// apply partition-relative pruning rules.
    pub fn splits(
        dfs: &Dfs,
        file: &SpatialFile,
        mut filter: impl FnMut(&sh_index::PartitionMeta) -> bool,
    ) -> Result<Vec<InputSplit>, DfsError> {
        let mut out = Vec::new();
        for meta in &file.partitions {
            if !filter(meta) {
                continue;
            }
            let split = InputSplit::whole_file(dfs, &meta.path)?.with_partition(meta.id, meta.cell);
            out.push(split);
        }
        Ok(out)
    }

    /// All partitions (no filtering).
    pub fn all_splits(dfs: &Dfs, file: &SpatialFile) -> Result<Vec<InputSplit>, DfsError> {
        Self::splits(dfs, file, |_| true)
    }
}

/// Selectivity of a splitter decision: how many of the file's
/// partitions the filter function kept, and how many records those
/// surviving partitions hold. `records_emitted` is left at zero for the
/// operation to fill once the answer size is known.
pub fn splitter_selectivity(
    file: &SpatialFile,
    splits: &[sh_mapreduce::InputSplit],
) -> sh_trace::Selectivity {
    let kept: std::collections::BTreeSet<usize> =
        splits.iter().filter_map(|s| s.partition_id).collect();
    let records_scanned = file
        .partitions
        .iter()
        .filter(|m| kept.contains(&m.id))
        .map(|m| m.records)
        .sum();
    sh_trace::Selectivity::of_split(file.partitions.len(), splits.len(), records_scanned)
}

/// SpatialRecordReader: parses a split's text back into records and can
/// bulk-load the partition's local R-tree for index-assisted map
/// functions.
pub struct SpatialRecordReader;

impl SpatialRecordReader {
    /// Parses every line of a split as a record.
    ///
    /// Map tasks treat unparseable lines as data corruption; the task
    /// (and, without retry, the job) fails cleanly via
    /// [`sh_mapreduce::fail_corrupt`]. Loaders validate input, so this
    /// never fires on files written by this crate.
    pub fn records<R: Record>(data: &str) -> Vec<R> {
        data.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                R::parse_line(l)
                    .unwrap_or_else(|e| sh_mapreduce::fail_corrupt(format!("{e}: {l:?}")))
            })
            .collect()
    }

    /// The text half of [`SpatialRecordReader::open_indexed_bytes`]: a
    /// cache hit returns the parsed records + local tree without touching
    /// the text; a miss parses `data`, loads the persisted `_lidx-NNNNN`
    /// sidecar when one exists (falling back to an STR bulk-load for heap
    /// files or missing/corrupt sidecars), and caches the result keyed by
    /// `path`. Returns the shared partition and whether it was a cache hit.
    fn open_indexed<R: Record>(
        dfs: &Dfs,
        path: &str,
        data: &str,
    ) -> (Arc<(Vec<R>, LocalRTree)>, bool) {
        // Keyed by the partition path itself so the DFS's per-path
        // invalidation (delete/overwrite) hits this entry.
        if let Some(hit) = dfs.cache().get(path) {
            if let Ok(part) = hit.downcast::<(Vec<R>, LocalRTree)>() {
                return (part, true);
            }
        }
        // `data` was read before this point; if a concurrent job
        // invalidates the path (overwrite, node kill) while we parse,
        // the epoch check below drops the stale insert.
        let epoch = dfs.cache().epoch();
        let records = Self::records::<R>(data);
        let tree = load_sidecar(dfs, path, records.len())
            .unwrap_or_else(|| LocalRTree::build(records.iter().map(|r| r.mbr()).collect()));
        let part = Arc::new((records, tree));
        // Accounted size: parsed records + tree rects dominate; the text
        // itself is the floor.
        let bytes =
            (data.len() + part.0.len() * std::mem::size_of::<R>() + part.1.len() * 32) as u64;
        dfs.cache().put_at(path, part.clone(), bytes, epoch);
        (part, false)
    }

    /// Parses split bytes as records, sniffing the columnar-block header:
    /// `SHCB` data decodes through the binary path, anything else is
    /// treated as UTF-8 text. Corrupt bytes in either format are
    /// [`OpError::Corrupt`].
    pub fn records_bytes<R: Record>(data: &[u8]) -> Result<Vec<R>, OpError> {
        if colblock::is_binary(data) {
            return Ok(colblock::decode(data)?.records::<R>());
        }
        let text = std::str::from_utf8(data)
            .map_err(|e| OpError::Corrupt(format!("partition is not UTF-8 text: {e}")))?;
        sh_geom::text::parse_records(text).map_err(|e| OpError::Corrupt(e.to_string()))
    }

    /// Map-task variant of [`SpatialRecordReader::records_bytes`]:
    /// corrupt bytes fail the task (and the job) cleanly via
    /// [`sh_mapreduce::fail_corrupt`] instead of panicking the worker.
    pub fn task_records_bytes<R: Record>(split_path: &str, data: &[u8]) -> Vec<R> {
        match Self::records_bytes(data) {
            Ok(records) => records,
            Err(e) => sh_mapreduce::fail_corrupt(format!("{split_path}: {e}")),
        }
    }

    /// Opens a partition for index-assisted processing through the
    /// per-node cache, sniffing the format: binary blocks decode into
    /// shared coordinate columns (warm reads hand out the same `Arc`s),
    /// text partitions are parsed into records. Either way the local
    /// R-tree comes from the partition's sidecar or an STR bulk-load.
    /// Returns the partition and whether the cache was hit.
    pub fn open_indexed_bytes<R: Record>(
        dfs: &Dfs,
        path: &str,
        data: &[u8],
    ) -> Result<(Partition<R>, bool), OpError> {
        if !colblock::is_binary(data) {
            let text = std::str::from_utf8(data)
                .map_err(|e| OpError::Corrupt(format!("{path}: partition is not UTF-8: {e}")))?;
            let (part, hit) = Self::open_indexed::<R>(dfs, path, text);
            return Ok((Partition::Text(part), hit));
        }
        if let Some(hit) = dfs.cache().get(path) {
            if let Ok(part) = hit.downcast::<BinaryPartition>() {
                return Ok((Partition::Binary(part), true));
            }
        }
        let epoch = dfs.cache().epoch();
        let block = colblock::decode(data)?;
        let tree = load_sidecar(dfs, path, block.count)
            .unwrap_or_else(|| LocalRTree::build((0..block.count).map(|i| block.mbr(i)).collect()));
        let bytes = (block.resident_bytes() + tree.len() * 32) as u64;
        let part = Arc::new(BinaryPartition { block, tree });
        dfs.cache().put_at(path, part.clone(), bytes, epoch);
        Ok((Partition::Binary(part), false))
    }

    /// Map-task variant of [`SpatialRecordReader::open_indexed_bytes`]:
    /// corrupt partition data fails the task cleanly.
    pub fn task_open_indexed_bytes<R: Record>(
        dfs: &Dfs,
        split_path: &str,
        data: &[u8],
    ) -> (Partition<R>, bool) {
        match Self::open_indexed_bytes(dfs, split_path, data) {
            Ok(v) => v,
            Err(e) => sh_mapreduce::fail_corrupt(format!("{split_path}: {e}")),
        }
    }

    /// Presents split bytes to a line-oriented map function as text
    /// whatever the stored layout: binary columnar blocks are
    /// materialized back into record lines (exact — `f64` round-trips
    /// through the text codec), text passes through borrowed. Corrupt
    /// bytes in either format fail the task cleanly. Operations with a
    /// native columnar path (range, distributed join, kNN) never pay
    /// the materialization.
    pub fn task_text<'a, R: Record>(split_path: &str, data: &'a [u8]) -> Cow<'a, str> {
        if colblock::is_binary(data) {
            let records = Self::task_records_bytes::<R>(split_path, data);
            let mut text = String::new();
            for r in &records {
                r.write_line(&mut text);
                text.push('\n');
            }
            return Cow::Owned(text);
        }
        match std::str::from_utf8(data) {
            Ok(t) => Cow::Borrowed(t),
            Err(e) => {
                sh_mapreduce::fail_corrupt(format!("{split_path}: input is not UTF-8 text: {e}"))
            }
        }
    }

    /// Two-input variant of [`SpatialRecordReader::task_text`]: cuts at
    /// the split's recorded byte offset, then converts each side
    /// independently — a pair split can mix a binary partition with a
    /// text side file.
    pub fn task_text_pair<'a, R: Record>(
        split: &InputSplit,
        data: &'a [u8],
    ) -> (Cow<'a, str>, Cow<'a, str>) {
        let (a, b) = split.split_data_bytes(data);
        (
            Self::task_text::<R>(&split.path, a),
            Self::task_text::<R>(&split.path, b),
        )
    }

    /// Opens a partition for a one-shot linear scan: no cache, no tree —
    /// the ablation path. Binary blocks keep their columnar layout so
    /// [`Partition::scan_filter`] still runs the column loop.
    pub fn open_scan<R: Record>(split_path: &str, data: &[u8]) -> Partition<R> {
        if colblock::is_binary(data) {
            match colblock::decode(data) {
                Ok(block) => Partition::Binary(Arc::new(BinaryPartition {
                    tree: LocalRTree::build(Vec::new()),
                    block,
                })),
                Err(e) => sh_mapreduce::fail_corrupt(format!("{split_path}: {e}")),
            }
        } else {
            let records = Self::task_records_bytes::<R>(split_path, data);
            Partition::Text(Arc::new((records, LocalRTree::build(Vec::new()))))
        }
    }
}

/// Loads the persisted `_lidx` sidecar of `part_path`, sniffing binary
/// (`SHLX`) vs. text encodings. Returns `None` — caller rebuilds — when
/// the sidecar is missing, unreadable, corrupt, truncated, of the wrong
/// version, or stale (cardinality mismatch): the same fallback for every
/// failure mode, in either encoding.
fn load_sidecar(dfs: &Dfs, part_path: &str, expected_len: usize) -> Option<LocalRTree> {
    let p = local_index_path(part_path)?;
    if !dfs.exists(&p) {
        return None;
    }
    let raw = dfs.read_bytes(&p).ok()?;
    let tree = if LocalRTree::is_binary_sidecar(&raw) {
        LocalRTree::from_bytes(&raw).ok()?
    } else {
        LocalRTree::from_text(std::str::from_utf8(&raw).ok()?).ok()?
    };
    (tree.len() == expected_len).then_some(tree)
}

/// A partition opened through [`SpatialRecordReader::open_indexed_bytes`]:
/// parsed text records or decoded binary columns, each with the
/// partition's local R-tree, shared via the block cache.
pub enum Partition<R: Record> {
    /// Text partition: parsed records + tree.
    Text(Arc<(Vec<R>, LocalRTree)>),
    /// Binary partition: columnar block + tree.
    Binary(Arc<BinaryPartition>),
}

impl<R: Record> Clone for Partition<R> {
    fn clone(&self) -> Self {
        match self {
            Partition::Text(p) => Partition::Text(p.clone()),
            Partition::Binary(p) => Partition::Binary(p.clone()),
        }
    }
}

/// Decoded binary partition (see [`Partition::Binary`]).
pub struct BinaryPartition {
    /// Shared coordinate columns.
    pub block: ColumnarBlock,
    /// Local R-tree over the block's MBRs.
    pub tree: LocalRTree,
}

impl<R: Record> Partition<R> {
    /// Number of records in the partition.
    pub fn len(&self) -> usize {
        match self {
            Partition::Text(p) => p.0.len(),
            Partition::Binary(p) => p.block.count,
        }
    }

    /// True when the partition holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The partition's local R-tree.
    pub fn tree(&self) -> &LocalRTree {
        match self {
            Partition::Text(p) => &p.1,
            Partition::Binary(p) => &p.tree,
        }
    }

    /// MBR of record `i`.
    #[inline]
    pub fn mbr_of(&self, i: usize) -> Rect {
        match self {
            Partition::Text(p) => p.0[i].mbr(),
            Partition::Binary(p) => p.block.mbr(i),
        }
    }

    /// Materializes record `i`.
    pub fn record(&self, i: usize) -> R {
        match self {
            Partition::Text(p) => p.0[i].clone(),
            Partition::Binary(p) => p.block.record::<R>(i),
        }
    }

    /// Appends record `i`'s text encoding to `out` (result lines stay
    /// text in both formats, so outputs are byte-identical).
    pub fn write_record(&self, i: usize, out: &mut String) {
        match self {
            Partition::Text(p) => p.0[i].write_line(out),
            Partition::Binary(p) => p.block.record::<R>(i).write_line(out),
        }
    }

    /// Indices of records whose MBR intersects `q` without consulting
    /// the tree — text scans the parsed records, binary iterates the
    /// coordinate columns directly (the zero-copy hot loop).
    pub fn scan_filter(&self, q: &Rect) -> Vec<usize> {
        match self {
            Partition::Text(p) => {
                p.0.iter()
                    .enumerate()
                    .filter(|(_, r)| r.mbr().intersects(q))
                    .map(|(i, _)| i)
                    .collect()
            }
            Partition::Binary(p) => p.block.mbr_filter(q),
        }
    }

    /// [`Partition::scan_filter`] spread across the cluster slot pool:
    /// binary partitions above the [`crate::parscan::MIN_CHUNK`]
    /// threshold scan their coordinate columns in parallel chunks over
    /// opportunistically leased extra slots; text partitions and small
    /// blocks scan serially. Returns the (ascending, identical to the
    /// serial scan) hit indices plus the number of extra slots used.
    pub fn scan_filter_par(&self, dfs: &Dfs, q: &Rect) -> (Vec<usize>, usize) {
        match self {
            Partition::Binary(p) if p.block.count >= crate::parscan::MIN_CHUNK => {
                crate::parscan::parallel_chunks(
                    dfs.slots(),
                    p.block.count,
                    crate::parscan::MIN_CHUNK,
                    |start, end| p.block.mbr_filter_range(q, start, end),
                )
            }
            _ => (self.scan_filter(q), 0),
        }
    }

    /// [`Partition::records`][Self::record] for the whole partition,
    /// materialized across the slot pool (distributed join's
    /// materialization step). Identical to a serial materialization.
    pub fn records_par(&self, dfs: &Dfs) -> (Vec<R>, usize) {
        match self {
            Partition::Binary(p) if p.block.count >= crate::parscan::MIN_CHUNK => {
                crate::parscan::parallel_chunks(
                    dfs.slots(),
                    p.block.count,
                    crate::parscan::MIN_CHUNK,
                    |start, end| p.block.records_range::<R>(start, end),
                )
            }
            Partition::Binary(p) => (p.block.records::<R>(), 0),
            Partition::Text(p) => (p.0.clone(), 0),
        }
    }
}

/// The partition cell of a split (panics when the split is not spatial —
/// a programming error in an operation).
pub fn split_cell(split: &InputSplit) -> Rect {
    let m = split.mbr.expect("spatial split carries its partition cell");
    Rect::new(m[0], m[1], m[2], m[3])
}

/// Reference-point duplicate avoidance: with disjoint partitioning and
/// replication, a result involving rectangles `a` and `b` is reported
/// only by the partition that *owns* the bottom-left corner of `a ∩ b`.
///
/// Both `a` and `b` overlap every partition that can see the pair, and
/// the corner lies inside both, so exactly one of the partitions
/// processing the pair owns it — each result is reported exactly once.
pub fn reference_point(a: &Rect, b: &Rect) -> Option<Point> {
    a.intersection(b).map(|i| Point::new(i.x1, i.y1))
}

/// True when `cell` owns the reference point of `a ∩ b` within
/// `universe` (see [`reference_point`]).
pub fn owns_pair(cell: &Rect, universe: &Rect, a: &Rect, b: &Rect) -> bool {
    match reference_point(a, b) {
        Some(p) => owns_point(cell, &p, universe),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sh_dfs::{ClusterConfig, CorruptKind};
    use sh_geom::Point;
    use sh_index::{PartitionKind, PartitionMeta};

    fn indexed_file(dfs: &Dfs) -> SpatialFile {
        dfs.write_string("/idx/part-00000", "1 1\n2 2\n").unwrap();
        dfs.write_string("/idx/part-00001", "60 60\n70 70\n")
            .unwrap();
        SpatialFile {
            dir: "/idx".into(),
            kind: PartitionKind::Grid,
            universe: Rect::new(0.0, 0.0, 100.0, 100.0),
            partitions: vec![
                PartitionMeta {
                    id: 0,
                    path: "/idx/part-00000".into(),
                    cell: [0.0, 0.0, 50.0, 50.0],
                    mbr: [1.0, 1.0, 2.0, 2.0],
                    records: 2,
                    bytes: 8,
                },
                PartitionMeta {
                    id: 1,
                    path: "/idx/part-00001".into(),
                    cell: [50.0, 50.0, 100.0, 100.0],
                    mbr: [60.0, 60.0, 70.0, 70.0],
                    records: 2,
                    bytes: 12,
                },
            ],
        }
    }

    #[test]
    fn splitter_applies_filter() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let f = indexed_file(&dfs);
        let all = SpatialFileSplitter::all_splits(&dfs, &f).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].partition_id, Some(0));
        let q = Rect::new(55.0, 55.0, 65.0, 65.0);
        let pruned =
            SpatialFileSplitter::splits(&dfs, &f, |m| m.mbr_rect().intersects(&q)).unwrap();
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned[0].partition_id, Some(1));
        assert_eq!(split_cell(&pruned[0]), Rect::new(50.0, 50.0, 100.0, 100.0));
    }

    #[test]
    fn local_index_path_derivation() {
        assert_eq!(
            local_index_path("/idx/part-00005").as_deref(),
            Some("/idx/_lidx-00005")
        );
        assert_eq!(local_index_path("/idx/_master"), None);
        assert_eq!(local_index_path("part-00001"), None); // no directory
    }

    #[test]
    fn open_indexed_caches_and_respects_invalidation() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        dfs.write_string("/idx/part-00000", "1 2\n3 4\n5 6\n")
            .unwrap();
        let data = dfs.read_bytes("/idx/part-00000").unwrap();
        let open = |data: &[u8]| {
            SpatialRecordReader::open_indexed_bytes::<Point>(&dfs, "/idx/part-00000", data).unwrap()
        };

        let (part, hit) = open(&data);
        assert!(!hit, "first open is a miss");
        assert_eq!(part.len(), 3);
        assert_eq!(part.tree().query(&Rect::new(2.0, 3.0, 4.0, 5.0)), vec![1]);

        let (again, hit) = open(&data);
        assert!(hit, "second open is a hit");
        match (&part, &again) {
            (Partition::Text(a), Partition::Text(b)) => {
                assert!(Arc::ptr_eq(a, b), "hit returns the shared value")
            }
            _ => panic!("text partitions expected"),
        }

        // Overwrite: delete + create must drop the entry.
        dfs.delete("/idx/part-00000");
        dfs.write_string("/idx/part-00000", "7 8\n").unwrap();
        let fresh = dfs.read_bytes("/idx/part-00000").unwrap();
        let (part2, hit) = open(&fresh);
        assert!(!hit, "overwrite invalidates");
        assert_eq!(part2.len(), 1);
    }

    #[test]
    fn open_indexed_uses_persisted_sidecar() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        dfs.write_string("/idx/part-00001", "1 1\n9 9\n").unwrap();
        let tree = LocalRTree::build(vec![
            Rect::new(1.0, 1.0, 1.0, 1.0),
            Rect::new(9.0, 9.0, 9.0, 9.0),
        ]);
        dfs.write_string("/idx/_lidx-00001", &tree.to_text())
            .unwrap();
        let open = || {
            let data = dfs.read_bytes("/idx/part-00001").unwrap();
            let (part, _) =
                SpatialRecordReader::open_indexed_bytes::<Point>(&dfs, "/idx/part-00001", &data)
                    .unwrap();
            part
        };
        assert_eq!(open().tree().query(&Rect::new(0.0, 0.0, 5.0, 5.0)), vec![0]);

        // A stale sidecar (wrong cardinality) falls back to a rebuild.
        dfs.delete("/idx/part-00001");
        dfs.write_string("/idx/part-00001", "1 1\n9 9\n5 5\n")
            .unwrap();
        assert_eq!(open().tree().len(), 3, "stale sidecar ignored");
    }

    fn write_bytes(dfs: &Dfs, path: &str, data: &[u8]) {
        let mut w = dfs.create(path).unwrap();
        w.write_chunk(data);
        w.close().unwrap();
    }

    #[test]
    fn open_indexed_bytes_dispatches_on_format_and_caches() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let pts = vec![
            Point::new(1.0, 2.0),
            Point::new(3.0, 4.0),
            Point::new(5.0, 6.0),
        ];
        let blob = colblock::encode(&pts).unwrap();
        write_bytes(&dfs, "/idx/part-00000", &blob);
        let data = dfs.read_bytes("/idx/part-00000").unwrap();
        let q = Rect::new(2.0, 3.0, 4.0, 5.0);

        let (part, hit) =
            SpatialRecordReader::open_indexed_bytes::<Point>(&dfs, "/idx/part-00000", &data)
                .unwrap();
        assert!(!hit, "first open is a miss");
        assert_eq!(part.len(), 3);
        assert_eq!(part.tree().query(&q), vec![1]);
        assert_eq!(part.scan_filter(&q), vec![1]);
        assert_eq!(part.record(1), Point::new(3.0, 4.0));

        let (again, hit) =
            SpatialRecordReader::open_indexed_bytes::<Point>(&dfs, "/idx/part-00000", &data)
                .unwrap();
        assert!(hit, "second open is a hit");
        match (&part, &again) {
            (Partition::Binary(a), Partition::Binary(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("binary partitions expected"),
        }

        // Text data takes the text path through the same entry point.
        dfs.write_string("/idx/part-00001", "1 2\n3 4\n5 6\n")
            .unwrap();
        let tdata = dfs.read_bytes("/idx/part-00001").unwrap();
        let (tpart, _) =
            SpatialRecordReader::open_indexed_bytes::<Point>(&dfs, "/idx/part-00001", &tdata)
                .unwrap();
        assert!(matches!(tpart, Partition::Text(_)));
        assert_eq!(tpart.scan_filter(&q), vec![1]);

        // Corrupt SHCB data (valid magic, truncated payload) is an error,
        // not a panic.
        assert!(matches!(
            SpatialRecordReader::open_indexed_bytes::<Point>(
                &dfs,
                "/idx/part-00002",
                &blob[..blob.len() - 3]
            ),
            Err(OpError::Corrupt(_))
        ));
    }

    #[test]
    fn read_repair_drops_the_cached_partition() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let pts = vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)];
        write_bytes(&dfs, "/idx/part-00000", &colblock::encode(&pts).unwrap());
        let open = |data: &[u8]| {
            SpatialRecordReader::open_indexed_bytes::<Point>(&dfs, "/idx/part-00000", data).unwrap()
        };
        let data = dfs.read_bytes("/idx/part-00000").unwrap();
        assert!(!open(&data).1, "first open is a miss");

        dfs.corrupt_replica("/idx/part-00000", 0, CorruptKind::Flip);
        // Silent corruption is silent: the entry is still served.
        assert!(open(&data).1);

        // Reading through the rotten replica repairs it, which must drop
        // the path's cache entry: the next open decodes the repaired bytes.
        let info = dfs.block_locations("/idx/part-00000").unwrap()[0].clone();
        let (repaired, _) = dfs.read_block(info.id, info.replicas[0]).unwrap();
        assert_eq!(&repaired[..], &data[..], "repair serves the written bytes");
        let (part, hit) = open(&repaired);
        assert!(!hit, "read-repair invalidates the path");
        assert_eq!(part.record(1), pts[1]);
        assert!(open(&repaired).1, "and the fresh decode is cached again");
    }

    #[test]
    fn corrupt_binary_sidecar_falls_back_to_rebuild() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let pts = vec![
            Point::new(1.0, 1.0),
            Point::new(9.0, 9.0),
            Point::new(5.0, 5.0),
        ];
        let blob = colblock::encode(&pts).unwrap();
        let good = LocalRTree::build(pts.iter().map(|p| Record::mbr(p)).collect()).to_bytes();
        let mut flipped = good.clone();
        flipped[4] ^= 0x7f; // version byte
        let cases: [(&str, &[u8]); 3] = [
            ("/f0/part-00000", &good[..4.min(good.len())]), // truncated header
            ("/f1/part-00000", &flipped),                   // wrong version
            ("/f2/part-00000", &good[..good.len() - 5]),    // truncated payload
        ];
        let q = Rect::new(0.0, 0.0, 6.0, 6.0);
        for (part_path, sidecar_bytes) in cases {
            write_bytes(&dfs, part_path, &blob);
            write_bytes(&dfs, &local_index_path(part_path).unwrap(), sidecar_bytes);
            let data = dfs.read_bytes(part_path).unwrap();
            let (part, _) =
                SpatialRecordReader::open_indexed_bytes::<Point>(&dfs, part_path, &data).unwrap();
            // The rebuilt tree still answers correctly.
            assert_eq!(part.tree().len(), 3, "{part_path}: rebuilt from records");
            let mut hits = part.tree().query(&q);
            hits.sort_unstable();
            assert_eq!(hits, vec![0, 2], "{part_path}");
        }

        // And a pristine binary sidecar is actually used, not rebuilt.
        write_bytes(&dfs, "/ok/part-00000", &blob);
        write_bytes(&dfs, "/ok/_lidx-00000", &good);
        let data = dfs.read_bytes("/ok/part-00000").unwrap();
        let (part, _) =
            SpatialRecordReader::open_indexed_bytes::<Point>(&dfs, "/ok/part-00000", &data)
                .unwrap();
        assert_eq!(part.tree().to_bytes(), good, "sidecar loaded verbatim");
    }

    #[test]
    fn reference_point_is_owned_once() {
        let universe = Rect::new(0.0, 0.0, 100.0, 100.0);
        let cells = [
            Rect::new(0.0, 0.0, 50.0, 50.0),
            Rect::new(50.0, 0.0, 100.0, 50.0),
            Rect::new(0.0, 50.0, 50.0, 100.0),
            Rect::new(50.0, 50.0, 100.0, 100.0),
        ];
        // A pair of rects straddling the center: both replicated to all 4
        // cells; exactly one cell may report.
        let a = Rect::new(45.0, 45.0, 55.0, 55.0);
        let b = Rect::new(48.0, 48.0, 60.0, 60.0);
        let owners = cells
            .iter()
            .filter(|c| owns_pair(c, &universe, &a, &b))
            .count();
        assert_eq!(owners, 1);
        // Disjoint rects have no reference point.
        assert!(!owns_pair(
            &cells[0],
            &universe,
            &Rect::new(0.0, 0.0, 1.0, 1.0),
            &Rect::new(5.0, 5.0, 6.0, 6.0)
        ));
    }
}
