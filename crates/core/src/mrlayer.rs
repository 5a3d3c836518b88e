//! The spatial MapReduce layer: SpatialFileSplitter, SpatialRecordReader,
//! and the reference-point duplicate-avoidance rule.
//!
//! Records are the currency between the reader and the operations, and
//! the reader is the only code that knows a stored layout:
//!
//! ```text
//! split path  ──block cache hit──────▶ Arc<Partition>  (map_cached: no block read)
//! split bytes ──SpatialRecordReader──▶ records         (RecordMapper, run as ByRecords)
//!                                  └─▶ Arc<Partition>  (rows + local R-tree, cached)
//! ```
//!
//! An operation implements [`RecordMapper`] and never sees bytes. The
//! mappers that want the cached [`Partition`] (range, kNN, distributed
//! join) implement `sh_mapreduce::Mapper` themselves and go cache first:
//! `map_cached` asks `task_cached` before the engine reads the split,
//! and only on a miss does `map_bytes` open the bytes through
//! `SpatialRecordReader::open_after_probe`; both run one body, so a
//! hit and a miss emit the same rows. The polygon join's mapper, which
//! keeps the two inputs of a split apart, reads through [`task_inputs`].
//!
//! Text is read by `sh_geom::text::scan`, one forward pass over the
//! bytes. A text partition keeps its text and each record's line start
//! next to the parsed records. Its lines are its records' `write_line`
//! (only the index build writes them), so [`Partition::write_record`]
//! copies an answer's line instead of rendering it; debug builds check
//! every copy against the render.

use std::hash::Hash;
use std::mem::size_of;
use std::sync::{Arc, OnceLock};

use sh_dfs::{Dfs, DfsError};
use sh_geom::{text, Point, Record, Rect};
use sh_index::{owns_point, LocalRTree};
use sh_mapreduce::{InputSplit, MapContext, Mapper};

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

/// SpatialRecordReader: the one place that turns stored bytes into what
/// an operation sees — records for a scan, a [`Partition`] (rows + local
/// R-tree) for an index-assisted map function. Only this type knows the
/// text and `SHCB` layouts. Every function returns corrupt bytes as
/// [`OpError::Corrupt`]; map tasks pass the result through [`task`].
pub struct SpatialRecordReader;

impl SpatialRecordReader {
    /// [`SpatialRecordReader::records_bytes`] for text already known to
    /// be UTF-8, failing the calling task on a corrupt line.
    pub fn records<R: Record>(data: &str) -> Vec<R> {
        Self::records_bytes(data.as_bytes())
            .unwrap_or_else(|e| sh_mapreduce::fail_corrupt(e.to_string()))
    }

    /// Reads a split: any number of `SHCB` blocks stored back to back
    /// (a multi-partition split), each cut by the length its own header
    /// states and then fully validated by [`colblock::decode`], followed
    /// by whatever remains as UTF-8 text lines.
    pub fn records_bytes<R: Record>(mut data: &[u8]) -> Result<Vec<R>, OpError> {
        let mut out = Vec::new();
        while colblock::is_binary(data) {
            // An unusable or overlong stated length leaves the whole rest
            // to `decode`, which names what is wrong with it.
            let len = colblock::stated_len(data).map_or(data.len(), |l| l.min(data.len()));
            let (head, rest) = data.split_at(len);
            out.extend(colblock::decode(head)?.records::<R>());
            data = rest;
        }
        let records = text::scan_all(utf8(data)?).map_err(corrupt_line)?;
        if out.is_empty() {
            return Ok(records);
        }
        out.extend(records);
        Ok(out)
    }

    /// Opens a partition for index-assisted processing through the
    /// per-node cache: [`SpatialRecordReader::cached`], then on a miss
    /// decode, index and insert (`open_after_probe`). Returns the partition
    /// and whether the cache was hit.
    pub fn open_indexed_bytes<R: Record>(
        dfs: &Dfs,
        path: &str,
        data: &[u8],
    ) -> Result<(Arc<Partition<R>>, bool), OpError> {
        match Self::cached(dfs, path) {
            Some(part) => Ok((part, true)),
            None => Ok((Self::open_after_probe(dfs, path, data, &[])?, false)),
        }
    }

    /// The partition cached under `path`, counted as one cache hit or
    /// miss. Keyed by the partition path itself so the DFS's per-path
    /// invalidation (delete, overwrite, read-repair) hits the entry. This
    /// is what an index-assisted map task asks before any block of its
    /// split is read: a hit serves a decode of bytes that were verified
    /// against their CRC when they were cached.
    pub fn cached<R: Record>(dfs: &Dfs, path: &str) -> Option<Arc<Partition<R>>> {
        dfs.cache().get(path)?.downcast::<Partition<R>>().ok()
    }

    /// The rest of an open, for a caller whose [`SpatialRecordReader::cached`]
    /// probe already counted the lookup: the partition now cached under
    /// `path` if there is one (found by that probe, or inserted since by a
    /// concurrent task), otherwise `data` decoded (binary blocks keep
    /// their shared coordinate columns, text is parsed into records), the
    /// records' MBRs taken once, the persisted `_lidx-NNNNN` topology
    /// loaded over them (STR bulk-loading them instead for heap files and
    /// for missing, corrupt, outdated or stale sidecars), and the result
    /// cached keyed by `path`. Counts nothing. `blocks` are the DFS blocks
    /// the task read, which a text partition shares its bytes with (see
    /// [`SpatialRecordReader::open_scan`]).
    pub(crate) fn open_after_probe<R: Record>(
        dfs: &Dfs,
        path: &str,
        data: &[u8],
        blocks: &[Arc<[u8]>],
    ) -> Result<Arc<Partition<R>>, OpError> {
        if let Some(part) = dfs.cache().peek(path).and_then(|v| v.downcast().ok()) {
            return Ok(part);
        }
        // `data` was read before this point; if a concurrent job
        // invalidates the path (overwrite, node kill) while we decode,
        // the epoch check in `put_at` drops the stale insert.
        let epoch = dfs.cache().epoch();
        let mut part = Self::open_scan::<R>(data, blocks)?;
        let rects: Vec<Rect> = (0..part.len()).map(|i| part.mbr_of(i)).collect();
        // A sidecar is only ever a shortcut to the tree `build` would
        // give: whatever `from_bytes` cannot prove to be a tree over
        // these very rectangles comes back with them, to be rebuilt.
        let sidecar = local_index_path(path).and_then(|p| dfs.read_bytes(&p).ok());
        part.tree = match sidecar {
            Some(raw) => {
                LocalRTree::from_bytes(&raw, rects).unwrap_or_else(|e| LocalRTree::build(e.rects))
            }
            None => LocalRTree::build(rects),
        };
        let part = Arc::new(part);
        dfs.cache()
            .put_at(path, part.clone(), part.resident_bytes(), epoch);
        Ok(part)
    }

    /// Opens a partition for a one-shot linear scan: no cache, an empty
    /// tree — the ablation path (experiment A4). A binary partition file
    /// is exactly one block and keeps its columnar layout, so
    /// [`Partition::scan_filter`] still runs the column loop. A text
    /// partition keeps what its one scan read: the records, each one's
    /// line start, and the bytes themselves, as the block of `blocks`
    /// (the task's `MapContext::input_blocks`) that `data` is (the same
    /// address and length), shared, so a cached partition costs no
    /// second copy of its text; or else as a copy.
    pub fn open_scan<R: Record>(
        data: &[u8],
        blocks: &[Arc<[u8]>],
    ) -> Result<Partition<R>, OpError> {
        let rows = if colblock::is_binary(data) {
            Rows::Columns(colblock::decode(data)?)
        } else {
            let source = utf8(data)?;
            if u32::try_from(source.len()).is_err() {
                return Err(OpError::Corrupt(format!(
                    "text partition of {} bytes: line offsets are 32-bit",
                    source.len()
                )));
            }
            let lines = text::line_count(source);
            let (mut records, mut starts) = (Vec::with_capacity(lines), Vec::with_capacity(lines));
            text::scan(source, |start, record| {
                records.push(record);
                starts.push(start as u32);
            })
            .map_err(corrupt_line)?;
            let text = match blocks.iter().find(|block| std::ptr::eq(&***block, data)) {
                Some(block) => block.clone(),
                None => Arc::from(data),
            };
            Rows::Text {
                records,
                text,
                starts,
            }
        };
        Ok(Partition {
            rows,
            tree: LocalRTree::build(Vec::new()),
            x_order: OnceLock::new(),
        })
    }
}

/// Split or partition bytes as text.
fn utf8(data: &[u8]) -> Result<&str, OpError> {
    std::str::from_utf8(data)
        .map_err(|e| OpError::Corrupt(format!("partition is not UTF-8 text: {e}")))
}

/// A line the scanner rejected, quoted.
fn corrupt_line(e: text::LineError<'_>) -> OpError {
    OpError::Corrupt(e.to_string())
}

/// Unwraps a reader result inside a map task: corrupt input fails the
/// task (and the job) cleanly as [`sh_mapreduce::JobError::CorruptInput`]
/// naming the split, instead of panicking the worker.
pub fn task<T>(split_path: &str, result: Result<T, OpError>) -> T {
    result.unwrap_or_else(|e| sh_mapreduce::fail_corrupt(format!("{split_path}: {e}")))
}

/// [`SpatialRecordReader::cached`] inside a map task: also counts the
/// lookup as the job counter `cache.hits` or `cache.misses`, so a
/// `PROFILE`d query shows its own hit rate.
pub(crate) fn task_cached<R: Record, K, V>(
    dfs: &Dfs,
    path: &str,
    ctx: &mut MapContext<K, V>,
) -> Option<Arc<Partition<R>>> {
    let part = SpatialRecordReader::cached(dfs, path);
    let counter = ctx.register_counter(if part.is_some() {
        "cache.hits"
    } else {
        "cache.misses"
    });
    ctx.inc(counter, 1);
    part
}

/// A map function over a split's *records*: what an operation implements
/// when it does not care how the split is stored. Run it as
/// [`ByRecords`].
pub trait RecordMapper: Send + Sync {
    /// Record type the split holds.
    type R: Record;
    /// Intermediate key type.
    type K: Clone + Ord + Hash + Send + Sync + 'static;
    /// Intermediate value type.
    type V: Clone + Send + Sync + 'static;

    /// Processes one split's records (both inputs of a two-input split,
    /// first input first).
    fn map_records(
        &self,
        split: &InputSplit,
        records: Vec<Self::R>,
        ctx: &mut MapContext<Self::K, Self::V>,
    );
}

/// The one [`Mapper`] for record-level operations: reads the split
/// through [`task_inputs`] and hands all its records to the wrapped
/// [`RecordMapper`].
pub struct ByRecords<M>(pub M);

impl<M: RecordMapper> Mapper for ByRecords<M> {
    type K = M::K;
    type V = M::V;

    fn map_bytes(&self, split: &InputSplit, data: &[u8], ctx: &mut MapContext<M::K, M::V>) {
        let (mut records, second) = task_inputs(split, data);
        records.extend(second);
        self.0.map_records(split, records, ctx);
    }
}

/// Reads both inputs of a split inside a map task, cut at
/// `first_input_bytes` (the second is empty for a one-input split) and
/// each read on its own, so a binary partition can be paired with a text
/// file. For map functions that must keep the two sides apart.
pub fn task_inputs<R: Record>(split: &InputSplit, data: &[u8]) -> (Vec<R>, Vec<R>) {
    let (first, second) = split.split_data_bytes(data);
    let read = |bytes| task(&split.path, SpatialRecordReader::records_bytes(bytes));
    (read(first), read(second))
}

/// A partition opened by the [`SpatialRecordReader`]: its rows in
/// whichever layout they were stored, plus the partition's local R-tree.
/// Shared via the block cache as one `Arc<Partition<R>>`.
pub struct Partition<R: Record> {
    rows: Rows<R>,
    tree: LocalRTree,
    /// Record indices in ascending MBR `x1`, sorted on first use.
    x_order: OnceLock<Vec<u32>>,
}

enum Rows<R> {
    /// Text partition: the parsed records, the UTF-8 text they were
    /// parsed from, and where in it each record's line starts.
    Text {
        records: Vec<R>,
        text: Arc<[u8]>,
        starts: Vec<u32>,
    },
    /// Binary partition: shared coordinate columns.
    Columns(ColumnarBlock),
}

impl<R: Record> Partition<R> {
    /// Number of records in the partition.
    pub fn len(&self) -> usize {
        match &self.rows {
            Rows::Text { records, .. } => records.len(),
            Rows::Columns(block) => block.count,
        }
    }

    /// True when the partition holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The partition's local R-tree.
    pub fn tree(&self) -> &LocalRTree {
        &self.tree
    }

    /// MBR of record `i`.
    #[inline]
    pub fn mbr_of(&self, i: usize) -> Rect {
        match &self.rows {
            Rows::Text { records, .. } => records[i].mbr(),
            Rows::Columns(block) => block.mbr(i),
        }
    }

    /// Materializes record `i`.
    pub fn record(&self, i: usize) -> R {
        match &self.rows {
            Rows::Text { records, .. } => records[i].clone(),
            Rows::Columns(block) => block.record::<R>(i),
        }
    }

    /// Appends record `i`'s text encoding to `out` (result lines stay
    /// text in both formats, so outputs are byte-identical). A text
    /// partition's lines are its records' `write_line` (only the index
    /// build writes them), so its line is copied; a binary one renders.
    pub fn write_record(&self, i: usize, out: &mut String) {
        match &self.rows {
            Rows::Text {
                records,
                text,
                starts,
            } => {
                let start = starts[i] as usize;
                let line = std::str::from_utf8(&text[start..text::line_end(text, start)])
                    .expect("cut at line ends of text that was scanned as UTF-8");
                debug_assert_eq!(line, records[i].to_line(), "a non-canonical partition line");
                out.push_str(line);
            }
            Rows::Columns(block) => block.record::<R>(i).write_line(out),
        }
    }

    /// Indices of records whose MBR intersects `q` without consulting
    /// the tree, ascending. Text scans the parsed records; binary
    /// iterates the coordinate columns directly (the zero-copy hot loop).
    pub fn scan_filter(&self, q: &Rect) -> Vec<usize> {
        match &self.rows {
            Rows::Text { records, .. } => (0..records.len())
                .filter(|&i| records[i].mbr().intersects(q))
                .collect(),
            Rows::Columns(block) => block.mbr_filter(q),
        }
    }

    /// Record indices in ascending MBR `x1`, ties in index order (the
    /// distributed join's sweep order). Sorted on the first call and
    /// kept, 4 B a record; that call also charges those bytes to the
    /// cache entry under `path` when the entry is this partition.
    pub fn x_order(&self, dfs: &Dfs, path: &str) -> &[u32] {
        let mut sorted = false;
        let order = self.x_order.get_or_init(|| {
            sorted = true;
            let mut order: Vec<u32> = (0..self.len() as u32).collect();
            order.sort_by(|&a, &b| {
                let (a, b) = (self.mbr_of(a as usize), self.mbr_of(b as usize));
                a.x1.total_cmp(&b.x1)
            });
            order
        });
        if sorted {
            let this: *const Self = self;
            dfs.cache()
                .recharge(path, this as *const (), self.resident_bytes());
        }
        order
    }

    /// Bytes the cache charges for the partition: its rows (parsed text
    /// also charges the text itself), 32 B a tree rectangle, and the
    /// x-order once it is sorted.
    fn resident_bytes(&self) -> u64 {
        let rows = match &self.rows {
            Rows::Text { records, text, .. } => text.len() + records.len() * size_of::<R>(),
            Rows::Columns(block) => block.resident_bytes(),
        };
        let order = self.x_order.get().map_or(0, |o| o.len() * size_of::<u32>());
        (rows + self.tree.len() * 32 + order) as u64
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
        assert!(Arc::ptr_eq(&part, &again), "hit returns the shared value");

        // Overwrite: delete + create must drop the entry.
        dfs.delete("/idx/part-00000");
        dfs.write_string("/idx/part-00000", "7 8\n").unwrap();
        let fresh = dfs.read_bytes("/idx/part-00000").unwrap();
        let (part2, hit) = open(&fresh);
        assert!(!hit, "overwrite invalidates");
        assert_eq!(part2.len(), 1);
    }

    /// Opens `path` the way a map task does: read, then decode + index.
    fn open_fresh(dfs: &Dfs, path: &str) -> Arc<Partition<Point>> {
        let data = dfs.read_bytes(path).unwrap();
        let (part, hit) = SpatialRecordReader::open_indexed_bytes(dfs, path, &data).unwrap();
        assert!(!hit, "{path}: expected a cold open");
        part
    }

    fn point_rects(pts: &[Point]) -> Vec<Rect> {
        pts.iter().map(Record::mbr).collect()
    }

    #[test]
    fn open_indexed_uses_persisted_sidecar() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        dfs.write_string("/idx/part-00001", "1 1\n9 9\n").unwrap();
        let pts = [Point::new(1.0, 1.0), Point::new(9.0, 9.0)];
        // A valid tree no bulk-load produces: the one leaf's two entries
        // (the blob's last eight bytes) swapped. Getting it back byte for
        // byte means the sidecar was loaded, not rebuilt.
        let built = LocalRTree::build(point_rects(&pts)).to_bytes();
        let mut swapped = built.clone();
        let n = swapped.len();
        swapped[n - 8..].rotate_left(4);
        assert_ne!(swapped, built);
        write_bytes(&dfs, "/idx/_lidx-00001", &swapped);
        let part = open_fresh(&dfs, "/idx/part-00001");
        assert_eq!(part.tree().to_bytes(), swapped, "sidecar loaded verbatim");
        assert_eq!(part.tree().query(&Rect::new(0.0, 0.0, 5.0, 5.0)), vec![0]);

        // A stale sidecar (wrong cardinality) falls back to a rebuild.
        dfs.delete("/idx/part-00001");
        dfs.write_string("/idx/part-00001", "1 1\n9 9\n5 5\n")
            .unwrap();
        assert_eq!(
            open_fresh(&dfs, "/idx/part-00001").tree().len(),
            3,
            "stale sidecar ignored"
        );
    }

    #[test]
    fn stale_sidecar_of_equal_cardinality_is_rebuilt_not_believed() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let old = [
            Point::new(50.0, 50.0),
            Point::new(60.0, 60.0),
            Point::new(70.0, 70.0),
        ];
        let new = [
            Point::new(1.0, 1.0),
            Point::new(9.0, 9.0),
            Point::new(5.0, 5.0),
        ];
        crate::storage::upload(&dfs, "/idx/part-00000", &old).unwrap();
        write_bytes(
            &dfs,
            "/idx/_lidx-00000",
            &LocalRTree::build(point_rects(&old)).to_bytes(),
        );
        let q = Rect::new(0.0, 0.0, 6.0, 6.0);
        assert!(open_fresh(&dfs, "/idx/part-00000")
            .tree()
            .query(&q)
            .is_empty());

        // Overwrite the partition with as many *different* records and
        // leave the old sidecar: CRC-valid, right cardinality, wrong tree.
        dfs.delete("/idx/part-00000");
        crate::storage::upload(&dfs, "/idx/part-00000", &new).unwrap();
        let part = open_fresh(&dfs, "/idx/part-00000");
        let scan: Vec<usize> = (0..new.len())
            .filter(|&i| part.mbr_of(i).intersects(&q))
            .collect();
        assert_eq!(scan, vec![0, 2]);
        assert_eq!(
            part.tree().query(&q),
            scan,
            "answered from stale rectangles"
        );
    }

    /// A cached text partition of one DFS block holds that block's own
    /// allocation, whether a range task read it alone or a distributed
    /// join task read it as one side of a pair; one spanning two blocks
    /// holds its own copy of their bytes.
    #[test]
    fn a_one_block_text_partition_shares_its_block_and_a_two_block_one_copies() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let rect = |i: usize, x0: f64| {
            let (x, y) = (x0 + (i % 40) as f64, 5.0 + (i / 40) as f64 * 0.5);
            Rect::new(x, y, x + 0.25, y + 0.75)
        };
        let parts: [Vec<Rect>; 2] = [
            (0..20).map(|i| rect(i, 1.0)).collect(),
            (0..600).map(|i| rect(i, 55.0)).collect(),
        ];
        let mut partitions = Vec::new();
        for (id, rects) in parts.iter().enumerate() {
            let path = format!("/share/part-{id:05}");
            let text: String = rects.iter().map(|r| r.to_line() + "\n").collect();
            dfs.write_string(&path, &text).unwrap();
            let mut mbr = rects[0];
            rects.iter().for_each(|r| mbr.expand(r));
            partitions.push(PartitionMeta {
                id,
                path,
                cell: [50.0 * id as f64, 0.0, 50.0 * (id + 1) as f64, 100.0],
                mbr: [mbr.x1, mbr.y1, mbr.x2, mbr.y2],
                records: rects.len() as u64,
                bytes: text.len() as u64,
            });
        }
        let file = SpatialFile {
            dir: "/share".into(),
            kind: PartitionKind::Grid,
            universe: Rect::new(0.0, 0.0, 100.0, 100.0),
            partitions,
        };
        let blocks = |path: &str| -> Vec<Arc<[u8]>> {
            let infos = dfs.block_locations(path).unwrap();
            infos
                .iter()
                .map(|b| dfs.read_block(b.id, 0).unwrap().0)
                .collect()
        };
        assert_eq!(blocks("/share/part-00000").len(), 1);
        assert_eq!(blocks("/share/part-00001").len(), 2);
        let cached_text = |path: &str| -> Arc<[u8]> {
            let part = SpatialRecordReader::cached::<Rect>(&dfs, path).expect("cached");
            match &part.rows {
                Rows::Text { text, .. } => text.clone(),
                Rows::Columns(_) => panic!("{path}: a text partition"),
            }
        };
        let check = |how: &str| {
            let one = cached_text("/share/part-00000");
            assert!(Arc::ptr_eq(&one, &blocks("/share/part-00000")[0]), "{how}");
            let two = cached_text("/share/part-00001");
            let shared = blocks("/share/part-00001")
                .iter()
                .any(|b| Arc::ptr_eq(&two, b));
            assert!(!shared, "{how}");
            assert_eq!(*two, *dfs.read_bytes("/share/part-00001").unwrap(), "{how}");
        };
        let everything = Rect::new(0.0, 0.0, 100.0, 100.0);
        crate::ops::range::range_spatial::<Rect>(&dfs, &file, &everything, "").unwrap();
        check("range");
        dfs.cache().clear();
        crate::ops::join::distributed_join_rows(&dfs, &file, &file).unwrap();
        check("distributed join");
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
        assert!(
            matches!(part.rows, Rows::Columns(_)),
            "binary keeps columns"
        );
        assert!(Arc::ptr_eq(&part, &again));

        // Text data takes the text path through the same entry point.
        dfs.write_string("/idx/part-00001", "1 2\n3 4\n5 6\n")
            .unwrap();
        let tdata = dfs.read_bytes("/idx/part-00001").unwrap();
        let (tpart, _) =
            SpatialRecordReader::open_indexed_bytes::<Point>(&dfs, "/idx/part-00001", &tdata)
                .unwrap();
        assert!(matches!(tpart.rows, Rows::Text { .. }));
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
    fn records_bytes_reads_blocks_stored_back_to_back() {
        let read = SpatialRecordReader::records_bytes::<Point>;
        let a = vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)];
        let b = vec![Point::new(5.0, 6.0)];
        let (block_a, block_b) = (colblock::encode(&a).unwrap(), colblock::encode(&b).unwrap());
        let both = [a, b].concat();

        // Two blocks; a block then text lines.
        assert_eq!(read(&[&block_a[..], &block_b[..]].concat()).unwrap(), both);
        assert_eq!(read(&[&block_a[..], b"5 6\n"].concat()).unwrap(), both);
        // A truncated second block is corrupt — not a panic, not a
        // silently shorter list.
        let cut = [&block_a[..], &block_b[..block_b.len() - 3]].concat();
        assert!(matches!(read(&cut), Err(OpError::Corrupt(_))));
        // Neither is a count that overflows the length arithmetic.
        let mut huge = block_a;
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(read(&huge), Err(OpError::Corrupt(_))));
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

    /// Hand-assembles an `SHLX` version 2 blob from `(leaf, mbr, entries)`
    /// nodes, so tests can write topologies no bulk-load produces.
    fn shlx(records: u64, root: i64, nodes: &[(bool, [f64; 4], &[u32])]) -> Vec<u8> {
        let mut out = b"SHLX\x02\x00".to_vec();
        out.extend_from_slice(&records.to_le_bytes());
        out.extend_from_slice(&(nodes.len() as u64).to_le_bytes());
        out.extend_from_slice(&root.to_le_bytes());
        for (leaf, mbr, entries) in nodes {
            out.push(u8::from(*leaf));
            out.extend(mbr.iter().flat_map(|v| v.to_le_bytes()));
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            out.extend(entries.iter().flat_map(|e| e.to_le_bytes()));
        }
        out
    }

    #[test]
    fn corrupt_binary_sidecar_falls_back_to_rebuild() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let pts = vec![
            Point::new(1.0, 1.0),
            Point::new(9.0, 9.0),
            Point::new(5.0, 5.0),
        ];
        let good = LocalRTree::build(point_rects(&pts)).to_bytes();
        let mut flipped = good.clone();
        flipped[4] ^= 0x7f; // version byte

        // Well-formed, CRC-valid blobs that are not a tree over `pts`.
        const ALL: [f64; 4] = [1.0, 1.0, 9.0, 9.0];
        const LOW: [f64; 4] = [1.0, 1.0, 5.0, 5.0];
        const HIGH: [f64; 4] = [9.0, 9.0, 9.0, 9.0];
        let two_leaves =
            |a: (bool, [f64; 4], &'static [u32]), b| shlx(3, 0, &[(false, ALL, &[1, 2]), a, b]);
        let valid = two_leaves((true, LOW, &[0, 2]), (true, HIGH, &[1]));
        let self_child = shlx(3, 0, &[(false, ALL, &[0, 1]), (true, ALL, &[0, 1, 2])]);
        let two_parents = shlx(
            3,
            0,
            &[
                (false, ALL, &[1, 2]),
                (false, ALL, &[3]),
                (false, ALL, &[3]),
                (true, ALL, &[0, 1, 2]),
            ],
        );
        let record_twice = two_leaves((true, LOW, &[0, 2]), (true, ALL, &[1, 2]));
        let record_missing = two_leaves((true, LOW, &[0]), (true, HIGH, &[1]));
        let shrunk_leaf = two_leaves((true, [1.0, 1.0, 4.0, 4.0], &[0, 2]), (true, HIGH, &[1]));

        let menu: [(&str, &[u8]); 10] = [
            ("truncated header", &good[..4]),
            ("wrong version", &flipped),
            ("truncated payload", &good[..good.len() - 5]),
            (
                "text, as older builds wrote",
                b"R 1 1 1 1\nR 9 9 9 9\nR 5 5 5 5\nN 1 1 1 9 9 0 1 2\n",
            ),
            ("self-referencing node", &self_child),
            ("node under two parents", &two_parents),
            ("record in two leaves", &record_twice),
            ("record in no leaf", &record_missing),
            ("leaf MBR misses an entry", &shrunk_leaf),
            ("empty file", &[]),
        ];
        let layouts: [(&str, Vec<u8>); 2] = [
            ("text", b"1 1\n9 9\n5 5\n".to_vec()),
            ("binary", colblock::encode(&pts).unwrap()),
        ];
        let q = Rect::new(0.0, 0.0, 6.0, 6.0);
        for (layout, rows) in &layouts {
            for (i, (what, sidecar_bytes)) in menu.iter().enumerate() {
                let part_path = format!("/{layout}{i}/part-00000");
                write_bytes(&dfs, &part_path, rows);
                write_bytes(&dfs, &local_index_path(&part_path).unwrap(), sidecar_bytes);
                let part = open_fresh(&dfs, &part_path);
                // Rejected: the tree is the one a bulk-load gives, and it
                // answers like a scan.
                assert_eq!(
                    part.tree().to_bytes(),
                    good,
                    "{layout}, {what}: not rebuilt"
                );
                assert_eq!(part.tree().query(&q), vec![0, 2], "{layout}, {what}");
            }

            // Pristine sidecars — the builder's, and a hand-made valid
            // tree that differs from it — are used, not rebuilt.
            for (i, ok) in [&good, &valid].into_iter().enumerate() {
                let part_path = format!("/{layout}-ok{i}/part-00000");
                write_bytes(&dfs, &part_path, rows);
                write_bytes(&dfs, &local_index_path(&part_path).unwrap(), ok);
                let part = open_fresh(&dfs, &part_path);
                assert_eq!(
                    &part.tree().to_bytes(),
                    ok,
                    "{layout}: sidecar loaded verbatim"
                );
                assert_eq!(part.tree().query(&q), vec![0, 2], "{layout}");
            }
        }
        assert_ne!(valid, good);
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
