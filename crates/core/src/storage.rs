//! The storage/indexing layer: heap-file loading and MapReduce index
//! building.
//!
//! Index construction follows SpatialHadoop's three phases, all paid for
//! in simulated cluster time:
//!
//! 1. **sample** — a map-only job draws a seeded reservoir sample from
//!    every split and reports each split's MBR and record count;
//! 2. **boundaries** — the driver (master node) computes the universe and
//!    the partition boundaries from the sample with the chosen technique;
//! 3. **partition** — a full MapReduce job routes every record to its
//!    partition(s) (replicating across disjoint cells where required) and
//!    hands the driver one `part-NNNNN` file per non-empty partition, with
//!    its `_lidx-NNNNN` sidecar, as side outputs; the driver writes them
//!    and the `_master` catalogue.
//!
//! Both jobs' mappers are [`RecordMapper`]s: a split is parsed once, by
//! the one `SpatialRecordReader`, and the partition job shuffles the
//! typed records, so its reducers parse nothing. A text partition holds
//! each record's `Record::write_line`, whatever spelling the heap used,
//! and this build is the only writer of partitions: the reader copies
//! answer lines straight out of them (`mrlayer::Partition::write_record`).

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Arc;

use sh_dfs::{Dfs, DfsError};
use sh_geom::{Point, Record, Rect};
use sh_index::sampler::{reservoir_sample, sample_size};
use sh_index::{GlobalPartitioning, PartitionKind, PartitionMeta};
use sh_mapreduce::{InputSplit, JobBuilder, MapContext, ReduceContext, Reducer, Rows};
use sh_trace::Span;

use crate::catalog::SpatialFile;
use crate::mrlayer::{ByRecords, RecordMapper};
use crate::opresult::{OpError, OpResult};
use crate::ops::side_text;

/// On-disk layout of the partition files an index build writes. Text is
/// the ingest format; binary is the columnar `SHCB` block layout (see
/// [`crate::colblock`]). Either way each partition gets an `SHLX`
/// local-index sidecar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockFormat {
    /// One record per text line.
    #[default]
    Text,
    /// Columnar coordinate arrays, scanned without re-parsing.
    Binary,
}

impl BlockFormat {
    /// Lower-case name, as written in Pigeon's `FORMAT` clause.
    pub fn name(self) -> &'static str {
        match self {
            BlockFormat::Text => "text",
            BlockFormat::Binary => "binary",
        }
    }
}

/// Driver-side corruption error quoting the offending line.
fn corrupt(what: &str, line: &str) -> OpError {
    OpError::Corrupt(format!("{what}: {}", sh_geom::text::quote(line)))
}

/// Writes records as a heap (unindexed) text file — the plain Hadoop
/// loader.
pub fn upload<R: Record>(dfs: &Dfs, path: &str, records: &[R]) -> Result<(), DfsError> {
    let mut w = dfs.create(path)?;
    let mut line = String::with_capacity(48);
    for r in records {
        line.clear();
        r.write_line(&mut line);
        w.write_line(&line);
    }
    w.close()?;
    Ok(())
}

/// Deletes every file under a directory prefix (driver-side cleanup).
pub fn delete_dir(dfs: &Dfs, dir: &str) {
    for path in dfs.list(&format!("{dir}/")) {
        dfs.delete(&path);
    }
}

// ---------------------------------------------------------------- sample

struct SampleMapper<R: Record> {
    per_split: usize,
    _r: PhantomData<fn() -> R>,
}

impl<R: Record> RecordMapper for SampleMapper<R> {
    type R = R;
    type K = u8;
    type V = u8;

    fn map_records(&self, split: &InputSplit, records: Vec<R>, ctx: &mut MapContext<u8, u8>) {
        let seed = split.blocks.first().map(|b| b.id.0).unwrap_or(0) ^ 0x5A17;
        // The MBR covers every record, also when the sample keeps none.
        let mut mbr = Rect::empty();
        records.iter().for_each(|r| mbr.expand(&r.mbr()));
        let centers = records.iter().map(|r| r.mbr().center());
        let sample: Vec<Point> = reservoir_sample(centers, self.per_split, seed);
        for p in sample {
            ctx.output(&format!("S {} {}", p.x, p.y));
        }
        if !mbr.is_empty() {
            ctx.output(&format!("M {} {} {} {}", mbr.x1, mbr.y1, mbr.x2, mbr.y2));
        }
        ctx.counter("sample.records", records.len() as u64);
    }
}

// ------------------------------------------------------------- partition

struct PartitionMapper<R: Record> {
    gp: Arc<GlobalPartitioning>,
    _r: PhantomData<fn() -> R>,
}

impl<R: Record> RecordMapper for PartitionMapper<R> {
    type R = R;
    type K = u64;
    type V = R;

    fn map_records(&self, _split: &InputSplit, records: Vec<R>, ctx: &mut MapContext<u64, R>) {
        let counted = ctx.register_counter("index.records");
        let replicas = ctx.register_counter("index.replicas");
        ctx.inc(counted, records.len() as u64);
        for r in &records {
            let targets = self.gp.assign(&r.mbr());
            ctx.inc(replicas, targets.len() as u64);
            for pid in targets {
                ctx.emit(pid as u64, r.clone());
            }
        }
    }
}

struct PartitionReducer<R: Record> {
    format: BlockFormat,
    _r: PhantomData<fn() -> R>,
}

impl<R: Record> Reducer for PartitionReducer<R> {
    type K = u64;
    type V = R;

    fn reduce(&self, pid: &u64, records: Vec<R>, ctx: &mut ReduceContext) {
        let name = format!("part-{pid:05}");
        let sidecar = format!("_lidx-{pid:05}");
        let rects: Vec<Rect> = records.iter().map(|r| r.mbr()).collect();
        let mut mbr = Rect::empty();
        for m in &rects {
            mbr.expand(m);
        }
        // Persist the topology of the partition's local R-tree next to its
        // data, in the one `SHLX` encoding whatever the block format, so
        // query jobs load it instead of re-running the STR bulk-load.
        let tree = sh_index::LocalRTree::build(rects);
        let bytes = match self.format {
            BlockFormat::Text => {
                let mut line = String::with_capacity(48);
                let mut bytes = 0u64;
                for r in &records {
                    line.clear();
                    r.write_line(&mut line);
                    bytes += line.len() as u64 + 1;
                    ctx.side_output(&name, &line);
                }
                bytes
            }
            BlockFormat::Binary => {
                let blob = crate::colblock::encode(&records)
                    .unwrap_or_else(|e| sh_mapreduce::fail_corrupt(format!("{name}: {e}")));
                ctx.side_output_bytes(&name, &blob);
                blob.len() as u64
            }
        };
        ctx.side_output_bytes(&sidecar, &tree.to_bytes());
        ctx.counter("index.local_trees", 1);
        // The partition's catalogue entry goes to the driver as a row.
        let count = records.len();
        ctx.output(&format!(
            "{pid} {count} {bytes} {} {} {} {}",
            mbr.x1, mbr.y1, mbr.x2, mbr.y2
        ));
    }
}

/// Bulk-builds a spatial index over a heap file.
///
/// Returns the [`SpatialFile`] handle plus the job outcomes (two rounds:
/// sample + partition), whose summed simulated time is the index
/// construction cost that experiment E1 reports.
pub fn build_index<R: Record>(
    dfs: &Dfs,
    heap: &str,
    index_dir: &str,
    kind: PartitionKind,
) -> Result<OpResult<SpatialFile>, OpError> {
    build_index_fmt::<R>(dfs, heap, index_dir, kind, BlockFormat::Text)
}

/// [`build_index`] with an explicit partition-file layout: Pigeon's
/// `INDEX ... FORMAT binary;` lands here. Binary is only defined for
/// record types with fixed coordinate columns (points, rectangles).
pub fn build_index_fmt<R: Record>(
    dfs: &Dfs,
    heap: &str,
    index_dir: &str,
    kind: PartitionKind,
    format: BlockFormat,
) -> Result<OpResult<SpatialFile>, OpError> {
    if format == BlockFormat::Binary && R::BINARY_KIND.is_none() {
        return Err(OpError::Unsupported(format!(
            "binary block format is not defined for {}",
            std::any::type_name::<R>()
        )));
    }
    refuse_live_index(dfs, index_dir)?;
    let root = Span::root(format!("index-build:{heap}"));
    root.attr("technique", kind.name());
    root.attr("format", format.name());
    let stat = dfs.stat(heap)?;
    let target_partitions = (stat.len.div_ceil(dfs.config().block_size)).max(1) as usize;

    // Phase 1: sample job.
    let sample_span = root.child("sample");
    let num_splits = stat.num_blocks.max(1);
    let want_sample = sample_size(stat.len / 16, 0.01); // records ≈ bytes/16
    let sample_job = JobBuilder::new(dfs, &format!("sample:{heap}"))
        .input_file(heap)?
        .mapper(ByRecords(SampleMapper::<R> {
            per_split: want_sample.div_ceil(num_splits),
            _r: PhantomData,
        }))
        .map_only()?
        .run()?;
    let mut sample: Vec<Point> = Vec::new();
    let mut universe = Rect::empty();
    parse_sample_output(&sample_job.rows, &mut sample, &mut universe)?;
    sample_span.attr("points", sample.len());
    sample_span.finish();
    sh_trace::global().counter_add("index.sample.points", sample.len() as u64);
    if universe.is_empty() {
        return Err(OpError::Unsupported(format!("{heap}: empty input file")));
    }

    // Phase 2: boundaries on the driver.
    let boundaries_span = root.child("boundaries");
    let gp = Arc::new(GlobalPartitioning::build(
        kind,
        &sample,
        universe,
        target_partitions,
    ));
    boundaries_span.attr("cells", gp.len());
    boundaries_span.finish();
    partition_phase::<R>(
        dfs,
        heap,
        index_dir,
        gp,
        format,
        vec![sample_job],
        Some(root),
    )
}

/// Parses the sample job's `S x y` / `M x1 y1 x2 y2` output lines.
/// Malformed lines — wrong arity, unparseable or non-finite numbers —
/// are [`OpError::Corrupt`], not driver panics.
fn parse_sample_output(
    rows: &Rows,
    sample: &mut Vec<Point>,
    universe: &mut Rect,
) -> Result<(), OpError> {
    fn coord(tok: Option<&str>, what: &str, line: &str) -> Result<f64, OpError> {
        tok.and_then(|t| t.parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .ok_or_else(|| corrupt(what, line))
    }
    for line in rows.lines() {
        let mut it = line.split_ascii_whitespace();
        match it.next() {
            Some("S") => {
                let x = coord(it.next(), "bad sample point", line)?;
                let y = coord(it.next(), "bad sample point", line)?;
                sample.push(Point::new(x, y));
            }
            Some("M") => {
                let mut v = [0.0f64; 4];
                for slot in &mut v {
                    *slot = coord(it.next(), "bad split MBR", line)?;
                }
                if it.next().is_some() {
                    return Err(corrupt("bad split MBR", line));
                }
                universe.expand(&Rect::new(v[0], v[1], v[2], v[3]));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Refuses an index directory that already holds `part-*` files: it is a
/// live index, and this build's files would land among its partitions.
fn refuse_live_index(dfs: &Dfs, index_dir: &str) -> Result<(), OpError> {
    if dfs.list(&format!("{index_dir}/part-")).is_empty() {
        Ok(())
    } else {
        Err(OpError::Unsupported(format!(
            "index directory {index_dir} already contains part files"
        )))
    }
}

/// Writes the partition job's side outputs into the index directory in
/// the order and with the block boundaries the files always had: text
/// partitions first, record-aligned, then the binary files (`SHCB`
/// partitions and `SHLX` sidecars) cut at the block size, each group by
/// name.
fn write_partition_files(
    dfs: &Dfs,
    index_dir: &str,
    side: BTreeMap<String, Vec<u8>>,
    format: BlockFormat,
) -> Result<(), OpError> {
    let (text, binary): (Vec<_>, Vec<_>) = side
        .into_iter()
        .partition(|(name, _)| format == BlockFormat::Text && name.starts_with("part-"));
    // By value: each buffer is freed once its file is written.
    for (name, buf) in text {
        let mut w = dfs.create(&format!("{index_dir}/{name}"))?;
        w.write_str(side_text(&name, &buf)?);
        w.close()?;
    }
    for (name, buf) in binary {
        let mut w = dfs.create(&format!("{index_dir}/{name}"))?;
        w.write_chunk(&buf);
        w.close()?;
    }
    Ok(())
}

/// Indexes a heap file with an *existing* partitioning — co-partitioning
/// for the distributed join: both join inputs share boundaries, so every
/// partition pairs with exactly one counterpart.
pub fn build_index_with<R: Record>(
    dfs: &Dfs,
    heap: &str,
    index_dir: &str,
    gp: Arc<GlobalPartitioning>,
) -> Result<OpResult<SpatialFile>, OpError> {
    refuse_live_index(dfs, index_dir)?;
    partition_phase::<R>(
        dfs,
        heap,
        index_dir,
        gp,
        BlockFormat::Text,
        Vec::new(),
        None,
    )
}

fn partition_phase<R: Record>(
    dfs: &Dfs,
    heap: &str,
    index_dir: &str,
    gp: Arc<GlobalPartitioning>,
    format: BlockFormat,
    mut jobs: Vec<sh_mapreduce::JobOutcome>,
    root: Option<Span>,
) -> Result<OpResult<SpatialFile>, OpError> {
    let kind = gp.kind();
    let universe = gp.universe();
    let root = root.unwrap_or_else(|| Span::root(format!("index-build:{heap}")));

    // Phase 3: the partition job assigns every record to its cell(s) and
    // the reducers build the local per-partition files.
    let assign_span = root.child("assign+local-build");
    let reducers = gp.len().min(dfs.config().total_reduce_slots()).max(1);
    let mut partition_job = JobBuilder::new(dfs, &format!("partition:{heap}:{}", kind.name()))
        .input_file(heap)?
        .mapper(ByRecords(PartitionMapper::<R> {
            gp: gp.clone(),
            _r: PhantomData,
        }))
        .reducer(
            PartitionReducer::<R> {
                format,
                _r: PhantomData,
            },
            reducers,
        )
        .build()?
        .run()?;
    assign_span.attr("reducers", reducers);
    assign_span.finish();
    let side = std::mem::take(&mut partition_job.side);
    write_partition_files(dfs, index_dir, side, format)?;

    // Assemble and persist the catalogue from the reducers' rows.
    let mut partitions: Vec<PartitionMeta> = Vec::new();
    for line in partition_job.rows.lines() {
        let toks: Vec<&str> = line.split_ascii_whitespace().collect();
        if toks.len() != 7 {
            return Err(corrupt("bad partition meta line", line));
        }
        let pid: usize = toks[0]
            .parse()
            .map_err(|_| corrupt("bad partition id", line))?;
        if pid >= gp.len() {
            return Err(corrupt("partition id out of range", line));
        }
        let records: u64 = toks[1]
            .parse()
            .map_err(|_| corrupt("bad partition record count", line))?;
        let bytes: u64 = toks[2]
            .parse()
            .map_err(|_| corrupt("bad partition byte count", line))?;
        let mut m = [0.0f64; 4];
        for (slot, tok) in m.iter_mut().zip(&toks[3..7]) {
            *slot = tok
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .ok_or_else(|| corrupt("bad partition MBR", line))?;
        }
        let cell = gp.cell(pid);
        partitions.push(PartitionMeta {
            id: pid,
            path: format!("{index_dir}/part-{pid:05}"),
            cell: [cell.x1, cell.y1, cell.x2, cell.y2],
            mbr: [m[0], m[1], m[2], m[3]],
            records,
            bytes,
        });
    }
    partitions.sort_by_key(|p| p.id);

    // Report the build into the global registry and graft the engine's
    // per-job span trees under the matching build phase, so the
    // partition job's profile carries the full index-build trace.
    let g = sh_trace::global();
    g.counter_add("index.builds", 1);
    g.counter_add("index.partitions", partitions.len() as u64);
    g.counter_add("index.records", partitions.iter().map(|p| p.records).sum());
    g.counter_add("index.bytes", partitions.iter().map(|p| p.bytes).sum());
    for p in &partitions {
        g.observe("index.partition.bytes", p.bytes);
    }
    root.finish();
    let mut trace = root.record();
    for phase in trace.children.iter_mut() {
        let grafted = match phase.name.as_str() {
            "sample" => jobs.first().and_then(|j| j.profile.spans.clone()),
            "assign+local-build" => partition_job.profile.spans.clone(),
            _ => None,
        };
        if let Some(spans) = grafted {
            phase.children.push(spans);
        }
    }
    partition_job.profile.spans = Some(trace);

    let file = SpatialFile {
        dir: index_dir.to_string(),
        kind,
        universe,
        partitions,
    };
    file.save(dfs)?;
    jobs.push(partition_job);
    Ok(OpResult::new(file, jobs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sh_dfs::ClusterConfig;
    use sh_workload::{points, Distribution};

    fn setup(n: usize) -> (Dfs, Vec<Point>) {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(n, Distribution::Uniform, &uni, 11);
        upload(&dfs, "/heap", &pts).unwrap();
        (dfs, pts)
    }

    #[test]
    fn build_grid_index_covers_all_records() {
        let (dfs, pts) = setup(3000);
        let built = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::Grid).unwrap();
        let file = &built.value;
        assert!(file.partitions.len() > 1, "expected multiple partitions");
        assert_eq!(
            file.total_records(),
            pts.len() as u64,
            "points are never replicated"
        );
        assert_eq!(built.rounds(), 2);
        // Every partition file exists and parses; data MBR within cell.
        let mut seen = 0u64;
        for p in &file.partitions {
            let text = dfs.read_to_string(&p.path).unwrap();
            let records: Vec<Point> = sh_geom::text::parse_records(&text).unwrap();
            assert_eq!(records.len() as u64, p.records);
            seen += p.records;
            let cell = p.cell_rect();
            for r in &records {
                assert!(
                    cell.buffer(1e-9).contains_point(r),
                    "record {r} outside cell {cell}"
                );
            }
            assert!(cell.buffer(1e-9).contains_rect(&p.mbr_rect()));
        }
        assert_eq!(seen, pts.len() as u64);
    }

    #[test]
    fn build_persists_local_index_sidecars() {
        let (dfs, _) = setup(3000);
        let kind = PartitionKind::Grid;
        let text = build_index::<Point>(&dfs, "/heap", "/t", kind).unwrap();
        let binary =
            build_index_fmt::<Point>(&dfs, "/heap", "/b", kind, BlockFormat::Binary).unwrap();
        assert_eq!(text.value.partitions.len(), binary.value.partitions.len());
        for (t, b) in text.value.partitions.iter().zip(&binary.value.partitions) {
            let sidecar = |p: &PartitionMeta| {
                let path = crate::mrlayer::local_index_path(&p.path).unwrap();
                dfs.read_bytes(&path)
                    .unwrap_or_else(|_| panic!("missing sidecar {path}"))
            };
            let raw = sidecar(t);
            // One encoding: `SHLX` version 2 under either block format,
            // and the same records give the same sidecar bytes.
            assert_eq!(&raw[..6], b"SHLX\x02\x00", "{}", t.path);
            assert_eq!(raw, sidecar(b), "{} vs {}", t.path, b.path);
            // The persisted tree loads over the partition's own records
            // and answers exactly like a fresh bulk-load.
            let data = dfs.read_to_string(&t.path).unwrap();
            let records: Vec<Point> = sh_geom::text::parse_records(&data).unwrap();
            let rects: Vec<Rect> = records.iter().map(|r| r.mbr()).collect();
            let tree = sh_index::LocalRTree::from_bytes(&raw, rects.clone()).unwrap();
            assert_eq!(tree.len() as u64, t.records, "{}", t.path);
            let q = t.cell_rect();
            assert_eq!(tree.query(&q), sh_index::LocalRTree::build(rects).query(&q));
        }
        for built in [&text, &binary] {
            assert_eq!(
                built.counter("index.local_trees"),
                built.value.partitions.len() as u64
            );
        }
    }

    #[test]
    fn master_file_reopens() {
        let (dfs, _) = setup(1500);
        let built = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::StrPlus).unwrap();
        let reopened = SpatialFile::open(&dfs, "/idx").unwrap();
        assert_eq!(reopened.kind, PartitionKind::StrPlus);
        assert_eq!(reopened.partitions.len(), built.value.partitions.len());
        assert_eq!(reopened.universe, built.value.universe);
    }

    #[test]
    fn rect_records_are_replicated_in_disjoint_indexes() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let rs = sh_workload::rects(1500, &uni, 60.0, 5);
        upload(&dfs, "/rects", &rs).unwrap();
        let built = build_index::<Rect>(&dfs, "/rects", "/ridx", PartitionKind::Grid).unwrap();
        assert!(
            built.value.total_records() > rs.len() as u64,
            "large rects must replicate: {} vs {}",
            built.value.total_records(),
            rs.len()
        );
        assert_eq!(built.counter("index.records"), rs.len() as u64);
        assert!(built.counter("index.replicas") >= rs.len() as u64);
    }

    #[test]
    fn every_technique_builds() {
        let (dfs, pts) = setup(2000);
        for (i, kind) in PartitionKind::ALL.into_iter().enumerate() {
            let dir = format!("/idx{i}");
            let built = build_index::<Point>(&dfs, "/heap", &dir, kind).unwrap();
            assert_eq!(
                built.value.total_records(),
                pts.len() as u64,
                "{} lost/duplicated points",
                kind.name()
            );
        }
    }

    #[test]
    fn binary_index_matches_text_build() {
        let (dfs, pts) = setup(3000);
        let t = build_index::<Point>(&dfs, "/heap", "/t", PartitionKind::StrPlus).unwrap();
        let b = build_index_fmt::<Point>(
            &dfs,
            "/heap",
            "/b",
            PartitionKind::StrPlus,
            BlockFormat::Binary,
        )
        .unwrap();
        assert_eq!(b.value.total_records(), pts.len() as u64);
        assert_eq!(t.value.partitions.len(), b.value.partitions.len());
        for p in &b.value.partitions {
            let raw = dfs.read_bytes(&p.path).unwrap();
            assert!(crate::colblock::is_binary(&raw), "{} is not SHCB", p.path);
            assert_eq!(raw.len() as u64, p.bytes, "catalogue byte count");
            let records: Vec<Point> =
                crate::mrlayer::SpatialRecordReader::records_bytes(&raw).unwrap();
            assert_eq!(records.len() as u64, p.records);
            // The sidecar loads over the decoded records and answers like
            // a fresh build.
            let sidecar = crate::mrlayer::local_index_path(&p.path).unwrap();
            let sraw = dfs.read_bytes(&sidecar).unwrap();
            let rects: Vec<Rect> = records.iter().map(|r| r.mbr()).collect();
            let tree = sh_index::LocalRTree::from_bytes(&sraw, rects.clone()).unwrap();
            assert_eq!(tree.len() as u64, p.records, "{sidecar}");
            let q = p.cell_rect();
            assert_eq!(tree.query(&q), sh_index::LocalRTree::build(rects).query(&q));
        }
    }

    #[test]
    fn binary_format_is_unsupported_for_polygons() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let polys = sh_workload::osm_like_polygons(40, &uni, 10.0, 3);
        upload(&dfs, "/polys", &polys).unwrap();
        assert!(matches!(
            build_index_fmt::<sh_geom::Polygon>(
                &dfs,
                "/polys",
                "/idx",
                PartitionKind::Grid,
                BlockFormat::Binary
            ),
            Err(OpError::Unsupported(_))
        ));
    }

    #[test]
    fn corrupt_heap_line_fails_index_build_cleanly() {
        for format in [BlockFormat::Text, BlockFormat::Binary] {
            let dfs = Dfs::new(ClusterConfig::small_for_tests());
            let mut w = dfs.create("/heap").unwrap();
            w.write_line("1 2");
            w.write_line("3 banana");
            w.write_line("5 6");
            w.close().unwrap();
            let err = build_index_fmt::<Point>(&dfs, "/heap", "/idx", PartitionKind::Grid, format)
                .unwrap_err();
            match err {
                OpError::Corrupt(m) => assert!(m.contains("banana"), "{format:?}: {m}"),
                other => panic!("{format:?}: expected Corrupt, got {other}"),
            }
        }
    }

    #[test]
    fn text_partitions_store_the_canonical_line_of_each_record() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let heap = ["1.50  2", "+3 4", "5e0 6", " 7 8.0 ", "900 1000"];
        let mut w = dfs.create("/heap").unwrap();
        for line in heap {
            w.write_line(line);
        }
        w.close().unwrap();
        let built = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::Grid).unwrap();
        let mut stored: Vec<String> = Vec::new();
        for p in &built.value.partitions {
            let text = dfs.read_to_string(&p.path).unwrap();
            assert_eq!(
                text.len() as u64,
                p.bytes,
                "{}: catalogue byte count",
                p.path
            );
            let records: Vec<Point> = sh_geom::text::parse_records(&text).unwrap();
            let canonical: String = records.iter().map(|r| r.to_line() + "\n").collect();
            assert_eq!(text, canonical, "{}", p.path);
            stored.extend(text.lines().map(str::to_string));
        }
        stored.sort();
        assert_eq!(stored, ["1.5 2", "3 4", "5 6", "7 8", "900 1000"]);
    }

    #[test]
    fn the_partition_shuffle_charges_each_pair_its_binary_width() {
        let (dfs, pts) = setup(3000);
        for kind in [PartitionKind::Grid, PartitionKind::StrPlus] {
            let built =
                build_index::<Point>(&dfs, "/heap", &format!("/p{}", kind.name()), kind).unwrap();
            let partition = &built.jobs[1].profile;
            assert_eq!(
                partition.shuffle_bytes,
                24 * pts.len() as u64,
                "{}",
                kind.name()
            );
        }
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let rs = sh_workload::rects(1500, &uni, 60.0, 5);
        upload(&dfs, "/rects", &rs).unwrap();
        let built = build_index::<Rect>(&dfs, "/rects", "/r", PartitionKind::Grid).unwrap();
        let replicas = built.counter("index.replicas");
        assert!(replicas > rs.len() as u64, "rectangles must replicate");
        assert_eq!(built.jobs[1].profile.shuffle_bytes, 40 * replicas);
    }

    #[test]
    fn a_huge_corrupt_line_is_quoted_boundedly() {
        let garbage = "g".repeat(100_000);
        let huge_x = format!("{} 2", "9".repeat(100_000));
        for bad in [garbage, huge_x] {
            let dfs = Dfs::new(ClusterConfig::small_for_tests());
            let mut w = dfs.create("/heap").unwrap();
            w.write_line("1 2");
            w.write_line(&bad);
            w.write_line("5 6");
            w.close().unwrap();
            let q = Rect::new(0.0, 0.0, 10.0, 10.0);
            let filter = crate::ops::range::range_hadoop::<Point>(&dfs, "/heap", &q, "/out");
            let index = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::Grid);
            for (op, err) in [("FILTER", filter.err()), ("INDEX", index.err())] {
                match err {
                    Some(OpError::Corrupt(m)) => {
                        assert!(m.contains("/heap"), "{op}: {m}");
                        assert!(m.len() < 300, "{op}: {} bytes: {m:.300}", m.len());
                    }
                    other => panic!("{op}: expected Corrupt, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn building_into_a_live_index_fails_and_leaves_it_as_it_was() {
        let (dfs, _) = setup(3000);
        // The live index's one partition is the last of four cells, so a
        // build that went ahead would write its first partitions before
        // it reached a name the live index holds.
        let wide = Rect::new(-1000.0, -1000.0, 1000.0, 1000.0);
        let live = Arc::new(GlobalPartitioning::build(PartitionKind::Grid, &[], wide, 4));
        build_index_with::<Point>(&dfs, "/heap", "/idx", live).unwrap();
        let files = || -> Vec<(String, Vec<u8>)> {
            let paths = dfs.list("/idx/");
            paths
                .into_iter()
                .map(|p| (p.clone(), dfs.read_bytes(&p).unwrap()))
                .collect()
        };
        let before = files();
        let parts: Vec<&str> = before
            .iter()
            .filter(|(p, _)| p.contains("/part-"))
            .map(|(p, _)| p.as_str())
            .collect();
        assert_eq!(parts, ["/idx/part-00003"]);
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let fine = Arc::new(GlobalPartitioning::build(PartitionKind::Grid, &[], uni, 16));
        let errors = [
            build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::Grid).err(),
            build_index_with::<Point>(&dfs, "/heap", "/idx", fine).err(),
        ];
        for err in errors {
            let err = err.expect("a live index is refused").to_string();
            assert!(err.contains("/idx"), "{err}");
        }
        assert_eq!(files(), before, "the live index was touched");
    }

    /// A built index's partition files, each with its records parsed.
    fn partition_records(dfs: &Dfs, file: &SpatialFile) -> Vec<Vec<Point>> {
        file.partitions
            .iter()
            .map(|p| {
                let raw = dfs.read_bytes(&p.path).unwrap();
                crate::mrlayer::SpatialRecordReader::records_bytes(&raw).unwrap()
            })
            .collect()
    }

    #[test]
    fn the_driver_writes_the_index_files_the_engine_wrote() {
        // Clustered points on a uniform grid: some cells hold several
        // blocks' worth of records.
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        upload(
            &dfs,
            "/heap",
            &sh_workload::osm_like_points(3000, &uni, 4, 12),
        )
        .unwrap();
        let kind = PartitionKind::Grid;
        let text = build_index::<Point>(&dfs, "/heap", "/t", kind).unwrap();
        let binary =
            build_index_fmt::<Point>(&dfs, "/heap", "/b", kind, BlockFormat::Binary).unwrap();
        // Text partitions are written record-aligned: every block ends a
        // line, and some partition spans several blocks.
        let mut multi_block = false;
        for p in &text.value.partitions {
            let blocks = dfs.block_locations(&p.path).unwrap();
            multi_block |= blocks.len() > 1;
            for b in blocks {
                let (bytes, _) = dfs.read_block(b.id, 0).unwrap();
                assert_eq!(bytes.last(), Some(&b'\n'), "{}: block {:?}", p.path, b.id);
            }
        }
        assert!(multi_block, "no text partition spans two blocks");
        // Binary partitions and every sidecar are exactly the encodings
        // of the partition's records, which both builds share.
        let records = partition_records(&dfs, &text.value);
        assert_eq!(records, partition_records(&dfs, &binary.value));
        for ((t, b), records) in text
            .value
            .partitions
            .iter()
            .zip(&binary.value.partitions)
            .zip(&records)
        {
            assert_eq!(
                dfs.read_bytes(&b.path).unwrap(),
                crate::colblock::encode(records).unwrap()
            );
            let rects: Vec<Rect> = records.iter().map(|r| r.mbr()).collect();
            let tree = sh_index::LocalRTree::build(rects).to_bytes();
            for p in [t, b] {
                let sidecar = crate::mrlayer::local_index_path(&p.path).unwrap();
                assert_eq!(dfs.read_bytes(&sidecar).unwrap(), tree, "{sidecar}");
            }
        }
        // The partition job is charged its rows plus every file the driver
        // wrote from its side outputs.
        for (built, dir) in [(&text, "/t/"), (&binary, "/b/")] {
            let files: u64 = dfs
                .list(dir)
                .iter()
                .filter(|p| p.contains("/part-") || p.contains("/_lidx-"))
                .map(|p| dfs.stat(p).unwrap().len)
                .sum();
            let partition = &built.jobs[1];
            assert!(partition.side.is_empty(), "the driver keeps no side buffer");
            assert_eq!(
                partition.profile.counters["output.side.bytes"], files,
                "{dir}"
            );
            assert_eq!(
                partition.profile.dfs_bytes_written,
                partition.rows.text().len() as u64 + files,
                "{dir}"
            );
        }
    }

    /// A heap under 16 bytes is sampled for no point, yet its MBR is
    /// still the universe: every technique indexes a one-record heap in
    /// either format, and the index answers range and kNN queries.
    #[test]
    fn a_one_record_heap_indexes_under_every_technique_and_format() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        dfs.write_string("/one", "1.5 2\n").unwrap();
        let p = Point::new(1.5, 2.0);
        let everything = Rect::new(0.0, 0.0, 10.0, 10.0);
        for kind in PartitionKind::ALL {
            for format in [BlockFormat::Text, BlockFormat::Binary] {
                let dir = format!("/one-{}-{format:?}", kind.name());
                let file = build_index_fmt::<Point>(&dfs, "/one", &dir, kind, format)
                    .unwrap_or_else(|e| panic!("{dir}: {e}"))
                    .value;
                assert_eq!(file.total_records(), 1, "{dir}");
                let range = crate::ops::range::range_spatial::<Point>(&dfs, &file, &everything, "");
                assert_eq!(range.unwrap().value, [p], "{dir}");
                let knn = crate::ops::knn::knn_spatial(&dfs, &file, &Point::new(0.0, 0.0), 3, "");
                assert_eq!(knn.unwrap().value, [p], "{dir}");
            }
        }
    }

    #[test]
    fn empty_heap_is_an_error() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let w = dfs.create("/empty").unwrap();
        w.close().unwrap();
        assert!(matches!(
            build_index::<Point>(&dfs, "/empty", "/idx", PartitionKind::Grid),
            Err(OpError::Unsupported(_))
        ));
    }
}
