//! kNN join: for every point of `R`, its `k` nearest neighbours in `S`.
//!
//! The partition-based two-round algorithm of the MapReduce kNN-join
//! literature the paper builds on (Lu et al., Zhang et al.):
//!
//! * **Round 1** — each `R` partition is paired with the `S` partitions
//!   overlapping its cell. The local candidates give every point `r` an
//!   upper bound `δ_r` on its true k-th-neighbour distance. Points whose
//!   `δ_r`-circle stays inside the already-seen `S` partitions are
//!   **final** and written immediately (the pruning step); the rest are
//!   spilled, per partition, with the exact set of extra `S` partitions
//!   their circles touch.
//! * **Round 2** — one task per `R` partition with pending points reads
//!   those points plus every `S` partition any of their circles touches
//!   and recomputes the exact answer.
//!
//! On clustered data almost everything finishes in round 1; only points
//! near partition boundaries pay the second round.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use sh_dfs::Dfs;
use sh_geom::point::sort_dedup;
use sh_geom::{Point, Record, Rect};
use sh_index::LocalRTree;
use sh_mapreduce::{InputSplit, JobBuilder, MapContext, Mapper};

use crate::catalog::SpatialFile;
use crate::mrlayer::task_inputs;
use crate::opresult::{OpError, OpResult};
use crate::ops::side_text;

/// One joined row: the `R` point and its neighbours, nearest first.
#[derive(Clone, Debug)]
pub struct KnnRow {
    /// The query-side point.
    pub r: Point,
    /// Its k nearest `S` points, nearest first.
    pub neighbors: Vec<Point>,
}

impl KnnRow {
    fn encode(&self) -> String {
        let mut s = format!("R {} {} {}", self.r.x, self.r.y, self.neighbors.len());
        for n in &self.neighbors {
            let _ = write!(s, " {} {}", n.x, n.y);
        }
        s
    }

    fn decode(line: &str) -> Result<KnnRow, OpError> {
        let toks: Vec<&str> = line.split_ascii_whitespace().collect();
        if toks.first() != Some(&"R") || toks.len() < 4 {
            return Err(OpError::Corrupt(format!("bad knn-join row: {line:?}")));
        }
        let f = |i: usize| -> Result<f64, OpError> {
            toks[i]
                .parse()
                .map_err(|_| OpError::Corrupt(format!("bad number {:?}", toks[i])))
        };
        let r = Point::new(f(1)?, f(2)?);
        let n: usize = toks[3]
            .parse()
            .map_err(|_| OpError::Corrupt(format!("bad count in {line:?}")))?;
        let mut neighbors = Vec::with_capacity(n);
        for i in 0..n {
            neighbors.push(Point::new(f(4 + 2 * i)?, f(5 + 2 * i)?));
        }
        Ok(KnnRow { r, neighbors })
    }
}

/// Exact kNN of `q` against deduplicated `sites` (nearest first).
fn exact_knn(sites: &[Point], tree: &LocalRTree, q: &Point, k: usize) -> Vec<Point> {
    tree.knn(q, k).into_iter().map(|(i, _)| sites[i]).collect()
}

struct Round1Mapper {
    k: usize,
}

impl Mapper for Round1Mapper {
    type K = u8;
    type V = u8;

    fn map_bytes(&self, split: &InputSplit, data: &[u8], ctx: &mut MapContext<u8, u8>) {
        let pid = split.partition_id.expect("spatial split");
        // The two inputs stay apart: the R partition, then every S
        // partition of the split in whichever layout each was stored.
        let (r_points, mut s_points) = task_inputs::<Point>(split, data);
        sort_dedup(&mut s_points);
        let tree = LocalRTree::build(s_points.iter().map(|p| p.to_rect()).collect());

        // aux: `m id1..idm  (id x1 y1 x2 y2)*` — the included S partition
        // ids, then every S partition's id + data MBR.
        let aux: Vec<f64> = split
            .aux
            .as_deref()
            .expect("knn-join split carries partition metadata")
            .split_ascii_whitespace()
            .map(|t| t.parse().expect("knn-join aux"))
            .collect();
        let m = aux[0] as usize;
        let included: HashSet<usize> = aux[1..1 + m].iter().map(|&v| v as usize).collect();
        let all_s: Vec<(usize, Rect)> = aux[1 + m..]
            .chunks_exact(5)
            .map(|c| (c[0] as usize, Rect::new(c[1], c[2], c[3], c[4])))
            .collect();

        for r in &r_points {
            let local = exact_knn(&s_points, &tree, r, self.k);
            let delta = if local.len() < self.k {
                f64::INFINITY
            } else {
                local.last().map(|p| p.distance(r)).unwrap_or(f64::INFINITY)
            };
            let extra: Vec<usize> = all_s
                .iter()
                .filter(|(id, mbr)| !included.contains(id) && mbr.min_distance(r) < delta)
                .map(|(id, _)| *id)
                .collect();
            if extra.is_empty() {
                ctx.output(
                    &KnnRow {
                        r: *r,
                        neighbors: local,
                    }
                    .encode(),
                );
                ctx.counter("knnjoin.final.round1", 1);
            } else {
                ctx.side_output(&format!("_pending-{pid:05}"), &r.to_line());
                for id in extra.iter().chain(included.iter()) {
                    ctx.side_output("_needs", &format!("{pid} {id}"));
                }
                ctx.counter("knnjoin.pending", 1);
            }
        }
    }
}

struct Round2Mapper {
    k: usize,
}

impl Mapper for Round2Mapper {
    type K = u8;
    type V = u8;

    fn map_bytes(&self, split: &InputSplit, data: &[u8], ctx: &mut MapContext<u8, u8>) {
        let (pending, mut s_points) = task_inputs::<Point>(split, data);
        sort_dedup(&mut s_points);
        let tree = LocalRTree::build(s_points.iter().map(|p| p.to_rect()).collect());
        for r in &pending {
            let neighbors = exact_knn(&s_points, &tree, r, self.k);
            ctx.output(&KnnRow { r: *r, neighbors }.encode());
            ctx.counter("knnjoin.final.round2", 1);
        }
    }
}

/// Distributed kNN join (`R` must be a disjoint index; `S` any index).
///
/// Round 2 reads each partition's pending points as a DFS file, the
/// split Hadoop would read: `_pending-NNNNN` under `staging_dir`, written
/// by this driver and deleted again on every exit path.
pub fn knn_join_spatial(
    dfs: &Dfs,
    r_file: &SpatialFile,
    s_file: &SpatialFile,
    k: usize,
    staging_dir: &str,
) -> Result<OpResult<Vec<KnnRow>>, OpError> {
    if !r_file.is_disjoint() {
        return Err(OpError::Unsupported(
            "knn join requires a disjoint partitioning of R".into(),
        ));
    }
    // Shared aux payload: every S partition's id + data MBR.
    let mut all_s = String::new();
    for s in &s_file.partitions {
        let _ = write!(
            all_s,
            " {} {} {} {} {}",
            s.id, s.mbr[0], s.mbr[1], s.mbr[2], s.mbr[3]
        );
    }

    // Round 1 splits: each R partition + the S partitions overlapping
    // its cell.
    let mut splits = Vec::new();
    for rp in &r_file.partitions {
        let cell = rp.cell_rect();
        let included: Vec<&sh_index::PartitionMeta> = s_file
            .partitions
            .iter()
            .filter(|sp| sp.mbr_rect().intersects(&cell))
            .collect();
        let r_split = InputSplit::whole_file(dfs, &rp.path)?;
        let first_bytes = r_split.len();
        let mut blocks = r_split.blocks;
        let mut aux = format!("{}", included.len());
        for sp in &included {
            let _ = write!(aux, " {}", sp.id);
            blocks.extend(InputSplit::whole_file(dfs, &sp.path)?.blocks);
        }
        aux.push_str(&all_s);
        splits.push(InputSplit {
            path: rp.path.clone(),
            blocks,
            tag: 0,
            partition_id: Some(rp.id),
            mbr: Some(rp.cell),
            first_input_bytes: Some(first_bytes),
            aux: Some(aux),
        });
    }
    let mut round1 = JobBuilder::new(dfs, &format!("knnjoin:{}:{}", r_file.dir, s_file.dir))
        .input_splits(splits)
        .mapper(Round1Mapper { k })
        .map_only()?
        .run()?;
    let side = std::mem::take(&mut round1.side);
    let mut rows: Vec<KnnRow> = round1
        .rows
        .lines()
        .map(KnnRow::decode)
        .collect::<Result<_, _>>()?;
    let mut jobs = vec![round1];

    // Round 2 over the pending points, if any.
    if let Some(needs_text) = side.get("_needs") {
        let mut needs: HashMap<usize, HashSet<usize>> = HashMap::new();
        for line in side_text("_needs", needs_text)?.lines() {
            let mut it = line.split_ascii_whitespace();
            let pid: usize = it.next().unwrap().parse().expect("pid");
            let sid: usize = it.next().unwrap().parse().expect("sid");
            needs.entry(pid).or_default().insert(sid);
        }
        let mut staged = Staged {
            dfs,
            paths: Vec::new(),
        };
        for (name, pending) in side.iter().filter(|(n, _)| n.starts_with("_pending-")) {
            let path = format!("{staging_dir}/{name}");
            let mut w = dfs.create(&path)?;
            staged.paths.push(path);
            w.write_str(side_text(name, pending)?);
            w.close()?;
        }
        let mut splits = Vec::new();
        let mut pids: Vec<usize> = needs.keys().copied().collect();
        pids.sort_unstable();
        for pid in pids {
            let pending_path = format!("{staging_dir}/_pending-{pid:05}");
            let pending_split = InputSplit::whole_file(dfs, &pending_path)?;
            let first_bytes = pending_split.len();
            let mut blocks = pending_split.blocks;
            let mut sids: Vec<usize> = needs[&pid].iter().copied().collect();
            sids.sort_unstable();
            for sid in sids {
                if let Some(sp) = s_file.partitions.iter().find(|m| m.id == sid) {
                    blocks.extend(InputSplit::whole_file(dfs, &sp.path)?.blocks);
                }
            }
            splits.push(InputSplit {
                path: pending_path,
                blocks,
                tag: 0,
                partition_id: Some(pid),
                mbr: None,
                first_input_bytes: Some(first_bytes),
                aux: None,
            });
        }
        let round2 = JobBuilder::new(dfs, &format!("knnjoin-round2:{}", r_file.dir))
            .input_splits(splits)
            .mapper(Round2Mapper { k })
            .map_only()?
            .run()?;
        for line in round2.rows.lines() {
            rows.push(KnnRow::decode(line)?);
        }
        jobs.push(round2);
    }
    rows.sort_by(|a, b| a.r.cmp_xy(&b.r));
    // Every R partition is scanned; pruning happens on the S side per
    // R partition, so report R-partition coverage here.
    let mut sel = sh_trace::Selectivity::of_split(
        r_file.partitions.len(),
        r_file.partitions.len(),
        r_file.total_records(),
    );
    sel.records_emitted = rows.len() as u64;
    Ok(OpResult::new(rows, jobs).with_selectivity(sel))
}

/// DFS files a driver wrote, deleted when it is dropped: after the job
/// that read them, or on whichever error return came first.
struct Staged<'a> {
    dfs: &'a Dfs,
    paths: Vec<String>,
}

impl Drop for Staged<'_> {
    fn drop(&mut self) {
        for path in &self.paths {
            self.dfs.delete(path);
        }
    }
}

/// Single-machine baseline: exact kNN of every `R` point against `S`.
pub fn knn_join_single(r: &[Point], s: &[Point], k: usize) -> Vec<KnnRow> {
    let mut s_dedup = s.to_vec();
    sort_dedup(&mut s_dedup);
    let tree = LocalRTree::build(s_dedup.iter().map(|p| p.to_rect()).collect());
    let mut rows: Vec<KnnRow> = r
        .iter()
        .map(|q| KnnRow {
            r: *q,
            neighbors: exact_knn(&s_dedup, &tree, q, k),
        })
        .collect();
    rows.sort_by(|a, b| a.r.cmp_xy(&b.r));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{build_index, build_index_fmt, upload, BlockFormat};
    use sh_dfs::ClusterConfig;
    use sh_index::PartitionKind;
    use sh_workload::{osm_like_points, points, Distribution};

    /// Distance profiles are tie-robust: compare sorted neighbour
    /// distances per R point.
    fn profiles(rows: &[KnnRow]) -> Vec<(i64, i64, Vec<i64>)> {
        rows.iter()
            .map(|row| {
                let mut d: Vec<i64> = row
                    .neighbors
                    .iter()
                    .map(|n| (n.distance(&row.r) * 1e6).round() as i64)
                    .collect();
                d.sort_unstable();
                (
                    (row.r.x * 1e6).round() as i64,
                    (row.r.y * 1e6).round() as i64,
                    d,
                )
            })
            .collect()
    }

    fn run(r_kind: PartitionKind, s_kind: PartitionKind, k: usize, seed: u64) {
        run_fmt(
            (r_kind, BlockFormat::Text),
            (s_kind, BlockFormat::Text),
            k,
            seed,
        );
    }

    fn run_fmt(
        (r_kind, r_fmt): (PartitionKind, BlockFormat),
        (s_kind, s_fmt): (PartitionKind, BlockFormat),
        k: usize,
        seed: u64,
    ) {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let r = points(800, Distribution::Uniform, &uni, seed);
        let s = points(1200, Distribution::Uniform, &uni, seed + 1);
        upload(&dfs, "/r", &r).unwrap();
        upload(&dfs, "/s", &s).unwrap();
        let rf = build_index_fmt::<Point>(&dfs, "/r", "/ri", r_kind, r_fmt)
            .unwrap()
            .value;
        let sf = build_index_fmt::<Point>(&dfs, "/s", "/si", s_kind, s_fmt)
            .unwrap()
            .value;
        let got = knn_join_spatial(&dfs, &rf, &sf, k, "/out").unwrap();
        assert_eq!(got.value.len(), r.len(), "one row per R point");
        let expected = knn_join_single(&r, &s, k);
        assert_eq!(profiles(&got.value), profiles(&expected));
    }

    #[test]
    fn matches_baseline_grid_grid() {
        run(PartitionKind::Grid, PartitionKind::Grid, 3, 301);
    }

    #[test]
    fn matches_baseline_over_binary_indexes() {
        // The grid cuts 1 200 S points into 9 partitions, so every R cell
        // reads two or more S blocks stored back to back.
        use BlockFormat::{Binary, Text};
        for (r_fmt, s_fmt) in [(Binary, Binary), (Text, Binary), (Binary, Text)] {
            let grid = PartitionKind::Grid;
            run_fmt((grid, r_fmt), (grid, s_fmt), 3, 307);
        }
    }

    #[test]
    fn matches_baseline_strplus_str() {
        run(PartitionKind::StrPlus, PartitionKind::Str, 5, 302);
    }

    #[test]
    fn matches_baseline_large_k_crossing_partitions() {
        // k large enough that circles cross partitions everywhere.
        run(PartitionKind::Grid, PartitionKind::Grid, 40, 303);
    }

    #[test]
    fn clustered_data_mostly_finishes_in_round_one() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let r = osm_like_points(600, &uni, 4, 304);
        let s = osm_like_points(1500, &uni, 4, 305);
        upload(&dfs, "/r", &r).unwrap();
        upload(&dfs, "/s", &s).unwrap();
        let rf = build_index::<Point>(&dfs, "/r", "/ri", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let sf = build_index::<Point>(&dfs, "/s", "/si", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let got = knn_join_spatial(&dfs, &rf, &sf, 3, "/out").unwrap();
        let expected = knn_join_single(&r, &s, 3);
        assert_eq!(profiles(&got.value), profiles(&expected));
        let round1 = got.counter("knnjoin.final.round1");
        let pending = got.counter("knnjoin.pending");
        assert!(
            round1 > pending,
            "round 1 should finalize the majority: {round1} vs {pending}"
        );
    }

    #[test]
    fn rejects_overlapping_r_index() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(300, Distribution::Uniform, &uni, 306);
        upload(&dfs, "/r", &pts).unwrap();
        upload(&dfs, "/s", &pts).unwrap();
        let rf = build_index::<Point>(&dfs, "/r", "/ri", PartitionKind::ZCurve)
            .unwrap()
            .value;
        let sf = build_index::<Point>(&dfs, "/s", "/si", PartitionKind::Grid)
            .unwrap()
            .value;
        assert!(matches!(
            knn_join_spatial(&dfs, &rf, &sf, 3, "/out"),
            Err(OpError::Unsupported(_))
        ));
    }

    #[test]
    fn a_failed_second_round_leaves_no_staging_file_behind() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        upload(&dfs, "/r", &points(800, Distribution::Uniform, &uni, 308)).unwrap();
        upload(&dfs, "/s", &points(4000, Distribution::Uniform, &uni, 309)).unwrap();
        let grid = PartitionKind::Grid;
        let rf = build_index::<Point>(&dfs, "/r", "/ri", grid).unwrap().value;
        let sf = build_index::<Point>(&dfs, "/s", "/si", grid).unwrap().value;
        // Both replicas of every pending-points file rot at round 2's wave
        // boundary, before its first read: round 2 cannot succeed.
        let mut plan = sh_dfs::FaultPlan::none();
        for p in &rf.partitions {
            for replica in 0..2 {
                let pending = format!("/stage/_pending-{:05}", p.id);
                plan = plan.corrupt_replica(&pending, replica, sh_dfs::CorruptKind::Flip);
            }
        }
        dfs.update_ft_options(|ft| ft.fault_plan = plan);
        let before = dfs.metrics().snapshot();
        // At k = 100, a few R points near cell borders need round 2.
        let err = knn_join_spatial(&dfs, &rf, &sf, 100, "/stage").unwrap_err();
        assert!(matches!(err, OpError::Job(_)), "{err}");
        assert!(dfs.metrics().snapshot().since(&before).blocks_written > 0);
        assert_eq!(dfs.list("/stage/"), Vec::<String>::new());
    }

    #[test]
    fn row_encoding_roundtrip() {
        let row = KnnRow {
            r: Point::new(1.0, 2.0),
            neighbors: vec![Point::new(3.0, 4.0), Point::new(5.0, 6.0)],
        };
        let d = KnnRow::decode(&row.encode()).unwrap();
        assert_eq!(d.r, row.r);
        assert_eq!(d.neighbors, row.neighbors);
        assert!(KnnRow::decode("garbage").is_err());
    }
}
