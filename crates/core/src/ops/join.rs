//! Spatial join: all intersecting pairs between two rectangle datasets.
//!
//! * **SJMR** (Spatial Join with MapReduce) — the Hadoop algorithm for
//!   unindexed inputs: mappers replicate each record to the uniform grid
//!   cells it overlaps, one reducer per cell runs a plane-sweep join, and
//!   the reference-point rule keeps each result pair reported once.
//! * **Distributed join (DJ)** — the SpatialHadoop algorithm for two
//!   *indexed* inputs: the driver matches overlapping partition pairs of
//!   the two global indexes, one map task joins each pair with a plane
//!   sweep — no shuffle at all.

use std::sync::{Arc, OnceLock};

use sh_dfs::{Dfs, DfsError};
use sh_geom::algorithms::plane_sweep::{
    plane_sweep_join, plane_sweep_join_into, plane_sweep_sorted,
};
use sh_geom::{Point, Record, Rect};
use sh_index::grid::GridPartitioning;
use sh_index::{owns_point, PartitionMeta};
use sh_mapreduce::{
    InputSplit, JobBuilder, MapContext, Mapper, ReduceContext, Reducer, Rows, SplitInput,
};

use crate::catalog::SpatialFile;
use crate::codec::{parse_pairs, PAIR_SEPARATOR};
use crate::mrlayer::{
    reference_point, task, task_cached, task_inputs, ByRecords, Partition, RecordMapper,
    SpatialRecordReader,
};
use crate::opresult::{OpError, OpResult};
use sh_trace::Selectivity;

// ------------------------------------------------------------------ SJMR

struct SjmrMapper {
    grid: GridPartitioning,
}

impl RecordMapper for SjmrMapper {
    type R = Rect;
    type K = u64;
    type V = (u32, [f64; 4]);

    fn map_records(
        &self,
        split: &InputSplit,
        rects: Vec<Rect>,
        ctx: &mut MapContext<u64, (u32, [f64; 4])>,
    ) {
        let replicated = ctx.register_counter("sjmr.replicated");
        for r in rects {
            for cell in self.grid.assign(&r) {
                ctx.emit(cell as u64, (split.tag, [r.x1, r.y1, r.x2, r.y2]));
                ctx.inc(replicated, 1);
            }
        }
    }
}

struct SjmrReducer {
    grid: GridPartitioning,
}

impl Reducer for SjmrReducer {
    type K = u64;
    type V = (u32, [f64; 4]);

    fn reduce(&self, cell_id: &u64, values: Vec<(u32, [f64; 4])>, ctx: &mut ReduceContext) {
        let cell = self.grid.cell(*cell_id as usize);
        let universe = self.grid.universe;
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (tag, c) in values {
            let r = Rect::new(c[0], c[1], c[2], c[3]);
            if tag == 0 {
                left.push(r);
            } else {
                right.push(r);
            }
        }
        let mut results = 0u64;
        let mut line = String::with_capacity(80);
        plane_sweep_join_into(&left, &right, |i, j| {
            // Reference-point rule: only the grid cell owning the
            // bottom-left corner of the intersection reports the pair.
            if let Some(rp) = reference_point(&left[i], &right[j]) {
                if owns_point(&cell, &rp, &universe) {
                    line.clear();
                    left[i].write_line(&mut line);
                    line.push_str(PAIR_SEPARATOR);
                    right[j].write_line(&mut line);
                    ctx.output(&line);
                    results += 1;
                }
            }
        });
        ctx.counter("join.results", results);
    }
}

/// SJMR over two heap files. `universe` must cover both inputs;
/// `grid_cells` controls the partitioning grain (≈ one cell per reducer).
///
/// `_out_dir` is ignored; it goes when `shbench` next changes.
pub fn sjmr(
    dfs: &Dfs,
    left: &str,
    right: &str,
    universe: &Rect,
    grid_cells: usize,
    _out_dir: &str,
) -> Result<OpResult<Vec<(Rect, Rect)>>, OpError> {
    sjmr_rows(dfs, left, right, universe, grid_cells)?.try_map(|rows| parse_pairs(&rows))
}

/// [`sjmr`] with the answer left as the job wrote it: one `a | b` row
/// per result pair (see [`PAIR_SEPARATOR`]), in task order.
pub fn sjmr_rows(
    dfs: &Dfs,
    left: &str,
    right: &str,
    universe: &Rect,
    grid_cells: usize,
) -> Result<OpResult<Rows>, OpError> {
    let grid = GridPartitioning::build(*universe, grid_cells);
    let mut splits = InputSplit::from_file(dfs, left)?;
    splits.extend(
        InputSplit::from_file(dfs, right)?
            .into_iter()
            .map(|s| s.with_tag(1)),
    );
    let reducers = grid.len().min(dfs.config().total_reduce_slots()).max(1);
    let job = JobBuilder::new(dfs, &format!("sjmr:{left}:{right}"))
        .input_splits(splits)
        .mapper(ByRecords(SjmrMapper { grid: grid.clone() }))
        .pair_size(|_, _| 8 + 4 + 32)
        .reducer(SjmrReducer { grid }, reducers)
        .build()?
        .run()?;
    let sel = Selectivity::full_scan(job.map_tasks(), job.rows.len() as u64);
    Ok(OpResult::new(job.rows.clone(), vec![job]).with_selectivity(sel))
}

// ------------------------------------------------------- distributed join

/// The two indexes a distributed join pairs, as the driver holds them:
/// a pair split's `partition_id` is `i * b.partitions.len() + j` for
/// `a`'s partition `i` and `b`'s partition `j`, positions in
/// `partitions`.
#[derive(Clone, Copy)]
struct Pairing<'a> {
    a: &'a SpatialFile,
    b: &'a SpatialFile,
}

impl<'a> Pairing<'a> {
    /// Positions `(i, j)` of a pair split's two partitions.
    fn positions(&self, split: &InputSplit) -> (usize, usize) {
        let id = split.partition_id.expect("dj split carries its pair id");
        (id / self.b.partitions.len(), id % self.b.partitions.len())
    }

    /// A pair split's two partitions.
    fn metas(&self, split: &InputSplit) -> [&'a PartitionMeta; 2] {
        let (i, j) = self.positions(split);
        [&self.a.partitions[i], &self.b.partitions[j]]
    }

    /// The reference-point rule: a pair of partitions reports a result
    /// whose reference point is `rp` only if every disjoint side's cell
    /// owns it.
    fn reports(&self, [ma, mb]: [&PartitionMeta; 2], rp: &Point) -> bool {
        (!self.a.is_disjoint() || owns_point(&ma.cell_rect(), rp, &self.a.universe))
            && (!self.b.is_disjoint() || owns_point(&mb.cell_rect(), rp, &self.b.universe))
    }
}

struct DjMapper<'a> {
    dfs: Dfs,
    pairing: Pairing<'a>,
    /// Slot of right partition `j` in `opened` is `right_slot + j`: 0
    /// when both inputs are the same partition files (a self-join).
    right_slot: usize,
    /// The job's partitions, left then right, each opened at most once:
    /// a pair's side is looked up in the per-node cache first, then
    /// here, and only then read and opened from its blocks. An open that
    /// fails leaves its slot empty for the next attempt.
    opened: Vec<OnceLock<Arc<Partition<Rect>>>>,
}

impl Mapper for DjMapper<'_> {
    type K = u8;
    type V = u8;

    // Each side is looked up in the per-node cache under its own
    // partition path — a partition typically appears in several
    // overlapping pairs. Both sides are probed first, so each counts one
    // hit or one miss; a miss is then looked up in the job's table, and
    // only a side in neither has its blocks read and opened, once for
    // the whole job.
    fn map_split(
        &self,
        split: &InputSplit,
        input: &mut SplitInput<'_>,
        ctx: &mut MapContext<u8, u8>,
    ) -> Result<(), DfsError> {
        let metas = self.pairing.metas(split);
        let (slot_a, slot_b) = self.slots(split);
        let left = self.cached(&metas[0].path, slot_a, ctx);
        let right = self.cached(&metas[1].path, slot_b, ctx);
        let cut = split.first_blocks.unwrap_or(split.blocks.len());
        let mut opened = 0;
        let mut open = |cached: Option<Arc<Partition<Rect>>>, path: &str, slot: usize, blocks| {
            if let Some(part) = cached.or_else(|| self.opened[slot].get().cloned()) {
                return Ok(part);
            }
            let blocks = input.blocks(blocks)?;
            Ok::<_, DfsError>(Arc::clone(self.opened[slot].get_or_init(|| {
                opened += 1;
                task(
                    path,
                    SpatialRecordReader::open_after_probe::<Rect>(&self.dfs, path, &blocks),
                )
            })))
        };
        let lpart = open(left, &metas[0].path, slot_a, 0..cut)?;
        let rpart = open(right, &metas[1].path, slot_b, cut..split.blocks.len())?;
        if opened > 0 {
            ctx.counter("join.partitions.opened", opened);
        }
        self.join(metas, &lpart, &rpart, ctx);
        Ok(())
    }
}

impl DjMapper<'_> {
    /// The `opened` slots of a pair split's two partitions.
    fn slots(&self, split: &InputSplit) -> (usize, usize) {
        let (i, j) = self.pairing.positions(split);
        (i, self.right_slot + j)
    }

    /// One side of a pair from the per-node cache, counted as a hit or
    /// a miss; a hit is kept in the job's table.
    fn cached(
        &self,
        path: &str,
        slot: usize,
        ctx: &mut MapContext<u8, u8>,
    ) -> Option<Arc<Partition<Rect>>> {
        let part = task_cached::<Rect, _, _>(&self.dfs, path, ctx)?;
        Some(Arc::clone(self.opened[slot].get_or_init(|| part)))
    }

    /// Joins one partition pair, `metas`, with a plane sweep over the
    /// records that can take part in a result it reports.
    fn join(
        &self,
        metas: [&PartitionMeta; 2],
        lpart: &Partition<Rect>,
        rpart: &Partition<Rect>,
        ctx: &mut MapContext<u8, u8>,
    ) {
        let Pairing { a, b } = self.pairing;
        let (cell_a, cell_b) = (metas[0].cell_rect(), metas[1].cell_rect());
        // A reported pair's reference point lies in both records and in
        // (the closure of) the cell of every disjoint side, so a record
        // outside that shared region cannot be in a reported pair.
        let shared = match (a.is_disjoint(), b.is_disjoint()) {
            (true, true) => Some(cell_a.intersection(&cell_b).unwrap_or_else(Rect::empty)),
            (true, false) => Some(cell_a),
            (false, true) => Some(cell_b),
            (false, false) => None,
        };
        // Each side's records in x order, as rects and as their indices.
        let side = |part: &Partition<Rect>, path: &str| -> (Vec<Rect>, Vec<u32>) {
            part.x_order(&self.dfs, path)
                .iter()
                .map(|&i| (part.mbr_of(i as usize), i))
                .filter(|(r, _)| shared.is_none_or(|s| r.intersects(&s)))
                .unzip()
        };
        let (left, left_ids) = side(lpart, &metas[0].path);
        let (right, right_ids) = side(rpart, &metas[1].path);
        let mut results = 0u64;
        let mut line = String::with_capacity(80);
        plane_sweep_sorted(&left, &right, |i, j| {
            if let Some(rp) = reference_point(&left[i], &right[j]) {
                if !self.pairing.reports(metas, &rp) {
                    return;
                }
                // Each side's line comes from its partition: copied
                // from text, rendered from columns.
                line.clear();
                lpart.write_record(left_ids[i] as usize, &mut line);
                line.push_str(PAIR_SEPARATOR);
                rpart.write_record(right_ids[j] as usize, &mut line);
                ctx.output(&line);
                results += 1;
            }
        });
        ctx.counter("join.results", results);
    }
}

/// Driver-side filter step shared by all distributed-join flavours:
/// build one two-input split per partition pair that can share a result.
fn pair_splits(dfs: &Dfs, a: &SpatialFile, b: &SpatialFile) -> Result<Vec<InputSplit>, OpError> {
    // Pair partitions whose *effective regions*
    // can share a result. For a disjoint index the effective region is
    // the partition cell (every record is replicated to every cell it
    // overlaps, and the reference-point rule assigns each result pair to
    // the cell owning its reference point); for an overlapping index it
    // is the data MBR. When both sides are disjoint, a zero-area (edge)
    // intersection can never own a reference point under the half-open
    // rule, so such pairs are pruned too — this is what keeps the pair
    // count near-linear instead of pairing every cell with all its
    // neighbours.
    let both_disjoint = a.is_disjoint() && b.is_disjoint();
    let region = |f: &SpatialFile, m: &sh_index::PartitionMeta| {
        if f.is_disjoint() {
            m.cell_rect()
        } else {
            m.mbr_rect()
        }
    };
    let regions_a: Vec<Rect> = a.partitions.iter().map(|m| region(a, m)).collect();
    let regions_b: Vec<Rect> = b.partitions.iter().map(|m| region(b, m)).collect();
    let mut pairs = plane_sweep_join(&regions_a, &regions_b);
    if both_disjoint {
        pairs.retain(|&(i, j)| {
            match regions_a[i].intersection(&regions_b[j]) {
                None => false,
                Some(x) if x.area() > 0.0 => true,
                // Degenerate edge intersections only matter on the
                // closed universe maximum boundaries.
                Some(x) => {
                    (x.width() == 0.0 && (x.x1 >= a.universe.x2 || x.x1 >= b.universe.x2))
                        || (x.height() == 0.0 && (x.y1 >= a.universe.y2 || x.y1 >= b.universe.y2))
                }
            }
        });
    }

    let mut splits = Vec::with_capacity(pairs.len());
    for (i, j) in pairs {
        let pa = &a.partitions[i];
        let left = InputSplit::whole_file(dfs, &pa.path)?;
        let right = InputSplit::whole_file(dfs, &b.partitions[j].path)?;
        splits.push(
            InputSplit::pair(left, right).with_partition(i * b.partitions.len() + j, pa.cell),
        );
    }
    Ok(splits)
}

/// Distributed join over two indexed files (the SpatialHadoop operation).
///
/// `_out_dir` is ignored; it goes when `shbench` next changes.
pub fn distributed_join(
    dfs: &Dfs,
    a: &SpatialFile,
    b: &SpatialFile,
    _out_dir: &str,
) -> Result<OpResult<Vec<(Rect, Rect)>>, OpError> {
    distributed_join_rows(dfs, a, b)?.try_map(|rows| parse_pairs(&rows))
}

/// [`distributed_join`] with the answer left as the job wrote it: one
/// `a | b` row per result pair (see [`PAIR_SEPARATOR`]), in task order.
pub fn distributed_join_rows(
    dfs: &Dfs,
    a: &SpatialFile,
    b: &SpatialFile,
) -> Result<OpResult<Rows>, OpError> {
    let splits = pair_splits(dfs, a, b)?;
    let total_pairs = a.partitions.len() * b.partitions.len();
    let processed = splits.len();
    let same_files = a
        .partitions
        .iter()
        .map(|m| &m.path)
        .eq(b.partitions.iter().map(|m| &m.path));
    let slots = a.partitions.len() + if same_files { 0 } else { b.partitions.len() };
    let mut job = JobBuilder::new(dfs, &format!("dj:{}:{}", a.dir, b.dir))
        .input_splits(splits)
        .mapper(DjMapper {
            dfs: dfs.clone(),
            pairing: Pairing { a, b },
            right_slot: if same_files { 0 } else { a.partitions.len() },
            opened: (0..slots).map(|_| OnceLock::new()).collect(),
        })
        .map_only()?
        .run()?;
    job.set_counter("join.pairs.considered", total_pairs as u64);
    job.set_counter("join.pairs.processed", processed as u64);
    // Selectivity counts partition *pairs*: the unit the filter step
    // prunes in a distributed join.
    let mut sel = Selectivity::of_split(total_pairs, processed, 0);
    sel.records_emitted = job.rows.len() as u64;
    Ok(OpResult::new(job.rows.clone(), vec![job]).with_selectivity(sel))
}

// -------------------------------------------------- polygon overlap join

struct PolygonDjMapper<'a> {
    pairing: Pairing<'a>,
}

impl Mapper for PolygonDjMapper<'_> {
    type K = u8;
    type V = u8;

    fn map_bytes(&self, split: &InputSplit, data: &[u8], ctx: &mut MapContext<u8, u8>) {
        use sh_geom::Polygon;
        let (left, right) = task_inputs::<Polygon>(split, data);
        let left_mbrs: Vec<Rect> = left.iter().map(Record::mbr).collect();
        let right_mbrs: Vec<Rect> = right.iter().map(Record::mbr).collect();
        let metas = self.pairing.metas(split);
        let candidates = ctx.register_counter("join.refine.candidates");
        let results = ctx.register_counter("join.results");
        let mut line = String::with_capacity(256);
        // MBR plane sweep as the filter, exact polygon test as the
        // refinement — the classic filter-and-refine join.
        plane_sweep_join_into(&left_mbrs, &right_mbrs, |i, j| {
            if let Some(rp) = reference_point(&left_mbrs[i], &right_mbrs[j]) {
                if !self.pairing.reports(metas, &rp) {
                    return;
                }
                ctx.inc(candidates, 1);
                if left[i].intersects(&right[j]) {
                    line.clear();
                    left[i].write_line(&mut line);
                    line.push_str(PAIR_SEPARATOR);
                    right[j].write_line(&mut line);
                    ctx.output(&line);
                    ctx.inc(results, 1);
                }
            }
        });
    }
}

/// Distributed *polygon* overlap join over two indexed polygon files —
/// the paper's motivating workload (e.g. lakes x parks): MBR sweep as
/// the filter step, exact polygon intersection as the refinement.
pub fn polygon_join(
    dfs: &Dfs,
    a: &SpatialFile,
    b: &SpatialFile,
) -> Result<OpResult<Vec<(sh_geom::Polygon, sh_geom::Polygon)>>, OpError> {
    let splits = pair_splits(dfs, a, b)?;
    let total_pairs = a.partitions.len() * b.partitions.len();
    let processed = splits.len();
    let job = JobBuilder::new(dfs, &format!("polyjoin:{}:{}", a.dir, b.dir))
        .input_splits(splits)
        .mapper(PolygonDjMapper {
            pairing: Pairing { a, b },
        })
        .map_only()?
        .run()?;
    let value = parse_pairs(&job.rows)?;
    let mut sel = Selectivity::of_split(total_pairs, processed, 0);
    sel.records_emitted = value.len() as u64;
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrlayer::local_index_path;
    use crate::ops::single;
    use crate::storage::{build_index, upload};
    use sh_dfs::ClusterConfig;
    use sh_index::PartitionKind;
    use sh_workload::rects;

    fn pair_line((a, b): &(Rect, Rect)) -> String {
        format!("{}{PAIR_SEPARATOR}{}", a.to_line(), b.to_line())
    }

    fn canon(v: Vec<(Rect, Rect)>) -> Vec<String> {
        let mut out: Vec<String> = v.iter().map(pair_line).collect();
        out.sort();
        out.dedup();
        out
    }

    fn expected_pairs(left: &[Rect], right: &[Rect]) -> Vec<(Rect, Rect)> {
        single::spatial_join(left, right)
            .value
            .into_iter()
            .map(|(i, j)| (left[i], right[j]))
            .collect()
    }

    #[test]
    fn sjmr_matches_baseline_without_duplicates() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let left = rects(800, &uni, 40.0, 1);
        let right = rects(800, &uni, 40.0, 2);
        upload(&dfs, "/l", &left).unwrap();
        upload(&dfs, "/r", &right).unwrap();
        let got = sjmr(&dfs, "/l", "/r", &uni, 16, "/out").unwrap();
        let expected = expected_pairs(&left, &right);
        assert!(!expected.is_empty());
        // Exact multiset equality: reference point rule removed dups.
        let mut got_lines: Vec<String> = got.value.iter().map(pair_line).collect();
        got_lines.sort();
        let mut exp_lines: Vec<String> = expected.iter().map(pair_line).collect();
        exp_lines.sort();
        assert_eq!(got_lines, exp_lines);
        assert!(
            got.counter("sjmr.replicated") > 1600 - 1,
            "replication happened"
        );
    }

    #[test]
    fn distributed_join_matches_baseline_disjoint_indexes() {
        dj_disjoint("/ia", "/ib");
    }

    #[test]
    fn distributed_join_survives_plus_in_index_paths() {
        // `str+` is a partitioner name, so this is a natural spelling; a
        // pair split's display name `pathA+pathB` must not be parsed.
        dj_disjoint("/idx/str+/a", "/idx/str+/b");
    }

    fn dj_disjoint(dir_a: &str, dir_b: &str) {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let left = rects(700, &uni, 50.0, 3);
        let right = rects(700, &uni, 50.0, 4);
        upload(&dfs, "/l", &left).unwrap();
        upload(&dfs, "/r", &right).unwrap();
        let fa = build_index::<Rect>(&dfs, "/l", dir_a, PartitionKind::Grid)
            .unwrap()
            .value;
        let fb = build_index::<Rect>(&dfs, "/r", dir_b, PartitionKind::Grid)
            .unwrap()
            .value;
        let got = distributed_join(&dfs, &fa, &fb, "/out").unwrap();
        assert_eq!(
            canon(got.value.clone()),
            canon(expected_pairs(&left, &right))
        );
        // Exactly once each (no dup elimination needed in canon).
        assert_eq!(got.value.len(), expected_pairs(&left, &right).len());
    }

    #[test]
    fn distributed_join_matches_baseline_overlapping_indexes() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let left = rects(600, &uni, 30.0, 5);
        let right = rects(600, &uni, 30.0, 6);
        upload(&dfs, "/l", &left).unwrap();
        upload(&dfs, "/r", &right).unwrap();
        let fa = build_index::<Rect>(&dfs, "/l", "/ia", PartitionKind::Str)
            .unwrap()
            .value;
        let fb = build_index::<Rect>(&dfs, "/r", "/ib", PartitionKind::Str)
            .unwrap()
            .value;
        let got = distributed_join(&dfs, &fa, &fb, "/out").unwrap();
        assert_eq!(got.value.len(), expected_pairs(&left, &right).len());
        assert_eq!(
            canon(got.value.clone()),
            canon(expected_pairs(&left, &right))
        );
        // The filter step pruned some partition pairs.
        assert!(got.counter("join.pairs.processed") < got.counter("join.pairs.considered"));
    }

    #[test]
    fn mixed_disjoint_and_overlapping() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let left = rects(500, &uni, 40.0, 7);
        let right = rects(500, &uni, 40.0, 8);
        upload(&dfs, "/l", &left).unwrap();
        upload(&dfs, "/r", &right).unwrap();
        let fa = build_index::<Rect>(&dfs, "/l", "/ia", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let fb = build_index::<Rect>(&dfs, "/r", "/ib", PartitionKind::Hilbert)
            .unwrap()
            .value;
        let got = distributed_join(&dfs, &fa, &fb, "/out").unwrap();
        assert_eq!(got.value.len(), expected_pairs(&left, &right).len());
    }

    /// The distinct partition files of a join's pair splits.
    fn paired_partitions(
        dfs: &Dfs,
        a: &SpatialFile,
        b: &SpatialFile,
    ) -> std::collections::BTreeSet<String> {
        let splits = pair_splits(dfs, a, b).unwrap();
        let mut paths = std::collections::BTreeSet::new();
        for split in &splits {
            for meta in (Pairing { a, b }).metas(split) {
                paths.insert(meta.path.clone());
            }
        }
        assert!(paths.len() < 2 * splits.len(), "partitions recur in pairs");
        paths
    }

    #[test]
    fn a_cold_join_opens_each_partition_once() {
        let dfs = Dfs::new(ClusterConfig {
            worker_threads: Some(4),
            ..ClusterConfig::small_for_tests()
        });
        dfs.cache().set_budget(0);
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let left = rects(700, &uni, 50.0, 3);
        let right = rects(700, &uni, 50.0, 4);
        upload(&dfs, "/l", &left).unwrap();
        upload(&dfs, "/r", &right).unwrap();
        let fa = build_index::<Rect>(&dfs, "/l", "/ia", PartitionKind::Grid)
            .unwrap()
            .value;
        let fb = build_index::<Rect>(&dfs, "/r", "/ib", PartitionKind::Grid)
            .unwrap()
            .value;
        let paired = paired_partitions(&dfs, &fa, &fb);
        for _ in 0..2 {
            let got = distributed_join(&dfs, &fa, &fb, "/out").unwrap();
            assert_eq!(got.counter("join.partitions.opened"), paired.len() as u64);
            assert_eq!(got.counter("cache.misses"), 2 * got.map_tasks() as u64);
            assert_eq!(canon(got.value), canon(expected_pairs(&left, &right)));
        }
        // A self-join's two sides are the same files, opened once.
        let got = distributed_join(&dfs, &fa, &fa, "/out").unwrap();
        assert_eq!(
            got.counter("join.partitions.opened"),
            paired_partitions(&dfs, &fa, &fa).len() as u64
        );
        assert_eq!(canon(got.value), canon(expected_pairs(&left, &left)));
        // On one worker the pairs run in turn: a task reads only the side
        // no earlier pair opened, so the blocks of every partition (its
        // file and its local index) are read once and no side twice.
        dfs.slots().set_total(1);
        let blocks: u64 = paired
            .iter()
            .flat_map(|path| [Some(path.clone()), local_index_path(path)])
            .flatten()
            .filter_map(|path| dfs.stat(&path).ok())
            .map(|stat| stat.num_blocks as u64)
            .sum();
        let before = dfs.metrics().snapshot();
        let got = distributed_join(&dfs, &fa, &fb, "/out").unwrap();
        let read = dfs.metrics().snapshot().since(&before);
        assert_eq!(read.blocks_read, blocks);
        assert!(got.map_tasks() > paired.len() / 2, "pairs share partitions");
        assert_eq!(canon(got.value), canon(expected_pairs(&left, &right)));
    }

    #[test]
    fn the_join_answer_is_unchanged_under_cache_pressure() {
        use crate::storage::{build_index_fmt, BlockFormat};
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let left = rects(500, &uni, 40.0, 21);
        let right = rects(500, &uni, 40.0, 22);
        upload(&dfs, "/l", &left).unwrap();
        upload(&dfs, "/r", &right).unwrap();
        let expected = canon(expected_pairs(&left, &right));
        let inputs = [
            ("disjoint", PartitionKind::Grid, PartitionKind::Grid),
            ("overlapping", PartitionKind::Str, PartitionKind::Str),
            ("mixed", PartitionKind::StrPlus, PartitionKind::Hilbert),
        ];
        for (name, kind_a, kind_b) in inputs {
            let mut answers = Vec::new();
            for format in [BlockFormat::Text, BlockFormat::Binary] {
                let dir = |side: &str| format!("/i/{name}/{format:?}/{side}");
                let fa = build_index_fmt::<Rect>(&dfs, "/l", &dir("a"), kind_a, format)
                    .unwrap()
                    .value;
                let fb = build_index_fmt::<Rect>(&dfs, "/r", &dir("b"), kind_b, format)
                    .unwrap()
                    .value;
                // Nothing, a few partitions, everything.
                for budget in [0, 8 * 1024, u64::MAX] {
                    for workers in [1, 4] {
                        dfs.cache().set_budget(budget);
                        dfs.slots().set_total(workers);
                        // The second run starts from what the first cached.
                        for run in 0..2 {
                            let got = distributed_join_rows(&dfs, &fa, &fb).unwrap();
                            let at = format!("{name} {format:?} budget {budget} x{workers} #{run}");
                            let pairs = parse_pairs(&got.value).unwrap();
                            assert_eq!(canon(pairs), expected, "{at}");
                            answers.push((at, got.value.text().to_string()));
                        }
                    }
                }
            }
            // Every setting writes the same rows in the same order.
            for (at, rows) in &answers {
                assert_eq!(rows, &answers[0].1, "{at}");
            }
        }
    }

    /// The rows a distributed join wrote before it swept only the shared
    /// region: every pair split's two whole partitions swept, the
    /// reference-point rule applied, splits in order.
    fn whole_partition_rows(dfs: &Dfs, a: &SpatialFile, b: &SpatialFile) -> Vec<String> {
        let read = |path: &str| {
            SpatialRecordReader::records_bytes::<Rect>(&dfs.read_bytes(path).unwrap()).unwrap()
        };
        let pairing = Pairing { a, b };
        let mut rows = Vec::new();
        for split in pair_splits(dfs, a, b).unwrap() {
            let metas = pairing.metas(&split);
            let (left, right) = (read(&metas[0].path), read(&metas[1].path));
            plane_sweep_join_into(&left, &right, |i, j| {
                let rp = reference_point(&left[i], &right[j]).unwrap();
                if pairing.reports(metas, &rp) {
                    rows.push(pair_line(&(left[i], right[j])));
                }
            });
        }
        rows
    }

    #[test]
    fn the_shared_region_sweep_writes_the_whole_partition_rows_on_edge_cases() {
        // Coordinates `k * 100 / n` hit every cell edge of a grid of up
        // to 8 x 8 cells over [0, 100]^2 exactly; a third of the rects
        // are zero-width or zero-height; the anchors pin the universe
        // and lie on its closed max boundary.
        let mut rng = sh_rand::Rng::seed(48);
        let coord = |rng: &mut sh_rand::Rng| {
            let n = 1 + rng.below(8);
            rng.below(n + 1) as f64 * (100.0 / n as f64)
        };
        let gen = |rng: &mut sh_rand::Rng| -> Vec<Rect> {
            let mut out = vec![
                Rect::new(0.0, 0.0, 0.0, 0.0),
                Rect::new(100.0, 100.0, 100.0, 100.0),
                Rect::new(100.0, 0.0, 100.0, 100.0),
                Rect::new(0.0, 100.0, 100.0, 100.0),
            ];
            for _ in 0..400 {
                let (xa, xb, ya, yb) = (coord(rng), coord(rng), coord(rng), coord(rng));
                let r = Rect::new(xa.min(xb), ya.min(yb), xa.max(xb), ya.max(yb));
                out.push(match rng.below(3) {
                    0 => Rect::new(r.x1, r.y1, r.x1, r.y2),
                    1 => Rect::new(r.x1, r.y1, r.x2, r.y1),
                    _ => r,
                });
            }
            out
        };
        let left = gen(&mut rng);
        let right = gen(&mut rng);
        let dfs = Dfs::new(ClusterConfig {
            block_size: 1024,
            ..ClusterConfig::small_for_tests()
        });
        upload(&dfs, "/l", &left).unwrap();
        upload(&dfs, "/r", &right).unwrap();
        let index =
            |heap: &str, dir: &str, kind| build_index::<Rect>(&dfs, heap, dir, kind).unwrap().value;
        let grid_a = index("/l", "/ga", PartitionKind::Grid);
        let grid_b = index("/r", "/gb", PartitionKind::Grid);
        let str_b = index("/r", "/sb", PartitionKind::Str);
        assert!(grid_a.partitions.len() >= 9, "cells to have edges");
        let cases = [
            ("disjoint x disjoint", &grid_a, &grid_b, &right),
            ("disjoint x overlapping", &grid_a, &str_b, &right),
            ("self-join", &grid_a, &grid_a, &left),
        ];
        for (name, a, b, right) in cases {
            let got = distributed_join_rows(&dfs, a, b).unwrap().value;
            assert!(!got.is_empty(), "{name}");
            assert!(
                got.lines().eq(whole_partition_rows(&dfs, a, b)),
                "{name}: rows differ"
            );
            // Each result exactly once (the data repeats some rects).
            let sorted = |pairs: Vec<(Rect, Rect)>| {
                let mut lines: Vec<String> = pairs.iter().map(pair_line).collect();
                lines.sort();
                lines
            };
            assert_eq!(
                sorted(parse_pairs(&got).unwrap()),
                sorted(expected_pairs(&left, right)),
                "{name}"
            );
        }
    }

    #[test]
    fn polygon_join_matches_exact_baseline() {
        use sh_geom::Polygon;
        use sh_workload::osm_like_polygons;
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let lakes = osm_like_polygons(150, &uni, 25.0, 10);
        let parks = osm_like_polygons(150, &uni, 25.0, 11);
        upload(&dfs, "/lakes", &lakes).unwrap();
        upload(&dfs, "/parks", &parks).unwrap();
        let fa = build_index::<Polygon>(&dfs, "/lakes", "/il", PartitionKind::Grid)
            .unwrap()
            .value;
        let fb = build_index::<Polygon>(&dfs, "/parks", "/ip", PartitionKind::Grid)
            .unwrap()
            .value;
        let got = polygon_join(&dfs, &fa, &fb).unwrap();
        // Exact baseline: nested loop with the true polygon test.
        let mut expected = 0usize;
        for l in &lakes {
            for p in &parks {
                if l.intersects(p) {
                    expected += 1;
                }
            }
        }
        assert_eq!(got.value.len(), expected);
        assert!(expected > 0, "workload must produce overlaps");
        // Every reported pair really overlaps.
        for (l, p) in &got.value {
            assert!(l.intersects(p));
        }
        // The MBR filter admitted more candidates than true results.
        assert!(got.counter("join.refine.candidates") >= got.value.len() as u64);
    }

    #[test]
    fn polygon_join_mixed_index_kinds() {
        use sh_geom::Polygon;
        use sh_workload::osm_like_polygons;
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let a = osm_like_polygons(120, &uni, 30.0, 12);
        let b = osm_like_polygons(120, &uni, 30.0, 13);
        upload(&dfs, "/a", &a).unwrap();
        upload(&dfs, "/b", &b).unwrap();
        let fa = build_index::<Polygon>(&dfs, "/a", "/ia", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let fb = build_index::<Polygon>(&dfs, "/b", "/ib", PartitionKind::Str)
            .unwrap()
            .value;
        let got = polygon_join(&dfs, &fa, &fb).unwrap();
        let mut expected = 0usize;
        for l in &a {
            for p in &b {
                if l.intersects(p) {
                    expected += 1;
                }
            }
        }
        assert_eq!(got.value.len(), expected);
    }

    #[test]
    fn empty_sides_yield_empty_result() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let left = rects(50, &uni, 5.0, 9);
        let right = vec![Rect::new(90.0, 90.0, 91.0, 91.0)];
        upload(&dfs, "/l", &left).unwrap();
        upload(&dfs, "/r", &right).unwrap();
        let got = sjmr(&dfs, "/l", "/r", &uni, 4, "/out").unwrap();
        assert_eq!(canon(got.value), canon(expected_pairs(&left, &right)));
    }
}
