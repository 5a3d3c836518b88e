//! Voronoi diagram construction.
//!
//! * **Hadoop** — the state-of-the-art MapReduce algorithm the paper
//!   improves on: partition into vertical strips, build a partial diagram
//!   per strip, merge *everything* on one machine. The transferred
//!   partial diagrams are several times larger than the input, so the
//!   merge is the scalability wall.
//! * **SpatialHadoop** — the pruning algorithm: each partition builds its
//!   local diagram, flushes the *safe* cells (dangerous zone inside the
//!   partition) straight to the output, and forwards only the non-final
//!   sites plus their one-ring Delaunay neighbours (as non-output
//!   *witnesses*) to a per-column vertical merge; the vertical merge
//!   flushes what becomes safe within its column and forwards the rest to
//!   a final driver-side horizontal merge. Each merge level recomputes
//!   the diagram over its (tiny) received site set — exact because a
//!   pending site's final Delaunay neighbours are always among the
//!   forwarded sites (flushed cells are never adjacent to pending ones).
//!
//! Requires a disjoint, column-aligned partitioning (grid or STR+).

use std::collections::BTreeMap;
use std::time::Instant;

use sh_dfs::Dfs;
use sh_geom::algorithms::delaunay::Triangulation;
use sh_geom::algorithms::voronoi::{VoronoiCell, VoronoiDiagram};
use sh_geom::point::sort_dedup;
use sh_geom::{Point, Rect};
use sh_mapreduce::{InputSplit, JobBuilder, JobOutcome, MapContext, ReduceContext, Reducer};

use crate::catalog::SpatialFile;
use crate::mrlayer::{split_cell, ByRecords, RecordMapper, SpatialFileSplitter};
use crate::opresult::{OpError, OpResult};
use crate::ops::side_text;

/// A finalized Voronoi cell as the operation outputs it.
#[derive(Clone, Debug)]
pub struct VCell {
    /// The generating site.
    pub site: Point,
    /// Cell vertices (empty when unbounded).
    pub vertices: Vec<Point>,
    /// False when the cell extends to infinity.
    pub bounded: bool,
}

impl VCell {
    fn from_cell(c: &VoronoiCell) -> VCell {
        VCell {
            site: c.site,
            vertices: c.vertices.clone(),
            bounded: c.bounded,
        }
    }

    fn encode(&self) -> String {
        let mut s = format!(
            "C {} {} {} {}",
            self.site.x,
            self.site.y,
            u8::from(self.bounded),
            self.vertices.len()
        );
        for v in &self.vertices {
            s.push_str(&format!(" {} {}", v.x, v.y));
        }
        s
    }

    fn decode(line: &str) -> Result<VCell, OpError> {
        let toks: Vec<&str> = line.split_ascii_whitespace().collect();
        if toks.first() != Some(&"C") || toks.len() < 5 {
            return Err(OpError::Corrupt(format!("bad cell line: {line:?}")));
        }
        let f = |s: &str| -> Result<f64, OpError> {
            s.parse()
                .map_err(|_| OpError::Corrupt(format!("bad cell number {s:?}")))
        };
        let site = Point::new(f(toks[1])?, f(toks[2])?);
        let bounded = toks[3] == "1";
        let n: usize = toks[4]
            .parse()
            .map_err(|_| OpError::Corrupt(format!("bad vertex count in {line:?}")))?;
        let mut vertices = Vec::with_capacity(n);
        for i in 0..n {
            vertices.push(Point::new(f(toks[5 + 2 * i])?, f(toks[6 + 2 * i])?));
        }
        Ok(VCell {
            site,
            vertices,
            bounded,
        })
    }

    /// Canonical fingerprint for cross-implementation comparison.
    pub fn fingerprint(&self) -> (i64, i64, Vec<(i64, i64)>, bool) {
        let q = |v: f64| (v * 1e5).round() as i64;
        let mut verts: Vec<(i64, i64)> = self.vertices.iter().map(|p| (q(p.x), q(p.y))).collect();
        verts.sort_unstable();
        verts.dedup();
        (q(self.site.x), q(self.site.y), verts, self.bounded)
    }
}

/// True when the partition cells form full-height vertical columns
/// (cells sharing an x-interval tile the whole universe y-extent), which
/// is what the vertical-merge slab test requires.
fn columns_are_aligned(file: &SpatialFile) -> bool {
    use std::collections::HashMap;
    let mut columns: HashMap<(u64, u64), f64> = HashMap::new();
    for m in &file.partitions {
        *columns
            .entry((m.cell[0].to_bits(), m.cell[2].to_bits()))
            .or_insert(0.0) += m.cell[3] - m.cell[1];
    }
    let height = file.universe.height();
    columns
        .values()
        .all(|&h| (h - height).abs() <= 1e-6 * height.max(1.0))
}

/// Safety in x only (column-level test): every dangerous-zone circle
/// stays within the vertical slab `[x1, x2]`.
fn safe_in_slab(cell: &VoronoiCell, x1: f64, x2: f64) -> bool {
    if !cell.bounded {
        return false;
    }
    cell.vertices.iter().all(|v| {
        let r = v.distance(&cell.site);
        v.x - r >= x1 && v.x + r <= x2
    })
}

// ----------------------------------------------------------------- hadoop

struct StripMapper {
    universe: Rect,
    strips: usize,
}

impl RecordMapper for StripMapper {
    type R = Point;
    type K = u64;
    type V = (f64, f64);

    fn map_records(
        &self,
        _split: &InputSplit,
        points: Vec<Point>,
        ctx: &mut MapContext<u64, (f64, f64)>,
    ) {
        let w = self.universe.width().max(1e-12);
        for p in points {
            let s = (((p.x - self.universe.x1) / w) * self.strips as f64)
                .floor()
                .clamp(0.0, self.strips as f64 - 1.0) as u64;
            ctx.emit(s, (p.x, p.y));
        }
    }
}

struct StripVdReducer;

impl Reducer for StripVdReducer {
    type K = u64;
    type V = (f64, f64);

    fn reduce(&self, _strip: &u64, values: Vec<(f64, f64)>, ctx: &mut ReduceContext) {
        let mut sites: Vec<Point> = values.iter().map(|&(x, y)| Point::new(x, y)).collect();
        sort_dedup(&mut sites);
        // Build the partial diagram (the real compute cost) and transfer
        // it whole to the merge — the bottleneck this algorithm has.
        let vd = VoronoiDiagram::build(&sites);
        ctx.counter("voronoi.partial.cells", vd.cells.len() as u64);
        for c in &vd.cells {
            ctx.output(&VCell::from_cell(c).encode());
        }
    }
}

/// Hadoop Voronoi: strip partitioning + single-machine merge (modelled as
/// a driver-side recomputation whose time and transfer volume are
/// recorded by [`JobOutcome::driver_merge`]).
pub fn voronoi_hadoop(
    dfs: &Dfs,
    heap: &str,
    universe: &Rect,
) -> Result<OpResult<Vec<VCell>>, OpError> {
    let stat = dfs.stat(heap)?;
    let strips = (stat.len.div_ceil(dfs.config().block_size)).max(1) as usize;
    let job = JobBuilder::new(dfs, &format!("voronoi-hadoop:{heap}"))
        .input_file(heap)?
        .mapper(ByRecords(StripMapper {
            universe: *universe,
            strips,
        }))
        .reducer(
            StripVdReducer,
            strips.min(dfs.config().total_reduce_slots()).max(1),
        )
        .build()?
        .run()?;
    // Driver-side merge: recompute over all sites of the partial
    // diagrams (the partial structure does not help a recomputation-free
    // merge; transferring and merging it is exactly the bottleneck).
    let transferred = job.rows.text().len() as u64;
    let mut sites: Vec<Point> = job
        .rows
        .lines()
        .map(|l| VCell::decode(l).map(|c| c.site))
        .collect::<Result<_, _>>()?;
    sort_dedup(&mut sites);
    let t0 = Instant::now();
    let vd = VoronoiDiagram::build(&sites);
    let merge_phase = JobOutcome::driver_merge(
        "voronoi-hadoop:driver-merge",
        BTreeMap::from([("voronoi.merge.bytes".to_string(), transferred)]),
        transferred,
        t0.elapsed(),
        dfs.config(),
    );
    let value: Vec<VCell> = vd.cells.iter().map(VCell::from_cell).collect();
    let sel = sh_trace::Selectivity::full_scan(job.map_tasks(), value.len() as u64);
    Ok(OpResult::new(value, vec![job, merge_phase]).with_selectivity(sel))
}

// ----------------------------------------------------------- spatialhadoop

/// Status tag for forwarded sites.
const PENDING: u8 = 0;
const WITNESS: u8 = 1;

struct LocalVdMapper {
    /// Whether the partitioning is column-aligned (grid/STR+).
    aligned: bool,
}

impl RecordMapper for LocalVdMapper {
    type R = Point;
    type K = (u64, u64);
    type V = (u8, f64, f64);

    fn map_records(
        &self,
        split: &InputSplit,
        mut sites: Vec<Point>,
        ctx: &mut MapContext<(u64, u64), (u8, f64, f64)>,
    ) {
        let cell_rect = split_cell(split);
        // Column key: the partition cell's x-interval, bit-encoded — but
        // only when the partitioning is column-aligned. Otherwise
        // everything shares a degenerate key whose slab test never
        // passes, so the vertical merge becomes a pure forwarding stage
        // and the driver merge finishes the job (the quad-tree / k-d tree
        // path).
        let key = if self.aligned {
            (cell_rect.x1.to_bits(), cell_rect.x2.to_bits())
        } else {
            (0u64, 0u64)
        };
        sort_dedup(&mut sites);
        ctx.counter("voronoi.sites", sites.len() as u64);
        let tri = Triangulation::build(&sites);
        let vd = VoronoiDiagram::from_triangulation(&tri);
        let rings = tri.neighbor_rings();
        let mut pending = vec![false; sites.len()];
        for c in &vd.cells {
            if c.is_safe(&cell_rect) {
                ctx.output(&VCell::from_cell(c).encode());
                ctx.counter("voronoi.flushed.local", 1);
            } else {
                pending[c.site_ix] = true;
            }
        }
        // Forward pending sites plus their one-ring as witnesses.
        let mut witness = vec![false; sites.len()];
        for (i, &is_pending) in pending.iter().enumerate() {
            if is_pending {
                for &j in rings.get(i).map(|r| r.as_slice()).unwrap_or(&[]) {
                    if !pending[j] {
                        witness[j] = true;
                    }
                }
            }
        }
        for (i, s) in sites.iter().enumerate() {
            if pending[i] {
                ctx.emit(key, (PENDING, s.x, s.y));
                ctx.counter("voronoi.forwarded.pending", 1);
            } else if witness[i] {
                ctx.emit(key, (WITNESS, s.x, s.y));
                ctx.counter("voronoi.forwarded.witness", 1);
            }
        }
    }
}

struct VMergeReducer;

impl Reducer for VMergeReducer {
    type K = (u64, u64);
    type V = (u8, f64, f64);

    fn reduce(&self, key: &(u64, u64), values: Vec<(u8, f64, f64)>, ctx: &mut ReduceContext) {
        let (x1, x2) = (f64::from_bits(key.0), f64::from_bits(key.1));
        let (sites, pending) = dedup_sites(values);
        let tri = Triangulation::build(&sites);
        let vd = VoronoiDiagram::from_triangulation(&tri);
        let rings = tri.neighbor_rings();
        let mut still_pending = vec![false; sites.len()];
        for c in &vd.cells {
            if !pending[c.site_ix] {
                continue;
            }
            if safe_in_slab(c, x1, x2) {
                ctx.output(&VCell::from_cell(c).encode());
                ctx.counter("voronoi.flushed.vmerge", 1);
            } else {
                still_pending[c.site_ix] = true;
            }
        }
        let mut witness = vec![false; sites.len()];
        for (i, &p) in still_pending.iter().enumerate() {
            if p {
                for &j in rings.get(i).map(|r| r.as_slice()).unwrap_or(&[]) {
                    if !still_pending[j] {
                        witness[j] = true;
                    }
                }
            }
        }
        for (i, s) in sites.iter().enumerate() {
            if still_pending[i] {
                ctx.side_output("_hmerge", &format!("P {} {}", s.x, s.y));
            } else if witness[i] {
                ctx.side_output("_hmerge", &format!("W {} {}", s.x, s.y));
            }
        }
    }
}

/// Deduplicates forwarded sites (pending status wins) and returns the
/// site list plus a pending mask aligned with it.
fn dedup_sites(values: Vec<(u8, f64, f64)>) -> (Vec<Point>, Vec<bool>) {
    let mut tagged: Vec<(Point, bool)> = values
        .into_iter()
        .map(|(t, x, y)| (Point::new(x, y), t == PENDING))
        .collect();
    tagged.sort_by(|a, b| a.0.cmp_xy(&b.0).then(b.1.cmp(&a.1)));
    tagged.dedup_by(|a, b| {
        if a.0.approx_eq(&b.0) {
            b.1 |= a.1;
            true
        } else {
            false
        }
    });
    let sites: Vec<Point> = tagged.iter().map(|(p, _)| *p).collect();
    let pending: Vec<bool> = tagged.iter().map(|(_, p)| *p).collect();
    (sites, pending)
}

/// SpatialHadoop Voronoi: local safe-cell flush → vertical merge →
/// driver horizontal merge.
pub fn voronoi_spatial(dfs: &Dfs, file: &SpatialFile) -> Result<OpResult<Vec<VCell>>, OpError> {
    if !file.is_disjoint() {
        return Err(OpError::Unsupported(
            "voronoi_spatial requires a disjoint partitioning".into(),
        ));
    }
    // Column-aligned partitionings (grid/STR+) get the paper's vertical
    // merge; others (quad-tree, k-d tree) skip straight to the driver
    // merge, which the same exactness argument covers.
    let aligned = columns_are_aligned(file);
    let splits = SpatialFileSplitter::all_splits(dfs, file)?;
    let mut sel = crate::mrlayer::splitter_selectivity(file, &splits);
    let columns: std::collections::HashSet<(u64, u64)> = if aligned {
        file.partitions
            .iter()
            .map(|m| (m.cell[0].to_bits(), m.cell[2].to_bits()))
            .collect()
    } else {
        std::iter::once((0u64, 0u64)).collect()
    };
    let mut job = JobBuilder::new(dfs, &format!("voronoi-spatial:{}", file.dir))
        .input_splits(splits)
        .mapper(ByRecords(LocalVdMapper { aligned }))
        .pair_size(|_, _| 17)
        .reducer(
            VMergeReducer,
            columns.len().min(dfs.config().total_reduce_slots()).max(1),
        )
        .build()?
        .run()?;

    // Horizontal merge on the driver over the forwarded remainder.
    let side = std::mem::take(&mut job.side);
    let mut h_cells: Vec<VCell> = Vec::new();
    let mut h_outcome: Option<JobOutcome> = None;
    if let Some(hmerge) = side.get("_hmerge") {
        let text = side_text("_hmerge", hmerge)?;
        let transferred = text.len() as u64;
        let values: Vec<(u8, f64, f64)> = text
            .lines()
            .map(|l| {
                let toks: Vec<&str> = l.split_ascii_whitespace().collect();
                let tag = if toks[0] == "P" { PENDING } else { WITNESS };
                (
                    tag,
                    toks[1].parse().expect("hmerge x"),
                    toks[2].parse().expect("hmerge y"),
                )
            })
            .collect();
        let t0 = Instant::now();
        let (sites, pending) = dedup_sites(values);
        let vd = VoronoiDiagram::build(&sites);
        for c in &vd.cells {
            if pending[c.site_ix] {
                h_cells.push(VCell::from_cell(c));
            }
        }
        h_outcome = Some(JobOutcome::driver_merge(
            "voronoi-spatial:h-merge",
            BTreeMap::from([
                ("voronoi.hmerge.bytes".to_string(), transferred),
                ("voronoi.flushed.hmerge".to_string(), h_cells.len() as u64),
            ]),
            transferred,
            t0.elapsed(),
            dfs.config(),
        ));
    }

    let mut value: Vec<VCell> = job
        .rows
        .lines()
        .map(VCell::decode)
        .collect::<Result<_, _>>()?;
    value.extend(h_cells);
    let mut jobs = vec![job];
    jobs.extend(h_outcome);
    sel.records_emitted = value.len() as u64;
    Ok(OpResult::new(value, jobs).with_selectivity(sel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::single;
    use crate::storage::{build_index, upload};
    use sh_dfs::ClusterConfig;
    use sh_index::PartitionKind;
    use sh_workload::{osm_like_points, points, Distribution};

    /// A cell's fingerprint: site, vertices, and whether it is bounded.
    type Fingerprint = (i64, i64, Vec<(i64, i64)>, bool);

    fn canon(cells: &[VCell]) -> Vec<Fingerprint> {
        let mut f: Vec<_> = cells.iter().map(VCell::fingerprint).collect();
        f.sort();
        f
    }

    fn canon_vd(vd: &VoronoiDiagram) -> Vec<Fingerprint> {
        let cells: Vec<VCell> = vd.cells.iter().map(VCell::from_cell).collect();
        canon(&cells)
    }

    fn run_spatial(n: usize, seed: u64, kind: PartitionKind, dist: Distribution) {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let mut pts = points(n, dist, &uni, seed);
        sort_dedup(&mut pts);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", kind)
            .unwrap()
            .value;
        let expected = single::voronoi_single(&pts).value;
        let got = voronoi_spatial(&dfs, &file).unwrap();
        assert_eq!(got.value.len(), pts.len(), "one cell per site");
        assert_eq!(canon(&got.value), canon_vd(&expected), "{}", kind.name());
        // The whole point: most cells are finalized before any merge.
        let local = got.counter("voronoi.flushed.local");
        assert!(
            local as f64 > 0.5 * pts.len() as f64,
            "local flush too weak: {local}/{n}"
        );
    }

    #[test]
    fn spatial_matches_single_machine_grid_uniform() {
        run_spatial(1500, 91, PartitionKind::Grid, Distribution::Uniform);
    }

    #[test]
    fn spatial_matches_single_machine_strplus_uniform() {
        run_spatial(1500, 92, PartitionKind::StrPlus, Distribution::Uniform);
    }

    #[test]
    fn spatial_matches_single_machine_gaussian() {
        run_spatial(1200, 93, PartitionKind::StrPlus, Distribution::Gaussian);
    }

    #[test]
    fn spatial_matches_single_machine_osm_like() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let mut pts = osm_like_points(1200, &uni, 4, 94);
        sort_dedup(&mut pts);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::Grid)
            .unwrap()
            .value;
        let expected = single::voronoi_single(&pts).value;
        let got = voronoi_spatial(&dfs, &file).unwrap();
        assert_eq!(canon(&got.value), canon_vd(&expected));
    }

    #[test]
    fn hadoop_matches_single_machine() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let mut pts = points(800, Distribution::Uniform, &uni, 95);
        sort_dedup(&mut pts);
        upload(&dfs, "/heap", &pts).unwrap();
        let expected = single::voronoi_single(&pts).value;
        let got = voronoi_hadoop(&dfs, "/heap", &uni).unwrap();
        assert_eq!(canon(&got.value), canon_vd(&expected));
        // The merge transferred the whole (inflated) diagram.
        let bytes = got.counter("voronoi.merge.bytes");
        assert!(bytes > 0);
        // It is charged as one reduce task that receives those bytes over
        // one link and runs for exactly the time the driver measured.
        let merge = &got.jobs[1].profile;
        assert_eq!(merge.job, "voronoi-hadoop:driver-merge");
        let phase = |name| merge.phase(name).unwrap();
        assert_eq!(
            phase("shuffle").sim_seconds,
            bytes as f64 / dfs.config().network_bandwidth
        );
        assert_eq!(phase("map").tasks, 0);
        assert_eq!(phase("reduce").tasks, 1);
        assert_eq!(phase("reduce").sim_seconds, merge.wall.as_secs_f64());
    }

    #[test]
    fn quadtree_and_kdtree_partitionings_are_exact_via_driver_merge() {
        for kind in [PartitionKind::QuadTree, PartitionKind::KdTree] {
            let dfs = Dfs::new(ClusterConfig::small_for_tests());
            let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
            let mut pts = osm_like_points(1000, &uni, 4, 96);
            sort_dedup(&mut pts);
            upload(&dfs, "/heap", &pts).unwrap();
            let file = build_index::<Point>(&dfs, "/heap", "/idx", kind)
                .unwrap()
                .value;
            let got = voronoi_spatial(&dfs, &file).unwrap();
            let expected = single::voronoi_single(&pts).value;
            assert_eq!(canon(&got.value), canon_vd(&expected), "{}", kind.name());
            // Local flush still fires; the v-merge flush does not.
            assert!(got.counter("voronoi.flushed.local") > 0, "{}", kind.name());
            assert_eq!(got.counter("voronoi.flushed.vmerge"), 0, "{}", kind.name());
            crate::storage::delete_dir(&dfs, "/idx");
            dfs.delete("/heap");
        }
    }

    #[test]
    fn rejects_overlapping_partitionings() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(500, Distribution::Uniform, &uni, 97);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::Hilbert)
            .unwrap()
            .value;
        assert!(matches!(
            voronoi_spatial(&dfs, &file),
            Err(OpError::Unsupported(_))
        ));
    }

    #[test]
    fn cell_encoding_roundtrip() {
        let c = VCell {
            site: Point::new(1.5, 2.5),
            vertices: vec![
                Point::new(0.0, 0.0),
                Point::new(3.0, 0.0),
                Point::new(1.5, 4.0),
            ],
            bounded: true,
        };
        let d = VCell::decode(&c.encode()).unwrap();
        assert_eq!(d.fingerprint(), c.fingerprint());
        assert!(VCell::decode("garbage").is_err());
    }
}
