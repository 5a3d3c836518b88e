//! Delaunay triangulation (the Voronoi diagram's dual, constructed
//! distributively with the same safe-region machinery).
//!
//! * **Hadoop** — vertical strips, local triangulations, single-machine
//!   merge (modelled as a driver recomputation, like the Hadoop Voronoi).
//! * **SpatialHadoop** — per partition: triangulate locally and *flush
//!   every triangle whose circumcircle lies inside the partition cell* —
//!   no site outside the cell can ever invalidate it (the empty-
//!   circumcircle property is witnessed entirely inside the cell).
//!   Non-final sites (not Voronoi-safe) plus their one-ring travel to a
//!   driver merge that recomputes only the boundary strip and emits the
//!   remaining triangles, skipping exactly those the map side already
//!   flushed. The result is cell-for-cell identical to a single-machine
//!   triangulation.

use std::collections::BTreeMap;
use std::time::Instant;

use sh_dfs::Dfs;
use sh_geom::algorithms::delaunay::{circumcenter, Triangulation};
use sh_geom::algorithms::voronoi::VoronoiDiagram;
use sh_geom::point::sort_dedup;
use sh_geom::{Point, Rect};
use sh_mapreduce::{InputSplit, JobBuilder, JobOutcome, MapContext};

use crate::catalog::SpatialFile;
use crate::mrlayer::{split_cell, ByRecords, RecordMapper, SpatialFileSplitter};
use crate::opresult::{OpError, OpResult};
use crate::ops::side_text;

/// One output triangle.
#[derive(Clone, Copy, Debug)]
pub struct Tri(pub [Point; 3]);

impl Tri {
    fn encode(&self) -> String {
        let [a, b, c] = self.0;
        format!("T {} {} {} {} {} {}", a.x, a.y, b.x, b.y, c.x, c.y)
    }

    fn decode(line: &str) -> Result<Tri, OpError> {
        let toks: Vec<&str> = line.split_ascii_whitespace().collect();
        if toks.first() != Some(&"T") || toks.len() != 7 {
            return Err(OpError::Corrupt(format!("bad triangle line: {line:?}")));
        }
        let f = |i: usize| -> Result<f64, OpError> {
            toks[i]
                .parse()
                .map_err(|_| OpError::Corrupt(format!("bad triangle number {:?}", toks[i])))
        };
        Ok(Tri([
            Point::new(f(1)?, f(2)?),
            Point::new(f(3)?, f(4)?),
            Point::new(f(5)?, f(6)?),
        ]))
    }

    /// Canonical fingerprint: sorted quantized vertices.
    pub fn fingerprint(&self) -> [(i64, i64); 3] {
        let q = |v: f64| (v * 1e6).round() as i64;
        let mut vs = self.0.map(|p| (q(p.x), q(p.y)));
        vs.sort_unstable();
        vs
    }
}

/// True when the circumcircle of `(a, b, c)` lies inside `cell`.
fn circumcircle_inside(a: &Point, b: &Point, c: &Point, cell: &Rect) -> bool {
    match circumcenter(a, b, c) {
        None => false,
        Some(cc) => {
            let r = cc.distance(a);
            cc.x - r >= cell.x1 && cc.x + r <= cell.x2 && cc.y - r >= cell.y1 && cc.y + r <= cell.y2
        }
    }
}

struct LocalDtMapper;

impl RecordMapper for LocalDtMapper {
    type R = Point;
    type K = u8;
    /// `(tag, partition id, x, y)` — tag 0 = pending, 1 = witness.
    type V = (u8, u64, f64, f64);

    fn map_records(
        &self,
        split: &InputSplit,
        mut sites: Vec<Point>,
        ctx: &mut MapContext<u8, (u8, u64, f64, f64)>,
    ) {
        let cell = split_cell(split);
        let pid = split.partition_id.expect("spatial split") as u64;
        sort_dedup(&mut sites);
        ctx.counter("delaunay.sites", sites.len() as u64);
        let tri = Triangulation::build(&sites);
        // Flush final triangles: empty circumcircle witnessed inside the
        // cell.
        for t in tri.triangles() {
            let [a, b, c] = t.map(|i| sites[i]);
            if circumcircle_inside(&a, &b, &c, &cell) {
                ctx.output(&Tri([a, b, c]).encode());
                ctx.counter("delaunay.flushed.local", 1);
            }
        }
        // Forward boundary sites (not Voronoi-safe) + one-ring witnesses.
        let vd = VoronoiDiagram::from_triangulation(&tri);
        let rings = tri.neighbor_rings();
        let mut pending = vec![false; sites.len()];
        for c in &vd.cells {
            if !c.is_safe(&cell) {
                pending[c.site_ix] = true;
            }
        }
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
                ctx.emit(1, (0, pid, s.x, s.y));
                ctx.counter("delaunay.forwarded", 1);
            } else if witness[i] {
                ctx.emit(1, (1, pid, s.x, s.y));
                ctx.counter("delaunay.forwarded", 1);
            }
        }
    }
}

/// Collecting reducer: the merge runs on the driver, so the lone reducer
/// just forwards the site set as a side output.
struct ForwardReducer;

impl sh_mapreduce::Reducer for ForwardReducer {
    type K = u8;
    type V = (u8, u64, f64, f64);

    fn reduce(
        &self,
        _key: &u8,
        values: Vec<(u8, u64, f64, f64)>,
        ctx: &mut sh_mapreduce::ReduceContext,
    ) {
        for (tag, pid, x, y) in values {
            ctx.side_output("_merge", &format!("{tag} {pid} {x} {y}"));
        }
    }
}

/// SpatialHadoop Delaunay triangulation over a disjoint point index.
pub fn delaunay_spatial(dfs: &Dfs, file: &SpatialFile) -> Result<OpResult<Vec<Tri>>, OpError> {
    if !file.is_disjoint() {
        return Err(OpError::Unsupported(
            "delaunay_spatial requires a disjoint partitioning".into(),
        ));
    }
    let splits = SpatialFileSplitter::all_splits(dfs, file)?;
    let mut sel = crate::mrlayer::splitter_selectivity(file, &splits);
    let mut job = JobBuilder::new(dfs, &format!("delaunay-spatial:{}", file.dir))
        .input_splits(splits)
        .mapper(ByRecords(LocalDtMapper))
        .pair_size(|_, _| 25)
        .reducer(ForwardReducer, 1)
        .build()?
        .run()?;
    let side = std::mem::take(&mut job.side);

    // Driver merge over the boundary strip.
    let mut triangles: Vec<Tri> = job
        .rows
        .lines()
        .map(Tri::decode)
        .collect::<Result<_, _>>()?;
    let mut jobs = vec![job];
    if let Some(merge) = side.get("_merge") {
        let text = side_text("_merge", merge)?;
        let t0 = Instant::now();
        let mut entries: Vec<(bool, u64, Point)> = Vec::new();
        for line in text.lines() {
            let toks: Vec<&str> = line.split_ascii_whitespace().collect();
            entries.push((
                toks[0] == "0",
                toks[1].parse().expect("pid"),
                Point::new(toks[2].parse().expect("x"), toks[3].parse().expect("y")),
            ));
        }
        // Dedup (pending wins) keyed on coordinates.
        entries.sort_by(|a, b| a.2.cmp_xy(&b.2).then(b.0.cmp(&a.0)));
        entries.dedup_by(|a, b| {
            if a.2.approx_eq(&b.2) {
                b.0 |= a.0;
                true
            } else {
                false
            }
        });
        let sites: Vec<Point> = entries.iter().map(|e| e.2).collect();
        let pending: Vec<bool> = entries.iter().map(|e| e.0).collect();
        let pids: Vec<u64> = entries.iter().map(|e| e.1).collect();
        let cell_of_pid = |pid: u64| -> Rect {
            file.partitions
                .iter()
                .find(|m| m.id as u64 == pid)
                .map(|m| m.cell_rect())
                .unwrap_or_else(Rect::empty)
        };
        let tri = Triangulation::build(&sites);
        let mut emitted = 0u64;
        for t in tri.triangles() {
            // Emit triangles touching a pending site, except those the
            // map side already flushed (all vertices in one partition
            // with the circumcircle inside that partition's cell).
            if !t.iter().any(|&i| pending[i]) {
                continue;
            }
            let [a, b, c] = t.map(|i| sites[i]);
            let same_pid = pids[t[0]] == pids[t[1]] && pids[t[1]] == pids[t[2]];
            if same_pid && circumcircle_inside(&a, &b, &c, &cell_of_pid(pids[t[0]])) {
                continue; // already flushed by that partition
            }
            triangles.push(Tri([a, b, c]));
            emitted += 1;
        }
        jobs.push(JobOutcome::driver_merge(
            "delaunay-spatial:driver-merge",
            BTreeMap::from([("delaunay.flushed.merge".to_string(), emitted)]),
            text.len() as u64,
            t0.elapsed(),
            dfs.config(),
        ));
    }
    sel.records_emitted = triangles.len() as u64;
    Ok(OpResult::new(triangles, jobs).with_selectivity(sel))
}

struct StripDtMapper {
    universe: Rect,
    strips: usize,
}

impl RecordMapper for StripDtMapper {
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

struct StripDtReducer;

impl sh_mapreduce::Reducer for StripDtReducer {
    type K = u64;
    type V = (f64, f64);

    fn reduce(&self, _strip: &u64, values: Vec<(f64, f64)>, ctx: &mut sh_mapreduce::ReduceContext) {
        let mut sites: Vec<Point> = values.iter().map(|&(x, y)| Point::new(x, y)).collect();
        sort_dedup(&mut sites);
        let tri = Triangulation::build(&sites);
        // Transfer the whole partial triangulation (the merge bottleneck).
        for t in tri.triangles() {
            let [a, b, c] = t.map(|i| sites[i]);
            ctx.output(&Tri([a, b, c]).encode());
        }
    }
}

/// Hadoop Delaunay: strips + single-machine merge (driver recomputation
/// over all sites of the transferred partial triangulations).
pub fn delaunay_hadoop(
    dfs: &Dfs,
    heap: &str,
    universe: &Rect,
) -> Result<OpResult<Vec<Tri>>, OpError> {
    let stat = dfs.stat(heap)?;
    let strips = (stat.len.div_ceil(dfs.config().block_size)).max(1) as usize;
    let job = JobBuilder::new(dfs, &format!("delaunay-hadoop:{heap}"))
        .input_file(heap)?
        .mapper(ByRecords(StripDtMapper {
            universe: *universe,
            strips,
        }))
        .reducer(
            StripDtReducer,
            strips.min(dfs.config().total_reduce_slots()).max(1),
        )
        .build()?
        .run()?;
    let transferred = job.rows.text().len() as u64;
    let mut sites: Vec<Point> = Vec::new();
    for l in job.rows.lines() {
        sites.extend(Tri::decode(l)?.0);
    }
    sort_dedup(&mut sites);
    let t0 = Instant::now();
    let tri = Triangulation::build(&sites);
    let value: Vec<Tri> = tri
        .triangles()
        .into_iter()
        .map(|t| Tri(t.map(|i| sites[i])))
        .collect();
    let merge = JobOutcome::driver_merge(
        "delaunay-hadoop:driver-merge",
        BTreeMap::from([("delaunay.merge.bytes".to_string(), transferred)]),
        transferred,
        t0.elapsed(),
        dfs.config(),
    );
    let sel = sh_trace::Selectivity::full_scan(job.map_tasks(), value.len() as u64);
    Ok(OpResult::new(value, vec![job, merge]).with_selectivity(sel))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::storage::{build_index, upload};
    use sh_dfs::ClusterConfig;
    use sh_index::PartitionKind;
    use sh_workload::{osm_like_points, points, Distribution};

    fn canon(tris: &[Tri]) -> Vec<[(i64, i64); 3]> {
        let mut f: Vec<_> = tris.iter().map(Tri::fingerprint).collect();
        f.sort();
        f.dedup();
        f
    }

    fn reference(pts: &[Point]) -> Vec<[(i64, i64); 3]> {
        let tri = Triangulation::build(pts);
        let tris: Vec<Tri> = tri
            .triangles()
            .into_iter()
            .map(|t| Tri(t.map(|i| pts[i])))
            .collect();
        canon(&tris)
    }

    fn run_spatial(n: usize, seed: u64, kind: PartitionKind) {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let mut pts = points(n, Distribution::Uniform, &uni, seed);
        sort_dedup(&mut pts);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", kind)
            .unwrap()
            .value;
        let got = delaunay_spatial(&dfs, &file).unwrap();
        assert_eq!(canon(&got.value), reference(&pts), "{}", kind.name());
        assert_eq!(
            canon(&got.value).len(),
            got.value.len(),
            "no duplicate triangles emitted"
        );
        assert!(
            got.counter("delaunay.flushed.local") > 0,
            "local flush fired"
        );
    }

    #[test]
    fn spatial_matches_single_machine_grid() {
        run_spatial(1200, 201, PartitionKind::Grid);
    }

    #[test]
    fn spatial_matches_single_machine_strplus() {
        run_spatial(1200, 202, PartitionKind::StrPlus);
    }

    #[test]
    fn spatial_matches_single_machine_quadtree_skewed() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let mut pts = osm_like_points(1000, &uni, 4, 203);
        sort_dedup(&mut pts);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::QuadTree)
            .unwrap()
            .value;
        let got = delaunay_spatial(&dfs, &file).unwrap();
        assert_eq!(canon(&got.value), reference(&pts));
    }

    #[test]
    fn hadoop_matches_single_machine() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let mut pts = points(700, Distribution::Uniform, &uni, 204);
        sort_dedup(&mut pts);
        upload(&dfs, "/heap", &pts).unwrap();
        let got = delaunay_hadoop(&dfs, "/heap", &uni).unwrap();
        assert_eq!(canon(&got.value), reference(&pts));
        assert!(got.counter("delaunay.merge.bytes") > 0);
    }

    #[test]
    fn rejects_overlapping_index() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(300, Distribution::Uniform, &uni, 205);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::Str)
            .unwrap()
            .value;
        assert!(matches!(
            delaunay_spatial(&dfs, &file),
            Err(OpError::Unsupported(_))
        ));
    }

    #[test]
    fn triangle_encoding_roundtrip() {
        let t = Tri([
            Point::new(0.0, 0.0),
            Point::new(2.5, 0.0),
            Point::new(1.0, 3.0),
        ]);
        let d = Tri::decode(&t.encode()).unwrap();
        assert_eq!(d.fingerprint(), t.fingerprint());
        assert!(Tri::decode("nope").is_err());
    }
}
