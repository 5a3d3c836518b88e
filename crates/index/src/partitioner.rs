//! The global-partitioning abstraction shared by all seven techniques.

use sh_geom::{Point, Rect};

use crate::curve::{HilbertPartitioning, ZCurvePartitioning};
use crate::grid::GridPartitioning;
use crate::kdtree::KdTreePartitioning;
use crate::quadtree::QuadTreePartitioning;
use crate::str::{StrPartitioning, StrPlusPartitioning};

/// Which partitioning technique built a global index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PartitionKind {
    /// Uniform grid (disjoint, skew-blind).
    Grid,
    /// Point-region quad-tree leaves (disjoint, skew-adaptive).
    QuadTree,
    /// K-d tree median splits (disjoint, best load balance).
    KdTree,
    /// Sort-Tile-Recursive seeds (overlapping, no replication).
    Str,
    /// STR cut lines kept as disjoint cells (R+-tree semantics).
    StrPlus,
    /// Z-order (Morton) curve ranges (overlapping).
    ZCurve,
    /// Hilbert curve ranges (overlapping, best curve locality).
    Hilbert,
}

impl PartitionKind {
    /// All techniques, in the order the experiments sweep them.
    pub const ALL: [PartitionKind; 7] = [
        PartitionKind::Grid,
        PartitionKind::QuadTree,
        PartitionKind::KdTree,
        PartitionKind::Str,
        PartitionKind::StrPlus,
        PartitionKind::ZCurve,
        PartitionKind::Hilbert,
    ];

    /// Display name used in reports and the Pigeon language.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionKind::Grid => "grid",
            PartitionKind::QuadTree => "quadtree",
            PartitionKind::KdTree => "kdtree",
            PartitionKind::Str => "str",
            PartitionKind::StrPlus => "str+",
            PartitionKind::ZCurve => "zcurve",
            PartitionKind::Hilbert => "hilbert",
        }
    }

    /// Parses a technique name (as accepted by Pigeon's `INDEX ... AS`).
    pub fn parse(s: &str) -> Option<PartitionKind> {
        match s.to_ascii_lowercase().as_str() {
            "grid" => Some(PartitionKind::Grid),
            "quadtree" | "quad" => Some(PartitionKind::QuadTree),
            "kdtree" | "kd" => Some(PartitionKind::KdTree),
            "str" | "rtree" => Some(PartitionKind::Str),
            "str+" | "strplus" | "r+tree" => Some(PartitionKind::StrPlus),
            "zcurve" | "z" => Some(PartitionKind::ZCurve),
            "hilbert" => Some(PartitionKind::Hilbert),
            _ => None,
        }
    }

    /// Whether this technique produces disjoint partitions (replicating
    /// records), which the pruning-based operations require.
    pub fn is_disjoint(&self) -> bool {
        matches!(
            self,
            PartitionKind::Grid
                | PartitionKind::QuadTree
                | PartitionKind::KdTree
                | PartitionKind::StrPlus
        )
    }
}

/// Boundary description of one technique's partitions, built from a
/// sample. Assignment of records to partitions dispatches on the variant.
#[derive(Clone, Debug)]
pub enum GlobalPartitioning {
    /// Uniform grid boundaries.
    Grid(GridPartitioning),
    /// Quad-tree leaf cells.
    QuadTree(QuadTreePartitioning),
    /// K-d tree leaf cells.
    KdTree(KdTreePartitioning),
    /// STR seed rectangles.
    Str(StrPartitioning),
    /// STR+ disjoint cells.
    StrPlus(StrPlusPartitioning),
    /// Z-curve value ranges.
    ZCurve(ZCurvePartitioning),
    /// Hilbert-curve value ranges.
    Hilbert(HilbertPartitioning),
}

impl GlobalPartitioning {
    /// Builds the requested technique from a point sample.
    ///
    /// `target_partitions` is the desired partition count (⌈file size /
    /// block size⌉ in the index-building job).
    pub fn build(
        kind: PartitionKind,
        sample: &[Point],
        universe: Rect,
        target_partitions: usize,
    ) -> GlobalPartitioning {
        let n = target_partitions.max(1);
        match kind {
            PartitionKind::Grid => GlobalPartitioning::Grid(GridPartitioning::build(universe, n)),
            PartitionKind::QuadTree => {
                GlobalPartitioning::QuadTree(QuadTreePartitioning::build(sample, universe, n))
            }
            PartitionKind::KdTree => {
                GlobalPartitioning::KdTree(KdTreePartitioning::build(sample, universe, n))
            }
            PartitionKind::Str => {
                GlobalPartitioning::Str(StrPartitioning::build(sample, universe, n))
            }
            PartitionKind::StrPlus => {
                GlobalPartitioning::StrPlus(StrPlusPartitioning::build(sample, universe, n))
            }
            PartitionKind::ZCurve => {
                GlobalPartitioning::ZCurve(ZCurvePartitioning::build(sample, universe, n))
            }
            PartitionKind::Hilbert => {
                GlobalPartitioning::Hilbert(HilbertPartitioning::build(sample, universe, n))
            }
        }
    }

    /// The technique that built this index.
    pub fn kind(&self) -> PartitionKind {
        match self {
            GlobalPartitioning::Grid(_) => PartitionKind::Grid,
            GlobalPartitioning::QuadTree(_) => PartitionKind::QuadTree,
            GlobalPartitioning::KdTree(_) => PartitionKind::KdTree,
            GlobalPartitioning::Str(_) => PartitionKind::Str,
            GlobalPartitioning::StrPlus(_) => PartitionKind::StrPlus,
            GlobalPartitioning::ZCurve(_) => PartitionKind::ZCurve,
            GlobalPartitioning::Hilbert(_) => PartitionKind::Hilbert,
        }
    }

    /// Disjointness of the built index.
    pub fn is_disjoint(&self) -> bool {
        self.kind().is_disjoint()
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        match self {
            GlobalPartitioning::Grid(g) => g.len(),
            GlobalPartitioning::QuadTree(q) => q.cells.len(),
            GlobalPartitioning::KdTree(k) => k.cells.len(),
            GlobalPartitioning::Str(s) => s.seeds.len(),
            GlobalPartitioning::StrPlus(s) => s.cells.len(),
            GlobalPartitioning::ZCurve(z) => z.len(),
            GlobalPartitioning::Hilbert(h) => h.len(),
        }
    }

    /// True for an index with no partitions (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The universe (data extent) this index covers.
    pub fn universe(&self) -> Rect {
        match self {
            GlobalPartitioning::Grid(g) => g.universe,
            GlobalPartitioning::QuadTree(q) => q.universe,
            GlobalPartitioning::KdTree(k) => k.universe,
            GlobalPartitioning::Str(s) => s.universe,
            GlobalPartitioning::StrPlus(s) => s.universe,
            GlobalPartitioning::ZCurve(z) => z.universe(),
            GlobalPartitioning::Hilbert(h) => h.universe(),
        }
    }

    /// Boundary rectangle of partition `i` (the *cell*, not the data MBR;
    /// disjoint techniques tile the universe with these).
    pub fn cell(&self, i: usize) -> Rect {
        match self {
            GlobalPartitioning::Grid(g) => g.cell(i),
            GlobalPartitioning::QuadTree(q) => q.cells[i],
            GlobalPartitioning::KdTree(k) => k.cells[i],
            GlobalPartitioning::Str(s) => s.seeds[i],
            GlobalPartitioning::StrPlus(s) => s.cells[i],
            GlobalPartitioning::ZCurve(z) => z.seed(i),
            GlobalPartitioning::Hilbert(h) => h.seed(i),
        }
    }

    /// Partitions a record is stored in.
    ///
    /// Disjoint techniques replicate the record to *every* overlapping
    /// cell; overlapping techniques pick exactly one partition (the one
    /// whose seed needs least expansion, or the curve range of the
    /// record's center).
    pub fn assign(&self, mbr: &Rect) -> Vec<usize> {
        match self {
            GlobalPartitioning::Grid(g) => g.assign(mbr),
            GlobalPartitioning::QuadTree(q) => assign_disjoint(&q.cells, mbr, &q.universe),
            GlobalPartitioning::KdTree(k) => assign_disjoint(&k.cells, mbr, &k.universe),
            GlobalPartitioning::Str(s) => vec![s.choose(&mbr.center())],
            GlobalPartitioning::StrPlus(s) => assign_disjoint(&s.cells, mbr, &s.universe),
            GlobalPartitioning::ZCurve(z) => vec![z.choose(&mbr.center())],
            GlobalPartitioning::Hilbert(h) => vec![h.choose(&mbr.center())],
        }
    }
}

/// Disjoint-cell assignment: a degenerate (point) MBR goes to its single
/// half-open owner cell; an extended MBR is replicated to every
/// overlapping cell.
fn assign_disjoint(cells: &[Rect], mbr: &Rect, universe: &Rect) -> Vec<usize> {
    if mbr.width() == 0.0 && mbr.height() == 0.0 {
        let p = Point::new(mbr.x1, mbr.y1);
        if let Some(i) = cells.iter().position(|c| owns_point(c, &p, universe)) {
            return vec![i];
        }
        // Outside the universe: nearest cell.
        return vec![nearest_cell(cells, &p)];
    }
    let hits: Vec<usize> = cells
        .iter()
        .enumerate()
        .filter(|(_, c)| c.intersects(mbr))
        .map(|(i, _)| i)
        .collect();
    if hits.is_empty() {
        vec![nearest_cell(cells, &mbr.center())]
    } else {
        hits
    }
}

fn nearest_cell(cells: &[Rect], p: &Point) -> usize {
    cells
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.min_distance(p).total_cmp(&b.1.min_distance(p)))
        .map(|(i, _)| i)
        .expect("partitioning always has at least one cell")
}

/// Half-open point ownership that still covers the universe's maximum
/// edges: the cell `[x1, x2) × [y1, y2)`, closed on a side that touches
/// the universe boundary. Guarantees every universe point has exactly one
/// owner among a disjoint tiling.
pub fn owns_point(cell: &Rect, p: &Point, universe: &Rect) -> bool {
    let x_ok = p.x >= cell.x1 && (p.x < cell.x2 || (cell.x2 >= universe.x2 && p.x <= cell.x2));
    let y_ok = p.y >= cell.y1 && (p.y < cell.y2 || (cell.y2 >= universe.y2 && p.y <= cell.y2));
    x_ok && y_ok
}

/// Catalogue entry for one *materialized* partition of an indexed file:
/// where it lives, its actual data MBR, and its size. This is what the
/// master node consults in the filter step.
#[derive(Clone, Debug)]
pub struct PartitionMeta {
    /// Partition id (index into the [`GlobalPartitioning`]).
    pub id: usize,
    /// DFS path of the partition file.
    pub path: String,
    /// Boundary cell of the partition (disjoint techniques tile with it).
    pub cell: [f64; 4],
    /// MBR of the records actually stored (⊆ cell for disjoint
    /// techniques; possibly larger than the seed for overlapping ones).
    pub mbr: [f64; 4],
    /// Number of records.
    pub records: u64,
    /// Bytes stored.
    pub bytes: u64,
}

impl PartitionMeta {
    /// Boundary cell as a [`Rect`].
    pub fn cell_rect(&self) -> Rect {
        Rect::new(self.cell[0], self.cell[1], self.cell[2], self.cell[3])
    }

    /// Data MBR as a [`Rect`].
    pub fn mbr_rect(&self) -> Rect {
        Rect::new(self.mbr[0], self.mbr[1], self.mbr[2], self.mbr[3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sh_rand::Rng;

    fn sample(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = Rng::seed(seed);
        (0..n)
            .map(|_| Point::new(rng.uniform(0.0..100.0), rng.uniform(0.0..100.0)))
            .collect()
    }

    #[test]
    fn kind_names_roundtrip() {
        for k in PartitionKind::ALL {
            assert_eq!(PartitionKind::parse(k.name()), Some(k));
        }
        assert_eq!(PartitionKind::parse("nonsense"), None);
    }

    #[test]
    fn disjointness_table_matches_paper() {
        assert!(PartitionKind::Grid.is_disjoint());
        assert!(PartitionKind::QuadTree.is_disjoint());
        assert!(PartitionKind::KdTree.is_disjoint());
        assert!(PartitionKind::StrPlus.is_disjoint());
        assert!(!PartitionKind::Str.is_disjoint());
        assert!(!PartitionKind::ZCurve.is_disjoint());
        assert!(!PartitionKind::Hilbert.is_disjoint());
    }

    #[test]
    fn every_point_has_exactly_one_owner_in_disjoint_techniques() {
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let pts = sample(500, 1);
        for kind in [
            PartitionKind::Grid,
            PartitionKind::QuadTree,
            PartitionKind::KdTree,
            PartitionKind::StrPlus,
        ] {
            let gp = GlobalPartitioning::build(kind, &pts, uni, 9);
            assert!(gp.is_disjoint());
            for p in &pts {
                let owners = gp.assign(&p.to_rect());
                assert_eq!(
                    owners.len(),
                    1,
                    "{}: point {p} owners {owners:?}",
                    kind.name()
                );
            }
            // Boundary corners of the universe are owned too.
            for corner in uni.corners() {
                assert_eq!(gp.assign(&corner.to_rect()).len(), 1);
            }
        }
    }

    #[test]
    fn overlapping_techniques_assign_exactly_one() {
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let pts = sample(500, 2);
        for kind in [
            PartitionKind::Str,
            PartitionKind::ZCurve,
            PartitionKind::Hilbert,
        ] {
            let gp = GlobalPartitioning::build(kind, &pts, uni, 8);
            for p in &pts {
                let owners = gp.assign(&Rect::new(p.x, p.y, p.x + 1.0, p.y + 1.0));
                assert_eq!(owners.len(), 1, "{}", kind.name());
                assert!(owners[0] < gp.len());
            }
        }
    }

    #[test]
    fn rect_records_replicated_across_disjoint_cells() {
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let gp = GlobalPartitioning::build(PartitionKind::Grid, &[], uni, 16);
        // A rect spanning the center crosses several cells.
        let r = Rect::new(40.0, 40.0, 60.0, 60.0);
        let owners = gp.assign(&r);
        assert!(owners.len() >= 2, "{owners:?}");
        // Each owner cell really overlaps.
        for &i in &owners {
            assert!(gp.cell(i).intersects(&r));
        }
    }

    #[test]
    fn target_partition_count_is_respected_roughly() {
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let pts = sample(2000, 3);
        for kind in PartitionKind::ALL {
            let gp = GlobalPartitioning::build(kind, &pts, uni, 12);
            let n = gp.len();
            assert!(
                (4..=64).contains(&n),
                "{} produced {n} partitions for target 12",
                kind.name()
            );
        }
    }

    #[test]
    fn degenerate_duplicate_samples_still_tile() {
        // A sample of identical points must not break coverage or
        // single-ownership for any disjoint technique.
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let dup = vec![Point::new(42.0, 42.0); 500];
        for kind in [
            PartitionKind::Grid,
            PartitionKind::QuadTree,
            PartitionKind::KdTree,
            PartitionKind::StrPlus,
        ] {
            let gp = GlobalPartitioning::build(kind, &dup, uni, 9);
            let probes = [
                Point::new(0.0, 0.0),
                Point::new(42.0, 42.0),
                Point::new(41.9, 42.1),
                Point::new(100.0, 100.0),
                Point::new(73.0, 11.0),
            ];
            for p in probes {
                let owners = (0..gp.len())
                    .filter(|&i| owns_point(&gp.cell(i), &p, &uni))
                    .count();
                assert_eq!(owners, 1, "{}: {p}", kind.name());
            }
        }
        // Overlapping techniques must still assign exactly one partition.
        for kind in [
            PartitionKind::Str,
            PartitionKind::ZCurve,
            PartitionKind::Hilbert,
        ] {
            let gp = GlobalPartitioning::build(kind, &dup, uni, 9);
            for p in [Point::new(0.0, 0.0), Point::new(99.0, 99.0)] {
                assert_eq!(gp.assign(&p.to_rect()).len(), 1, "{}", kind.name());
            }
        }
    }

    #[test]
    fn owns_point_covers_universe_edges() {
        let uni = Rect::new(0.0, 0.0, 10.0, 10.0);
        let left = Rect::new(0.0, 0.0, 5.0, 10.0);
        let right = Rect::new(5.0, 0.0, 10.0, 10.0);
        let max_corner = Point::new(10.0, 10.0);
        assert!(!owns_point(&left, &max_corner, &uni));
        assert!(owns_point(&right, &max_corner, &uni));
        let mid = Point::new(5.0, 5.0);
        assert!(!owns_point(&left, &mid, &uni));
        assert!(owns_point(&right, &mid, &uni));
    }

    #[test]
    fn partition_meta_roundtrips_rects() {
        let m = PartitionMeta {
            id: 3,
            path: "/idx/part-3".into(),
            cell: [0.0, 0.0, 10.0, 10.0],
            mbr: [1.0, 1.0, 9.0, 9.0],
            records: 42,
            bytes: 1000,
        };
        assert_eq!(m.cell_rect(), Rect::new(0.0, 0.0, 10.0, 10.0));
        assert_eq!(m.mbr_rect(), Rect::new(1.0, 1.0, 9.0, 9.0));
    }
}
