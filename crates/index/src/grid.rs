//! Uniform grid partitioning.

use sh_geom::{Point, Rect};

use crate::partitioner::owns_point;

/// Uniform grid over the universe: `cols × rows` equal cells.
///
/// The only technique that ignores the data distribution — cheap to build
/// (no sample needed) but skew-blind, which is exactly the trade-off the
/// partitioning-quality experiment (E2) demonstrates.
#[derive(Clone, Debug)]
pub struct GridPartitioning {
    /// Universe the grid covers.
    pub universe: Rect,
    /// Columns.
    pub cols: usize,
    /// Rows.
    pub rows: usize,
}

impl GridPartitioning {
    /// Builds a grid with roughly `target` cells (⌈√target⌉ per side).
    pub fn build(universe: Rect, target: usize) -> GridPartitioning {
        let side = (target.max(1) as f64).sqrt().ceil() as usize;
        GridPartitioning {
            universe,
            cols: side.max(1),
            rows: side.max(1),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cols * self.rows
    }

    /// Never zero.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Boundary rectangle of cell `i` (row-major). Edge cells are pinned
    /// exactly to the universe bounds so the tiling is watertight under
    /// floating-point rounding.
    pub fn cell(&self, i: usize) -> Rect {
        let (col, row) = (i % self.cols, i / self.cols);
        let w = self.universe.width() / self.cols as f64;
        let h = self.universe.height() / self.rows as f64;
        let x2 = if col + 1 == self.cols {
            self.universe.x2
        } else {
            self.universe.x1 + (col + 1) as f64 * w
        };
        let y2 = if row + 1 == self.rows {
            self.universe.y2
        } else {
            self.universe.y1 + (row + 1) as f64 * h
        };
        Rect::new(
            self.universe.x1 + col as f64 * w,
            self.universe.y1 + row as f64 * h,
            x2,
            y2,
        )
    }

    /// Cells overlapping `mbr` (point records get exactly one owner).
    pub fn assign(&self, mbr: &Rect) -> Vec<usize> {
        if mbr.width() == 0.0 && mbr.height() == 0.0 {
            let p = Point::new(mbr.x1, mbr.y1);
            return vec![self.cell_of_point(&p)];
        }
        let (c1, r1) = self.locate_clamped(mbr.x1, mbr.y1);
        let (c2, r2) = self.locate_clamped(mbr.x2, mbr.y2);
        let mut out = Vec::with_capacity((c2 - c1 + 1) * (r2 - r1 + 1));
        for row in r1..=r2 {
            for col in c1..=c2 {
                let i = row * self.cols + col;
                if self.cell(i).intersects(mbr) {
                    out.push(i);
                }
            }
        }
        if out.is_empty() {
            out.push(self.cell_of_point(&mbr.center()));
        }
        out
    }

    /// The unique owner cell of a point (half-open semantics; points
    /// outside the universe are clamped to the nearest cell).
    pub fn cell_of_point(&self, p: &Point) -> usize {
        let (col, row) = self.locate_clamped(p.x, p.y);
        let i = row * self.cols + col;
        debug_assert!(
            owns_point(&self.cell(i), &clamp(p, &self.universe), &self.universe),
            "grid owner mismatch for {p}"
        );
        i
    }

    fn locate_clamped(&self, x: f64, y: f64) -> (usize, usize) {
        let w = self.universe.width() / self.cols as f64;
        let h = self.universe.height() / self.rows as f64;
        let col = (((x - self.universe.x1) / w).floor() as i64).clamp(0, self.cols as i64 - 1);
        let row = (((y - self.universe.y1) / h).floor() as i64).clamp(0, self.rows as i64 - 1);
        (col as usize, row as usize)
    }
}

fn clamp(p: &Point, uni: &Rect) -> Point {
    Point::new(p.x.clamp(uni.x1, uni.x2), p.y.clamp(uni.y1, uni.y2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridPartitioning {
        GridPartitioning::build(Rect::new(0.0, 0.0, 100.0, 100.0), 16)
    }

    #[test]
    fn cells_tile_the_universe() {
        let g = grid();
        assert_eq!(g.len(), 16);
        let total: f64 = (0..g.len()).map(|i| g.cell(i).area()).sum();
        assert!((total - 100.0 * 100.0).abs() < 1e-6);
    }

    #[test]
    fn point_ownership_is_unique() {
        let g = grid();
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(25.0, 25.0), // interior boundary point
            Point::new(100.0, 100.0),
            Point::new(99.9, 0.1),
        ];
        for p in pts {
            let owners: Vec<usize> = (0..g.len())
                .filter(|&i| owns_point(&g.cell(i), &p, &g.universe))
                .collect();
            assert_eq!(owners.len(), 1, "{p}: {owners:?}");
            assert_eq!(owners[0], g.cell_of_point(&p));
        }
    }

    #[test]
    fn rect_assignment_covers_overlaps() {
        let g = grid();
        let r = Rect::new(20.0, 20.0, 30.0, 30.0); // crosses the 25-line both ways
        let cells = g.assign(&r);
        assert_eq!(cells.len(), 4);
        for i in cells {
            assert!(g.cell(i).intersects(&r));
        }
    }

    #[test]
    fn out_of_universe_points_clamp() {
        let g = grid();
        let p = Point::new(-5.0, 200.0);
        let i = g.cell_of_point(&p);
        assert!(i < g.len());
    }
}
