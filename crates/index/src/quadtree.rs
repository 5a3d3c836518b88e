//! Quad-tree partitioning: recursive four-way splits of overfull cells.

use sh_geom::{Point, Rect};

/// Disjoint partitioning whose cells are the leaves of a point-region
/// quad-tree built over the sample: a cell splits into four quadrants
/// whenever it holds more than the per-partition capacity. Skewed data
/// gets deep subdivisions exactly where it is dense.
#[derive(Clone, Debug)]
pub struct QuadTreePartitioning {
    /// Universe the leaves cover.
    pub universe: Rect,
    /// Leaf cells; disjoint and covering the universe.
    pub cells: Vec<Rect>,
}

impl QuadTreePartitioning {
    /// Builds leaves so that each holds at most `⌈sample/target⌉` sample
    /// points (bounded depth guards against pathological duplicates).
    pub fn build(sample: &[Point], universe: Rect, target: usize) -> QuadTreePartitioning {
        let capacity = (sample.len() / target.max(1)).max(1);
        let mut cells = Vec::new();
        let idx: Vec<usize> = (0..sample.len()).collect();
        split(sample, &idx, universe, capacity, 0, &mut cells);
        QuadTreePartitioning { universe, cells }
    }
}

const MAX_DEPTH: usize = 16;

fn split(
    sample: &[Point],
    members: &[usize],
    cell: Rect,
    capacity: usize,
    depth: usize,
    out: &mut Vec<Rect>,
) {
    if members.len() <= capacity || depth >= MAX_DEPTH {
        out.push(cell);
        return;
    }
    let c = cell.center();
    let quadrants = [
        Rect::new(cell.x1, cell.y1, c.x, c.y),
        Rect::new(c.x, cell.y1, cell.x2, c.y),
        Rect::new(cell.x1, c.y, c.x, cell.y2),
        Rect::new(c.x, c.y, cell.x2, cell.y2),
    ];
    // Half-open ownership: strictly-below-center goes to the low
    // quadrant, so boundary points are not double counted.
    let mut buckets: [Vec<usize>; 4] = Default::default();
    for &i in members {
        let p = &sample[i];
        let right = p.x >= c.x;
        let top = p.y >= c.y;
        let q = (top as usize) * 2 + right as usize;
        buckets[q].push(i);
    }
    for (q, quadrant) in quadrants.into_iter().enumerate() {
        split(sample, &buckets[q], quadrant, capacity, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::owns_point;
    use sh_rand::Rng;

    fn skewed_sample(n: usize, seed: u64) -> Vec<Point> {
        // Dense cluster near the origin plus sparse background.
        let mut rng = Rng::seed(seed);
        (0..n)
            .map(|i| {
                if i % 4 == 0 {
                    Point::new(rng.uniform(0.0..100.0), rng.uniform(0.0..100.0))
                } else {
                    Point::new(rng.uniform(0.0..10.0), rng.uniform(0.0..10.0))
                }
            })
            .collect()
    }

    #[test]
    fn cells_are_disjoint_and_cover() {
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let q = QuadTreePartitioning::build(&skewed_sample(1000, 1), uni, 10);
        let total: f64 = q.cells.iter().map(Rect::area).sum();
        assert!((total - uni.area()).abs() < 1e-6, "cells must tile");
        for i in 0..q.cells.len() {
            for j in (i + 1)..q.cells.len() {
                let inter = q.cells[i].intersection(&q.cells[j]);
                assert!(inter.is_none_or(|r| r.area() < 1e-9), "overlap {i},{j}");
            }
        }
    }

    #[test]
    fn skew_gets_finer_cells() {
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let q = QuadTreePartitioning::build(&skewed_sample(2000, 2), uni, 16);
        // The smallest cell must be inside the dense corner.
        let smallest = q
            .cells
            .iter()
            .min_by(|a, b| a.area().total_cmp(&b.area()))
            .unwrap();
        assert!(smallest.x2 <= 30.0 && smallest.y2 <= 30.0, "{smallest}");
        // And it must be smaller than the largest by a lot.
        let largest = q
            .cells
            .iter()
            .max_by(|a, b| a.area().total_cmp(&b.area()))
            .unwrap();
        assert!(largest.area() / smallest.area() >= 16.0);
    }

    #[test]
    fn uniform_data_splits_evenly() {
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let mut rng = Rng::seed(3);
        let pts: Vec<Point> = (0..1024)
            .map(|_| Point::new(rng.uniform(0.0..100.0), rng.uniform(0.0..100.0)))
            .collect();
        let q = QuadTreePartitioning::build(&pts, uni, 16);
        // Roughly a 4x4 to 8x8 subdivision.
        assert!(
            q.cells.len() >= 16 && q.cells.len() <= 64,
            "{}",
            q.cells.len()
        );
    }

    #[test]
    fn every_sample_point_has_one_owner() {
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let pts = skewed_sample(500, 4);
        let q = QuadTreePartitioning::build(&pts, uni, 8);
        for p in &pts {
            let owners = q.cells.iter().filter(|c| owns_point(c, p, &uni)).count();
            assert_eq!(owners, 1, "{p}");
        }
    }

    #[test]
    fn empty_sample_is_single_cell() {
        let uni = Rect::new(0.0, 0.0, 1.0, 1.0);
        let q = QuadTreePartitioning::build(&[], uni, 8);
        assert_eq!(q.cells.len(), 1);
        assert_eq!(q.cells[0], uni);
    }
}
