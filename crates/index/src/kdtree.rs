//! K-d tree partitioning: recursive median splits, alternating axes.

use sh_geom::{Point, Rect};

/// Disjoint partitioning whose cells are the leaves of a K-d tree over
/// the sample: cells split at the *median* coordinate (alternating x/y),
/// so every leaf holds an almost equal share of the sample regardless of
/// skew — the best load balance of the disjoint techniques.
#[derive(Clone, Debug)]
pub struct KdTreePartitioning {
    /// Universe the leaves cover.
    pub universe: Rect,
    /// Leaf cells; disjoint and covering the universe.
    pub cells: Vec<Rect>,
}

impl KdTreePartitioning {
    /// Splits until at most `target` leaves exist (rounded up to a power
    /// of two) or leaves become single-sample.
    pub fn build(sample: &[Point], universe: Rect, target: usize) -> KdTreePartitioning {
        let mut cells = Vec::new();
        let mut members: Vec<Point> = sample.to_vec();
        let depth_limit = (target.max(1) as f64).log2().ceil() as usize;
        split(&mut members, universe, 0, depth_limit, &mut cells);
        KdTreePartitioning { universe, cells }
    }
}

fn split(members: &mut [Point], cell: Rect, depth: usize, limit: usize, out: &mut Vec<Rect>) {
    if depth >= limit || members.len() < 2 {
        out.push(cell);
        return;
    }
    let by_x = depth.is_multiple_of(2);
    let mid = members.len() / 2;
    if by_x {
        members.sort_by(|a, b| a.x.total_cmp(&b.x));
    } else {
        members.sort_by(|a, b| a.y.total_cmp(&b.y));
    }
    let cut = if by_x { members[mid].x } else { members[mid].y };
    // Degenerate: all sample coordinates equal — stop splitting this axis.
    let (lo, hi) = if by_x {
        (
            Rect::new(cell.x1, cell.y1, cut, cell.y2),
            Rect::new(cut, cell.y1, cell.x2, cell.y2),
        )
    } else {
        (
            Rect::new(cell.x1, cell.y1, cell.x2, cut),
            Rect::new(cell.x1, cut, cell.x2, cell.y2),
        )
    };
    if lo.area() <= 0.0 || hi.area() <= 0.0 {
        out.push(cell);
        return;
    }
    let (left, right) = members.split_at_mut(mid);
    split(left, lo, depth + 1, limit, out);
    split(right, hi, depth + 1, limit, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::owns_point;
    use sh_rand::Rng;

    fn gaussian_sample(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = Rng::seed(seed);
        (0..n)
            .map(|_| {
                // Box-Muller-ish central clustering via averaging.
                let x: f64 = (0..4).map(|_| rng.uniform(0.0..100.0)).sum::<f64>() / 4.0;
                let y: f64 = (0..4).map(|_| rng.uniform(0.0..100.0)).sum::<f64>() / 4.0;
                Point::new(x, y)
            })
            .collect()
    }

    #[test]
    fn cells_tile_the_universe() {
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let k = KdTreePartitioning::build(&gaussian_sample(1000, 1), uni, 16);
        assert_eq!(k.cells.len(), 16);
        let total: f64 = k.cells.iter().map(Rect::area).sum();
        assert!((total - uni.area()).abs() < 1e-6);
    }

    #[test]
    fn load_balance_on_skewed_data() {
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let pts = gaussian_sample(4096, 2);
        let k = KdTreePartitioning::build(&pts, uni, 16);
        let mut counts = vec![0usize; k.cells.len()];
        for p in &pts {
            let owner = k
                .cells
                .iter()
                .position(|c| owns_point(c, p, &uni))
                .expect("tiling covers universe");
            counts[owner] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        // Median splits keep partitions within a small factor even under
        // central clustering.
        assert!(max / min.max(1.0) < 2.0, "counts: {counts:?}");
    }

    #[test]
    fn every_point_has_one_owner() {
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let pts = gaussian_sample(300, 3);
        let k = KdTreePartitioning::build(&pts, uni, 8);
        for p in &pts {
            let owners = k.cells.iter().filter(|c| owns_point(c, p, &uni)).count();
            assert_eq!(owners, 1);
        }
    }

    #[test]
    fn tiny_samples_do_not_over_split() {
        let uni = Rect::new(0.0, 0.0, 1.0, 1.0);
        let k = KdTreePartitioning::build(&[Point::new(0.5, 0.5)], uni, 64);
        assert_eq!(k.cells.len(), 1);
    }
}
