//! Max-max skyline (maximal points).

use crate::point::Point;

/// Computes the max-max skyline of `points`: the subset not dominated by
/// any other point, where `p` dominates `q` iff `p.x >= q.x && p.y >= q.y`
/// with strict inequality somewhere.
///
/// Runs in O(n log n): sort by `x` descending (ties by `y` descending) and
/// keep a running maximum of `y`. Result is ordered by increasing `x`
/// (hence decreasing `y`), which is the order the distributed merge step
/// relies on.
pub fn skyline(points: &[Point]) -> Vec<Point> {
    let mut pts: Vec<Point> = points.to_vec();
    pts.sort_by(|a, b| b.cmp_xy(a));
    let mut out: Vec<Point> = Vec::new();
    let mut best_y = f64::NEG_INFINITY;
    let mut i = 0;
    while i < pts.len() {
        // Among equal x, only the largest y can be on the skyline.
        let x = pts[i].x;
        let candidate = pts[i];
        while i < pts.len() && pts[i].x == x {
            i += 1;
        }
        if candidate.y > best_y {
            out.push(candidate);
            best_y = candidate.y;
        }
    }
    out.reverse();
    out
}

/// Merges several skylines (each already a skyline of its own subset)
/// into the skyline of the union. Used by the global step of the
/// distributed skyline operation.
pub fn merge_skylines(parts: &[Vec<Point>]) -> Vec<Point> {
    let all: Vec<Point> = parts.iter().flatten().copied().collect();
    skyline(&all)
}

/// O(n²) reference implementation for tests.
pub fn skyline_naive(points: &[Point]) -> Vec<Point> {
    let mut out: Vec<Point> = points
        .iter()
        .filter(|p| !points.iter().any(|q| q.dominates(p)))
        .copied()
        .collect();
    out.sort_by(Point::cmp_xy);
    out.dedup_by(|a, b| a.approx_eq(b));
    out
}

/// True when no point of `set` dominates `p`.
pub fn not_dominated(p: &Point, set: &[Point]) -> bool {
    !set.iter().any(|q| q.dominates(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_staircase() {
        let pts = vec![
            Point::new(1.0, 5.0),
            Point::new(2.0, 3.0),
            Point::new(3.0, 4.0),
            Point::new(4.0, 1.0),
            Point::new(0.5, 0.5),
        ];
        let sky = skyline(&pts);
        assert_eq!(
            sky,
            vec![
                Point::new(1.0, 5.0),
                Point::new(3.0, 4.0),
                Point::new(4.0, 1.0)
            ]
        );
    }

    #[test]
    fn matches_naive_on_fixed_set() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 0.5),
            Point::new(0.5, 2.0),
            Point::new(1.0, 1.0),
        ];
        let mut fast = skyline(&pts);
        fast.sort_by(Point::cmp_xy);
        assert_eq!(fast, skyline_naive(&pts));
    }

    #[test]
    fn duplicates_and_equal_x() {
        let pts = vec![
            Point::new(1.0, 1.0),
            Point::new(1.0, 2.0),
            Point::new(1.0, 3.0),
        ];
        assert_eq!(skyline(&pts), vec![Point::new(1.0, 3.0)]);
    }

    #[test]
    fn single_and_empty() {
        assert!(skyline(&[]).is_empty());
        assert_eq!(skyline(&[Point::new(1.0, 1.0)]), vec![Point::new(1.0, 1.0)]);
    }

    #[test]
    fn merge_equals_global() {
        let a = vec![Point::new(1.0, 4.0), Point::new(3.0, 2.0)];
        let b = vec![Point::new(2.0, 5.0), Point::new(4.0, 1.0)];
        let merged = merge_skylines(&[skyline(&a), skyline(&b)]);
        let mut all = a;
        all.extend(&b);
        assert_eq!(merged, skyline(&all));
    }

    #[test]
    fn anti_correlated_keeps_everything() {
        // Points on the line x + y = 10 dominate nothing pairwise.
        let pts: Vec<Point> = (0..10)
            .map(|i| Point::new(i as f64, 10.0 - i as f64))
            .collect();
        assert_eq!(skyline(&pts).len(), 10);
    }
}
