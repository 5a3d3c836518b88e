//! Closest pair of points (divide & conquer, O(n log n)).

use crate::point::Point;

/// A pair of points together with their distance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PointPair {
    /// First point of the pair.
    pub a: Point,
    /// Second point of the pair.
    pub b: Point,
    /// Euclidean distance between the two.
    pub distance: f64,
}

impl PointPair {
    /// Builds the pair, computing the distance.
    pub fn new(a: Point, b: Point) -> Self {
        PointPair {
            a,
            b,
            distance: a.distance(&b),
        }
    }

    /// Canonical ordering of endpoints so pairs compare deterministically.
    pub fn canonical(&self) -> PointPair {
        if self.a.cmp_xy(&self.b) == std::cmp::Ordering::Greater {
            PointPair {
                a: self.b,
                b: self.a,
                distance: self.distance,
            }
        } else {
            *self
        }
    }
}

/// Computes the closest pair with the classic divide-and-conquer
/// algorithm. Returns `None` for fewer than two points.
pub fn closest_pair(points: &[Point]) -> Option<PointPair> {
    if points.len() < 2 {
        return None;
    }
    let mut by_x: Vec<Point> = points.to_vec();
    by_x.sort_by(Point::cmp_xy);
    let mut by_y = by_x.clone();
    let mut scratch = Vec::with_capacity(by_y.len());
    let best = recurse(&by_x, &mut by_y, &mut scratch);
    Some(best.canonical())
}

fn recurse(by_x: &[Point], by_y: &mut [Point], scratch: &mut Vec<Point>) -> PointPair {
    let n = by_x.len();
    if n <= 3 {
        // Base case: brute force and re-sort by_y by y for the caller.
        let mut best: Option<PointPair> = None;
        for i in 0..n {
            for j in (i + 1)..n {
                let cand = PointPair::new(by_x[i], by_x[j]);
                if best.is_none_or(|b| cand.distance < b.distance) {
                    best = Some(cand);
                }
            }
        }
        by_y.sort_by(|a, b| a.y.total_cmp(&b.y).then(a.x.total_cmp(&b.x)));
        return best.expect("base case called with >= 2 points");
    }
    let mid = n / 2;
    let mid_x = by_x[mid].x;
    let (left_x, right_x) = by_x.split_at(mid);
    let (left_y, right_y) = by_y.split_at_mut(mid);
    let best_l = recurse(left_x, left_y, scratch);
    let best_r = recurse(right_x, right_y, scratch);
    let mut best = if best_l.distance <= best_r.distance {
        best_l
    } else {
        best_r
    };

    // Merge the two y-sorted halves.
    scratch.clear();
    scratch.extend_from_slice(left_y);
    merge_by_y(left_y, right_y, scratch);
    let merged: &mut [Point] = by_y;

    // Strip check: points within `best.distance` of the dividing line.
    let d = best.distance;
    let mut strip: Vec<Point> = Vec::new();
    for p in merged.iter() {
        if (p.x - mid_x).abs() < d {
            strip.push(*p);
        }
    }
    for i in 0..strip.len() {
        for j in (i + 1)..strip.len() {
            if strip[j].y - strip[i].y >= best.distance {
                break;
            }
            let cand = PointPair::new(strip[i], strip[j]);
            if cand.distance < best.distance {
                best = cand;
            }
        }
    }
    best
}

/// Merges `left` (y-sorted) and `right` (y-sorted) back into the combined
/// slice, using `scratch` which already holds a copy of `left`.
fn merge_by_y(left: &mut [Point], right: &mut [Point], scratch: &[Point]) {
    // SAFETY-free approach: write into a temp vec then copy back.
    let mut merged = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0, 0);
    while i < scratch.len() && j < right.len() {
        let take_left = (scratch[i].y, scratch[i].x) <= (right[j].y, right[j].x);
        if take_left {
            merged.push(scratch[i]);
            i += 1;
        } else {
            merged.push(right[j]);
            j += 1;
        }
    }
    merged.extend_from_slice(&scratch[i..]);
    merged.extend_from_slice(&right[j..]);
    let (l, r) = (left.len(), right.len());
    left.copy_from_slice(&merged[..l]);
    right.copy_from_slice(&merged[l..l + r]);
}

/// O(n²) reference implementation for tests.
pub fn closest_pair_naive(points: &[Point]) -> Option<PointPair> {
    let mut best: Option<PointPair> = None;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            let cand = PointPair::new(points[i], points[j]);
            if best.is_none_or(|b| cand.distance < b.distance) {
                best = Some(cand);
            }
        }
    }
    best.map(|b| b.canonical())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sh_rand::Rng;

    #[test]
    fn obvious_pair() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(10.1, 10.0),
            Point::new(-5.0, 5.0),
        ];
        let pair = closest_pair(&pts).unwrap();
        assert!((pair.distance - 0.1).abs() < 1e-9);
    }

    #[test]
    fn two_points() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
        assert_eq!(closest_pair(&pts).unwrap().distance, 5.0);
    }

    #[test]
    fn fewer_than_two_is_none() {
        assert!(closest_pair(&[]).is_none());
        assert!(closest_pair(&[Point::new(1.0, 1.0)]).is_none());
    }

    #[test]
    fn duplicates_give_zero_distance() {
        let pts = vec![
            Point::new(1.0, 1.0),
            Point::new(5.0, 5.0),
            Point::new(1.0, 1.0),
        ];
        assert_eq!(closest_pair(&pts).unwrap().distance, 0.0);
    }

    #[test]
    fn pair_crossing_the_median_is_found() {
        // Closest pair straddles the dividing line.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 5.0),
            Point::new(4.9, 2.0),
            Point::new(5.1, 2.0),
            Point::new(9.0, 9.0),
            Point::new(10.0, 0.0),
        ];
        let pair = closest_pair(&pts).unwrap();
        assert!((pair.distance - 0.2).abs() < 1e-9);
    }

    #[test]
    fn matches_naive_on_random_sets() {
        let mut rng = Rng::seed(7);
        for n in [2usize, 3, 5, 17, 64, 257] {
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.uniform(0.0..100.0), rng.uniform(0.0..100.0)))
                .collect();
            let fast = closest_pair(&pts).unwrap();
            let slow = closest_pair_naive(&pts).unwrap();
            assert!(
                (fast.distance - slow.distance).abs() < 1e-9,
                "n={n}: {} vs {}",
                fast.distance,
                slow.distance
            );
        }
    }
}
