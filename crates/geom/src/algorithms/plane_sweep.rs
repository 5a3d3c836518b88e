//! Plane-sweep rectangle join.
//!
//! The local-processing kernel of both spatial-join variants (SJMR and the
//! distributed join): given two sets of rectangles, report every
//! intersecting pair. Sorting both sets by `x1` and sweeping keeps the
//! inner scan bounded by the overlap in `x`, giving O(n log n + k·avg)
//! behaviour that vastly outperforms the nested loop on realistic data.

use crate::rect::Rect;

/// Reports every intersecting pair `(i, j)` of `left[i]`/`right[j]` as
/// index pairs, via plane sweep along the x-axis.
pub fn plane_sweep_join(left: &[Rect], right: &[Rect]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    plane_sweep_join_into(left, right, |i, j| out.push((i, j)));
    out
}

/// Plane-sweep join driving a callback instead of materializing pairs;
/// the distributed join uses this to stream results to the job output.
pub fn plane_sweep_join_into<F: FnMut(usize, usize)>(left: &[Rect], right: &[Rect], mut emit: F) {
    let mut li: Vec<usize> = (0..left.len()).collect();
    let mut ri: Vec<usize> = (0..right.len()).collect();
    li.sort_by(|&a, &b| left[a].x1.total_cmp(&left[b].x1));
    ri.sort_by(|&a, &b| right[a].x1.total_cmp(&right[b].x1));
    let (mut i, mut j) = (0usize, 0usize);
    while i < li.len() && j < ri.len() {
        let l = &left[li[i]];
        let r = &right[ri[j]];
        if l.x1 <= r.x1 {
            // `l` is the sweep leader: scan right rectangles starting in
            // [l.x1, l.x2].
            let mut jj = j;
            while jj < ri.len() && right[ri[jj]].x1 <= l.x2 {
                if l.intersects(&right[ri[jj]]) {
                    emit(li[i], ri[jj]);
                }
                jj += 1;
            }
            i += 1;
        } else {
            let mut ii = i;
            while ii < li.len() && left[li[ii]].x1 <= r.x2 {
                if left[li[ii]].intersects(r) {
                    emit(li[ii], ri[j]);
                }
                ii += 1;
            }
            j += 1;
        }
    }
}

/// Self-join variant: all intersecting unordered pairs `(i, j)`, `i < j`,
/// within one set. Used by the polygon-union grouping step.
pub fn plane_sweep_self_join(rects: &[Rect]) -> Vec<(usize, usize)> {
    let mut idx: Vec<usize> = (0..rects.len()).collect();
    idx.sort_by(|&a, &b| rects[a].x1.total_cmp(&rects[b].x1));
    let mut out = Vec::new();
    for a in 0..idx.len() {
        let ra = &rects[idx[a]];
        for b in (a + 1)..idx.len() {
            let rb = &rects[idx[b]];
            if rb.x1 > ra.x2 {
                break;
            }
            if ra.intersects(rb) {
                let (i, j) = (idx[a].min(idx[b]), idx[a].max(idx[b]));
                out.push((i, j));
            }
        }
    }
    out
}

/// O(n·m) reference join for tests.
pub fn nested_loop_join(left: &[Rect], right: &[Rect]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, l) in left.iter().enumerate() {
        for (j, r) in right.iter().enumerate() {
            if l.intersects(r) {
                out.push((i, j));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sh_rand::Rng;

    fn sorted(mut v: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn small_fixed_join() {
        let left = vec![Rect::new(0.0, 0.0, 2.0, 2.0), Rect::new(5.0, 5.0, 6.0, 6.0)];
        let right = vec![
            Rect::new(1.0, 1.0, 3.0, 3.0),
            Rect::new(10.0, 10.0, 11.0, 11.0),
            Rect::new(5.5, 0.0, 5.6, 9.0),
        ];
        assert_eq!(
            sorted(plane_sweep_join(&left, &right)),
            vec![(0, 0), (1, 2)]
        );
    }

    #[test]
    fn empty_inputs() {
        assert!(plane_sweep_join(&[], &[Rect::new(0.0, 0.0, 1.0, 1.0)]).is_empty());
        assert!(plane_sweep_join(&[Rect::new(0.0, 0.0, 1.0, 1.0)], &[]).is_empty());
    }

    #[test]
    fn matches_nested_loop_on_random_sets() {
        let mut rng = Rng::seed(3);
        for _ in 0..10 {
            let gen = |rng: &mut Rng, n: usize| -> Vec<Rect> {
                (0..n)
                    .map(|_| {
                        let x = rng.uniform(0.0..100.0);
                        let y = rng.uniform(0.0..100.0);
                        Rect::new(x, y, x + rng.uniform(0.1..10.0), y + rng.uniform(0.1..10.0))
                    })
                    .collect()
            };
            let left = gen(&mut rng, 40);
            let right = gen(&mut rng, 60);
            assert_eq!(
                sorted(plane_sweep_join(&left, &right)),
                sorted(nested_loop_join(&left, &right))
            );
        }
    }

    #[test]
    fn self_join_matches_nested_loop() {
        let mut rng = Rng::seed(5);
        let rects: Vec<Rect> = (0..50)
            .map(|_| {
                let x = rng.uniform(0.0..50.0);
                let y = rng.uniform(0.0..50.0);
                Rect::new(x, y, x + rng.uniform(0.1..8.0), y + rng.uniform(0.1..8.0))
            })
            .collect();
        let mut expected = Vec::new();
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                if rects[i].intersects(&rects[j]) {
                    expected.push((i, j));
                }
            }
        }
        assert_eq!(sorted(plane_sweep_self_join(&rects)), sorted(expected));
    }
}
