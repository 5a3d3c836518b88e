//! STR (Sort-Tile-Recursive) partitioning and its disjoint STR+ variant.

use sh_geom::{Point, Rect};

/// STR bulk-loading: sort the sample by x into ⌈√n⌉ vertical slices,
/// sort each slice by y and cut it into runs. Each run's sample MBR is a
/// partition *seed*; records are assigned to the seed needing the least
/// expansion (classic R-tree ChooseLeaf flavour), so partitions may end
/// up overlapping but no record is replicated.
#[derive(Clone, Debug)]
pub struct StrPartitioning {
    /// Universe the seeds were sampled from.
    pub universe: Rect,
    /// Seed rectangles (sample MBR per tile).
    pub seeds: Vec<Rect>,
}

impl StrPartitioning {
    /// Builds roughly `target` seeds.
    pub fn build(sample: &[Point], universe: Rect, target: usize) -> StrPartitioning {
        let seeds = str_tiles(sample, target)
            .into_iter()
            .map(|tile| {
                let mut r = Rect::empty();
                for p in tile {
                    r.expand_point(&p);
                }
                r
            })
            .collect::<Vec<_>>();
        let seeds = if seeds.is_empty() {
            vec![universe]
        } else {
            seeds
        };
        StrPartitioning { universe, seeds }
    }

    /// Seed whose rectangle needs the least expansion to cover `p`
    /// (ties → smaller area).
    pub fn choose(&self, p: &Point) -> usize {
        choose_least_expansion(&self.seeds, p)
    }
}

/// STR+ partitioning: the same sort-tile pass, but the cut *lines* are
/// kept instead of the sample MBRs, producing disjoint cells that tile
/// the universe (records overlapping several cells are replicated —
/// R+-tree semantics). This is the disjoint technique the enhanced
/// operations default to.
#[derive(Clone, Debug)]
pub struct StrPlusPartitioning {
    /// Universe the cells tile.
    pub universe: Rect,
    /// Disjoint cells covering the universe.
    pub cells: Vec<Rect>,
}

impl StrPlusPartitioning {
    /// Builds roughly `target` disjoint cells from sample quantiles.
    pub fn build(sample: &[Point], universe: Rect, target: usize) -> StrPlusPartitioning {
        let n = sample.len();
        let slices = (target.max(1) as f64).sqrt().ceil() as usize;
        if n == 0 {
            return StrPlusPartitioning {
                universe,
                cells: vec![universe],
            };
        }
        let mut by_x: Vec<Point> = sample.to_vec();
        by_x.sort_by(|a, b| a.x.total_cmp(&b.x));
        let per_slice = n.div_ceil(slices);
        let mut cells = Vec::new();
        let mut x_lo = universe.x1;
        for (si, chunk) in by_x.chunks(per_slice).enumerate() {
            let is_last_slice = (si + 1) * per_slice >= n;
            let x_hi = if is_last_slice {
                universe.x2
            } else {
                // Cut halfway between this slice's max x and the next
                // sample point would be ideal; the slice max is enough.
                chunk.last().unwrap().x
            };
            let x_hi = x_hi.max(x_lo); // guard against duplicate x
            let mut by_y: Vec<Point> = chunk.to_vec();
            by_y.sort_by(|a, b| a.y.total_cmp(&b.y));
            let runs = slices;
            let per_run = by_y.len().div_ceil(runs).max(1);
            let mut y_lo = universe.y1;
            for (ri, run) in by_y.chunks(per_run).enumerate() {
                let is_last_run = (ri + 1) * per_run >= by_y.len();
                let y_hi = if is_last_run {
                    universe.y2
                } else {
                    run.last().unwrap().y
                }
                .max(y_lo);
                if x_hi > x_lo && y_hi > y_lo {
                    cells.push(Rect::new(x_lo, y_lo, x_hi, y_hi));
                }
                y_lo = y_hi;
            }
            // Ensure the slice reaches the top even if runs degenerate.
            if y_lo < universe.y2 && x_hi > x_lo {
                if let Some(last) = cells.last_mut() {
                    if last.x1 == x_lo && last.x2 == x_hi {
                        last.y2 = universe.y2;
                    }
                }
            }
            x_lo = x_hi;
        }
        if cells.is_empty() {
            cells.push(universe);
        }
        StrPlusPartitioning { universe, cells }
    }
}

/// Sort-tile the sample into ⌈√target⌉ × ⌈√target⌉ chunks.
fn str_tiles(sample: &[Point], target: usize) -> Vec<Vec<Point>> {
    let n = sample.len();
    if n == 0 {
        return Vec::new();
    }
    let slices = (target.max(1) as f64).sqrt().ceil() as usize;
    let mut by_x: Vec<Point> = sample.to_vec();
    by_x.sort_by(|a, b| a.x.total_cmp(&b.x));
    let per_slice = n.div_ceil(slices);
    let mut tiles = Vec::new();
    for chunk in by_x.chunks(per_slice) {
        let mut by_y: Vec<Point> = chunk.to_vec();
        by_y.sort_by(|a, b| a.y.total_cmp(&b.y));
        let per_run = by_y.len().div_ceil(slices).max(1);
        for run in by_y.chunks(per_run) {
            tiles.push(run.to_vec());
        }
    }
    tiles
}

/// Index of the rect in `seeds` needing least area expansion to include
/// `p`; ties break toward the smaller seed then the lower index.
pub(crate) fn choose_least_expansion(seeds: &[Rect], p: &Point) -> usize {
    let mut best = 0usize;
    let mut best_expansion = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, s) in seeds.iter().enumerate() {
        let mut grown = *s;
        grown.expand_point(p);
        let expansion = grown.area() - s.area();
        let area = s.area();
        if expansion < best_expansion || (expansion == best_expansion && area < best_area) {
            best = i;
            best_expansion = expansion;
            best_area = area;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::owns_point;
    use sh_rand::Rng;

    fn sample(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = Rng::seed(seed);
        (0..n)
            .map(|_| Point::new(rng.uniform(0.0..100.0), rng.uniform(0.0..100.0)))
            .collect()
    }

    #[test]
    fn str_seed_count_near_target() {
        let pts = sample(1000, 1);
        let s = StrPartitioning::build(&pts, Rect::new(0.0, 0.0, 100.0, 100.0), 16);
        assert!((9..=25).contains(&s.seeds.len()), "{}", s.seeds.len());
    }

    #[test]
    fn str_choose_prefers_containing_seed() {
        let pts = sample(1000, 2);
        let s = StrPartitioning::build(&pts, Rect::new(0.0, 0.0, 100.0, 100.0), 9);
        for p in sample(100, 3) {
            let i = s.choose(&p);
            let mut grown = s.seeds[i];
            grown.expand_point(&p);
            let expansion = grown.area() - s.seeds[i].area();
            // If some seed contains the point, the chosen one must too
            // (zero expansion).
            if s.seeds.iter().any(|r| r.contains_point(&p)) {
                assert_eq!(expansion, 0.0);
            }
        }
    }

    #[test]
    fn str_plus_tiles_the_universe() {
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let s = StrPlusPartitioning::build(&sample(2000, 4), uni, 16);
        let total: f64 = s.cells.iter().map(Rect::area).sum();
        assert!((total - uni.area()).abs() < 1e-6, "total {total}");
        for i in 0..s.cells.len() {
            for j in (i + 1)..s.cells.len() {
                let inter = s.cells[i].intersection(&s.cells[j]);
                assert!(inter.is_none_or(|r| r.area() < 1e-9));
            }
        }
    }

    #[test]
    fn str_plus_every_point_owned_once() {
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let pts = sample(800, 5);
        let s = StrPlusPartitioning::build(&pts, uni, 12);
        for p in &pts {
            let owners = s.cells.iter().filter(|c| owns_point(c, p, &uni)).count();
            assert_eq!(owners, 1, "{p}");
        }
    }

    #[test]
    fn str_plus_balances_skewed_data() {
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        // 90% of the data in a corner.
        let mut rng = Rng::seed(6);
        let pts: Vec<Point> = (0..2000)
            .map(|i| {
                if i % 10 == 0 {
                    Point::new(rng.uniform(0.0..100.0), rng.uniform(0.0..100.0))
                } else {
                    Point::new(rng.uniform(0.0..5.0), rng.uniform(0.0..5.0))
                }
            })
            .collect();
        let s = StrPlusPartitioning::build(&pts, uni, 16);
        let mut counts = vec![0usize; s.cells.len()];
        for p in &pts {
            if let Some(i) = s.cells.iter().position(|c| owns_point(c, p, &uni)) {
                counts[i] += 1;
            }
        }
        let max = *counts.iter().max().unwrap();
        // The grid would put ~1800 points in one cell; STR+ must do far
        // better.
        assert!(max < 600, "max cell load {max}, counts {counts:?}");
    }

    #[test]
    fn empty_sample_degrades_to_single_cell() {
        let uni = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(StrPartitioning::build(&[], uni, 8).seeds.len(), 1);
        assert_eq!(StrPlusPartitioning::build(&[], uni, 8).cells.len(), 1);
    }
}
