//! Benchmark operations: the Pigeon line that is sent, the arguments the
//! deeper rungs of the ladder call the layers with, and the answer the
//! single-machine oracle (`sh_core::ops::single`) expects.

use sh_core::ops::single;
use sh_core::storage::BlockFormat;
use sh_geom::{Point, Record, Rect};
use sh_index::PartitionKind;

/// Operation kinds, as the per-kind metrics group them. `Cg` is the
/// computational-geometry pair of `heap-batch` (skyline, convex hull).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Range,
    Knn,
    Join,
    Index,
    Cg,
}

impl Kind {
    pub const ALL: [Kind; 5] = [Kind::Range, Kind::Knn, Kind::Join, Kind::Index, Kind::Cg];

    pub fn name(self) -> &'static str {
        self.names()[0]
    }

    /// The kind's name and its three metrics: the whole-run median of the
    /// untraced run, and the front-door and operations-layer latencies
    /// of the traced pass.
    pub fn names(self) -> [&'static str; 4] {
        match self {
            Kind::Range => ["range", "range_p50_ms", "e2e.range_ms", "ops.range_ms"],
            Kind::Knn => ["knn", "knn_p50_ms", "e2e.knn_ms", "ops.knn_ms"],
            Kind::Join => ["join", "join_p50_ms", "e2e.join_ms", "ops.join_ms"],
            Kind::Index => ["index", "index_p50_ms", "e2e.index_ms", "ops.index_ms"],
            Kind::Cg => ["cg", "cg_p50_ms", "e2e.cg_ms", "ops.cg_ms"],
        }
    }
}

/// What the layers below Pigeon are called with for this op.
#[derive(Clone, Debug)]
pub enum Args {
    /// `FILTER <src> BY Overlaps(RECTANGLE(..))`.
    Range {
        src: &'static str,
        q: Rect,
    },
    /// `KNN <src> POINT(..) K <k>`.
    Knn {
        src: &'static str,
        q: Point,
        k: usize,
    },
    /// `JOIN <left>, <right> PREDICATE Overlaps`.
    Join {
        left: &'static str,
        right: &'static str,
    },
    Skyline {
        src: &'static str,
    },
    Hull {
        src: &'static str,
    },
    /// `INDEX <src> AS <kind> INTO '<dir>' FORMAT <format>`.
    Index {
        src: &'static str,
        rects: bool,
        kind: PartitionKind,
        format: BlockFormat,
        dir: String,
    },
}

/// The oracle's answer, in the form the reply is compared in.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// Row count and order-independent hash of the rows.
    Rows(RowSet),
    /// Ascending squared distances of the k nearest neighbours (ties may
    /// be broken either way, so points are not compared).
    Knn(Vec<f64>),
    /// `DUMP` of an indexed file: its record count, exact for points;
    /// a disjoint index replicates rectangles, so theirs is a floor.
    Index { records: u64, exact: bool },
}

#[derive(Clone)]
pub struct Op {
    pub kind: Kind,
    /// The request as sent: the statement, then `DUMP` of its result.
    pub line: String,
    pub args: Args,
    pub expect: Expect,
}

/// A multiset of text rows reduced to its size and a hash that does not
/// depend on row order (the sum of the rows' hashes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowSet {
    pub n: usize,
    pub hash: u64,
}

impl RowSet {
    pub fn push(&mut self, row: &str) {
        self.n += 1;
        self.hash = self.hash.wrapping_add(row_hash(row));
    }

    pub fn of<'a>(rows: impl IntoIterator<Item = &'a str>) -> RowSet {
        let mut set = RowSet::default();
        for row in rows {
            set.push(row);
        }
        set
    }

    pub fn of_records<R: Record>(records: &[R]) -> RowSet {
        let mut set = RowSet::default();
        let mut line = String::new();
        for r in records {
            line.clear();
            r.write_line(&mut line);
            set.push(&line);
        }
        set
    }
}

/// FNV-1a over the row, then a finalizer so that sums of hashes do not
/// cancel on near-identical rows.
fn row_hash(row: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in row.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl Op {
    pub fn range(src: &'static str, q: Rect, points: &[Point]) -> Op {
        let answer = RowSet::of_records(&single::range_query(points, &q).value);
        Op::range_expecting(src, q, Expect::Rows(answer))
    }

    /// A range op whose answer is already known (the same window against
    /// another index of the same records).
    pub fn range_expecting(src: &'static str, q: Rect, expect: Expect) -> Op {
        Op {
            kind: Kind::Range,
            line: format!(
                "q = FILTER {src} BY Overlaps(RECTANGLE({}, {}, {}, {})); DUMP q;",
                q.x1, q.y1, q.x2, q.y2
            ),
            args: Args::Range { src, q },
            expect,
        }
    }

    pub fn knn(src: &'static str, q: Point, k: usize, points: &[Point]) -> Op {
        let nearest = single::knn(points, &q, k).value;
        Op {
            kind: Kind::Knn,
            line: format!("q = KNN {src} POINT({}, {}) K {k}; DUMP q;", q.x, q.y),
            args: Args::Knn { src, q, k },
            expect: Expect::Knn(nearest.iter().map(|p| p.distance_sq(&q)).collect()),
        }
    }

    pub fn join(left: &'static str, right: &'static str, a: &[Rect], b: &[Rect]) -> Op {
        let mut rows = RowSet::default();
        let mut line = String::new();
        for (i, j) in single::spatial_join(a, b).value {
            line.clear();
            a[i].write_line(&mut line);
            line.push_str(" | ");
            b[j].write_line(&mut line);
            rows.push(&line);
        }
        Op {
            kind: Kind::Join,
            line: format!("q = JOIN {left}, {right} PREDICATE Overlaps; DUMP q;"),
            args: Args::Join { left, right },
            expect: Expect::Rows(rows),
        }
    }

    pub fn skyline(src: &'static str, points: &[Point]) -> Op {
        Op {
            kind: Kind::Cg,
            line: format!("q = SKYLINE {src}; DUMP q;"),
            args: Args::Skyline { src },
            expect: Expect::Rows(RowSet::of_records(&single::skyline_single(points).value)),
        }
    }

    pub fn hull(src: &'static str, points: &[Point]) -> Op {
        Op {
            kind: Kind::Cg,
            line: format!("q = CONVEXHULL {src}; DUMP q;"),
            args: Args::Hull { src },
            expect: Expect::Rows(RowSet::of_records(
                &single::convex_hull_single(points).value,
            )),
        }
    }

    pub fn index(
        src: &'static str,
        rects: bool,
        kind: PartitionKind,
        format: BlockFormat,
        dir: String,
        records: u64,
    ) -> Op {
        Op {
            kind: Kind::Index,
            line: format!(
                "i = INDEX {src} AS {} INTO '{dir}' FORMAT {}; DUMP i;",
                kind.name(),
                format.name()
            ),
            args: Args::Index {
                src,
                rects,
                kind,
                format,
                dir,
            },
            expect: Expect::Index {
                records,
                exact: !rects,
            },
        }
    }

    /// This `INDEX` op building into another directory.
    pub fn index_into(&self, dir: String) -> Op {
        let (
            Args::Index {
                src,
                rects,
                kind,
                format,
                ..
            },
            Expect::Index { records, .. },
        ) = (&self.args, &self.expect)
        else {
            unreachable!("only INDEX ops are retargeted")
        };
        Op::index(src, *rects, *kind, *format, dir, *records)
    }

    /// Compares a reply's rows with the oracle's answer.
    pub fn check<'a>(&self, rows: impl IntoIterator<Item = &'a str>) -> Result<(), String> {
        match &self.expect {
            Expect::Rows(want) => {
                let got = RowSet::of(rows);
                if got == *want {
                    Ok(())
                } else {
                    Err(format!(
                        "{} rows (hash {:016x}), oracle has {} (hash {:016x})",
                        got.n, got.hash, want.n, want.hash
                    ))
                }
            }
            Expect::Knn(want) => {
                let Args::Knn { q, .. } = &self.args else {
                    unreachable!("a kNN answer belongs to a kNN op")
                };
                let mut got = Vec::with_capacity(want.len());
                for row in rows {
                    let p = Point::parse_line(row).map_err(|e| format!("{e}: {row:?}"))?;
                    got.push(p.distance_sq(q));
                }
                got.sort_by(f64::total_cmp);
                if got == *want {
                    Ok(())
                } else {
                    Err(format!("distances {got:?}, oracle has {want:?}"))
                }
            }
            Expect::Index { records, exact } => {
                // "indexed file <dir> (<kind>; <p> partitions, <r> records)"
                let row = rows.into_iter().next().unwrap_or("");
                let got = row
                    .rsplit_once(", ")
                    .and_then(|(_, tail)| tail.strip_suffix(" records)"))
                    .and_then(|r| r.parse::<u64>().ok())
                    .ok_or_else(|| format!("not an index summary: {row:?}"))?;
                if got == *records || (!exact && got > *records) {
                    Ok(())
                } else {
                    Err(format!("index holds {got} records, input has {records}"))
                }
            }
        }
    }
}

/// SplitMix64: the benchmark's own generator for query choice, so the
/// inputs depend on `--seed` and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A square window of side `side` centred as near `c` as the universe
/// allows, on whole coordinates so the text sent and the rectangle the
/// oracle uses are the same numbers.
pub fn window(c: &Point, side: f64, universe: &Rect) -> Rect {
    let side = side.round().clamp(1.0, universe.width());
    let x1 = (c.x - side / 2.0)
        .round()
        .clamp(universe.x1, universe.x2 - side);
    let y1 = (c.y - side / 2.0)
        .round()
        .clamp(universe.y1, universe.y2 - side);
    Rect::new(x1, y1, x1 + side, y1 + side)
}

/// Side of the square centred on `c` that holds about `rows` of
/// `points`: windows sized by what they return, so every seed's queries
/// do the same amount of work whatever the data's skew.
pub fn side_for_rows(c: &Point, rows: usize, points: &[Point]) -> f64 {
    let mut d: Vec<f64> = points
        .iter()
        .map(|p| (p.x - c.x).abs().max((p.y - c.y).abs()))
        .collect();
    let k = rows.clamp(1, d.len()) - 1;
    let (_, kth, _) = d.select_nth_unstable_by(k, f64::total_cmp);
    2.0 * *kth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_sets_ignore_order_but_not_content() {
        let a = RowSet::of(["1 2", "3 4", "3 4"]);
        let b = RowSet::of(["3 4", "1 2", "3 4"]);
        assert_eq!(a, b);
        assert_ne!(a, RowSet::of(["1 2", "3 4"]));
        assert_ne!(a, RowSet::of(["1 2", "3 4", "3 5"]));
        assert_eq!(
            RowSet::of_records(&[Point::new(1.0, 2.0)]),
            RowSet::of(["1 2"])
        );
    }

    #[test]
    fn checks_name_the_difference() {
        let pts = vec![
            Point::new(1.0, 1.0),
            Point::new(5.0, 5.0),
            Point::new(9.0, 9.0),
        ];
        let op = Op::range("p", Rect::new(0.0, 0.0, 6.0, 6.0), &pts);
        assert!(op.check(["5 5", "1 1"]).is_ok());
        assert!(op.check(["1 1"]).unwrap_err().contains("oracle has 2"));

        let op = Op::knn("p", Point::new(0.0, 0.0), 2, &pts);
        assert!(op.check(["5 5", "1 1"]).is_ok());
        assert!(op.check(["9 9", "1 1"]).is_err());

        let op = Op::index(
            "h",
            false,
            PartitionKind::Grid,
            BlockFormat::Text,
            "/i".into(),
            3,
        );
        assert!(op
            .check(["indexed file /i (grid; 1 partitions, 3 records)"])
            .is_ok());
        assert!(op
            .check(["indexed file /i (grid; 1 partitions, 4 records)"])
            .is_err());
        let op = Op::index(
            "h",
            true,
            PartitionKind::Grid,
            BlockFormat::Text,
            "/i".into(),
            3,
        );
        assert!(op
            .check(["indexed file /i (grid; 1 partitions, 4 records)"])
            .is_ok());
        assert!(op
            .check(["indexed file /i (grid; 1 partitions, 2 records)"])
            .is_err());
    }

    #[test]
    fn windows_stay_inside_and_sized_by_rows() {
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let w = window(&Point::new(2.0, 999.0), 100.0, &uni);
        assert_eq!(w, Rect::new(0.0, 900.0, 100.0, 1000.0));
        let pts: Vec<Point> = (0..100).map(|i| Point::new(i as f64, 0.0)).collect();
        // The 11 points within distance 5 of x=50 fill a window of side 10.
        assert_eq!(side_for_rows(&Point::new(50.0, 0.0), 11, &pts), 10.0);
    }

    #[test]
    fn rng_is_a_function_of_its_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(7);
        let mut s = Rng::new(8);
        assert_ne!(r.next_u64(), s.next_u64());
        assert!((0..100).all(|_| r.unit() < 1.0 && r.below(3) < 3));
    }
}
