//! Tiny text codecs for intermediate values and aux payloads.
//!
//! Operations ship small driver-computed payloads to mappers through
//! `InputSplit::aux` (e.g. dominance-power sets, partition boxes) and
//! encode geometric results as output lines; this module centralizes
//! those encodings. Encoders write into reusable buffers (no per-record
//! `format!` temporaries); decoders return `Result` so corrupt payloads
//! surface as [`OpError::Corrupt`] instead of panicking the task.

use std::fmt::Write as _;

use sh_geom::{Point, Record, Rect};
use sh_mapreduce::Rows;

use crate::opresult::OpError;

fn corrupt(what: &str, s: &str) -> OpError {
    OpError::Corrupt(format!("bad {what} payload: {}", sh_geom::text::quote(s)))
}

/// Parses a whitespace-separated run of floats, rejecting every
/// non-finite value — an `inf` coordinate would poison MBRs and
/// partition boundaries just as silently as a NaN.
fn decode_floats(s: &str, what: &str) -> Result<Vec<f64>, OpError> {
    let mut nums = Vec::new();
    for tok in s.split_ascii_whitespace() {
        let v: f64 = tok.parse().map_err(|_| corrupt(what, s))?;
        if !v.is_finite() {
            return Err(corrupt(what, s));
        }
        nums.push(v);
    }
    Ok(nums)
}

/// Encodes points as `x y x y ...`.
pub fn encode_points(points: &[Point]) -> String {
    let mut s = String::with_capacity(points.len() * 16);
    for p in points {
        if !s.is_empty() {
            s.push(' ');
        }
        let _ = write!(s, "{} {}", p.x, p.y);
    }
    s
}

/// Decodes `x y x y ...`.
pub fn decode_points(s: &str) -> Result<Vec<Point>, OpError> {
    let nums = decode_floats(s, "point")?;
    if nums.len() % 2 != 0 {
        return Err(corrupt("point", s));
    }
    Ok(nums
        .chunks_exact(2)
        .map(|c| Point::new(c[0], c[1]))
        .collect())
}

/// Encodes rects as `x1 y1 x2 y2 ...`.
pub fn encode_rects(rects: &[Rect]) -> String {
    let mut s = String::with_capacity(rects.len() * 32);
    for r in rects {
        if !s.is_empty() {
            s.push(' ');
        }
        let _ = write!(s, "{} {} {} {}", r.x1, r.y1, r.x2, r.y2);
    }
    s
}

/// Decodes `x1 y1 x2 y2 ...`.
pub fn decode_rects(s: &str) -> Result<Vec<Rect>, OpError> {
    let nums = decode_floats(s, "rect")?;
    if nums.len() % 4 != 0 {
        return Err(corrupt("rect", s));
    }
    Ok(nums
        .chunks_exact(4)
        .map(|c| Rect::new(c[0], c[1], c[2], c[3]))
        .collect())
}

/// What separates the two records of a join pair row, `a | b`: each side
/// is its record's `write_line`.
pub const PAIR_SEPARATOR: &str = " | ";

/// Parses every non-blank row of job output as a record, mapping parse
/// failures to [`OpError::Corrupt`] — the shared driver-side output
/// reader for range/knn/skyline/hull results.
pub fn parse_output_records<R: Record>(rows: &Rows) -> Result<Vec<R>, OpError> {
    sh_geom::text::scan_all(rows.text()).map_err(|e| bad_output(e.error))
}

/// Parses join pair rows `a | b` (see [`PAIR_SEPARATOR`]).
pub fn parse_pairs<R: Record>(rows: &Rows) -> Result<Vec<(R, R)>, OpError> {
    rows.lines()
        .map(|row| {
            let (a, b) = row
                .split_once(PAIR_SEPARATOR)
                .ok_or_else(|| corrupt("join pair", row))?;
            Ok((
                R::parse_line(a).map_err(bad_output)?,
                R::parse_line(b).map_err(bad_output)?,
            ))
        })
        .collect()
}

fn bad_output(e: sh_geom::ParseError) -> OpError {
    OpError::Corrupt(format!("bad output line: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_roundtrip() {
        let pts = vec![Point::new(1.5, -2.0), Point::new(0.0, 3.25)];
        assert_eq!(decode_points(&encode_points(&pts)).unwrap(), pts);
        assert!(decode_points("").unwrap().is_empty());
    }

    #[test]
    fn rects_roundtrip() {
        let rs = vec![
            Rect::new(0.0, 1.0, 2.0, 3.0),
            Rect::new(-1.0, -1.0, 1.0, 1.0),
        ];
        assert_eq!(decode_rects(&encode_rects(&rs)).unwrap(), rs);
        assert!(decode_rects("").unwrap().is_empty());
    }

    #[test]
    fn pair_roundtrip() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(2.0, 2.0, 3.5, 4.0);
        let rows = Rows::from_lines([format!("{}{PAIR_SEPARATOR}{}", a.to_line(), b.to_line())]);
        assert_eq!(rows.text(), "0 0 1 1 | 2 2 3.5 4\n");
        assert_eq!(parse_pairs::<Rect>(&rows).unwrap(), vec![(a, b)]);
    }

    #[test]
    fn corrupt_payloads_are_errors_not_panics() {
        assert!(matches!(decode_points("1 x"), Err(OpError::Corrupt(_))));
        assert!(matches!(decode_points("1 2 3"), Err(OpError::Corrupt(_))));
        assert!(matches!(decode_rects("1 2 3"), Err(OpError::Corrupt(_))));
        assert!(matches!(
            decode_rects("NaN 1 2 3"),
            Err(OpError::Corrupt(_))
        ));
        assert!(matches!(
            decode_rects("inf 1 2 3"),
            Err(OpError::Corrupt(_))
        ));
        assert!(matches!(decode_points("1 -inf"), Err(OpError::Corrupt(_))));
        for row in [
            "1 2 3 4",
            "1 2 3 4 5 6 7 8",
            "1 2 3 4 | 5 6 7 boom",
            "1 2 3 | 5 6 7 8",
        ] {
            assert!(
                matches!(
                    parse_pairs::<Rect>(&Rows::from_lines([row])),
                    Err(OpError::Corrupt(_))
                ),
                "{row:?}"
            );
        }
    }

    #[test]
    fn output_records_parse_or_fail() {
        let rows = Rows::from_lines(["1 2", "", "3 4"]);
        let pts = parse_output_records::<Point>(&rows).unwrap();
        assert_eq!(pts, vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)]);
        let bad = Rows::from_lines(["not a point"]);
        assert!(matches!(
            parse_output_records::<Point>(&bad),
            Err(OpError::Corrupt(_))
        ));
    }
}
