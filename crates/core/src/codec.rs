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

/// Appends a rect pair (`x1 y1 x2 y2 x1 y1 x2 y2`) to `out` — the line
/// format join results use. Writes into the caller's buffer so hot loops
/// reuse one allocation.
pub fn write_pair(out: &mut String, a: &Rect, b: &Rect) {
    let _ = write!(
        out,
        "{} {} {} {} {} {} {} {}",
        a.x1, a.y1, a.x2, a.y2, b.x1, b.y1, b.x2, b.y2
    );
}

/// Encodes a rect pair as an owned line (see [`write_pair`]).
pub fn encode_pair(a: &Rect, b: &Rect) -> String {
    let mut s = String::with_capacity(64);
    write_pair(&mut s, a, b);
    s
}

/// Decodes a line written by [`write_pair`].
pub fn decode_pair(line: &str) -> Result<(Rect, Rect), OpError> {
    let nums = decode_floats(line, "join pair")?;
    if nums.len() != 8 {
        return Err(corrupt("join pair", line));
    }
    Ok((
        Rect::new(nums[0], nums[1], nums[2], nums[3]),
        Rect::new(nums[4], nums[5], nums[6], nums[7]),
    ))
}

/// Parses every non-blank row of job output as a record, mapping parse
/// failures to [`OpError::Corrupt`] — the shared driver-side output
/// reader for range/knn/skyline/hull results.
pub fn parse_output_records<R: Record>(rows: &Rows) -> Result<Vec<R>, OpError> {
    rows.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| R::parse_line(l).map_err(|e| OpError::Corrupt(format!("bad output line: {e}"))))
        .collect()
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
        assert_eq!(decode_pair(&encode_pair(&a, &b)).unwrap(), (a, b));
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
        assert!(matches!(decode_pair("1 2 3 4"), Err(OpError::Corrupt(_))));
        assert!(matches!(
            decode_pair("1 2 3 4 5 6 7 boom"),
            Err(OpError::Corrupt(_))
        ));
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
