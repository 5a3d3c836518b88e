//! Line-oriented record encoding.
//!
//! SpatialHadoop stores datasets as text files in HDFS — one record per
//! line — and every MapReduce job re-parses its input split. We reproduce
//! that: the simulated DFS stores raw bytes, and the record readers in
//! `sh-core` parse them through this [`Record`] trait, so the measured
//! per-record CPU cost includes realistic parse work.
//!
//! Formats (whitespace-separated decimal fields):
//!
//! * `Point`   — `x y`
//! * `Rect`    — `x1 y1 x2 y2`
//! * `Segment` — `S x1 y1 x2 y2`
//! * `Polygon` — `P n x1 y1 x2 y2 ... xn yn`

use std::fmt::Write as _;

use crate::point::Point;
use crate::polygon::Polygon;
use crate::rect::Rect;
use crate::segment::Segment;

/// Error produced when a line cannot be parsed as the expected record type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description including the offending fragment.
    pub message: String,
}

impl ParseError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ParseError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "record parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// A spatial record that can be stored in (and parsed back from) a text
/// file in the simulated DFS.
pub trait Record: Clone + Send + Sync + 'static {
    /// Minimum bounding rectangle — the only thing the indexing layer
    /// needs to know about a record.
    fn mbr(&self) -> Rect;

    /// Appends the single-line encoding (without trailing newline).
    fn write_line(&self, out: &mut String);

    /// Parses a line previously produced by [`Record::write_line`].
    fn parse_line(line: &str) -> Result<Self, ParseError>;

    /// Convenience: the encoded line as an owned string.
    fn to_line(&self) -> String {
        let mut s = String::new();
        self.write_line(&mut s);
        s
    }

    /// Columnar kind tag for the binary block format (`0` = point,
    /// `1` = rect), or `None` when the type has no fixed-width columnar
    /// form (segments, polygons, tagged records stay text-only).
    const BINARY_KIND: Option<u8> = None;

    /// Number of `f64` coordinate columns in the columnar form.
    fn ncols() -> usize {
        0
    }

    /// Appends this record's coordinates to the per-column builders.
    fn push_cols(&self, _cols: &mut [Vec<f64>]) {}

    /// Reconstructs record `i` from decoded coordinate columns.
    fn from_cols(_cols: &[&[f64]], _i: usize) -> Self {
        unreachable!("record type has no columnar form")
    }
}

/// `s` quoted for an error message, as `{:?}` would, but cut after 48
/// characters with a trailing `…`: a corrupt line or token can be any
/// length, the message quoting it cannot.
pub fn quote(s: &str) -> String {
    match s.char_indices().nth(48) {
        Some((cut, _)) => format!("{:?}…", &s[..cut]),
        None => format!("{s:?}"),
    }
}

fn parse_f64(tok: Option<&str>, what: &str) -> Result<f64, ParseError> {
    let tok = tok.ok_or_else(|| ParseError::new(format!("missing field: {what}")))?;
    let v: f64 = tok
        .parse()
        .map_err(|_| ParseError::new(format!("bad {what}: {}", quote(tok))))?;
    if !v.is_finite() {
        return Err(ParseError::new(format!(
            "non-finite {what}: {}",
            quote(tok)
        )));
    }
    Ok(v)
}

impl Record for Point {
    fn mbr(&self) -> Rect {
        self.to_rect()
    }

    fn write_line(&self, out: &mut String) {
        let _ = write!(out, "{} {}", self.x, self.y);
    }

    fn parse_line(line: &str) -> Result<Self, ParseError> {
        let mut it = line.split_ascii_whitespace();
        let x = parse_f64(it.next(), "x")?;
        let y = parse_f64(it.next(), "y")?;
        if it.next().is_some() {
            return Err(ParseError::new(format!(
                "trailing fields in point: {}",
                quote(line)
            )));
        }
        Ok(Point::new(x, y))
    }

    const BINARY_KIND: Option<u8> = Some(0);

    fn ncols() -> usize {
        2
    }

    fn push_cols(&self, cols: &mut [Vec<f64>]) {
        cols[0].push(self.x);
        cols[1].push(self.y);
    }

    fn from_cols(cols: &[&[f64]], i: usize) -> Self {
        Point::new(cols[0][i], cols[1][i])
    }
}

impl Record for Rect {
    fn mbr(&self) -> Rect {
        *self
    }

    fn write_line(&self, out: &mut String) {
        let _ = write!(out, "{} {} {} {}", self.x1, self.y1, self.x2, self.y2);
    }

    fn parse_line(line: &str) -> Result<Self, ParseError> {
        let mut it = line.split_ascii_whitespace();
        let x1 = parse_f64(it.next(), "x1")?;
        let y1 = parse_f64(it.next(), "y1")?;
        let x2 = parse_f64(it.next(), "x2")?;
        let y2 = parse_f64(it.next(), "y2")?;
        if it.next().is_some() {
            return Err(ParseError::new(format!(
                "trailing fields in rect: {}",
                quote(line)
            )));
        }
        Ok(Rect::new(x1, y1, x2, y2))
    }

    const BINARY_KIND: Option<u8> = Some(1);

    fn ncols() -> usize {
        4
    }

    fn push_cols(&self, cols: &mut [Vec<f64>]) {
        cols[0].push(self.x1);
        cols[1].push(self.y1);
        cols[2].push(self.x2);
        cols[3].push(self.y2);
    }

    fn from_cols(cols: &[&[f64]], i: usize) -> Self {
        Rect::new(cols[0][i], cols[1][i], cols[2][i], cols[3][i])
    }
}

impl Record for Segment {
    fn mbr(&self) -> Rect {
        Segment::mbr(self)
    }

    fn write_line(&self, out: &mut String) {
        let _ = write!(out, "S {} {} {} {}", self.a.x, self.a.y, self.b.x, self.b.y);
    }

    fn parse_line(line: &str) -> Result<Self, ParseError> {
        let mut it = line.split_ascii_whitespace();
        if it.next() != Some("S") {
            return Err(ParseError::new(format!(
                "expected 'S' tag: {}",
                quote(line)
            )));
        }
        let ax = parse_f64(it.next(), "ax")?;
        let ay = parse_f64(it.next(), "ay")?;
        let bx = parse_f64(it.next(), "bx")?;
        let by = parse_f64(it.next(), "by")?;
        Ok(Segment::new(Point::new(ax, ay), Point::new(bx, by)))
    }
}

impl Record for Polygon {
    fn mbr(&self) -> Rect {
        Polygon::mbr(self)
    }

    fn write_line(&self, out: &mut String) {
        let _ = write!(out, "P {}", self.len());
        for v in self.vertices() {
            let _ = write!(out, " {} {}", v.x, v.y);
        }
    }

    fn parse_line(line: &str) -> Result<Self, ParseError> {
        let mut it = line.split_ascii_whitespace();
        if it.next() != Some("P") {
            return Err(ParseError::new(format!(
                "expected 'P' tag: {}",
                quote(line)
            )));
        }
        let n = parse_f64(it.next(), "vertex count")? as usize;
        if n < 3 {
            return Err(ParseError::new(format!("polygon with {n} vertices")));
        }
        let mut vs = Vec::with_capacity(n);
        for i in 0..n {
            let x = parse_f64(it.next(), &format!("vertex {i} x"))?;
            let y = parse_f64(it.next(), &format!("vertex {i} y"))?;
            vs.push(Point::new(x, y));
        }
        Ok(Polygon::new(vs))
    }
}

/// A record wrapped with a numeric id — lets applications correlate
/// operation outputs (e.g. join pairs) back to their source rows.
///
/// Line format: `<id> <record line...>`.
#[derive(Clone, Debug, PartialEq)]
pub struct Tagged<R> {
    /// Application-assigned identifier.
    pub id: u64,
    /// The wrapped spatial record.
    pub record: R,
}

impl<R> Tagged<R> {
    /// Wraps `record` with `id`.
    pub fn new(id: u64, record: R) -> Tagged<R> {
        Tagged { id, record }
    }
}

impl<R: Record> Record for Tagged<R> {
    fn mbr(&self) -> Rect {
        self.record.mbr()
    }

    fn write_line(&self, out: &mut String) {
        let _ = write!(out, "{} ", self.id);
        self.record.write_line(out);
    }

    fn parse_line(line: &str) -> Result<Self, ParseError> {
        let (id_tok, rest) = line
            .split_once(char::is_whitespace)
            .ok_or_else(|| ParseError::new(format!("tagged record without id: {}", quote(line))))?;
        let id: u64 = id_tok
            .parse()
            .map_err(|_| ParseError::new(format!("bad record id {}", quote(id_tok))))?;
        Ok(Tagged {
            id,
            record: R::parse_line(rest)?,
        })
    }
}

/// Serializes a slice of records to newline-terminated text.
pub fn write_records<R: Record>(records: &[R]) -> String {
    let mut out = String::with_capacity(records.len() * 24);
    for r in records {
        r.write_line(&mut out);
        out.push('\n');
    }
    out
}

/// Parses every line of `text` as a record, failing on the first bad line.
pub fn parse_records<R: Record>(text: &str) -> Result<Vec<R>, ParseError> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(R::parse_line)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_roundtrip() {
        let p = Point::new(1.5, -2.25);
        assert_eq!(Point::parse_line(&p.to_line()).unwrap(), p);
    }

    #[test]
    fn rect_roundtrip() {
        let r = Rect::new(0.0, 1.0, 2.0, 3.5);
        assert_eq!(Rect::parse_line(&r.to_line()).unwrap(), r);
    }

    #[test]
    fn segment_roundtrip() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 2.0));
        assert_eq!(Segment::parse_line(&s.to_line()).unwrap(), s);
    }

    #[test]
    fn polygon_roundtrip() {
        let poly = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(2.0, 3.0),
        ]);
        assert_eq!(Polygon::parse_line(&poly.to_line()).unwrap(), poly);
    }

    #[test]
    fn bulk_roundtrip_skips_blank_lines() {
        let pts = vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)];
        let mut text = write_records(&pts);
        text.push('\n');
        assert_eq!(parse_records::<Point>(&text).unwrap(), pts);
    }

    #[test]
    fn tagged_records_roundtrip_and_delegate_mbr() {
        let t = Tagged::new(42, Point::new(1.5, 2.5));
        let line = t.to_line();
        assert_eq!(line, "42 1.5 2.5");
        assert_eq!(Tagged::<Point>::parse_line(&line).unwrap(), t);
        assert_eq!(t.mbr(), Point::new(1.5, 2.5).to_rect());
        let tr = Tagged::new(7, Rect::new(0.0, 0.0, 2.0, 2.0));
        assert_eq!(Tagged::<Rect>::parse_line(&tr.to_line()).unwrap(), tr);
        assert!(Tagged::<Point>::parse_line("notanid 1 2").is_err());
        assert!(Tagged::<Point>::parse_line("42").is_err());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Point::parse_line("1.0").is_err());
        assert!(Point::parse_line("1.0 nope").is_err());
        assert!(Point::parse_line("1.0 2.0 3.0").is_err());
        assert!(Rect::parse_line("1 2 3").is_err());
        assert!(Polygon::parse_line("P 2 0 0 1 1").is_err());
        assert!(Segment::parse_line("X 0 0 1 1").is_err());
        assert!(Point::parse_line("NaN 1").is_err());
        assert!(Point::parse_line("inf 1").is_err());
        assert!(Rect::parse_line("0 0 -inf 1").is_err());
    }

    #[test]
    fn columnar_hooks_roundtrip_points_and_rects() {
        let pts = vec![Point::new(1.0, 2.0), Point::new(-3.5, 4.25)];
        let mut cols = vec![Vec::new(); Point::ncols()];
        for p in &pts {
            p.push_cols(&mut cols);
        }
        let views: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(&Point::from_cols(&views, i), p);
        }

        let rs = vec![
            Rect::new(0.0, 1.0, 2.0, 3.0),
            Rect::new(-1.0, -2.0, 0.5, 0.75),
        ];
        let mut cols = vec![Vec::new(); Rect::ncols()];
        for r in &rs {
            r.push_cols(&mut cols);
        }
        let views: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(&Rect::from_cols(&views, i), r);
        }
        assert_eq!(Point::BINARY_KIND, Some(0));
        assert_eq!(Rect::BINARY_KIND, Some(1));
        assert_eq!(Segment::BINARY_KIND, None);
        assert_eq!(Polygon::BINARY_KIND, None);
    }
}
