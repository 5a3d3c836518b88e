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
//!
//! One reader parses all of it. [`scan`] walks a text forward once and
//! finds field ends and line ends in the same pass; each line's fields go
//! to [`Record::from_fields`], which reads every number with
//! `f64::from_str`. A field ends at exactly the bytes
//! `str::split_ascii_whitespace` splits on, a line ends where `str::lines`
//! ends it, and a line that `str::trim` leaves empty holds no record.
//! [`Record::parse_line`] is the same cursor over one line, so each type
//! has exactly one parser.
//!
//! One writer renders every coordinate: [`write_f64`], which each
//! [`Record::write_line`] calls, appends exactly what `{}` formats the
//! number as: the shortest decimal that reads back to the same bits,
//! with an exact tie between two shortest candidates rounded up, as
//! `core::fmt` rounds it. It finds the digits itself for every value a
//! coordinate takes in practice and leaves the rest to `core::fmt`, so
//! a record line costs a few integer products per number, and the
//! parser reads back exactly the record that was written.

use std::fmt::{self, Write as _};

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

    /// Parses one record from the fields of its line and ends with
    /// [`Fields::end`], so a trailing field is an error. This is the
    /// type's one parser: [`scan`] and [`Record::parse_line`] both call it.
    fn from_fields(fields: &mut Fields<'_>) -> Result<Self, ParseError>;

    /// Parses a line previously produced by [`Record::write_line`]:
    /// [`Record::from_fields`] over this one line, in which a `'\n'` is
    /// one more separator.
    fn parse_line(line: &str) -> Result<Self, ParseError> {
        Self::from_fields(&mut Fields::of_line(line))
    }

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

/// The one number parser: `tok` as a finite `f64`. `what` names the
/// field in the error and is only formatted on one.
#[inline]
fn parse_f64(tok: Option<&str>, what: fmt::Arguments<'_>) -> Result<f64, ParseError> {
    let Some(tok) = tok else {
        return Err(field_error("missing field: ", what, None));
    };
    match tok.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        Ok(_) => Err(field_error("non-finite ", what, Some(tok))),
        Err(_) => Err(field_error("bad ", what, Some(tok))),
    }
}

/// `{problem}{what}`, then `: {token}` quoted: kept out of the parse
/// loop, which never fails on good text.
#[cold]
#[inline(never)]
fn field_error(problem: &str, what: fmt::Arguments<'_>, tok: Option<&str>) -> ParseError {
    match tok {
        Some(tok) => ParseError::new(format!("{problem}{what}: {}", quote(tok))),
        None => ParseError::new(format!("{problem}{what}")),
    }
}

/// `5^i` for `i` in `0..32`: with `4m + 2 < 2^55`, every product
/// `(4m + δ) · 5^i` the writer forms fits a `u128`.
const POW5: [u128; 32] = {
    let mut t = [1u128; 32];
    let mut i = 1;
    while i < 32 {
        t[i] = t[i - 1] * 5;
        i += 1;
    }
    t
};

/// `"00"`, `"01"`, …, `"99"`: the writer's digits, two per division.
const PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// The one number writer: appends exactly what `{}` formats `v` as,
/// the shortest decimal that reads back as `v`, without an
/// exponent. A finite normal `v` whose exponent `e2` of `4m` lies in
/// `-99..=-1` (about `3e-14 <= |v| < 1.8e16`, every coordinate the
/// workloads make) takes `shortest`; zero is `0` or `-0`; any other
/// value goes to `core::fmt`.
pub fn write_f64(out: &mut String, v: f64) {
    let bits = v.to_bits();
    let e2 = ((bits >> 52) & 0x7ff) as i32 - 1077;
    if v == 0.0 {
        out.push_str(if v.is_sign_negative() { "-0" } else { "0" });
    } else if (-99..=-1).contains(&e2) {
        let frac = bits & ((1 << 52) - 1);
        let (digits, e10) = shortest(frac | 1 << 52, e2, frac != 0);
        render(out, v < 0.0, digits, e10);
    } else {
        let _ = out.write_fmt(format_args!("{v}"));
    }
}

/// Appends `' '` and then `v` for each `v` of `vs`: a record line's
/// coordinate fields after its first.
fn write_spaced(out: &mut String, vs: &[f64]) {
    for &v in vs {
        out.push(' ');
        write_f64(out, v);
    }
}

/// Ryū's shortest digits (Adams, PLDI 2018) of `v = 4m · 2^e2`, with its
/// 128-bit tables replaced by exact `u128` products: `(d, e10)` with the
/// fewest digits `d` such that `d · 10^e10` lies in `v`'s rounding
/// interval, and of those the nearest to `v`. An exact tie rounds up,
/// as `core::fmt` does (Ryū rounds it to even). The interval's lower
/// half is half as wide below a power of two (`full_lower_gap` false).
///
/// Ryū also decides whether the interval's ends belong to it. For
/// `e2 < 0` no end is ever the answer: an end is an odd multiple of
/// `2^(e2 + 1)` (or `2^e2`), so its last digit sits where the interval
/// already holds a nearer candidate of the same length.
fn shortest(m: u64, e2: i32, full_lower_gap: bool) -> (u64, i32) {
    // Ryū's q = max(0, ⌊log10 5^−e2⌋ − 1): the scaled values keep every
    // digit the answer needs and still fit a `u64`.
    let neg_e2 = e2.unsigned_abs();
    let q = ((neg_e2 * 732_923) >> 20) - u32::from(neg_e2 > 1);
    let pow5 = POW5[(neg_e2 - q) as usize];
    // ⌊(4m + δ) · 2^e2 / 10^e10⌋ = ((4m + δ) · 5^i) >> q, exactly.
    let scaled = |m4: u64| ((u128::from(m4) * pow5) >> q) as u64;
    let mut vr = scaled(4 * m);
    let mut vp = scaled(4 * m + 2);
    let mut vm = scaled(4 * m - 1 - u64::from(full_lower_gap));
    let (mut e10, mut last) = (e2 + q as i32, 0);
    while vp / 10 > vm / 10 {
        last = vr % 10;
        (vr, vp, vm, e10) = (vr / 10, vp / 10, vm / 10, e10 + 1);
    }
    // Up when `vr` fell out of the interval or the digits dropped from
    // it are half a unit or more.
    (vr + u64::from(vr == vm || last >= 5), e10)
}

/// Appends `digits · 10^e10` as `{}` spells it: no exponent, no zero
/// after the last nonzero fraction digit, and `0.` before a fraction
/// below one.
fn render(out: &mut String, negative: bool, mut n: u64, mut e10: i32) {
    while n.is_multiple_of(10) {
        n /= 10;
        e10 += 1;
    }
    let mut d = [0u8; 20];
    let mut start = d.len();
    while n >= 10 {
        let p = (n % 100) as usize * 2;
        start -= 2;
        d[start..start + 2].copy_from_slice(&PAIRS[p..p + 2]);
        n /= 100;
    }
    if n > 0 {
        start -= 1;
        d[start] = b'0' + n as u8;
    }
    let digits = &d[start..];
    // At most a sign, "0.", 13 zeros and 17 digits, or 17 digits and
    // zeros; every byte not written is a '0'.
    let mut buf = [b'0'; 40];
    let mut len = usize::from(negative);
    if negative {
        buf[0] = b'-';
    }
    let point = digits.len() as i32 + e10;
    if e10 >= 0 {
        buf[len..len + digits.len()].copy_from_slice(digits);
        len += point as usize;
    } else if point > 0 {
        let (int, fraction) = digits.split_at(point as usize);
        buf[len..len + int.len()].copy_from_slice(int);
        len += int.len();
        buf[len] = b'.';
        buf[len + 1..len + 1 + fraction.len()].copy_from_slice(fraction);
        len += 1 + fraction.len();
    } else {
        buf[len + 1] = b'.';
        len += 2 + point.unsigned_abs() as usize;
        buf[len..len + digits.len()].copy_from_slice(digits);
        len += digits.len();
    }
    out.push_str(std::str::from_utf8(&buf[..len]).expect("the digits are ASCII"));
}

/// Where the line of `text` that starts at byte `start` ends, as
/// `str::lines` ends it: before the `'\n'`, or the `"\r\n"`, after it.
pub fn line_end(text: &[u8], start: usize) -> usize {
    match text[start..].iter().position(|&b| b == b'\n') {
        Some(n) if n > 0 && text[start + n - 1] == b'\r' => start + n - 1,
        Some(n) => start + n,
        None => text.len(),
    }
}

/// The fields of one line, as [`Record::from_fields`] reads them: a
/// cursor that skips separators (the bytes `u8::is_ascii_whitespace`
/// accepts) and yields each field in turn, up to the end of the line.
pub struct Fields<'a> {
    text: &'a str,
    /// Where the line starts.
    start: usize,
    /// The first byte not yet read.
    pos: usize,
    /// In a [`scan`], `'\n'` ends the line; in [`Record::parse_line`]'s
    /// one line, which is all of `text`, it is one more separator.
    newline_ends: bool,
}

impl<'a> Fields<'a> {
    fn of_line(line: &'a str) -> Fields<'a> {
        Fields {
            text: line,
            start: 0,
            pos: 0,
            newline_ends: false,
        }
    }

    /// The next field as a finite number; `what` names it in the error.
    #[inline]
    pub fn number(&mut self, what: fmt::Arguments<'_>) -> Result<f64, ParseError> {
        parse_f64(self.next(), what)
    }

    /// `Ok` when the line holds no further field, else the error
    /// "trailing fields in `kind`" quoting the line.
    #[inline]
    pub fn end(&mut self, kind: &str) -> Result<(), ParseError> {
        match self.next() {
            None => Ok(()),
            Some(_) => Err(self.trailing(kind)),
        }
    }

    #[cold]
    #[inline(never)]
    fn trailing(&self, kind: &str) -> ParseError {
        ParseError::new(format!("trailing fields in {kind}: {}", quote(self.line())))
    }

    /// The whole line, as `str::lines` gives it.
    pub fn line(&self) -> &'a str {
        if self.newline_ends {
            &self.text[self.start..line_end(self.text.as_bytes(), self.start)]
        } else {
            self.text
        }
    }

    /// The whole line, read to its end: for a record whose line is more
    /// than its fields.
    pub fn take_line(&mut self) -> &'a str {
        self.pos = self.newline();
        self.line()
    }

    /// The part of the line not yet read.
    fn rest(&self) -> &'a str {
        &self.text[self.pos..self.newline()]
    }

    /// Byte offset of the `'\n'` that ends the line, or of the text's end.
    fn newline(&self) -> usize {
        match self.newline_ends {
            true => self.text[self.pos..]
                .find('\n')
                .map_or(self.text.len(), |i| self.pos + i),
            false => self.text.len(),
        }
    }

    /// Where the line after this one starts.
    #[inline]
    fn next_line(&self) -> usize {
        match self.text.as_bytes().get(self.pos) {
            Some(b'\n') => self.pos + 1,
            None => self.pos,
            Some(_) => (self.newline() + 1).min(self.text.len()),
        }
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        let mut i = self.pos;
        while let Some(&b) = bytes.get(i) {
            if !b.is_ascii_whitespace() {
                break;
            }
            if b == b'\n' && self.newline_ends {
                self.pos = i;
                return None;
            }
            i += 1;
        }
        if i == bytes.len() {
            self.pos = i;
            return None;
        }
        let start = i;
        while bytes.get(i).is_some_and(|b| !b.is_ascii_whitespace()) {
            i += 1;
        }
        self.pos = i;
        Some(&self.text[start..i])
    }
}

/// A line [`scan`] could not parse: why, and the line as `str::lines`
/// gives it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineError<'a> {
    /// What is wrong with the line.
    pub error: ParseError,
    /// The line.
    pub line: &'a str,
}

impl fmt::Display for LineError<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.error, quote(self.line))
    }
}

/// The one text reader: parses every record of `text` in one forward
/// pass and calls `each(line_start, record)` for each, in order. It
/// stops at the first line that is neither a record nor blank.
///
/// A line of separators only is skipped before any parse. A line that
/// fails to parse is skipped when `str::trim` leaves nothing of it: that
/// is a line of vertical tabs or non-ASCII spaces, which no field parser
/// accepts, so the scan skips exactly the lines `str::trim` calls blank.
pub fn scan<'a, R: Record>(
    text: &'a str,
    mut each: impl FnMut(usize, R),
) -> Result<(), LineError<'a>> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    while pos < bytes.len() {
        let start = pos;
        while bytes
            .get(pos)
            .is_some_and(|&b| b != b'\n' && b.is_ascii_whitespace())
        {
            pos += 1;
        }
        match bytes.get(pos) {
            None => break,
            Some(b'\n') => {
                pos += 1;
                continue;
            }
            Some(_) => {}
        }
        let mut fields = Fields {
            text,
            start,
            pos,
            newline_ends: true,
        };
        match R::from_fields(&mut fields) {
            Ok(record) => each(start, record),
            Err(error) => {
                let line = fields.line();
                if !line.trim().is_empty() {
                    return Err(LineError { error, line });
                }
            }
        }
        pos = fields.next_line();
    }
    Ok(())
}

/// [`scan`] into a `Vec` sized by [`line_count`].
pub fn scan_all<R: Record>(text: &str) -> Result<Vec<R>, LineError<'_>> {
    let mut out = Vec::with_capacity(line_count(text));
    scan(text, |_, record| out.push(record))?;
    Ok(out)
}

/// How many `'\n'` bytes `text` holds: the number of records of
/// canonical text, counted in a pass that compares bytes and does
/// nothing else, so a reader can size its vectors once.
pub fn line_count(text: &str) -> usize {
    // 255 bytes at a time into a `u8`, which the compiler vectorizes; a
    // `usize` count per byte runs several times slower.
    text.as_bytes()
        .chunks(255)
        .map(|chunk| usize::from(chunk.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>()))
        .sum()
}

impl Record for Point {
    fn mbr(&self) -> Rect {
        self.to_rect()
    }

    fn write_line(&self, out: &mut String) {
        write_f64(out, self.x);
        write_spaced(out, &[self.y]);
    }

    #[inline]
    fn from_fields(f: &mut Fields<'_>) -> Result<Self, ParseError> {
        let x = f.number(format_args!("x"))?;
        let y = f.number(format_args!("y"))?;
        f.end("point")?;
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
        write_f64(out, self.x1);
        write_spaced(out, &[self.y1, self.x2, self.y2]);
    }

    #[inline]
    fn from_fields(f: &mut Fields<'_>) -> Result<Self, ParseError> {
        let x1 = f.number(format_args!("x1"))?;
        let y1 = f.number(format_args!("y1"))?;
        let x2 = f.number(format_args!("x2"))?;
        let y2 = f.number(format_args!("y2"))?;
        f.end("rect")?;
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
        out.push('S');
        write_spaced(out, &[self.a.x, self.a.y, self.b.x, self.b.y]);
    }

    fn from_fields(f: &mut Fields<'_>) -> Result<Self, ParseError> {
        if f.next() != Some("S") {
            return Err(ParseError::new(format!(
                "expected 'S' tag: {}",
                quote(f.line())
            )));
        }
        let ax = f.number(format_args!("ax"))?;
        let ay = f.number(format_args!("ay"))?;
        let bx = f.number(format_args!("bx"))?;
        let by = f.number(format_args!("by"))?;
        f.end("segment")?;
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
            write_spaced(out, &[v.x, v.y]);
        }
    }

    fn from_fields(f: &mut Fields<'_>) -> Result<Self, ParseError> {
        if f.next() != Some("P") {
            return Err(ParseError::new(format!(
                "expected 'P' tag: {}",
                quote(f.line())
            )));
        }
        let count = f.number(format_args!("vertex count"))?;
        check_vertex_count(count)?;
        // A vertex takes at least four bytes of the line (" x y"): the
        // capacity is what the line can hold, whatever count it states.
        let n = count as usize;
        let mut vs = Vec::with_capacity(n.min(f.rest().len() / 4));
        for i in 0..n {
            let x = f.number(format_args!("vertex {i} x"))?;
            let y = f.number(format_args!("vertex {i} y"))?;
            vs.push(Point::new(x, y));
        }
        f.end("polygon")?;
        Ok(Polygon::new(vs))
    }
}

/// A polygon's stated vertex count must be a whole number of at least 3.
fn check_vertex_count(count: f64) -> Result<(), ParseError> {
    if count.fract() != 0.0 {
        return Err(ParseError::new(format!("fractional vertex count: {count}")));
    }
    if count < 3.0 {
        return Err(ParseError::new(format!("polygon with {count} vertices")));
    }
    Ok(())
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

/// Splits a tagged line at its first whitespace character and parses
/// the id; the rest is the wrapped record's line.
fn split_tag(line: &str) -> Result<(u64, &str), ParseError> {
    let (id_tok, rest) = line
        .split_once(char::is_whitespace)
        .ok_or_else(|| ParseError::new(format!("tagged record without id: {}", quote(line))))?;
    let id: u64 = id_tok
        .parse()
        .map_err(|_| ParseError::new(format!("bad record id {}", quote(id_tok))))?;
    Ok((id, rest))
}

impl<R: Record> Record for Tagged<R> {
    fn mbr(&self) -> Rect {
        self.record.mbr()
    }

    fn write_line(&self, out: &mut String) {
        let _ = write!(out, "{} ", self.id);
        self.record.write_line(out);
    }

    // The id ends at the first `char::is_whitespace`, not at a field
    // separator, so the tag is cut from the whole line.
    fn from_fields(f: &mut Fields<'_>) -> Result<Self, ParseError> {
        let (id, rest) = split_tag(f.take_line())?;
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
    scan_all(text).map_err(|e| e.error)
}

/// The tokenizing reader [`scan`] replaced, kept as its oracle: lines
/// from `str::lines`, the `str::trim` blank test, then
/// `split_ascii_whitespace` per line, with the same rules and messages.
#[cfg(test)]
mod oracle {
    use super::*;

    pub trait Tokenized: Record {
        fn tokenized(line: &str) -> Result<Self, ParseError>;
    }

    fn trailing(kind: &str, line: &str) -> ParseError {
        ParseError::new(format!("trailing fields in {kind}: {}", quote(line)))
    }

    fn tagged(tag: &str, line: &str) -> ParseError {
        ParseError::new(format!("expected '{tag}' tag: {}", quote(line)))
    }

    impl Tokenized for Point {
        fn tokenized(line: &str) -> Result<Self, ParseError> {
            let mut it = line.split_ascii_whitespace();
            let x = parse_f64(it.next(), format_args!("x"))?;
            let y = parse_f64(it.next(), format_args!("y"))?;
            if it.next().is_some() {
                return Err(trailing("point", line));
            }
            Ok(Point::new(x, y))
        }
    }

    impl Tokenized for Rect {
        fn tokenized(line: &str) -> Result<Self, ParseError> {
            let mut it = line.split_ascii_whitespace();
            let x1 = parse_f64(it.next(), format_args!("x1"))?;
            let y1 = parse_f64(it.next(), format_args!("y1"))?;
            let x2 = parse_f64(it.next(), format_args!("x2"))?;
            let y2 = parse_f64(it.next(), format_args!("y2"))?;
            if it.next().is_some() {
                return Err(trailing("rect", line));
            }
            Ok(Rect::new(x1, y1, x2, y2))
        }
    }

    impl Tokenized for Segment {
        fn tokenized(line: &str) -> Result<Self, ParseError> {
            let mut it = line.split_ascii_whitespace();
            if it.next() != Some("S") {
                return Err(tagged("S", line));
            }
            let ax = parse_f64(it.next(), format_args!("ax"))?;
            let ay = parse_f64(it.next(), format_args!("ay"))?;
            let bx = parse_f64(it.next(), format_args!("bx"))?;
            let by = parse_f64(it.next(), format_args!("by"))?;
            if it.next().is_some() {
                return Err(trailing("segment", line));
            }
            Ok(Segment::new(Point::new(ax, ay), Point::new(bx, by)))
        }
    }

    impl Tokenized for Polygon {
        fn tokenized(line: &str) -> Result<Self, ParseError> {
            let mut it = line.split_ascii_whitespace();
            if it.next() != Some("P") {
                return Err(tagged("P", line));
            }
            let count = parse_f64(it.next(), format_args!("vertex count"))?;
            check_vertex_count(count)?;
            let mut vs = Vec::new();
            for i in 0..count as usize {
                let x = parse_f64(it.next(), format_args!("vertex {i} x"))?;
                let y = parse_f64(it.next(), format_args!("vertex {i} y"))?;
                vs.push(Point::new(x, y));
            }
            if it.next().is_some() {
                return Err(trailing("polygon", line));
            }
            Ok(Polygon::new(vs))
        }
    }

    impl<R: Tokenized> Tokenized for Tagged<R> {
        fn tokenized(line: &str) -> Result<Self, ParseError> {
            let (id, rest) = split_tag(line)?;
            Ok(Tagged {
                id,
                record: R::tokenized(rest)?,
            })
        }
    }

    /// Every record of `text` with its line's start, or the first bad
    /// line.
    pub fn read<R: Tokenized>(text: &str) -> Result<Vec<(usize, R)>, LineError<'_>> {
        let mut out = Vec::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let start = line.as_ptr() as usize - text.as_ptr() as usize;
            let record = R::tokenized(line).map_err(|error| LineError { error, line })?;
            out.push((start, record));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{read, Tokenized};
    use super::*;
    use sh_rand::Rng;

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

    fn message<R: Record + fmt::Debug>(line: &str) -> String {
        R::parse_line(line).unwrap_err().message
    }

    #[test]
    fn a_polygon_count_must_be_whole_and_cannot_size_the_allocation() {
        // Each of these once aborted the process, panicked on a capacity
        // overflow, or truncated the count to 3.
        assert_eq!(
            message::<Polygon>("P 1e17 0 0 1 1 2 0"),
            "missing field: vertex 3 x"
        );
        assert_eq!(
            message::<Polygon>("P 1e18 0 0 1 1 2 0"),
            "missing field: vertex 3 x"
        );
        assert_eq!(
            message::<Polygon>("P 1e300 0 0 1 1 2 0"),
            "missing field: vertex 3 x"
        );
        assert_eq!(
            message::<Polygon>("P 3.7 0 0 1 1 2 0"),
            "fractional vertex count: 3.7"
        );
        assert_eq!(message::<Polygon>("P -3 0 0"), "polygon with -3 vertices");
        // A whole count spelled as a float is still a count.
        assert_eq!(
            Polygon::parse_line("P 3.0 0 0 1 1 2 0").unwrap(),
            Polygon::parse_line("P 3 0 0 1 1 2 0").unwrap()
        );
    }

    #[test]
    fn segments_and_polygons_reject_trailing_fields_as_points_and_rects_do() {
        assert_eq!(
            message::<Segment>("S 0 0 1 1 9"),
            "trailing fields in segment: \"S 0 0 1 1 9\""
        );
        assert_eq!(
            message::<Polygon>("P 3 0 0 1 1 2 0 9"),
            "trailing fields in polygon: \"P 3 0 0 1 1 2 0 9\""
        );
        assert_eq!(
            message::<Point>("1 2 3"),
            "trailing fields in point: \"1 2 3\""
        );
        assert_eq!(
            message::<Rect>("1 2 3 4 5"),
            "trailing fields in rect: \"1 2 3 4 5\""
        );
    }

    #[test]
    fn scan_reports_the_line_and_skips_every_kind_of_blank() {
        let text = "1 2\r\n\n \t\r\n\u{b}\n\u{a0}\u{2003}\n\x0c\n3 4";
        let mut got = Vec::new();
        scan::<Point>(text, |start, p| got.push((start, p))).unwrap();
        assert_eq!(
            got,
            [
                (0, Point::new(1.0, 2.0)),
                (text.len() - 3, Point::new(3.0, 4.0))
            ]
        );
        assert_eq!(line_end(text.as_bytes(), 0), 3);
        assert_eq!(line_end(text.as_bytes(), text.len() - 3), text.len());

        let err = scan_all::<Point>("1 2\n\n3 4 5\r\n6 7\n").unwrap_err();
        assert_eq!(err.line, "3 4 5");
        assert_eq!(
            err.to_string(),
            "record parse error: trailing fields in point: \"3 4 5\": \"3 4 5\""
        );
        // A bare '\r' at the very end stays, as `str::lines` keeps it.
        let err = scan_all::<Point>("1 2\n3 x\r").unwrap_err();
        assert_eq!(err.line, "3 x\r");
    }

    // ------------------------------------------------ scanner vs oracle

    /// One random token: canonical numbers, spellings `f64::from_str`
    /// takes and refuses, tags, ids, non-ASCII, and 600-digit numbers.
    fn token(rng: &mut Rng) -> String {
        const MENU: [&str; 30] = [
            "1e2",
            "-0",
            "+1.5",
            ".5",
            "5.",
            "inf",
            "-inf",
            "nan",
            "NaN",
            "infinity",
            "1e400",
            "1e-400",
            "0x10",
            "1_000",
            "abc",
            "S",
            "P",
            "3",
            "3.7",
            "1e17",
            "-3",
            "4",
            "é",
            "\u{a0}1",
            "1\u{a0}",
            "1,5",
            "--1",
            "",
            "42",
            "18446744073709551616",
        ];
        match rng.below(6) {
            0 => format!("{}", rng.uniform(-1e6..1e6)),
            1 => rng.below(10).to_string(),
            2 => {
                let digits: String = (0..600)
                    .map(|_| char::from(b'0' + rng.below(10) as u8))
                    .collect();
                match rng.below(3) {
                    0 => digits,
                    1 => format!("0.{digits}"),
                    _ => format!("{digits}e-590"),
                }
            }
            _ => MENU[rng.below(MENU.len())].to_string(),
        }
    }

    fn separator(rng: &mut Rng) -> &'static str {
        const SEPS: [&str; 8] = [" ", " ", " ", "  ", "\t", "\x0c", "\r", "\u{a0}"];
        SEPS[rng.below(SEPS.len())]
    }

    /// A canonical line, mostly of type `kind` (the order of the five
    /// types in [`agree`]'s callers) and otherwise of another type, possibly
    /// corrupted; or a line of random tokens; or a blank of some kind.
    fn line(rng: &mut Rng, kind: usize) -> String {
        let r = |rng: &mut Rng| rng.uniform(-1e3..1e3);
        let kind = if rng.below(4) == 0 {
            rng.below(5)
        } else {
            kind
        };
        let canonical = match kind {
            0 => Point::new(r(rng), r(rng)).to_line(),
            1 => Rect::new(r(rng), r(rng), r(rng), r(rng)).to_line(),
            2 => Segment::new(Point::new(r(rng), r(rng)), Point::new(r(rng), r(rng))).to_line(),
            3 => {
                let n = 3 + rng.below(4);
                Polygon::new((0..n).map(|_| Point::new(r(rng), r(rng))).collect()).to_line()
            }
            _ => Tagged::new(rng.below(1000) as u64, Point::new(r(rng), r(rng))).to_line(),
        };
        match rng.below(8) {
            0..=2 => canonical,
            3..=4 => {
                // Corrupt it: cut it, or replace, insert or delete a char.
                let mut chars: Vec<char> = canonical.chars().collect();
                let at = rng.below(chars.len() + 1);
                let junk = ['x', ' ', '\t', '.', '-', 'e', '\u{a0}', '\u{b}', '9', '|'];
                match rng.below(4) {
                    0 => chars.truncate(at),
                    1 if at < chars.len() => chars[at] = junk[rng.below(junk.len())],
                    2 => chars.insert(at, junk[rng.below(junk.len())]),
                    _ if at < chars.len() => {
                        chars.remove(at);
                    }
                    _ => {}
                }
                chars.into_iter().collect()
            }
            5..=6 => {
                let mut s = String::new();
                if rng.below(4) == 0 {
                    s.push_str(separator(rng));
                }
                for i in 0..rng.below(7) {
                    if i > 0 {
                        s.push_str(separator(rng));
                    }
                    s.push_str(&token(rng));
                }
                s
            }
            _ => [
                "", " ", "\t", "\r", " \t ", "\u{b}", "\u{a0}", "\u{2003}", "\x0c", "\u{85}",
            ][rng.below(10)]
            .to_string(),
        }
    }

    fn text(rng: &mut Rng, kind: usize) -> String {
        let mut s = String::new();
        for _ in 0..rng.below(8) {
            s.push_str(&line(rng, kind));
            s.push_str(["\n", "\n", "\n", "\r\n", "\r\r\n"][rng.below(5)]);
        }
        if rng.below(2) == 0 {
            s.push_str(&line(rng, kind));
            if rng.below(3) == 0 {
                s.push('\r');
            }
        }
        s
    }

    /// The scanner and the oracle agree on `text`: the same records at
    /// the same line starts, or the same error on the same line. So do
    /// `parse_line` and the oracle on every line, and on the whole text
    /// as one line.
    fn agree<R: Tokenized + PartialEq + fmt::Debug>(text: &str) {
        let mut scanned = Vec::new();
        let scanned = scan::<R>(text, |start, r| scanned.push((start, r))).map(|()| scanned);
        assert_eq!(scanned, read::<R>(text), "{text:?}");
        for line in text.lines().chain([text]) {
            assert_eq!(R::parse_line(line), R::tokenized(line), "{line:?}");
        }
    }

    sh_rand::properties! {
        fn scanner_matches_the_tokenizing_oracle(rng, 512) {
            agree::<Point>(&text(rng, 0));
            agree::<Rect>(&text(rng, 1));
            agree::<Segment>(&text(rng, 2));
            agree::<Polygon>(&text(rng, 3));
            agree::<Tagged<Point>>(&text(rng, 4));
        }
    }

    // ------------------------------------------------ writer vs `{}`

    /// [`write_f64`] appends what `{}` formats `v` as, byte for byte,
    /// and a finite `v` reads back to the same bits.
    fn writes_as_display(v: f64) {
        let mut got = String::from("|");
        write_f64(&mut got, v);
        assert_eq!(got[1..], format!("{v}"), "bits {:#018x}", v.to_bits());
        if !v.is_nan() {
            assert_eq!(got[1..].parse::<f64>().unwrap().to_bits(), v.to_bits());
        }
    }

    sh_rand::properties! {
        fn writer_matches_display(rng, 200_000) {
            let v = match rng.below(4) {
                0 => f64::from_bits(rng.next_u64()),
                // The workloads' default universe.
                1 => rng.uniform(0.0..1e6),
                2 => (rng.next_u64() >> rng.below(64)) as f64 / 10f64.powi(rng.below(24) as i32),
                // A biased exponent with e2 in -102..=2: the exact path's
                // range and three binades past each end.
                _ => {
                    let biased = (1077 - 102 + rng.below(105)) as u64;
                    f64::from_bits(rng.next_u64() & (1 << 63 | ((1 << 52) - 1)) | biased << 52)
                }
            };
            writes_as_display(v);
        }
    }

    #[test]
    fn writer_matches_display_on_directed_values() {
        // The first and last value of every binade from 2^-60 to 2^60,
        // where the lower half of the interval is narrower, and of every
        // decade in reach, with their neighbours.
        let binades = (-60..=60).flat_map(|k| {
            let first = 2f64.powi(k).to_bits();
            [first, 2f64.powi(k + 1).to_bits() - 1]
        });
        let decades = (-16..=18).map(|k| format!("1e{k}").parse::<f64>().unwrap().to_bits());
        for bits in binades.chain(decades) {
            for b in bits - 4..=bits + 4 {
                writes_as_display(f64::from_bits(b));
                writes_as_display(-f64::from_bits(b));
            }
        }
        // An exact tie: `{}` rounds it up, Ryū alone would round to even.
        let tie: f64 = "1003886302073972.25".parse().unwrap();
        assert_eq!(tie.fract(), 0.25);
        let mut line = String::new();
        write_f64(&mut line, tie);
        assert_eq!(line, "1003886302073972.3");
        let subnormal = f64::from_bits(0x000f_0000_0000_0001);
        for v in [
            tie,
            9007199254740991.0,
            0.1,
            1e-5,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            subnormal,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            writes_as_display(v);
        }
        let point = Point::new(-0.0, 1.5).to_line();
        assert_eq!(point, "-0 1.5");
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
