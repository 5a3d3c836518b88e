//! The text of job output: the separator of a join pair row and the
//! driver-side readers that parse output rows back into records, mapping
//! a bad row to [`OpError::Corrupt`] instead of panicking.

use sh_geom::Record;
use sh_mapreduce::Rows;

use crate::opresult::OpError;

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
            let (a, b) = row.split_once(PAIR_SEPARATOR).ok_or_else(|| {
                OpError::Corrupt(format!("bad join pair row: {}", sh_geom::text::quote(row)))
            })?;
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
    use sh_geom::{Point, Rect};

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
