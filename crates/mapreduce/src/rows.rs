//! A result set as one immutable, shared text buffer.

use std::sync::Arc;

/// Result rows, each terminated by `'\n'`, in one shared buffer. This is
/// the form a job's final output has as its tasks write it, so it
/// travels from the job to whoever consumes the answer (a Pigeon
/// binding, a `DUMP`, the server's frame writer) without being cut into
/// one `String` per row; cloning copies a pointer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Rows {
    text: Arc<str>,
    count: usize,
}

impl Rows {
    /// Takes text whose rows end in `'\n'`; an unterminated last row
    /// gets its newline.
    pub fn from_text(mut text: String) -> Rows {
        if !text.is_empty() && !text.ends_with('\n') {
            text.push('\n');
        }
        let count = text.bytes().filter(|&b| b == b'\n').count();
        Rows {
            text: Arc::from(text),
            count,
        }
    }

    /// Builds a small result set from separate lines (none of which may
    /// contain a newline).
    pub fn from_lines<S: AsRef<str>>(lines: impl IntoIterator<Item = S>) -> Rows {
        let mut text = String::new();
        for line in lines {
            text.push_str(line.as_ref());
            text.push('\n');
        }
        Rows::from_text(text)
    }

    /// The whole buffer: every row followed by its newline.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The rows, without their newlines.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.text.split_terminator('\n')
    }

    /// The text of the first `n` rows (all of it when `n >= len()`).
    pub fn head(&self, n: usize) -> &str {
        let end = match n {
            0 => 0,
            _ => self
                .text
                .match_indices('\n')
                .nth(n - 1)
                .map_or(self.text.len(), |(i, _)| i + 1),
        };
        &self.text[..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_lines_round_trips_including_empty_lines() {
        for v in [
            vec![],
            vec![""],
            vec!["a"],
            vec!["", "a", "", "b c", ""],
            vec!["1 2", "3 4"],
        ] {
            let rows = Rows::from_lines(&v);
            assert!(rows.lines().eq(v.iter().copied()), "{v:?}");
            assert_eq!(rows.len(), v.len());
            assert_eq!(rows.is_empty(), v.is_empty());
        }
    }

    #[test]
    fn from_text_terminates_the_last_row() {
        let rows = Rows::from_text("a\nb".to_string());
        assert_eq!(rows.text(), "a\nb\n");
        assert_eq!(rows.len(), 2);
        assert_eq!(Rows::from_text(String::new()), Rows::default());
    }

    #[test]
    fn head_cuts_at_the_nth_newline() {
        let rows = Rows::from_lines(["a", "", "ccc"]);
        assert_eq!(rows.head(0), "");
        assert_eq!(rows.head(1), "a\n");
        assert_eq!(rows.head(2), "a\n\n");
        assert_eq!(rows.head(3), "a\n\nccc\n");
        assert_eq!(rows.head(9), "a\n\nccc\n");
    }
}
