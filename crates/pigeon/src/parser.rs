//! Recursive-descent parser for Pigeon.

use sh_core::storage::BlockFormat;
use sh_geom::{Point, Rect};
use sh_index::PartitionKind;

use crate::ast::{RecordType, Script, ScrubTarget, Stmt};
use crate::exec::PigeonError;
use crate::lexer::{tokenize, Token, TokenKind};

/// How many prefixes (`PROFILE`, `SUBMIT`, `EXPLAIN ANALYZE`) one
/// statement may carry. Deeper nesting is refused, so a long line of
/// prefixes cannot exhaust the stack of the thread parsing it.
const MAX_PREFIXES: usize = 8;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Prefixes wrapping the statement being parsed.
    prefixes: usize,
}

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn err(&self, msg: impl Into<String>) -> PigeonError {
        PigeonError::Parse {
            message: msg.into(),
            line: self.line(),
        }
    }

    fn next(&mut self) -> Result<TokenKind, PigeonError> {
        let t = self
            .tokens
            .get(self.pos)
            .map(|t| t.kind.clone())
            .ok_or_else(|| self.err("unexpected end of script"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), PigeonError> {
        let t = self.next()?;
        if &t == kind {
            Ok(())
        } else {
            Err(self.err(format!("expected {kind}, found {t}")))
        }
    }

    /// Consumes a case-insensitive keyword.
    fn keyword(&mut self, kw: &str) -> Result<(), PigeonError> {
        match self.next()? {
            TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(self.err(format!("expected {kw}, found {other}"))),
        }
    }

    fn ident(&mut self) -> Result<String, PigeonError> {
        match self.next()? {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn string(&mut self) -> Result<String, PigeonError> {
        match self.next()? {
            TokenKind::Str(s) => Ok(s),
            other => Err(self.err(format!("expected string literal, found {other}"))),
        }
    }

    fn number(&mut self) -> Result<f64, PigeonError> {
        match self.next()? {
            TokenKind::Num(n) => Ok(n),
            other => Err(self.err(format!("expected number, found {other}"))),
        }
    }

    /// `RECTANGLE(x1, y1, x2, y2)`
    fn rectangle(&mut self) -> Result<Rect, PigeonError> {
        self.keyword("RECTANGLE")?;
        self.expect(&TokenKind::LParen)?;
        let x1 = self.number()?;
        self.expect(&TokenKind::Comma)?;
        let y1 = self.number()?;
        self.expect(&TokenKind::Comma)?;
        let x2 = self.number()?;
        self.expect(&TokenKind::Comma)?;
        let y2 = self.number()?;
        self.expect(&TokenKind::RParen)?;
        Ok(Rect::new(x1, y1, x2, y2))
    }

    /// `POINT(x, y)`
    fn point(&mut self) -> Result<Point, PigeonError> {
        self.keyword("POINT")?;
        self.expect(&TokenKind::LParen)?;
        let x = self.number()?;
        self.expect(&TokenKind::Comma)?;
        let y = self.number()?;
        self.expect(&TokenKind::RParen)?;
        Ok(Point::new(x, y))
    }

    /// The statement a prefix wraps; it consumes its own semicolon.
    fn wrapped(&mut self) -> Result<Box<Stmt>, PigeonError> {
        if self.prefixes == MAX_PREFIXES {
            return Err(self.err(format!("more than {MAX_PREFIXES} nested prefixes")));
        }
        self.prefixes += 1;
        let stmt = self.statement();
        self.prefixes -= 1;
        Ok(Box::new(stmt?))
    }

    fn statement(&mut self) -> Result<Stmt, PigeonError> {
        let first = self.ident()?;
        // Non-assignment statements.
        if first.eq_ignore_ascii_case("PROFILE") {
            return Ok(Stmt::Profile(self.wrapped()?));
        }
        if first.eq_ignore_ascii_case("SUBMIT") {
            return Ok(Stmt::Submit(self.wrapped()?));
        }
        if first.eq_ignore_ascii_case("EXPLAIN") {
            self.keyword("ANALYZE")?;
            return Ok(Stmt::ExplainAnalyze(self.wrapped()?));
        }
        if first.eq_ignore_ascii_case("STATS") {
            self.expect(&TokenKind::Semicolon)?;
            return Ok(Stmt::Stats);
        }
        if first.eq_ignore_ascii_case("EVENTS") {
            let n = match self.peek() {
                Some(TokenKind::Num(_)) => {
                    let n = self.number()?;
                    if n.fract() != 0.0 || n < 0.0 {
                        return Err(self.err(format!("EVENTS expects a count, found {n}")));
                    }
                    Some(n as usize)
                }
                _ => None,
            };
            let filter = match self.peek() {
                Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case("FILTER") => {
                    self.next()?;
                    Some(match self.next()? {
                        TokenKind::Ident(s) => s,
                        TokenKind::Str(s) => s,
                        other => {
                            return Err(self.err(format!("expected an event kind, found {other}")))
                        }
                    })
                }
                _ => None,
            };
            self.expect(&TokenKind::Semicolon)?;
            return Ok(Stmt::Events { n, filter });
        }
        if first.eq_ignore_ascii_case("JOBS") {
            self.expect(&TokenKind::Semicolon)?;
            return Ok(Stmt::Jobs);
        }
        if first.eq_ignore_ascii_case("SCRUB") {
            let target = match self.peek() {
                Some(TokenKind::Str(_)) => Some(ScrubTarget::Path(self.string()?)),
                Some(TokenKind::Ident(_)) => Some(ScrubTarget::Var(self.ident()?)),
                _ => None,
            };
            self.expect(&TokenKind::Semicolon)?;
            return Ok(Stmt::Scrub { target });
        }
        if first.eq_ignore_ascii_case("WAIT") {
            let n = self.number()?;
            if n.fract() != 0.0 || n < 0.0 {
                return Err(self.err(format!("WAIT expects a job id, found {n}")));
            }
            self.expect(&TokenKind::Semicolon)?;
            return Ok(Stmt::Wait { id: n as u64 });
        }
        if first.eq_ignore_ascii_case("SET") {
            let key = self.ident()?;
            let value = match self.next()? {
                TokenKind::Num(n) if n.fract() == 0.0 => (n as i64).to_string(),
                TokenKind::Num(n) => n.to_string(),
                TokenKind::Str(s) => s,
                TokenKind::Ident(s) => s,
                other => return Err(self.err(format!("expected a SET value, found {other}"))),
            };
            self.expect(&TokenKind::Semicolon)?;
            return Ok(Stmt::Set { key, value });
        }
        if first.eq_ignore_ascii_case("DUMP") {
            let src = self.ident()?;
            self.expect(&TokenKind::Semicolon)?;
            return Ok(Stmt::Dump { src });
        }
        if first.eq_ignore_ascii_case("DESCRIBE") {
            let src = self.ident()?;
            self.expect(&TokenKind::Semicolon)?;
            return Ok(Stmt::Describe { src });
        }
        if first.eq_ignore_ascii_case("PLOTPYRAMID") {
            let src = self.ident()?;
            self.keyword("LEVELS")?;
            let levels = self.number()? as usize;
            self.keyword("TILE")?;
            let tile_px = self.number()? as usize;
            self.keyword("INTO")?;
            let path = self.string()?;
            self.expect(&TokenKind::Semicolon)?;
            return Ok(Stmt::PlotPyramid {
                src,
                levels,
                tile_px,
                path,
            });
        }
        if first.eq_ignore_ascii_case("PLOT") {
            let src = self.ident()?;
            self.keyword("WIDTH")?;
            let width = self.number()? as usize;
            self.keyword("HEIGHT")?;
            let height = self.number()? as usize;
            self.keyword("INTO")?;
            let path = self.string()?;
            self.expect(&TokenKind::Semicolon)?;
            return Ok(Stmt::Plot {
                src,
                width,
                height,
                path,
            });
        }
        if first.eq_ignore_ascii_case("STORE") {
            let src = self.ident()?;
            self.keyword("INTO")?;
            let path = self.string()?;
            self.expect(&TokenKind::Semicolon)?;
            return Ok(Stmt::Store { src, path });
        }
        // Assignments: `var = VERB ...;`
        let var = first;
        self.expect(&TokenKind::Equals)?;
        let verb = self.ident()?;
        let stmt = match verb.to_ascii_uppercase().as_str() {
            "LOAD" => {
                let path = self.string()?;
                self.keyword("AS")?;
                let tname = self.ident()?;
                let rtype = RecordType::parse(&tname)
                    .ok_or_else(|| self.err(format!("unknown record type {tname}")))?;
                Stmt::Load { var, path, rtype }
            }
            "INDEX" => {
                let src = self.ident()?;
                self.keyword("AS")?;
                let kname = self.ident()?;
                let kind = PartitionKind::parse(&kname)
                    .ok_or_else(|| self.err(format!("unknown index technique {kname}")))?;
                self.keyword("INTO")?;
                let path = self.string()?;
                // Optional layout clause: `FORMAT text|binary`.
                let mut format = BlockFormat::Text;
                if matches!(self.peek(), Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case("FORMAT"))
                {
                    self.keyword("FORMAT")?;
                    let fname = self.ident()?;
                    format = match fname.to_ascii_lowercase().as_str() {
                        "text" => BlockFormat::Text,
                        "binary" => BlockFormat::Binary,
                        _ => return Err(self.err(format!("unknown block format {fname}"))),
                    };
                }
                Stmt::Index {
                    var,
                    src,
                    kind,
                    path,
                    format,
                }
            }
            "FILTER" => {
                let src = self.ident()?;
                self.keyword("BY")?;
                self.keyword("Overlaps")?;
                self.expect(&TokenKind::LParen)?;
                let query = self.rectangle()?;
                self.expect(&TokenKind::RParen)?;
                Stmt::RangeFilter { var, src, query }
            }
            "KNN" => {
                let src = self.ident()?;
                let q = self.point()?;
                self.keyword("K")?;
                let k = self.number()? as usize;
                Stmt::Knn { var, src, q, k }
            }
            "JOIN" => {
                let left = self.ident()?;
                self.expect(&TokenKind::Comma)?;
                let right = self.ident()?;
                self.keyword("PREDICATE")?;
                self.keyword("Overlaps")?;
                Stmt::Join { var, left, right }
            }
            "KNNJOIN" => {
                let left = self.ident()?;
                self.expect(&TokenKind::Comma)?;
                let right = self.ident()?;
                self.keyword("K")?;
                let k = self.number()? as usize;
                Stmt::KnnJoin {
                    var,
                    left,
                    right,
                    k,
                }
            }
            "SKYLINE" => Stmt::Skyline {
                var,
                src: self.ident()?,
            },
            "CONVEXHULL" => Stmt::ConvexHull {
                var,
                src: self.ident()?,
            },
            "CLOSESTPAIR" => Stmt::ClosestPair {
                var,
                src: self.ident()?,
            },
            "FARTHESTPAIR" => Stmt::FarthestPair {
                var,
                src: self.ident()?,
            },
            "UNION" => Stmt::Union {
                var,
                src: self.ident()?,
            },
            "VORONOI" => Stmt::Voronoi {
                var,
                src: self.ident()?,
            },
            "DELAUNAY" => Stmt::Delaunay {
                var,
                src: self.ident()?,
            },
            "IMPORT" => {
                let host_path = self.string()?;
                self.keyword("AS")?;
                let tname = self.ident()?;
                let rtype = RecordType::parse(&tname)
                    .ok_or_else(|| self.err(format!("unknown record type {tname}")))?;
                self.keyword("INTO")?;
                let path = self.string()?;
                Stmt::Import {
                    var,
                    host_path,
                    rtype,
                    path,
                }
            }
            "GENERATE" => {
                let n = self.number()? as usize;
                let tname = self.ident()?;
                let rtype = RecordType::parse(&tname)
                    .ok_or_else(|| self.err(format!("unknown record type {tname}")))?;
                let distribution = self.ident()?.to_ascii_lowercase();
                self.keyword("INTO")?;
                let path = self.string()?;
                Stmt::Generate {
                    var,
                    n,
                    rtype,
                    distribution,
                    path,
                }
            }
            other => return Err(self.err(format!("unknown operation {other}"))),
        };
        self.expect(&TokenKind::Semicolon)?;
        Ok(stmt)
    }
}

/// Parses a full script.
pub fn parse(source: &str) -> Result<Script, PigeonError> {
    let tokens = tokenize(source).map_err(|e| PigeonError::Parse {
        message: e.message,
        line: e.line,
    })?;
    let mut p = Parser {
        tokens,
        pos: 0,
        prefixes: 0,
    };
    let mut stmts = Vec::new();
    while p.peek().is_some() {
        stmts.push(p.statement()?);
    }
    Ok(Script { stmts })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_script_parses() {
        let script = parse(
            "pts = LOAD '/data/p' AS POINT;\n\
             idx = INDEX pts AS STR+ INTO '/idx/p';\n\
             sel = FILTER idx BY Overlaps(RECTANGLE(0, 0, 10, 10));\n\
             nn  = KNN idx POINT(5, 5) K 3;\n\
             j   = JOIN idx, idx PREDICATE Overlaps;\n\
             s   = SKYLINE idx;\n\
             DUMP s;\n\
             STORE nn INTO '/out/nn';",
        )
        .unwrap();
        assert_eq!(script.stmts.len(), 8);
        assert!(matches!(script.stmts[0], Stmt::Load { .. }));
        assert!(matches!(
            script.stmts[1],
            Stmt::Index {
                kind: PartitionKind::StrPlus,
                ..
            }
        ));
        assert!(matches!(script.stmts[3], Stmt::Knn { k: 3, .. }));
        assert!(matches!(script.stmts.last(), Some(Stmt::Store { .. })));
    }

    #[test]
    fn index_format_clause() {
        // No clause → text.
        let s = parse("i = INDEX p AS grid INTO '/idx';").unwrap();
        assert!(matches!(
            s.stmts[0],
            Stmt::Index {
                format: BlockFormat::Text,
                ..
            }
        ));
        let s = parse("i = INDEX p AS str+ INTO '/idx' FORMAT binary;").unwrap();
        assert!(matches!(
            s.stmts[0],
            Stmt::Index {
                format: BlockFormat::Binary,
                ..
            }
        ));
        let s = parse("i = INDEX p AS grid INTO '/idx' FORMAT TEXT;").unwrap();
        assert!(matches!(
            s.stmts[0],
            Stmt::Index {
                format: BlockFormat::Text,
                ..
            }
        ));
        assert!(parse("i = INDEX p AS grid INTO '/idx' FORMAT parquet;").is_err());
    }

    #[test]
    fn generate_and_delaunay_parse() {
        let s = parse(
            "d = GENERATE 5000 POINT uniform INTO '/gen/p';\n\
             i = INDEX d AS grid INTO '/gen/idx';\n\
             t = DELAUNAY i;\n\
             DUMP t;",
        )
        .unwrap();
        assert_eq!(s.stmts.len(), 4);
        assert!(matches!(
            s.stmts[0],
            Stmt::Generate {
                n: 5000,
                rtype: RecordType::Point,
                ..
            }
        ));
        assert!(matches!(s.stmts[2], Stmt::Delaunay { .. }));
    }

    #[test]
    fn profile_wraps_any_statement() {
        let s = parse(
            "PROFILE r = FILTER i BY Overlaps(RECTANGLE(0, 0, 10, 10));\n\
             profile DUMP r;",
        )
        .unwrap();
        assert_eq!(s.stmts.len(), 2);
        match &s.stmts[0] {
            Stmt::Profile(inner) => assert!(matches!(**inner, Stmt::RangeFilter { .. })),
            other => panic!("unexpected {other:?}"),
        }
        match &s.stmts[1] {
            Stmt::Profile(inner) => assert!(matches!(**inner, Stmt::Dump { .. })),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A 1 MiB request line of `PROFILE` prefixes once recursed until the
    /// parsing thread's stack overflowed, aborting the process.
    #[test]
    fn deeply_prefixed_statement_is_an_error_not_a_stack_overflow() {
        let deep = "PROFILE ".repeat(130_000) + "STATS;";
        match parse(&deep) {
            Err(PigeonError::Parse { message, .. }) => assert!(message.contains("nested")),
            other => panic!("unexpected {other:?}"),
        }
        let eight = "SUBMIT PROFILE EXPLAIN ANALYZE ".repeat(2) + "PROFILE PROFILE STATS;";
        assert_eq!(parse(&eight).unwrap().stmts.len(), 1);
        assert!(parse(&("PROFILE ".to_string() + &eight)).is_err());
    }

    #[test]
    fn set_statements_parse() {
        let s = parse(
            "SET retries 6;\n\
             set speculative true;\n\
             SET fault_plan 'fail:0@0;kill:2';",
        )
        .unwrap();
        assert_eq!(
            s.stmts[0],
            Stmt::Set {
                key: "retries".into(),
                value: "6".into()
            }
        );
        assert_eq!(
            s.stmts[1],
            Stmt::Set {
                key: "speculative".into(),
                value: "true".into()
            }
        );
        assert_eq!(
            s.stmts[2],
            Stmt::Set {
                key: "fault_plan".into(),
                value: "fail:0@0;kill:2".into()
            }
        );
        assert!(parse("SET retries;").is_err());
    }

    #[test]
    fn submit_jobs_wait_parse() {
        let s = parse(
            "SUBMIT r = FILTER i BY Overlaps(RECTANGLE(0, 0, 10, 10));\n\
             submit PROFILE n = KNN i POINT(5, 5) K 3;\n\
             JOBS;\n\
             WAIT 0;\n\
             wait 1;",
        )
        .unwrap();
        assert_eq!(s.stmts.len(), 5);
        match &s.stmts[0] {
            Stmt::Submit(inner) => assert!(matches!(**inner, Stmt::RangeFilter { .. })),
            other => panic!("unexpected {other:?}"),
        }
        match &s.stmts[1] {
            Stmt::Submit(inner) => assert!(matches!(**inner, Stmt::Profile(_))),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.stmts[2], Stmt::Jobs);
        assert_eq!(s.stmts[3], Stmt::Wait { id: 0 });
        assert_eq!(s.stmts[4], Stmt::Wait { id: 1 });
        // WAIT needs a whole non-negative job id and JOBS takes nothing.
        assert!(parse("WAIT 1.5;").is_err());
        assert!(parse("WAIT x;").is_err());
        assert!(parse("JOBS i;").is_err());
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let s = parse("a = load '/x' as point;\ndump a;").unwrap();
        assert_eq!(s.stmts.len(), 2);
    }

    #[test]
    fn error_reports_line() {
        let err = parse("a = LOAD '/x' AS POINT;\nb = FROBNICATE a;").unwrap_err();
        match err {
            PigeonError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parses_scrub() {
        let s = parse("SCRUB;\nSCRUB '/idx/points';\nSCRUB points;").unwrap();
        assert_eq!(s.stmts[0], Stmt::Scrub { target: None });
        assert_eq!(
            s.stmts[1],
            Stmt::Scrub {
                target: Some(ScrubTarget::Path("/idx/points".to_string()))
            }
        );
        assert_eq!(
            s.stmts[2],
            Stmt::Scrub {
                target: Some(ScrubTarget::Var("points".to_string()))
            }
        );
        assert!(parse("SCRUB 5;").is_err());
    }

    #[test]
    fn rejects_malformed_geometry() {
        assert!(parse("a = FILTER x BY Overlaps(RECTANGLE(1, 2, 3));").is_err());
        assert!(parse("a = KNN x POINT(1) K 2;").is_err());
        assert!(parse("a = LOAD '/x' AS TRIANGLE;").is_err());
    }

    #[test]
    fn parses_stats_and_events() {
        let s =
            parse("STATS;\nEVENTS;\nEVENTS 5;\nEVENTS 5 FILTER task;\nEVENTS FILTER 'task.retry';")
                .unwrap();
        assert_eq!(s.stmts[0], Stmt::Stats);
        assert_eq!(
            s.stmts[1],
            Stmt::Events {
                n: None,
                filter: None
            }
        );
        assert_eq!(
            s.stmts[2],
            Stmt::Events {
                n: Some(5),
                filter: None
            }
        );
        assert_eq!(
            s.stmts[3],
            Stmt::Events {
                n: Some(5),
                filter: Some("task".to_string())
            }
        );
        assert_eq!(
            s.stmts[4],
            Stmt::Events {
                n: None,
                filter: Some("task.retry".to_string())
            }
        );
        assert!(parse("EVENTS 1.5;").is_err());
        assert!(parse("EVENTS 5 FILTER;").is_err());
    }

    #[test]
    fn parses_explain_analyze() {
        let s =
            parse("EXPLAIN ANALYZE r = FILTER i BY Overlaps(RECTANGLE(0, 0, 10, 10));").unwrap();
        match &s.stmts[0] {
            Stmt::ExplainAnalyze(inner) => match inner.as_ref() {
                Stmt::RangeFilter { var, .. } => assert_eq!(var, "r"),
                other => panic!("unexpected inner {other:?}"),
            },
            other => panic!("unexpected stmt {other:?}"),
        }
        // ANALYZE is mandatory; bare EXPLAIN is an error.
        assert!(parse("EXPLAIN r = FILTER i BY Overlaps(RECTANGLE(0, 0, 1, 1));").is_err());
    }
}
