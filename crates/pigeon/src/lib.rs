//! # sh-pigeon — the language layer
//!
//! SpatialHadoop's top layer is *Pigeon*, a high-level language with
//! OGC-flavoured spatial primitives compiled down to MapReduce
//! operations. This crate implements a small, faithful dialect:
//!
//! ```text
//! pts     = LOAD '/data/points' AS POINT;
//! idx     = INDEX pts AS STR+ INTO '/idx/points';
//! in_box  = FILTER idx BY Overlaps(RECTANGLE(10, 10, 400, 300));
//! near    = KNN idx POINT(120, 80) K 10;
//! pairs   = JOIN ileft, iright PREDICATE Overlaps;
//! sky     = SKYLINE idx;
//! hull    = CONVEXHULL idx;
//! cp      = CLOSESTPAIR idx;
//! fp      = FARTHESTPAIR idx;
//! u       = UNION ipolys;
//! vd      = VORONOI idx;
//! STORE near INTO '/out/near';
//! DUMP sky;
//! ```
//!
//! A script is parsed to an AST ([`ast::Stmt`]) and executed against a
//! simulated cluster by [`exec::Pigeon`], which routes each statement to
//! the corresponding `sh-core` operation — queries on indexed datasets
//! use the SpatialHadoop variant, queries on heap files fall back to the
//! Hadoop variant, exactly like the real system.

#![forbid(unsafe_code)]

pub mod ast;
pub mod exec;
pub mod lexer;
pub mod parser;

pub use ast::{RecordType, Script, ScrubTarget, Stmt};
pub use exec::{Admission, Pigeon, PigeonError, SessionCtx, StmtOutput, StmtTicket, Value};
/// The result-set currency: what [`Value::Result`] holds and `DUMP` emits.
pub use sh_mapreduce::Rows;

/// Parses and executes a script, returning the lines produced by its
/// `DUMP` statements.
pub fn run_script(dfs: &sh_dfs::Dfs, source: &str) -> Result<Vec<String>, PigeonError> {
    let script = parser::parse(source)?;
    let mut engine = Pigeon::new(dfs);
    engine.execute(&script)
}
