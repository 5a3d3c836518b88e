//! Abstract syntax of Pigeon scripts.

use sh_core::storage::BlockFormat;
use sh_geom::{Point, Rect};
use sh_index::PartitionKind;

/// Record type of a dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordType {
    Point,
    Rectangle,
    Polygon,
}

impl RecordType {
    /// Parses a type name (`POINT`, `RECTANGLE`, `POLYGON`).
    pub fn parse(s: &str) -> Option<RecordType> {
        match s.to_ascii_uppercase().as_str() {
            "POINT" => Some(RecordType::Point),
            "RECTANGLE" | "RECT" => Some(RecordType::Rectangle),
            "POLYGON" => Some(RecordType::Polygon),
            _ => None,
        }
    }
}

/// One statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `v = LOAD '<path>' AS <type>;`
    Load {
        var: String,
        path: String,
        rtype: RecordType,
    },
    /// `v = IMPORT '<host path>' AS <type> INTO '<dfs path>';` — ingest
    /// a real file from the host filesystem into the simulated DFS
    /// (whitespace- or comma-separated coordinates, one record per line).
    Import {
        var: String,
        host_path: String,
        rtype: RecordType,
        path: String,
    },
    /// `v = GENERATE <n> <type> <distribution> INTO '<path>';`
    Generate {
        var: String,
        n: usize,
        rtype: RecordType,
        distribution: String,
        path: String,
    },
    /// `v = DELAUNAY <src>;`
    Delaunay { var: String, src: String },
    /// `v = INDEX <src> AS <technique> INTO '<path>' [FORMAT text|binary];`
    Index {
        var: String,
        src: String,
        kind: PartitionKind,
        path: String,
        format: BlockFormat,
    },
    /// `v = FILTER <src> BY Overlaps(RECTANGLE(x1, y1, x2, y2));`
    RangeFilter {
        var: String,
        src: String,
        query: Rect,
    },
    /// `v = KNN <src> POINT(x, y) K <k>;`
    Knn {
        var: String,
        src: String,
        q: Point,
        k: usize,
    },
    /// `v = JOIN <left>, <right> PREDICATE Overlaps;`
    Join {
        var: String,
        left: String,
        right: String,
    },
    /// `v = SKYLINE <src>;`
    Skyline { var: String, src: String },
    /// `v = CONVEXHULL <src>;`
    ConvexHull { var: String, src: String },
    /// `v = CLOSESTPAIR <src>;`
    ClosestPair { var: String, src: String },
    /// `v = FARTHESTPAIR <src>;`
    FarthestPair { var: String, src: String },
    /// `v = UNION <src>;`
    Union { var: String, src: String },
    /// `v = VORONOI <src>;`
    Voronoi { var: String, src: String },
    /// `DUMP <src>;`
    Dump { src: String },
    /// `DESCRIBE <src>;` — dataset statistics (count, MBR, bytes).
    Describe { src: String },
    /// `STORE <src> INTO '<path>';`
    Store { src: String, path: String },
    /// `PROFILE <statement>` — run the inner statement and dump the
    /// rendered [`JobProfile`](sh_trace::JobProfile) of the jobs it ran.
    Profile(Box<Stmt>),
    /// `SET <option> <value>;` — adjust the cluster's fault-tolerance
    /// policy for subsequent jobs (e.g. `SET retries 6;`,
    /// `SET speculative true;`, `SET fault_plan 'fail:0@0;kill:2';`).
    /// The value is kept as raw text; the executor interprets it per
    /// option.
    Set { key: String, value: String },
    /// `SUBMIT <statement>` — hand the inner statement to the job
    /// scheduler and continue immediately; any binding, dump output, and
    /// profile it produces land in the session at the matching `WAIT`.
    Submit(Box<Stmt>),
    /// `JOBS;` — dump one line per scheduler job (id, tenant, name,
    /// state).
    Jobs,
    /// `WAIT <id>;` — block until submitted job `<id>` finishes and
    /// merge its binding and dump output into the session.
    Wait { id: u64 },
    /// `STATS;` — dump current counter rates, gauges, and histogram
    /// percentiles from the session's time-series sampler.
    Stats,
    /// `EVENTS [n] [FILTER <kind>];` — dump the last `n` (default 20)
    /// journaled engine events, optionally restricted to kinds starting
    /// with `<kind>` (so `FILTER task` matches `task.retry`).
    Events {
        n: Option<usize>,
        filter: Option<String>,
    },
    /// `EXPLAIN ANALYZE <statement>` — run the inner statement and dump
    /// a waterfall rendering of its span tree with the critical path
    /// marked and the dominant phase summarized.
    ExplainAnalyze(Box<Stmt>),
    /// `SCRUB;` / `SCRUB '<path>';` / `SCRUB <var>;` — checksum every
    /// live replica under the target (the whole namespace when omitted;
    /// an indexed variable scrubs its index directory), quarantine and
    /// re-replicate rotten ones, and dump the report.
    Scrub { target: Option<ScrubTarget> },
}

/// What a `SCRUB` statement walks.
#[derive(Clone, Debug, PartialEq)]
pub enum ScrubTarget {
    /// A literal DFS path prefix: `SCRUB '/idx/points';`.
    Path(String),
    /// A bound variable: `SCRUB points;` scrubs the files behind it.
    Var(String),
}

/// A parsed script.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Script {
    pub stmts: Vec<Stmt>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_type_parsing() {
        assert_eq!(RecordType::parse("point"), Some(RecordType::Point));
        assert_eq!(RecordType::parse("RECT"), Some(RecordType::Rectangle));
        assert_eq!(RecordType::parse("Polygon"), Some(RecordType::Polygon));
        assert_eq!(RecordType::parse("line"), None);
    }
}
