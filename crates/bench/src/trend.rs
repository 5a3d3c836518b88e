//! Bench regression tracker: run history plus a ratio gate.
//!
//! The `trendcheck` bin reads every `BENCH_*.json` artifact the bench
//! bins wrote, extracts each benchmark's tracked metrics, appends a run
//! record (git revision, core count, metric entries, skipped gates) to
//! `BENCH_trend.json`, and compares the new run against the previous
//! one. Every tracked metric is a time, so lower is better: a metric
//! regresses when it *grows* past the tolerated ratio (default
//! [`DEFAULT_MAX_RATIO`], i.e. +20%), and CI fails. Ratios of two such
//! times (`hotpath`'s `binary_speedup`) are recorded in the artifact but
//! not trended — the two times they are made of are.
//! All the logic lives here so the gate itself is unit-testable without
//! running a benchmark.

use sh_trace::json::{self, Value};

/// Default tolerated run-over-run growth: fail past +20%.
pub const DEFAULT_MAX_RATIO: f64 = 1.2;

/// History cap — oldest runs are dropped so the artifact stays bounded.
pub const MAX_RUNS: usize = 512;

/// One tracked `(benchmark, metric, value)` from a bench artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    pub benchmark: String,
    pub metric: String,
    pub value: f64,
}

/// One appended run of the whole bench suite.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    pub unix_secs: u64,
    pub git_rev: String,
    pub cores: usize,
    pub entries: Vec<Entry>,
    /// `benchmark.metric` names whose gate was explicitly skipped this
    /// run (e.g. concurrency metrics on a starved host) — recorded so a
    /// skipped gate is visible in the history instead of silently
    /// indistinguishable from a passing one.
    pub skipped: Vec<String>,
}

/// A gate violation: `current > previous * max_ratio`.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    pub benchmark: String,
    pub metric: String,
    pub previous: f64,
    pub current: f64,
}

impl Regression {
    /// One-line report, e.g.
    /// `hotpath.warm_secs_mean: 1.000000 -> 1.300000 (+30.0%)`.
    pub fn render(&self) -> String {
        format!(
            "{}.{}: {:.6} -> {:.6} ({:+.1}%)",
            self.benchmark,
            self.metric,
            self.previous,
            self.current,
            (self.current / self.previous - 1.0) * 100.0
        )
    }
}

/// The metrics the gate watches per benchmark, all times (lower is
/// better): the warm path, the two cold format sweeps — so a format
/// regression shows as the sweep that slowed, not as a ratio of both —
/// the concurrent batch, and the server load test's `p99_ms` tail.
pub fn tracked_metrics(benchmark: &str) -> &'static [&'static str] {
    match benchmark {
        "hotpath" => &["warm_secs_mean", "text_cold_secs", "binary_cold_secs"],
        "throughput" => &["concurrent_secs"],
        "load" => &["p99_ms"],
        _ => &[],
    }
}

/// Minimum core count for concurrency metrics to be meaningful: below
/// this, concurrent and serial execution degenerate to the same thing
/// and a recorded value would poison the trend baseline for real runs.
pub const MIN_CONCURRENCY_CORES: usize = 4;

/// True for metrics that only measure something on a multi-core host.
/// Runs on fewer than [`MIN_CONCURRENCY_CORES`] cores must not append
/// these to the trend history.
pub fn is_concurrency_metric(benchmark: &str) -> bool {
    benchmark == "throughput" || benchmark == "load"
}

/// Extracts every tracked entry from one parsed bench artifact. Returns
/// an empty vec for benchmarks without tracked metrics (they are checked
/// for well-formedness by `checkjson` but not trended). A tracked metric
/// missing from the artifact is simply absent — `checkjson` is the gate
/// for artifact completeness.
pub fn extract_entries(doc: &Value) -> Vec<Entry> {
    let Some(benchmark) = doc.get("benchmark").and_then(|b| b.as_str()) else {
        return Vec::new();
    };
    tracked_metrics(benchmark)
        .iter()
        .filter_map(|metric| {
            Some(Entry {
                benchmark: benchmark.to_string(),
                metric: metric.to_string(),
                value: doc.get(metric)?.as_f64()?,
            })
        })
        .collect()
}

/// Compares the new run's entries against the previous run's. Metrics
/// absent from the previous run (first run, new benchmark) pass.
pub fn find_regressions(previous: &[Entry], current: &[Entry], max_ratio: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    for cur in current {
        let prev = previous
            .iter()
            .find(|p| p.benchmark == cur.benchmark && p.metric == cur.metric);
        if let Some(prev) = prev {
            if prev.value > 0.0 && cur.value > prev.value * max_ratio {
                out.push(Regression {
                    benchmark: cur.benchmark.clone(),
                    metric: cur.metric.clone(),
                    previous: prev.value,
                    current: cur.value,
                });
            }
        }
    }
    out
}

/// Parses a trend document (as written by [`render_trend`]).
pub fn parse_trend(text: &str) -> Result<Vec<Run>, String> {
    let doc = json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(|r| r.as_arr())
        .ok_or("trend file missing \"runs\" array")?;
    let mut out = Vec::with_capacity(runs.len());
    for run in runs {
        let entries = run
            .get("entries")
            .and_then(|e| e.as_arr())
            .ok_or("run missing \"entries\" array")?
            .iter()
            .map(|e| {
                Some(Entry {
                    benchmark: e.get("benchmark")?.as_str()?.to_string(),
                    metric: e.get("metric")?.as_str()?.to_string(),
                    value: e.get("value")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("malformed trend entry")?;
        // Absent in histories written before skip tracking: default empty.
        let skipped = run
            .get("skipped")
            .and_then(|s| s.as_arr())
            .map(|arr| {
                arr.iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        out.push(Run {
            unix_secs: run.get("unix_secs").and_then(|v| v.as_u64()).unwrap_or(0),
            git_rev: run
                .get("git_rev")
                .and_then(|v| v.as_str())
                .unwrap_or("unknown")
                .to_string(),
            cores: run.get("cores").and_then(|v| v.as_usize()).unwrap_or(0),
            entries,
            skipped,
        });
    }
    Ok(out)
}

/// Serializes the run history (round-trips through [`parse_trend`]).
pub fn render_trend(runs: &[Run]) -> String {
    let runs = runs
        .iter()
        .map(|r| {
            Value::Obj(vec![
                ("unix_secs".into(), Value::Int(r.unix_secs as i128)),
                ("git_rev".into(), Value::Str(r.git_rev.clone())),
                ("cores".into(), Value::Int(r.cores as i128)),
                (
                    "entries".into(),
                    Value::Arr(
                        r.entries
                            .iter()
                            .map(|e| {
                                Value::Obj(vec![
                                    ("benchmark".into(), Value::Str(e.benchmark.clone())),
                                    ("metric".into(), Value::Str(e.metric.clone())),
                                    ("value".into(), Value::Float(e.value)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "skipped".into(),
                    Value::Arr(r.skipped.iter().cloned().map(Value::Str).collect()),
                ),
            ])
        })
        .collect();
    let doc = Value::Obj(vec![
        ("trend".into(), Value::Str("sh-bench".into())),
        ("runs".into(), Value::Arr(runs)),
    ]);
    format!("{doc}\n")
}

/// The whole gate as a pure function: parse the existing history (if
/// any), compare `new_run` against the most recent run, append, cap, and
/// re-serialize. Returns the new trend text plus any regressions.
pub fn append_and_check(
    history_text: Option<&str>,
    new_run: Run,
    max_ratio: f64,
) -> Result<(String, Vec<Regression>), String> {
    let mut runs = match history_text {
        Some(text) => parse_trend(text)?,
        None => Vec::new(),
    };
    let regressions = match runs.last() {
        Some(prev) => find_regressions(&prev.entries, &new_run.entries, max_ratio),
        None => Vec::new(),
    };
    runs.push(new_run);
    if runs.len() > MAX_RUNS {
        let drop = runs.len() - MAX_RUNS;
        runs.drain(..drop);
    }
    Ok((render_trend(&runs), regressions))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(benchmark: &str, metric: &str, value: f64) -> Entry {
        Entry {
            benchmark: benchmark.into(),
            metric: metric.into(),
            value,
        }
    }

    fn run(rev: &str, entries: Vec<Entry>) -> Run {
        Run {
            unix_secs: 1_000,
            git_rev: rev.into(),
            cores: 8,
            entries,
            skipped: Vec::new(),
        }
    }

    #[test]
    fn extracts_tracked_metrics_from_bench_artifacts() {
        let hotpath = json::parse(
            r#"{"benchmark": "hotpath", "cold_secs": 4.0, "warm_secs_mean": 0.91,
                "text_cold_secs": 0.021, "binary_cold_secs": 0.014, "binary_speedup": 1.5}"#,
        )
        .unwrap();
        assert_eq!(
            extract_entries(&hotpath),
            vec![
                entry("hotpath", "warm_secs_mean", 0.91),
                entry("hotpath", "text_cold_secs", 0.021),
                entry("hotpath", "binary_cold_secs", 0.014),
            ]
        );

        let throughput =
            json::parse(r#"{"benchmark": "throughput", "concurrent_secs": 12}"#).unwrap();
        assert_eq!(
            extract_entries(&throughput),
            vec![entry("throughput", "concurrent_secs", 12.0)]
        );

        let unknown = json::parse(r#"{"benchmark": "mystery", "secs": 1.0}"#).unwrap();
        assert!(extract_entries(&unknown).is_empty());
    }

    #[test]
    fn skipped_gates_round_trip_and_default_empty_for_old_history() {
        let mut r = run("dddd444", vec![entry("hotpath", "warm_secs_mean", 1.0)]);
        r.skipped = vec!["throughput.concurrent_secs".to_string()];
        let text = render_trend(&[r.clone()]);
        assert!(text.contains("throughput.concurrent_secs"));
        let runs = parse_trend(&text).unwrap();
        assert_eq!(runs[0].skipped, r.skipped);

        // Histories written before skip tracking parse with no skips.
        let old = r#"{"trend": "sh-bench", "runs": [{"unix_secs": 1, "git_rev": "e",
            "cores": 2, "entries": []}]}"#;
        assert_eq!(parse_trend(old).unwrap()[0].skipped, Vec::<String>::new());
    }

    #[test]
    fn concurrency_metrics_are_flagged() {
        assert!(is_concurrency_metric("throughput"));
        assert!(is_concurrency_metric("load"));
        assert!(!is_concurrency_metric("hotpath"));
        assert!(MIN_CONCURRENCY_CORES >= 2);
    }

    #[test]
    fn load_p99_is_tracked_and_fails_on_growth() {
        let doc = json::parse(
            r#"{"benchmark": "load", "sustained_qps": 29.5, "p50_ms": 3.0,
                "p95_ms": 20.0, "p99_ms": 36.0, "gate_skipped": false}"#,
        )
        .unwrap();
        assert_eq!(extract_entries(&doc), vec![entry("load", "p99_ms", 36.0)]);

        // p99 is a latency: the gate trips on growth…
        let previous = vec![entry("load", "p99_ms", 36.0)];
        let current = vec![entry("load", "p99_ms", 50.0)];
        let regs = find_regressions(&previous, &current, DEFAULT_MAX_RATIO);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].render().contains("load.p99_ms"));
        // …and never on improvement.
        let current = vec![entry("load", "p99_ms", 10.0)];
        assert!(find_regressions(&previous, &current, DEFAULT_MAX_RATIO).is_empty());
    }

    #[test]
    fn a_twenty_percent_regression_fails_the_default_gate() {
        // Synthetic fixture: warm path slowed from 1.0s to 1.25s (+25%).
        let previous = vec![
            entry("hotpath", "warm_secs_mean", 1.0),
            entry("throughput", "concurrent_secs", 10.0),
        ];
        let current = vec![
            entry("hotpath", "warm_secs_mean", 1.25),
            entry("throughput", "concurrent_secs", 10.1),
        ];
        let regs = find_regressions(&previous, &current, DEFAULT_MAX_RATIO);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].benchmark, "hotpath");
        assert_eq!(regs[0].previous, 1.0);
        assert_eq!(regs[0].current, 1.25);
        assert!(regs[0].render().contains("+25.0%"));
    }

    #[test]
    fn growth_under_the_ratio_passes() {
        let previous = vec![entry("hotpath", "warm_secs_mean", 1.0)];
        let current = vec![entry("hotpath", "warm_secs_mean", 1.15)];
        assert!(find_regressions(&previous, &current, DEFAULT_MAX_RATIO).is_empty());
        // A looser ratio also forgives the 25% slip.
        let current = vec![entry("hotpath", "warm_secs_mean", 1.25)];
        assert!(find_regressions(&previous, &current, 1.3).is_empty());
    }

    #[test]
    fn first_run_and_new_benchmarks_pass() {
        let current = vec![entry("hotpath", "warm_secs_mean", 9.0)];
        assert!(find_regressions(&[], &current, DEFAULT_MAX_RATIO).is_empty());

        let (text, regs) =
            append_and_check(None, run("aaaa111", current.clone()), DEFAULT_MAX_RATIO).unwrap();
        assert!(regs.is_empty());
        let runs = parse_trend(&text).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].git_rev, "aaaa111");
        assert_eq!(runs[0].entries, current);
    }

    #[test]
    fn append_and_check_round_trips_and_gates_the_latest_pair() {
        let (text, regs) = append_and_check(
            None,
            run("aaaa111", vec![entry("hotpath", "warm_secs_mean", 1.0)]),
            DEFAULT_MAX_RATIO,
        )
        .unwrap();
        assert!(regs.is_empty());

        // Second run regresses ≥20% against the first: the gate trips and
        // the history still records both runs.
        let (text, regs) = append_and_check(
            Some(&text),
            run("bbbb222", vec![entry("hotpath", "warm_secs_mean", 1.3)]),
            DEFAULT_MAX_RATIO,
        )
        .unwrap();
        assert_eq!(regs.len(), 1);
        assert!(regs[0].render().contains("hotpath.warm_secs_mean"));
        let runs = parse_trend(&text).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].entries[0].value, 1.3);
    }

    #[test]
    fn history_is_capped() {
        let mut text = render_trend(&[]);
        for i in 0..(MAX_RUNS + 3) {
            let (next, _) = append_and_check(
                Some(&text),
                run(
                    "cccc333",
                    vec![entry("hotpath", "warm_secs_mean", 1.0 + i as f64 * 1e-6)],
                ),
                DEFAULT_MAX_RATIO,
            )
            .unwrap();
            text = next;
        }
        assert_eq!(parse_trend(&text).unwrap().len(), MAX_RUNS);
    }
}
