//! CI regression gate over benchmark trend history.
//!
//! ```text
//! cargo run -p sh-bench --release --bin trendcheck -- \
//!     BENCH_hotpath_ci.json BENCH_throughput_ci.json
//! ```
//!
//! Reads each bench artifact, extracts its tracked metrics, appends a
//! run record (git revision, cores, metrics, skipped gates) to
//! `BENCH_trend.json`, and exits non-zero if any metric regressed past
//! the tolerated ratio versus the previous run (every tracked metric is
//! a time, so a regression is growth).
//! Gates that cannot run (concurrency metrics on a starved host) are
//! recorded as `gate_skipped: true` in the run record instead of
//! silently passing. Options: `--trend <path>` overrides the history
//! file, `--max-ratio <r>` (or the `SH_TREND_MAX_RATIO` env var)
//! overrides the default 1.2 gate.

use sh_bench::trend::{self, Run};

fn main() {
    let mut trend_path = "BENCH_trend.json".to_string();
    let mut max_ratio: Option<f64> = None;
    let mut inputs: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trend" => match args.next() {
                Some(p) => trend_path = p,
                None => usage("--trend needs a path"),
            },
            "--max-ratio" => match args.next().and_then(|r| r.parse::<f64>().ok()) {
                Some(r) if r >= 1.0 => max_ratio = Some(r),
                _ => usage("--max-ratio needs a number >= 1.0"),
            },
            _ => inputs.push(arg),
        }
    }
    if inputs.is_empty() {
        usage("no bench artifacts given");
    }
    let max_ratio = max_ratio
        .or_else(|| {
            std::env::var("SH_TREND_MAX_RATIO")
                .ok()
                .and_then(|r| r.parse().ok())
        })
        .unwrap_or(trend::DEFAULT_MAX_RATIO);

    let mut entries = Vec::new();
    let mut skipped: Vec<String> = Vec::new();
    for path in &inputs {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => fail(&format!("{path}: unreadable: {e}")),
        };
        let doc = match sh_trace::json::parse(&text) {
            Ok(v) => v,
            Err(e) => fail(&format!("{path}: malformed JSON: {e}")),
        };
        let extracted = trend::extract_entries(&doc);
        if extracted.is_empty() {
            println!("trend: {path}: no tracked metric, skipped");
            continue;
        }
        for e in extracted {
            // Concurrency metrics from a starved host say nothing about
            // the code; record the skip explicitly instead of letting
            // them poison (or silently pass) the trend baseline.
            let cores = sh_bench::cores();
            if trend::is_concurrency_metric(&e.benchmark) && cores < trend::MIN_CONCURRENCY_CORES {
                println!(
                    "trend: {path}: {}.{} gate_skipped: true (cores {cores} < {})",
                    e.benchmark,
                    e.metric,
                    trend::MIN_CONCURRENCY_CORES
                );
                skipped.push(format!("{}.{}", e.benchmark, e.metric));
                continue;
            }
            println!(
                "trend: {path}: {}.{} = {:.6}",
                e.benchmark, e.metric, e.value
            );
            entries.push(e);
        }
    }
    if entries.is_empty() {
        fail("no tracked metrics in any input");
    }

    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let n_skipped = skipped.len();
    let new_run = Run {
        unix_secs,
        git_rev: sh_bench::git_rev(),
        cores: sh_bench::cores(),
        entries,
        skipped,
    };

    let history = std::fs::read_to_string(&trend_path).ok();
    let (text, regressions) = match trend::append_and_check(history.as_deref(), new_run, max_ratio)
    {
        Ok(out) => out,
        Err(e) => fail(&format!("{trend_path}: {e}")),
    };
    if let Err(e) = std::fs::write(&trend_path, &text) {
        fail(&format!("{trend_path}: write failed: {e}"));
    }
    let runs = trend::parse_trend(&text).map(|r| r.len()).unwrap_or(0);
    println!(
        "trend: appended run to {trend_path} ({runs} run(s) on record, {n_skipped} gate(s) skipped)"
    );

    if regressions.is_empty() {
        println!("trend: no regressions past {max_ratio:.2}x");
    } else {
        for r in &regressions {
            eprintln!("FAIL regression past {max_ratio:.2}x: {}", r.render());
        }
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("trendcheck: {msg}");
    eprintln!("usage: trendcheck [--trend <path>] [--max-ratio <r>] <BENCH_*.json>...");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("FAIL {msg}");
    std::process::exit(1);
}
