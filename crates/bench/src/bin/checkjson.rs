//! CI guard: verify benchmark JSON artifacts are well-formed.
//!
//! ```text
//! cargo run -p sh-bench --release --bin checkjson -- BENCH_*.json
//! ```
//!
//! Each file must parse as JSON and carry a non-empty string under the
//! `benchmark` key; known benchmarks must additionally carry their
//! numeric metric fields. Any violation exits non-zero naming the file.

/// Numeric fields a known benchmark's artifact must carry beyond the
/// generic shape — the trend gate and the format-comparison reports
/// read these, so losing one silently breaks downstream checks.
fn required_fields(benchmark: &str) -> &'static [&'static str] {
    match benchmark {
        "hotpath" => &[
            "cold_secs",
            "warm_secs_mean",
            "speedup",
            "text_cold_secs",
            "binary_cold_secs",
            "binary_speedup",
        ],
        "throughput" => &["concurrent_secs"],
        "load" => &[
            "cores",
            "target_qps",
            "duration_secs",
            "arrivals",
            "completed",
            "errors",
            "busy_retries",
            "sustained_qps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
        ],
        _ => &[],
    }
}

/// Boolean fields a known benchmark's artifact must carry. `throughput`
/// must say `gate_skipped: true|false` explicitly so a single-core run
/// is distinguishable from a passing multi-core one downstream.
fn required_bool_fields(benchmark: &str) -> &'static [&'static str] {
    match benchmark {
        "throughput" | "load" => &["gate_skipped"],
        _ => &[],
    }
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: checkjson <file.json>...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("FAIL {path}: unreadable: {e}");
                failed = true;
                continue;
            }
        };
        let value = match sh_trace::json::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("FAIL {path}: malformed JSON: {e}");
                failed = true;
                continue;
            }
        };
        let name = match value.get("benchmark").and_then(|b| b.as_str()) {
            Some(name) if !name.is_empty() => name.to_string(),
            _ => {
                eprintln!("FAIL {path}: missing \"benchmark\" key");
                failed = true;
                continue;
            }
        };
        let missing: Vec<&str> = required_fields(&name)
            .iter()
            .filter(|f| value.get(f).and_then(|v| v.as_f64()).is_none())
            .copied()
            .collect();
        let missing_bools: Vec<&str> = required_bool_fields(&name)
            .iter()
            .filter(|f| value.get(f).and_then(|v| v.as_bool()).is_none())
            .copied()
            .collect();
        if missing.is_empty() && missing_bools.is_empty() {
            let skipped = value
                .get("gate_skipped")
                .and_then(|v| v.as_bool())
                .unwrap_or(false);
            if skipped {
                println!("ok {path}: benchmark \"{name}\" (gate_skipped: true)");
            } else {
                println!("ok {path}: benchmark \"{name}\"");
            }
        } else {
            if !missing.is_empty() {
                eprintln!(
                    "FAIL {path}: benchmark \"{name}\" missing numeric field(s): {}",
                    missing.join(", ")
                );
            }
            if !missing_bools.is_empty() {
                eprintln!(
                    "FAIL {path}: benchmark \"{name}\" missing boolean field(s): {}",
                    missing_bools.join(", ")
                );
            }
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
