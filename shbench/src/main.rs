//! `shbench`: one end-to-end + per-layer benchmark for the four-layer
//! stack (Pigeon → operations → spatial MapReduce → indexed DFS, behind
//! the TCP server). See BENCHMARK.md beside this package.
//!
//! ```text
//! cargo run --release --manifest-path shbench/Cargo.toml -- \
//!     --workload serve-scan --seed 1 --seconds 12 --trace 0
//! ```
//!
//! One invocation with `--workload` is one run of one workload in this
//! process; its last line of output is the result object the driver
//! reads. Without `--workload` every workload runs, each in a child
//! process of its own so that peak memory is per workload; `--repeat N`
//! does that for N seeds and prints medians, quartiles and spreads.

mod client;
mod load;
mod ops;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

use ops::Kind;
use workloads::Workload;

/// Times a run sets the system up; `setup_s` is their median.
const SETUPS: usize = 3;

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    clients: usize,
    repeat: usize,
    trace_out: Option<String>,
}

/// A metric as the result object carries it.
struct Value {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("shbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run() -> Result<ExitCode, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 12,
        trace: false,
        clients: nproc(),
        repeat: 0,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--list" {
            println!("{}", spec::list_json());
            return Ok(ExitCode::SUCCESS);
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                cli.workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{USAGE}"))?,
                )
            }
            "--seed" => cli.seed = number()?,
            "--seconds" => cli.seconds = number()?.max(1),
            "--trace" => cli.trace = number()? != 0,
            "--clients" => cli.clients = number()?.max(1) as usize,
            "--repeat" => cli.repeat = number()? as usize,
            "--trace-out" => cli.trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if cli.clients > nproc() {
        // More generator threads than cores measures the OS scheduler.
        return Err(format!(
            "{} client threads asked for, the host has {} cores",
            cli.clients,
            nproc()
        ));
    }
    match (cli.workload, cli.repeat) {
        (Some(w), 0) => {
            let report = if cli.trace {
                trace::run(w, &cli)?
            } else {
                untraced(w, &cli)?
            };
            println!("{report}");
            Ok(ExitCode::SUCCESS)
        }
        _ => suite(&cli),
    }
}

const USAGE: &str = "usage: shbench [--workload serve-mixed|serve-scan|ingest-index|heap-batch] \
[--seed N] [--seconds S] [--trace 0|1] [--clients K] [--repeat N] [--trace-out FILE] | --list";

/// The untraced run: set up [`SETUPS`] times, measure on the last, check
/// every answer, report the end-to-end metrics.
fn untraced(w: Workload, cli: &Cli) -> Result<String, String> {
    let sizes = w.full();
    let mut setup_s = Vec::new();
    let mut plan = None;
    let mut live = None;
    for _ in 0..SETUPS {
        // Tear the previous system down before building the next.
        drop(live.take());
        let t0 = Instant::now();
        let data = w.generate(cli.seed, sizes);
        let generate_s = t0.elapsed().as_secs_f64();
        // The oracle's answers are the benchmark's work, not the
        // system's, and are the same for every set-up of one seed.
        let plan = plan.get_or_insert_with(|| w.plan(cli.seed, sizes, &data));
        let t0 = Instant::now();
        let env = w.setup(&data, plan, cli.clients, None)?;
        setup_s.push(generate_s + t0.elapsed().as_secs_f64());
        live = Some((data, env));
    }
    let (Some(plan), Some((data, mut env))) = (plan, live) else {
        unreachable!("SETUPS is at least one")
    };
    // Resident memory, sampled while the system is measured.
    let stolen_before = stolen_s();
    let measuring = std::sync::atomic::AtomicBool::new(true);
    let (m, mut rss_mb) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            while measuring.load(std::sync::atomic::Ordering::Relaxed) {
                samples.push(status_mb("VmRSS:"));
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            samples
        });
        let m = w.measure(&mut env, &data, &plan, cli.seconds as f64);
        measuring.store(false, std::sync::atomic::Ordering::Relaxed);
        (m, sampler.join().expect("sampler panicked"))
    });
    drop(env);
    stats::sort(&mut rss_mb);

    let attempted = m.samples.len();
    let failures: Vec<&String> = m
        .samples
        .iter()
        .filter_map(|s| s.failure.as_ref())
        .collect();
    if let Some(first) = failures.first() {
        eprintln!("shbench: first of {} failed ops: {first}", failures.len());
    }
    // Round by round, then the quartile on the slow side: see "Steady
    // numbers on an unsteady host" in BENCHMARK.md.
    let measured = BTreeMap::from([
        ("setup_s", stats::median(setup_s.clone())),
        ("ops_per_s", stats::quartiles(&m.ops_per_s)[0]),
        ("p50_ms", stats::quartiles(&m.p50_ms)[2]),
        ("tail_ms", stats::quartiles(&m.max_ms)[2]),
        ("rss_mb", stats::median_sorted(&rss_mb)),
    ]);
    let timed = &m.samples[m.latency_of.clone()];
    let mut latency_ms: Vec<f64> = timed.iter().map(|s| s.latency_ms).collect();
    stats::sort(&mut latency_ms);
    let (tail_pct, tail_ms) = stats::tail_sorted(&latency_ms);
    let gated = spec::END_TO_END.iter().map(|(metric, _)| metric);
    let values = values_of(gated, &measured, f64::NAN);

    // Per-kind medians and the numbers only this workload defines: for
    // the reader and for BENCHMARK.md, not for the driver's gate.
    let mut extras = m.extras.clone();
    let mut counts = String::new();
    for kind in Kind::ALL {
        let lat: Vec<f64> = timed
            .iter()
            .filter(|s| s.kind == kind && s.failure.is_none())
            .map(|s| s.latency_ms)
            .collect();
        if !lat.is_empty() {
            let _ = write!(counts, "\"{}\": {}, ", kind.name(), lat.len());
            extras.insert(kind.names()[1], stats::median(lat));
        }
    }
    extras.insert(
        "failed_frac",
        failures.len() as f64 / attempted.max(1) as f64,
    );
    // The plain whole-run statistics, beside the round-wise ones above.
    extras.insert("run_p50_ms", stats::median_sorted(&latency_ms));
    extras.insert("run_tail_ms", tail_ms);
    extras.insert("peak_rss_mb", status_mb("VmHWM:"));
    // How much of the measured phase the hypervisor kept the CPUs from
    // this VM: a run with a large share is not worth comparing.
    extras.insert(
        "host_steal_frac",
        (stolen_s() - stolen_before) / (cli.seconds as f64 * nproc() as f64),
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "shbench {} seed {} ({} s)",
        w.name(),
        cli.seed,
        cli.seconds
    );
    for v in &values {
        let _ = writeln!(out, "  {:<28} {:>14.4} {}", v.name, v.value, v.unit);
    }
    for (name, value) in &extras {
        let _ = writeln!(out, "  {name:<28} {value:>14.4}");
    }
    let setups: Vec<String> = setup_s.iter().map(|s| s.to_string()).collect();
    let extras_json: Vec<String> = extras
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
        .collect();
    let _ = writeln!(
        out,
        "{{\"provenance\": {{{}, \"setup_s_each\": [{}], \"rounds\": {}, \"round_ops\": {}, \
         \"latency_samples\": {}, \"run_tail_pct\": {}, \"samples_by_kind\": {{{}}}, \
         \"workload_metrics\": {{{}}}}}}}",
        provenance(w, cli),
        setups.join(", "),
        m.p50_ms.len(),
        plan.round,
        latency_ms.len(),
        json_number(tail_pct),
        counts.trim_end_matches(", "),
        extras_json.join(", ")
    );
    out.push_str(&result_line(attempted, failures.len(), &values));
    Ok(out)
}

/// The metrics of the spec, in its order, with what was measured for each
/// (`missing` where nothing was).
fn values_of<'a>(
    specs: impl IntoIterator<Item = &'a spec::Metric>,
    measured: &BTreeMap<&'static str, f64>,
    missing: f64,
) -> Vec<Value> {
    specs
        .into_iter()
        .map(|spec| Value {
            name: spec.name,
            unit: spec.unit,
            value: measured.get(spec.name).copied().unwrap_or(missing),
        })
        .collect()
}

/// What every run's output says about where its numbers come from.
fn provenance(w: Workload, cli: &Cli) -> String {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": \"{}\", \
         \"rustc\": \"{}\", \"nproc\": {}, \"clients\": {}, \"rungs_qps\": {:?}",
        w.name(),
        cli.seed,
        cli.seconds,
        cli.trace,
        tool("git", &["rev-parse", "--short", "HEAD"]),
        tool("rustc", &["-V"]),
        nproc(),
        // The traced pass and the session workloads have one client.
        if w.served() && !cli.trace {
            cli.clients
        } else {
            1
        },
        workloads::RUNGS_QPS,
    )
}

/// The result object, one line, exactly the keys the driver reads.
fn result_line(attempted: usize, failed: usize, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.name,
                json_number(v.value),
                v.unit
            )
        })
        .collect();
    let sound = failed == 0 && attempted > 0 && values.iter().all(|v| v.value.is_finite());
    format!(
        "{{\"correct\": {sound}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

/// A number as measured, with all its digits; JSON has no NaN.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A `kB` line of `/proc/self/status` in MB: `VmRSS:` is the memory the
/// process holds now, `VmHWM:` the most it has held.
fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(key))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Seconds of CPU the hypervisor has given to others while this VM wanted
/// to run: the `steal` column of `/proc/stat`, in clock ticks of 10 ms.
fn stolen_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |ticks| ticks / 100.0)
}

/// Runs workloads in child processes: all of them or the one named, once
/// or for `--repeat` seeds, and prints the repeatability table.
fn suite(cli: &Cli) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let workloads: Vec<Workload> = match cli.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let runs = cli.repeat.max(1);
    let mut all_correct = true;
    // workload → metric → one value per run.
    let mut table: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for r in 0..runs {
        for &w in &workloads {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", w.name()])
                .args(["--seed", &(cli.seed + r as u64).to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if cli.trace { "1" } else { "0" }])
                .args(["--clients", &cli.clients.to_string()]);
            if let Some(path) = &cli.trace_out {
                child.args(["--trace-out", &format!("{path}.{}.{r}", w.name())]);
            }
            let output = child
                .output()
                .map_err(|e| format!("spawn {}: {e}", w.name()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            if cli.repeat == 0 {
                print!("{stdout}");
            }
            let last = stdout.lines().last().unwrap_or("");
            let parsed = sh_trace::json::parse(last)
                .map_err(|e| format!("{} printed no result: {e}", w.name()))?;
            all_correct &= output.status.success()
                && parsed.get("correct").and_then(|c| c.as_bool()) == Some(true);
            let metrics = parsed
                .get("metrics")
                .and_then(|m| m.as_obj())
                .ok_or_else(|| format!("{}: result without metrics", w.name()))?;
            let mut row = format!("{:<14} seed {:<6}", w.name(), cli.seed + r as u64);
            for (name, metric) in metrics {
                let value = metric
                    .get("value")
                    .and_then(|v| v.as_f64())
                    .unwrap_or(f64::NAN);
                let _ = write!(row, " {name}={value:.4}");
                table
                    .entry(w.name())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
            if cli.repeat > 0 && !cli.trace {
                // Every run made, not only the summary.
                println!("{row}");
            }
        }
    }
    if cli.repeat > 0 {
        println!(
            "{:<14} {:<40} {:>12} {:>12} {:>12} {:>8}",
            "workload", "metric", "q1", "median", "q3", "spread"
        );
        for (w, metrics) in &table {
            for (name, values) in metrics {
                let [q1, med, q3] = stats::quartiles(values);
                println!(
                    "{w:<14} {name:<40} {q1:>12.4} {med:>12.4} {q3:>12.4} {:>7.1}%",
                    100.0 * stats::spread(values)
                );
            }
        }
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
