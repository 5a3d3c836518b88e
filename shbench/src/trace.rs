//! The traced pass: per-layer numbers taken from outside the program, by
//! timing the calls into each crate's public functions and reading the
//! counters they return or register.
//!
//! Each op of a fixed list runs as a **depth ladder**: d0 through the
//! wire (`ShClient::request`), d1 through Pigeon (`execute_with` on the
//! same line), d2 through the operations layer (`range_spatial`, … with
//! the same arguments) and d3 as the benchmark itself calling the leaves
//! (`SpatialFileSplitter::splits`, then per surviving partition
//! `Dfs::read_bytes`, `crc64`, `SpatialRecordReader::open_indexed_bytes`,
//! `LocalRTree::query`, `write_record`). The deeper run is the child
//! span, so a layer's self time is its span minus its child's.
//!
//! The pass runs one client against a cluster with one worker thread:
//! every step then happens in one order, so the counts repeat exactly
//! for one seed and the leaves' times add up the way the job ran them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sh_core::colblock;
use sh_core::mrlayer::{SpatialFileSplitter, SpatialRecordReader};
use sh_core::ops::{convex_hull, join, knn, range, skyline};
use sh_core::storage;
use sh_core::OpResult;
use sh_dfs::{crc64, Dfs};
use sh_geom::{Point, Record, Rect};
use sh_index::{GlobalPartitioning, LocalRTree, PartitionKind};
use sh_mapreduce::{InputSplit, JobBuilder, JobScheduler, MapContext, Mapper, SchedConfig};
use sh_pigeon::{parser, Value as Bound};
use sh_trace::{Histogram, RegistrySnapshot};

use crate::client::ShClient;
use crate::load;
use crate::ops::{Args, Kind, Op};
use crate::stats::{self, self_time};
use crate::workloads::{self, Data, Env, Plan, Workload};
use crate::{spec, Cli};

/// Ops of the plan one cycle of the ladder walks.
const LIST_LEN: usize = 50;

/// One timed call.
pub struct Span {
    pub op_id: usize,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory until the pass ends.
pub struct Tracer {
    epoch: Instant,
    pub recording: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            recording: true,
            spans: Vec::new(),
        }
    }

    /// Runs `f`, records its span and returns its result and duration in
    /// milliseconds.
    fn time<T>(
        &mut self,
        op_id: usize,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.recording {
            self.spans.push(Span {
                op_id,
                name,
                parent,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// One JSON object per line: `{op_id, name, parent, start_ns, end_ns}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            let _ = writeln!(
                out,
                "{{\"op_id\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.op_id, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Timings gathered over every cycle (reported as medians) and counts
/// gathered over the first cycle only (reported exactly).
#[derive(Default)]
struct Book {
    series: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
}

impl Book {
    fn push(&mut self, name: &'static str, value: f64) {
        self.series.entry(name).or_default().push(value);
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_default() += value;
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    fn median(&self, name: &str) -> f64 {
        self.series
            .get(name)
            .map_or(0.0, |v| stats::median(v.clone()))
    }

    fn mean(&self, name: &str) -> f64 {
        self.series
            .get(name)
            .filter(|v| !v.is_empty())
            // (An empty float sum is -0.0; start from +0.0.)
            .map_or(0.0, |v| v.iter().fold(0.0, |a, b| a + b) / v.len() as f64)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `--trace 1`: set up once on a one-worker cluster, run the ladder and
/// the kernels, print every per-layer metric.
pub fn run(w: Workload, cli: &Cli) -> Result<String, String> {
    let sizes = w.full();
    let data = w.generate(cli.seed, sizes);
    let plan = w.plan(cli.seed, sizes, &data);
    let mut env = w.setup(&data, &plan, 1, Some(1))?;
    let mut tracer = Tracer::new();
    let traced = traced(w, &mut env, &data, &plan, cli.seconds as f64, &mut tracer)?;
    drop(env);
    if let Some(path) = &cli.trace_out {
        std::fs::write(path, tracer.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }
    // A layer the workload does not exercise reads 0.
    let values = crate::values_of(&spec::PER_LAYER, &traced.layers, 0.0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "shbench {} seed {} traced ({} ladder ops in {} cycles, {} spans)",
        w.name(),
        cli.seed,
        traced.attempted,
        traced.cycles,
        tracer.spans.len()
    );
    for v in &values {
        let exact = if spec::EXACT.contains(&v.name) {
            " (exact)"
        } else {
            ""
        };
        let _ = writeln!(out, "  {:<40} {:>16.4} {}{exact}", v.name, v.value, v.unit);
    }
    if let Some(first) = traced.failures.first() {
        eprintln!(
            "shbench: first of {} failed ops: {first}",
            traced.failures.len()
        );
    }
    let _ = writeln!(
        out,
        "{{\"provenance\": {{{}, \"ladder_ops\": {}, \"cycles\": {}}}}}",
        crate::provenance(w, cli),
        traced.attempted,
        traced.cycles
    );
    out.push_str(&crate::result_line(
        traced.attempted,
        traced.failures.len(),
        &values,
    ));
    Ok(out)
}

pub struct Traced {
    pub layers: BTreeMap<&'static str, f64>,
    pub attempted: usize,
    pub cycles: usize,
    pub failures: Vec<String>,
}

/// The ladder over the first [`LIST_LEN`] ops of the plan, cycled until
/// `seconds` have passed (once at least), then the kernels.
pub fn traced(
    w: Workload,
    env: &mut Env,
    data: &Data,
    plan: &Plan,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Traced, String> {
    let list: Vec<&Op> = plan
        .order
        .iter()
        .take(LIST_LEN)
        .map(|&i| &plan.ops[i])
        .collect();
    let registry = sh_trace::global();
    let run_start = registry.snapshot();
    let mut book = Book::default();
    let mut failures = Vec::new();
    let mut attempted = 0;
    if w == Workload::IngestIndex {
        storage::upload(&env.dfs, "/in/p", &data.points).map_err(|e| e.to_string())?;
        storage::upload(&env.dfs, "/in/r", &data.left).map_err(|e| e.to_string())?;
        workloads::run_lines(
            &mut env.engine,
            &mut env.sess,
            "hp = LOAD '/in/p' AS POINT; hr = LOAD '/in/r' AS RECTANGLE;",
        )?;
    }
    let user_bytes = workloads::heap_bytes(&env.dfs) as f64;
    let started = Instant::now();
    let mut cycles = 0;
    let mut last_cycle = Duration::ZERO;
    // A further cycle starts only if it is likely to end in time.
    while cycles == 0 || (started.elapsed() + last_cycle).as_secs_f64() <= seconds {
        let t0 = Instant::now();
        let first = cycles == 0;
        let base = cycles * list.len();
        let mut front = vec![0.0; list.len()];
        let mut d1 = vec![0.0; list.len()];
        let mut d2 = vec![0.0; list.len()];

        if let Some(client) = env.clients.first_mut() {
            // d0 twice: spans off, then on; the difference is what
            // recording costs.
            tracer.recording = false;
            // The very first pass only brings the cache to the state the
            // list leaves it in, so that the two compared passes start
            // alike.
            for settle in [first, false] {
                for (n, op) in list.iter().enumerate() {
                    let (_, ms) = wire(client, op, base + n, tracer, &mut Vec::new());
                    if !settle {
                        book.push("front.untraced_ms", ms);
                    }
                    load::sweep_outputs(&env.dfs);
                }
            }
            tracer.recording = true;
            let before = registry.snapshot();
            let mut delivered = 0.0;
            for (n, op) in list.iter().enumerate() {
                let (obs, ms) = wire(client, op, base + n, tracer, &mut failures);
                front[n] = ms;
                book.push("front.traced_ms", ms);
                book.push(op.kind.names()[2], ms);
                if let Some(ttfb) = obs.ttfb_ms {
                    book.push("e2e.ttfb_ms", ttfb);
                    book.push("server.stream_ms", ms - ttfb);
                }
                delivered += obs.bytes as f64;
                load::sweep_outputs(&env.dfs);
            }
            if first {
                front_counts(&mut book, &before, &registry.snapshot(), delivered);
                book.add("wire_bytes", delivered);
            }
            attempted += list.len();
        }

        // d1: the same lines on the in-process session. Where there is no
        // server this is the front door, and runs twice like d0.
        let session_front = env.clients.is_empty();
        if session_front {
            tracer.recording = false;
            for (ms, ..) in session_pass(env, &list, base, tracer, &mut book) {
                book.push("front.untraced_ms", ms);
            }
            tracer.recording = true;
        }
        let before = registry.snapshot();
        let pass = session_pass(env, &list, base, tracer, &mut book);
        if session_front {
            if first {
                let given: f64 = pass.iter().map(|(_, bytes, _)| bytes).sum();
                front_counts(&mut book, &before, &registry.snapshot(), given);
            }
            attempted += list.len();
        }
        for (n, (ms, _, failure)) in pass.into_iter().enumerate() {
            d1[n] = ms;
            if session_front {
                front[n] = ms;
                book.push("front.traced_ms", ms);
                book.push(list[n].kind.names()[2], ms);
                failures.extend(failure);
            }
        }

        // d2: the operations layer, same arguments.
        for (n, op) in list.iter().enumerate() {
            let op = retarget(op, n);
            let out_dir = format!("{}d2-{}", load::OUTPUT_PREFIX, base + n);
            let (obs, ms) = tracer.time(base + n, "d2.ops", Some("d1.pigeon"), || {
                call_ops(env, data, &op, &out_dir)
            });
            let obs = obs.map_err(|e| format!("d2 `{}`: {e}", op.line))?;
            d2[n] = ms;
            book.push(op.kind.names()[3], ms);
            book.push("mapreduce.map_ms", obs.map_ms);
            book.push("mapreduce.shuffle_ms", obs.shuffle_ms);
            book.push("mapreduce.reduce_ms", obs.reduce_ms);
            if first {
                book.add("ops", 1.0);
                book.add("jobs", obs.jobs);
                book.add("map_tasks", obs.map_tasks);
                book.add("shuffle_bytes", obs.shuffle_bytes);
                book.add("task_retries", obs.task_retries);
                if op.kind == Kind::Knn {
                    book.add("knn_ops", 1.0);
                    book.add("knn_rounds", obs.jobs);
                }
                if op.kind == Kind::Join {
                    book.add("join_considered", obs.join_considered);
                    book.add("join_rows", obs.rows);
                }
                // Only index-backed range and kNN ops know how many
                // records their surviving partitions hold.
                if obs.records_scanned > 0.0 {
                    book.add("pruned_ops", 1.0);
                    book.add("partitions_total", obs.partitions_total);
                    book.add("partitions_pruned", obs.partitions_pruned);
                    book.add("partitions_scanned", obs.partitions_scanned);
                    book.add("records_scanned", obs.records_scanned);
                    book.add("records_emitted", obs.rows);
                }
            }
            clean(env, &op);
        }

        // d3: the leaves of range ops, called by the benchmark itself.
        for (n, op) in list.iter().enumerate() {
            if let Args::Range { src, q } = &op.args {
                let leaves = leaves(env, src, q, base + n, tracer, &mut book)?;
                let overhead = self_time(leaves.noop_job_ms, leaves.read_ms);
                book.push("mapreduce.job_overhead_ms", overhead);
                let above = self_time(front[n], d1[n]) + self_time(d1[n], d2[n]) + overhead;
                book.push("bench.framework_frac", ratio(above, front[n]));
                book.push("bench.storage_frac", ratio(leaves.leaf_ms, front[n]));
                book.push(
                    "bench.unattributed_frac",
                    ratio(
                        d2[n] - leaves.prune_ms - overhead - leaves.leaf_ms,
                        front[n],
                    ),
                );
                load::sweep_outputs(&env.dfs);
            }
        }

        for n in 0..list.len() {
            if !session_front {
                book.push("server.self_ms", self_time(front[n], d1[n]));
            }
            book.push("pigeon.self_ms", self_time(d1[n], d2[n]));
        }
        cycles += 1;
        last_cycle = t0.elapsed();
    }

    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    for name in [
        "e2e.range_ms",
        "e2e.knn_ms",
        "e2e.join_ms",
        "e2e.index_ms",
        "e2e.cg_ms",
        "e2e.ttfb_ms",
        "server.self_ms",
        "server.stream_ms",
        "pigeon.parse_us",
        "pigeon.self_ms",
        "mapreduce.job_overhead_ms",
        "ops.range_ms",
        "ops.knn_ms",
        "ops.join_ms",
        "ops.index_ms",
        "ops.cg_ms",
        "mrlayer.prune_us",
        "mrlayer.open_text_us_per_part",
        "mrlayer.open_binary_us_per_part",
        "mrlayer.open_warm_us_per_part",
        "mrlayer.search_us_per_part",
        "bench.framework_frac",
        "bench.storage_frac",
        "bench.unattributed_frac",
    ] {
        layers.insert(name, book.median(name));
    }
    // Most ops have no shuffle or reduce at all, so these are means.
    for name in [
        "mapreduce.map_ms",
        "mapreduce.shuffle_ms",
        "mapreduce.reduce_ms",
    ] {
        layers.insert(name, book.mean(name));
    }
    layers.insert(
        "bench.trace_overhead_frac",
        ratio(
            book.median("front.traced_ms"),
            book.median("front.untraced_ms"),
        ) - 1.0,
    );
    book.add("one", 1.0);
    book.add(
        "cache_lookups",
        book.count("cache_hits") + book.count("cache_misses"),
    );
    // Exact counts: sums over the first cycle, per what they are counted
    // against. User bytes are what the front door was given to index or
    // gave back as rows.
    for (name, sum, per) in [
        ("server.frames_per_op", "frames", "ops"),
        ("server.bytes_out_per_op", "wire_bytes", "ops"),
        ("server.query_micros_p50", "server.query_micros_p50", "one"),
        ("mapreduce.sched_wait_us_p50", "sched_wait_us_p50", "one"),
        ("mapreduce.slot_wait_us_p50", "slot_wait_us_p50", "one"),
        ("mapreduce.map_tasks_per_op", "map_tasks", "ops"),
        ("mapreduce.shuffle_bytes_per_op", "shuffle_bytes", "ops"),
        ("mapreduce.jobs_per_op", "jobs", "ops"),
        ("mapreduce.task_retries", "task_retries", "one"),
        ("ops.knn_rounds_per_op", "knn_rounds", "knn_ops"),
        (
            "ops.join_pairs_considered_per_result",
            "join_considered",
            "join_rows",
        ),
        (
            "mrlayer.pruning_ratio",
            "partitions_pruned",
            "partitions_total",
        ),
        (
            "mrlayer.partitions_scanned_per_op",
            "partitions_scanned",
            "pruned_ops",
        ),
        (
            "mrlayer.records_scanned_per_result",
            "records_scanned",
            "records_emitted",
        ),
        ("dfs.blocks_read_per_op", "blocks_read", "ops"),
        ("dfs.bytes_read_per_op", "bytes_read", "ops"),
        ("dfs.remote_read_frac", "bytes_read_remote", "bytes_read"),
        ("dfs.cache_hit_ratio", "cache_hits", "cache_lookups"),
        ("dfs.cache_evictions_per_op", "cache_evictions", "ops"),
        (
            "dfs.bytes_written_per_user_byte",
            "bytes_written",
            "user_bytes",
        ),
    ] {
        layers.insert(name, ratio(book.count(sum), book.count(per)));
    }

    if w == Workload::IngestIndex {
        // One cycle's worth of indexes beside the heap files.
        for (n, op) in list.iter().enumerate() {
            workloads::session_op(env, n, &retarget(op, n));
        }
    }
    layers.insert(
        "dfs.stored_bytes_per_user_byte",
        ratio(workloads::stored_bytes(&env.dfs) as f64, user_bytes),
    );
    if w == Workload::IngestIndex {
        storage::delete_dir(&env.dfs, "/ix");
    }

    if w == Workload::ServeMixed {
        // How late a lone generator thread runs at the lowest rung.
        let phase = load::open_loop(
            &env.dfs,
            &mut env.clients,
            &plan.ops,
            &plan.order,
            workloads::RUNGS_QPS[0],
            0..150,
        );
        let mut lag: Vec<f64> = phase.samples.iter().map(|s| s.lag_ms).collect();
        stats::sort(&mut lag);
        layers.insert("bench.gen_lag_ms_p99", stats::percentile_sorted(&lag, 99.0));
        attempted += phase.samples.len();
        failures.extend(phase.samples.into_iter().filter_map(|s| s.failure));
    }
    kernels(env, data, &mut layers)?;
    let run_delta = registry.snapshot().since(&run_start);
    layers.insert(
        "dfs.integrity_corrupt",
        run_delta.counter("dfs.integrity.corrupt") as f64,
    );
    layers.insert(
        "dfs.integrity_repaired",
        run_delta.counter("dfs.integrity.repaired") as f64,
    );
    Ok(Traced {
        layers,
        attempted,
        cycles,
        failures,
    })
}

/// `INDEX` ops build into a directory of their own; other ops pass
/// through.
fn retarget(op: &Op, n: usize) -> Op {
    match op.kind {
        Kind::Index => op.index_into(format!("/ix/{n}")),
        _ => op.clone(),
    }
}

/// Removes what an op left in the DFS.
fn clean(env: &Env, op: &Op) {
    load::sweep_outputs(&env.dfs);
    if let Args::Index { dir, .. } = &op.args {
        storage::delete_dir(&env.dfs, dir);
    }
}

/// d1 over the list: each line parsed and executed on the in-process
/// session. Returns per op its milliseconds, the bytes the user gave
/// (`INDEX`: the heap file) or got back (rows), and why it failed.
fn session_pass(
    env: &mut Env,
    list: &[&Op],
    base: usize,
    tracer: &mut Tracer,
    book: &mut Book,
) -> Vec<(f64, f64, Option<String>)> {
    let parent = (!env.clients.is_empty()).then_some("d0.wire");
    let mut pass = Vec::with_capacity(list.len());
    for (n, op) in list.iter().enumerate() {
        let op = retarget(op, n);
        let (rows, ms) = tracer.time(base + n, "d1.pigeon", parent, || {
            workloads::run_lines(&mut env.engine, &mut env.sess, &op.line)
        });
        let (_, parse_ms) = tracer.time(base + n, "d1.parse", Some("d1.pigeon"), || {
            std::hint::black_box(parser::parse(&op.line)).is_ok()
        });
        book.push("pigeon.parse_us", parse_ms * 1e3);
        let (bytes, failure) = match rows {
            Ok(rows) => {
                let bytes = match &op.args {
                    Args::Index { rects, .. } => {
                        let heap = if *rects { "/in/r" } else { "/in/p" };
                        env.dfs.stat(heap).map_or(0, |s| s.len) as f64
                    }
                    _ => rows.iter().map(|r| r.len() + 1).sum::<usize>() as f64,
                };
                let wrong = op.check(rows.iter().map(String::as_str)).err();
                (bytes, wrong.map(|why| format!("`{}`: {why}", op.line)))
            }
            Err(e) => (0.0, Some(e)),
        };
        pass.push((ms, bytes, failure));
        clean(env, &op);
    }
    pass
}

struct WireObs {
    ttfb_ms: Option<f64>,
    bytes: usize,
}

/// d0: one request through the wire.
fn wire(
    client: &mut ShClient,
    op: &Op,
    op_id: usize,
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
) -> (WireObs, f64) {
    let sent = Instant::now();
    let (reply, ms) = tracer.time(op_id, "d0.wire", None, || client.request(&op.line));
    match reply {
        Ok(reply) => {
            if let Err(why) = op.check(reply.payload.lines()) {
                failures.push(format!("`{}`: {why}", op.line));
            }
            let obs = WireObs {
                ttfb_ms: reply
                    .first_data
                    .map(|t| t.duration_since(sent).as_secs_f64() * 1e3),
                bytes: reply.payload.len(),
            };
            (obs, ms)
        }
        Err(e) => {
            failures.push(format!("`{}`: i/o: {e}", op.line));
            (
                WireObs {
                    ttfb_ms: None,
                    bytes: 0,
                },
                ms,
            )
        }
    }
}

/// Registry deltas over the front-door pass of the first cycle.
fn front_counts(
    book: &mut Book,
    before: &RegistrySnapshot,
    after: &RegistrySnapshot,
    user_bytes: f64,
) {
    let delta = after.since(before);
    let c = |key: &str| delta.counter(key) as f64;
    book.add("user_bytes", user_bytes);
    book.add("frames", c("server.frames.sent"));
    book.add("blocks_read", c("dfs.blocks.read"));
    book.add("bytes_read_remote", c("dfs.bytes.read.remote"));
    book.add(
        "bytes_read",
        c("dfs.bytes.read.local") + c("dfs.bytes.read.remote"),
    );
    book.add("bytes_written", c("dfs.bytes.written"));
    book.add("cache_hits", c("dfs.cache.hits"));
    book.add("cache_misses", c("dfs.cache.misses"));
    book.add("cache_evictions", c("dfs.cache.evictions"));
    for (name, key) in [
        ("server.query_micros_p50", "server.query.micros"),
        ("sched_wait_us_p50", "sched.wait.micros"),
        ("slot_wait_us_p50", "sched.slot.wait.micros"),
    ] {
        book.add(name, histogram_delta_p50(before, after, key));
    }
}

/// Median of what a registry histogram took in between two snapshots
/// (the upper bound of the median's log2 bucket).
fn histogram_delta_p50(before: &RegistrySnapshot, after: &RegistrySnapshot, key: &str) -> f64 {
    let Some(later) = after.histograms.get(key) else {
        return 0.0;
    };
    let earlier: BTreeMap<usize, u64> = before
        .histograms
        .get(key)
        .map(|h| h.nonzero_buckets().into_iter().collect())
        .unwrap_or_default();
    let delta: Vec<(usize, u64)> = later
        .nonzero_buckets()
        .into_iter()
        .map(|(i, n)| (i, n - earlier.get(&i).copied().unwrap_or(0).min(n)))
        .filter(|(_, n)| *n > 0)
        .collect();
    Histogram::from_parts(&delta, 0, 0, later.max()).quantile(0.5) as f64
}

/// What the operations layer returned for one op.
#[derive(Default)]
struct OpsObs {
    rows: f64,
    jobs: f64,
    map_tasks: f64,
    shuffle_bytes: f64,
    task_retries: f64,
    map_ms: f64,
    shuffle_ms: f64,
    reduce_ms: f64,
    partitions_total: f64,
    partitions_pruned: f64,
    partitions_scanned: f64,
    records_scanned: f64,
    join_considered: f64,
}

fn observe<T>(r: &OpResult<T>, rows: usize) -> OpsObs {
    let wave_ms = |name: &str| -> f64 {
        r.jobs
            .iter()
            .filter_map(|j| j.profile.spans.as_ref()?.find(name))
            .map(|s| s.duration.as_secs_f64() * 1e3)
            .fold(0.0, |a, b| a + b)
    };
    let sel = r.selectivity();
    OpsObs {
        rows: rows as f64,
        jobs: r.rounds() as f64,
        map_tasks: r.map_tasks() as f64,
        shuffle_bytes: r.jobs.iter().map(|j| j.profile.shuffle_bytes).sum::<u64>() as f64,
        task_retries: r.jobs.iter().map(|j| j.profile.task_retries).sum::<u64>() as f64,
        map_ms: wave_ms("map-wave"),
        shuffle_ms: wave_ms("shuffle"),
        reduce_ms: wave_ms("reduce-wave"),
        partitions_total: sel.partitions_total as f64,
        partitions_pruned: sel.partitions_pruned as f64,
        partitions_scanned: sel.partitions_scanned as f64,
        records_scanned: sel.records_scanned as f64,
        join_considered: r.counter("join.pairs.considered") as f64,
    }
}

/// d2: the call Pigeon would make for this op, made directly.
fn call_ops(env: &Env, data: &Data, op: &Op, out: &str) -> Result<OpsObs, String> {
    let dfs = &env.dfs;
    let bound = |var: &str| {
        env.sess
            .get(var)
            .ok_or_else(|| format!("{var} is not bound"))
    };
    let e = |e: sh_core::OpError| e.to_string();
    Ok(match &op.args {
        Args::Range { src, q } => match bound(src)? {
            Bound::Indexed { file, .. } => {
                let r = range::range_spatial::<Point>(dfs, file, q, out).map_err(e)?;
                observe(&r, r.value.len())
            }
            Bound::Heap { path, .. } => {
                let r = range::range_hadoop::<Point>(dfs, path, q, out).map_err(e)?;
                observe(&r, r.value.len())
            }
            Bound::Result(_) => return Err(format!("{src} is a result set")),
        },
        Args::Knn { src, q, k } => match bound(src)? {
            Bound::Indexed { file, .. } => {
                let r = knn::knn_spatial(dfs, file, q, *k, out).map_err(e)?;
                observe(&r, r.value.len())
            }
            Bound::Heap { path, .. } => {
                let r = knn::knn_hadoop(dfs, path, q, *k, out).map_err(e)?;
                observe(&r, r.value.len())
            }
            Bound::Result(_) => return Err(format!("{src} is a result set")),
        },
        Args::Join { left, right } => match (bound(left)?, bound(right)?) {
            (Bound::Indexed { file: a, .. }, Bound::Indexed { file: b, .. }) => {
                let r = join::distributed_join(dfs, a, b, out).map_err(e)?;
                observe(&r, r.value.len())
            }
            (Bound::Heap { path: a, .. }, Bound::Heap { path: b, .. }) => {
                // Pigeon reads both files to find this universe before it
                // calls SJMR; that read is Pigeon's own time.
                let mut universe = Rect::empty();
                for r in data.left.iter().chain(&data.right) {
                    universe.expand(r);
                }
                let r = join::sjmr(dfs, a, b, &universe, 16, out).map_err(e)?;
                observe(&r, r.value.len())
            }
            _ => return Err("JOIN needs two heap files or two indexed files".to_string()),
        },
        Args::Skyline { src } | Args::Hull { src } => {
            let Bound::Heap { path, .. } = bound(src)? else {
                return Err(format!("{src} is not a heap file"));
            };
            let r = match &op.args {
                Args::Skyline { .. } => skyline::skyline_hadoop(dfs, path, out),
                _ => convex_hull::hull_hadoop(dfs, path, out),
            }
            .map_err(e)?;
            observe(&r, r.value.len())
        }
        Args::Index {
            src,
            rects,
            kind,
            format,
            dir,
        } => {
            let Bound::Heap { path, .. } = bound(src)? else {
                return Err(format!("{src} is not a heap file"));
            };
            let r = if *rects {
                storage::build_index_fmt::<Rect>(dfs, path, dir, *kind, *format)
            } else {
                storage::build_index_fmt::<Point>(dfs, path, dir, *kind, *format)
            }
            .map_err(e)?;
            observe(&r, 0)
        }
    })
}

struct NoopMapper;

impl Mapper for NoopMapper {
    type K = u8;
    type V = u8;

    fn map(&self, _: &InputSplit, _: &str, _: &mut MapContext<u8, u8>) {}

    fn map_bytes(&self, _: &InputSplit, _: &[u8], _: &mut MapContext<u8, u8>) {}
}

struct Leaves {
    prune_ms: f64,
    /// DFS reads of the surviving splits (checksum included).
    read_ms: f64,
    /// Everything that touches the data: read, open, search and render
    /// in the map tasks, then the rows' way to the driver.
    leaf_ms: f64,
    /// A job over the same splits whose mapper does nothing.
    noop_job_ms: f64,
}

/// d3 for a range op: what `range_spatial` / `range_hadoop` have their
/// map tasks do, done here call by call.
fn leaves(
    env: &Env,
    src: &str,
    q: &Rect,
    op_id: usize,
    tracer: &mut Tracer,
    book: &mut Book,
) -> Result<Leaves, String> {
    let dfs = &env.dfs;
    let parent = Some("d2.ops");
    let mut out = Leaves {
        prune_ms: 0.0,
        read_ms: 0.0,
        leaf_ms: 0.0,
        noop_job_ms: 0.0,
    };
    let mut rows: Vec<String> = Vec::new();
    let splits = match env.sess.get(src) {
        Some(Bound::Indexed { file, .. }) => {
            let (splits, ms) = tracer.time(op_id, "d3.prune", parent, || {
                SpatialFileSplitter::splits(dfs, file, |m| m.mbr_rect().intersects(q))
            });
            out.prune_ms = ms;
            book.push("mrlayer.prune_us", ms * 1e3);
            let splits = splits.map_err(|e| e.to_string())?;
            for split in &splits {
                let (bytes, read_ms) =
                    tracer.time(op_id, "d3.read", parent, || dfs.read_bytes(&split.path));
                let bytes = bytes.map_err(|e| e.to_string())?;
                tracer.time(op_id, "d3.crc64", Some("d3.read"), || {
                    std::hint::black_box(crc64(&bytes))
                });
                // Open it as the op finds it — cached or not — which is
                // what the op pays; then once more in the other state, so
                // that both costs are known on every workload. A cold open
                // parses or decodes and loads the sidecar.
                let cold_metric = if colblock::is_binary(&bytes) {
                    "mrlayer.open_binary_us_per_part"
                } else {
                    "mrlayer.open_text_us_per_part"
                };
                let mut open = |name: &'static str| {
                    tracer.time(op_id, name, parent, || {
                        SpatialRecordReader::open_indexed_bytes::<Point>(dfs, &split.path, &bytes)
                    })
                };
                let (found, open_ms) = open("d3.open");
                let (part, was_cached) = found.map_err(|e| e.to_string())?;
                if was_cached {
                    book.push("mrlayer.open_warm_us_per_part", open_ms * 1e3);
                    dfs.cache().invalidate(&split.path);
                    let (again, cold_ms) = open("d3.open_other");
                    if matches!(again, Ok((_, false))) {
                        book.push(cold_metric, cold_ms * 1e3);
                    }
                } else {
                    book.push(cold_metric, open_ms * 1e3);
                    // A hit only if the budget can keep this partition.
                    let (again, warm_ms) = open("d3.open_other");
                    if matches!(again, Ok((_, true))) {
                        book.push("mrlayer.open_warm_us_per_part", warm_ms * 1e3);
                    }
                }
                let (hits, search_ms) =
                    tracer.time(op_id, "d3.search", parent, || part.tree().query(q));
                book.push("mrlayer.search_us_per_part", search_ms * 1e3);
                let (_, render_ms) = tracer.time(op_id, "d3.render", parent, || {
                    for &i in &hits {
                        let mut line = String::new();
                        part.write_record(i, &mut line);
                        rows.push(line);
                    }
                });
                out.read_ms += read_ms;
                out.leaf_ms += read_ms + open_ms + search_ms + render_ms;
            }
            splits
        }
        Some(Bound::Heap { path, .. }) => {
            let splits = InputSplit::from_file(dfs, path).map_err(|e| e.to_string())?;
            let (bytes, read_ms) = tracer.time(op_id, "d3.read", parent, || dfs.read_bytes(path));
            let bytes = bytes.map_err(|e| e.to_string())?;
            tracer.time(op_id, "d3.crc64", Some("d3.read"), || {
                std::hint::black_box(crc64(&bytes))
            });
            let text = std::str::from_utf8(&bytes).map_err(|e| e.to_string())?;
            let (records, parse_ms) = tracer.time(op_id, "d3.parse", parent, || {
                SpatialRecordReader::records::<Point>(text)
            });
            let (_, filter_ms) = tracer.time(op_id, "d3.search", parent, || {
                for r in records.iter().filter(|r| r.mbr().intersects(q)) {
                    rows.push(r.to_line());
                }
            });
            out.read_ms = read_ms;
            out.leaf_ms = read_ms + parse_ms + filter_ms;
            splits
        }
        _ => return Err(format!("{src} is not a dataset")),
    };
    // The op hands its rows to the driver through the DFS: the job writes
    // them to its output file, the driver reads the file back and parses
    // every line.
    let result = format!("{}rows-{op_id}", load::OUTPUT_PREFIX);
    let (handed, handover_ms) = tracer.time(op_id, "d3.result", parent, || {
        let mut w = dfs.create(&result)?;
        for row in &rows {
            w.write_line(row);
        }
        w.close()?;
        let text = dfs.read_to_string(&result)?;
        Ok::<_, sh_dfs::DfsError>(
            text.lines()
                .filter(|l| Point::parse_line(l).is_ok())
                .count(),
        )
    });
    if handed.map_err(|e| e.to_string())? != rows.len() {
        return Err(format!("{result}: rows lost on the way through the DFS"));
    }
    out.leaf_ms += handover_ms;
    let out_dir = format!("{}noop-{op_id}", load::OUTPUT_PREFIX);
    let (job, ms) = tracer.time(op_id, "d3.noop_job", parent, || {
        JobBuilder::new(dfs, "noop")
            .input_splits(splits)
            .mapper(NoopMapper)
            .output(&out_dir)
            .map_only()
            .and_then(|job| job.run())
    });
    job.map_err(|e| e.to_string())?;
    out.noop_job_ms = ms;
    Ok(out)
}

/// Median seconds of `f` over `runs` runs.
fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    stats::median(
        (0..runs)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Records of one partition at the shipped block size.
const PARTITION_RECORDS: usize = 2048;

/// Single-layer kernels on the workload's own records and blocks.
fn kernels(
    env: &mut Env,
    data: &Data,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let dfs = env.dfs.clone();
    let points = &data.points;
    let chunk = &points[..points.len().min(PARTITION_RECORDS)];
    let mb = |bytes: usize| bytes as f64 / 1e6;
    let mrec = |records: usize| records as f64 / 1e6;

    // sh-geom: the text codec over the heap file's lines.
    let mut text = String::new();
    let write_s = median_secs(5, || {
        text.clear();
        for p in points {
            p.write_line(&mut text);
            text.push('\n');
        }
    });
    layers.insert("geom.write_mrec_per_s", mrec(points.len()) / write_s);
    let parse_s = median_secs(5, || {
        for line in text.lines() {
            std::hint::black_box(Point::parse_line(line).is_ok());
        }
    });
    layers.insert("geom.parse_mrec_per_s", mrec(points.len()) / parse_s);

    // sh-core::colblock on one partition's worth of records.
    let block = colblock::encode(chunk).map_err(|e| e.to_string())?;
    let rounds = 200;
    let encode_s = median_secs(5, || {
        for _ in 0..rounds {
            std::hint::black_box(colblock::encode(std::hint::black_box(chunk)).is_ok());
        }
    });
    layers.insert(
        "colblock.encode_mb_per_s",
        mb(block.len() * rounds) / encode_s,
    );
    let decode_s = median_secs(5, || {
        for _ in 0..rounds {
            std::hint::black_box(colblock::decode(std::hint::black_box(&block)).is_ok());
        }
    });
    layers.insert(
        "colblock.decode_mb_per_s",
        mb(block.len() * rounds) / decode_s,
    );
    let decoded = colblock::decode(&block).map_err(|e| e.to_string())?;
    let u = data.universe;
    let window = Rect::new(
        u.x1 + u.width() / 4.0,
        u.y1 + u.height() / 4.0,
        u.x2 - u.width() / 4.0,
        u.y2 - u.height() / 4.0,
    );
    let filter_s = median_secs(5, || {
        for _ in 0..rounds {
            std::hint::black_box(decoded.mbr_filter(std::hint::black_box(&window)));
        }
    });
    layers.insert(
        "colblock.mbr_filter_mrec_per_s",
        mrec(chunk.len() * rounds) / filter_s,
    );

    // sh-index: global partitioner and local tree.
    let sample: Vec<Point> = points.iter().step_by(100).copied().collect();
    let target = (text.len() as u64).div_ceil(dfs.config().block_size) as usize;
    let mut built = None;
    let build_s = median_secs(5, || {
        built = Some(GlobalPartitioning::build(
            PartitionKind::StrPlus,
            &sample,
            u,
            target,
        ));
    });
    layers.insert("index.partitioner_build_us", build_s * 1e6);
    let gp = built.expect("built five times");
    let assign_s = median_secs(5, || {
        for p in points {
            std::hint::black_box(gp.assign(&p.mbr()));
        }
    });
    layers.insert("index.assign_mrec_per_s", mrec(points.len()) / assign_s);
    let rects: Vec<Rect> = chunk.iter().map(Record::mbr).collect();
    let tree_s = median_secs(5, || {
        for _ in 0..20 {
            std::hint::black_box(LocalRTree::build(rects.clone()));
        }
    });
    layers.insert(
        "index.rtree_build_mrec_per_s",
        mrec(chunk.len() * 20) / tree_s,
    );
    layers.insert(
        "index.sidecar_bytes_per_record",
        LocalRTree::build(rects).to_bytes().len() as f64 / chunk.len() as f64,
    );

    // sh-core::storage and sh-dfs on the heap file.
    let path = "/kernel/heap";
    let mut failed = None;
    let upload_s = median_secs(3, || {
        dfs.delete(path);
        failed = storage::upload(&dfs, path, points).err();
    });
    if let Some(e) = failed {
        return Err(format!("upload {path}: {e}"));
    }
    layers.insert("storage.upload_mb_per_s", mb(text.len()) / upload_s);
    let bytes = dfs.read_bytes(path).map_err(|e| e.to_string())?;
    let read_s = median_secs(5, || {
        std::hint::black_box(dfs.read_bytes(path).is_ok());
    });
    layers.insert("dfs.read_mb_per_s", mb(bytes.len()) / read_s);
    let crc_s = median_secs(5, || {
        std::hint::black_box(crc64(std::hint::black_box(&bytes)));
    });
    layers.insert("dfs.crc64_mb_per_s", mb(bytes.len()) / crc_s);
    let write_s = median_secs(3, || {
        dfs.delete("/kernel/copy");
        let mut w = dfs.create("/kernel/copy").expect("path was just deleted");
        w.write_chunk(&bytes);
        failed = w.close().err();
    });
    if let Some(e) = failed {
        return Err(format!("write /kernel/copy: {e}"));
    }
    layers.insert("dfs.write_mb_per_s", mb(bytes.len()) / write_s);
    // Aggregate read rate with one reader per core over the rate of one:
    // below the core count, reads serialise somewhere.
    let readers = crate::nproc();
    let together_s = median_secs(3, || {
        std::thread::scope(|s| {
            for _ in 0..readers {
                s.spawn(|| std::hint::black_box(dfs.read_bytes(path).is_ok()));
            }
        });
    });
    layers.insert("dfs.read_scaling", readers as f64 * read_s / together_s);
    dfs.delete(path);
    dfs.delete("/kernel/copy");

    // sh-mapreduce: a job that does nothing, through the scheduler.
    let own;
    let sched = match &env.server {
        Some(server) => server.scheduler(),
        None => {
            own = JobScheduler::new(&dfs, SchedConfig::default());
            &own
        }
    };
    let mut trips = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        sched
            .submit("noop", |_: &Dfs| ())
            .map_err(|e| e.to_string())?
            .join()
            .map_err(|e| e.to_string())?;
        trips.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    layers.insert("mapreduce.sched_roundtrip_us", stats::median(trips));
    if env.server.is_none() {
        sched.shutdown();
    }

    // sh-server: what a client that did not keep its connection would pay.
    if let Some(server) = &env.server {
        let mut setups = Vec::new();
        for _ in 0..9 {
            let conn = ShClient::connect(&server.addr()).map_err(|e| e.to_string())?;
            setups.push(conn.setup.as_secs_f64() * 1e3);
        }
        layers.insert("server.conn_setup_ms", stats::median(setups));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two traced passes of one seed agree on every count, digit for
    /// digit, and answer every op as the oracle does. One test walks all
    /// four workloads in turn: the registry is process-wide, so traced
    /// passes must not overlap.
    #[test]
    fn counts_repeat_exactly_for_one_seed() {
        for w in Workload::ALL {
            let pass = || {
                let sizes = w.tiny();
                let data = w.generate(11, sizes);
                let plan = w.plan(11, sizes, &data);
                let mut env = w.setup(&data, &plan, 1, Some(1)).expect("set-up");
                let mut tracer = Tracer::new();
                let traced =
                    traced(w, &mut env, &data, &plan, 0.0, &mut tracer).expect("traced pass");
                assert_eq!(traced.failures, Vec::<String>::new(), "{}", w.name());
                assert_eq!(traced.cycles, 1);
                assert!(tracer.spans.iter().all(|s| s.end_ns >= s.start_ns));
                traced.layers
            };
            let (first, second) = (pass(), pass());
            for name in spec::EXACT {
                assert_eq!(
                    first.get(name).map(|v| v.to_bits()),
                    second.get(name).map(|v| v.to_bits()),
                    "{} {name}: {:?} then {:?}",
                    w.name(),
                    first.get(name),
                    second.get(name)
                );
            }
            // The workloads differ where they are meant to.
            let cache = first["dfs.cache_hit_ratio"];
            match w {
                Workload::ServeMixed => assert_eq!(cache, 1.0, "everything fits"),
                Workload::ServeScan => assert!(cache < 1.0, "the LRU must churn"),
                _ => assert_eq!(first["mrlayer.pruning_ratio"], 0.0, "nothing to prune"),
            }
            for name in first.keys() {
                assert!(
                    spec::PER_LAYER.iter().any(|m| m.name == *name),
                    "{name} is not in the spec"
                );
            }
        }
    }

    #[test]
    fn spans_serialise_one_object_per_line() {
        let mut tracer = Tracer::new();
        tracer.time(3, "d0.wire", None, || ());
        tracer.time(3, "d1.pigeon", Some("d0.wire"), || ());
        tracer.recording = false;
        tracer.time(4, "d0.wire", None, || ());
        let lines: Vec<String> = tracer.to_jsonl().lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 2, "spans are kept only while recording");
        let span = sh_trace::json::parse(&lines[1]).unwrap();
        assert_eq!(span.get("op_id").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(span.get("name").and_then(|v| v.as_str()), Some("d1.pigeon"));
        assert_eq!(span.get("parent").and_then(|v| v.as_str()), Some("d0.wire"));
        assert!(
            span.get("end_ns").and_then(|v| v.as_u64())
                >= span.get("start_ns").and_then(|v| v.as_u64())
        );
    }
}
