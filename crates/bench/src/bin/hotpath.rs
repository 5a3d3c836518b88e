//! Query hot-path benchmark: cold vs. warm wall-clock over the per-node
//! block cache and persisted local indexes.
//!
//! ```text
//! cargo run -p sh-bench --release --bin hotpath            # BENCH_hotpath.json
//! cargo run -p sh-bench --release --bin hotpath -- out.json
//! ```
//!
//! The workload repeats the same range queries and distributed join over
//! indexed files. Iteration 0 runs against an empty cache (cold: every
//! partition is parsed from block bytes and its persisted `_lidx`
//! topology is validated against the records' MBRs); later iterations hit
//! the cache (warm: parsed records and loaded trees are shared via
//! `Arc`). The process exits non-zero if the warm path is not faster than
//! the cold one, so CI can gate on it.
//!
//! A second pair of sweeps runs the range queries cold over a text and a
//! binary index of the same points and asserts the answers are equal.
//! Their two times and the ratio are printed and recorded; the ratio is
//! not a gate: both formats load the same `SHLX` sidecar, so it compares
//! parsing lines with decoding columns and nothing else, and on a small
//! host it moves with the noise of two ≈ 10 ms sweeps.

use std::time::Instant;

use sh_bench::{fresh_dfs, BLOCK};
use sh_core::ops::{join, range};
use sh_core::storage::{build_index, build_index_fmt, upload, BlockFormat};
use sh_geom::{Point, Rect};
use sh_index::PartitionKind;
use sh_workload::{default_universe, points, rects, Distribution};

const POINTS: usize = 200_000;
const RECTS: usize = 40_000;
const RANGE_QUERIES: usize = 24;
const ITERATIONS: usize = 5;

struct Iter {
    wall_secs: f64,
    cache_hits: u64,
    cache_misses: u64,
    results: u64,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_hotpath.json".to_string());

    let uni = default_universe();
    let dfs = fresh_dfs(BLOCK);

    // Datasets: one point file for range queries, two rect files for the
    // distributed join. All indexed, so every query partition carries a
    // persisted local-index sidecar.
    let pts = points(POINTS, Distribution::Uniform, &uni, 11);
    upload(&dfs, "/hp/points", &pts).expect("upload points");
    let pfile = build_index::<Point>(&dfs, "/hp/points", "/hp/ipoints", PartitionKind::StrPlus)
        .expect("index points")
        .value;
    let ra = rects(RECTS, &uni, 500.0, 12);
    let rb = rects(RECTS, &uni, 500.0, 13);
    upload(&dfs, "/hp/ra", &ra).expect("upload ra");
    upload(&dfs, "/hp/rb", &rb).expect("upload rb");
    let fa = build_index::<Rect>(&dfs, "/hp/ra", "/hp/ira", PartitionKind::StrPlus)
        .expect("index ra")
        .value;
    let fb = build_index::<Rect>(&dfs, "/hp/rb", "/hp/irb", PartitionKind::StrPlus)
        .expect("index rb")
        .value;

    // Fixed query mix reused every iteration.
    let queries: Vec<Rect> = rects(RANGE_QUERIES, &uni, 30_000.0, 14);

    // Index-build map tasks touch partition paths; start from a truly
    // cold cache so iteration 0 measures the full parse+load path.
    dfs.cache().clear();

    let mut iters: Vec<Iter> = Vec::new();
    let mut baseline: Option<(Vec<String>, Vec<String>)> = None;
    for it in 0..ITERATIONS {
        let before = dfs.cache().stats();
        let t0 = Instant::now();
        let mut range_lines: Vec<String> = Vec::new();
        let mut results = 0u64;
        for (qi, q) in queries.iter().enumerate() {
            let r = range::range_spatial::<Point>(&dfs, &pfile, q, &format!("/hp/out/r{it}-{qi}"))
                .expect("range query");
            results += r.value.len() as u64;
            let mut lines: Vec<String> = r
                .value
                .iter()
                .map(|p| {
                    let mut s = String::new();
                    use sh_geom::Record;
                    p.write_line(&mut s);
                    s
                })
                .collect();
            lines.sort();
            range_lines.extend(lines);
        }
        let dj = join::distributed_join(&dfs, &fa, &fb, &format!("/hp/out/dj{it}"))
            .expect("distributed join");
        results += dj.value.len() as u64;
        let mut dj_lines: Vec<String> = dj
            .value
            .iter()
            .map(|(a, b)| sh_core::codec::encode_pair(a, b))
            .collect();
        dj_lines.sort();
        let wall_secs = t0.elapsed().as_secs_f64();
        let after = dfs.cache().stats();
        iters.push(Iter {
            wall_secs,
            cache_hits: after.hits - before.hits,
            cache_misses: after.misses - before.misses,
            results,
        });

        // Warm answers must be byte-identical to cold ones.
        match &baseline {
            None => baseline = Some((range_lines, dj_lines)),
            Some((r0, d0)) => {
                assert_eq!(r0, &range_lines, "warm range output diverged from cold");
                assert_eq!(d0, &dj_lines, "warm join output diverged from cold");
            }
        }
    }

    let cold = iters[0].wall_secs;
    let warm: f64 = iters[1..].iter().map(|i| i.wall_secs).sum::<f64>() / (iters.len() - 1) as f64;
    let speedup = cold / warm;
    let stats = dfs.cache().stats();

    // Format comparison: the same cold range sweep over a text-format and
    // a binary-format index of the same points. The cache is cleared
    // before every query, so each one pays the full partition-open path —
    // text parses every line, binary decodes coordinate columns.
    let bfile = build_index_fmt::<Point>(
        &dfs,
        "/hp/points",
        "/hp/bpoints",
        PartitionKind::StrPlus,
        BlockFormat::Binary,
    )
    .expect("binary index")
    .value;
    let cold_sweep = |file: &sh_core::SpatialFile, tag: &str| -> (f64, Vec<String>) {
        let mut lines: Vec<String> = Vec::new();
        let t0 = Instant::now();
        for (qi, q) in queries.iter().enumerate() {
            dfs.cache().clear();
            let r = range::range_spatial::<Point>(&dfs, file, q, &format!("/hp/out/fmt-{tag}{qi}"))
                .expect("format-comparison query");
            let mut qlines: Vec<String> = r
                .value
                .iter()
                .map(|p| {
                    let mut s = String::new();
                    use sh_geom::Record;
                    p.write_line(&mut s);
                    s
                })
                .collect();
            qlines.sort();
            lines.extend(qlines);
        }
        (t0.elapsed().as_secs_f64(), lines)
    };
    let (text_cold_secs, text_lines) = cold_sweep(&pfile, "t");
    let (binary_cold_secs, binary_lines) = cold_sweep(&bfile, "b");
    assert_eq!(
        text_lines, binary_lines,
        "text and binary indexes returned different results"
    );
    let binary_speedup = text_cold_secs / binary_cold_secs;

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"hotpath\",\n");
    json.push_str(&format!("  \"cores\": {},\n", sh_bench::cores()));
    json.push_str(&format!("  \"git_rev\": \"{}\",\n", sh_bench::git_rev()));
    json.push_str(&format!(
        "  \"workload\": {{\"points\": {POINTS}, \"rects_per_side\": {RECTS}, \"range_queries\": {RANGE_QUERIES}, \"dj_joins\": 1, \"iterations\": {ITERATIONS}}},\n"
    ));
    json.push_str(&format!("  \"cold_secs\": {cold:.6},\n"));
    json.push_str(&format!("  \"warm_secs_mean\": {warm:.6},\n"));
    json.push_str(&format!("  \"speedup\": {speedup:.2},\n"));
    json.push_str(&format!("  \"text_cold_secs\": {text_cold_secs:.6},\n"));
    json.push_str(&format!("  \"binary_cold_secs\": {binary_cold_secs:.6},\n"));
    json.push_str(&format!("  \"binary_speedup\": {binary_speedup:.2},\n"));
    json.push_str(&format!(
        "  \"cache\": {{\"budget_bytes\": {}, \"resident_bytes\": {}, \"resident_entries\": {}, \"hits\": {}, \"misses\": {}, \"evictions\": {}}},\n",
        dfs.cache().budget(),
        stats.resident_bytes,
        stats.resident_entries,
        stats.hits,
        stats.misses,
        stats.evictions
    ));
    json.push_str("  \"iterations\": [\n");
    for (i, it) in iters.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"iter\": {i}, \"wall_secs\": {:.6}, \"cache_hits\": {}, \"cache_misses\": {}, \"results\": {}}}{}\n",
            it.wall_secs,
            it.cache_hits,
            it.cache_misses,
            it.results,
            if i + 1 < iters.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");

    println!(
        "hotpath: cold {cold:.3}s, warm {warm:.3}s (mean of {}), speedup {speedup:.2}x",
        ITERATIONS - 1
    );
    println!(
        "format: text cold {text_cold_secs:.3}s, binary cold {binary_cold_secs:.3}s, \
         binary {binary_speedup:.2}x faster"
    );
    println!(
        "cache: {} hits / {} misses / {} evictions, {} entries, {} KiB resident",
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.resident_entries,
        stats.resident_bytes / 1024
    );
    println!("wrote {out_path}");

    if warm > cold {
        eprintln!("FAIL: warm path slower than cold ({warm:.3}s > {cold:.3}s)");
        std::process::exit(1);
    }
}
