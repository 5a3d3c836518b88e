//! The benchmark's vocabulary: every workload and metric name, with its
//! unit and direction. `BENCHMARK.json` must list exactly these (the
//! `spec_matches_benchmark_json` test holds the two together) and
//! `shbench --list` prints them.

/// A workload and the reason it exists (BENCHMARK.md has the long form).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// A metric name with its unit and the direction that counts as better.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-mixed",
        why: "open loop over TCP, small cached queries (70% FILTER, 20% KNN, 10% JOIN): wire, admission, job start-up and render dominate, storage should not",
    },
    Workload {
        name: "serve-scan",
        why: "closed loop over TCP, large windows on skewed data, cache far below the working set: DFS read + CRC, decode, filter and streaming dominate, fixed per-job cost should not",
    },
    Workload {
        name: "ingest-index",
        why: "write side: upload, INDEX {grid,str+} x {text,binary}, SCRUB, delete; work moved from read time to write time must show here as a loss",
    },
    Workload {
        name: "heap-batch",
        why: "the paper's Hadoop baseline: unindexed heap files, no pruning, nothing to cache; record parsing, fan-out, shuffle and reduce dominate; index and cache work must leave it flat",
    },
];

/// End-to-end metrics: defined on every workload, measured with the
/// traced pass off, each with the bound by which it may worsen. All five
/// bounds are the widest the contract allows: on the host this was built
/// on, ten runs of one commit spread by 4-14 % in a calm hour and more in
/// a busy one (BENCHMARK.md, "Steady numbers on an unsteady host").
pub const END_TO_END: [(Metric, f64); 5] = [
    (m("setup_s", "s", "lower"), 0.25),
    (m("ops_per_s", "1/s", "higher"), 0.25),
    (m("p50_ms", "ms", "lower"), 0.25),
    (m("tail_ms", "ms", "lower"), 0.25),
    (m("rss_mb", "MB", "lower"), 0.25),
];

/// Per-layer metrics, printed by the traced pass (`--trace 1`). A value
/// of 0 means the layer is not exercised by that workload.
pub const PER_LAYER: [Metric; 68] = [
    // What one client sees per op kind through the workload's front door
    // (depth d0 of the ladder); the end-to-end numbers above are the
    // loaded, all-kinds view of the same thing.
    m("e2e.range_ms", "ms", "lower"),
    m("e2e.knn_ms", "ms", "lower"),
    m("e2e.join_ms", "ms", "lower"),
    m("e2e.index_ms", "ms", "lower"),
    m("e2e.cg_ms", "ms", "lower"),
    m("e2e.ttfb_ms", "ms", "lower"),
    // sh-server
    m("server.self_ms", "ms", "lower"),
    m("server.stream_ms", "ms", "lower"),
    m("server.frames_per_op", "count", "lower"),
    m("server.bytes_out_per_op", "bytes", "lower"),
    m("server.conn_setup_ms", "ms", "lower"),
    m("server.query_micros_p50", "us", "lower"),
    // sh-pigeon
    m("pigeon.parse_us", "us", "lower"),
    m("pigeon.self_ms", "ms", "lower"),
    // sh-mapreduce
    m("mapreduce.job_overhead_ms", "ms", "lower"),
    m("mapreduce.sched_roundtrip_us", "us", "lower"),
    m("mapreduce.sched_wait_us_p50", "us", "lower"),
    m("mapreduce.slot_wait_us_p50", "us", "lower"),
    m("mapreduce.map_ms", "ms", "lower"),
    m("mapreduce.shuffle_ms", "ms", "lower"),
    m("mapreduce.reduce_ms", "ms", "lower"),
    m("mapreduce.map_tasks_per_op", "count", "lower"),
    m("mapreduce.shuffle_bytes_per_op", "bytes", "lower"),
    m("mapreduce.jobs_per_op", "count", "lower"),
    m("mapreduce.task_retries", "count", "lower"),
    // sh-core::ops
    m("ops.range_ms", "ms", "lower"),
    m("ops.knn_ms", "ms", "lower"),
    m("ops.join_ms", "ms", "lower"),
    m("ops.index_ms", "ms", "lower"),
    m("ops.cg_ms", "ms", "lower"),
    m("ops.knn_rounds_per_op", "count", "lower"),
    m("ops.join_pairs_considered_per_result", "ratio", "lower"),
    // sh-core::mrlayer
    m("mrlayer.prune_us", "us", "lower"),
    m("mrlayer.pruning_ratio", "ratio", "higher"),
    m("mrlayer.partitions_scanned_per_op", "count", "lower"),
    m("mrlayer.records_scanned_per_result", "ratio", "lower"),
    m("mrlayer.open_text_us_per_part", "us", "lower"),
    m("mrlayer.open_binary_us_per_part", "us", "lower"),
    m("mrlayer.open_warm_us_per_part", "us", "lower"),
    m("mrlayer.search_us_per_part", "us", "lower"),
    // sh-core::colblock
    m("colblock.decode_mb_per_s", "MB/s", "higher"),
    m("colblock.encode_mb_per_s", "MB/s", "higher"),
    m("colblock.mbr_filter_mrec_per_s", "Mrec/s", "higher"),
    // sh-core::storage + sh-index
    m("storage.upload_mb_per_s", "MB/s", "higher"),
    m("index.partitioner_build_us", "us", "lower"),
    m("index.assign_mrec_per_s", "Mrec/s", "higher"),
    m("index.rtree_build_mrec_per_s", "Mrec/s", "higher"),
    m("index.sidecar_bytes_per_record", "bytes", "lower"),
    // sh-dfs
    m("dfs.read_mb_per_s", "MB/s", "higher"),
    m("dfs.crc64_mb_per_s", "MB/s", "higher"),
    m("dfs.write_mb_per_s", "MB/s", "higher"),
    m("dfs.read_scaling", "ratio", "higher"),
    m("dfs.blocks_read_per_op", "count", "lower"),
    m("dfs.bytes_read_per_op", "bytes", "lower"),
    m("dfs.remote_read_frac", "ratio", "lower"),
    m("dfs.cache_hit_ratio", "ratio", "higher"),
    m("dfs.cache_evictions_per_op", "count", "lower"),
    m("dfs.bytes_written_per_user_byte", "ratio", "lower"),
    m("dfs.stored_bytes_per_user_byte", "ratio", "lower"),
    m("dfs.integrity_corrupt", "count", "lower"),
    m("dfs.integrity_repaired", "count", "lower"),
    // sh-geom
    m("geom.parse_mrec_per_s", "Mrec/s", "higher"),
    m("geom.write_mrec_per_s", "Mrec/s", "higher"),
    // the benchmark's own validity numbers
    m("bench.gen_lag_ms_p99", "ms", "lower"),
    m("bench.trace_overhead_frac", "ratio", "lower"),
    // Shares of a range op's front-door time: the fixed cost of the
    // layers above the data (server + Pigeon + job start-up), the leaves
    // that touch the data (DFS read + CRC, open, search, render), and
    // what neither accounts for.
    m("bench.framework_frac", "ratio", "lower"),
    m("bench.storage_frac", "ratio", "lower"),
    m("bench.unattributed_frac", "ratio", "lower"),
];

/// Per-layer metrics that are counts, not timings: with one client and
/// one worker they repeat exactly for one seed, so a later change may
/// rest a claim on them.
pub const EXACT: [&str; 21] = [
    "server.frames_per_op",
    "server.bytes_out_per_op",
    "mapreduce.map_tasks_per_op",
    "mapreduce.shuffle_bytes_per_op",
    "mapreduce.jobs_per_op",
    "mapreduce.task_retries",
    "ops.knn_rounds_per_op",
    "ops.join_pairs_considered_per_result",
    "mrlayer.pruning_ratio",
    "mrlayer.partitions_scanned_per_op",
    "mrlayer.records_scanned_per_result",
    "index.sidecar_bytes_per_record",
    "dfs.blocks_read_per_op",
    "dfs.bytes_read_per_op",
    "dfs.remote_read_frac",
    "dfs.cache_hit_ratio",
    "dfs.cache_evictions_per_op",
    "dfs.bytes_written_per_user_byte",
    "dfs.stored_bytes_per_user_byte",
    "dfs.integrity_corrupt",
    "dfs.integrity_repaired",
];

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// `shbench --list`: the names above as one JSON object shaped like the
/// matching keys of `BENCHMARK.json`.
pub fn list_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(m, bound)| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}",
        workloads.join(",\n    "),
        e2e.join(",\n    "),
        layers.join(",\n    ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sh_trace::json::{self, Value};

    fn names(list: &Value) -> Vec<String> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|entry| {
                entry
                    .get("name")
                    .and_then(Value::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` and `shbench --list` must name the same
    /// workloads and metrics, in names the contract accepts.
    #[test]
    fn spec_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");
        let listed = json::parse(&list_json()).expect("--list prints valid JSON");
        for key in ["workloads", "end_to_end", "per_layer"] {
            let in_file = file.get(key).expect(key);
            assert_eq!(names(in_file), names(listed.get(key).expect(key)), "{key}");
            for name in names(in_file) {
                let ok = name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
                assert!(ok, "{name:?} is not a name the contract accepts");
            }
        }
        let in_file = |key: &str, field: &str| -> Vec<String> {
            let entries = file.get(key).and_then(Value::as_arr).expect(key);
            let field_of = |e: &Value| match e.get(field).expect(field) {
                Value::Str(s) => s.clone(),
                other => format!("{}", other.as_f64().expect("a number")),
            };
            entries.iter().map(field_of).collect()
        };
        let units: Vec<&str> = END_TO_END.iter().map(|(m, _)| m.unit).collect();
        assert_eq!(in_file("end_to_end", "unit"), units);
        let bounds: Vec<String> = END_TO_END.iter().map(|(_, b)| format!("{b}")).collect();
        assert_eq!(in_file("end_to_end", "bound"), bounds);
        let better: Vec<&str> = PER_LAYER.iter().map(|m| m.better).collect();
        assert_eq!(in_file("per_layer", "better"), better);
        let units: Vec<&str> = PER_LAYER.iter().map(|m| m.unit).collect();
        assert_eq!(in_file("per_layer", "unit"), units);
        assert!(file.get("run_seconds").and_then(Value::as_u64).is_some());
        // Every exact count is a per-layer metric.
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }
}
