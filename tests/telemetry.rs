//! Telemetry consistency chaos test: the event journal and the metrics
//! registry observe the same engine, so after any number of
//! fault-injected runs the journaled `task.retry` / `node.blacklist`
//! events must count exactly what the `job.task_retries` /
//! `job.nodes_blacklisted` counters accumulated — and both must match
//! the per-job profiles.
//!
//! This lives in its own test binary on purpose: integration tests
//! within one binary run on parallel threads, and both the journal and
//! the registry are process-global, so sharing a binary with unrelated
//! job-running tests would corrupt the deltas. CI also points
//! `SH_TELEMETRY_LOG` at a JSONL file when running this binary, which
//! exercises the streaming sink under chaos and leaves an uploadable
//! artifact.

use spatialhadoop::core::ops::range;
use spatialhadoop::core::storage::{build_index, upload};
use spatialhadoop::dfs::{ClusterConfig, Dfs, FaultPlan};
use spatialhadoop::geom::{Point, Rect};
use spatialhadoop::index::PartitionKind;
use spatialhadoop::trace::JobProfile;
use spatialhadoop::workload::{points, Distribution};

/// Iterations for the consistency loop: CI sets `SH_CHAOS_ITERS=10`;
/// plain `cargo test` keeps the quick default.
fn chaos_iters() -> usize {
    std::env::var("SH_CHAOS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
        .max(2)
}

/// Fresh cluster, fault-free upload + index build, then a range query
/// with a node kill and an injected task failure armed. Returns the
/// query job's profile.
fn run_with_faults() -> JobProfile {
    let dfs = Dfs::new(ClusterConfig::small_for_tests());
    dfs.update_ft_options(|ft| ft.retry_backoff_ms = 0);
    let uni = Rect::new(0.0, 0.0, 1_000_000.0, 1_000_000.0);
    let pts = points(20_000, Distribution::Uniform, &uni, 7);
    upload(&dfs, "/data/points", &pts).unwrap();
    let file = build_index::<Point>(&dfs, "/data/points", "/idx/points", PartitionKind::Grid)
        .unwrap()
        .value;
    dfs.update_ft_options(|ft| {
        ft.node_blacklist_threshold = 1;
        ft.fault_plan = FaultPlan::none().kill_node(0).fail_task(1, 0);
    });
    let query = Rect::new(100_000.0, 100_000.0, 400_000.0, 400_000.0);
    let r = range::range_spatial::<Point>(&dfs, &file, &query, "/out/range").unwrap();
    r.profile("range")
}

#[test]
fn journal_events_match_registry_counters_under_chaos() {
    let journal = spatialhadoop::trace::journal();
    let registry = spatialhadoop::trace::global();

    let retry_events_before = journal.count("task.retry");
    let blacklist_events_before = journal.count("node.blacklist");
    let snap_before = registry.snapshot();

    let mut profiled_retries = 0;
    let mut profiled_blacklists = 0;
    for iter in 0..chaos_iters() {
        let profile = run_with_faults();
        assert!(
            profile.task_retries >= 1,
            "iteration {iter}: the killed node and injected failure must retry: {profile:?}"
        );
        // Threshold 1 blacklists the killed node and the node that
        // served the injected failure (usually distinct, so 1 or 2).
        assert!(
            profile.nodes_blacklisted >= 1,
            "iteration {iter}: at least the dead node is blacklisted: {profile:?}"
        );
        profiled_retries += profile.task_retries;
        profiled_blacklists += profile.nodes_blacklisted;
    }

    // Every retry the profiles counted was journaled exactly once and
    // rolled into the registry exactly once — no event is dropped by the
    // ring (lifetime counts survive wrap) and no site double-emits.
    let snap = registry.snapshot().since(&snap_before);
    assert_eq!(
        journal.count("task.retry") - retry_events_before,
        profiled_retries,
        "journaled task.retry events must match the profiled retries"
    );
    assert_eq!(
        snap.counter("job.task_retries"),
        profiled_retries,
        "registry retry counter must match the profiled retries"
    );
    assert_eq!(
        journal.count("node.blacklist") - blacklist_events_before,
        profiled_blacklists,
        "journaled node.blacklist events must match the profiled blacklists"
    );
    assert_eq!(
        snap.counter("job.nodes_blacklisted"),
        profiled_blacklists,
        "registry blacklist counter must match the profiled blacklists"
    );

    // The chaos runs also journaled job lifecycle events (index build +
    // query per iteration) and the node kills themselves.
    assert!(journal.count("job.started") >= 2 * chaos_iters() as u64);
    assert_eq!(journal.count("job.started"), journal.count("job.finished"));
    assert!(journal.count("node.kill") >= chaos_iters() as u64);
    assert!(
        journal.count("fault.inject") >= chaos_iters() as u64,
        "each iteration's injected task failure must be journaled"
    );

    // If CI pointed SH_TELEMETRY_LOG at a file, every journaled event
    // must have streamed there as one parseable JSONL object.
    if let Some(path) = journal.log_path() {
        let text = std::fs::read_to_string(&path).expect("telemetry log must exist");
        let mut streamed_retries = 0;
        for line in text.lines() {
            let v = spatialhadoop::trace::json::parse(line)
                .unwrap_or_else(|e| panic!("malformed JSONL line {line:?}: {e}"));
            if v.get("kind").and_then(|k| k.as_str()) == Some("task.retry") {
                streamed_retries += 1;
            }
        }
        assert!(
            streamed_retries >= profiled_retries,
            "sink saw {streamed_retries} task.retry lines, profiles counted {profiled_retries}"
        );
    }
}
