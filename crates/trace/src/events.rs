//! Structured event journal: an append-only, bounded in-memory ring of
//! typed engine events, with an optional JSONL file sink.
//!
//! Layers report through [`emit`] — one short lock per event, no work
//! beyond the field strings the caller already built. The journal keeps
//! the last [`DEFAULT_CAPACITY`] events for `EVENTS;` queries plus exact
//! per-kind counts for the whole process lifetime, so event counts can
//! be reconciled against registry counters even after the ring wraps
//! (asserted by the event↔counter consistency chaos test).
//!
//! Event kinds are dotted static strings mirroring the metrics
//! namespaces: `job.*` (scheduler and executor lifecycle), `task.*`
//! (retries, speculation), `node.*` (kill/revive/blacklist), `cache.*`
//! (invalidation epoch bumps), `slots.*` (pool exhaustion), `dfs.*`
//! (re-replication), `query.*` (slow-query log).
//!
//! The JSONL sink is enabled either programmatically
//! ([`EventJournal::set_log_path`], surfaced in Pigeon as
//! `SET telemetry_log '<path>';`) or via the `SH_TELEMETRY_LOG`
//! environment variable, which the chaos CI stage uses so flaky runs
//! leave a post-hoc debuggable trace.

use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::sync::{Mutex, OnceLock};

use crate::sync::lock;

/// Events held in memory; older ones fall off the ring (counts remain).
pub const DEFAULT_CAPACITY: usize = 1024;

/// One journaled engine event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (0-based, never reused).
    pub seq: u64,
    /// Dotted static kind, e.g. `task.retry`.
    pub kind: &'static str,
    /// Ordered key/value payload.
    pub fields: Vec<(&'static str, String)>,
}

impl Event {
    /// One-line text rendering: `#17 task.retry task=3 node=2`.
    pub fn render(&self) -> String {
        let mut s = format!("#{} {}", self.seq, self.kind);
        for (k, v) in &self.fields {
            s.push(' ');
            s.push_str(k);
            s.push('=');
            s.push_str(v);
        }
        s
    }

    /// Compact JSON object — one line of the JSONL sink.
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"seq\":{},\"kind\":\"{}\"", self.seq, self.kind);
        for (k, v) in &self.fields {
            s.push_str(",\"");
            s.push_str(k);
            s.push_str("\":\"");
            s.push_str(&escape(v));
            s.push('"');
        }
        s.push('}');
        s
    }
}

/// Minimal JSON string escaping for field values (keys are static
/// identifiers and never need it).
fn escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct JournalInner {
    ring: VecDeque<Event>,
    capacity: usize,
    next_seq: u64,
    counts: BTreeMap<&'static str, u64>,
    sink: Option<(String, File)>,
}

/// Bounded event ring + lifetime counts + optional JSONL sink.
pub struct EventJournal {
    inner: Mutex<JournalInner>,
}

impl EventJournal {
    pub fn new() -> EventJournal {
        EventJournal::with_capacity(DEFAULT_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> EventJournal {
        EventJournal {
            inner: Mutex::new(JournalInner {
                ring: VecDeque::with_capacity(capacity.min(DEFAULT_CAPACITY)),
                capacity: capacity.max(1),
                next_seq: 0,
                counts: BTreeMap::new(),
                sink: None,
            }),
        }
    }

    /// Appends an event. Lock-cheap: one mutex, one ring push; a sink
    /// write failure is swallowed (telemetry must never fail the engine).
    pub fn emit(&self, kind: &'static str, fields: Vec<(&'static str, String)>) {
        let mut inner = lock(&self.inner);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        *inner.counts.entry(kind).or_insert(0) += 1;
        let event = Event { seq, kind, fields };
        if let Some((_, file)) = inner.sink.as_mut() {
            let _ = writeln!(file, "{}", event.to_json());
        }
        if inner.ring.len() == inner.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(event);
    }

    /// The last `n` in-ring events (oldest first), optionally restricted
    /// to kinds starting with `filter` — so `task` matches `task.retry`
    /// and `task.speculative.won` alike.
    pub fn recent(&self, n: usize, filter: Option<&str>) -> Vec<Event> {
        let inner = lock(&self.inner);
        let matching: Vec<&Event> = inner
            .ring
            .iter()
            .filter(|e| filter.is_none_or(|f| e.kind.starts_with(f)))
            .collect();
        let skip = matching.len().saturating_sub(n);
        matching[skip..].iter().map(|e| (*e).clone()).collect()
    }

    /// Lifetime count of events of exactly this kind (ring-independent).
    pub fn count(&self, kind: &str) -> u64 {
        lock(&self.inner).counts.get(kind).copied().unwrap_or(0)
    }

    /// Lifetime counts per kind.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        lock(&self.inner).counts.clone()
    }

    /// Total events ever emitted (== next sequence number).
    pub fn total(&self) -> u64 {
        lock(&self.inner).next_seq
    }

    /// Points the JSONL sink at `path` (append mode), or disables it with
    /// `None`. Subsequent events stream there one JSON object per line.
    pub fn set_log_path(&self, path: Option<&str>) -> Result<(), String> {
        let mut inner = lock(&self.inner);
        match path {
            None => {
                inner.sink = None;
                Ok(())
            }
            Some(p) => {
                let file = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(p)
                    .map_err(|e| format!("cannot open telemetry log {p}: {e}"))?;
                inner.sink = Some((p.to_string(), file));
                Ok(())
            }
        }
    }

    /// Current JSONL sink path, if any.
    pub fn log_path(&self) -> Option<String> {
        lock(&self.inner).sink.as_ref().map(|(p, _)| p.clone())
    }

    /// Clears the ring and counts (test isolation). The sink, if any,
    /// stays attached.
    pub fn reset(&self) {
        let mut inner = lock(&self.inner);
        inner.ring.clear();
        inner.counts.clear();
        inner.next_seq = 0;
    }
}

impl Default for EventJournal {
    fn default() -> EventJournal {
        EventJournal::new()
    }
}

/// The process-wide journal the engine layers report into. On first use
/// it honours `SH_TELEMETRY_LOG=<path>` to auto-attach the JSONL sink
/// (how the chaos CI stage captures a post-mortem trace).
pub fn journal() -> &'static EventJournal {
    static GLOBAL: OnceLock<EventJournal> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let j = EventJournal::new();
        if let Ok(path) = std::env::var("SH_TELEMETRY_LOG") {
            if !path.is_empty() {
                let _ = j.set_log_path(Some(&path));
            }
        }
        j
    })
}

/// Appends an event to the global journal.
pub fn emit(kind: &'static str, fields: Vec<(&'static str, String)>) {
    journal().emit(kind, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_but_counts_are_not() {
        let j = EventJournal::with_capacity(4);
        for i in 0..10u64 {
            j.emit("cache.invalidate", vec![("key", format!("/f{i}"))]);
        }
        assert_eq!(j.total(), 10);
        assert_eq!(j.count("cache.invalidate"), 10);
        let recent = j.recent(100, None);
        assert_eq!(recent.len(), 4, "ring holds only the last 4");
        assert_eq!(recent[0].seq, 6);
        assert_eq!(recent[3].seq, 9);
    }

    #[test]
    fn filter_matches_kind_prefixes() {
        let j = EventJournal::new();
        j.emit("task.retry", vec![("task", "3".to_string())]);
        j.emit("node.blacklist", vec![("node", "2".to_string())]);
        j.emit("task.speculative.won", vec![("task", "1".to_string())]);
        let tasks = j.recent(10, Some("task"));
        assert_eq!(tasks.len(), 2);
        assert!(tasks.iter().all(|e| e.kind.starts_with("task")));
        let exact = j.recent(10, Some("task.retry"));
        assert_eq!(exact.len(), 1);
        assert!(j.recent(10, Some("dfs")).is_empty());
        // `recent(1, ...)` keeps the newest match.
        assert_eq!(j.recent(1, Some("task"))[0].kind, "task.speculative.won");
    }

    #[test]
    fn render_and_json_forms() {
        let j = EventJournal::new();
        j.emit(
            "job.started",
            vec![("job", "range".to_string()), ("splits", "2".to_string())],
        );
        let e = &j.recent(1, None)[0];
        assert_eq!(e.render(), "#0 job.started job=range splits=2");
        assert_eq!(
            e.to_json(),
            "{\"seq\":0,\"kind\":\"job.started\",\"job\":\"range\",\"splits\":\"2\"}"
        );
        // The JSONL line is valid by our own parser.
        let v = crate::json::parse(&e.to_json()).unwrap();
        assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("job.started"));
    }

    #[test]
    fn json_escapes_field_values() {
        let e = Event {
            seq: 1,
            kind: "cache.invalidate",
            fields: vec![("key", "a\"b\\c\nd".to_string())],
        };
        let v = crate::json::parse(&e.to_json()).unwrap();
        assert_eq!(v.get("key").and_then(|k| k.as_str()), Some("a\"b\\c\nd"));
    }

    #[test]
    fn jsonl_sink_appends_one_object_per_line() {
        let path = std::env::temp_dir().join(format!(
            "sh-trace-events-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let path_s = path.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&path);
        let j = EventJournal::new();
        j.set_log_path(Some(&path_s)).unwrap();
        assert_eq!(j.log_path().as_deref(), Some(path_s.as_str()));
        j.emit("node.kill", vec![("node", "0".to_string())]);
        j.emit("node.revive", vec![("node", "0".to_string())]);
        j.set_log_path(None).unwrap();
        j.emit("node.kill", vec![("node", "1".to_string())]); // not sunk
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            crate::json::parse(line).expect("every sink line parses");
        }
        assert!(lines[0].contains("node.kill"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reset_clears_ring_and_counts() {
        let j = EventJournal::new();
        j.emit("slots.exhausted", vec![]);
        j.reset();
        assert_eq!(j.total(), 0);
        assert_eq!(j.count("slots.exhausted"), 0);
        assert!(j.recent(10, None).is_empty());
    }
}
