//! Hierarchical spans with monotonic timing and key/value attributes.
//!
//! A [`Span`] is a cheaply-cloneable handle (`Arc` inside) so concurrent
//! task threads can open children under one parent wave span. Timing uses
//! a single monotonic epoch captured at the root, so child offsets are
//! consistent across the tree. Finished trees snapshot into plain
//! [`SpanRecord`] values for rendering and attachment to job profiles.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::sync::lock;

struct SpanInner {
    name: String,
    start: Duration,
    end: Option<Duration>,
    attrs: Vec<(String, String)>,
    children: Vec<Span>,
}

/// Live span handle. Clone freely; all clones refer to the same span.
#[derive(Clone)]
pub struct Span {
    epoch: Instant,
    inner: Arc<Mutex<SpanInner>>,
}

impl Span {
    /// Opens a root span; its `Instant` becomes the epoch for the tree.
    pub fn root(name: impl Into<String>) -> Span {
        let epoch = Instant::now();
        Span {
            epoch,
            inner: Arc::new(Mutex::new(SpanInner {
                name: name.into(),
                start: Duration::ZERO,
                end: None,
                attrs: Vec::new(),
                children: Vec::new(),
            })),
        }
    }

    /// Opens a child span under this one.
    pub fn child(&self, name: impl Into<String>) -> Span {
        let child = Span {
            epoch: self.epoch,
            inner: Arc::new(Mutex::new(SpanInner {
                name: name.into(),
                start: self.epoch.elapsed(),
                end: None,
                attrs: Vec::new(),
                children: Vec::new(),
            })),
        };
        lock(&self.inner).children.push(child.clone());
        child
    }

    /// Attaches a key/value attribute (last write wins on duplicate keys).
    pub fn attr(&self, key: impl Into<String>, value: impl ToString) {
        let key = key.into();
        let value = value.to_string();
        let mut inner = lock(&self.inner);
        if let Some(slot) = inner.attrs.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            inner.attrs.push((key, value));
        }
    }

    /// Closes the span. Idempotent; the first call wins. Unfinished spans
    /// are implicitly closed at snapshot time.
    pub fn finish(&self) {
        let now = self.epoch.elapsed();
        let mut inner = lock(&self.inner);
        if inner.end.is_none() {
            inner.end = Some(now);
        }
    }

    /// Elapsed time so far (or final duration once finished).
    pub fn elapsed(&self) -> Duration {
        let inner = lock(&self.inner);
        inner.end.unwrap_or_else(|| self.epoch.elapsed()) - inner.start
    }

    /// Snapshots this span and its subtree into plain records, implicitly
    /// finishing anything still open.
    pub fn record(&self) -> SpanRecord {
        let now = self.epoch.elapsed();
        let inner = lock(&self.inner);
        SpanRecord {
            name: inner.name.clone(),
            start: inner.start,
            duration: inner.end.unwrap_or(now) - inner.start,
            attrs: inner.attrs.clone(),
            children: inner.children.iter().map(|c| c.record()).collect(),
        }
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("name", &lock(&self.inner).name)
            .finish()
    }
}

/// Immutable snapshot of a finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    pub name: String,
    /// Offset from the root span's start.
    pub start: Duration,
    pub duration: Duration,
    pub attrs: Vec<(String, String)>,
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    /// Total number of spans in this subtree (including self).
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanRecord::span_count)
            .sum::<usize>()
    }

    /// Finds the first descendant (depth-first) with the given name.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// Render adapter: `format!("{}", SpanTree(&record))` draws the tree.
pub struct SpanTree<'a>(pub &'a SpanRecord);

impl std::fmt::Display for SpanTree<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn node(
            f: &mut std::fmt::Formatter<'_>,
            rec: &SpanRecord,
            prefix: &str,
            last: bool,
            root: bool,
        ) -> std::fmt::Result {
            let (branch, cont) = if root {
                ("", "")
            } else if last {
                ("└─ ", "   ")
            } else {
                ("├─ ", "│  ")
            };
            let label = format!("{prefix}{branch}{}", rec.name);
            write!(f, "{label:<44} {:>10}", format_duration(rec.duration))?;
            if !rec.attrs.is_empty() {
                let attrs: Vec<String> =
                    rec.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
                write!(f, "  [{}]", attrs.join(" "))?;
            }
            writeln!(f)?;
            let child_prefix = format!("{prefix}{cont}");
            for (i, c) in rec.children.iter().enumerate() {
                node(f, c, &child_prefix, i + 1 == rec.children.len(), false)?;
            }
            Ok(())
        }
        node(f, self.0, "", true, true)
    }
}

/// Critical path through a finished span tree: starting at the root,
/// repeatedly descend into the longest-running child. The result is the
/// chain of spans that bounded the tree's wall-clock — shortening any
/// other span cannot make the whole tree faster.
pub fn critical_path(root: &SpanRecord) -> Vec<&SpanRecord> {
    let mut path = vec![root];
    let mut cur = root;
    while let Some(next) = cur.children.iter().max_by_key(|c| c.duration) {
        path.push(next);
        cur = next;
    }
    path
}

/// Render adapter for `EXPLAIN ANALYZE`: a waterfall of the span tree —
/// each span drawn as a bar positioned by its start offset and scaled by
/// its duration relative to the root — with the critical path marked `◆`
/// and summarized below the chart.
pub struct Waterfall<'a>(pub &'a SpanRecord);

impl Waterfall<'_> {
    const BAR: usize = 30;

    fn bar(rel_start: Duration, duration: Duration, total: Duration) -> String {
        let total_ns = total.as_nanos().max(1);
        let begin = ((rel_start.as_nanos() * Self::BAR as u128) / total_ns) as usize;
        let begin = begin.min(Self::BAR - 1);
        let end_ns = (rel_start + duration).as_nanos().min(total_ns);
        let end = (end_ns * Self::BAR as u128).div_ceil(total_ns) as usize;
        let end = end.clamp(begin + 1, Self::BAR);
        let mut out = String::with_capacity(Self::BAR + 2);
        out.push('▕');
        for i in 0..Self::BAR {
            out.push(if i >= begin && i < end { '█' } else { '·' });
        }
        out.push('▏');
        out
    }
}

impl std::fmt::Display for Waterfall<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let root = self.0;
        let total = root.duration;
        let on_path: Vec<*const SpanRecord> = critical_path(root)
            .into_iter()
            .map(|s| s as *const SpanRecord)
            .collect();
        writeln!(f, "{:<44} {:>10} {:>10}  waterfall", "span", "start", "dur")?;
        #[allow(clippy::too_many_arguments)]
        fn node(
            f: &mut std::fmt::Formatter<'_>,
            rec: &SpanRecord,
            prefix: &str,
            last: bool,
            root: bool,
            root_start: Duration,
            total: Duration,
            on_path: &[*const SpanRecord],
        ) -> std::fmt::Result {
            let (branch, cont) = if root {
                ("", "")
            } else if last {
                ("└─ ", "   ")
            } else {
                ("├─ ", "│  ")
            };
            let label = format!("{prefix}{branch}{}", rec.name);
            let rel = rec.start.saturating_sub(root_start);
            let marked = on_path.iter().any(|&p| std::ptr::eq(p, rec));
            writeln!(
                f,
                "{label:<44} {:>10} {:>10}  {}{}",
                format_duration(rel),
                format_duration(rec.duration),
                Waterfall::bar(rel, rec.duration, total),
                if marked { " ◆" } else { "" }
            )?;
            let child_prefix = format!("{prefix}{cont}");
            for (i, c) in rec.children.iter().enumerate() {
                node(
                    f,
                    c,
                    &child_prefix,
                    i + 1 == rec.children.len(),
                    false,
                    root_start,
                    total,
                    on_path,
                )?;
            }
            Ok(())
        }
        node(f, root, "", true, true, root.start, total, &on_path)?;

        let chain = critical_path(root);
        let names: Vec<&str> = chain.iter().map(|s| s.name.as_str()).collect();
        writeln!(f, "critical path (◆): {}", names.join(" → "))?;
        if let Some(phase) = chain.get(1) {
            let pct = if total.as_nanos() > 0 {
                100.0 * phase.duration.as_secs_f64() / total.as_secs_f64()
            } else {
                100.0
            };
            write!(
                f,
                "dominant phase: {} — {:.0}% of {} wall-clock",
                phase.name,
                pct.min(100.0),
                format_duration(total)
            )?;
            if !phase.attrs.is_empty() {
                let attrs: Vec<String> = phase
                    .attrs
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                write!(f, " [{}]", attrs.join(" "))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Human-scale duration: `428ns`, `1.2ms`, `3.45s`.
pub fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.1}ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", nanos as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_attrs() {
        let root = Span::root("job");
        root.attr("op", "range");
        root.attr("op", "range-spatial"); // overwrite
        let wave = root.child("map-wave");
        let t0 = wave.child("task-0");
        t0.finish();
        let t1 = wave.child("task-1");
        t1.finish();
        wave.finish();
        root.finish();

        let rec = root.record();
        assert_eq!(rec.span_count(), 4);
        assert_eq!(
            rec.attrs,
            vec![("op".to_string(), "range-spatial".to_string())]
        );
        assert_eq!(rec.children.len(), 1);
        assert_eq!(rec.children[0].children.len(), 2);
        assert!(rec.find("task-1").is_some());
        assert!(rec.find("task-9").is_none());
        // children start at or after the parent
        assert!(rec.children[0].start >= rec.start);
    }

    #[test]
    fn record_implicitly_finishes() {
        let root = Span::root("job");
        let _child = root.child("open-ended");
        let rec = root.record();
        assert_eq!(rec.children.len(), 1);
    }

    #[test]
    fn tree_renders_every_span() {
        let root = Span::root("job");
        let wave = root.child("map-wave");
        wave.attr("tasks", 8);
        wave.finish();
        root.child("shuffle").finish();
        root.finish();
        let text = format!("{}", SpanTree(&root.record()));
        assert!(text.contains("job"));
        assert!(text.contains("├─ map-wave"));
        assert!(text.contains("└─ shuffle"));
        assert!(text.contains("tasks=8"));
    }

    #[test]
    fn critical_path_follows_the_longest_child() {
        let mk = |name: &str, start_ms: u64, dur_ms: u64, children: Vec<SpanRecord>| SpanRecord {
            name: name.to_string(),
            start: Duration::from_millis(start_ms),
            duration: Duration::from_millis(dur_ms),
            attrs: Vec::new(),
            children,
        };
        let root = mk(
            "job",
            0,
            100,
            vec![
                mk("map-wave", 0, 80, vec![mk("map-1", 5, 70, vec![])]),
                mk("reduce-wave", 80, 15, vec![]),
            ],
        );
        let path: Vec<&str> = critical_path(&root)
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(path, vec!["job", "map-wave", "map-1"]);
    }

    #[test]
    fn waterfall_marks_the_critical_path_and_draws_bars() {
        let mk = |name: &str, start_ms: u64, dur_ms: u64, children: Vec<SpanRecord>| SpanRecord {
            name: name.to_string(),
            start: Duration::from_millis(start_ms),
            duration: Duration::from_millis(dur_ms),
            attrs: vec![("tasks".to_string(), "2".to_string())],
            children,
        };
        let root = mk(
            "job:range",
            0,
            100,
            vec![mk("map-wave", 0, 90, vec![]), mk("shuffle", 90, 8, vec![])],
        );
        let text = format!("{}", Waterfall(&root));
        assert!(text.contains("job:range"), "{text}");
        assert!(text.contains("├─ map-wave"), "{text}");
        assert!(text.contains('█'), "bars must be drawn: {text}");
        assert!(
            text.contains("critical path (◆): job:range → map-wave"),
            "{text}"
        );
        assert!(text.contains("dominant phase: map-wave — 90% of"), "{text}");
        // The critical-path marker lands on root and map-wave, not shuffle.
        let marked: Vec<&str> = text.lines().filter(|l| l.ends_with('◆')).collect();
        assert_eq!(marked.len(), 2, "{text}");
        assert!(marked[0].contains("job:range"));
        assert!(marked[1].contains("map-wave"));
    }

    #[test]
    fn waterfall_bars_scale_with_offset_and_duration() {
        // A short span late in the job must produce a bar whose filled
        // cells sit at the right edge.
        let bar = Waterfall::bar(
            Duration::from_millis(90),
            Duration::from_millis(10),
            Duration::from_millis(100),
        );
        assert_eq!(bar.chars().filter(|&c| c == '█').count(), 3);
        assert!(bar.ends_with("███▏"), "{bar}");
        // Zero-duration spans still show one cell so they are visible.
        let dot = Waterfall::bar(Duration::ZERO, Duration::ZERO, Duration::from_millis(100));
        assert_eq!(dot.chars().filter(|&c| c == '█').count(), 1);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_nanos(5)), "5ns");
        assert_eq!(format_duration(Duration::from_micros(1500)), "1.5ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00s");
    }
}
