//! Time-series layer over the metrics registry: a background sampler
//! snapshots a registry at a fixed interval into a fixed-capacity ring
//! window, so counters become rates and histograms become
//! p50/p95/p99-over-time.
//!
//! The window is deterministic to drive by hand ([`Sampler::tick`]) —
//! tests and the Pigeon `STATS;` statement both force a fresh sample
//! rather than waiting for the background thread, which exists so rates
//! stay current while the shell is idle between statements.

use crate::metrics::{MetricsRegistry, RegistrySnapshot};
use crate::sync::lock;
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Samples held per window; older ones fall off.
pub const DEFAULT_WINDOW: usize = 128;

/// One registry snapshot plus when (relative to the window's epoch) it
/// was taken.
#[derive(Clone, Debug)]
pub struct Sample {
    pub at: Duration,
    pub snapshot: RegistrySnapshot,
}

/// Fixed-capacity ring of registry samples with rate/percentile views.
#[derive(Debug)]
pub struct Window {
    epoch: Instant,
    capacity: usize,
    samples: VecDeque<Sample>,
}

impl Window {
    pub fn new(capacity: usize) -> Window {
        Window {
            epoch: Instant::now(),
            capacity: capacity.max(2),
            samples: VecDeque::new(),
        }
    }

    /// Records a snapshot taken now.
    pub fn push(&mut self, snapshot: RegistrySnapshot) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(Sample {
            at: self.epoch.elapsed(),
            snapshot,
        });
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Wall-clock covered by the window (first to last sample).
    pub fn span(&self) -> Duration {
        match (self.samples.front(), self.samples.back()) {
            (Some(first), Some(last)) => last.at.saturating_sub(first.at),
            _ => Duration::ZERO,
        }
    }

    /// Per-second counter rates, each as `(key, now, window_avg)`:
    /// `now` over the last sampling interval, `window_avg` over the whole
    /// window. Counters that never moved inside the window are omitted.
    pub fn rates(&self) -> Vec<(&'static str, f64, f64)> {
        let (Some(first), Some(last)) = (self.samples.front(), self.samples.back()) else {
            return Vec::new();
        };
        let prev = &self.samples[self.samples.len().saturating_sub(2)];
        let now_dt = last.at.saturating_sub(prev.at).as_secs_f64();
        let win_dt = last.at.saturating_sub(first.at).as_secs_f64();
        let mut out = Vec::new();
        for (&key, &v) in &last.snapshot.counters {
            let win_delta = v.saturating_sub(first.snapshot.counter(key));
            if win_delta == 0 {
                continue;
            }
            let now_delta = v.saturating_sub(prev.snapshot.counter(key));
            let now_rate = if now_dt > 0.0 {
                now_delta as f64 / now_dt
            } else {
                0.0
            };
            let win_rate = if win_dt > 0.0 {
                win_delta as f64 / win_dt
            } else {
                0.0
            };
            out.push((key, now_rate, win_rate));
        }
        out
    }

    /// Quantiles-over-time for one histogram key: `(at, p50, p95, p99)`
    /// per sample that has observations.
    pub fn quantiles(&self, key: &str) -> Vec<(Duration, u64, u64, u64)> {
        self.samples
            .iter()
            .filter_map(|s| {
                let h = s.snapshot.histograms.get(key)?;
                if h.count() == 0 {
                    return None;
                }
                Some((s.at, h.quantile(0.5), h.quantile(0.95), h.quantile(0.99)))
            })
            .collect()
    }

    /// The latest snapshot, if any sample exists.
    pub fn latest(&self) -> Option<&Sample> {
        self.samples.back()
    }

    /// Aligned text report: counter rates, gauges, and histogram
    /// percentiles from the latest sample — the body of `STATS;`.
    pub fn render(&self) -> String {
        let Some(last) = self.samples.back() else {
            return "stats: no samples yet\n".to_string();
        };
        let mut out = format!(
            "stats: {} sample(s) over {}\n",
            self.samples.len(),
            crate::span::format_duration(self.span()),
        );
        let rates = self.rates();
        let width = last
            .snapshot
            .counters
            .keys()
            .chain(last.snapshot.gauges.keys())
            .chain(last.snapshot.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max(20);
        if !rates.is_empty() {
            out.push_str(&format!(
                "  {:<width$}  {:>10}  {:>10}\n",
                "counter", "now/s", "avg/s"
            ));
            for (key, now, avg) in &rates {
                out.push_str(&format!("  {key:<width$}  {now:>10.1}  {avg:>10.1}\n"));
            }
        }
        let mut gauges: Vec<(&str, i64)> = Vec::new();
        for (&k, &v) in &last.snapshot.gauges {
            gauges.push((k, v));
        }
        if !gauges.is_empty() {
            out.push_str(&format!("  {:<width$}  {:>10}\n", "gauge", "value"));
            for (k, v) in gauges {
                out.push_str(&format!("  {k:<width$}  {v:>10}\n"));
            }
        }
        let hists: BTreeMap<&str, (u64, u64, u64, u64, u64)> = last
            .snapshot
            .histograms
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(&k, h)| {
                (
                    k,
                    (
                        h.count(),
                        h.quantile(0.5),
                        h.quantile(0.95),
                        h.quantile(0.99),
                        h.max(),
                    ),
                )
            })
            .collect();
        if !hists.is_empty() {
            out.push_str(&format!(
                "  {:<width$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                "histogram", "n", "p50", "p95", "p99", "max"
            ));
            for (k, (n, p50, p95, p99, max)) in hists {
                out.push_str(&format!(
                    "  {k:<width$}  {n:>10}  {p50:>10}  {p95:>10}  {p99:>10}  {max:>10}\n"
                ));
            }
        }
        out
    }
}

struct SamplerShared {
    registry: &'static MetricsRegistry,
    window: Mutex<Window>,
}

/// Background sampler over a registry. Owns a thread that ticks at a
/// fixed interval; dropping the sampler stops the thread promptly.
pub struct Sampler {
    shared: Arc<SamplerShared>,
    stop: Sender<()>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling `registry` every `interval` into a window of
    /// [`DEFAULT_WINDOW`] samples.
    pub fn start(registry: &'static MetricsRegistry, interval: Duration) -> Sampler {
        let shared = Arc::new(SamplerShared {
            registry,
            window: Mutex::new(Window::new(DEFAULT_WINDOW)),
        });
        let (stop, rx) = mpsc::channel::<()>();
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("sh-trace-sampler".to_string())
            .spawn(move || loop {
                match rx.recv_timeout(interval) {
                    Err(RecvTimeoutError::Timeout) => {
                        let snap = thread_shared.registry.snapshot();
                        lock(&thread_shared.window).push(snap);
                    }
                    _ => return,
                }
            })
            .expect("spawn sampler thread");
        Sampler {
            shared,
            stop,
            handle: Some(handle),
        }
    }

    /// Takes one sample right now (deterministic path for tests and for
    /// `STATS;`, which wants data fresher than the last interval tick).
    pub fn tick(&self) {
        let snap = self.shared.registry.snapshot();
        lock(&self.shared.window).push(snap);
    }

    /// Runs `f` against the current window.
    pub fn with_window<T>(&self, f: impl FnOnce(&Window) -> T) -> T {
        f(&lock(&self.shared.window))
    }

    /// Renders the current window (see [`Window::render`]).
    pub fn render(&self) -> String {
        lock(&self.shared.window).render()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaked_registry() -> &'static MetricsRegistry {
        Box::leak(Box::new(MetricsRegistry::new()))
    }

    #[test]
    fn window_turns_counters_into_rates() {
        let reg = MetricsRegistry::new();
        let mut w = Window::new(8);
        reg.counter_add("job.completed", 2);
        w.push(reg.snapshot());
        std::thread::sleep(Duration::from_millis(20));
        reg.counter_add("job.completed", 6);
        reg.counter_add("never.moves", 0);
        w.push(reg.snapshot());
        let rates = w.rates();
        assert_eq!(rates.len(), 1, "unmoved counters are omitted: {rates:?}");
        let (key, now, avg) = rates[0];
        assert_eq!(key, "job.completed");
        assert!(now > 0.0 && avg > 0.0);
        // 6 new observations over ≥20ms can't exceed 300/s.
        assert!(now <= 300.0, "rate {now} implausibly high");
    }

    #[test]
    fn window_is_bounded() {
        let reg = MetricsRegistry::new();
        let mut w = Window::new(4);
        for i in 0..10 {
            reg.counter_add("x", i);
            w.push(reg.snapshot());
        }
        assert_eq!(w.len(), 4);
        assert!(w.span() <= Duration::from_secs(1));
    }

    #[test]
    fn quantiles_over_time_track_the_histogram() {
        let reg = MetricsRegistry::new();
        let mut w = Window::new(8);
        reg.observe("job.task.micros", 100);
        w.push(reg.snapshot());
        for _ in 0..100 {
            reg.observe("job.task.micros", 4000);
        }
        w.push(reg.snapshot());
        let q = w.quantiles("job.task.micros");
        assert_eq!(q.len(), 2);
        let (_, p50_a, _, _) = q[0];
        let (_, p50_b, _, p99_b) = q[1];
        assert!(p50_b > p50_a, "median must rise with the new load");
        assert!(p99_b >= p50_b);
        assert!(w.quantiles("absent.key").is_empty());
    }

    #[test]
    fn render_reports_live_data() {
        let reg = MetricsRegistry::new();
        let mut w = Window::new(8);
        assert!(w.render().contains("no samples"));
        reg.counter_add("op.completed", 1);
        reg.gauge_set("dfs.nodes.alive", 25);
        reg.observe("job.wall.micros", 1234);
        w.push(reg.snapshot());
        reg.counter_add("op.completed", 3);
        w.push(reg.snapshot());
        let text = w.render();
        assert!(text.contains("op.completed"), "{text}");
        assert!(text.contains("dfs.nodes.alive"), "{text}");
        assert!(text.contains("job.wall.micros"), "{text}");
        assert!(text.contains("p99"), "{text}");
    }

    #[test]
    fn background_sampler_ticks_and_stops() {
        let reg = leaked_registry();
        reg.counter_add("bg.counter", 1);
        let sampler = Sampler::start(reg, Duration::from_millis(5));
        sampler.tick(); // deterministic first sample
        let deadline = Instant::now() + Duration::from_secs(2);
        while sampler.with_window(|w| w.len()) < 3 {
            assert!(Instant::now() < deadline, "sampler never ticked");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(sampler); // must join promptly without hanging the test
    }
}
