//! Cross-layer observability: hierarchical spans, a process-wide metrics
//! registry, per-job query profiles, a structured event journal, and a
//! time-series sampler turning counters into rates and percentiles.

#![forbid(unsafe_code)]

pub mod events;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod sampler;
pub mod span;
pub mod sync;

pub use events::{emit, journal, Event, EventJournal};
pub use metrics::{global, Histogram, MetricKind, MetricsRegistry, RegistrySnapshot};
pub use profile::{format_bytes, JobProfile, PhaseProfile, Selectivity};
pub use sampler::{Sample, Sampler, Window};
pub use span::{critical_path, format_duration, Span, SpanRecord, SpanTree, Waterfall};
