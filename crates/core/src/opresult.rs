//! Operation results and errors.

use std::fmt;

use sh_dfs::DfsError;
use sh_geom::ParseError;
use sh_mapreduce::{JobError, JobOutcome, SimBreakdown};
use sh_trace::{JobProfile, Selectivity};

/// Error surfaced by the operations layer.
#[derive(Debug)]
pub enum OpError {
    /// MapReduce job failure.
    Job(JobError),
    /// Direct DFS failure (driver-side reads/writes).
    Dfs(DfsError),
    /// Record parse failure in driver-side processing.
    Parse(ParseError),
    /// Master file is unreadable.
    Corrupt(String),
    /// The operation's preconditions are not met (e.g. a pruning-based
    /// operation over a non-disjoint index).
    Unsupported(String),
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Job(e) => write!(f, "job failed: {e}"),
            OpError::Dfs(e) => write!(f, "dfs error: {e}"),
            OpError::Parse(e) => write!(f, "{e}"),
            OpError::Corrupt(m) => write!(f, "corrupt index: {m}"),
            OpError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for OpError {}

impl From<JobError> for OpError {
    fn from(e: JobError) -> Self {
        match e {
            // A task that hit corrupt input surfaces under the same
            // error the driver-side readers use, honouring the codec.rs
            // contract regardless of which side spotted the bad bytes.
            JobError::CorruptInput(m) => OpError::Corrupt(m),
            e => OpError::Job(e),
        }
    }
}

impl From<DfsError> for OpError {
    fn from(e: DfsError) -> Self {
        OpError::Dfs(e)
    }
}

impl From<ParseError> for OpError {
    fn from(e: ParseError) -> Self {
        OpError::Parse(e)
    }
}

/// Result of a (possibly multi-job) distributed operation: the value plus
/// every job outcome, so experiments can report simulated cluster time
/// and counters.
#[derive(Clone, Debug)]
pub struct OpResult<T> {
    /// The operation's answer.
    pub value: T,
    /// Outcomes of the MapReduce jobs run, in order.
    pub jobs: Vec<JobOutcome>,
}

impl<T> OpResult<T> {
    /// Wraps a value computed with the given jobs.
    pub fn new(value: T, jobs: Vec<JobOutcome>) -> OpResult<T> {
        OpResult { value, jobs }
    }

    /// Total simulated cluster time across all jobs (multi-round
    /// operations pay the per-job startup repeatedly).
    pub fn sim(&self) -> SimBreakdown {
        self.jobs.iter().fold(SimBreakdown::default(), |acc, j| {
            acc.add(&SimBreakdown::of(&j.profile))
        })
    }

    /// Sum of a named counter across jobs.
    pub fn counter(&self, name: &str) -> u64 {
        self.jobs
            .iter()
            .map(|j| j.profile.counters.get(name).copied().unwrap_or(0))
            .sum()
    }

    /// Total map tasks launched (≈ partitions processed).
    pub fn map_tasks(&self) -> usize {
        self.jobs.iter().map(JobOutcome::map_tasks).sum()
    }

    /// Number of MapReduce rounds.
    pub fn rounds(&self) -> usize {
        self.jobs.len()
    }

    /// Maps the value, keeping the job history.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> OpResult<U> {
        OpResult {
            value: f(self.value),
            jobs: self.jobs,
        }
    }

    /// [`OpResult::map`] through a fallible `f`: a rows-level answer's
    /// typed view.
    pub fn try_map<U>(
        self,
        f: impl FnOnce(T) -> Result<U, OpError>,
    ) -> Result<OpResult<U>, OpError> {
        Ok(OpResult {
            value: f(self.value)?,
            jobs: self.jobs,
        })
    }

    /// Records the operation's splitter selectivity on the final job's
    /// profile and mirrors it into the global metrics registry under
    /// `op.*`.
    pub fn with_selectivity(mut self, sel: Selectivity) -> OpResult<T> {
        let g = sh_trace::global();
        g.counter_add("op.completed", 1);
        g.counter_add("op.partitions.scanned", sel.partitions_scanned);
        g.counter_add("op.partitions.pruned", sel.partitions_pruned);
        g.counter_add("op.records.scanned", sel.records_scanned);
        g.counter_add("op.records.emitted", sel.records_emitted);
        if let Some(job) = self.jobs.last_mut() {
            job.profile.selectivity = sel;
        }
        self
    }

    /// Selectivity summed across all jobs (set by [`with_selectivity`]).
    ///
    /// [`with_selectivity`]: OpResult::with_selectivity
    pub fn selectivity(&self) -> Selectivity {
        let mut acc = Selectivity::default();
        for j in &self.jobs {
            acc.absorb(&j.profile.selectivity);
        }
        acc
    }

    /// Aggregated profile across all of the operation's jobs, named
    /// after the operation (multi-round ops sum their rounds).
    pub fn profile(&self, op: &str) -> JobProfile {
        let mut p = JobProfile::new(op);
        for j in &self.jobs {
            p.absorb(&j.profile);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_opresult_sums() {
        let r: OpResult<u32> = OpResult::new(7, Vec::new());
        assert_eq!(r.value, 7);
        assert_eq!(r.sim().total(), 0.0);
        assert_eq!(r.counter("anything"), 0);
        assert_eq!(r.rounds(), 0);
        let r = r.map(|v| v * 2);
        assert_eq!(r.value, 14);
    }
}
