//! Sharded fault-injection campaign engine with multi-dimensional
//! falsification search.
//!
//! The paper's evaluation is a *campaign*: hundreds of missions swept over
//! scenario suites, weather, system generations and compute platforms
//! (Tables I–III, Fig. 5). This crate is the engine those sweeps run on, and
//! the extension the falsification literature suggests — actively searching
//! the *joint* fault space for the smallest perturbation that breaks a
//! landing system, because failures live at the intersection of stressors.
//!
//! # Module map
//!
//! * [`faults`] — the deterministic, seed-driven fault model: eight
//!   [`FaultKind`] axes (occlusion bursts, detection dropout, spoofed
//!   markers, GNSS bias, wind gusts, compute throttling, depth-cloud
//!   corruption, planner starvation), each a declarative [`FaultPlan`]
//!   instantiated into a [`FaultInjector`]; a [`CompositeInjector`] flies
//!   several plans concurrently, and a [`FaultSpace`] names the intensity
//!   axes the falsification engine searches over.
//! * [`spec`] — the declarative, serde-serializable [`CampaignSpec`]:
//!   scenario-suite dimensions × system variants × compute profiles ×
//!   single-fault plans and multi-fault `combos`, plus the [`TracePolicy`]
//!   deciding which missions keep their traces.
//! * [`executor`] — the self-scheduling [`MissionExecutor`]: each batch
//!   runs on the calling thread plus scoped helper threads that claim jobs
//!   off a shared cursor and are joined before the batch returns, so jobs
//!   may borrow what they fly from the caller.
//! * [`runner`] — deterministic mission sweeps on that executor, through one
//!   mission batch path shared by campaigns, probe generations and
//!   resumes, with per-mission deterministic RNG streams, optional
//!   early-stopped cells ([`EarlyStopPolicy`]) and exact per-cell
//!   statistics: each [`MetricSummary`] is computed from every record of
//!   its cell, percentiles as order statistics. Reports are byte-identical
//!   for a given spec and seed regardless of thread count, and
//!   [`CampaignRunner::replay`](runner::CampaignRunner::replay) re-executes
//!   any recorded trace and byte-compares the regenerated stream.
//! * [`journal`] — the crash-safety layer: a versioned write-ahead result
//!   journal recording one fsync'd slot record per flown mission (probe
//!   missions included), keyed by configuration hash with floats as
//!   IEEE-754 bit patterns, so an interrupted campaign or search
//!   ([`CampaignRunner::resume`](runner::CampaignRunner::resume)) re-flies
//!   only the missing missions and reproduces its artifacts
//!   byte-identically. [`wire`] is the bit-exact encoding of a mission
//!   slot that each journal record carries.
//! * [`suites`] — the process-wide [`SuiteCache`] memoizing generated
//!   scenario suites by `(family, suite seed, maps, scenarios per map)`,
//!   so repeated campaigns and multi-space falsification runs stop
//!   regenerating identical worlds.
//! * [`search`] — the falsification engine: pluggable [`Searcher`]s
//!   (coarse-to-fine grid refinement, a small self-contained diagonal
//!   CMA-ES) driven through an ask/tell batch interface, so a whole
//!   generation of probes — one-cell campaigns on the runner's slot path —
//!   flies as one executor batch
//!   ([`CampaignRunner::run_probe_rates`](runner::CampaignRunner::run_probe_rates))
//!   while counterexamples and probe logs stay independent of the thread
//!   count; counterexample minimization
//!   onto the failure frontier, and capture of each minimal failing point
//!   as a triaged, replay-verified trace linked from the
//!   [`FalsificationReport`].
//! * [`report`] — JSON/CSV campaign reports ([`CampaignReport`]) with
//!   per-trace links ([`TraceLink`]) carrying Fig. 5 triage classes.
//!
//! # Examples
//!
//! Run a small fault campaign end to end:
//!
//! ```no_run
//! use mls_campaign::{CampaignRunner, CampaignSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = CampaignSpec::smoke();
//! let report = CampaignRunner::new(4).run(&spec)?;
//! println!("{}", report.to_json()?);
//! # Ok(())
//! # }
//! ```
//!
//! Falsify a system generation over a two-axis fault space and ship the
//! minimal counterexample as a replayable trace:
//!
//! ```no_run
//! use mls_campaign::{
//!     FalsificationConfig, FalsificationSearch, FaultAxis, FaultKind, FaultSpace,
//!     GridRefinementConfig, Searcher,
//! };
//! use mls_core::SystemVariant;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let search = FalsificationSearch::new(FalsificationConfig::default(), 4);
//! let space = FaultSpace::new(
//!     "occlusion-x-gps-bias",
//!     vec![
//!         FaultAxis::full(FaultKind::MarkerOcclusion),
//!         FaultAxis::full(FaultKind::GpsBias),
//!     ],
//! );
//! let searcher = Searcher::GridRefinement(GridRefinementConfig::default());
//! let result = search.falsify(SystemVariant::MlsV1, &space, &searcher)?;
//! if let Some(ce) = &result.counterexample {
//!     println!(
//!         "minimal failure at {} → {:?}",
//!         space.label_point(&ce.point),
//!         ce.trace.as_ref().map(|t| &t.path),
//!     );
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

pub mod executor;
pub mod faults;
pub mod journal;
pub mod report;
pub mod runner;
pub mod search;
pub mod spec;
mod stats;
pub mod suites;
pub mod wire;

pub use executor::MissionExecutor;
pub use faults::{
    CompositeInjector, FaultAxis, FaultInjector, FaultKind, FaultPlan, FaultSpace,
    MissionFaultContext,
};
pub use journal::{Journal, JournalHandle, JournalHeader, JournalScope, JOURNAL_SCHEMA};
pub use mls_trace::{
    CorpusQuery, CorpusRecord, FailureSignature, TraceCorpus, TracePolicy, CORPUS_INDEX_FILE,
};
pub use report::{CampaignReport, CellReport, EarlyStopSummary, MetricSummary, TraceLink};
pub use runner::{CampaignRunner, MissionRecord, MissionSlot, ProbeRate};
pub use search::{
    CmaEsConfig, Counterexample, FalsificationConfig, FalsificationReport, FalsificationSearch,
    GridRefinementConfig, ProbePoint, SearchStage, Searcher, SpaceFalsification,
};
pub use spec::{fault_point_label, CampaignCell, CampaignSpec, EarlyStopPolicy};
pub use suites::{SuiteCache, SuiteKey};

/// Errors produced by the campaign engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum CampaignError {
    /// The campaign specification was rejected.
    InvalidSpec {
        /// Human-readable description.
        reason: String,
    },
    /// Scenario generation failed.
    World(mls_sim_world::SimWorldError),
    /// Assembling a landing system failed.
    Mls(mls_core::MlsError),
    /// Capturing, persisting or parsing a mission trace failed.
    Trace(mls_trace::TraceError),
    /// Serialising a report failed.
    Serialize(String),
    /// The write-ahead result journal failed (I/O, integrity, or a
    /// resume against an edited configuration).
    Journal(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::InvalidSpec { reason } => {
                write!(f, "invalid campaign specification: {reason}")
            }
            CampaignError::World(err) => write!(f, "scenario generation failed: {err}"),
            CampaignError::Mls(err) => write!(f, "landing-system assembly failed: {err}"),
            CampaignError::Trace(err) => write!(f, "trace capture failed: {err}"),
            CampaignError::Serialize(reason) => write!(f, "report serialisation failed: {reason}"),
            CampaignError::Journal(reason) => {
                write!(f, "result journal failed: {reason}")
            }
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::World(err) => Some(err),
            CampaignError::Mls(err) => Some(err),
            CampaignError::Trace(err) => Some(err),
            _ => None,
        }
    }
}

impl From<mls_sim_world::SimWorldError> for CampaignError {
    fn from(err: mls_sim_world::SimWorldError) -> Self {
        CampaignError::World(err)
    }
}

impl From<mls_core::MlsError> for CampaignError {
    fn from(err: mls_core::MlsError) -> Self {
        CampaignError::Mls(err)
    }
}

impl From<mls_trace::TraceError> for CampaignError {
    fn from(err: mls_trace::TraceError) -> Self {
        CampaignError::Trace(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Removes each top-level key of `value` in turn and asserts that
    /// `parse` rejects the result with an error naming the key.
    pub(crate) fn assert_every_key_is_required<T, E: fmt::Display>(
        value: &serde::Value,
        parse: impl Fn(&str) -> Result<T, E>,
    ) {
        let serde::Value::Object(fields) = value else {
            panic!("expected a JSON object");
        };
        for (key, _) in fields {
            let stripped = fields.iter().filter(|(k, _)| k != key).cloned().collect();
            let json = serde_json::to_string(&serde::Value::Object(stripped)).unwrap();
            match parse(&json) {
                Ok(_) => panic!("parsed without `{key}`"),
                Err(err) => assert!(
                    err.to_string().contains(&format!("missing field `{key}`")),
                    "without `{key}`: {err}"
                ),
            }
        }
    }

    #[test]
    fn errors_display_and_source() {
        let err = CampaignError::InvalidSpec {
            reason: "zero maps".to_string(),
        };
        assert!(err.to_string().contains("zero maps"));
        assert!(err.source().is_none());
        let err: CampaignError = mls_core::MlsError::InvalidConfig {
            reason: "bad".to_string(),
        }
        .into();
        assert!(err.source().is_some());
    }
}
