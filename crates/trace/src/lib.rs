//! Flight recorder, deterministic replay and automated failure triage for
//! the landing-system reproduction.
//!
//! A failed mission used to leave behind only a scalar
//! [`MissionOutcome`](mls_core::MissionOutcome) summary; forensics meant
//! re-running by hand. This crate turns every mission into a replayable
//! artifact.
//!
//! # Module map
//!
//! * [`event`] — the typed [`TraceEvent`] model: decimated physics
//!   snapshots, directive transitions, marker observations before and after
//!   fault tampering, planning queries and latencies, failsafe triggers and
//!   fault-activation edges.
//! * [`format`](mod@format) — the versioned JSON-lines on-disk format
//!   ([`Trace`] / [`TraceHeader`]): a header line carrying seed, variant,
//!   scenario, campaign coordinates, spec hash and the fault-space
//!   [`AxisCoordinate`]s the mission flew; one compact event per following
//!   line, deterministically encoded. `docs/TRACE_FORMAT.md` in the
//!   repository root specifies the format for external tooling.
//! * [`recorder`] — the ring-buffered [`TraceRecorder`] implementing the
//!   `mls-core` [`TraceSink`](mls_core::TraceSink) seam, plus the
//!   [`TracePolicy`] campaigns use to decide what to keep.
//! * [`replay`] and [`triage`](mod@triage) — byte-exact replay verification
//!   ([`verify_replay`]) and the [`triage()`] classifier that maps a trace
//!   onto the paper's Fig. 5 failure taxonomy ([`Fig5Class`]).
//! * [`signature`](mod@signature) and [`corpus`] — the quantized
//!   [`FailureSignature`] dedup key over a trace's terminal state and
//!   failsafe/fault-edge skeleton, and the [`TraceCorpus`] store indexing
//!   captured trace trees by family, fault coordinates, triage class,
//!   verdict and signature, with a deterministic filter/group/count/sample
//!   query API.
//!
//! # Examples
//!
//! Record a mission and triage its trace:
//!
//! ```no_run
//! use mls_compute::{ComputeModel, ComputeProfile};
//! use mls_core::{ExecutorConfig, LandingConfig, MissionExecutor, SystemVariant};
//! use mls_sim_world::{ScenarioConfig, ScenarioGenerator};
//! use mls_trace::{triage, RecorderConfig, TraceRecorder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenarios = ScenarioGenerator::new(ScenarioConfig {
//!     maps: 1, scenarios_per_map: 1, ..Default::default()
//! }).generate_benchmark(42)?;
//! let recorder_config = RecorderConfig::default();
//! let header = recorder_config.header(
//!     "adhoc", 7, SystemVariant::MlsV3, scenarios[0].id, &scenarios[0].name, 0, 0, 0,
//! );
//! let recorder = TraceRecorder::new(header);
//! let handle = recorder.handle();
//! let outcome = MissionExecutor::for_variant(
//!     &scenarios[0],
//!     SystemVariant::MlsV3,
//!     LandingConfig::default(),
//!     ComputeModel::new(ComputeProfile::desktop_sil())?,
//!     ExecutorConfig::default(),
//!     7,
//! )?
//! .with_trace_sink(Box::new(recorder))
//! .run();
//! let trace = handle.finish();
//! println!("{:?} → {:?}", outcome.result, triage(&trace).class);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

pub mod corpus;
pub mod event;
pub mod format;
pub mod recorder;
pub mod replay;
pub mod signature;
pub mod triage;

pub use corpus::{CorpusQuery, CorpusRecord, TraceCorpus, CORPUS_INDEX_FILE, CORPUS_INDEX_VERSION};
pub use event::{MarkerSighting, TraceEvent};
pub use format::{config_hash, AxisCoordinate, Trace, TraceHeader, TRACE_FORMAT_VERSION};
pub use recorder::{RecorderConfig, TraceHandle, TracePolicy, TraceRecorder};
pub use replay::{verify_replay, ReplayVerdict};
pub use signature::{verdict_label, FailureSignature};
pub use triage::{triage, Fig5Class, TriageReport};

/// Errors produced by the trace subsystem.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// Serialising or parsing a trace failed.
    Serialize(String),
    /// A filesystem operation failed.
    Io(String),
    /// The trace or corpus index was written in a format version other
    /// than the one this library reads.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
        /// The only version this library reads.
        supported: u32,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Serialize(reason) => write!(f, "trace serialisation failed: {reason}"),
            TraceError::Io(reason) => write!(f, "trace io failed: {reason}"),
            TraceError::UnsupportedVersion { found, supported } => write!(
                f,
                "trace format version {found} is not the supported version {supported}"
            ),
        }
    }
}

impl Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_context() {
        let err = TraceError::Serialize("bad line".to_string());
        assert!(err.to_string().contains("bad line"));
        let err = TraceError::UnsupportedVersion {
            found: 9,
            supported: TRACE_FORMAT_VERSION,
        };
        assert!(err.to_string().contains('9'));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceError>();
    }
}
