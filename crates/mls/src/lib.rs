//! The marker-based autonomous landing system of the paper, assembled from
//! the substrate crates of this workspace.
//!
//! The crate implements the multi-module architecture of Fig. 1: a marker
//! [`DetectionModule`], a [`MappingModule`], a [`PlanningModule`], and the
//! Fig. 2 [`DecisionModule`] state machine, composed into the three system
//! generations the paper evaluates ([`SystemVariant::MlsV1`] /
//! [`SystemVariant::MlsV2`] / [`SystemVariant::MlsV3`]). A
//! [`MissionExecutor`] flies an assembled [`LandingSystem`] through a
//! [`mls_sim_world::Scenario`] on a simulated vehicle and compute platform,
//! producing the [`MissionOutcome`] records the benchmark tables aggregate.
//!
//! # Examples
//!
//! Run MLS-V3 on one benchmark scenario under the SIL (desktop) compute
//! profile:
//!
//! ```no_run
//! use mls_compute::{ComputeModel, ComputeProfile};
//! use mls_core::{ExecutorConfig, LandingConfig, MissionExecutor, SystemVariant};
//! use mls_sim_world::{ScenarioConfig, ScenarioGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenarios = ScenarioGenerator::new(ScenarioConfig { maps: 1, scenarios_per_map: 1, ..Default::default() })
//!     .generate_benchmark(42)?;
//! let compute = ComputeModel::new(ComputeProfile::desktop_sil())?;
//! let executor = MissionExecutor::for_variant(
//!     &scenarios[0],
//!     SystemVariant::MlsV3,
//!     LandingConfig::default(),
//!     compute,
//!     ExecutorConfig::default(),
//!     7,
//! )?;
//! let outcome = executor.run();
//! println!("{:?} landed {:?} m from the marker", outcome.result, outcome.landing_error);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

mod config;
mod decision;
mod detection;
mod executor;
mod fault;
mod mapping;
mod planning;
mod system;
mod trace;

pub use config::LandingConfig;
pub use decision::{DecisionInputs, DecisionModule, DecisionState, Directive, FailsafeReason};
pub use detection::{DetectionEvent, DetectionModule, DetectionStats};
pub use executor::{ExecutorConfig, MissionExecutor, MissionOutcome, MissionResult};
pub use fault::{FaultHook, NoFaults, TickFaults};
pub use mapping::{MappingBackend, MappingModule, NoMap};
pub use planning::{PlannedTrajectory, PlanningModule};
pub use system::{LandingSystem, SystemVariant};
pub use trace::{NoTrace, ObservationStage, TraceSink};

/// Errors produced by the landing-system crate.
#[derive(Debug)]
#[non_exhaustive]
pub enum MlsError {
    /// A mission or module configuration value was out of range.
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
    /// The mapping substrate rejected its configuration.
    Mapping(mls_mapping::MappingError),
    /// The planning substrate failed.
    Planning(mls_planning::PlanningError),
}

impl fmt::Display for MlsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlsError::InvalidConfig { reason } => {
                write!(f, "invalid landing configuration: {reason}")
            }
            MlsError::Mapping(err) => write!(f, "mapping error: {err}"),
            MlsError::Planning(err) => write!(f, "planning error: {err}"),
        }
    }
}

impl Error for MlsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MlsError::Mapping(err) => Some(err),
            MlsError::Planning(err) => Some(err),
            MlsError::InvalidConfig { .. } => None,
        }
    }
}

impl From<mls_mapping::MappingError> for MlsError {
    fn from(err: mls_mapping::MappingError) -> Self {
        MlsError::Mapping(err)
    }
}

impl From<mls_planning::PlanningError> for MlsError {
    fn from(err: mls_planning::PlanningError) -> Self {
        MlsError::Planning(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync_display_and_sourced() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MlsError>();
        let err = MlsError::InvalidConfig {
            reason: "x".to_string(),
        };
        assert!(err.to_string().contains('x'));
        assert!(err.source().is_none());
        let err: MlsError = mls_planning::PlanningError::InvalidConfig {
            reason: "bad".to_string(),
        }
        .into();
        assert!(err.source().is_some());
        let err: MlsError = mls_mapping::MappingError::InvalidConfig {
            reason: "bad".to_string(),
        }
        .into();
        assert!(err.to_string().contains("mapping"));
    }
}
