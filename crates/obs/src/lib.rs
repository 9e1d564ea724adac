//! # mls-obs — observability substrate for the landing-system engine
//!
//! Process-wide, dependency-free observability: a sharded metrics
//! registry ([`Registry`]), hierarchical wall-clock [`Span`]s, and
//! pluggable sinks (versioned JSONL event log, Prometheus-style text
//! exposition dump, opt-in stderr progress line), all switched by the
//! `MLS_OBS` environment variable (see [`ObsConfig`] for the grammar).
//!
//! ## Non-perturbation contract
//!
//! Observability *observes*; it never feeds back into the engine. No
//! simulation state, report field, or captured trace may depend on
//! anything this crate measures — campaign and falsification artifacts
//! are byte-identical with obs fully on or off, and an integration test
//! in `mls-campaign` pins that. Sinks are best-effort: an unwritable
//! directory degrades to silence, never to an error the engine can see.
//!
//! ## Runtime switch
//!
//! The global state initializes once (from `MLS_OBS`, or explicitly via
//! [`init`]) and afterwards [`set_enabled`] flips a master switch without
//! re-reading the environment — which is how the on/off equivalence test
//! toggles obs inside one process.
//!
//! ## Typical instrumentation
//!
//! ```
//! use std::sync::{Arc, OnceLock};
//!
//! if mls_obs::enabled() {
//!     static FLOWN: OnceLock<Arc<mls_obs::Counter>> = OnceLock::new();
//!     FLOWN.get_or_init(|| mls_obs::counter("mls_missions_flown_total")).inc();
//!     let mut span = mls_obs::span("mission");
//!     span.field("seed", 42u64);
//!     // ... fly the mission; the span emits on drop ...
//! }
//! ```

#![forbid(unsafe_code)]

mod artifact;
mod config;
mod progress;
mod registry;
mod sink;
mod span;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

pub use artifact::atomic_write;
pub use config::{ObsConfig, DEFAULT_DIR};
pub use progress::Progress;
pub use registry::{Counter, Histogram, Registry, SECONDS_BUCKETS};
pub use sink::{artifact_name, json_escape, json_f64, EventLog, JsonObject, SCHEMA};
pub use span::{FieldValue, Span};

/// The process-wide observability state.
#[derive(Debug)]
struct Obs {
    config: ObsConfig,
    enabled: AtomicBool,
    events: Option<EventLog>,
    progress: Progress,
}

impl Obs {
    fn from_config(config: ObsConfig) -> Self {
        let events = config.jsonl.then(|| EventLog::new(&config.dir));
        let progress = Progress::new(config.progress);
        Self {
            enabled: AtomicBool::new(config.any_sink()),
            events,
            progress,
            config,
        }
    }
}

static OBS: OnceLock<Obs> = OnceLock::new();

fn obs() -> &'static Obs {
    OBS.get_or_init(|| Obs::from_config(ObsConfig::from_env()))
}

/// Initializes the global state with an explicit configuration instead of
/// the environment. First initialization wins (the state is
/// process-global); returns `false` when it was already initialized.
pub fn init(config: ObsConfig) -> bool {
    let mut fresh = false;
    OBS.get_or_init(|| {
        fresh = true;
        Obs::from_config(config)
    });
    fresh
}

/// Whether observability is live right now: at least one sink is
/// configured *and* the master switch is on. Instrument sites gate their
/// `Instant::now()` calls and span creation on this — when it returns
/// `false` the hot path pays one relaxed atomic load.
pub fn enabled() -> bool {
    obs().enabled.load(Ordering::Relaxed)
}

/// Flips the master switch at runtime. Turning on is a no-op when no sink
/// was configured at initialization (there would be nowhere to write).
pub fn set_enabled(on: bool) {
    let state = obs();
    state
        .enabled
        .store(on && state.config.any_sink(), Ordering::Relaxed);
}

/// Whether the JSONL event sink is live.
pub fn jsonl_enabled() -> bool {
    let state = obs();
    state.enabled.load(Ordering::Relaxed) && state.events.is_some()
}

/// The counter named `name` in the global registry. Hot call sites should
/// cache the returned [`Arc`] in a `OnceLock` — the lookup takes a mutex.
pub fn counter(name: &str) -> Arc<Counter> {
    Registry::global().counter(name)
}

/// The histogram named `name` in the global registry (bounds fixed on
/// first registration).
pub fn histogram(name: &str, bounds: &[f64]) -> Arc<Histogram> {
    Registry::global().histogram(name, bounds)
}

/// Defines `pub fn $fn_name() -> &'static Arc<Counter>` bound to the
/// counter `$metric`, resolved once per process through a `OnceLock` —
/// the cached form of [`counter`] for hot call sites.
///
/// ```
/// mls_obs::cached_counter!(flown, "mls_doc_missions_flown_total");
/// flown().inc();
/// assert_eq!(flown().value(), 1);
/// ```
#[macro_export]
macro_rules! cached_counter {
    ($fn_name:ident, $metric:literal) => {
        pub fn $fn_name() -> &'static ::std::sync::Arc<$crate::Counter> {
            static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
                ::std::sync::OnceLock::new();
            CELL.get_or_init(|| $crate::counter($metric))
        }
    };
}

/// Defines `pub fn $fn_name() -> &'static Arc<Histogram>` bound to the
/// histogram `$metric` with [`SECONDS_BUCKETS`], resolved once per process
/// through a `OnceLock` — the cached form of [`histogram`] for hot call
/// sites.
#[macro_export]
macro_rules! cached_seconds_histogram {
    ($fn_name:ident, $metric:literal) => {
        pub fn $fn_name() -> &'static ::std::sync::Arc<$crate::Histogram> {
            static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
                ::std::sync::OnceLock::new();
            CELL.get_or_init(|| $crate::histogram($metric, $crate::SECONDS_BUCKETS))
        }
    };
}

/// Opens a span named `name` (must be a valid metric-name fragment,
/// `snake_case`); inert when observability is off. The guard times the
/// region into `mls_span_<name>_seconds` and emits a `span` event on drop.
pub fn span(name: &'static str) -> Span {
    if enabled() {
        Span::enabled(name)
    } else {
        Span::disabled()
    }
}

/// Emits one structured event to the JSONL log (no-op when the sink is
/// off): `{"event":<name>,"unix_s":...,<fields>...}`.
pub fn event(name: &str, fields: &[(&str, FieldValue)]) {
    if !jsonl_enabled() {
        return;
    }
    let mut object = JsonObject::new();
    object
        .str("event", name)
        .f64("unix_s", sink::unix_seconds());
    span::append_fields(&mut object, fields);
    write_event_line(object.finish());
}

/// Appends a pre-rendered JSON line to the event log (used by [`Span`]).
pub(crate) fn write_event_line(line: String) {
    if let Some(log) = &obs().events {
        log.write_line(&line);
    }
}

/// The campaign progress tracker (counters feed the stderr line when the
/// `progress` sink is on; they are always safe to bump).
pub fn progress() -> &'static Progress {
    &obs().progress
}

/// Registers `n` more planned missions on the progress line.
pub fn progress_planned(n: u64) {
    if enabled() {
        obs().progress.add_planned(n);
    }
}

/// Records one flown mission on the progress line.
pub fn progress_mission_flown() {
    if enabled() {
        obs().progress.mission_flown();
    }
}

/// Records an early-stop verdict (and the missions it saved) on the
/// progress line.
pub fn progress_early_stop(missions_saved: u64) {
    if enabled() {
        obs().progress.early_stop(missions_saved);
    }
}

/// Flushes every sink: the JSONL log is flushed to disk, the exposition
/// dump is (re)written when that sink is configured, and the progress
/// line is finished with a newline. Returns the paths of the artifacts
/// that exist after the flush. Call at the end of a run (the bench
/// harness does this for every binary); safe to call repeatedly.
pub fn flush() -> Vec<PathBuf> {
    let state = obs();
    let mut paths = Vec::new();
    state.progress.finish();
    if let Some(log) = &state.events {
        if let Some(path) = log.flush() {
            paths.push(path);
        }
    }
    if state.config.exposition && state.enabled.load(Ordering::Relaxed) {
        let path = state
            .config
            .dir
            .join(sink::artifact_name("metrics", "prom"));
        if atomic_write(&path, Registry::global().exposition().as_bytes()).is_ok() {
            paths.push(path);
        }
    }
    paths
}

#[cfg(test)]
mod tests {
    use super::*;

    // The OnceLock global is process-wide, so the unit tests here pin it to
    // a known configuration once and every test works against that. The
    // richer end-to-end behaviours (env parsing, file artifacts) are
    // covered by the per-module tests and the integration tests, which own
    // their processes.
    fn pin_disabled() {
        init(ObsConfig::disabled());
    }

    #[test]
    fn disabled_process_has_inert_spans_and_events() {
        pin_disabled();
        assert!(!enabled());
        assert!(!jsonl_enabled());
        let span = span("unit_lib");
        assert!(!span.is_enabled());
        event("unit", &[("k", FieldValue::U64(1))]);
        // set_enabled(true) cannot enable a sinkless process.
        set_enabled(true);
        assert!(!enabled());
    }

    #[test]
    fn registry_helpers_share_the_global_registry() {
        pin_disabled();
        counter("mls_unit_total").add(2);
        assert_eq!(counter("mls_unit_total").value(), 2);
        histogram("mls_unit_seconds", SECONDS_BUCKETS).observe(0.01);
        assert_eq!(histogram("mls_unit_seconds", SECONDS_BUCKETS).count(), 1);
    }

    #[test]
    fn flush_on_disabled_process_produces_no_artifacts() {
        pin_disabled();
        assert!(flush().is_empty());
    }
}
