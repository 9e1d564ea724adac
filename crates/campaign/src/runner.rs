//! The campaign runner: deterministic mission sweeps on the self-scheduling
//! mission executor.
//!
//! Missions are independent, but their costs vary wildly (a V1 mission that
//! crashes in 40 s is an order of magnitude cheaper than a V3 mission that
//! searches, validates and descends). Every batch therefore runs on the
//! [`MissionExecutor`]: the calling thread and the batch's helper threads
//! claim the next job off a shared cursor until the batch drains, so load
//! balances automatically.
//!
//! Determinism is preserved by separating *execution* order from
//! *aggregation* order: each mission's seed is a pure function of its grid
//! coordinates ([`CampaignSpec::mission_seed`]), and each cell is
//! summarised from its records in global job order after all workers have
//! joined.
//! The resulting [`CampaignReport`] is byte-identical for a given spec
//! regardless of thread count — including under early stopping, whose
//! decided prefix is a pure function of the mission outcomes in job order
//! ([`EarlyStopPolicy::decide`]).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use mls_compute::ComputeModel;
use mls_core::{FailsafeReason, MissionOutcome, MissionResult};
use mls_sim_world::Scenario;
use mls_trace::{
    verify_replay, RecorderConfig, ReplayVerdict, Trace, TraceCorpus, TraceHeader, TraceRecorder,
};

use crate::executor::MissionExecutor;
use crate::faults::{CompositeInjector, MissionFaultContext};
use crate::journal::{Journal, JournalHandle, JournalScope};
use crate::report::{CampaignReport, CellReport, EarlyStopSummary, TraceLink};
use crate::spec::{CampaignCell, CampaignSpec, EarlyStopPolicy};
use crate::stats;
use crate::suites::{SuiteCache, SuiteKey};
use crate::CampaignError;

/// Cached campaign instruments (see [`mls_obs::cached_counter!`]).
mod instruments {
    use mls_obs::cached_counter;

    cached_counter!(missions_flown, "mls_campaign_missions_flown_total");
    cached_counter!(missions_skipped, "mls_campaign_missions_skipped_total");
    cached_counter!(missions_success, "mls_campaign_mission_success_total");
    cached_counter!(missions_collision, "mls_campaign_mission_collision_total");
    cached_counter!(
        missions_poor_landing,
        "mls_campaign_mission_poor_landing_total"
    );
    cached_counter!(early_stops, "mls_campaign_early_stops_total");
    cached_counter!(
        early_stop_missions_saved,
        "mls_campaign_early_stop_missions_saved_total"
    );
    cached_counter!(cells, "mls_campaign_cells_total");
    cached_counter!(journal_recovered, "mls_campaign_journal_recovered_total");
}

/// Feeds one flown mission's classification into the obs counters and the
/// progress line (callers gate on [`mls_obs::enabled`]).
fn record_mission_outcome(result: MissionResult) {
    instruments::missions_flown().inc();
    match result {
        MissionResult::Success => instruments::missions_success().inc(),
        MissionResult::CollisionFailure => instruments::missions_collision().inc(),
        MissionResult::PoorLanding => instruments::missions_poor_landing().inc(),
    }
    mls_obs::progress_mission_flown();
}

/// The compact per-mission record the aggregation stage consumes.
///
/// Public (with [`MissionSlot`]) so a caller that flies missions itself
/// can aggregate them through [`CampaignRunner::assemble_report`]; the
/// bit-exact encoding the journal stores lives in [`crate::wire`].
#[derive(Debug, Clone, PartialEq)]
pub struct MissionRecord {
    /// Final mission classification.
    pub result: MissionResult,
    /// Why the system failsafed, when it did.
    pub failsafe: Option<FailsafeReason>,
    /// Distance from touchdown to the true marker, metres (landed missions).
    pub landing_error: Option<f64>,
    /// Mean marker-detection error, metres (missions that detected at all).
    pub detection_error: Option<f64>,
    /// Mission wall-clock duration, simulated seconds.
    pub duration: f64,
    /// Mean simulated CPU utilisation, 0–1.
    pub mean_cpu: f64,
    /// Peak simulated memory footprint, MB.
    pub peak_memory_mb: f64,
    /// Worst planning latency observed, seconds.
    pub worst_planning_latency: f64,
    /// Final GPS drift magnitude, metres.
    pub gps_drift: f64,
    /// Frames the marker was geometrically visible in.
    pub visible_frames: usize,
    /// Visible frames the detector nevertheless missed.
    pub missed_frames: usize,
    /// The mission's captured trace, when the spec's policy kept it.
    pub trace: Option<Box<Trace>>,
}

impl MissionRecord {
    fn from_outcome(outcome: &MissionOutcome) -> Self {
        Self {
            result: outcome.result,
            failsafe: outcome.failsafe,
            landing_error: outcome.landing_error,
            detection_error: outcome.mean_detection_error,
            duration: outcome.duration,
            mean_cpu: outcome.mean_cpu,
            peak_memory_mb: outcome.peak_memory_mb,
            worst_planning_latency: outcome.worst_planning_latency,
            gps_drift: outcome.gps_drift,
            visible_frames: outcome.detection_stats.visible_frames,
            missed_frames: outcome.detection_stats.missed_frames,
            trace: None,
        }
    }
}

/// One result slot of a campaign batch: a flown mission, or a mission the
/// early-stop bound cancelled (or whose cell decided while it was already
/// in flight — those results are discarded so the report stays a pure
/// function of the decided prefix).
#[derive(Debug)]
pub enum MissionSlot {
    /// The mission flew; its record feeds the aggregation stage.
    Flown(Box<MissionRecord>),
    /// The mission was cancelled by (or discarded beyond) an early-stop
    /// decision.
    Skipped,
}

/// The job-order outcome a slot contributes to the early-stop replay.
fn slot_success(slot: &MissionSlot) -> Option<bool> {
    match slot {
        MissionSlot::Flown(record) => Some(record.result == MissionResult::Success),
        MissionSlot::Skipped => None,
    }
}

/// Decides early stopping from mission outcomes in job order: the decided
/// prefix length and verdict, walking only the contiguous resolved prefix.
/// This is the one early-stop rule — the live in-flight [`CellProgress`]
/// re-runs it as outcomes land, and [`CampaignRunner::assemble_report`]
/// replays it over every batch, however its slots were produced.
fn replay_early_stop(
    policy: &EarlyStopPolicy,
    outcomes: impl Iterator<Item = Option<bool>>,
    planned: usize,
) -> (usize, bool) {
    let mut resolved = 0usize;
    let mut successes = 0usize;
    for outcome in outcomes.take(planned) {
        let Some(success) = outcome else { break };
        resolved += 1;
        successes += usize::from(success);
        if let Some(verdict) = policy.decide(successes, resolved, planned) {
            return (resolved, verdict);
        }
    }
    (
        planned,
        (successes as f64 / planned.max(1) as f64) >= policy.threshold,
    )
}

/// Per-cell early-stop bookkeeping shared by the workers flying the cell.
///
/// The decision is deliberately a pure function of the mission outcomes in
/// *job order*: outcomes land out of order, but [`replay_early_stop`] only
/// walks the contiguous resolved prefix, so the decided prefix — and with
/// it everything the report records — is independent of scheduling.
struct CellProgress {
    policy: EarlyStopPolicy,
    inner: Mutex<ProgressInner>,
}

struct ProgressInner {
    /// Mission outcomes in job order, `None` until resolved.
    outcomes: Vec<Option<bool>>,
    /// The decided prefix length: the full schedule until the bound
    /// decides.
    prefix: usize,
}

impl CellProgress {
    fn new(policy: EarlyStopPolicy, planned: usize) -> Self {
        Self {
            policy,
            inner: Mutex::new(ProgressInner {
                outcomes: vec![None; planned],
                prefix: planned,
            }),
        }
    }

    /// Whether the mission at `within` is beyond the decided prefix and
    /// need not fly.
    fn should_skip(&self, within: usize) -> bool {
        within >= self.inner.lock().expect("cell progress poisoned").prefix
    }

    /// Records one mission outcome and re-decides the prefix.
    fn record(&self, within: usize, success: bool) {
        let mut inner = self.inner.lock().expect("cell progress poisoned");
        let planned = inner.outcomes.len();
        if inner.prefix < planned {
            // The cell decided while this mission was in flight; its
            // result is outside the prefix and must not influence anything.
            return;
        }
        inner.outcomes[within] = Some(success);
        let (prefix, _) = replay_early_stop(&self.policy, inner.outcomes.iter().copied(), planned);
        inner.prefix = prefix;
    }

    /// The (prefix length, verdict) the outcomes recorded so far decide.
    #[cfg(test)]
    fn verdict(&self) -> (usize, bool) {
        let inner = self.inner.lock().expect("cell progress poisoned");
        replay_early_stop(
            &self.policy,
            inner.outcomes.iter().copied(),
            inner.outcomes.len(),
        )
    }
}

/// Everything a campaign's mission jobs need.
struct MissionContext<'a> {
    spec: &'a CampaignSpec,
    cells: Vec<CampaignCell>,
    suites: &'a [Arc<Vec<Scenario>>],
    missions_per_cell: usize,
    config_hash: u64,
    recorder: Option<RecorderConfig>,
    progress: Option<Vec<CellProgress>>,
    journal: Option<Arc<Journal>>,
    /// Slots a previous incarnation journaled, decoded before any job
    /// starts; each job takes its own.
    recovered: Mutex<BTreeMap<usize, MissionSlot>>,
}

impl<'a> MissionContext<'a> {
    /// Validates `spec` against its scenario suites (one per entry of
    /// [`CampaignSpec::families`]) and builds the context its jobs fly
    /// from. The journal is opened (through `open_journal`) only once the
    /// spec validates, and its recovered slots feed the per-cell
    /// early-stop bookkeeping before any job starts: a cell the journal
    /// already decides skips its tail whatever order the jobs run in, so
    /// resuming from a complete journal flies nothing.
    fn new(
        spec: &'a CampaignSpec,
        suites: &'a [Arc<Vec<Scenario>>],
        open_journal: impl FnOnce() -> Result<Option<Arc<Journal>>, CampaignError>,
    ) -> Result<Self, CampaignError> {
        spec.validate()?;
        if suites.len() != spec.families.len() {
            return Err(CampaignError::InvalidSpec {
                reason: format!(
                    "{} scenario suites supplied but the spec sweeps {} families",
                    suites.len(),
                    spec.families.len()
                ),
            });
        }
        for (family, suite) in spec.families.iter().zip(suites) {
            if suite.len() != spec.maps * spec.scenarios_per_map {
                return Err(CampaignError::InvalidSpec {
                    reason: format!(
                        "the {} scenario suite has {} scenarios but the spec's grid needs {}",
                        family.label(),
                        suite.len(),
                        spec.maps * spec.scenarios_per_map
                    ),
                });
            }
        }
        let cells = spec.cells();
        let missions_per_cell = spec.missions_per_cell();
        let config_hash = spec.config_hash()?;
        let journal = open_journal()?;
        let progress: Option<Vec<CellProgress>> = spec.probe_early_stop.map(|policy| {
            cells
                .iter()
                .map(|_| CellProgress::new(policy, missions_per_cell))
                .collect()
        });
        let mut recovered = BTreeMap::new();
        if let Some(journal) = &journal {
            for index in 0..cells.len() * missions_per_cell {
                let Some(value) = journal.recovered_slot(config_hash, index) else {
                    continue;
                };
                let slot = crate::wire::slot_from_value(value)?;
                if let (Some(progress), Some(success)) = (&progress, slot_success(&slot)) {
                    progress[index / missions_per_cell].record(index % missions_per_cell, success);
                }
                recovered.insert(index, slot);
            }
            if mls_obs::enabled() && !recovered.is_empty() {
                instruments::journal_recovered().add(recovered.len() as u64);
            }
        }
        Ok(Self {
            recorder: spec.capture.captures().then(RecorderConfig::default),
            spec,
            cells,
            suites,
            missions_per_cell,
            config_hash,
            progress,
            journal,
            recovered: Mutex::new(recovered),
        })
    }

    /// The missions the context's grid plans.
    fn missions(&self) -> usize {
        self.cells.len() * self.missions_per_cell
    }
}

/// The campaign engine: expands a spec, flies it on the shared mission
/// executor and aggregates a deterministic report.
#[derive(Debug, Clone)]
pub struct CampaignRunner {
    threads: usize,
    trace_dir: Option<PathBuf>,
    executor: Arc<MissionExecutor>,
    suites: SuiteCache,
    journal: Option<Arc<JournalHandle>>,
}

impl CampaignRunner {
    /// Upper bound on the worker-thread count: a typo'd `threads` value must
    /// not ask the OS for thousands of stacks.
    pub const MAX_THREADS: usize = 512;

    /// Creates a runner using at most `threads` concurrent mission workers
    /// (clamped to `1..=`[`CampaignRunner::MAX_THREADS`]) on the shared
    /// process-wide [`MissionExecutor`].
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.clamp(1, Self::MAX_THREADS),
            trace_dir: None,
            executor: MissionExecutor::global(),
            suites: SuiteCache::global().clone(),
            journal: None,
        }
    }

    /// Overrides the directory captured traces are persisted in (default:
    /// `traces/<campaign name>`).
    #[must_use]
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Attaches a write-ahead result journal at `path`: every completed
    /// mission slot is appended (and fsync'd) as it lands, and a later
    /// [`CampaignRunner::resume`] against the same path re-flies only the
    /// missing missions — producing byte-identical artifacts. The journal
    /// is campaign-scoped: it pins the first spec's configuration hash and
    /// rejects any other spec loudly.
    #[must_use]
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(Arc::new(JournalHandle::new(
            path.into(),
            JournalScope::Campaign,
        )));
        self
    }

    /// Attaches a pre-built journal handle — the form the falsification
    /// search uses to share one search-scoped journal across all its
    /// member campaigns and probe generations.
    #[must_use]
    pub fn with_journal_handle(mut self, handle: Arc<JournalHandle>) -> Self {
        self.journal = Some(handle);
        self
    }

    /// The attached journal handle, when one is set.
    pub fn journal_handle(&self) -> Option<&Arc<JournalHandle>> {
        self.journal.as_ref()
    }

    /// Opens this runner's journal for a campaign over `spec` (`None`
    /// when no journal is attached). A campaign-scoped journal enforces
    /// the edited-configuration gate; a search-scoped one admits every
    /// member spec, keying records by each spec's own hash. Fails with
    /// [`CampaignError::Journal`] when the journal cannot be opened, fails
    /// integrity checks, or pins a different configuration.
    fn campaign_journal(&self, spec: &CampaignSpec) -> Result<Option<Arc<Journal>>, CampaignError> {
        match &self.journal {
            None => Ok(None),
            Some(handle) => match handle.scope() {
                JournalScope::Campaign => handle.open_primary(spec).map(Some),
                JournalScope::Search => handle.open_ambient(Some(spec)).map(Some),
            },
        }
    }

    /// Opens this runner's journal for probe generations (`None` when no
    /// journal is attached); probe slots key by each probe spec's own
    /// hash, so no primary-spec gate applies.
    fn probe_journal(&self) -> Result<Option<Arc<Journal>>, CampaignError> {
        match &self.journal {
            None => Ok(None),
            Some(handle) => handle.open_ambient(None).map(Some),
        }
    }

    /// Resumes the campaign a journal describes: re-runs the spec embedded
    /// in the journal's header, replaying every journaled slot and flying
    /// only the missing ones. The resulting report, traces and corpus
    /// index are byte-identical to an uninterrupted run of the same spec.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Journal`] when the journal is missing,
    /// fails integrity checks, embeds no spec, or its pinned hash does not
    /// match the embedded spec (an edited journal), plus any error the
    /// underlying [`CampaignRunner::run`] raises.
    pub fn resume(self, journal_path: impl Into<PathBuf>) -> Result<CampaignReport, CampaignError> {
        let path = journal_path.into();
        if !path.exists() {
            return Err(CampaignError::Journal(format!(
                "no journal at {} to resume",
                path.display()
            )));
        }
        let handle = Arc::new(JournalHandle::new(path, JournalScope::Campaign));
        let journal = handle.open_ambient(None)?;
        let header = journal.header();
        let spec_json = header.spec_json.clone().ok_or_else(|| {
            CampaignError::Journal(format!(
                "journal {} embeds no campaign spec to resume",
                handle.path().display()
            ))
        })?;
        let spec = CampaignSpec::from_json(&spec_json)?;
        let expected = spec.config_hash()?;
        if header.config_hash != Some(expected) {
            return Err(CampaignError::Journal(format!(
                "journal {} pins config hash {} but its embedded spec hashes to \
                 {expected:#018x} — the journal has been edited",
                handle.path().display(),
                header
                    .config_hash
                    .map_or("null".to_string(), |hash| format!("{hash:#018x}")),
            )));
        }
        self.with_journal_handle(handle).run(&spec)
    }

    /// Attaches another executor instead of the process-wide one (its
    /// `max_workers` caps the helper threads of this runner's batches).
    #[must_use]
    pub fn with_executor(mut self, executor: Arc<MissionExecutor>) -> Self {
        self.executor = executor;
        self
    }

    /// Attaches a private scenario-suite cache instead of the process-wide
    /// one.
    #[must_use]
    pub fn with_suite_cache(mut self, suites: SuiteCache) -> Self {
        self.suites = suites;
        self
    }

    /// Where a spec's traces land on disk.
    pub fn trace_dir(&self, spec: &CampaignSpec) -> PathBuf {
        self.trace_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("traces").join(&spec.name))
    }

    /// The maximum concurrent mission workers per batch.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs the campaign end to end: per-family scenario suites (memoized
    /// in the suite cache), the sharded mission sweep, and per-cell
    /// aggregation.
    ///
    /// # Errors
    ///
    /// Returns an error when the spec is invalid, scenario generation fails,
    /// or a landing system cannot be assembled.
    pub fn run(&self, spec: &CampaignSpec) -> Result<CampaignReport, CampaignError> {
        spec.validate()?;
        let suites = self.suites_for(spec)?;
        self.run_with_shared_suites(spec, &suites)
    }

    /// Runs the campaign over shared scenario suites, one per entry of
    /// [`CampaignSpec::families`], in the same order (from
    /// [`CampaignRunner::suites_for`], or built by the caller) — the path
    /// every campaign, probe baseline and resume flies through. Callers
    /// sweeping many specs over the same worlds, such as the falsification
    /// search, generate the suites once and share them.
    ///
    /// # Errors
    ///
    /// Returns an error when the spec is invalid, the suites do not match
    /// the grid, or a landing system cannot be assembled.
    pub fn run_with_shared_suites(
        &self,
        spec: &CampaignSpec,
        suites: &[Arc<Vec<Scenario>>],
    ) -> Result<CampaignReport, CampaignError> {
        let context = MissionContext::new(spec, suites, || self.campaign_journal(spec))?;
        let mut campaign_span = mls_obs::span("campaign");
        if campaign_span.is_enabled() {
            campaign_span
                .field("name", spec.name.as_str())
                .field("cells", context.cells.len())
                .field("missions_planned", context.missions());
            instruments::cells().add(context.cells.len() as u64);
            mls_obs::progress_planned(context.missions() as u64);
        }
        let mut reports = self.fly(&[context])?;
        Ok(reports.pop().expect("one report per context"))
    }

    /// Flies the missions of every context as one executor batch — the
    /// contexts' jobs back to back, each context's in its own job order —
    /// and assembles one report per context, in order.
    ///
    /// A context's job `i` maps to (cell, repeat, scenario) in row-major
    /// order, so a cell's missions occupy one contiguous, ordered slice of
    /// the results.
    fn fly(&self, contexts: &[MissionContext]) -> Result<Vec<CampaignReport>, CampaignError> {
        let starts: Vec<usize> = contexts
            .iter()
            .scan(0, |next, context| {
                let start = *next;
                *next += context.missions();
                Some(start)
            })
            .collect();
        let total = contexts.iter().map(MissionContext::missions).sum();
        let results: Vec<Result<MissionSlot, CampaignError>> =
            self.executor.execute(total, self.threads, |index| {
                let owner = starts.partition_point(|&start| start <= index) - 1;
                run_mission_job(&contexts[owner], index - starts[owner])
            });

        let mut results = results.into_iter();
        let batches = contexts
            .iter()
            .map(|context| {
                results
                    .by_ref()
                    .take(context.missions())
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        contexts
            .iter()
            .zip(batches)
            .map(|(context, slots)| self.assemble_report(context.spec, slots))
            .collect()
    }

    /// Assembles a [`CampaignReport`] from the complete, job-ordered
    /// mission slots of a campaign batch — the aggregation half of
    /// [`CampaignRunner::run_with_shared_suites`], public so a caller that
    /// flies the missions itself aggregates through the same code.
    ///
    /// The early-stop decision is recomputed here as a pure function of
    /// the slot outcomes in job order (identical to the live in-flight
    /// decision — see `replay_early_stop` in this module), every slot
    /// beyond a cell's decided prefix is discarded before anything is
    /// recorded, and kept
    /// traces are persisted under this runner's trace directory in
    /// deterministic grid order.
    ///
    /// # Errors
    ///
    /// Returns an error when the spec is invalid, the slot count does not
    /// match the spec's grid, or persisting a kept trace fails.
    pub fn assemble_report(
        &self,
        spec: &CampaignSpec,
        mut slots: Vec<MissionSlot>,
    ) -> Result<CampaignReport, CampaignError> {
        spec.validate()?;
        let cells = spec.cells();
        let missions_per_cell = spec.missions_per_cell();
        if slots.len() != cells.len() * missions_per_cell {
            return Err(CampaignError::InvalidSpec {
                reason: format!(
                    "{} mission slots supplied but the spec's grid plans {}",
                    slots.len(),
                    cells.len() * missions_per_cell
                ),
            });
        }

        // Enforce the deterministic early-stop prefix: results beyond a
        // cell's decided prefix (flown speculatively while the decision
        // landed) are discarded before anything is recorded.
        let mut early_summaries = vec![None; cells.len()];
        if let Some(policy) = spec.probe_early_stop {
            for (cell_index, summary) in early_summaries.iter_mut().enumerate() {
                let base = cell_index * missions_per_cell;
                let (flown, verdict) = replay_early_stop(
                    &policy,
                    slots[base..base + missions_per_cell]
                        .iter()
                        .map(slot_success),
                    missions_per_cell,
                );
                for slot in slots
                    .iter_mut()
                    .skip(base + flown)
                    .take(missions_per_cell - flown)
                {
                    *slot = MissionSlot::Skipped;
                }
                *summary = Some(EarlyStopSummary {
                    planned: missions_per_cell,
                    flown,
                    verdict,
                    threshold: policy.threshold,
                });
                if mls_obs::enabled() && flown < missions_per_cell {
                    let saved = (missions_per_cell - flown) as u64;
                    instruments::early_stops().inc();
                    instruments::early_stop_missions_saved().add(saved);
                    mls_obs::progress_early_stop(saved);
                    mls_obs::event(
                        "early_stop",
                        &[
                            ("campaign", spec.name.as_str().into()),
                            ("cell", cell_index.into()),
                            ("flown", flown.into()),
                            ("planned", missions_per_cell.into()),
                            ("verdict", verdict.into()),
                        ],
                    );
                }
            }
        }

        // Persist the kept traces (in deterministic grid order) and link
        // them from the report, each with its triage verdict. The same
        // loop ingests every kept trace into the corpus index written next
        // to the files: because flown and journal-recovered slots alike
        // funnel through this one assembly point in job order, the index —
        // like the report and the traces — is a pure function of
        // (spec, seed), byte-identical across thread counts and resumes.
        let trace_dir = self.trace_dir(spec);
        let mut traces = Vec::new();
        let mut corpus = TraceCorpus::create(&trace_dir);
        for (index, slot) in slots.iter().enumerate() {
            let MissionSlot::Flown(record) = slot else {
                continue;
            };
            let Some(trace) = &record.trace else {
                continue;
            };
            let cell = &cells[index / missions_per_cell];
            let header = &trace.header;
            let file_name = format!(
                "c{:03}-s{:03}-r{}.jsonl",
                cell.index, header.scenario_id, header.repeat
            );
            let path = trace_dir.join(&file_name);
            trace.write_to(&path)?;
            let indexed = corpus.ingest(trace, file_name);
            traces.push(TraceLink {
                cell_index: cell.index,
                cell_label: cell.label(),
                scenario_id: header.scenario_id,
                repeat: header.repeat,
                seed: header.seed,
                result: record.result,
                triage: (indexed.class != "unclassified").then(|| indexed.class.clone()),
                path: path.display().to_string(),
            });
        }
        if spec.capture.captures() {
            corpus.save()?;
        }

        let cell_reports: Vec<CellReport> = cells
            .iter()
            .map(|cell| {
                let slice =
                    &slots[cell.index * missions_per_cell..(cell.index + 1) * missions_per_cell];
                let records: Vec<&MissionRecord> = slice
                    .iter()
                    .filter_map(|slot| match slot {
                        MissionSlot::Flown(record) => Some(&**record),
                        MissionSlot::Skipped => None,
                    })
                    .collect();
                aggregate_cell(cell, &records, early_summaries[cell.index])
            })
            .collect();

        if mls_obs::jsonl_enabled() {
            for cell in &cell_reports {
                mls_obs::event(
                    "cell_outcomes",
                    &[
                        ("campaign", spec.name.as_str().into()),
                        ("cell", cell.index.into()),
                        ("variant", cell.variant.label().into()),
                        ("family", cell.family.label().into()),
                        ("missions", cell.missions.into()),
                        ("success_rate", cell.success_rate.into()),
                        ("collision_rate", cell.collision_rate.into()),
                        ("poor_landing_rate", cell.poor_landing_rate.into()),
                        ("failsafe_rate", cell.failsafe_rate.into()),
                        ("early_stopped", cell.early_stop.is_some().into()),
                    ],
                );
            }
        }

        Ok(CampaignReport {
            name: spec.name.clone(),
            seed: spec.seed,
            missions: cell_reports.iter().map(|cell| cell.missions).sum(),
            cells: cell_reports,
            traces,
        })
    }

    /// Evaluates a set of single-cell probe specs over one shared scenario
    /// suite, returning each probe's success rate and mission count in
    /// input order.
    ///
    /// This is how the falsification engine evaluates a searcher
    /// generation: every probe is a one-cell campaign, and all their
    /// missions fly as one executor batch, saturating the threads even when
    /// each probe flies only a handful of missions, while per-probe early
    /// stopping cancels missions a probe's decided verdict no longer
    /// needs. Each rate is read from the one cell
    /// [`CampaignRunner::assemble_report`] produces for its probe, so it
    /// is the rate [`CampaignRunner::run_with_shared_suites`] records for
    /// that spec alone. With a journal attached, every probe mission is
    /// journaled as a slot under its probe spec's hash.
    ///
    /// # Errors
    ///
    /// Returns an error when a spec is invalid, expands to more than one
    /// cell, or a mission fails to assemble.
    pub fn run_probe_rates(
        &self,
        specs: Vec<CampaignSpec>,
        scenarios: Arc<Vec<Scenario>>,
    ) -> Result<Vec<ProbeRate>, CampaignError> {
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        for spec in &specs {
            spec.validate()?;
            let cells = spec.cells().len();
            if cells != 1 {
                return Err(CampaignError::InvalidSpec {
                    reason: format!(
                        "a probe spec must expand to exactly one cell, '{}' has {cells}",
                        spec.name
                    ),
                });
            }
        }
        let suites = [scenarios];
        let contexts = specs
            .iter()
            .map(|spec| MissionContext::new(spec, &suites, || self.probe_journal()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut probe_span = mls_obs::span("probe_batch");
        if probe_span.is_enabled() {
            let total: usize = contexts.iter().map(MissionContext::missions).sum();
            probe_span
                .field("probes", contexts.len())
                .field("missions_planned", total);
            mls_obs::progress_planned(total as u64);
        }
        Ok(self
            .fly(&contexts)?
            .iter()
            .map(|report| ProbeRate::of(&report.cells[0]))
            .collect())
    }

    /// Generates (or fetches from the suite cache) the benchmark scenario
    /// suite of one of the spec's families.
    fn suite(
        &self,
        spec: &CampaignSpec,
        family: mls_sim_world::ScenarioFamily,
    ) -> Result<Arc<Vec<Scenario>>, CampaignError> {
        self.suites.get_or_generate(SuiteKey {
            family,
            suite_seed: spec.suite_seed(family),
            maps: spec.maps,
            scenarios_per_map: spec.scenarios_per_map,
        })
    }

    /// Generates (or fetches from the suite cache) the benchmark scenario
    /// suite of the spec's *first* family (the only family of single-family
    /// specs and the falsification probes).
    ///
    /// # Errors
    ///
    /// Returns an error when the scenario generator rejects the dimensions.
    pub fn generate_scenarios(
        &self,
        spec: &CampaignSpec,
    ) -> Result<Arc<Vec<Scenario>>, CampaignError> {
        let family = spec
            .families
            .first()
            .copied()
            .ok_or_else(|| CampaignError::InvalidSpec {
                reason: "the spec sweeps no scenario family".to_string(),
            })?;
        self.suite(spec, family)
    }

    /// Generates (or fetches from the suite cache) one scenario suite per
    /// family of the spec, in [`CampaignSpec::families`] order, each from
    /// its [`CampaignSpec::suite_seed`].
    ///
    /// # Errors
    ///
    /// Returns an error when the scenario generator rejects the dimensions.
    pub fn suites_for(
        &self,
        spec: &CampaignSpec,
    ) -> Result<Vec<Arc<Vec<Scenario>>>, CampaignError> {
        spec.families
            .iter()
            .map(|&family| self.suite(spec, family))
            .collect()
    }

    /// Re-executes the mission a trace header describes and returns the
    /// regenerated trace — the (seed, spec)-pure re-run behind replay
    /// verification.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidSpec`] when the header does not match
    /// the spec: drifted configuration hash, unknown cell, missing scenario
    /// or a seed that the spec's schedule does not produce.
    pub fn refly(
        &self,
        spec: &CampaignSpec,
        scenarios: &[Scenario],
        header: &TraceHeader,
    ) -> Result<Trace, CampaignError> {
        spec.validate()?;
        let reject = |reason: String| CampaignError::InvalidSpec { reason };
        let config_hash = spec.config_hash()?;
        if config_hash != header.config_hash {
            return Err(reject(format!(
                "trace was captured under config hash {:#x}, the spec hashes to {:#x}",
                header.config_hash, config_hash
            )));
        }
        let cells = spec.cells();
        let cell = cells
            .get(header.cell_index)
            .ok_or_else(|| reject(format!("cell {} is outside the grid", header.cell_index)))?;
        if cell.variant != header.variant {
            return Err(reject(format!(
                "cell {} flies {:?}, the trace recorded {:?}",
                header.cell_index, cell.variant, header.variant
            )));
        }
        if cell.family.label() != header.family {
            return Err(reject(format!(
                "cell {} flies the {} family, the trace recorded {}",
                header.cell_index,
                cell.family.label(),
                header.family
            )));
        }
        let scenario = scenarios
            .iter()
            .find(|s| s.id == header.scenario_id)
            .ok_or_else(|| {
                reject(format!(
                    "scenario {} is not in the suite",
                    header.scenario_id
                ))
            })?;
        // Scenario ids restart at 0 per family suite, so an id match alone
        // would happily re-fly another family's scenario and report the
        // byte mismatch as nondeterminism.
        if scenario.family != cell.family {
            return Err(reject(format!(
                "the supplied suite's scenario {} is from the {} family, cell {} flies {}",
                scenario.id,
                scenario.family.label(),
                header.cell_index,
                cell.family.label()
            )));
        }
        if spec.mission_seed(scenario.id, header.repeat) != header.seed {
            return Err(reject(format!(
                "seed {} is not the spec's seed for scenario {} repeat {}",
                header.seed, header.scenario_id, header.repeat
            )));
        }
        let recorder = RecorderConfig::from_header(header);
        let (_, trace) = fly_mission(
            spec,
            cell,
            scenario,
            header.repeat,
            config_hash,
            Some(&recorder),
        )?;
        trace.ok_or_else(|| reject("refly produced no trace".to_string()))
    }

    /// Replays a recorded trace and byte-compares the regenerated event
    /// stream against it.
    ///
    /// # Errors
    ///
    /// Returns the [`CampaignRunner::refly`] errors when the trace does not
    /// belong to this (spec, scenario suite).
    pub fn replay(
        &self,
        spec: &CampaignSpec,
        scenarios: &[Scenario],
        recorded: &Trace,
    ) -> Result<ReplayVerdict, CampaignError> {
        let regenerated = self.refly(spec, scenarios, &recorded.header)?;
        Ok(verify_replay(recorded, &regenerated))
    }

    /// Loads the trace a report links through the corpus index rooted at
    /// `corpus_root`, instead of trusting the link's recorded absolute
    /// path.
    ///
    /// A [`TraceLink::path`] is only valid in the filesystem layout the
    /// campaign ran in; archive or relocate the trace directory and every
    /// link dangles, so a replay against it used to fail with a bare I/O
    /// error. The corpus index stores root-relative paths, so resolving
    /// through it survives any relocation of the corpus tree as a whole.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Trace`] when the index is missing or
    /// malformed, and [`CampaignError::InvalidSpec`] when the index has no
    /// record for the link's mission or the record's seed disagrees.
    pub fn load_corpus_trace(corpus_root: &Path, link: &TraceLink) -> Result<Trace, CampaignError> {
        let corpus = TraceCorpus::open(corpus_root)?;
        let record = corpus
            .find_mission(link.cell_index, link.scenario_id, link.repeat)
            .ok_or_else(|| CampaignError::InvalidSpec {
                reason: format!(
                    "corpus index at {} has no record for cell {} scenario {} repeat {}",
                    corpus_root.display(),
                    link.cell_index,
                    link.scenario_id,
                    link.repeat
                ),
            })?;
        if record.seed != link.seed {
            return Err(CampaignError::InvalidSpec {
                reason: format!(
                    "corpus record for cell {} scenario {} repeat {} carries seed {}, \
                     the report links seed {}",
                    link.cell_index, link.scenario_id, link.repeat, record.seed, link.seed
                ),
            });
        }
        Ok(corpus.load(record)?)
    }

    /// Replays a report-linked trace resolved through the corpus index at
    /// `corpus_root` — the relocation-safe form of
    /// [`CampaignRunner::replay`].
    ///
    /// # Errors
    ///
    /// Returns the [`CampaignRunner::load_corpus_trace`] errors when the
    /// link cannot be resolved and the [`CampaignRunner::refly`] errors
    /// when the trace does not belong to this (spec, scenario suite).
    pub fn replay_from_corpus(
        &self,
        spec: &CampaignSpec,
        scenarios: &[Scenario],
        corpus_root: &Path,
        link: &TraceLink,
    ) -> Result<ReplayVerdict, CampaignError> {
        let recorded = Self::load_corpus_trace(corpus_root, link)?;
        self.replay(spec, scenarios, &recorded)
    }
}

/// One probe's evaluated outcome: the success rate over the missions that
/// actually flew.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeRate {
    /// Success rate over the flown (decided-prefix) missions — the
    /// `success_rate` the probe's one-cell [`CampaignReport`] records.
    pub success_rate: f64,
    /// Missions actually flown.
    pub missions_flown: usize,
    /// Missions the schedule planned.
    pub missions_planned: usize,
}

impl ProbeRate {
    /// The rate of a probe's one campaign cell.
    fn of(cell: &CellReport) -> Self {
        Self {
            success_rate: cell.success_rate,
            missions_flown: cell.missions,
            missions_planned: cell.early_stop.map_or(cell.missions, |stop| stop.planned),
        }
    }
}

/// Flies one mission of one campaign batch, or hands back the slot a
/// previous incarnation journaled.
fn run_mission_job(context: &MissionContext, index: usize) -> Result<MissionSlot, CampaignError> {
    let recovered = context
        .recovered
        .lock()
        .expect("recovered slots poisoned")
        .remove(&index);
    if let Some(slot) = recovered {
        return Ok(slot);
    }
    let cell = &context.cells[index / context.missions_per_cell];
    let scenarios = context.suites[cell.suite_index].as_ref();
    let within = index % context.missions_per_cell;
    let scenario = &scenarios[within % scenarios.len()];
    let repeat = within / scenarios.len();
    let progress = context
        .progress
        .as_ref()
        .map(|progress| &progress[cell.index]);
    if progress.is_some_and(|progress| progress.should_skip(within)) {
        if mls_obs::enabled() {
            instruments::missions_skipped().inc();
        }
        return Ok(MissionSlot::Skipped);
    }
    let (outcome, trace) = fly_mission(
        context.spec,
        cell,
        scenario,
        repeat,
        context.config_hash,
        context.recorder.as_ref(),
    )?;
    if let Some(progress) = progress {
        progress.record(within, outcome.result == MissionResult::Success);
    }
    if mls_obs::enabled() {
        record_mission_outcome(outcome.result);
    }
    let mut record = MissionRecord::from_outcome(&outcome);
    record.trace = trace
        .filter(|_| context.spec.capture.keeps(outcome.result))
        .map(Box::new);
    let slot = MissionSlot::Flown(Box::new(record));
    if let Some(journal) = &context.journal {
        journal.append_slot(
            context.config_hash,
            index,
            &crate::wire::slot_to_value(&slot)?,
        )?;
    }
    Ok(slot)
}

/// Flies one mission of one cell, attaching a flight recorder when
/// `recorder` is given. (`config_hash` is only stamped into the trace
/// header.)
fn fly_mission(
    spec: &CampaignSpec,
    cell: &CampaignCell,
    scenario: &Scenario,
    repeat: usize,
    config_hash: u64,
    recorder: Option<&RecorderConfig>,
) -> Result<(MissionOutcome, Option<Trace>), CampaignError> {
    let seed = spec.mission_seed(scenario.id, repeat);
    let compute = ComputeModel::new(spec.profiles[cell.profile_index].clone()).map_err(|err| {
        CampaignError::InvalidSpec {
            reason: err.to_string(),
        }
    })?;
    let mut executor = mls_core::MissionExecutor::for_variant(
        scenario,
        cell.variant,
        spec.landing.clone(),
        compute,
        spec.executor.clone(),
        seed,
    )?;
    if !cell.faults.is_empty() {
        let context = MissionFaultContext {
            target_marker_id: scenario.target_marker_id,
            gps_target: scenario.gps_target,
            marker_size: scenario.marker_size,
            max_duration: spec.executor.max_duration,
        };
        // A single plan keeps the raw mission seed for its injector
        // stream (the composite sub-seed derivation only engages when
        // plans actually compose); several plans compose on derived
        // per-plan sub-seeds.
        executor = match cell.faults.as_slice() {
            [plan] => executor.with_fault_hook(Box::new(plan.injector(seed, &context))),
            plans => {
                executor.with_fault_hook(Box::new(CompositeInjector::new(plans, seed, &context)))
            }
        };
    }
    let mut handle = None;
    if let Some(config) = recorder {
        let mut header = config.header(
            &spec.name,
            seed,
            cell.variant,
            scenario.id,
            &scenario.name,
            cell.index,
            repeat,
            config_hash,
        );
        // Stamp the scenario family and the fault-space point the
        // mission flies, so the trace is self-describing about its suite
        // and falsification coordinates. Replay regenerates the same
        // stamps from the spec's cell, keeping the header
        // byte-comparison exact.
        header.family = cell.family.label().to_string();
        header.coordinates = cell
            .faults
            .iter()
            .map(|plan| mls_trace::AxisCoordinate {
                axis: plan.kind.label().to_string(),
                value: plan.intensity,
            })
            .collect();
        let trace_recorder = TraceRecorder::new(header);
        handle = Some(trace_recorder.handle());
        executor = executor.with_trace_sink(Box::new(trace_recorder));
    }
    let outcome = executor.run();
    Ok((outcome, handle.map(mls_trace::TraceHandle::finish)))
}

/// Aggregates one cell's records (already in deterministic job order,
/// restricted to the decided prefix) into a [`CellReport`], summarising
/// each metric exactly from the records that carry it.
fn aggregate_cell(
    cell: &CampaignCell,
    records: &[&MissionRecord],
    early_stop: Option<EarlyStopSummary>,
) -> CellReport {
    let n = records.len().max(1) as f64;
    let rate = |predicate: &dyn Fn(&MissionRecord) -> bool| {
        records.iter().filter(|r| predicate(r)).count() as f64 / n
    };
    let summary = |metric: &dyn Fn(&MissionRecord) -> Option<f64>| {
        let samples: Vec<f64> = records.iter().filter_map(|r| metric(r)).collect();
        stats::summarize(&samples)
    };
    let visible: usize = records.iter().map(|r| r.visible_frames).sum();
    let missed: usize = records.iter().map(|r| r.missed_frames).sum();

    CellReport {
        index: cell.index,
        family: cell.family,
        variant: cell.variant,
        profile: cell.profile.clone(),
        faults: cell.faults.clone(),
        missions: records.len(),
        success_rate: rate(&|r| r.result == MissionResult::Success),
        collision_rate: rate(&|r| r.result == MissionResult::CollisionFailure),
        poor_landing_rate: rate(&|r| r.result == MissionResult::PoorLanding),
        failsafe_rate: rate(&|r| r.failsafe.is_some()),
        false_negative_rate: if visible == 0 {
            0.0
        } else {
            missed as f64 / visible as f64
        },
        landing_error: summary(&|r| r.landing_error),
        detection_error: summary(&|r| r.detection_error),
        duration: summary(&|r| Some(r.duration)),
        mean_cpu: summary(&|r| Some(r.mean_cpu)),
        peak_memory_mb: summary(&|r| Some(r.peak_memory_mb)),
        worst_planning_latency: summary(&|r| Some(r.worst_planning_latency)),
        gps_drift: summary(&|r| Some(r.gps_drift)),
        early_stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::MetricSummary;

    #[test]
    fn runner_clamps_threads() {
        assert_eq!(CampaignRunner::new(0).threads(), 1);
        assert_eq!(
            CampaignRunner::new(1_000_000).threads(),
            CampaignRunner::MAX_THREADS
        );
    }

    #[test]
    fn runners_share_the_global_suite_cache() {
        let spec = CampaignSpec::smoke();
        let a = CampaignRunner::new(2);
        let b = CampaignRunner::new(4);
        let suite = a.generate_scenarios(&spec).unwrap();
        assert!(Arc::ptr_eq(&suite, &b.generate_scenarios(&spec).unwrap()));
        let c = a.clone();
        assert!(Arc::ptr_eq(&suite, &c.generate_scenarios(&spec).unwrap()));
    }

    #[test]
    fn mismatched_scenario_suite_is_rejected() {
        let spec = CampaignSpec::smoke();
        let err = CampaignRunner::new(1)
            .run_with_shared_suites(&spec, &[Arc::new(Vec::new())])
            .unwrap_err();
        assert!(err.to_string().contains("scenario suite"));
    }

    #[test]
    fn invalid_spec_is_rejected_before_any_mission_flies() {
        let mut spec = CampaignSpec::smoke();
        spec.variants.clear();
        assert!(CampaignRunner::new(1).run(&spec).is_err());
    }

    #[test]
    fn probe_specs_with_several_cells_are_rejected() {
        let runner = CampaignRunner::new(1);
        let spec = CampaignSpec::smoke(); // baseline + 3 faults → 12 cells
        let suite = Arc::new(Vec::new());
        let err = runner.run_probe_rates(vec![spec], suite).unwrap_err();
        assert!(err.to_string().contains("exactly one cell"));
    }

    #[test]
    fn cell_progress_decides_on_the_deterministic_prefix() {
        let progress = CellProgress::new(EarlyStopPolicy::exact(0.75), 8);
        // Out-of-order arrival: the prefix cursor waits for mission 0.
        progress.record(1, false);
        progress.record(2, false);
        assert!(!progress.should_skip(3));
        progress.record(0, false);
        // Prefix 0..3 resolved: (0 + 5)/8 < 0.75 decides fail at 3.
        assert!(progress.should_skip(3));
        assert_eq!(progress.verdict(), (3, false));
        // A straggler that was already in flight does not move anything.
        progress.record(5, true);
        assert_eq!(progress.verdict(), (3, false));
    }

    #[test]
    fn aggregate_cell_summarises_each_metric_over_the_records_that_carry_it() {
        let cell = &CampaignSpec::smoke().cells()[0];
        let records: Vec<MissionRecord> = (0..8u32)
            .map(|i| MissionRecord {
                result: MissionResult::Success,
                failsafe: None,
                // Every third mission never touches down.
                landing_error: (i % 3 != 2).then_some(f64::from(i)),
                detection_error: None,
                duration: 100.0 + f64::from(i),
                mean_cpu: 0.5,
                peak_memory_mb: 256.0,
                worst_planning_latency: 0.01,
                gps_drift: 0.0,
                visible_frames: 10,
                missed_frames: 1,
                trace: None,
            })
            .collect();
        let records: Vec<&MissionRecord> = records.iter().collect();
        let report = aggregate_cell(cell, &records, None);
        assert_eq!(report.missions, 8);
        assert_eq!(report.duration.count, 8);
        // Landing errors 0 1 3 4 6 7: p95 at rank 1 + 0.95·5 = 5.75.
        assert_eq!(report.landing_error.count, 6);
        assert_eq!(report.landing_error.p95, Some(6.75));
        assert_eq!(report.detection_error, MetricSummary::empty());
    }

    #[test]
    fn cell_progress_without_a_decision_flies_everything() {
        let progress = CellProgress::new(EarlyStopPolicy::exact(0.5), 4);
        for within in 0..4 {
            assert!(!progress.should_skip(within));
            progress.record(within, within % 2 == 1);
        }
        let (flown, verdict) = progress.verdict();
        assert_eq!(flown, 4);
        assert!(verdict, "2/4 = 0.5 ≥ 0.5 passes");
    }
}
