//! resume_smoke — the crash/resume smoke behind CI's `resume-smoke` job.
//!
//! Flies a small trace-capturing campaign grid undisturbed, then
//! re-executes this binary as a *journaled* run of the same grid, SIGKILLs
//! that child once its write-ahead journal holds [`KILL_AFTER`] durable
//! records, resumes the orphaned journal with [`CampaignRunner::resume`]
//! into a wiped trace directory, and *enforces by exit code* that the
//! resumed report and every persisted file under the trace directory
//! (traces and corpus index) are byte-identical to the undisturbed run
//! (docs/RESILIENCE.md). The journal is left at [`JOURNAL`] for
//! inspection.
//!
//! `MLS_THREADS` and `MLS_SEED` size the run as for every harness binary.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mls_bench::{finish_obs, print_header, HarnessOptions};
use mls_campaign::{CampaignRunner, CampaignSpec, FaultKind, FaultPlan, TracePolicy};
use mls_core::SystemVariant;

/// Durable journal records after which the child is SIGKILLed.
const KILL_AFTER: usize = 3;
/// Marks the re-executed copy of this binary that plays the doomed
/// journaled run.
const CHILD_ENV: &str = "MLS_RESUME_SMOKE_CHILD";
/// Where every run of the smoke persists its traces.
const TRACE_DIR: &str = "target/resume-smoke-traces";
/// The child's write-ahead journal.
const JOURNAL: &str = "target/resume-smoke.journal.jsonl";

/// The smoke grid: 2 variants × (baseline + 2 faults) = 6 cells, with
/// failure-trace capture so the trace path is exercised too.
fn smoke_spec(seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec {
        name: "resume-smoke".to_string(),
        seed,
        maps: 1,
        scenarios_per_map: 2,
        variants: vec![SystemVariant::MlsV1, SystemVariant::MlsV3],
        faults: vec![
            FaultPlan::new(FaultKind::MarkerOcclusion, 0.6),
            FaultPlan::new(FaultKind::GpsBias, 0.6),
        ],
        capture: TracePolicy::FailuresOnly,
        ..CampaignSpec::default()
    };
    spec.landing.mission_timeout = 120.0;
    spec.executor.max_duration = 150.0;
    spec
}

/// Reads every file under `dir` into path-relative bytes.
fn snapshot_dir(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&current) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if let (Ok(relative), Ok(bytes)) = (path.strip_prefix(dir), std::fs::read(&path))
            {
                files.insert(relative.to_string_lossy().into_owned(), bytes);
            }
        }
    }
    files
}

/// Counts durable (newline-terminated) journal records on disk; the
/// header line does not count, nor does a torn tail.
fn durable_records(journal: &Path) -> usize {
    std::fs::read_to_string(journal)
        .map(|text| text.matches('\n').count().saturating_sub(1))
        .unwrap_or(0)
}

/// One run's artifacts: the report JSON and the bytes under the trace
/// directory.
struct Artifacts {
    report_json: String,
    files: BTreeMap<String, Vec<u8>>,
}

impl Artifacts {
    fn capture(report: mls_campaign::CampaignReport) -> Result<Self, String> {
        Ok(Self {
            report_json: report.to_json().map_err(|err| err.to_string())?,
            files: snapshot_dir(Path::new(TRACE_DIR)),
        })
    }
}

/// The doomed child: a journaled run of the smoke grid. The parent
/// SIGKILLs this process mid-campaign, so the success path is only reached
/// when the child outruns the kill — the journal on disk is the real
/// output.
fn child() -> ExitCode {
    let options = HarnessOptions::from_env();
    match CampaignRunner::new(options.threads)
        .with_journal(JOURNAL)
        .with_trace_dir(TRACE_DIR)
        .run(&smoke_spec(options.seed))
    {
        Ok(_) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("resume-smoke child failed: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Spawns the journaled child and SIGKILLs it at [`KILL_AFTER`] durable
/// records. Returns the records that survived and whether the kill landed
/// (`false` when the child finished first).
fn kill_journaled_child() -> Result<(usize, bool), String> {
    let exe =
        std::env::current_exe().map_err(|err| format!("cannot locate own executable: {err}"))?;
    let mut child = std::process::Command::new(exe)
        .env(CHILD_ENV, "1")
        .spawn()
        .map_err(|err| format!("cannot spawn the journaled child: {err}"))?;
    let journal = Path::new(JOURNAL);
    let deadline = Instant::now() + Duration::from_secs(600);
    let killed = loop {
        if let Some(status) = child
            .try_wait()
            .map_err(|err| format!("cannot poll the child: {err}"))?
        {
            if !status.success() {
                return Err(format!("the child exited with {status} before the kill"));
            }
            break false;
        }
        if durable_records(journal) >= KILL_AFTER {
            // `Child::kill` is SIGKILL on Unix: no unwinding, no flush.
            let _ = child.kill();
            let _ = child.wait();
            break true;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("the journal never reached {KILL_AFTER} records"));
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    Ok((durable_records(journal), killed))
}

fn smoke() -> Result<usize, String> {
    let options = HarnessOptions::from_env();
    let spec = smoke_spec(options.seed);
    println!(
        "grid: {} cells × {} missions, {} threads, seed {}; SIGKILL after {KILL_AFTER} journal records",
        spec.cells().len(),
        spec.missions_per_cell(),
        options.threads,
        options.seed
    );
    let runner = || CampaignRunner::new(options.threads).with_trace_dir(TRACE_DIR);

    println!("\n[1/3] undisturbed run");
    let _ = std::fs::remove_dir_all(TRACE_DIR);
    let start = Instant::now();
    let report = runner()
        .run(&spec)
        .map_err(|err| format!("undisturbed run failed: {err}"))?;
    let baseline = Artifacts::capture(report)?;
    println!(
        "  {:.1} s, {} files under {TRACE_DIR}",
        start.elapsed().as_secs_f64(),
        baseline.files.len()
    );
    if baseline.files.is_empty() {
        return Err("the smoke grid must capture failure traces".to_string());
    }

    println!("\n[2/3] journaled run in a child process, killed -9 mid-campaign");
    let _ = std::fs::remove_file(JOURNAL);
    let _ = std::fs::remove_dir_all(TRACE_DIR);
    let (survived, killed) = kill_journaled_child()?;
    if survived == 0 {
        return Err("no durable journal records survived the kill".to_string());
    }
    println!(
        "  {} with {survived} durable journal records",
        if killed {
            "child SIGKILLed"
        } else {
            "child finished before the kill threshold"
        }
    );

    println!("\n[3/3] resume from the orphaned journal");
    let _ = std::fs::remove_dir_all(TRACE_DIR);
    let start = Instant::now();
    let report = runner()
        .resume(JOURNAL)
        .map_err(|err| format!("resume failed: {err}"))?;
    let resumed = Artifacts::capture(report)?;
    let report_ok = baseline.report_json == resumed.report_json;
    let files_ok = baseline.files == resumed.files;
    println!(
        "  {:.1} s — report {}, trace directory {} ({} files)",
        start.elapsed().as_secs_f64(),
        if report_ok { "identical" } else { "DIVERGED" },
        if files_ok { "identical" } else { "DIVERGED" },
        resumed.files.len(),
    );
    if report_ok && files_ok {
        Ok(survived)
    } else {
        Err("the resumed artifacts diverged from the undisturbed run".to_string())
    }
}

fn main() -> ExitCode {
    if std::env::var(CHILD_ENV).as_deref() == Ok("1") {
        return child();
    }
    print_header("resume_smoke — SIGKILL a journaled campaign, resume byte-identically");
    let outcome = smoke();
    finish_obs();
    match outcome {
        Ok(survived) => {
            println!("\nresume smoke: byte-identical after kill -9 at {survived} records");
            ExitCode::SUCCESS
        }
        Err(err) => {
            println!("\nresume smoke FAILED: {err}");
            ExitCode::FAILURE
        }
    }
}
