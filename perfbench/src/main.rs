//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1-open|fig6-constrained|falsify-journaled> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the run measures the
//! end-to-end metrics with nothing attached to the missions; with
//! `--trace 1` it measures the per-layer metrics instead (see
//! `perfbench/README.md` for every metric, its layer and the workload it
//! should move). The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! The exit code is non-zero when an output check failed.

mod clock;
mod falsify;
mod grid;
mod kernel;
mod stats;
mod timing;
mod traced;

use std::path::Path;
use std::process::{Command, ExitCode};

use mls_obs::{json_escape, json_f64, JsonObject};

/// Mission threads: the pool never runs more missions at once than this,
/// nor more than the host has cores.
const MAX_THREADS: usize = 2;

/// Where a run's artifacts (result record, spans, journals, traces) land,
/// relative to the repository root.
const OUT_DIR: &str = "perfbench/out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Open,
    Fig6Constrained,
    FalsifyJournaled,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Table1Open,
        Workload::Fig6Constrained,
        Workload::FalsifyJournaled,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Table1Open => "table1-open",
            Workload::Fig6Constrained => "fig6-constrained",
            Workload::FalsifyJournaled => "falsify-journaled",
        }
    }
}

/// The checked command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload '{value}'"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
                "--seconds" => {
                    let parsed: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds '{value}'"))?;
                    if !(parsed > 0.0 && parsed <= 3600.0) {
                        return Err(format!("seconds must lie in (0, 3600], got {value}"));
                    }
                    seconds = Some(parsed);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                    });
                }
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Named metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    pub metrics: Metrics,
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
    /// Report digests, `(campaign, fnv64)`.
    pub digests: Vec<(String, String)>,
    /// Human-readable summary lines.
    pub notes: Vec<String>,
    /// Span lines for the artifact (flat JSON objects).
    pub lines: Vec<String>,
}

impl Run {
    /// Records `operations` failed operations and why.
    pub fn fail(&mut self, operations: u64, problem: String) {
        self.failed += operations;
        self.problems.push(problem);
    }
}

/// Engine-layer measurements of the falsification workload. The grid
/// workloads never reach these layers and report them as zero.
#[derive(Debug, Default)]
pub struct EngineStats {
    pub journal_records: usize,
    pub journal_bytes: usize,
    pub resume_s: f64,
    pub missions_planned: usize,
    pub missions_flown: usize,
    pub probes: usize,
    pub time_to_counterexample_s: f64,
    pub trace_files: usize,
    pub trace_bytes: usize,
    pub trace_write_s: f64,
    pub trace_read_s: f64,
    pub replay_s: f64,
    pub replays_per_s: f64,
}

pub fn engine_metrics(metrics: &mut Metrics, stats: Option<&EngineStats>) {
    let none = EngineStats::default();
    let s = stats.unwrap_or(&none);
    metrics.push("search.probes", s.probes as f64, "count");
    metrics.push(
        "search.time_to_counterexample_s",
        s.time_to_counterexample_s,
        "s",
    );
    metrics.push("journal.records", s.journal_records as f64, "count");
    metrics.push("journal.bytes", s.journal_bytes as f64, "bytes");
    metrics.push("journal.resume_s", s.resume_s, "s");
    metrics.push("trace.files", s.trace_files as f64, "count");
    metrics.push("trace.bytes", s.trace_bytes as f64, "bytes");
    metrics.push("trace.write_s", s.trace_write_s, "s");
    metrics.push("trace.read_s", s.trace_read_s, "s");
    metrics.push("trace.replay_s", s.replay_s, "s");
    metrics.push("trace.replays_per_s", s.replays_per_s, "1/s");
}

/// Where the measured program came from, stamped on every result.
struct Stamp {
    git_rev: String,
    dirty: Option<bool>,
    nproc: usize,
    threads: usize,
    profile: &'static str,
}

impl Stamp {
    fn capture(threads: usize) -> Self {
        let git = |args: &[&str]| {
            // The ceiling keeps git from searching above the checkout: an
            // exported tree outside any repository reads as "unknown".
            let root = std::env::current_dir().ok()?;
            let output = Command::new("git")
                .args(args)
                .env("GIT_CEILING_DIRECTORIES", root.parent()?)
                .output()
                .ok()?;
            output
                .status
                .success()
                .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        };
        let git_rev = git(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into());
        let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
        Self {
            git_rev,
            dirty,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]",
        names.join("|")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if !Path::new("crates").is_dir() || !Path::new("perfbench").is_dir() {
        eprintln!("perfbench: run from the repository root");
        return ExitCode::from(2);
    }
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS);
    let stamp = Stamp::capture(threads);
    println!(
        "perfbench {} seed {} trace {} · {} threads of {} cores · {} build @ {}{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        stamp.threads,
        stamp.nproc,
        stamp.profile,
        stamp.git_rev,
        match stamp.dirty {
            Some(true) => " (dirty)",
            _ => "",
        }
    );

    let outcome = match args.workload {
        Workload::Table1Open => grid::run(grid::Grid::Table1Open, &args, threads),
        Workload::Fig6Constrained => grid::run(grid::Grid::Fig6Constrained, &args, threads),
        Workload::FalsifyJournaled => falsify::run(&args, threads),
    };
    let mut run = match outcome {
        Ok(run) => run,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        let setup_s = run.setup_s;
        run.metrics.push("setup_s", setup_s, "s");
        match stats::peak_rss_mb() {
            Some(rss) => run.metrics.push("peak_rss_mb", rss, "MiB"),
            None => run.problems.push("peak RSS is unreadable".to_string()),
        }
    }
    for (name, value, _) in &run.metrics.0 {
        if !value.is_finite() {
            run.problems.push(format!("metric {name} is not finite"));
        }
    }
    let correct = run.problems.is_empty() && run.failed == 0 && run.attempted > 0;

    for note in &run.notes {
        println!("  {note}");
    }
    for problem in &run.problems {
        println!("  CHECK FAILED: {problem}");
    }
    for (name, value, unit) in &run.metrics.0 {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    if let Err(err) = write_artifact(&args, &stamp, &run, correct) {
        println!("  cannot write the result artifact: {err}");
    }

    let metrics: Vec<String> = run
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json_escape(name),
                json_f64(*value),
                json_escape(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.attempted.max(1),
        run.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the run's record — stamp, metrics, digests, problems, spans — as
/// JSON lines under [`OUT_DIR`].
fn write_artifact(args: &Args, stamp: &Stamp, run: &Run, correct: bool) -> std::io::Result<()> {
    let mut lines = Vec::new();
    let mut head = JsonObject::new();
    head.str("schema", "perfbench-run-v1")
        .str("workload", args.workload.name())
        .u64("seed", args.seed)
        .f64("seconds", args.seconds)
        .bool("trace", args.trace)
        .str("git_rev", &stamp.git_rev)
        .str(
            "dirty",
            match stamp.dirty {
                Some(true) => "true",
                Some(false) => "false",
                None => "unknown",
            },
        )
        .u64("nproc", stamp.nproc as u64)
        .u64("threads", stamp.threads as u64)
        .str("profile", stamp.profile)
        .bool("correct", correct)
        .u64("attempted", run.attempted)
        .u64("failed", run.failed);
    lines.push(head.finish());
    for (name, value, unit) in &run.metrics.0 {
        let mut line = JsonObject::new();
        line.str("metric", name)
            .f64("value", *value)
            .str("unit", unit);
        lines.push(line.finish());
    }
    for (campaign, digest) in &run.digests {
        let mut line = JsonObject::new();
        line.str("report", campaign).str("digest", digest);
        lines.push(line.finish());
    }
    for problem in &run.problems {
        let mut line = JsonObject::new();
        line.str("problem", problem);
        lines.push(line.finish());
    }
    lines.extend(run.lines.iter().cloned());
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.jsonl",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    mls_obs::atomic_write(&path, (lines.join("\n") + "\n").as_bytes())
}
