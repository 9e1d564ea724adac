//! End-to-end fault-injection campaign demo.
//!
//! Sweeps three fault kinds over the three system generations on the smoke
//! benchmark, prints the per-cell grid, then falsifies MLS-V1 over the
//! occlusion × GPS-bias fault space and minimizes the counterexample.
//!
//! Run with `cargo run --release -p mls-campaign --example fault_campaign`.
//! Set `MLS_THREADS` to cap the mission threads each batch runs on and
//! `MLS_FULL=1` to fly the paper-scale fault study instead of the smoke
//! grid.

use mls_campaign::{
    CampaignRunner, CampaignSpec, FalsificationConfig, FalsificationSearch, FaultAxis, FaultKind,
    FaultSpace, GridRefinementConfig, Searcher,
};
use mls_core::SystemVariant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // As for every `MLS_*` sizing variable, unset, unparsable and `0` all
    // mean "use the default"; the runner clamps the upper bound.
    let threads = std::env::var("MLS_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
    let full = std::env::var("MLS_FULL").map(|v| v == "1").unwrap_or(false);

    let spec = if full {
        CampaignSpec::full_fault_study()
    } else {
        CampaignSpec::smoke()
    };
    let runner = CampaignRunner::new(threads);
    println!(
        "campaign '{}': {} cells x {} missions/cell = {} missions on {} threads",
        spec.name,
        spec.cells().len(),
        spec.missions_per_cell(),
        spec.total_missions(),
        runner.threads(),
    );
    let report = runner.run(&spec)?;

    println!();
    println!(
        "{:<48} {:>9} {:>9} {:>9} {:>9}",
        "cell", "success", "collide", "poor", "failsafe"
    );
    for cell in &report.cells {
        println!(
            "{:<48} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
            cell.label(),
            cell.success_rate * 100.0,
            cell.collision_rate * 100.0,
            cell.poor_landing_rate * 100.0,
            cell.failsafe_rate * 100.0,
        );
    }

    println!();
    println!("falsification: minimal occlusion x gps-bias point that breaks MLS-V1");
    let search = FalsificationSearch::new(
        FalsificationConfig {
            maps: 1,
            scenarios_per_map: 2,
            minimizer_bisections: 4,
            ..Default::default()
        },
        threads,
    );
    let space = FaultSpace::new(
        "occlusion-x-gps-bias",
        vec![
            FaultAxis::full(FaultKind::MarkerOcclusion),
            FaultAxis::full(FaultKind::GpsBias),
        ],
    );
    let searcher = Searcher::GridRefinement(GridRefinementConfig::default());
    let result = search.falsify(SystemVariant::MlsV1, &space, &searcher)?;
    println!(
        "  baseline success rate: {:.1}%",
        result.baseline_success_rate * 100.0
    );
    match &result.counterexample {
        Some(ce) => {
            println!(
                "  falsified at {} (success rate there: {:.1}%, {} probes)",
                space.label_point(&ce.point),
                ce.success_rate * 100.0,
                result.probes.len(),
            );
            if let Some(link) = &ce.trace {
                println!(
                    "  counterexample trace: {} (triage: {}, replay identical: {})",
                    link.path,
                    link.triage.as_deref().unwrap_or("unclassified"),
                    ce.replay_identical.unwrap_or(false),
                );
            }
        }
        None => println!("  not falsified: success stayed above threshold over the whole space"),
    }

    println!();
    println!("CSV:\n{}", report.to_csv());
    Ok(())
}
