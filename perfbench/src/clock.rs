//! The benchmark's stopwatch: the one place it reads the wall clock.

use std::time::Instant;

/// The current instant. Every timing the benchmark takes starts here; the
/// readings reach only the printed metrics and the spans file, never a
/// report, trace or journal byte.
pub fn now() -> Instant {
    // mls-lint: allow(D002): the benchmark's own stopwatch; readings feed only the printed metrics and the spans file, never an engine input
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
