//! The mission executor: each batch of jobs runs on scoped threads.
//!
//! The calling thread plus a few named helpers (`mls-mission-N`), spawned
//! for that batch alone, claim jobs off a shared atomic cursor until the
//! batch drains, so heterogeneous mission costs balance without static
//! chunking. Results come back in job order and mission seeds are pure
//! functions of grid coordinates, so nothing observable depends on which
//! thread ran which job.
//!
//! Spawning helpers per batch costs tens of microseconds, which no batch
//! notices: a batch is a whole campaign grid or searcher generation, lasting
//! seconds. Scoped helpers let jobs borrow from the caller, and nested or
//! concurrent batches cannot deadlock — each brings its own helpers.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Result as JobResult;
use std::time::Instant;

/// Cached executor instruments (see [`mls_obs::cached_counter!`]).
mod instruments {
    use mls_obs::{cached_counter, cached_seconds_histogram};

    cached_counter!(batches, "mls_executor_batches_total");
    cached_counter!(caller_jobs, "mls_executor_caller_jobs_total");
    cached_counter!(worker_jobs, "mls_executor_worker_jobs_total");
    // Helper threads spawned, summed over batches.
    cached_counter!(worker_spawns, "mls_executor_worker_spawn_total");
    cached_counter!(job_panics, "mls_executor_job_panics_total");
    // Wall-clock cost of individual jobs (thread utilization is this
    // histogram's sum over the batch span's wall time).
    cached_seconds_histogram!(job_seconds, "mls_executor_job_seconds");
}

/// Wraps a job panic payload with the context `catch_unwind` erased: which
/// job index died, and on which thread (helper name, or the submitting
/// thread). String-ish payloads are rewrapped with the context prefixed;
/// exotic payload types are propagated untouched rather than lossily
/// stringified. Also records the panic as a terminal obs event.
fn attach_panic_context(
    payload: Box<dyn Any + Send>,
    index: usize,
    as_helper: bool,
) -> Box<dyn Any + Send> {
    let thread = std::thread::current();
    let where_ = if as_helper {
        format!("helper thread {}", thread.name().unwrap_or("unnamed"))
    } else {
        "the submitting thread".to_string()
    };
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        Some((*s).to_string())
    } else {
        payload.downcast_ref::<String>().cloned()
    };
    if mls_obs::enabled() {
        instruments::job_panics().inc();
        mls_obs::event(
            "executor_panic",
            &[
                ("job", mls_obs::FieldValue::from(index)),
                ("thread", mls_obs::FieldValue::from(where_.as_str())),
                (
                    "message",
                    mls_obs::FieldValue::from(message.as_deref().unwrap_or("<non-string payload>")),
                ),
            ],
        );
    }
    match message {
        Some(message) => Box::new(format!(
            "mission job {index} panicked on {where_}: {message}"
        )),
        None => payload,
    }
}

/// Runs batches of mission jobs on the calling thread plus scoped helper
/// threads. It holds no threads between batches, only the cap on helpers
/// per batch; every [`CampaignRunner`](crate::CampaignRunner) shares
/// [`MissionExecutor::global`] unless another is attached.
#[derive(Debug)]
pub struct MissionExecutor {
    /// Most helper threads one batch spawns (the caller is not counted).
    max_workers: usize,
}

impl MissionExecutor {
    /// Creates an executor whose batches spawn at most `max_workers` helper
    /// threads each.
    pub fn new(max_workers: usize) -> Arc<Self> {
        Arc::new(Self { max_workers })
    }

    /// The process-wide executor, capped by
    /// [`CampaignRunner::MAX_THREADS`](crate::CampaignRunner::MAX_THREADS).
    pub fn global() -> Arc<Self> {
        static GLOBAL: OnceLock<Arc<MissionExecutor>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| Self::new(crate::CampaignRunner::MAX_THREADS))
            .clone()
    }

    /// Runs `count` jobs with at most `threads` concurrent executors and
    /// returns the results in job order.
    ///
    /// The calling thread is one executor; `min(threads − 1, max_workers)`
    /// helper threads are spawned for this batch and joined before it
    /// returns. Jobs are claimed dynamically off a shared cursor, so
    /// heterogeneous job costs balance across threads; the result order
    /// never depends on scheduling. A `threads == 1` batch runs entirely on
    /// the caller and spawns nothing.
    ///
    /// # Panics
    ///
    /// Every job runs to completion; then the first panic in job order is
    /// re-raised, with its job index and thread prefixed to string
    /// payloads.
    pub fn execute<R, F>(&self, count: usize, threads: usize, job: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        let threads = threads.clamp(1, count);
        let helpers = (threads - 1).min(self.max_workers);
        let mut batch_span = mls_obs::span("executor_batch");
        batch_span.field("jobs", count).field("threads", threads);
        if batch_span.is_enabled() {
            instruments::batches().inc();
            instruments::worker_spawns().add(helpers as u64);
        }

        let cursor = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<JobResult<R>>>> =
            Mutex::new((0..count).map(|_| None).collect());
        let drain = |as_helper: bool| loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= count {
                return;
            }
            let observing = mls_obs::enabled();
            let started = observing.then(Instant::now);
            let outcome = catch_unwind(AssertUnwindSafe(|| job(index)))
                .map_err(|payload| attach_panic_context(payload, index, as_helper));
            if observing {
                if let Some(started) = started {
                    instruments::job_seconds().observe(started.elapsed().as_secs_f64());
                }
                if as_helper {
                    instruments::worker_jobs().inc();
                } else {
                    instruments::caller_jobs().inc();
                }
            }
            slots.lock().expect("batch results poisoned")[index] = Some(outcome);
        };
        std::thread::scope(|scope| {
            for n in 0..helpers {
                std::thread::Builder::new()
                    .name(format!("mls-mission-{n}"))
                    .spawn_scoped(scope, || drain(true))
                    .expect("spawning a mission helper thread failed");
            }
            drain(false);
        });

        slots
            .into_inner()
            .expect("batch results poisoned")
            .into_iter()
            .map(|slot| match slot.expect("a drained batch ran every job") {
                Ok(result) => result,
                Err(payload) => resume_unwind(payload),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::Barrier;

    use super::*;

    #[test]
    fn execute_preserves_job_order() {
        let executor = MissionExecutor::new(8);
        let results = executor.execute(100, 7, |i| i * 2);
        assert_eq!(results.len(), 100);
        for (i, value) in results.iter().enumerate() {
            assert_eq!(*value, i * 2);
        }
    }

    #[test]
    fn execute_handles_degenerate_sizes() {
        let executor = MissionExecutor::new(4);
        assert!(executor.execute(0, 4, |i| i).is_empty());
        assert_eq!(executor.execute(1, 16, |i| i + 1), vec![1]);
    }

    #[test]
    fn single_thread_batches_run_on_the_calling_thread() {
        let executor = MissionExecutor::new(4);
        let caller = std::thread::current().id();
        let threads = executor.execute(10, 1, |_| std::thread::current().id());
        assert!(threads.iter().all(|&thread| thread == caller));
    }

    #[test]
    fn max_workers_caps_the_helpers_of_every_batch() {
        let executor = MissionExecutor::new(1);
        // Every job waits for a job on another thread, so the batch needs
        // two threads, and the cap allows no third.
        let barrier = Barrier::new(2);
        let threads: HashSet<_> = executor
            .execute(16, 8, |_| {
                barrier.wait();
                std::thread::current().id()
            })
            .into_iter()
            .collect();
        assert_eq!(threads.len(), 2, "the caller plus one helper");
    }

    #[test]
    fn job_panics_propagate_to_the_submitter() {
        let executor = MissionExecutor::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            executor.execute(4, 2, |i| {
                if i == 2 {
                    panic!("mission failed hard");
                }
                i
            })
        }));
        let payload = result.expect_err("the job panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("string panic payloads stay strings");
        assert!(
            message.starts_with("mission job 2 panicked on "),
            "panic context missing: {message}"
        );
        assert!(
            message.ends_with(": mission failed hard"),
            "original message missing: {message}"
        );
        // The executor survives a panicking batch.
        assert_eq!(executor.execute(3, 2, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn non_string_panic_payloads_propagate_untouched() {
        let executor = MissionExecutor::new(1);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            executor.execute(1, 1, |_| -> usize { std::panic::panic_any(42usize) })
        }));
        let payload = result.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<usize>(), Some(&42));
    }

    #[test]
    fn global_pool_is_shared() {
        assert!(Arc::ptr_eq(
            &MissionExecutor::global(),
            &MissionExecutor::global()
        ));
    }

    #[test]
    fn concurrent_submissions_both_complete() {
        let executor = MissionExecutor::new(4);
        let other = executor.clone();
        let handle = std::thread::spawn(move || other.execute(50, 2, |i| i));
        let mine = executor.execute(50, 2, |i| i + 1);
        let theirs = handle.join().unwrap();
        assert_eq!(mine[49], 50);
        assert_eq!(theirs[49], 49);
    }
}
