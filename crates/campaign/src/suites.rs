//! Memoization of generated scenario suites.
//!
//! Scenario suites are pure functions of `(family, suite seed, maps,
//! scenarios per map)`, yet before this cache existed every campaign — and
//! every falsification *space* — regenerated its worlds from scratch: the
//! nine bench binaries each rebuild the same benchmark suite per campaign
//! they fly, and a multi-space `falsify` run regenerates one identical
//! suite per space. The [`SuiteCache`] generates each distinct suite once
//! per process and hands out shared [`Arc`] references.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use mls_sim_world::{Scenario, ScenarioConfig, ScenarioFamily, ScenarioGenerator};

use crate::CampaignError;

/// Cached suite-cache instruments (see [`mls_obs::cached_counter!`]).
mod instruments {
    use mls_obs::cached_counter;

    cached_counter!(hits, "mls_suite_cache_hits_total");
    cached_counter!(misses, "mls_suite_cache_misses_total");
}

/// The generation inputs a suite is keyed by — a suite is a pure function
/// of exactly these four values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SuiteKey {
    /// Scenario family generated.
    pub family: ScenarioFamily,
    /// Seed the suite derives from ([`crate::CampaignSpec::suite_seed`]).
    pub suite_seed: u64,
    /// Number of benchmark maps.
    pub maps: usize,
    /// Scenarios generated per map.
    pub scenarios_per_map: usize,
}

/// A process-wide memo of generated scenario suites.
///
/// Cloned handles share the same underlying cache; [`SuiteCache::global`]
/// is the instance every [`CampaignRunner`](crate::CampaignRunner) and the
/// falsification search driver use by default.
#[derive(Debug, Clone, Default)]
pub struct SuiteCache {
    suites: Arc<Mutex<HashMap<SuiteKey, Arc<Vec<Scenario>>>>>,
}

impl SuiteCache {
    /// An empty, private cache (tests that must observe generation counts
    /// use this instead of the shared one).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide shared cache.
    pub fn global() -> &'static SuiteCache {
        static GLOBAL: OnceLock<SuiteCache> = OnceLock::new();
        GLOBAL.get_or_init(SuiteCache::new)
    }

    /// Returns the suite for `key`, generating (and memoizing) it on first
    /// use.
    ///
    /// Generation happens outside the cache lock, so a slow first build
    /// never blocks hits on other keys; if two threads race on the same
    /// fresh key, the first insert wins and both get the same `Arc`.
    ///
    /// # Errors
    ///
    /// Returns an error when the scenario generator rejects the
    /// dimensions.
    pub fn get_or_generate(&self, key: SuiteKey) -> Result<Arc<Vec<Scenario>>, CampaignError> {
        if let Some(suite) = self.suites.lock().expect("suite cache poisoned").get(&key) {
            if mls_obs::enabled() {
                instruments::hits().inc();
            }
            return Ok(suite.clone());
        }
        if mls_obs::enabled() {
            instruments::misses().inc();
        }
        let config = ScenarioConfig {
            family: key.family,
            maps: key.maps,
            scenarios_per_map: key.scenarios_per_map,
            ..ScenarioConfig::default()
        };
        let generated =
            Arc::new(ScenarioGenerator::new(config).generate_benchmark(key.suite_seed)?);
        let mut suites = self.suites.lock().expect("suite cache poisoned");
        Ok(suites.entry(key).or_insert(generated).clone())
    }

    /// Number of distinct suites currently memoized.
    pub fn len(&self) -> usize {
        self.suites.lock().expect("suite cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized suite.
    pub fn clear(&self) {
        self.suites.lock().expect("suite cache poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> SuiteKey {
        SuiteKey {
            family: ScenarioFamily::Open,
            suite_seed: seed,
            maps: 1,
            scenarios_per_map: 2,
        }
    }

    #[test]
    fn identical_keys_share_one_generated_suite() {
        let cache = SuiteCache::new();
        let first = cache.get_or_generate(key(7)).unwrap();
        let second = cache.get_or_generate(key(7)).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "the suite must be memoized");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_generate_distinct_suites() {
        let cache = SuiteCache::new();
        let open = cache.get_or_generate(key(7)).unwrap();
        let reseeded = cache.get_or_generate(key(8)).unwrap();
        assert!(!Arc::ptr_eq(&open, &reseeded));
        let constrained = cache
            .get_or_generate(SuiteKey {
                family: ScenarioFamily::ConstrainedPad,
                ..key(7)
            })
            .unwrap();
        assert!(!Arc::ptr_eq(&open, &constrained));
        assert_eq!(cache.len(), 3);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn cached_suites_match_direct_generation() {
        let cache = SuiteCache::new();
        let cached = cache.get_or_generate(key(11)).unwrap();
        let direct = ScenarioGenerator::new(ScenarioConfig {
            maps: 1,
            scenarios_per_map: 2,
            ..ScenarioConfig::default()
        })
        .generate_benchmark(11)
        .unwrap();
        assert_eq!(*cached, direct);
    }
}
