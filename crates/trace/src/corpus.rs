//! The trace corpus: an indexed, queryable on-disk store over captured
//! trace trees.
//!
//! A campaign used to shed traces as write-only artifacts — files in a
//! directory, findable only through the report that created them. The
//! corpus turns that directory into an evidence store: next to the trace
//! files lives a [`CORPUS_INDEX_FILE`] JSON-lines index, one
//! [`CorpusRecord`] per captured trace, keyed by everything a triage or
//! falsification query filters on — scenario family, fault-space
//! coordinates, triage class, mission verdict and the dedup
//! [`FailureSignature`] key.
//!
//! The index is written by `CampaignRunner::assemble_report`, which every
//! campaign — flown live or resumed from a journal — funnels through, so
//! the index is a pure function of `(spec, seed)` and byte-identical
//! across thread counts and resumes, exactly like the report and the
//! traces themselves (the campaign `corpus` and `resume_equivalence`
//! suites pin this).
//!
//! Record paths are stored *relative to the index root*, which is what
//! makes a corpus relocatable: move or archive the whole directory and
//! [`TraceCorpus::open`] + [`TraceCorpus::resolve`] still find every
//! trace, where the absolute paths in an old report would dangle.

use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::format::{config_hash, AxisCoordinate, Trace};
use crate::signature::FailureSignature;
use crate::TraceError;
use mls_core::SystemVariant;

/// File name of the corpus index inside its root directory.
pub const CORPUS_INDEX_FILE: &str = "corpus-index.jsonl";

/// Current corpus-index format version, bumped on any incompatible change.
pub const CORPUS_INDEX_VERSION: u32 = 1;

/// The versioned first line of a corpus index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CorpusIndexHeader {
    /// Index-format version ([`CORPUS_INDEX_VERSION`]).
    version: u32,
    /// Number of record lines that follow (an integrity check against
    /// truncated writes).
    records: usize,
}

/// One indexed trace: the mission's grid identity, where it sat in the
/// fault space, what triage concluded, and where the file lives relative
/// to the corpus root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusRecord {
    /// Campaign name the mission flew under.
    pub campaign: String,
    /// Scenario-family label of the mission's suite.
    pub family: String,
    /// Campaign-grid cell index.
    pub cell_index: usize,
    /// Scenario identifier within the family suite.
    pub scenario_id: usize,
    /// Repeat index within the cell.
    pub repeat: usize,
    /// The mission seed.
    pub seed: u64,
    /// System generation flown.
    pub variant: SystemVariant,
    /// The fault-space point the mission flew (one coordinate per injected
    /// plan; empty for baseline missions).
    pub coordinates: Vec<AxisCoordinate>,
    /// Mission verdict label (`"success"`, `"collision"`, `"poor-landing"`,
    /// `"incomplete"`).
    pub verdict: String,
    /// Triage class label, or `"unclassified"`.
    pub class: String,
    /// The [`FailureSignature`] dedup key.
    pub signature: String,
    /// Trace-file path relative to the corpus root, `/`-separated.
    pub path: String,
}

/// An indexed on-disk trace store rooted at one directory.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCorpus {
    root: PathBuf,
    records: Vec<CorpusRecord>,
}

impl TraceCorpus {
    /// An empty corpus rooted at `root` (nothing touches the filesystem
    /// until [`TraceCorpus::save`]).
    pub fn create(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            records: Vec::new(),
        }
    }

    /// Opens the corpus rooted at `root` by reading its index file.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] when the index file is missing or
    /// unreadable, the [`TraceCorpus::from_jsonl`] errors on malformed
    /// content.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, TraceError> {
        let root = root.into();
        let index = root.join(CORPUS_INDEX_FILE);
        let text = fs::read_to_string(&index)
            .map_err(|e| TraceError::Io(format!("{}: {e}", index.display())))?;
        Self::from_jsonl(root, &text)
    }

    /// Parses a corpus index from its JSON-lines form.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Serialize`] on malformed lines or a record
    /// count that disagrees with the header, and
    /// [`TraceError::UnsupportedVersion`] when the index's format version
    /// is not [`CORPUS_INDEX_VERSION`].
    pub fn from_jsonl(root: impl Into<PathBuf>, text: &str) -> Result<Self, TraceError> {
        let mut lines = text.lines().filter(|line| !line.trim().is_empty());
        let header_line = lines
            .next()
            .ok_or_else(|| TraceError::Serialize("empty corpus index".to_string()))?;
        let header: CorpusIndexHeader = serde_json::from_str(header_line)
            .map_err(|e| TraceError::Serialize(format!("corpus index header: {e}")))?;
        if header.version != CORPUS_INDEX_VERSION {
            return Err(TraceError::UnsupportedVersion {
                found: header.version,
                supported: CORPUS_INDEX_VERSION,
            });
        }
        let mut records = Vec::new();
        for (index, line) in lines.enumerate() {
            records.push(serde_json::from_str(line).map_err(|e| {
                TraceError::Serialize(format!("corpus record line {}: {e}", index + 2))
            })?);
        }
        if records.len() != header.records {
            return Err(TraceError::Serialize(format!(
                "corpus index promises {} records but carries {}",
                header.records,
                records.len()
            )));
        }
        Ok(Self {
            root: root.into(),
            records,
        })
    }

    /// The directory the corpus is rooted at.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Every indexed record, in ingest (deterministic grid) order.
    pub fn records(&self) -> &[CorpusRecord] {
        &self.records
    }

    /// Number of indexed traces.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Indexes one captured trace stored at `relative_path` under the
    /// corpus root, triaging it and computing its dedup signature.
    pub fn ingest(&mut self, trace: &Trace, relative_path: impl Into<String>) -> &CorpusRecord {
        let signature = FailureSignature::of(trace);
        let header = &trace.header;
        self.records.push(CorpusRecord {
            campaign: header.campaign.clone(),
            family: header.family.clone(),
            cell_index: header.cell_index,
            scenario_id: header.scenario_id,
            repeat: header.repeat,
            seed: header.seed,
            variant: header.variant,
            coordinates: header.coordinates.clone(),
            verdict: signature.verdict.clone(),
            class: signature.class.clone(),
            signature: signature.key(),
            path: relative_path.into().replace('\\', "/"),
        });
        self.records.last().expect("record just pushed")
    }

    /// Serialises the index as JSON lines: a versioned header line, then
    /// one record per line, in record order.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Serialize`] when serde rejects a value.
    pub fn to_jsonl(&self) -> Result<String, TraceError> {
        let header = CorpusIndexHeader {
            version: CORPUS_INDEX_VERSION,
            records: self.records.len(),
        };
        let mut out =
            serde_json::to_string(&header).map_err(|e| TraceError::Serialize(e.to_string()))?;
        out.push('\n');
        for record in &self.records {
            out.push_str(
                &serde_json::to_string(record).map_err(|e| TraceError::Serialize(e.to_string()))?,
            );
            out.push('\n');
        }
        Ok(out)
    }

    /// Writes the index file under the corpus root, creating the directory
    /// as needed.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on filesystem failures.
    pub fn save(&self) -> Result<(), TraceError> {
        let path = self.root.join(CORPUS_INDEX_FILE);
        // Crash-ordered: a kill mid-save leaves the previous index (or
        // none), never a torn one that fails the count check on ingest.
        mls_obs::atomic_write(&path, self.to_jsonl()?.as_bytes())
            .map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))
    }

    /// Resolves a record's trace file against the corpus root — valid
    /// wherever the corpus directory has been moved to, unlike the
    /// absolute paths a report's trace links recorded at capture time.
    pub fn resolve(&self, record: &CorpusRecord) -> PathBuf {
        self.root.join(&record.path)
    }

    /// Reads a record's trace back from disk.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on filesystem failures and the
    /// [`Trace::from_jsonl`] errors on malformed content.
    pub fn load(&self, record: &CorpusRecord) -> Result<Trace, TraceError> {
        Trace::read_from(&self.resolve(record))
    }

    /// Looks a record up by its campaign-grid identity.
    pub fn find_mission(
        &self,
        cell_index: usize,
        scenario_id: usize,
        repeat: usize,
    ) -> Option<&CorpusRecord> {
        self.records.iter().find(|record| {
            record.cell_index == cell_index
                && record.scenario_id == scenario_id
                && record.repeat == repeat
        })
    }

    /// Number of distinct failure signatures in the corpus — the dedup'd
    /// failure-mode count a campaign summary quotes.
    pub fn distinct_signatures(&self) -> usize {
        self.records
            .iter()
            .map(|record| record.signature.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    }

    /// Starts a query over the corpus.
    pub fn query(&self) -> CorpusQuery<'_> {
        CorpusQuery {
            records: self.records.iter().collect(),
        }
    }
}

/// A filter-chain query over a corpus: each filter narrows the record set,
/// terminal operations count, group, sample or return it. Results preserve
/// index (grid) order, and sampling is seeded — every query is
/// deterministic.
#[derive(Debug, Clone)]
pub struct CorpusQuery<'a> {
    records: Vec<&'a CorpusRecord>,
}

impl<'a> CorpusQuery<'a> {
    /// Keeps records from one scenario family.
    #[must_use]
    pub fn family(self, label: &str) -> Self {
        self.matching(|record| record.family == label)
    }

    /// Keeps records with one triage class label (`"unclassified"` selects
    /// the unclaimed).
    #[must_use]
    pub fn class(self, label: &str) -> Self {
        self.matching(|record| record.class == label)
    }

    /// Keeps records with one mission verdict label.
    #[must_use]
    pub fn verdict(self, label: &str) -> Self {
        self.matching(|record| record.verdict == label)
    }

    /// Keeps records whose fault-space point includes `axis` (any
    /// intensity).
    #[must_use]
    pub fn fault_axis(self, axis: &str) -> Self {
        self.matching(|record| record.coordinates.iter().any(|c| c.axis == axis))
    }

    /// Keeps records with one exact failure-signature key.
    #[must_use]
    pub fn signature(self, key: &str) -> Self {
        self.matching(|record| record.signature == key)
    }

    /// Keeps records matching an arbitrary predicate.
    #[must_use]
    pub fn matching(mut self, predicate: impl Fn(&CorpusRecord) -> bool) -> Self {
        self.records.retain(|record| predicate(record));
        self
    }

    /// Number of records the filters kept.
    pub fn count(&self) -> usize {
        self.records.len()
    }

    /// The kept records, in index order.
    pub fn records(self) -> Vec<&'a CorpusRecord> {
        self.records
    }

    /// Draws a deterministic pseudo-random sample of up to `n` records:
    /// records are ranked by an FNV-1a hash of `(seed, grid identity)` and
    /// the lowest `n` kept, so the same seed over the same corpus always
    /// returns the same sample.
    pub fn sample(&self, seed: u64, n: usize) -> Vec<&'a CorpusRecord> {
        let mut ranked: Vec<(u64, &CorpusRecord)> = self
            .records
            .iter()
            .map(|record| {
                let rank = config_hash(&format!(
                    "{seed}:{}:{}:{}:{}",
                    record.campaign, record.cell_index, record.scenario_id, record.repeat
                ));
                (rank, *record)
            })
            .collect();
        ranked.sort_by_key(|entry| entry.0);
        ranked
            .into_iter()
            .take(n)
            .map(|(_, record)| record)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::format::{TraceHeader, TRACE_FORMAT_VERSION};
    use mls_core::MissionResult;
    use mls_geom::Vec3;

    fn trace(cell_index: usize, scenario_id: usize, result: MissionResult) -> Trace {
        Trace {
            header: TraceHeader {
                version: TRACE_FORMAT_VERSION,
                campaign: "corpus-test".to_string(),
                seed: 100 + scenario_id as u64,
                variant: SystemVariant::MlsV1,
                scenario_id,
                scenario_name: format!("urban-00/s{scenario_id:02}"),
                family: if cell_index.is_multiple_of(2) {
                    "open".to_string()
                } else {
                    "constrained-pad".to_string()
                },
                cell_index,
                repeat: 0,
                config_hash: config_hash("{}"),
                tick_decimation: 25,
                map_decimation: 8,
                capacity: 8192,
                dropped_events: 0,
                coordinates: vec![AxisCoordinate {
                    axis: "gps-bias".to_string(),
                    value: 0.8,
                }],
            },
            events: vec![
                TraceEvent::Tick {
                    time: 30.0,
                    position: Vec3::new(cell_index as f64 * 20.0, 0.0, 1.0),
                    velocity: Vec3::ZERO,
                    estimated: Vec3::new(cell_index as f64 * 20.0, 0.0, 1.0),
                    gps_drift: 0.1,
                    estimation_error: 0.1,
                },
                TraceEvent::MissionEnd { time: 31.0, result },
            ],
        }
    }

    fn seed_corpus(root: &Path, persist: bool) -> TraceCorpus {
        let mut corpus = TraceCorpus::create(root);
        for (cell, result) in [
            (0, MissionResult::PoorLanding),
            (1, MissionResult::CollisionFailure),
            (2, MissionResult::Success),
        ] {
            let trace = trace(cell, cell, result);
            let name = format!("c{cell:03}-s{cell:03}-r0.jsonl");
            if persist {
                trace.write_to(&root.join(&name)).unwrap();
            }
            corpus.ingest(&trace, name);
        }
        corpus
    }

    #[test]
    fn index_round_trips_and_reopens() {
        let root = std::env::temp_dir().join(format!("mls-corpus-rt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let corpus = seed_corpus(&root, false);
        corpus.save().unwrap();
        let reopened = TraceCorpus::open(&root).unwrap();
        assert_eq!(reopened, corpus);
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.to_jsonl().unwrap(), corpus.to_jsonl().unwrap());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn records_resolve_and_load_relative_to_the_root() {
        let root = std::env::temp_dir().join(format!("mls-corpus-res-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let corpus = seed_corpus(&root, true);
        corpus.save().unwrap();

        // Relocate the whole corpus; the index still finds every trace.
        let moved = std::env::temp_dir().join(format!("mls-corpus-moved-{}", std::process::id()));
        let _ = fs::remove_dir_all(&moved);
        fs::rename(&root, &moved).unwrap();
        let reopened = TraceCorpus::open(&moved).unwrap();
        let record = reopened.find_mission(1, 1, 0).unwrap();
        let trace = reopened.load(record).unwrap();
        assert_eq!(trace.header.cell_index, 1);
        assert_eq!(record.verdict, "collision");
        fs::remove_dir_all(&moved).ok();
    }

    #[test]
    fn queries_filter_group_and_sample_deterministically() {
        let root = std::env::temp_dir().join(format!("mls-corpus-q-{}", std::process::id()));
        let corpus = seed_corpus(&root, false);
        assert_eq!(corpus.query().family("open").count(), 2);
        assert_eq!(corpus.query().verdict("collision").count(), 1);
        assert_eq!(corpus.query().fault_axis("gps-bias").count(), 3);
        assert_eq!(corpus.query().fault_axis("wind-gust").count(), 0);
        let a = corpus.query().sample(7, 2);
        let b = corpus.query().sample(7, 2);
        assert_eq!(a, b, "sampling is a pure function of the seed");
        assert_eq!(a.len(), 2);
        assert_ne!(
            corpus
                .query()
                .sample(8, 3)
                .iter()
                .map(|r| r.cell_index)
                .collect::<Vec<_>>(),
            Vec::<usize>::new()
        );
        assert!(corpus.distinct_signatures() >= 2);
    }

    #[test]
    fn truncated_and_future_indexes_are_rejected() {
        let root = std::env::temp_dir().join("unused");
        let corpus = seed_corpus(&std::env::temp_dir().join("mls-corpus-x"), false);
        let jsonl = corpus.to_jsonl().unwrap();
        let truncated: String = jsonl.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(matches!(
            TraceCorpus::from_jsonl(&root, &truncated),
            Err(TraceError::Serialize(_))
        ));
        for version in ["99", "0"] {
            let other = jsonl.replacen("\"version\":1", &format!("\"version\":{version}"), 1);
            assert!(
                matches!(
                    TraceCorpus::from_jsonl(&root, &other),
                    Err(TraceError::UnsupportedVersion { .. })
                ),
                "version {version}"
            );
        }
        assert!(TraceCorpus::from_jsonl(&root, "").is_err());
    }
}
