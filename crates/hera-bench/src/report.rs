//! Common envelope for the `results/BENCH_*.json` artifacts.
//!
//! The experiment binaries used to assemble their JSON documents by hand,
//! and the envelopes drifted (`records` at the top level in one file,
//! missing in another; `entities` sometimes present, sometimes not).
//! [`BenchReport`] fixes the shared fields once: every artifact now opens
//! with the same envelope —
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "experiment": "...",
//!   "dataset": { "name": "...", "records": N, "entities": N? },
//!   "reps": N,
//!   "host_cpus": N,
//!   "note": "..."
//! }
//! ```
//!
//! — followed by the experiment's own named sections in insertion order.
//! `perf_gate` and external tooling key off `schema_version` and the
//! envelope fields.

use hera_types::json::Json;

/// Version stamp written into every artifact; bump on envelope changes.
pub const BENCH_SCHEMA_VERSION: i64 = 1;

/// Builder for one `results/BENCH_*.json` document.
pub struct BenchReport {
    experiment: String,
    dataset: Option<(String, usize, Option<usize>)>,
    reps: usize,
    candidates: Option<(u64, f64)>,
    note: String,
    sections: Vec<(String, Json)>,
}

impl BenchReport {
    /// Starts a report for the named experiment.
    pub fn new(experiment: &str) -> Self {
        Self {
            experiment: experiment.to_owned(),
            dataset: None,
            reps: 1,
            candidates: None,
            note: String::new(),
            sections: Vec::new(),
        }
    }

    /// Records the dataset the experiment ran on.
    pub fn dataset(mut self, name: &str, records: usize) -> Self {
        self.dataset = Some((name.to_owned(), records, None));
        self
    }

    /// Records the dataset with its ground-truth entity count.
    pub fn dataset_with_entities(mut self, name: &str, records: usize, entities: usize) -> Self {
        self.dataset = Some((name.to_owned(), records, Some(entities)));
        self
    }

    /// Repetitions per measurement (best-of semantics are the caller's).
    pub fn reps(mut self, reps: usize) -> Self {
        self.reps = reps;
        self
    }

    /// Records the candidate-pair funnel of the experiment's headline
    /// configuration: how many record pairs went into verification and
    /// the reduction ratio vs the quadratic pair space
    /// (`1 − candidate_pairs / (n·(n−1)/2)`; negative when label
    /// expansion outgrows the record-pair space). `perf_gate` keys off
    /// these to catch candidate blowups that throughput alone can hide.
    pub fn candidates(mut self, candidate_pairs: u64, reduction_ratio: f64) -> Self {
        self.candidates = Some((candidate_pairs, reduction_ratio));
        self
    }

    /// Free-form methodology note.
    pub fn note(mut self, note: &str) -> Self {
        self.note = note.to_owned();
        self
    }

    /// Appends a named experiment-specific section (kept in insertion
    /// order after the envelope).
    pub fn section(mut self, name: &str, value: Json) -> Self {
        self.sections.push((name.to_owned(), value));
        self
    }

    /// Assembles the full document: envelope first, then the sections.
    pub fn to_json(&self) -> Json {
        let mut obj: Vec<(String, Json)> = vec![
            ("schema_version".into(), Json::Int(BENCH_SCHEMA_VERSION)),
            ("experiment".into(), Json::Str(self.experiment.clone())),
        ];
        if let Some((name, records, entities)) = &self.dataset {
            let mut ds = vec![
                ("name".into(), Json::Str(name.clone())),
                ("records".into(), Json::Int(*records as i64)),
            ];
            if let Some(e) = entities {
                ds.push(("entities".into(), Json::Int(*e as i64)));
            }
            obj.push(("dataset".into(), Json::Obj(ds)));
        }
        obj.push(("reps".into(), Json::Int(self.reps as i64)));
        obj.push(("host_cpus".into(), Json::Int(host_cpus() as i64)));
        if let Some((pairs, rr)) = self.candidates {
            obj.push(("candidate_pairs".into(), Json::Int(pairs as i64)));
            obj.push(("reduction_ratio".into(), Json::Float(rr)));
        }
        if !self.note.is_empty() {
            obj.push(("note".into(), Json::Str(self.note.clone())));
        }
        obj.extend(self.sections.iter().cloned());
        Json::Obj(obj)
    }

    /// Writes the pretty-printed document, creating the parent directory.
    pub fn write(&self, path: &str) {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
        std::fs::write(path, self.to_json().to_string_pretty())
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote {path}");
    }
}

/// The host's available parallelism (recorded in every envelope so a
/// reader can judge the thread-scaling numbers).
pub fn host_cpus() -> usize {
    hera_types::parallel::effective_threads(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_fields_come_first_and_sections_keep_order() {
        let doc = BenchReport::new("demo")
            .dataset_with_entities("d", 10, 7)
            .reps(3)
            .note("n")
            .section("beta", Json::Int(1))
            .section("alpha", Json::Int(2))
            .to_json();
        let Json::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "schema_version",
                "experiment",
                "dataset",
                "reps",
                "host_cpus",
                "note",
                "beta",
                "alpha"
            ]
        );
        assert_eq!(doc.expect("schema_version").unwrap().as_i64().unwrap(), 1);
        let ds = doc.expect("dataset").unwrap();
        assert_eq!(ds.expect("records").unwrap().as_i64().unwrap(), 10);
        assert_eq!(ds.expect("entities").unwrap().as_i64().unwrap(), 7);
    }

    #[test]
    fn optional_fields_are_omitted() {
        let doc = BenchReport::new("demo").to_json();
        assert!(doc.get("dataset").is_none());
        assert!(doc.get("note").is_none());
        assert!(doc.get("candidate_pairs").is_none());
        assert!(doc.get("reduction_ratio").is_none());
        assert_eq!(doc.expect("reps").unwrap().as_i64().unwrap(), 1);
    }

    #[test]
    fn candidates_land_in_the_envelope() {
        let doc = BenchReport::new("demo")
            .candidates(1234, 0.975)
            .section("s", Json::Int(0))
            .to_json();
        let Json::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "schema_version",
                "experiment",
                "reps",
                "host_cpus",
                "candidate_pairs",
                "reduction_ratio",
                "s"
            ]
        );
        assert_eq!(
            doc.expect("candidate_pairs").unwrap().as_i64().unwrap(),
            1234
        );
        let rr = doc.expect("reduction_ratio").unwrap().as_f64().unwrap();
        assert!((rr - 0.975).abs() < 1e-12);
    }

    #[test]
    fn round_trips_through_the_parser() {
        let doc = BenchReport::new("demo")
            .dataset("d", 5)
            .section("s", Json::Arr(vec![Json::Float(1.5)]))
            .to_json();
        let back = hera_types::json::parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(back.to_string_compact(), doc.to_string_compact());
    }
}
