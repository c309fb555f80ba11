//! Blocking and meta-blocking for HERA — sub-quadratic candidate
//! generation ahead of the similarity join.
//!
//! The paper's value-pair index is fed by a similarity self-join whose
//! candidate generation is quadratic-prone in the record count. In the
//! blocking literature (token blocking, q-gram blocking, MinHash-LSH,
//! and the meta-blocking refinements of block purging and edge pruning)
//! the join is preceded by a cheap, schema-agnostic pass that picks the
//! record pairs worth comparing at all. This crate implements that pass:
//!
//! 1. every record is mapped to a set of 64-bit *blocking keys*
//!    ([`BlockingScheme::Token`], [`BlockingScheme::QGram`],
//!    [`BlockingScheme::MinHashLsh`]);
//! 2. records sharing a key form a *block*;
//! 3. meta-blocking purges oversized blocks and prunes weakly co-blocked
//!    pairs (CBS weighting), under limits each scheme fixes — a scheme is
//!    its name, with nothing to tune;
//! 4. the surviving pairs come out sorted, each as `(a, b)` with `a < b`
//!    ([`BlockingOutcome::pairs`]). A blocked `Hera::join` compares the
//!    values of each with the session's incremental scan
//!    (`hera_join::IncrementalJoin`): blocking decides *which* record
//!    pairs are compared, one join compares them.
//!
//! Blocking trades recall for speed: the emitted pair set is measured by
//! **pair completeness** (fraction of ground-truth duplicate pairs kept)
//! against **reduction ratio** (fraction of the quadratic pair space
//! skipped). The repo's `tests/blocking.rs` holds each scheme to a
//! measured pair-completeness floor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod meta;
mod minhash;
mod streaming;
mod tokenize;

pub use streaming::StreamingBlocker;

use hera_types::parallel::par_map;
use hera_types::{Dataset, Value};
use meta::MetaBlocking;
use rustc_hash::FxHashMap;

/// Which blocking keys to derive from each record, and how meta-blocking
/// prunes their blocks. Each scheme's keys and limits are constants, so
/// a scheme round-trips whole through [`BlockingScheme::name`] and
/// [`BlockingScheme::parse`].
///
/// All schemes are schema-agnostic: keys are drawn from the bag of a
/// record's values, never from field positions, so heterogeneous
/// schemas block against each other naturally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockingScheme {
    /// No blocking — the join enumerates candidates from the value
    /// universe exactly as before (the default; results are untouched).
    None,
    /// Word tokens of every value, plus one whole-value key per value
    /// (ids, titles, dates and exact numbers stay discriminative when word
    /// blocks are purged). Purge > 100, CBS ≥ 2.
    Token,
    /// Character 5-grams of every value — robust to typos at the price of
    /// more keys per record. Purge > 150, CBS ≥ 1: a shared 5-gram is
    /// already selective (CBS ≥ 2 cost ~7 points of pair completeness).
    QGram,
    /// MinHash-LSH over the token set: 24 bands of 2 folded min-hashes,
    /// the `1 − (1 − s²)²⁴` Jaccard S-curve. Purge > 100, CBS ≥ 1: a
    /// band is already conjunctive evidence.
    MinHashLsh,
}

/// Gram length of [`BlockingScheme::QGram`] keys (independent of the
/// join's `q`; longer grams make rarer, more selective blocks).
const QGRAM_Q: usize = 5;
/// Bands of [`BlockingScheme::MinHashLsh`]: keys per record.
const LSH_BANDS: usize = 24;
/// Min-hash rows folded into each band key.
const LSH_ROWS: usize = 2;
/// Seed of the min-hash family.
const LSH_SEED: u64 = 0x4845_5241; // "HERA"

impl BlockingScheme {
    /// Token blocking.
    pub fn token() -> Self {
        Self::Token
    }

    /// Q-gram blocking.
    pub fn qgram() -> Self {
        Self::QGram
    }

    /// MinHash-LSH blocking.
    pub fn lsh() -> Self {
        Self::MinHashLsh
    }

    /// Short scheme name for journals, CLI, and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Token => "token",
            Self::QGram => "qgram",
            Self::MinHashLsh => "lsh",
        }
    }

    /// Parses a scheme name (`none`, `token`, `qgram`, `lsh`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "none" => Ok(Self::None),
            "token" => Ok(Self::Token),
            "qgram" => Ok(Self::QGram),
            "lsh" => Ok(Self::MinHashLsh),
            other => Err(format!(
                "unknown blocking scheme '{other}' (expected none, token, qgram, or lsh)"
            )),
        }
    }

    /// The scheme's meta-blocking limits; `None` for no blocking.
    pub(crate) fn meta(self) -> Option<MetaBlocking> {
        let (max_block_size, min_common_blocks) = match self {
            Self::None => return None,
            Self::Token => (100, 2),
            Self::QGram => (150, 1),
            Self::MinHashLsh => (100, 1),
        };
        Some(MetaBlocking {
            max_block_size,
            min_common_blocks,
        })
    }
}

/// Blocking keys of a record's values under a scheme — the extraction
/// the batch and the streaming blocker share. Sorted and deduplicated;
/// empty for all-null records and for [`BlockingScheme::None`].
pub(crate) fn keys_for(scheme: BlockingScheme, values: &[Value]) -> Vec<u64> {
    match scheme {
        BlockingScheme::None => Vec::new(),
        BlockingScheme::Token => tokenize::word_value_tokens(values),
        BlockingScheme::QGram => tokenize::qgram_tokens(values, QGRAM_Q),
        BlockingScheme::MinHashLsh => minhash::band_tokens(
            &tokenize::word_value_tokens(values),
            LSH_BANDS,
            LSH_ROWS,
            LSH_SEED,
        ),
    }
}

/// Counters describing one blocking pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockingStats {
    /// Scheme name ([`BlockingScheme::name`]).
    pub scheme: &'static str,
    /// Records blocked.
    pub records: usize,
    /// Blocks holding at least two records (pair-producing blocks).
    pub blocks: u64,
    /// Of those, blocks dropped by the size purge.
    pub blocks_purged: u64,
    /// Distinct record pairs co-blocked in retained blocks.
    pub pairs_considered: u64,
    /// Pairs surviving meta-blocking — the blocker's output size.
    pub pairs_emitted: u64,
}

impl BlockingStats {
    /// Pairs dropped by edge pruning (`considered − emitted`).
    pub fn pairs_pruned(&self) -> u64 {
        self.pairs_considered - self.pairs_emitted
    }

    /// Reduction ratio vs the quadratic pair space:
    /// `1 − emitted / (n·(n−1)/2)`. Zero for trivial (`n < 2`) inputs.
    pub fn reduction_ratio(&self) -> f64 {
        let n = self.records as f64;
        let total = n * (n - 1.0) / 2.0;
        if total <= 0.0 {
            return 0.0;
        }
        1.0 - self.pairs_emitted as f64 / total
    }
}

/// Result of a blocking pass: the allowed record pairs plus counters.
#[derive(Debug, Clone)]
pub struct BlockingOutcome {
    /// Record pairs the similarity join is allowed to compare: each
    /// `(a, b)` with `a < b`, sorted, no pair twice.
    pub pairs: Vec<(u32, u32)>,
    /// Funnel counters for reports and the `blocking` journal span.
    pub stats: BlockingStats,
}

/// The blocking stage. Runs ahead of the similarity join and emits the
/// candidate record pairs the join (and through it the value-pair
/// index) consumes.
///
/// Output is deterministic and independent of the worker-thread count:
/// key extraction is an ordered map over the records, and the
/// meta-blocking pass sorts its pair multiset before counting.
pub struct Blocker {
    scheme: BlockingScheme,
    meta: MetaBlocking,
    recorder: hera_obs::Recorder,
    num_threads: usize,
}

impl Blocker {
    /// Creates a blocker for a concrete scheme.
    ///
    /// # Panics
    ///
    /// If the scheme is [`BlockingScheme::None`] — "no blocking" means
    /// the all-pairs join runs instead; there is no pair set to build.
    pub fn new(scheme: BlockingScheme) -> Self {
        let meta = scheme
            .meta()
            .expect("BlockingScheme::None has no blocker stage; run the all-pairs join instead");
        Self {
            scheme,
            meta,
            recorder: hera_obs::Recorder::disabled(),
            num_threads: 0,
        }
    }

    /// Attaches a journal recorder; the pass emits a `blocking` span
    /// with its funnel counters (all order-independent totals, so the
    /// span belongs to the deterministic core journal).
    pub fn with_recorder(mut self, recorder: hera_obs::Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Sets the worker-thread count for key extraction (`0` = auto).
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Blocks a dataset into the candidate record-pair set.
    pub fn block(&self, ds: &Dataset) -> BlockingOutcome {
        let t0 = std::time::Instant::now();
        // Each record's keys, in record order, fanned out over
        // [`hera_types::parallel`].
        let keys = par_map(self.num_threads, &ds.records, |rec| {
            keys_for(self.scheme, &rec.values)
        });

        let mut blocks: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        for (rid, toks) in keys.iter().enumerate() {
            for &t in toks {
                blocks.entry(t).or_default().push(rid as u32);
            }
        }
        let (pairs, counters) = meta::prune_blocks(&blocks, self.meta);
        let stats = BlockingStats {
            scheme: self.scheme.name(),
            records: ds.len(),
            ..counters
        };
        self.recorder.span(
            "blocking",
            None,
            &[
                ("records", stats.records as i64),
                ("blocks", stats.blocks as i64),
                ("blocks_purged", stats.blocks_purged as i64),
                ("pairs_considered", stats.pairs_considered as i64),
                ("pairs_emitted", stats.pairs_emitted as i64),
                ("pairs_pruned", stats.pairs_pruned() as i64),
            ],
        );
        self.recorder.timing("blocking", None, t0.elapsed());
        BlockingOutcome { pairs, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_types::motivating_example;

    #[test]
    fn scheme_names_and_parse_round_trip() {
        for name in ["none", "token", "qgram", "lsh"] {
            let scheme = BlockingScheme::parse(name).unwrap();
            assert_eq!(scheme.name(), name);
        }
        assert!(BlockingScheme::parse("bogus").is_err());
    }

    #[test]
    #[should_panic(expected = "None has no blocker")]
    fn none_scheme_rejected() {
        Blocker::new(BlockingScheme::None);
    }

    #[test]
    fn token_blocking_pairs_duplicate_records() {
        // The motivating example's records of one entity share values, so
        // token blocking must co-block them.
        let ds = motivating_example();
        let outcome = Blocker::new(BlockingScheme::token()).block(&ds);
        assert!(!outcome.pairs.is_empty());
        assert_eq!(outcome.stats.records, ds.len());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // Enough records that key extraction fans out (the motivating
        // example's six would run inline at every thread count).
        let ds = hera_datagen::ScaleGenerator::new(hera_datagen::scale_preset(300, 7)).generate();
        for scheme in [
            BlockingScheme::token(),
            BlockingScheme::qgram(),
            BlockingScheme::lsh(),
        ] {
            let reference = Blocker::new(scheme).with_threads(1).block(&ds);
            for threads in 2..=8 {
                let got = Blocker::new(scheme).with_threads(threads).block(&ds);
                assert_eq!(got.pairs, reference.pairs, "{} @ {threads}", scheme.name());
                assert_eq!(got.stats, reference.stats, "{} @ {threads}", scheme.name());
            }
        }
    }

    #[test]
    fn reduction_ratio_sane() {
        let stats = BlockingStats {
            scheme: "token",
            records: 100,
            blocks: 10,
            blocks_purged: 0,
            pairs_considered: 99,
            pairs_emitted: 99,
        };
        let rr = stats.reduction_ratio();
        assert!((rr - (1.0 - 99.0 / 4950.0)).abs() < 1e-12);
    }

    #[test]
    fn blocking_span_emitted() {
        let ds = motivating_example();
        let (recorder, sink) = hera_obs::Recorder::to_memory();
        Blocker::new(BlockingScheme::token())
            .with_recorder(recorder)
            .block(&ds);
        let journal = sink.contents();
        assert!(
            journal.contains("\"blocking\""),
            "no blocking span in journal: {journal}"
        );
    }
}
