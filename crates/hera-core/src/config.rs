//! HERA configuration.

use hera_block::BlockingScheme;
use hera_index::BoundMode;
use hera_sim::{TypeDispatch, ValueSimilarity};
use hera_types::json::Json;
use hera_types::{HeraError, Result};

/// Prior `p = Pr(x = x*)` of Theorem 2: the assumed probability that one
/// field-matching prediction is correct (the §IV-B worked example's 0.8).
pub(crate) const VOTE_PRIOR: f64 = 0.8;

/// Error-probability gate ρ: a majority vote becomes a decided schema
/// matching once `UP_error < ρ` (the §IV-B worked example's 0.6).
pub(crate) const VOTE_ERROR_THRESHOLD: f64 = 0.6;

/// Votes an attribute pair needs before it can be decided; guards the
/// bound's small-`n` regime.
pub(crate) const VOTE_MIN_N: u32 = 3;

/// Safety cap on compare-and-merge rounds per run or resolve call.
/// Rounds are chunked (the progressive scheduler verifies at most
/// `ROUND_CHUNK` candidates per round), so the cap scales with frontier
/// size over chunk, not with the paper's Table II `k`.
pub(crate) const MAX_ITERATIONS: usize = 4096;

/// The part of the method an ablation switches off (§VI's A2 and A3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ablation {
    /// The full method: Kuhn–Munkres verification and the schema-based
    /// method (§IV-B).
    #[default]
    None,
    /// Greedy matching in place of Kuhn–Munkres after graph
    /// simplification (A2's cheap arm).
    GreedyMatching,
    /// No schema-based method: no votes, no decided matchings (A3).
    NoSchemaVoting,
}

/// The names a snapshot records for the bound modes and the ablations.
const BOUND_MODES: &[(BoundMode, &str)] =
    &[(BoundMode::Sound, "sound"), (BoundMode::Paper, "paper")];
const ABLATIONS: &[(Ablation, &str)] = &[
    (Ablation::None, "none"),
    (Ablation::GreedyMatching, "greedy_matching"),
    (Ablation::NoSchemaVoting, "no_schema_voting"),
];

/// The name `names` gives `value`.
fn name_of<T: PartialEq>(names: &[(T, &str)], value: T) -> Json {
    let (_, name) = names
        .iter()
        .find(|(v, _)| *v == value)
        .expect("each table names every value");
    Json::Str((*name).into())
}

/// Reads a name from `names` out of a JSON string; `None` for another name.
fn named<T: Copy>(names: &'static [(T, &str)]) -> impl Fn(&Json) -> Result<Option<T>> {
    move |j| {
        let name = j.as_str()?;
        Ok(names.iter().find(|(_, n)| *n == name).map(|&(v, _)| v))
    }
}

/// Snapshot `config` key `key` as `read` makes it out: `default` when the
/// key is absent, `Corrupt` when `read` makes nothing of it.
fn recorded<T>(
    config: &Json,
    key: &str,
    default: T,
    read: impl Fn(&Json) -> Result<Option<T>>,
) -> Result<T> {
    let Some(j) = config.get(key) else {
        return Ok(default);
    };
    let value = j.to_string_compact();
    read(j)?.ok_or_else(|| HeraError::Corrupt(format!("snapshot config has {key}={value}")))
}

/// Tuning knobs for [`Hera`](crate::Hera) (Algorithm 2's inputs plus the
/// engineering options the paper leaves implicit).
#[derive(Debug, Clone)]
pub struct HeraConfig {
    /// Record-similarity threshold δ: super records with `Sim ≥ δ` merge.
    pub delta: f64,
    /// Value-similarity threshold ξ: value pairs below ξ are not indexed
    /// and field pairs below ξ are not matching candidates.
    pub xi: f64,
    /// Bound derivation for candidate generation (Algorithm 1 flavor).
    pub bound_mode: BoundMode,
    /// The part of the method switched off, for the A2/A3 ablations.
    pub ablation: Ablation,
    /// Worker threads for the parallel stages (blocking-key extraction,
    /// join verification and candidate verification). `0` auto-detects
    /// the available cores.
    /// Results are bit-identical for every setting — see
    /// [`crate::parallel`].
    pub num_threads: usize,
    /// Candidate generation ahead of the similarity join.
    /// [`BlockingScheme::None`] (the default) keeps the paper-exact
    /// all-pairs enumeration — every existing result is bit-identical.
    /// Any other scheme runs a blocking + meta-blocking pass (see the
    /// `hera-block` crate) and restricts the join to the blocked record
    /// pairs: sub-quadratic, at a measured pair-completeness cost.
    pub blocking: BlockingScheme,
}

impl HeraConfig {
    /// Creates a config with the two thresholds of Algorithm 2 and paper
    /// defaults everywhere else (ξ/δ both 0.5 in the worked example).
    pub fn new(delta: f64, xi: f64) -> Self {
        assert!((0.0..=1.0).contains(&delta), "delta must be in [0,1]");
        assert!((0.0..=1.0).contains(&xi), "xi must be in [0,1]");
        Self {
            delta,
            xi,
            bound_mode: BoundMode::Sound,
            ablation: Ablation::None,
            num_threads: 0,
            blocking: BlockingScheme::None,
        }
    }

    /// Paper's worked-example configuration: δ = ξ = 0.5.
    pub fn paper_example() -> Self {
        Self::new(0.5, 0.5)
    }

    /// Selects the bound mode.
    pub fn with_bound_mode(mut self, mode: BoundMode) -> Self {
        self.bound_mode = mode;
        self
    }

    /// Switches off one part of the method (see [`Ablation`]).
    pub fn with_ablation(mut self, ablation: Ablation) -> Self {
        self.ablation = ablation;
        self
    }

    /// Sets the worker-thread count for the parallel stages (`0` = auto).
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Selects the blocking scheme for candidate generation
    /// ([`BlockingScheme::None`] restores the exact all-pairs join).
    pub fn with_blocking(mut self, blocking: BlockingScheme) -> Self {
        self.blocking = blocking;
        self
    }

    /// A snapshot's `config` section: every field that shapes a
    /// decision, and the fingerprint of `metric`, the session's value
    /// similarity. The thread count changes no outcome and is the
    /// restoring caller's.
    pub(crate) fn to_json(&self, metric: &dyn ValueSimilarity) -> Json {
        Json::Obj(vec![
            ("xi".into(), Json::Float(self.xi)),
            ("delta".into(), Json::Float(self.delta)),
            ("blocking".into(), Json::Str(self.blocking.name().into())),
            ("bound_mode".into(), name_of(BOUND_MODES, self.bound_mode)),
            ("ablation".into(), name_of(ABLATIONS, self.ablation)),
            ("metric".into(), Json::Str(metric.fingerprint())),
        ])
    }

    /// This config with the decision-shaping fields a snapshot's `config`
    /// section recorded; a key the section lacks (files written before
    /// it was recorded) takes [`HeraConfig::paper_example`]'s value, and
    /// a missing metric is [`TypeDispatch::paper_default`].
    /// `num_threads` stays this config's. A threshold outside `[0, 1]` or
    /// a name no field value has is `Corrupt`; a recorded metric whose
    /// fingerprint is not `metric`'s is `InvalidConfig`, since the
    /// session would go on scoring values differently from the one that
    /// wrote the file.
    pub(crate) fn adopt(&self, config: &Json, metric: &dyn ValueSimilarity) -> Result<Self> {
        let text = |j: &Json| Ok(Some(j.as_str()?.to_owned()));
        let recorded_metric = recorded(
            config,
            "metric",
            TypeDispatch::paper_default().fingerprint(),
            text,
        )?;
        let metric = metric.fingerprint();
        if recorded_metric != metric {
            return Err(HeraError::InvalidConfig(format!(
                "snapshot was written under metric {recorded_metric}, the restoring builder's is {metric}"
            )));
        }
        let paper = Self::paper_example();
        let unit = |j: &Json| Ok(Some(j.as_f64()?).filter(|v| (0.0..=1.0).contains(v)));
        let scheme = |j: &Json| Ok(BlockingScheme::parse(j.as_str()?).ok());
        Ok(Self {
            delta: recorded(config, "delta", paper.delta, unit)?,
            xi: recorded(config, "xi", paper.xi, unit)?,
            blocking: recorded(config, "blocking", paper.blocking, scheme)?,
            bound_mode: recorded(config, "bound_mode", paper.bound_mode, named(BOUND_MODES))?,
            ablation: recorded(config, "ablation", paper.ablation, named(ABLATIONS))?,
            num_threads: self.num_threads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = HeraConfig::paper_example();
        assert_eq!(c.delta, 0.5);
        assert_eq!(c.xi, 0.5);
        assert_eq!(c.bound_mode, BoundMode::Sound);
        assert_eq!(c.ablation, Ablation::None);
    }

    #[test]
    #[should_panic(expected = "delta")]
    fn bad_delta() {
        HeraConfig::new(1.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "xi")]
    fn bad_xi() {
        HeraConfig::new(0.5, -0.1);
    }

    #[test]
    fn blocking_defaults_to_none() {
        assert_eq!(HeraConfig::paper_example().blocking, BlockingScheme::None);
        let c = HeraConfig::paper_example().with_blocking(BlockingScheme::token());
        assert_eq!(c.blocking.name(), "token");
    }

    #[test]
    fn builder_toggles() {
        let c = HeraConfig::paper_example()
            .with_ablation(Ablation::GreedyMatching)
            .with_bound_mode(BoundMode::Paper)
            .with_threads(4);
        assert_eq!(c.ablation, Ablation::GreedyMatching);
        assert_eq!(c.bound_mode, BoundMode::Paper);
        assert_eq!(c.num_threads, 4);
    }

    /// What the `config` section records is what adoption reads back,
    /// for every ablation and bound mode; the adopting config keeps its
    /// own threads.
    #[test]
    fn adopt_reads_back_every_recorded_field() {
        for ablation in [
            Ablation::None,
            Ablation::GreedyMatching,
            Ablation::NoSchemaVoting,
        ] {
            for mode in [BoundMode::Sound, BoundMode::Paper] {
                let recorded = HeraConfig::new(0.7, 0.6)
                    .with_ablation(ablation)
                    .with_bound_mode(mode)
                    .with_blocking(BlockingScheme::token())
                    .with_threads(2);
                let restorer = HeraConfig::paper_example().with_threads(5);
                let paper = TypeDispatch::paper_default();
                let c = restorer.adopt(&recorded.to_json(&paper), &paper).unwrap();
                assert_eq!((c.delta, c.xi), (0.7, 0.6));
                assert_eq!((c.ablation, c.bound_mode), (ablation, mode));
                assert_eq!(c.blocking, BlockingScheme::token());
                assert_eq!(c.num_threads, 5);
            }
        }
    }
}
