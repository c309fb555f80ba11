//! HERA configuration.

use hera_block::BlockingScheme;
use hera_index::BoundMode;

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
    /// Run the schema-based method (§IV-B). Disable for the A3 ablation.
    pub schema_voting: bool,
    /// Prior `p = Pr(x = x*)` of Theorem 2 — the assumed probability that
    /// a single field-matching prediction is correct. The paper's worked
    /// example uses 0.8.
    pub vote_prior: f64,
    /// Error-probability threshold ρ: a majority vote is promoted to a
    /// decided schema matching once `UP_error < ρ`.
    pub vote_error_threshold: f64,
    /// Minimum number of votes before a matching can be decided (guards
    /// the bound's small-`n` regime).
    pub vote_min_n: u32,
    /// Safety cap on compare-and-merge iterations. Rounds are chunked
    /// (the progressive scheduler verifies at most `ROUND_CHUNK`
    /// candidates per round), so the cap must scale with frontier size /
    /// chunk, not with the paper's Table II `k`.
    pub max_iterations: usize,
    /// Run Kuhn–Munkres after graph simplification (true, the paper) or
    /// fall back to greedy matching (the A2 ablation's cheap arm).
    pub use_kuhn_munkres: bool,
    /// Run full index-invariant checks after every iteration (normalized
    /// keys, similarity-descending groups, partner symmetry, counts).
    /// Costs a full index scan per iteration — for tests and debugging.
    /// A broken invariant ends a batch run with `HeraError::Corrupt`
    /// and panics a streaming session's `resolve` with the same message.
    pub validate_index: bool,
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
    /// defaults everywhere else (ξ/δ both 0.5 in the worked example; prior
    /// 0.8 and the 0.6 error threshold come from the §IV-B example).
    pub fn new(delta: f64, xi: f64) -> Self {
        assert!((0.0..=1.0).contains(&delta), "delta must be in [0,1]");
        assert!((0.0..=1.0).contains(&xi), "xi must be in [0,1]");
        Self {
            delta,
            xi,
            bound_mode: BoundMode::Sound,
            schema_voting: true,
            vote_prior: 0.8,
            vote_error_threshold: 0.6,
            vote_min_n: 3,
            max_iterations: 4096,
            use_kuhn_munkres: true,
            validate_index: false,
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

    /// Disables the schema-based method.
    pub fn without_schema_voting(mut self) -> Self {
        self.schema_voting = false;
        self
    }

    /// Replaces Kuhn–Munkres with greedy matching in verification.
    pub fn with_greedy_matching(mut self) -> Self {
        self.use_kuhn_munkres = false;
        self
    }

    /// Enables per-iteration index-invariant validation (tests/debug).
    pub fn with_index_validation(mut self) -> Self {
        self.validate_index = true;
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
        assert!(c.schema_voting);
        assert!(c.use_kuhn_munkres);
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
            .without_schema_voting()
            .with_greedy_matching()
            .with_bound_mode(BoundMode::Paper)
            .with_threads(4);
        assert!(!c.schema_voting);
        assert!(!c.use_kuhn_munkres);
        assert_eq!(c.bound_mode, BoundMode::Paper);
        assert_eq!(c.num_threads, 4);
    }
}
