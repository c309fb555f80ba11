//! Deterministic fault injection for HERA's IO edges.
//!
//! Durability claims are only as good as the failure testing behind them.
//! This crate provides the three pieces the chaos harness is built from:
//!
//! * **[`FaultPlan`]** — a *reproducible schedule* of which named
//!   failpoint fires on which hit. A plan is plain data (serialized via
//!   [`hera_types::json`]), so any chaos failure can be replayed exactly
//!   from its plan file (`hera-cli faults replay`). Random plans are
//!   derived from a seed with a self-contained splitmix64 generator —
//!   same seed, same plan, on every host.
//! * **[`FaultInjector`]** — the handle threaded through every IO edge
//!   (`hera_core::store` snapshot writes/reads, the `hera-obs` file sink). Each
//!   edge names its failpoint ([`points`]) and asks the injector whether
//!   *this* hit fires. A disabled injector ([`FaultInjector::disabled`],
//!   the default everywhere) is a single `Option` branch — production
//!   paths pay nothing.
//! * **[`retry`]/[`BackoffPolicy`]** — capped exponential backoff with an
//!   injectable [`Clock`], so robustness code (checkpoint writes retry
//!   transient IO errors) is unit-testable without real sleeps.
//!
//! The injector never fires spontaneously: hits are counted per
//! failpoint in call order, and a rule fires on exactly the hit indices
//! its plan lists. Because HERA's pipelines drive their IO edges
//! deterministically, a (plan, dataset, config) triple reproduces the
//! same fault sequence every run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hera_types::json::Json;
use hera_types::{HeraError, Result};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Failpoint names, one per instrumented IO edge.
///
/// A failpoint name is a stable identifier: plans reference edges by
/// these strings, so renaming one is a format change.
pub mod points {
    /// `hera_core::store`: creating the `.tmp` sibling of a snapshot write.
    pub const STORE_WRITE_CREATE: &str = "store.write.create";
    /// `hera_core::store`: writing the snapshot bytes (supports
    /// [`FaultKind::Torn`](super::FaultKind::Torn) — a partial write
    /// followed by failure, simulating a crash mid-write).
    pub const STORE_WRITE_WRITE: &str = "store.write.write";
    /// `hera_core::store`: fsyncing the `.tmp` file before the rename.
    pub const STORE_WRITE_SYNC: &str = "store.write.sync";
    /// `hera_core::store`: renaming the `.tmp` file over the destination.
    pub const STORE_WRITE_RENAME: &str = "store.write.rename";
    /// `hera_core::store`: fsyncing the parent directory after the rename (the
    /// crash-consistency step that makes the rename itself durable).
    pub const STORE_WRITE_DIRSYNC: &str = "store.write.dirsync";
    /// `hera_core::store`: reading a snapshot file (supports
    /// [`FaultKind::Corrupt`](super::FaultKind::Corrupt) — the read
    /// succeeds but a byte is flipped, simulating bit rot).
    pub const STORE_READ: &str = "store.read";
    /// `hera-obs`: appending a line to the journal sink (fires sink
    /// degradation: the recorder downgrades to a null sink).
    pub const OBS_SINK_WRITE: &str = "obs.sink.write";

    /// Every failpoint, for plan generators and documentation.
    pub(crate) const ALL: [&str; 7] = [
        STORE_WRITE_CREATE,
        STORE_WRITE_WRITE,
        STORE_WRITE_SYNC,
        STORE_WRITE_RENAME,
        STORE_WRITE_DIRSYNC,
        STORE_READ,
        OBS_SINK_WRITE,
    ];
}

/// What happens when a failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails outright with an injected IO error.
    Error,
    /// A write stops after `keep_percent`% of its bytes and then fails —
    /// the on-disk state a crash mid-write leaves behind. Only write
    /// edges honor the partial bytes; elsewhere this degrades to
    /// [`FaultKind::Error`].
    Torn {
        /// Percentage of the payload bytes that reach the file (0–100).
        keep_percent: u8,
    },
    /// A read completes but one byte of the returned buffer is flipped
    /// (simulated bit rot). Only read edges can corrupt; elsewhere this
    /// degrades to [`FaultKind::Error`].
    Corrupt,
}

impl FaultKind {
    fn name(&self) -> &'static str {
        match self {
            FaultKind::Error => "error",
            FaultKind::Torn { .. } => "torn",
            FaultKind::Corrupt => "corrupt",
        }
    }
}

/// One scheduled fault: the named failpoint fails with `kind` on exactly
/// the 1-based hit indices in `hits`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Failpoint name (see [`points`]).
    pub point: String,
    /// 1-based hit indices on which this rule fires.
    pub hits: Vec<u64>,
    /// Failure mode applied on those hits.
    pub kind: FaultKind,
}

/// A reproducible schedule of faults: which failpoint fires on which hit,
/// with which failure mode. Serializable via [`hera_types::json`], so a
/// failing chaos case replays from its plan file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed the plan was derived from (0 for hand-written plans). Carried
    /// for provenance only — the rules are the schedule.
    pub seed: u64,
    /// The scheduled faults.
    pub rules: Vec<FaultRule>,
}

/// splitmix64 — the tiny, well-mixed PRNG step used to derive random
/// plans without pulling a crate into this dependency-free layer.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The empty plan: no failpoint ever fires.
    pub fn none() -> Self {
        Self::default()
    }

    /// Derives a random plan from a seed — deterministically: the same
    /// seed yields the same plan on every host. Plans stay small (at most
    /// four rules, hits within the first dozen) so most chaos cases
    /// exercise a few injected failures rather than total IO blackout.
    pub fn random(seed: u64) -> Self {
        let mut s = seed ^ 0xD6E8_FEB8_6659_FD93;
        let n_rules = (splitmix64(&mut s) % 4) as usize + 1;
        let mut rules = Vec::with_capacity(n_rules);
        for _ in 0..n_rules {
            let point = points::ALL[(splitmix64(&mut s) % points::ALL.len() as u64) as usize];
            let n_hits = (splitmix64(&mut s) % 2) as usize + 1;
            let mut hits: Vec<u64> = (0..n_hits).map(|_| splitmix64(&mut s) % 12 + 1).collect();
            hits.sort_unstable();
            hits.dedup();
            let kind = match point {
                points::STORE_WRITE_WRITE => {
                    if splitmix64(&mut s).is_multiple_of(2) {
                        FaultKind::Torn {
                            keep_percent: (splitmix64(&mut s) % 100) as u8,
                        }
                    } else {
                        FaultKind::Error
                    }
                }
                points::STORE_READ => {
                    if splitmix64(&mut s).is_multiple_of(2) {
                        FaultKind::Corrupt
                    } else {
                        FaultKind::Error
                    }
                }
                _ => FaultKind::Error,
            };
            rules.push(FaultRule {
                point: point.to_string(),
                hits,
                kind,
            });
        }
        Self { seed, rules }
    }

    /// Serializes the plan (stable field order; round-trips through
    /// [`FaultPlan::from_json`]).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seed".into(), Json::Int(self.seed as i64)),
            (
                "rules".into(),
                Json::Arr(
                    self.rules
                        .iter()
                        .map(|r| {
                            let mut obj = vec![
                                ("point".into(), Json::Str(r.point.clone())),
                                (
                                    "hits".into(),
                                    Json::Arr(
                                        r.hits.iter().map(|&h| Json::Int(h as i64)).collect(),
                                    ),
                                ),
                                ("kind".into(), Json::Str(r.kind.name().into())),
                            ];
                            if let FaultKind::Torn { keep_percent } = r.kind {
                                obj.push((
                                    "keep_percent".into(),
                                    Json::Int(i64::from(keep_percent)),
                                ));
                            }
                            Json::Obj(obj)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a plan serialized by [`FaultPlan::to_json`]. Unknown kinds
    /// and malformed hit lists are rejected with
    /// [`HeraError::Serialization`].
    pub fn from_json(json: &Json) -> Result<Self> {
        let bad = |msg: String| HeraError::Serialization(format!("fault plan: {msg}"));
        let seed = json.expect("seed")?.as_i64()? as u64;
        let mut rules = Vec::new();
        for r in json.expect("rules")?.as_arr()? {
            let point = r.expect("point")?.as_str()?.to_string();
            let mut hits = Vec::new();
            for h in r.expect("hits")?.as_arr()? {
                let h = h.as_i64()?;
                if h < 1 {
                    return Err(bad(format!("hit index {h} is not 1-based")));
                }
                hits.push(h as u64);
            }
            let kind = match r.expect("kind")?.as_str()? {
                "error" => FaultKind::Error,
                "corrupt" => FaultKind::Corrupt,
                "torn" => {
                    let keep = r.expect("keep_percent")?.as_i64()?;
                    if !(0..=100).contains(&keep) {
                        return Err(bad(format!("keep_percent {keep} outside 0..=100")));
                    }
                    FaultKind::Torn {
                        keep_percent: keep as u8,
                    }
                }
                other => return Err(bad(format!("unknown fault kind {other:?}"))),
            };
            rules.push(FaultRule { point, hits, kind });
        }
        Ok(Self { seed, rules })
    }

    /// True if no rule can ever fire.
    pub fn is_empty(&self) -> bool {
        self.rules.iter().all(|r| r.hits.is_empty())
    }
}

/// One fault that actually fired, for post-run assertions and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// The failpoint that fired.
    pub point: String,
    /// The 1-based hit index it fired on.
    pub hit: u64,
    /// The failure mode applied.
    pub kind: FaultKind,
}

impl std::fmt::Display for FiredFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{} ({})", self.point, self.hit, self.kind.name())
    }
}

#[derive(Debug, Default)]
struct InjectorState {
    rules: Vec<FaultRule>,
    counters: BTreeMap<String, u64>,
    fired: Vec<FiredFault>,
}

/// The failpoint registry handle threaded through IO edges. Cheap to
/// clone; clones share one hit counter and fired log, so a plan's
/// schedule spans every edge the same injector reaches.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    state: Option<Arc<Mutex<InjectorState>>>,
}

impl FaultInjector {
    /// An injector that never fires and never counts — the production
    /// default; every [`FaultInjector::hit`] is a single branch.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An injector executing `plan`'s schedule.
    pub fn new(plan: &FaultPlan) -> Self {
        Self {
            state: Some(Arc::new(Mutex::new(InjectorState {
                rules: plan.rules.clone(),
                counters: BTreeMap::new(),
                fired: Vec::new(),
            }))),
        }
    }

    /// True when a plan is attached (even an empty one).
    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Registers one hit on a failpoint and returns the fault to apply,
    /// if the plan schedules one for this hit. IO edges call this exactly
    /// once per operation attempt.
    pub fn hit(&self, point: &str) -> Option<FaultKind> {
        let state = self.state.as_ref()?;
        let mut s = state.lock().expect("fault injector poisoned");
        let count = s.counters.entry(point.to_string()).or_insert(0);
        *count += 1;
        let hit = *count;
        let kind = s
            .rules
            .iter()
            .find(|r| r.point == point && r.hits.contains(&hit))
            .map(|r| r.kind)?;
        s.fired.push(FiredFault {
            point: point.to_string(),
            hit,
            kind,
        });
        Some(kind)
    }

    /// Times a failpoint has been consulted so far (0 when disabled).
    /// Lets tests prove an IO edge is actually instrumented.
    pub fn hits(&self, point: &str) -> u64 {
        self.state
            .as_ref()
            .and_then(|s| {
                s.lock()
                    .expect("fault injector poisoned")
                    .counters
                    .get(point)
                    .copied()
            })
            .unwrap_or(0)
    }

    /// Every fault that fired so far, in firing order.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.state.as_ref().map_or_else(Vec::new, |s| {
            s.lock().expect("fault injector poisoned").fired.clone()
        })
    }

    /// Builds the injected error an edge reports when a failpoint fires.
    /// The message always contains `"injected fault"` so tests and
    /// operators can tell injected failures from real ones.
    pub fn error(point: &str, context: &str) -> HeraError {
        HeraError::Io(format!("injected fault at {point}: {context}"))
    }
}

// ---------------------------------------------------------------------
// Retry with exponential backoff.
// ---------------------------------------------------------------------

/// A source of delay, injectable so backoff schedules are unit-testable
/// without real sleeps.
pub trait Clock: Send + Sync {
    /// Waits for (or records) `d`.
    fn sleep(&self, d: Duration);
}

/// The production clock: actually sleeps.
#[derive(Debug, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn sleep(&self, d: Duration) {
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// A test clock that records every requested sleep and never blocks.
#[derive(Debug, Default)]
pub struct ManualClock {
    sleeps: Mutex<Vec<Duration>>,
}

impl ManualClock {
    /// A fresh recording clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every delay requested so far, in order.
    pub fn sleeps(&self) -> Vec<Duration> {
        self.sleeps.lock().expect("manual clock poisoned").clone()
    }
}

impl Clock for ManualClock {
    fn sleep(&self, d: Duration) {
        self.sleeps.lock().expect("manual clock poisoned").push(d);
    }
}

/// Capped exponential backoff: attempt `k` (2-based) waits
/// `base · factor^(k−2)`, clamped to `cap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Total attempts, including the first (≥ 1).
    pub max_attempts: u32,
    /// Delay before the second attempt.
    pub base: Duration,
    /// Multiplier applied per further attempt.
    pub factor: u32,
    /// Upper bound on any single delay.
    pub cap: Duration,
}

impl BackoffPolicy {
    /// No retries: one attempt, fail fast.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base: Duration::ZERO,
            factor: 1,
            cap: Duration::ZERO,
        }
    }

    /// The checkpoint-write default: 3 attempts, 5 ms → 10 ms backoff,
    /// capped at 100 ms — enough to ride out transient filesystem
    /// hiccups without stalling a resolve loop.
    pub fn checkpoint_default() -> Self {
        Self {
            max_attempts: 3,
            base: Duration::from_millis(5),
            factor: 2,
            cap: Duration::from_millis(100),
        }
    }

    /// The delay before attempt `attempt` (2-based; attempt 1 never
    /// waits).
    pub(crate) fn delay_before(&self, attempt: u32) -> Duration {
        if attempt <= 1 {
            return Duration::ZERO;
        }
        let exp = attempt - 2;
        let factor = self.factor.max(1).saturating_pow(exp);
        self.base.saturating_mul(factor).min(self.cap)
    }
}

/// Terminal failure of a [`retry`] loop: the last error plus how many
/// attempts were spent reaching it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryError {
    /// Attempts performed (1 ≤ attempts ≤ `max_attempts`).
    pub attempts: u32,
    /// The error of the final attempt.
    pub error: HeraError,
}

/// Runs `op` under `policy`: up to `max_attempts` attempts, sleeping the
/// policy's backoff schedule on `clock` between them. Only errors for
/// which `retryable` returns true are retried; others fail immediately.
/// On success returns the value and the number of attempts spent.
pub fn retry<T>(
    policy: &BackoffPolicy,
    clock: &dyn Clock,
    mut op: impl FnMut(u32) -> Result<T>,
    mut retryable: impl FnMut(&HeraError) -> bool,
) -> std::result::Result<(T, u32), RetryError> {
    let max = policy.max_attempts.max(1);
    let mut attempt = 0;
    loop {
        attempt += 1;
        match op(attempt) {
            Ok(v) => return Ok((v, attempt)),
            Err(error) => {
                if attempt >= max || !retryable(&error) {
                    return Err(RetryError {
                        attempts: attempt,
                        error,
                    });
                }
                clock.sleep(policy.delay_before(attempt + 1));
            }
        }
    }
}

/// The retry predicate for IO edges: transient operating-system failures
/// are worth retrying; integrity and logic errors are not.
pub fn io_retryable(e: &HeraError) -> bool {
    matches!(e, HeraError::Io(_))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_is_inert() {
        let inj = FaultInjector::disabled();
        assert!(!inj.enabled());
        for _ in 0..3 {
            assert_eq!(inj.hit(points::STORE_READ), None);
        }
        assert_eq!(inj.hits(points::STORE_READ), 0);
        assert!(inj.fired().is_empty());
    }

    #[test]
    fn plan_fires_on_exact_hits_only() {
        let plan = FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                point: points::STORE_WRITE_SYNC.into(),
                hits: vec![2, 4],
                kind: FaultKind::Error,
            }],
        };
        let inj = FaultInjector::new(&plan);
        let outcomes: Vec<bool> = (0..5)
            .map(|_| inj.hit(points::STORE_WRITE_SYNC).is_some())
            .collect();
        assert_eq!(outcomes, vec![false, true, false, true, false]);
        assert_eq!(inj.hits(points::STORE_WRITE_SYNC), 5);
        let fired = inj.fired();
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].hit, 2);
        assert_eq!(fired[1].hit, 4);
        // Unrelated points count independently and never fire.
        assert_eq!(inj.hit(points::STORE_READ), None);
        assert_eq!(inj.hits(points::STORE_READ), 1);
    }

    #[test]
    fn clones_share_one_schedule() {
        let plan = FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                point: points::OBS_SINK_WRITE.into(),
                hits: vec![2],
                kind: FaultKind::Error,
            }],
        };
        let a = FaultInjector::new(&plan);
        let b = a.clone();
        assert_eq!(a.hit(points::OBS_SINK_WRITE), None);
        assert_eq!(b.hit(points::OBS_SINK_WRITE), Some(FaultKind::Error));
        assert_eq!(a.fired().len(), 1);
    }

    #[test]
    fn plan_json_roundtrip() {
        let plan = FaultPlan {
            seed: 99,
            rules: vec![
                FaultRule {
                    point: points::STORE_WRITE_WRITE.into(),
                    hits: vec![1, 3],
                    kind: FaultKind::Torn { keep_percent: 40 },
                },
                FaultRule {
                    point: points::STORE_READ.into(),
                    hits: vec![2],
                    kind: FaultKind::Corrupt,
                },
                FaultRule {
                    point: points::STORE_WRITE_RENAME.into(),
                    hits: vec![1],
                    kind: FaultKind::Error,
                },
            ],
        };
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(back, plan);
        // And through text, the way plan files travel.
        let reparsed = hera_types::json::parse(&json.to_string_compact()).unwrap();
        assert_eq!(FaultPlan::from_json(&reparsed).unwrap(), plan);
    }

    #[test]
    fn plan_json_rejects_garbage() {
        let bad_kind = hera_types::json::parse(
            r#"{"seed":1,"rules":[{"point":"x","hits":[1],"kind":"meteor"}]}"#,
        )
        .unwrap();
        assert!(matches!(
            FaultPlan::from_json(&bad_kind),
            Err(HeraError::Serialization(_))
        ));
        let bad_hit = hera_types::json::parse(
            r#"{"seed":1,"rules":[{"point":"x","hits":[0],"kind":"error"}]}"#,
        )
        .unwrap();
        assert!(matches!(
            FaultPlan::from_json(&bad_hit),
            Err(HeraError::Serialization(_))
        ));
        let bad_keep = hera_types::json::parse(
            r#"{"seed":1,"rules":[{"point":"x","hits":[1],"kind":"torn","keep_percent":101}]}"#,
        )
        .unwrap();
        assert!(matches!(
            FaultPlan::from_json(&bad_keep),
            Err(HeraError::Serialization(_))
        ));
    }

    #[test]
    fn random_plans_are_deterministic_and_valid() {
        for seed in 0..200u64 {
            let a = FaultPlan::random(seed);
            let b = FaultPlan::random(seed);
            assert_eq!(a, b, "seed {seed} not reproducible");
            assert!(!a.rules.is_empty());
            for r in &a.rules {
                assert!(points::ALL.contains(&r.point.as_str()), "{}", r.point);
                assert!(!r.hits.is_empty());
                assert!(r.hits.iter().all(|&h| h >= 1));
            }
            // Round-trips through its own serialization.
            assert_eq!(FaultPlan::from_json(&a.to_json()).unwrap(), a);
        }
        // Different seeds differ somewhere (not a constant function).
        assert_ne!(FaultPlan::random(1), FaultPlan::random(2));
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let p = BackoffPolicy {
            max_attempts: 6,
            base: Duration::from_millis(10),
            factor: 2,
            cap: Duration::from_millis(35),
        };
        assert_eq!(p.delay_before(1), Duration::ZERO);
        assert_eq!(p.delay_before(2), Duration::from_millis(10));
        assert_eq!(p.delay_before(3), Duration::from_millis(20));
        assert_eq!(p.delay_before(4), Duration::from_millis(35), "capped");
        assert_eq!(p.delay_before(5), Duration::from_millis(35), "capped");
    }

    #[test]
    fn retry_attempt_counts_and_clock_schedule() {
        let p = BackoffPolicy {
            max_attempts: 4,
            base: Duration::from_millis(5),
            factor: 2,
            cap: Duration::from_secs(1),
        };
        let clock = ManualClock::new();
        // Succeeds on the third attempt.
        let (v, attempts) = retry(
            &p,
            &clock,
            |attempt| {
                if attempt < 3 {
                    Err(HeraError::Io("transient".into()))
                } else {
                    Ok(attempt * 10)
                }
            },
            io_retryable,
        )
        .unwrap();
        assert_eq!(v, 30);
        assert_eq!(attempts, 3);
        assert_eq!(
            clock.sleeps(),
            vec![Duration::from_millis(5), Duration::from_millis(10)],
            "one backoff delay per retried attempt, doubling"
        );
    }

    #[test]
    fn retry_exhausts_at_cap() {
        let p = BackoffPolicy {
            max_attempts: 3,
            base: Duration::from_millis(1),
            factor: 2,
            cap: Duration::from_secs(1),
        };
        let clock = ManualClock::new();
        let mut calls = 0u32;
        let err = retry::<()>(
            &p,
            &clock,
            |_| {
                calls += 1;
                Err(HeraError::Io("still down".into()))
            },
            io_retryable,
        )
        .unwrap_err();
        assert_eq!(calls, 3, "exactly max_attempts attempts");
        assert_eq!(err.attempts, 3);
        assert!(matches!(err.error, HeraError::Io(_)));
        assert_eq!(clock.sleeps().len(), 2, "no sleep after the last attempt");
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        let p = BackoffPolicy::checkpoint_default();
        let clock = ManualClock::new();
        let mut calls = 0u32;
        let err = retry::<()>(
            &p,
            &clock,
            |_| {
                calls += 1;
                Err(HeraError::Corrupt("bad crc".into()))
            },
            io_retryable,
        )
        .unwrap_err();
        assert_eq!(calls, 1, "integrity errors are not retried");
        assert_eq!(err.attempts, 1);
        assert!(clock.sleeps().is_empty());
    }

    #[test]
    fn none_policy_is_single_attempt() {
        let clock = ManualClock::new();
        let err = retry::<()>(
            &BackoffPolicy::none(),
            &clock,
            |_| Err(HeraError::Io("x".into())),
            io_retryable,
        )
        .unwrap_err();
        assert_eq!(err.attempts, 1);
    }

    #[test]
    fn injected_error_is_labelled() {
        let e = FaultInjector::error(points::STORE_WRITE_SYNC, "snap.hera");
        let msg = e.to_string();
        assert!(msg.contains("injected fault"), "{msg}");
        assert!(msg.contains(points::STORE_WRITE_SYNC), "{msg}");
    }
}
