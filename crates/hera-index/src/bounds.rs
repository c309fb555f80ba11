//! Record-similarity bounds from the value-pair index (Algorithm 1).

use hera_join::ValuePair;
use rustc_hash::FxHashMap;

/// One *similar field pair* of the refined field set `𝒱′ᵢⱼ`: the field
/// pair's similarity is the max over its value pairs (Definition 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldPairSim {
    /// Field index in the left record `Rᵢ`.
    pub left_fid: u32,
    /// Field index in the right record `Rⱼ`.
    pub right_fid: u32,
    /// Field similarity `simf`.
    pub sim: f64,
}

/// Which bound derivation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundMode {
    /// Verbatim Algorithm 1: *multiple fields* are resolved on the `Rᵢ`
    /// side only; the upper set keeps the max-similarity pair per left
    /// field, the lower set the min. Fast, but the "lower bound" is not
    /// sound when right-side fields are contested (see DESIGN.md), so an
    /// `up == low` short-circuit can mis-estimate `Sim`.
    Paper,
    /// Sound bounds (the default): upper = min(Σ per-left-field max,
    /// Σ per-right-field max) — both dominate any one-to-one matching —
    /// and lower = weight of the greedy maximal matching, which is a
    /// feasible matching. `up == low` then *guarantees* `Sim` exactly.
    #[default]
    Sound,
}

/// Upper and lower bounds of `Sim(Rᵢ, Rⱼ)` (Equations 3–4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// `Up(Rᵢ, Rⱼ)`.
    pub up: f64,
    /// `Low(Rᵢ, Rⱼ)`.
    pub low: f64,
}

impl Bounds {
    /// True when the bounds pinch: the record similarity is decided
    /// without verification (`Up = Low` case of §III-B1).
    pub fn is_exact(&self) -> bool {
        (self.up - self.low).abs() < 1e-9
    }
}

/// The buffers one bounds computation fills — the refined field set and
/// the sound derivation's four field lists — so a loop that classifies
/// many groups allocates them once, not per group.
#[derive(Debug, Default)]
pub struct BoundsScratch {
    refined: Vec<FieldPairSim>,
    /// Left/right fields already counted into the upper sums.
    seen_l: Vec<u32>,
    seen_r: Vec<u32>,
    /// Left/right fields already taken by the greedy matching.
    used_l: Vec<u32>,
    used_r: Vec<u32>,
}

/// Algorithm 1 for one index group: refine it, then bound `Sim` from the
/// refined set. `size_i`/`size_j` are the sizes of the group's left and
/// right records.
pub(crate) fn group_bounds(
    group: &[ValuePair],
    size_i: usize,
    size_j: usize,
    mode: BoundMode,
    scratch: &mut BoundsScratch,
) -> Bounds {
    refined_field_set_into(group, &mut scratch.refined);
    compute_bounds(size_i, size_j, mode, scratch)
}

/// Reduces a `(rid₁, rid₂)` index group to the refined field set `𝒱′ᵢⱼ`:
/// for each field pair, only the value pair with maximum similarity
/// survives (Algorithm 1 lines 6–8). `out` is cleared and refilled, so a
/// reused buffer makes the hottest candidate-generation loop
/// allocation-free.
///
/// `group` must be sorted by similarity descending (the index order), so
/// the first occurrence of each `(fid, fid)` key is its maximum; the
/// output preserves that descending order.
pub(crate) fn refined_field_set_into(group: &[ValuePair], out: &mut Vec<FieldPairSim>) {
    out.clear();
    // Hybrid dedupe: linear scan for the common small groups (index groups
    // typically hold a handful of entries — this is the hottest loop of
    // candidate generation), hash set beyond that.
    if group.len() <= 64 {
        for p in group {
            debug_assert!(p.a.rid < p.b.rid, "group entries must be normalized");
            if !out
                .iter()
                .any(|q| q.left_fid == p.a.fid && q.right_fid == p.b.fid)
            {
                out.push(FieldPairSim {
                    left_fid: p.a.fid,
                    right_fid: p.b.fid,
                    sim: p.sim,
                });
            }
        }
    } else {
        let mut seen: FxHashMap<(u32, u32), ()> = FxHashMap::default();
        for p in group {
            debug_assert!(p.a.rid < p.b.rid, "group entries must be normalized");
            if seen.insert((p.a.fid, p.b.fid), ()).is_none() {
                out.push(FieldPairSim {
                    left_fid: p.a.fid,
                    right_fid: p.b.fid,
                    sim: p.sim,
                });
            }
        }
    }
    debug_assert!(
        out.windows(2).all(|w| w[0].sim >= w[1].sim - 1e-12),
        "refined set must stay similarity-descending"
    );
}

/// Computes `Up` / `Low` from the refined field set in `scratch` and the
/// two record sizes (field counts `|Rᵢ|`, `|Rⱼ|`).
fn compute_bounds(
    size_i: usize,
    size_j: usize,
    mode: BoundMode,
    scratch: &mut BoundsScratch,
) -> Bounds {
    let BoundsScratch {
        refined,
        seen_l,
        seen_r,
        used_l,
        used_r,
    } = scratch;
    let denom = size_i.min(size_j).max(1) as f64;
    match mode {
        BoundMode::Paper => {
            // Upper set: max-sim pair per left field; lower set: min-sim
            // pair per left field. `refined` is sim-descending, so first
            // hit = max, last hit = min.
            let mut max_of: FxHashMap<u32, f64> = FxHashMap::default();
            let mut min_of: FxHashMap<u32, f64> = FxHashMap::default();
            for p in refined.iter() {
                max_of.entry(p.left_fid).or_insert(p.sim);
                min_of.insert(p.left_fid, p.sim);
            }
            let up: f64 = max_of.values().sum();
            let low: f64 = min_of.values().sum();
            Bounds {
                up: up / denom,
                low: low / denom,
            }
        }
        BoundMode::Sound => {
            // Single pass over reused lists. `refined` is sim-descending,
            // so the *first* occurrence of a fid is its per-field max, and
            // greedily taking conflict-free pairs in this order is a valid
            // maximal matching (the sound lower bound).
            for list in [&mut *seen_l, &mut *seen_r, &mut *used_l, &mut *used_r] {
                list.clear();
            }
            let (mut up_left, mut up_right, mut low) = (0.0f64, 0.0f64, 0.0f64);
            for p in refined.iter() {
                if !seen_l.contains(&p.left_fid) {
                    seen_l.push(p.left_fid);
                    up_left += p.sim;
                }
                if !seen_r.contains(&p.right_fid) {
                    seen_r.push(p.right_fid);
                    up_right += p.sim;
                }
                if p.sim > 0.0 && !used_l.contains(&p.left_fid) && !used_r.contains(&p.right_fid) {
                    used_l.push(p.left_fid);
                    used_r.push(p.right_fid);
                    low += p.sim;
                }
            }
            Bounds {
                up: up_left.min(up_right) / denom,
                low: low / denom,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_types::Label;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn vp(r1: u32, f1: u32, r2: u32, f2: u32, sim: f64) -> ValuePair {
        ValuePair {
            a: Label::new(r1, f1, 0),
            b: Label::new(r2, f2, 0),
            sim,
        }
    }

    fn refined_field_set(group: &[ValuePair]) -> Vec<FieldPairSim> {
        let mut out = Vec::new();
        refined_field_set_into(group, &mut out);
        out
    }

    fn compute_bounds(refined: &[FieldPairSim], i: usize, j: usize, mode: BoundMode) -> Bounds {
        let mut scratch = BoundsScratch {
            refined: refined.to_vec(),
            ..BoundsScratch::default()
        };
        super::compute_bounds(i, j, mode, &mut scratch)
    }

    #[test]
    fn refined_keeps_max_per_field_pair() {
        // Two value pairs for field pair (5,5): 1.0 and 0.8.
        let group = vec![
            vp(1, 5, 2, 5, 1.0),
            vp(1, 3, 2, 2, 0.9),
            vp(1, 5, 2, 5, 0.8),
        ];
        let refined = refined_field_set(&group);
        assert_eq!(refined.len(), 2);
        assert_eq!(refined[0].sim, 1.0);
        assert_eq!(refined[1].sim, 0.9);
    }

    #[test]
    fn paper_example_bounds() {
        // §III-B1 example: R1=r1⊕r6 (6 fields), R2=r2⊕r4 (6 fields),
        // refined pairs: (f2,f4,0.37), (f3,f1,0.33), (f3,f2,1.0),
        // (f4,f3,1.0), (f5,f5,1.0). f3 is the only multiple field.
        let group = vec![
            vp(1, 3, 2, 2, 1.0),
            vp(1, 4, 2, 3, 1.0),
            vp(1, 5, 2, 5, 1.0),
            vp(1, 2, 2, 4, 0.37),
            vp(1, 3, 2, 1, 0.33),
        ];
        let refined = refined_field_set(&group);
        let b = compute_bounds(&refined, 6, 6, BoundMode::Paper);
        // Up = (0.37+1+1+1)/6 = 0.561..., Low = (0.37+0.33+1+1)/6 = 0.45
        assert!((b.up - 3.37 / 6.0).abs() < 1e-9, "up {}", b.up);
        assert!((b.low - 2.70 / 6.0).abs() < 1e-9, "low {}", b.low);
        assert!(!b.is_exact());
        // Sound mode agrees here (right side uncontested):
        let s = compute_bounds(&refined, 6, 6, BoundMode::Sound);
        assert!((s.up - 3.37 / 6.0).abs() < 1e-9);
        // Greedy matching picks f3→f2 (1.0), leaving f3→f1 unmatched:
        // low = (1+1+1+0.37)/6 = up → exact!
        assert!((s.low - 3.37 / 6.0).abs() < 1e-9);
        assert!(s.is_exact());
    }

    #[test]
    fn example4_no_multiple_fields() {
        // (r4, r6): three uncontested pairs, sims 1, 1, 0.9; |r4|=|r6|=5.
        let group = vec![
            vp(4, 2, 6, 2, 1.0),
            vp(4, 3, 6, 3, 1.0),
            vp(4, 4, 6, 4, 0.9),
        ];
        let refined = refined_field_set(&group);
        for mode in [BoundMode::Paper, BoundMode::Sound] {
            let b = compute_bounds(&refined, 5, 5, mode);
            assert!((b.up - 2.9 / 5.0).abs() < 1e-9);
            assert!(b.is_exact(), "{mode:?}");
        }
    }

    #[test]
    fn paper_lower_bound_unsound_case() {
        // Two left fields contending for one right field: a matching can
        // take only one (best = 0.9), but the paper's lower set keeps both
        // pairs (min per LEFT field) → low = 1.7/2 > true Sim.
        let group = vec![vp(1, 0, 2, 0, 0.9), vp(1, 1, 2, 0, 0.8)];
        let refined = refined_field_set(&group);
        let paper = compute_bounds(&refined, 2, 2, BoundMode::Paper);
        assert!(paper.is_exact()); // claims exactness...
        assert!((paper.up - 1.7 / 2.0).abs() < 1e-9); // ...at the wrong value
        let sound = compute_bounds(&refined, 2, 2, BoundMode::Sound);
        assert!((sound.up - 0.9 / 2.0).abs() < 1e-9); // right-side cap
        assert!((sound.low - 0.9 / 2.0).abs() < 1e-9);
        assert!(sound.is_exact()); // exact at the *correct* value
    }

    #[test]
    fn refined_hybrid_paths_agree() {
        // Group larger than the 64-entry linear-scan cutoff must produce
        // the same refined set through the hash-based path as a small
        // group does through the linear path.
        let mut big: Vec<ValuePair> = Vec::new();
        for k in 0..90u32 {
            // 30 distinct field pairs, 3 value pairs each, sims desc.
            let fid = k % 30;
            let sim = 1.0 - (k / 30) as f64 * 0.1;
            big.push(vp(1, fid, 2, fid, sim));
        }
        big.sort_by(|a, b| b.sim.partial_cmp(&a.sim).unwrap());
        let refined_big = refined_field_set(&big);
        assert_eq!(refined_big.len(), 30);
        assert!(refined_big.iter().all(|p| (p.sim - 1.0).abs() < 1e-12));

        // The same logical content trimmed under the cutoff.
        let small: Vec<ValuePair> = big.iter().take(60).copied().collect();
        let refined_small = refined_field_set(&small);
        assert_eq!(refined_small.len(), 30);
        assert_eq!(refined_big, refined_small);
    }

    #[test]
    fn empty_group() {
        let b = compute_bounds(&[], 3, 4, BoundMode::Sound);
        assert_eq!(b.up, 0.0);
        assert_eq!(b.low, 0.0);
        assert!(b.is_exact());
    }

    /// Ground truth for a group over fields `0..4` on both sides: the
    /// maximum-weight matching of the refined field pairs, as the best of
    /// all 24 assignments of left fields to right fields, where a pair the
    /// refined set lacks weighs 0.
    fn best_assignment(refined: &[FieldPairSim]) -> f64 {
        let mut weight = [[0.0; 4]; 4];
        for p in refined {
            weight[p.left_fid as usize][p.right_fid as usize] = p.sim;
        }
        let mut best = 0.0f64;
        for code in 0..256usize {
            let right: [usize; 4] = std::array::from_fn(|left| code >> (2 * left) & 3);
            let used = right.iter().fold(0u8, |used, &r| used | 1 << r);
            if used == 0b1111 {
                best = best.max((0..4).map(|left| weight[left][right[left]]).sum());
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]
        /// Sound bounds must bracket the true maximum-matching similarity,
        /// and the paper's upper bound must dominate it too.
        #[test]
        fn sound_bounds_bracket_truth(seed in any::<u64>(), n in 0usize..10) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut group = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..n {
                let f1 = rng.gen_range(0..4u32);
                let f2 = rng.gen_range(0..4u32);
                if seen.insert((f1, f2)) {
                    group.push(vp(1, f1, 2, f2, rng.gen_range(1..=100) as f64 / 100.0));
                }
            }
            group.sort_by(|a, b| b.sim.partial_cmp(&a.sim).unwrap());
            let refined = refined_field_set(&group);
            let (si, sj) = (4usize, 4usize);

            let truth = best_assignment(&refined) / si.min(sj) as f64;

            let sound = compute_bounds(&refined, si, sj, BoundMode::Sound);
            prop_assert!(sound.up + 1e-9 >= truth, "up {} < truth {}", sound.up, truth);
            prop_assert!(sound.low <= truth + 1e-9, "low {} > truth {}", sound.low, truth);
            if sound.is_exact() {
                prop_assert!((sound.up - truth).abs() < 1e-9);
            }

            let paper = compute_bounds(&refined, si, sj, BoundMode::Paper);
            prop_assert!(paper.up + 1e-9 >= truth, "paper up unsound");
        }
    }
}
