//! Integration tests reproducing the paper's worked examples end-to-end:
//! the Fig. 1 motivating scenario, Example 2's merge, Example 3's
//! similarity, Example 4's bounds, and the Fig. 8 two-iteration trace.

use hera::{
    motivating_example, BoundMode, Hera, HeraConfig, InstanceVerifier, JoinConfig, Label,
    PairMetrics, SimilarityJoin, SuperRecord, TypeDispatch, ValuePairIndex,
};

/// Fig. 8: with ξ = δ = 0.5, HERA needs two rounds — first the
/// same-source-ish merges, then the super-record merge that resolves the
/// description-difference pair (r1, r2).
#[test]
fn fig8_overall_walkthrough() {
    let ds = motivating_example();
    let result = Hera::builder(HeraConfig::paper_example())
        .build()
        .run(&ds)
        .unwrap();

    // Final entities: {r1, r2, r4, r6} and {r3, r5} (1-based).
    assert_eq!(result.entity_count(), 2);
    let metrics = PairMetrics::score(&result.clusters(), &ds.truth);
    assert_eq!(metrics.f1(), 1.0, "{metrics}");

    // The description-difference pair resolved only via super records:
    // the run must have taken more than one iteration.
    assert!(result.stats.iterations >= 2);
    // Four merges fold six records into two entities.
    assert_eq!(result.stats.merges, 4);
}

/// Example 2 / Fig. 2: merging r1 and r6 produces the super record with
/// deduped name and both Con.Type variants.
#[test]
fn example2_super_record_merge() {
    let ds = motivating_example();
    let mut r1 = SuperRecord::from_record(&ds, ds.record(hera::RecordId::new(0)));
    let r6 = SuperRecord::from_record(&ds, ds.record(hera::RecordId::new(5)));
    r1.absorb(r6, &[(0, 0), (1, 1), (2, 2), (4, 4)]);
    assert_eq!(r1.size(), 6);
    assert_eq!(r1.field(4).values.len(), 2); // Electronic + electronics
    assert_eq!(r1.field(0).values.len(), 1); // John deduped
}

/// Example 3: Sim(R1, R2) for R1 = r1⊕r6, R2 = r2⊕r4 lands near the
/// paper's 0.56 (0.574 under our folded-gram convention; the delta is the
/// paper's own case-sensitivity inconsistency, see hera-sim docs).
#[test]
fn example3_record_similarity() {
    let ds = motivating_example();
    let metric = TypeDispatch::paper_default();
    let mut supers: Vec<SuperRecord> = ds
        .iter()
        .map(|r| SuperRecord::from_record(&ds, r))
        .collect();

    let r6 = supers[5].clone();
    supers[0].absorb(r6, &[(0, 0), (1, 1), (2, 2), (4, 4)]);
    let r4 = supers[3].clone();
    supers[1].absorb(r4, &[(0, 0), (1, 3)]);
    let (remap16, remap24) = {
        // Recompute remaps on fresh copies for the index (absorb above
        // already mutated; rebuild cleanly).
        let mut a = SuperRecord::from_record(&ds, ds.record(hera::RecordId::new(0)));
        let b = SuperRecord::from_record(&ds, ds.record(hera::RecordId::new(5)));
        let ra = a.absorb(b, &[(0, 0), (1, 1), (2, 2), (4, 4)]);
        let mut c = SuperRecord::from_record(&ds, ds.record(hera::RecordId::new(1)));
        let d = SuperRecord::from_record(&ds, ds.record(hera::RecordId::new(3)));
        let rc = c.absorb(d, &[(0, 0), (1, 3)]);
        (ra, rc)
    };

    let pairs = SimilarityJoin::new(JoinConfig::new(0.35), &metric).join_dataset(&ds);
    let mut index = ValuePairIndex::build(pairs);
    index.merge(0, 5, 0, |l: Label| remap16.apply(l));
    index.merge(1, 3, 1, |l: Label| remap24.apply(l));

    let verifier = InstanceVerifier::new(&metric, 0.35, true);
    let v = verifier.verify(&index, &supers[0], &supers[1], &ds.registry, None);
    assert!((v.sim - 0.574).abs() < 0.01, "Sim(R1,R2) = {}", v.sim);
    assert_eq!(v.matching.len(), 4);
}

/// Example 4: the (r4, r6) pair has no multiple field, so its bounds
/// pinch at (1 + 1 + 0.9) / 5 = 0.58 and the pair is decided directly.
#[test]
fn example4_bounds_pinch() {
    let ds = motivating_example();
    let metric = TypeDispatch::paper_default();
    let pairs = SimilarityJoin::new(JoinConfig::new(0.5), &metric).join_dataset(&ds);
    let index = ValuePairIndex::build(pairs);
    for mode in [BoundMode::Paper, BoundMode::Sound] {
        let b = index.bounds(3, 5, 5, 5, mode);
        assert!(b.is_exact(), "{mode:?}: up {} low {}", b.up, b.low);
        assert!((b.up - 2.9 / 5.0).abs() < 0.02, "{mode:?}: up {}", b.up);
    }
}

/// The schema matchings HERA reports must be consistent with
/// ground-truth attribute identity. At the paper's voter gate (prior 0.8,
/// ρ = 0.6, at least three votes) the motivating example's four merges
/// decide none, so none can be false; `tests/pipeline.rs`
/// (`schema_matchings_are_accurate`) and `tests/domains.rs` check
/// truthfulness on datasets that decide dozens.
#[test]
fn discovered_matchings_are_truthful() {
    let ds = motivating_example();
    let result = Hera::builder(HeraConfig::paper_example())
        .build()
        .run(&ds)
        .unwrap();
    assert_eq!(result.entity_count(), 2);
    let decided: Vec<String> = result
        .schema_matchings
        .iter()
        .map(|m| {
            format!(
                "{} ≈ {}",
                ds.registry.attr_qualified_name(m.attr),
                ds.registry.attr_qualified_name(m.partner)
            )
        })
        .collect();
    assert!(decided.is_empty(), "the toy example decided {decided:?}");
}

/// The paper's false-positive example: r7 and r8 (the exchanged versions
/// of {r2⊕r4} and {r3⊕r5}) look alike under the target schema, but HERA
/// on the heterogeneous data keeps them apart.
#[test]
fn false_positive_pair_kept_apart() {
    let ds = motivating_example();
    let result = Hera::builder(HeraConfig::paper_example())
        .build()
        .run(&ds)
        .unwrap();
    // r2/r4 (0-based 1, 3) vs r3/r5 (0-based 2, 4) stay separate.
    assert!(!result.same_entity(1, 2));
    assert!(!result.same_entity(3, 4));
}
