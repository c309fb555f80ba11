//! API-contract coverage for the batch driver's pair-injection entry
//! point: `run_with_pairs` must reject every malformed pair shape with
//! the documented typed error — never a panic and never a silently
//! wrong result.

use hera::{motivating_example, Hera, HeraConfig, HeraError, Label};

fn pair(a: u32, b: u32) -> hera::join::ValuePair {
    hera::join::ValuePair {
        a: Label::new(a, 0, 0),
        b: Label::new(b, 0, 0),
        sim: 1.0,
    }
}

#[test]
fn run_with_pairs_accepts_empty_pairs() {
    let ds = motivating_example();
    let hera = Hera::builder(HeraConfig::paper_example()).build();
    let result = hera.run_with_pairs(&ds, Vec::new()).unwrap();
    // No evidence, no merges: every record is its own entity.
    assert_eq!(result.entity_count(), ds.len());
}

#[test]
fn run_with_pairs_unknown_id_matrix() {
    let ds = motivating_example();
    let n = ds.len() as u32;
    let hera = Hera::builder(HeraConfig::paper_example()).build();
    // First out-of-range rid (a or b), exactly at the boundary and past it.
    for bad in [pair(0, n), pair(0, n + 7), pair(n, n + 1)] {
        let err = hera.run_with_pairs(&ds, vec![bad]).unwrap_err();
        assert!(
            matches!(err, HeraError::UnknownId(_)),
            "expected UnknownId, got {err}"
        );
    }
    // The check runs before normalization: a pair that is both
    // out-of-range and unnormalized reports UnknownId.
    let err = hera.run_with_pairs(&ds, vec![pair(n + 1, 0)]).unwrap_err();
    assert!(matches!(err, HeraError::UnknownId(_)), "got {err}");
}

#[test]
fn run_with_pairs_invalid_config_matrix() {
    let ds = motivating_example();
    let hera = Hera::builder(HeraConfig::paper_example()).build();
    // Self-pairs and reversed pairs are both "not rid-normalized".
    for bad in [pair(0, 0), pair(2, 2), pair(3, 1), pair(1, 0)] {
        let err = hera.run_with_pairs(&ds, vec![bad]).unwrap_err();
        assert!(
            matches!(err, HeraError::InvalidConfig(_)),
            "expected InvalidConfig, got {err}"
        );
    }
    // One bad pair poisons the batch even when valid pairs surround it.
    let err = hera
        .run_with_pairs(&ds, vec![pair(0, 1), pair(2, 2), pair(1, 3)])
        .unwrap_err();
    assert!(matches!(err, HeraError::InvalidConfig(_)), "got {err}");
}

#[test]
fn run_with_pairs_roundtrips_its_own_join() {
    let ds = motivating_example();
    let hera = Hera::builder(HeraConfig::paper_example()).build();
    let pairs = hera.join(&ds);
    let split = hera.run_with_pairs(&ds, pairs).unwrap();
    let whole = hera.run(&ds).unwrap();
    assert_eq!(split.entity_of, whole.entity_of);
}
