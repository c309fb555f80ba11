//! The binary, driven end to end on one small generated dataset: a
//! checkpoint restored and resumed, and streaming runs under fault plans,
//! each label every record as the uninterrupted streaming run does.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `hera-cli args…` and returns its stderr; fails the test unless
/// it exits 0.
fn hera(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hera-cli"))
        .args(args)
        .output()
        .expect("hera-cli starts");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "hera-cli {args:?} failed:\n{stderr}");
    stderr
}

/// An empty directory of the test's own.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(dir: &Path, file: &str) -> String {
    dir.join(file).to_str().expect("a UTF-8 path").to_owned()
}

/// Generates 400 records into `dir` and streams them uninterrupted:
/// returns the dataset's path and the run's labels CSV.
fn dataset_and_reference(dir: &Path) -> (String, String) {
    let ds = path(dir, "ds.json");
    hera(&["generate", "--size", "400", "--seed", "51", "--out", &ds]);
    let labels = path(dir, "reference.csv");
    hera(&[
        "resolve",
        "--input",
        &ds,
        "--streaming",
        "--labels",
        &labels,
    ]);
    let reference = fs::read_to_string(&labels).unwrap();
    assert_eq!(
        reference.lines().count(),
        401,
        "a header and a line per record"
    );
    (ds, reference)
}

/// A streaming run of `ds` checkpointing every 50 records under the fault
/// plan at `plan`: its labels CSV and its stderr.
fn faulted_run(dir: &Path, ds: &str, plan: &str) -> (String, String) {
    let labels = path(dir, "faulted.csv");
    let stderr = hera(&[
        "resolve",
        "--input",
        ds,
        "--streaming",
        "--checkpoint",
        &path(dir, "run.hera"),
        "--checkpoint-every",
        "50",
        "--fault-plan",
        plan,
        "--labels",
        &labels,
    ]);
    (fs::read_to_string(&labels).unwrap(), stderr)
}

/// CI step "Checkpoint/restore smoke": `checkpoint --upto k`, then
/// `restore-resolve`, labels every record as `resolve --streaming` does.
#[test]
fn restore_resolve_continues_a_checkpoint_exactly() {
    let dir = scratch("restore_resolve");
    let (ds, reference) = dataset_and_reference(&dir);
    let snapshot = path(&dir, "half.hera");
    hera(&[
        "checkpoint",
        "--input",
        &ds,
        "--upto",
        "200",
        "--out",
        &snapshot,
    ]);
    let labels = path(&dir, "continued.csv");
    let stderr = hera(&[
        "restore-resolve",
        "--snapshot",
        &snapshot,
        "--input",
        &ds,
        "--labels",
        &labels,
    ]);
    assert!(stderr.contains("at record 200"), "{stderr}");
    assert_eq!(fs::read_to_string(&labels).unwrap(), reference);
}

/// The plan `faults gen --seed 42` prints fails snapshot writes and
/// reads; a streaming run under it still exits 0 with the fault-free
/// labels.
#[test]
fn streaming_under_a_generated_fault_plan_keeps_its_labels() {
    let dir = scratch("generated_plan");
    let (ds, reference) = dataset_and_reference(&dir);
    let plan = path(&dir, "plan.json");
    hera(&["faults", "gen", "--seed", "42", "--out", &plan]);
    let (labels, stderr) = faulted_run(&dir, &ds, &plan);
    assert!(stderr.contains("seed 42"), "{stderr}");
    assert_eq!(labels, reference);
}

/// A checkpoint whose write fails on every retry is absorbed: one
/// warning, the run goes on from memory, and the labels are the
/// fault-free ones.
#[test]
fn streaming_absorbs_a_checkpoint_that_outlasts_its_retries() {
    let dir = scratch("absorbed_checkpoint");
    let (ds, reference) = dataset_and_reference(&dir);
    let plan = path(&dir, "plan.json");
    let rule = r#"{"point":"store.write.create","hits":[1,2,3],"kind":"error"}"#;
    fs::write(&plan, format!(r#"{{"seed":0,"rules":[{rule}]}}"#)).unwrap();
    let (labels, stderr) = faulted_run(&dir, &ds, &plan);
    let warnings = stderr.lines().filter(|l| l.starts_with("warning:")).count();
    assert_eq!(warnings, 1, "{stderr}");
    assert_eq!(labels, reference);
}
