//! The binary, driven end to end on one small generated dataset: a
//! checkpoint restored and resumed, and streaming runs under fault plans,
//! each label every record as the uninterrupted streaming run does; a
//! restore under another δ and a flag the subcommand does not read,
//! refused; and a closed stdout, taken as the end of the output.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `hera-cli args…` and returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hera-cli"))
        .args(args)
        .output()
        .expect("hera-cli starts");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

/// Runs `hera-cli args…` and returns its stderr; fails the test unless
/// it exits 0.
fn hera(args: &[&str]) -> String {
    let (code, stderr) = run(args);
    assert_eq!(code, Some(0), "hera-cli {args:?} failed:\n{stderr}");
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

/// A snapshot taken at the default δ refuses a continuation under
/// another: `restore-resolve --delta 0.9` exits 1 naming δ, and writes
/// no labels.
#[test]
fn restore_resolve_refuses_another_delta() {
    let dir = scratch("restore_resolve_delta");
    let (ds, _) = dataset_and_reference(&dir);
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
    let labels = path(&dir, "skewed.csv");
    let (code, stderr) = run(&[
        "restore-resolve",
        "--snapshot",
        &snapshot,
        "--input",
        &ds,
        "--delta",
        "0.9",
        "--labels",
        &labels,
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("delta=0.9"), "{stderr}");
    assert!(
        !Path::new(&labels).exists(),
        "the refused run wrote {labels}"
    );
}

/// `restore-resolve --checkpoint FILE` without `--budget` snapshots the
/// continued session, and a restore from that snapshot labels every
/// record as the uninterrupted run does.
#[test]
fn restore_resolve_checkpoints_its_continuation() {
    let dir = scratch("restore_resolve_checkpoint");
    let (ds, reference) = dataset_and_reference(&dir);
    let half = path(&dir, "half.hera");
    hera(&[
        "checkpoint",
        "--input",
        &ds,
        "--upto",
        "200",
        "--out",
        &half,
    ]);
    let whole = path(&dir, "whole.hera");
    let stderr = hera(&[
        "restore-resolve",
        "--snapshot",
        &half,
        "--input",
        &ds,
        "--checkpoint",
        &whole,
    ]);
    assert!(stderr.contains("checkpoint written to"), "{stderr}");
    assert!(Path::new(&whole).exists(), "no snapshot at {whole}");
    let labels = path(&dir, "from_whole.csv");
    let stderr = hera(&[
        "restore-resolve",
        "--snapshot",
        &whole,
        "--input",
        &ds,
        "--labels",
        &labels,
    ]);
    assert!(stderr.contains("at record 400"), "{stderr}");
    assert_eq!(fs::read_to_string(&labels).unwrap(), reference);
}

/// A flag the subcommand does not read is an error naming it, with exit
/// code 1, and nothing runs; the same command spelled right runs.
#[test]
fn a_mistyped_flag_is_refused() {
    let dir = scratch("mistyped_flag");
    let (ds, _) = dataset_and_reference(&dir);
    let snapshot = path(&dir, "run.hera");
    let mut args = vec!["resolve", "--input", &ds, "--streaming"];
    args.extend(["--checkpoint", &snapshot, "--checkpoint-evry", "100"]);
    let (code, stderr) = run(&args);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("--checkpoint-evry"), "{stderr}");
    assert!(
        !Path::new(&snapshot).exists(),
        "the refused run wrote {snapshot}"
    );
    let typo = args.len() - 2;
    args[typo] = "--checkpoint-every";
    hera(&args);
    assert!(Path::new(&snapshot).exists(), "no snapshot at {snapshot}");
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

/// A reader that closes stdout after a few bytes ends the run: no panic,
/// no backtrace, and the exit status a closed pipe gives a filter
/// (128 + SIGPIPE), not the 101 of a panic.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    use std::io::Read;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_hera-cli"))
        .args(["generate", "--preset", "dm1", "--seed", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("hera-cli starts");
    let mut head = [0u8; 10];
    let mut stdout = child.stdout.take().expect("stdout is piped");
    stdout.read_exact(&mut head).unwrap();
    assert_eq!(&head[..1], b"{", "the dataset's JSON starts");
    // The JSON is far larger than a pipe's buffer, so the writer is
    // still writing when the read end closes here.
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(141), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("Broken pipe"), "{stderr}");
}
