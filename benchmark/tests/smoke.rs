//! Drives the built binary the way `run.sh` does, at `--smoke` size,
//! and reads back what it prints.

use hera::types::json::{parse, Json};
use std::process::{Command, Output};

fn ledger(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hera-ledger"))
        .args(args)
        .output()
        .expect("start hera-ledger")
}

fn names(json: &Json, key: &str) -> Vec<String> {
    let listed = json.expect(key).unwrap().as_arr().unwrap();
    let name = |m: &Json| m.expect("name").unwrap().as_str().unwrap().to_string();
    listed.iter().map(name).collect()
}

fn keys(json: &Json) -> Vec<String> {
    let Json::Obj(pairs) = json else {
        panic!("not an object: {json:?}")
    };
    pairs.iter().map(|(k, _)| k.clone()).collect()
}

/// One workload, both trace modes: the last line is the contract's
/// result object, with exactly the metrics `BENCHMARK.json` promises.
#[test]
fn a_run_ends_with_the_contract_line() {
    let contract = parse(include_str!("../../BENCHMARK.json")).unwrap();
    for (trace, listed) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = ledger(&[
            "--workload",
            "scale_allpairs",
            "--seed",
            "7",
            "--smoke",
            "--trace",
            trace,
        ]);
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let result = parse(stdout.lines().last().unwrap()).unwrap();
        assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.expect("correct").unwrap(), &Json::Bool(true));
        assert!(result.expect("attempted").unwrap().as_i64().unwrap() >= 1);
        assert_eq!(result.expect("failed").unwrap().as_i64().unwrap(), 0);
        let metrics = result.expect("metrics").unwrap();
        assert_eq!(keys(metrics), names(&contract, listed));
        if trace == "0" {
            for name in keys(metrics) {
                let value = metrics.expect(&name).unwrap().expect("value").unwrap();
                assert!(value.as_f64().unwrap() > 0.0, "{name} must never read 0");
            }
        }
        assert!(
            stdout.contains("scale_allpairs f1 "),
            "metrics are printed by name"
        );
    }
}

#[test]
fn an_unknown_workload_prints_no_result() {
    let out = ledger(&["--workload", "nope", "--smoke", "--trace", "0"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

/// The whole `--smoke` run set: eight runs in one envelope, nothing
/// failed, and the set compared with itself is within every bound.
#[test]
fn a_smoke_run_set_compares_clean_against_itself() {
    let out = ledger(&["--smoke"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let path = stdout
        .lines()
        .find_map(|l| l.strip_prefix("run set written to "))
        .expect("the run set's path is printed");
    let envelope = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let runs = envelope.expect("runs").unwrap().as_arr().unwrap();
    assert_eq!(runs.len(), 8);
    for run in runs {
        assert_eq!(run.expect("ops_failed").unwrap().as_i64().unwrap(), 0);
        for key in ["host_cpus", "num_threads", "seed", "reps", "records"] {
            assert!(run.expect(key).unwrap().as_i64().unwrap() >= 1, "{key}");
        }
    }
    for key in ["commit", "rustc"] {
        assert!(!envelope.expect(key).unwrap().as_str().unwrap().is_empty());
    }

    let out = ledger(&["compare", path, path]);
    assert!(out.status.success(), "{out:?}");
    let table = String::from_utf8(out.stdout).unwrap();
    let verdicts = table
        .lines()
        .filter(|l| l.ends_with("within_bound"))
        .count();
    // 3 shared metrics + f1 on each workload, 8 served-only ones once.
    assert_eq!(verdicts, 4 * 4 + 8, "{table}");
    assert!(!table.contains("regressed") && !table.contains("unresolved"));
    assert_eq!(table.matches("partitions identical").count(), 4, "{table}");
    std::fs::remove_file(path).unwrap();
}
