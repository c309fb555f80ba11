//! `compare A.json B.json`: one row per workload and bounded metric,
//! with both values, their ratio, the bound and a verdict.

use crate::metrics;
use crate::stats::{verdict, Bound, Verdict};
use hera::types::json::{parse, Json};
use std::process::ExitCode;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn runs_of<'j>(set: &'j Json, workload: &str) -> Vec<&'j Json> {
    let named = |r: &&Json| r.get("workload").and_then(|w| w.as_str().ok()) == Some(workload);
    set.get("runs")
        .and_then(|r| r.as_arr().ok())
        .map_or(Vec::new(), |runs| runs.iter().filter(named).collect())
}

/// A metric's value and spread: from the untraced run where it was
/// measured there, else from the traced one.
fn measured(runs: &[&Json], metric: &str) -> Option<(f64, f64)> {
    let mut ordered: Vec<&&Json> = runs.iter().collect();
    ordered.sort_by_key(|r| matches!(r.get("traced"), Some(Json::Bool(true))));
    ordered.iter().find_map(|r| {
        let m = r.get("metrics")?.get(metric)?;
        Some((
            m.get("value")?.as_f64().ok()?,
            m.get("spread")?.as_f64().ok()?,
        ))
    })
}

fn ops(runs: &[&Json], key: &str) -> i64 {
    runs.iter().filter_map(|r| r.get(key)?.as_i64().ok()).sum()
}

pub fn run(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("# base A = {a_path}\n# new  B = {b_path}");
    println!("workload metric A B B/A bound verdict");
    let mut regressed = 0;
    for workload in metrics::WORKLOADS {
        let (runs_a, runs_b) = (runs_of(&a, workload), runs_of(&b, workload));
        for def in metrics::bounded_metrics() {
            let (Some((va, sa)), Some((vb, sb))) =
                (measured(&runs_a, def.name), measured(&runs_b, def.name))
            else {
                continue;
            };
            let bound = def.bound.expect("bounded_metrics() yields bounded metrics");
            let v = verdict(va, vb, sa.max(sb), def.better, bound);
            regressed += usize::from(v == Verdict::Regressed);
            let bound = match bound {
                Bound::Rel(b) => format!("{}%", b * 100.0),
                Bound::Abs(b) => format!("{b}abs"),
            };
            println!(
                "{workload} {} {va} {vb} {:.4} {bound} {}",
                def.name,
                vb / va,
                v.name()
            );
        }
        let digests = |runs: &[&Json]| -> Vec<String> {
            let digest = |r: &&Json| Some(r.get("partition_digest")?.as_str().ok()?.to_string());
            runs.iter().filter_map(digest).collect()
        };
        let same = digests(&runs_a) == digests(&runs_b);
        println!(
            "{workload} partitions {}",
            if same { "identical" } else { "different" }
        );
        for (side, runs) in [("A", &runs_a), ("B", &runs_b)] {
            let (failed, attempted) = (ops(runs, "ops_failed"), ops(runs, "ops_attempted"));
            println!(
                "{workload} failed_ops_share_{side} {failed}/{attempted} = {:.6}",
                failed as f64 / attempted.max(1) as f64
            );
        }
    }
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("hera-ledger: {regressed} metric(s) regressed");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_values_win_over_traced_ones() {
        let set = parse(
            r#"{"runs":[
              {"workload":"w","traced":true,"metrics":{"f1":{"value":0.5,"spread":0.0},"restore_s":{"value":3.0,"spread":0.1}}},
              {"workload":"w","traced":false,"metrics":{"f1":{"value":0.7,"spread":0.0}}},
              {"workload":"x","traced":false,"metrics":{"f1":{"value":0.9,"spread":0.0}}}]}"#,
        )
        .unwrap();
        let runs = runs_of(&set, "w");
        assert_eq!(runs.len(), 2);
        assert_eq!(measured(&runs, "f1"), Some((0.7, 0.0)));
        assert_eq!(measured(&runs, "restore_s"), Some((3.0, 0.1)));
        assert_eq!(measured(&runs, "setup_s"), None);
    }
}
