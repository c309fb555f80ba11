//! HERA's ledger: four workloads through the public `hera` facade,
//! end-to-end metrics with the recorder disabled, per-crate metrics from
//! a traced pass that times the calls into each crate from outside.
//!
//! ```text
//! hera-ledger --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! hera-ledger --rep K --workload W --seed N --trace 0|1 [--smoke]   # one rep, started by a run
//! hera-ledger [--smoke] [--seconds S] [--seed N]      # the whole run set
//! hera-ledger compare A.json B.json
//! ```

mod compare;
mod host;
mod ledger;
mod metrics;
mod stats;
mod workloads;

use hera::types::json::Json;
use metrics::MetricDef;
use std::process::ExitCode;
use workloads::{RunArgs, RunReport};

/// Where run sets and scratch files go; ignored by git.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Measured seconds of one run unless `--seconds` says otherwise; the
/// same number `BENCHMARK.json` gives as `run_seconds`.
const RUN_SECONDS: u64 = 30;

/// Flags of all run modes. A flag given twice keeps its last value.
struct Flags {
    /// Set in a rep child: its position in the parent's run.
    rep: Option<usize>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parsed<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot read {value:?}"))
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        rep: None,
        workload: None,
        seed: None,
        seconds: RUN_SECONDS as f64,
        traced: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--rep" => flags.rep = Some(parsed(flag, value()?)?),
            "--seed" => flags.seed = Some(parsed(flag, value()?)?),
            "--seconds" => flags.seconds = parsed(flag, value()?)?,
            "--trace" => flags.traced = parsed::<u8>(flag, value()?)? != 0,
            "--smoke" => flags.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(flags)
}

fn metric_json(def: &MetricDef, report: &RunReport) -> (String, Json) {
    let value = report
        .value(def.name)
        .filter(|v| v.is_finite())
        .unwrap_or(0.0);
    (
        def.name.to_string(),
        Json::Obj(vec![
            ("value".into(), Json::Float(value)),
            ("unit".into(), Json::Str(def.unit.into())),
        ]),
    )
}

/// The benchmark contract's result object: exactly `correct`,
/// `attempted`, `failed` and `metrics` — the end-to-end set of an
/// untraced run, the per-layer set of a traced one.
fn contract_line(report: &RunReport, traced: bool) -> Json {
    let defs: Vec<&MetricDef> = if traced {
        metrics::traced_metrics().collect()
    } else {
        metrics::COMMON_E2E.iter().collect()
    };
    let metrics = defs.into_iter().map(|d| metric_json(d, report)).collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(report.failed == 0)),
        (
            "attempted".into(),
            Json::Int(report.attempted.max(1) as i64),
        ),
        ("failed".into(), Json::Int(report.failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// Everything one run measured, with the facts a result row carries:
/// one entry of a run set's envelope.
fn detail(args: &RunArgs, report: &RunReport) -> Json {
    let metrics = report
        .metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            (
                m.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Float(m.value)),
                    ("unit".into(), Json::Str(metrics::unit(m.name).into())),
                    ("spread".into(), Json::Float(m.spread)),
                ]),
            )
        })
        .collect();
    let strings = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
    Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Int(args.seed as i64)),
        ("traced".into(), Json::Bool(args.traced)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("seconds".into(), Json::Float(args.seconds)),
        ("records".into(), Json::Int(report.records as i64)),
        ("reps".into(), Json::Int(report.reps as i64)),
        ("num_threads".into(), Json::Int(report.num_threads as i64)),
        ("host_cpus".into(), Json::Int(host::host_cpus() as i64)),
        ("ops_attempted".into(), Json::Int(report.attempted as i64)),
        ("ops_failed".into(), Json::Int(report.failed as i64)),
        ("failures".into(), strings(&report.failures)),
        (
            "partition_digest".into(),
            Json::Str(format!("{:016x}", report.partition_digest)),
        ),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// Every metric a run measured, as `workload metric value unit`.
fn print_metrics(args: &RunArgs, report: &RunReport) {
    for m in &report.metrics {
        let unit = metrics::unit(m.name);
        println!("{} {} {} {unit}", args.workload, m.name, m.value);
    }
    println!("{} reps {} count", args.workload, report.reps);
    println!("{} ops_attempted {} count", args.workload, report.attempted);
    println!("{} ops_failed {} count", args.workload, report.failed);
    for failure in &report.failures {
        eprintln!("FAILED {}: {failure}", args.workload);
    }
}

/// One workload: its metrics by name, then the contract's result object
/// as the last line.
fn run_one(args: RunArgs) -> Result<ExitCode, String> {
    let report = workloads::run(&args)?;
    print_metrics(&args, &report);
    println!(
        "{}",
        contract_line(&report, args.traced).to_string_compact()
    );
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("usage: compare A.json B.json".into()),
        };
    }
    let flags = parse_flags(&args)?;
    match flags.workload.clone() {
        Some(workload) => {
            let seed = flags.seed.unwrap_or(workloads::seeds(&workload).0);
            if let Some(index) = flags.rep {
                let rep = workloads::RepArgs {
                    workload,
                    seed,
                    traced: flags.traced,
                    smoke: flags.smoke,
                    index,
                };
                return workloads::rep(&rep).map(|()| ExitCode::SUCCESS);
            }
            run_one(RunArgs {
                workload,
                seed,
                seconds: flags.seconds,
                traced: flags.traced,
                smoke: flags.smoke,
            })
        }
        None => ledger::run(flags.smoke, flags.seconds, flags.seed),
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("hera-ledger: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let f = parse_flags(&args("--workload w --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (f.workload.as_deref(), f.seed, f.seconds, f.traced),
            (Some("w"), Some(7), 2.5, true)
        );
        assert!(!parse_flags(&args("--trace 0 --smoke")).unwrap().traced);
        assert!(parse_flags(&args("--seed")).is_err());
        assert!(parse_flags(&args("--seed -1")).is_err());
        assert!(parse_flags(&args("--bogus")).is_err());
    }
}
