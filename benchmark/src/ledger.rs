//! The whole run set: every workload untraced, then every workload
//! traced; one JSON envelope per run set under `out/`.

use crate::workloads::RunArgs;
use crate::{host, metrics, workloads, OUT_DIR};
use hera::types::json::Json;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

pub fn run(smoke: bool, seconds: f64, seed: Option<u64>) -> Result<ExitCode, String> {
    let mut runs = Vec::new();
    let mut failed = 0;
    for traced in [false, true] {
        for workload in metrics::WORKLOADS {
            let args = RunArgs {
                workload: workload.into(),
                seed: seed.unwrap_or(workloads::seeds(workload).0),
                seconds,
                traced,
                smoke,
            };
            let report = workloads::run(&args)?;
            crate::print_metrics(&args, &report);
            failed += report.failed;
            runs.push(crate::detail(&args, &report));
        }
    }
    let envelope = Json::Obj(vec![
        ("schema".into(), Json::Str("hera-ledger/1".into())),
        ("commit".into(), Json::Str(host::git_commit())),
        ("rustc".into(), Json::Str(host::rustc_version())),
        ("host_cpus".into(), Json::Int(host::host_cpus() as i64)),
        ("smoke".into(), Json::Bool(smoke)),
        ("runs".into(), Json::Arr(runs)),
    ]);
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/ledger-{stamp}.json");
    std::fs::write(&path, envelope.to_string_pretty() + "\n")
        .map_err(|e| format!("{path}: {e}"))?;
    println!("run set written to {path}");
    if failed > 0 {
        eprintln!("hera-ledger: {failed} operation(s) or output check(s) failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
