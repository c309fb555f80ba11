//! `hera-cli` — command-line entity resolution on heterogeneous records.
//!
//! ```text
//! hera-cli generate --preset dm1 --out dm1.json
//! hera-cli resolve  --input dm1.json --delta 0.5 --xi 0.5 --labels labels.csv --eval
//! hera-cli exchange --input dm1.json --fraction 0.33 --out dm1-s.json
//! hera-cli fuse     --input dm1.json --labels labels.csv --out fused.json
//! hera-cli baseline --input dm1-s.json --system rswoosh --eval
//! hera-cli demo
//! ```

#![forbid(unsafe_code)]

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "help" || raw[0] == "--help" {
        return match commands::out(format_args!("{}", commands::USAGE)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                commands::err(format_args!("error: {e}\n"));
                ExitCode::FAILURE
            }
        };
    }
    // `faults` is a two-token command group (`faults replay`, `faults
    // gen`): fold the action into the command so the strict parser (no
    // positionals after the command) stays strict everywhere else.
    if raw[0] == "faults" && raw.len() > 1 && !raw[1].starts_with("--") {
        let action = raw.remove(1);
        raw[0] = format!("faults {action}");
    }
    let args = match Args::parse(raw, commands::COMMANDS) {
        Ok(a) => a,
        Err(e) => {
            commands::err(format_args!("error: {e}\n{}", commands::USAGE));
            return ExitCode::FAILURE;
        }
    };
    // A `Repeated` flag (`import --source`, `client --line`) repeats;
    // anything else given twice is almost certainly a mistake.
    for name in args.duplicated() {
        commands::err(format_args!(
            "warning: --{name} given more than once; the last value wins\n"
        ));
    }
    match (args.command.run)(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            commands::err(format_args!("error: {e}\n"));
            ExitCode::FAILURE
        }
    }
}
