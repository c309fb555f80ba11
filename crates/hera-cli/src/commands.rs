//! Subcommand implementations.

use crate::args::Args;
use crate::args::Flag::{self, Repeated, Switch, Value};
use hera_baselines::eval::{bcubed, PairMetrics};
use hera_baselines::{CollectiveEr, CorrelationClustering, RSwoosh, Resolver};
use hera_core::{chaos, BlockingScheme, Hera, HeraConfig, HeraResult, HeraSession, ResolveBudget};
use hera_faults::{FaultInjector, FaultPlan};
use hera_sim::TypeDispatch;
use hera_types::{Dataset, RecordId};
use std::fs;
use std::io::Write;
use std::path::Path;

/// `println!` for a command's output, through [`out`]: a reader that
/// closed stdout ends the process quietly, any other write error returns
/// from the calling command.
macro_rules! outln {
    ($($arg:tt)*) => {
        out(format_args!("{}\n", format_args!($($arg)*)))?
    };
}

/// Exit status of a run whose stdout reader closed the pipe: 128 +
/// SIGPIPE (13), what a shell reports for a filter a closed pipe killed.
/// A `pipefail` pipeline then tells a cut-short run from a whole one, as
/// it does for `cat` or `grep`.
const CLOSED_STDOUT: i32 = 141;

/// Stdout, noting whether its reader closed the pipe.
#[derive(Default)]
struct Stdout {
    closed: bool,
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let written = std::io::stdout().write(buf);
        self.note(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let flushed = std::io::stdout().flush();
        self.note(flushed)
    }
}

impl Stdout {
    fn note<T>(&mut self, result: std::io::Result<T>) -> std::io::Result<T> {
        if let Err(e) = &result {
            self.closed |= e.kind() == std::io::ErrorKind::BrokenPipe;
        }
        result
    }
}

/// The end of the output: stdout's reader is gone, so nothing the run
/// still has to say can reach it. Exits with [`CLOSED_STDOUT`], without
/// a message.
fn closed_stdout() -> ! {
    std::process::exit(CLOSED_STDOUT)
}

/// Writes `text` to stdout, the one way the binary does. A closed pipe
/// ends the run ([`closed_stdout`]); another write error is returned.
pub(crate) fn out(text: std::fmt::Arguments<'_>) -> Result<(), String> {
    let mut stdout = Stdout::default();
    match stdout.write_fmt(text) {
        Ok(()) => Ok(()),
        Err(_) if stdout.closed => closed_stdout(),
        Err(e) => Err(format!("writing stdout: {e}")),
    }
}

/// Help text.
pub(crate) const USAGE: &str = "\
hera-cli — entity resolution on heterogeneous records (HERA, ICDE 2020)

USAGE:
  hera-cli import   --source NAME=FILE.csv [--source …] [--entity-column COL]
                [--name NAME] [--out FILE]
  hera-cli generate --preset <dm1|dm2|dm3|dm4> [--seed N] [--out FILE]
  hera-cli generate --size N [--dup-ratio 0.3] [--sources 6] [--attrs 12]
                [--corruption <light|moderate|heavy>] [--seed N] [--out FILE]
  hera-cli resolve  --input FILE [--delta 0.5] [--xi 0.5] [--threads N] [--labels FILE]
                [--eval] [--matchings] [--trace FILE.jsonl]
                [--trace-stderr] [--trace-deterministic] [--streaming]
                [--checkpoint FILE.hera] [--checkpoint-every N]
                [--budget N] [--budget-merges M]
                [--fault-plan FILE.json] [--blocking <none|token|qgram|lsh>]
  hera-cli checkpoint --input FILE --out FILE.hera [--upto N] [--delta 0.5] [--xi 0.5]
                [--threads N] [--blocking <none|token|qgram|lsh>]
  hera-cli restore-resolve --snapshot FILE.hera --input FILE [--labels FILE] [--eval]
                [--matchings] [--delta 0.5] [--xi 0.5] [--threads N]
                [--budget N] [--budget-merges M] [--checkpoint FILE.hera]
                [--trace FILE.jsonl] [--trace-stderr] [--trace-deterministic]
                [--blocking <none|token|qgram|lsh>]
  hera-cli exchange --input FILE [--fraction 0.333] [--seed N] [--out FILE]
  hera-cli fuse     --input FILE --labels FILE [--fraction 1.0] [--seed N] [--out FILE]
  hera-cli baseline --input FILE --system <rswoosh|cc|cr> [--delta 0.5] [--xi 0.5] [--eval]
  hera-cli trace-check --input FILE.jsonl [--require-monotonic-rounds]
  hera-cli faults gen --seed N [--out FILE.json]
  hera-cli faults replay --input FILE --plan FILE.json [--checkpoint-every N]
                [--crash-after N] [--strict-checkpoints] [--upto N] [--resolve-budget N]
                [--delta 0.5] [--xi 0.5] [--threads N]
  hera-cli serve    [--listen ADDR | (stdio default)] [--restore FILE.hera]
                [--stitch-every N] [--delta 0.5] [--xi 0.5] [--threads N]
                [--blocking <none|token|qgram|lsh>]
                [--trace FILE.jsonl] [--trace-deterministic]
                [--fault-plan FILE.json] [--no-retry]
  hera-cli client   --connect ADDR [--line JSON]...   (stdin JSONL when no --line)
  hera-cli demo
  hera-cli help

Datasets are JSON (hera_types::Dataset). Labels are CSV `record_id,entity`.
`--threads 0` (the default) auto-detects the cores; any setting yields
bit-identical results.

`resolve --blocking <scheme>` runs a blocking + meta-blocking pass ahead
of the similarity join (token, qgram, or lsh — see DESIGN.md, Candidate
generation) and compares only the blocked record pairs: sub-quadratic
candidate generation at a measured pair-completeness cost. The default
`none` keeps the exact all-pairs join. With `--streaming` (and in
`checkpoint` / `restore-resolve`) the same schemes run *incrementally*:
each arriving record joins only against its co-blocked candidates, and
the blocker state rides along in snapshots (a snapshot restores only
under the blocking scheme that produced it).

`--trace FILE` writes a structured run journal (JSON Lines: per-stage
spans, every merge, every decided schema matching — see DESIGN.md,
Observability). Core journal events are byte-identical at every thread
count; `--trace-deterministic` drops the host-dependent timing/diag
lines too, making the whole file reproducible.
`--trace-stderr` mirrors per-round summaries to stderr as the run goes.
`trace-check` validates a journal (every line parses, every line has an
event kind) and prints per-kind counts.

`resolve --streaming` ingests record by record through a HeraSession
(resolving after each insert) instead of the batch driver.
`--checkpoint FILE` snapshots the full session state when ingestion
finishes; `--checkpoint-every N` (implies --streaming) additionally
snapshots after every N records, so a crash loses at most N records of
work. `checkpoint` stops after the first --upto records and writes the
snapshot; `restore-resolve` loads a snapshot, ingests the records the
snapshot has not seen yet, and reports like `resolve`. Restoring and
continuing is bit-identical to an uninterrupted streaming run — same
entities, same stats, same core journal events (see DESIGN.md,
Persistence). Snapshots are versioned and CRC-checked; corrupt or
version-skewed files are rejected.

`resolve --budget N` runs *progressive* (anytime) resolution: ingest
everything, then spend at most N pair comparisons on the
highest-expected-value candidates first (ranked by the value-pair
index's Up/Low bounds — see DESIGN.md, Progressive resolution).
`--budget-merges M` caps applied merges instead (or as well). An
unlimited budget is bit-identical to plain `resolve`; a budgeted run's
merges are a prefix of a bigger-budget run's. Combine with
`--checkpoint FILE.hera` to snapshot the exhausted frontier, then
`restore-resolve --snapshot FILE.hera --input FILE --budget N` to spend
the next slice — the resumed run continues exactly where the previous
one stopped (journal rounds keep counting up; `trace-check
--require-monotonic-rounds` enforces that). `--checkpoint-every` does
not compose with `--budget` (the budget already defines the boundary).
`faults replay --resolve-budget N` runs the chaos harness with that
per-record comparison budget, covering crash/recovery of progressive
runs.

`serve` runs the long-lived ER service (crate hera-serve): records
arrive as JSON-lines requests — over stdin/stdout by default, or TCP
with `--listen 127.0.0.1:PORT` — join one authoritative session,
resolve incrementally under per-request budgets, and stay queryable
(`lookup` / `entity` / `stats`). `--stitch-every N` runs the boundary
pass (resolve to fixpoint, publish the partition) automatically every N
ingested records (or send `{\"cmd\":\"stitch\"}` manually). The session
lives on one owner thread behind one command queue (`--threads N`
parallelises inside it), the published partition is double-buffered so
lookups never wait on a pass, and the TCP listener serves any number of
simultaneous clients — answers are a pure function of the request
order. The `checkpoint` request writes one session snapshot file (safe
to race with live ingest); `serve --restore FILE.hera` brings the
service back from it. `client` forwards request lines to a running
server and prints the responses.

`resolve --fault-plan FILE` runs under a deterministic fault-injection
plan (hera-faults JSON): named failpoints on the snapshot write/read
paths and the trace sink fire on scheduled hits. A failing trace sink
degrades to a null sink (one `sink_degraded` journal event, then
silence); a failing mid-run checkpoint is retried with backoff, then
reported and absorbed — the resolve loop continues from in-memory state.
`faults gen --seed N` prints the deterministic random plan for a seed;
`faults replay` re-runs a (dataset, plan, schedule) triple through the
chaos harness and checks the no-torn-state invariant — the exact repro
path for a chaos-test failure (see DESIGN.md, Fault model).
";

/// A subcommand: its name, the flags it reads — its own and those of
/// the shared helpers it calls, one group each — and its body.
#[derive(Debug)]
pub(crate) struct Command {
    /// The name on the command line (`faults gen` for a `faults` action).
    pub name: &'static str,
    /// Every flag the command reads; the parser refuses any other.
    pub flags: &'static [&'static [Flag]],
    /// Runs the command.
    pub run: fn(&Args) -> Result<(), String>,
}

/// The subcommands, each with its own flags and then, one group each,
/// the flags of the shared helpers it calls: [`build_config`],
/// [`build_recorder`], [`fault_injector`], [`budget_of`] and [`report`].
#[rustfmt::skip]
pub(crate) const COMMANDS: &[Command] = {
    const CONFIG: &[Flag] = &[Value("delta"), Value("xi"), Value("threads"), Value("blocking")];
    const RECORDER: &[Flag] =
        &[Value("trace"), Switch("trace-deterministic"), Switch("trace-stderr")];
    const FAULTS: &[Flag] = &[Value("fault-plan")];
    const BUDGET: &[Flag] = &[Value("budget"), Value("budget-merges")];
    const REPORT: &[Flag] = &[Value("trace"), Switch("eval"), Switch("matchings"), Value("labels")];
    type Run = fn(&Args) -> Result<(), String>;
    const fn command(name: &'static str, run: Run, flags: &'static [&'static [Flag]]) -> Command {
        Command { name, flags, run }
    }
    &[
        command("import", import, &[
            &[Repeated("source"), Value("entity-column"), Value("name"), Value("out")],
        ]),
        command("generate", generate, &[&[
            Value("size"), Value("preset"), Value("seed"), Value("dup-ratio"), Value("sources"),
            Value("attrs"), Value("corruption"), Value("out"),
        ]]),
        command("resolve", resolve, &[
            &[Value("input"), Switch("streaming"), Value("checkpoint"), Value("checkpoint-every")],
            CONFIG, RECORDER, FAULTS, BUDGET, REPORT,
        ]),
        command("checkpoint", checkpoint, &[
            &[Value("input"), Value("out"), Value("upto")], CONFIG, RECORDER,
        ]),
        command("restore-resolve", restore_resolve, &[
            &[Value("input"), Value("snapshot"), Value("checkpoint")],
            CONFIG, RECORDER, BUDGET, REPORT,
        ]),
        command("exchange", exchange, &[
            &[Value("input"), Value("fraction"), Value("seed"), Value("out")],
        ]),
        command("fuse", fuse, &[
            &[Value("input"), Value("labels"), Value("fraction"), Value("seed"), Value("out")],
        ]),
        command("baseline", baseline, &[&[
            Value("input"), Value("system"), Value("delta"), Value("xi"), Value("seed"),
            Value("alpha"), Switch("eval"), Value("labels"),
        ]]),
        command("trace-check", trace_check, &[
            &[Value("input"), Switch("require-monotonic-rounds")],
        ]),
        command("serve", serve, &[
            &[Value("listen"), Value("restore"), Value("stitch-every"), Switch("no-retry")],
            CONFIG, RECORDER, FAULTS,
        ]),
        command("client", client, &[&[Value("connect"), Repeated("line")]]),
        command("faults gen", faults_gen, &[&[Value("seed"), Value("out")]]),
        command("faults replay", faults_replay, &[
            &[Value("input"), Value("plan"), Value("checkpoint-every"), Value("crash-after"),
              Switch("strict-checkpoints"), Value("upto"), Value("resolve-budget")],
            CONFIG,
        ]),
        command("faults", |_| Err("faults needs an action: `faults gen` or `faults replay`".into()),
            &[]),
        command("demo", demo, &[]),
    ]
};

fn load_dataset(path: &str) -> Result<Dataset, String> {
    let json = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Dataset::from_json(&json).map_err(|e| format!("parsing {path}: {e}"))
}

fn write_out(path: Option<&str>, content: &str) -> Result<(), String> {
    match path {
        Some(p) => fs::write(p, content).map_err(|e| format!("writing {p}: {e}")),
        None => {
            outln!("{content}");
            Ok(())
        }
    }
}

fn import(args: &Args) -> Result<(), String> {
    let sources = args.get_all("source");
    if sources.is_empty() {
        return Err("import needs at least one --source NAME=FILE.csv".into());
    }
    let mut importer = hera_types::CsvImporter::new(args.get("name").unwrap_or("imported"));
    if let Some(col) = args.get("entity-column") {
        importer = importer.with_entity_column(col);
    }
    for spec in sources {
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("--source expects NAME=FILE.csv, got {spec:?}"))?;
        let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        importer = importer.add_source(name, text);
    }
    let ds = importer.build().map_err(|e| e.to_string())?;
    eprintln!(
        "imported {}: {} records under {} schemas ({} distinct attributes)",
        ds.name,
        ds.len(),
        ds.registry.len(),
        ds.truth.distinct_attr_count()
    );
    let json = ds.to_json().map_err(|e| e.to_string())?;
    write_out(args.get("out"), &json)
}

fn generate(args: &Args) -> Result<(), String> {
    // `--size N` selects the streaming scale generator (10⁴–10⁶-record
    // heterogeneous datasets); `--preset` the Table I toy datasets.
    if let Some(size) = args.get("size") {
        if args.get("preset").is_some() {
            return Err("--size and --preset are mutually exclusive".into());
        }
        let n: usize = size
            .parse()
            .map_err(|_| format!("--size expects an integer, got {size:?}"))?;
        let mut cfg = hera_datagen::scale_preset(n, args.get_u64("seed", 51)?);
        cfg.duplicate_ratio = args.get_f64("dup-ratio", cfg.duplicate_ratio)?;
        cfg.n_sources = args.get_u64("sources", cfg.n_sources as u64)? as usize;
        cfg.n_attrs = args.get_u64("attrs", cfg.n_attrs as u64)? as usize;
        cfg.corruption = match args.get("corruption").unwrap_or("moderate") {
            "light" => hera_datagen::CorruptionConfig::light(),
            "moderate" => hera_datagen::CorruptionConfig::moderate(),
            "heavy" => hera_datagen::CorruptionConfig::heavy(),
            other => {
                return Err(format!(
                    "unknown corruption profile {other:?} (expected light|moderate|heavy)"
                ))
            }
        };
        cfg.validate()
            .map_err(|e| format!("generate --size: {e}"))?;
        let ds = hera_datagen::ScaleGenerator::new(cfg).generate();
        eprintln!(
            "generated {}: {} records, {} entities, {} sources",
            ds.name,
            ds.len(),
            ds.truth.entity_count(),
            ds.registry.len()
        );
        let json = ds.to_json().map_err(|e| e.to_string())?;
        return write_out(args.get("out"), &json);
    }
    let preset = args.require("preset")?;
    let mut cfg = match preset {
        "dm1" => hera_datagen::presets::dm1(),
        "dm2" => hera_datagen::presets::dm2(),
        "dm3" => hera_datagen::presets::dm3(),
        "dm4" => hera_datagen::presets::dm4(),
        other => return Err(format!("unknown preset {other:?} (expected dm1..dm4)")),
    };
    if let Some(seed) = args.get("seed") {
        cfg.seed = seed
            .parse()
            .map_err(|_| format!("--seed expects an integer, got {seed:?}"))?;
    }
    let ds = hera_datagen::Generator::new(cfg).generate();
    eprintln!(
        "generated {}: {} records, {} entities, {} distinct attributes",
        ds.name,
        ds.len(),
        ds.truth.entity_count(),
        ds.truth.distinct_attr_count()
    );
    let json = ds.to_json().map_err(|e| e.to_string())?;
    write_out(args.get("out"), &json)
}

fn build_config(args: &Args) -> Result<HeraConfig, String> {
    let delta = args.get_f64("delta", 0.5)?;
    let xi = args.get_f64("xi", 0.5)?;
    let threads = args.get_u64("threads", 0)? as usize;
    let mut config = HeraConfig::new(delta, xi).with_threads(threads);
    if let Some(scheme) = args.get("blocking") {
        config = config.with_blocking(BlockingScheme::parse(scheme)?);
    }
    Ok(config)
}

/// The `--budget N` / `--budget-merges M` pair as a [`ResolveBudget`];
/// `None` when neither flag is present (classic fixpoint resolution).
fn budget_of(args: &Args) -> Result<Option<ResolveBudget>, String> {
    let budget = ResolveBudget {
        comparisons: args.get_opt_u64("budget")?,
        merges: args.get_opt_u64("budget-merges")?,
        ..ResolveBudget::unlimited()
    };
    Ok(budget.is_bounded().then_some(budget))
}

/// Prints what a budgeted [`HeraSession::resolve_progressive`] call did.
fn report_progressive(report: &hera_core::ProgressiveReport) {
    if report.exhausted {
        let deferred = if report.comparisons_deferred > 0 {
            format!(
                " ({} verified pair(s) deferred by the merge budget)",
                report.comparisons_deferred
            )
        } else {
            String::new()
        };
        eprintln!(
            "budget exhausted: {} comparison(s) spent{deferred}, {} merge(s) applied, \
             {} dirty root(s) left on the frontier",
            report.comparisons_spent, report.merges, report.frontier
        );
    } else {
        eprintln!(
            "fixpoint reached within budget: {} comparison(s) spent, {} merge(s) applied",
            report.comparisons_spent, report.merges
        );
    }
}

/// Loads a fault plan file (hera-faults JSON).
fn load_fault_plan(path: &str) -> Result<FaultPlan, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let json = hera_types::json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    FaultPlan::from_json(&json).map_err(|e| format!("parsing {path}: {e}"))
}

/// The `--fault-plan FILE` injector, shared by the trace sink and the
/// session's snapshot IO; disabled when the flag is absent.
fn fault_injector(args: &Args) -> Result<FaultInjector, String> {
    match args.get("fault-plan") {
        Some(path) => {
            let plan = load_fault_plan(path)?;
            eprintln!(
                "fault plan {path}: {} rule(s), seed {}",
                plan.rules.len(),
                plan.seed
            );
            Ok(FaultInjector::new(&plan))
        }
        None => Ok(FaultInjector::disabled()),
    }
}

fn build_recorder(args: &Args) -> Result<hera_obs::Recorder, String> {
    let mut recorder = hera_obs::Recorder::disabled();
    if let Some(path) = args.get("trace") {
        recorder =
            hera_obs::Recorder::to_file(path).map_err(|e| format!("creating trace {path}: {e}"))?;
    }
    if args.has("trace-deterministic") {
        recorder = recorder.deterministic();
    }
    if args.has("trace-stderr") {
        recorder = recorder.with_progress(true);
    }
    Ok(recorder)
}

/// The command line's recorder and a fresh session over `ds`'s schemas;
/// `injector` reaches the trace sink and the snapshot IO.
fn new_session(
    args: &Args,
    ds: &Dataset,
    injector: FaultInjector,
) -> Result<(HeraSession, hera_obs::Recorder), String> {
    let recorder = build_recorder(args)?.with_faults(injector.clone());
    let mut session = HeraSession::builder(build_config(args)?)
        .recorder(recorder.clone())
        .faults(injector)
        .build();
    session.mirror_schemas(&ds.registry);
    Ok((session, recorder))
}

/// Streams records `records` of `ds` into `session` with
/// [`chaos::stream`], the loop the chaos harness proves: each record
/// added and resolved, and with `checkpoint = Some((k, path))` the
/// session snapshotted after every `k`-th record. A snapshot that still
/// fails after its retries is absorbed with a warning, so only a record
/// the session refuses ends the stream.
fn stream(
    session: &mut HeraSession,
    ds: &Dataset,
    records: std::ops::Range<usize>,
    checkpoint: Option<(usize, &str)>,
) -> Result<(), String> {
    let schedule = chaos::StreamSchedule {
        checkpoint: checkpoint.map(|(k, path)| (k, Path::new(path))),
        ..Default::default()
    };
    let mut streamed = chaos::Streamed::default();
    let result = chaos::stream(session, ds, records, &schedule, &mut streamed);
    for e in &streamed.absorbed {
        eprintln!("warning: {e}; continuing from in-memory state (next checkpoint will retry)");
    }
    result.map_err(|e| format!("ingesting record {}: {e}", session.len()))
}

/// Ingests `ds`'s records from `session.len()` on with
/// [`HeraSession::extend`], then spends one budgeted
/// [`HeraSession::resolve_progressive`] call over the whole frontier —
/// the highest-expected-value candidates first — and reports it.
fn ingest_then_spend(
    session: &mut HeraSession,
    ds: &Dataset,
    budget: ResolveBudget,
) -> Result<(), String> {
    let from = session.len();
    let records = ds.records[from..]
        .iter()
        .map(|rec| (rec.schema, rec.values.clone()));
    session
        .extend(records)
        .map_err(|e| format!("ingesting record {}: {e}", session.len()))?;
    let report = session.resolve_progressive(budget);
    report_progressive(&report);
    Ok(())
}

/// Writes `session` to `path`.
fn write_checkpoint(session: &mut HeraSession, path: &str) -> Result<(), String> {
    session
        .checkpoint(path)
        .map_err(|e| format!("checkpointing to {path}: {e}"))
}

/// What a session resolved, in the shape of a batch run's result.
fn result_of(session: &HeraSession) -> HeraResult {
    HeraResult {
        entity_of: (0..session.len() as u32)
            .map(|rid| session.entity_of(RecordId::new(rid)))
            .collect(),
        stats: session.stats().clone(),
        schema_matchings: session.schema_matchings(),
    }
}

/// The tail of `resolve` and `restore-resolve`, batch or streaming: the
/// journal flushed, the run summary from [`hera_core::RunStats`] on
/// stderr, `--eval` and `--matchings` below it, and the labels CSV.
fn report(
    args: &Args,
    ds: &Dataset,
    recorder: &hera_obs::Recorder,
    result: &HeraResult,
) -> Result<(), String> {
    recorder.flush();
    if let Some(path) = args.get("trace") {
        eprintln!("trace journal written to {path}");
    }
    let stats = &result.stats;
    eprintln!(
        "resolved {} records into {} entities ({} iterations, {} merges, {} threads, {:?})",
        result.entity_of.len(),
        result.entity_count(),
        stats.iterations,
        stats.merges,
        stats.threads,
        stats.total_time()
    );
    eprintln!(
        "  ingest: {:?} · admit: {:?} · join insert: {:?}",
        stats.ingest_time, stats.admit_time, stats.join_insert_time
    );
    eprintln!(
        "  index: {:?} ({:.0} pairs/s) · verify: {:?} ({:.0} pairs/s)",
        stats.index_build_time,
        stats.index_pairs_per_sec(),
        stats.verify_time,
        stats.verify_pairs_per_sec()
    );
    eprintln!(
        "  loop: {:?} · candidates: {:?} · absorb: {:?} · index merge: {:?}",
        stats.resolve_time, stats.candidate_time, stats.absorb_time, stats.merge_time
    );
    eprintln!("  metric calls: {}", stats.metric_sim_calls);
    if args.has("eval") {
        let clusters = result.clusters();
        let m = PairMetrics::score(&clusters, &ds.truth);
        let (bp, br, bf) = bcubed(&clusters, &ds.truth);
        eprintln!("pairwise: {m}");
        eprintln!("b-cubed:  P={bp:.3} R={br:.3} F1={bf:.3}");
    }
    if args.has("matchings") {
        for m in &result.schema_matchings {
            eprintln!(
                "matching: {} ≈ {} (confidence {:.2})",
                ds.registry.attr_qualified_name(m.attr),
                ds.registry.attr_qualified_name(m.partner),
                m.confidence
            );
        }
    }
    let mut csv = String::from("record_id,entity\n");
    for (rid, &e) in result.entity_of.iter().enumerate() {
        csv.push_str(&format!("{rid},{e}\n"));
    }
    write_out(args.get("labels"), &csv)
}

fn resolve_streaming(args: &Args, ds: &Dataset) -> Result<(), String> {
    let every = args.get_opt_u64("checkpoint-every")?.map(|k| k as usize);
    if every == Some(0) {
        return Err("--checkpoint-every expects a positive record count".into());
    }
    let snap_path = args.get("checkpoint");
    if every.is_some() && snap_path.is_none() {
        return Err("--checkpoint-every needs --checkpoint FILE.hera".into());
    }
    let (mut session, recorder) = new_session(args, ds, fault_injector(args)?)?;
    stream(&mut session, ds, 0..ds.len(), every.zip(snap_path))?;
    if let Some(path) = snap_path {
        write_checkpoint(&mut session, path)?;
        eprintln!("checkpoint written to {path}");
    }
    report(args, ds, &recorder, &result_of(&session))
}

fn checkpoint(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args.require("input")?)?;
    let out = args.require("out")?;
    let upto = args.get_opt_u64("upto")?.map_or(ds.len(), |u| u as usize);
    if upto > ds.len() {
        return Err(format!(
            "--upto {upto} exceeds the dataset's {} records",
            ds.len()
        ));
    }
    let (mut session, recorder) = new_session(args, &ds, FaultInjector::disabled())?;
    stream(&mut session, &ds, 0..upto, None)?;
    write_checkpoint(&mut session, out)?;
    recorder.flush();
    eprintln!(
        "checkpointed {upto} of {} records ({} entities so far) to {out}",
        ds.len(),
        session.clusters().len()
    );
    Ok(())
}

fn restore_resolve(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args.require("input")?)?;
    let snap = args.require("snapshot")?;
    let recorder = build_recorder(args)?;
    let mut session = HeraSession::builder(build_config(args)?)
        .recorder(recorder.clone())
        .restore(snap)
        .map_err(|e| format!("restoring {snap}: {e}"))?;
    if session.len() > ds.len() {
        return Err(format!(
            "snapshot has {} records but the dataset only has {}",
            session.len(),
            ds.len()
        ));
    }
    if session.registry().len() != ds.registry.len() {
        return Err(format!(
            "snapshot registry has {} schemas but the dataset has {}",
            session.registry().len(),
            ds.registry.len()
        ));
    }
    let from = session.len();
    eprintln!(
        "restored {snap} at record {from}; continuing through record {}",
        ds.len()
    );
    if let Some(budget) = budget_of(args)? {
        // Budgeted continuation: for a snapshot taken at budget
        // exhaustion the budgeted call picks up exactly where the
        // previous slice stopped.
        ingest_then_spend(&mut session, &ds, budget)?;
    } else {
        stream(&mut session, &ds, from..ds.len(), None)?;
    }
    if let Some(path) = args.get("checkpoint") {
        write_checkpoint(&mut session, path)?;
        eprintln!("checkpoint written to {path}");
    }
    report(args, &ds, &recorder, &result_of(&session))
}

/// `resolve --budget N [--budget-merges M]`: ingest everything into a
/// session without intermediate resolution, then spend one budgeted
/// call over the whole frontier. `--checkpoint FILE` snapshots the
/// (possibly exhausted) session so `restore-resolve --budget` can spend
/// the next slice.
fn resolve_budgeted(args: &Args, ds: &Dataset, budget: ResolveBudget) -> Result<(), String> {
    if args.get("checkpoint-every").is_some() {
        return Err(
            "--checkpoint-every does not compose with --budget; the budget boundary is \
             the checkpoint boundary — use --checkpoint FILE.hera"
                .into(),
        );
    }
    let (mut session, recorder) = new_session(args, ds, fault_injector(args)?)?;
    ingest_then_spend(&mut session, ds, budget)?;
    if let Some(path) = args.get("checkpoint") {
        write_checkpoint(&mut session, path)?;
        eprintln!(
            "checkpoint written to {path}; resume with \
             `hera-cli restore-resolve --snapshot {path} --input … --budget N`"
        );
    }
    report(args, ds, &recorder, &result_of(&session))
}

fn resolve(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args.require("input")?)?;
    if let Some(budget) = budget_of(args)? {
        return resolve_budgeted(args, &ds, budget);
    }
    if args.has("streaming")
        || args.get("checkpoint-every").is_some()
        || args.get("checkpoint").is_some()
    {
        return resolve_streaming(args, &ds);
    }
    let config = build_config(args)?;
    // Batch resolution's only IO edge is the trace sink; the snapshot
    // failpoints need `--streaming`.
    let recorder = build_recorder(args)?.with_faults(fault_injector(args)?);
    let result = Hera::builder(config)
        .recorder(recorder.clone())
        .build()
        .run(&ds)
        .map_err(|e| e.to_string())?;
    report(args, &ds, &recorder, &result)
}

fn exchange(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args.require("input")?)?;
    let fraction = args.get_f64("fraction", 1.0 / 3.0)?;
    let seed = args.get_u64("seed", 1)?;
    let plan = hera_baselines::exchange::plan_exchange_ensuring(
        &ds,
        fraction,
        seed,
        &[hera_types::CanonAttrId::new(0)],
    );
    let out = hera_baselines::exchange::chase(&ds, &plan, format!("{}-X", ds.name));
    eprintln!(
        "exchanged into {} target attributes; {} source values dropped",
        plan.target_attrs.len(),
        plan.dropped_value_count
    );
    let json = out.to_json().map_err(|e| e.to_string())?;
    write_out(args.get("out"), &json)
}

fn parse_labels(path: &str, n: usize) -> Result<Vec<u32>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut labels = vec![u32::MAX; n];
    for (lineno, line) in text.lines().enumerate() {
        if lineno == 0 && line.starts_with("record_id") {
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split(',');
        let rid: usize = parts
            .next()
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| format!("{path}:{}: bad record id", lineno + 1))?;
        let ent: u32 = parts
            .next()
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| format!("{path}:{}: bad entity", lineno + 1))?;
        if rid >= n {
            return Err(format!(
                "{path}:{}: record id {rid} out of range",
                lineno + 1
            ));
        }
        labels[rid] = ent;
    }
    if let Some(missing) = labels.iter().position(|&l| l == u32::MAX) {
        return Err(format!("{path}: no label for record {missing}"));
    }
    Ok(labels)
}

fn fuse(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args.require("input")?)?;
    let labels = parse_labels(args.require("labels")?, ds.len())?;
    let fraction = args.get_f64("fraction", 1.0)?;
    let seed = args.get_u64("seed", 1)?;
    let plan = hera_baselines::exchange::plan_exchange_ensuring(
        &ds,
        fraction,
        seed,
        &[hera_types::CanonAttrId::new(0)],
    );
    let fused =
        hera_baselines::exchange::fuse_entities(&ds, &labels, &plan, format!("{}-fused", ds.name));
    eprintln!(
        "fused {} records into {} entity records under {} target attributes",
        ds.len(),
        fused.len(),
        plan.target_attrs.len()
    );
    let json = fused.to_json().map_err(|e| e.to_string())?;
    write_out(args.get("out"), &json)
}

fn baseline(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args.require("input")?)?;
    if ds.registry.len() != 1 {
        return Err(format!(
            "baselines need a homogeneous dataset (one schema), got {} — run `hera exchange` first",
            ds.registry.len()
        ));
    }
    let delta = args.get_f64("delta", 0.5)?;
    let xi = args.get_f64("xi", 0.5)?;
    let system: Box<dyn Resolver> = match args.require("system")? {
        "rswoosh" => Box::new(RSwoosh::new(delta, xi)),
        "cc" => Box::new(CorrelationClustering::new(
            delta,
            xi,
            args.get_u64("seed", 7)?,
        )),
        "cr" => Box::new(CollectiveEr::new(delta, xi, args.get_f64("alpha", 0.25)?)),
        other => return Err(format!("unknown system {other:?} (rswoosh|cc|cr)")),
    };
    let metric = TypeDispatch::paper_default();
    let clusters = system.resolve(&ds, &metric);
    eprintln!(
        "{} resolved {} records into {} clusters",
        system.name(),
        ds.len(),
        clusters.len()
    );
    if args.has("eval") {
        let m = PairMetrics::score(&clusters, &ds.truth);
        eprintln!("pairwise: {m}");
    }
    let mut csv = String::from("record_id,entity\n");
    for (label, cluster) in clusters.iter().enumerate() {
        for &rid in cluster {
            csv.push_str(&format!("{rid},{label}\n"));
        }
    }
    write_out(args.get("labels"), &csv)
}

fn trace_check(args: &Args) -> Result<(), String> {
    let path = args.require("input")?;
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let summary = hera_obs::validate(&text).map_err(|e| format!("{path}: {e}"))?;
    outln!("{path}: {} journal lines, all valid", summary.lines);
    for (kind, n) in &summary.by_kind {
        outln!("  {kind}: {n}");
    }
    let core_lines = hera_obs::deterministic_view(&text).lines().count();
    outln!("  ({core_lines} deterministic core lines)");
    match hera_obs::check_rounds_monotonic(&text) {
        Ok(n) => outln!("  rounds monotonic across {n} round-bearing line(s)"),
        Err(e) if args.has("require-monotonic-rounds") => {
            return Err(format!("{path}: rounds not monotonic: {e}"));
        }
        Err(e) => {
            // Crash-*replay* journals legitimately rewind (the writer
            // re-executes pre-crash rounds); anything else is a resumed
            // run that restarted its counter — a bug.
            outln!("  rounds NOT monotonic ({e}) — expected only for crash-replay journals");
        }
    }
    Ok(())
}

fn faults_gen(args: &Args) -> Result<(), String> {
    let seed = args.get_u64("seed", 1)?;
    let plan = FaultPlan::random(seed);
    eprintln!(
        "fault plan for seed {seed}: {} rule(s) over {:?}",
        plan.rules.len(),
        plan.rules
            .iter()
            .map(|r| r.point.as_str())
            .collect::<Vec<_>>()
    );
    write_out(args.get("out"), &plan.to_json().to_string_compact())
}

fn faults_replay(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args.require("input")?)?;
    let plan = load_fault_plan(args.require("plan")?)?;
    let mut cfg = chaos::ChaosConfig::new(
        build_config(args)?,
        args.get_u64("checkpoint-every", 1)? as usize,
    );
    cfg.crash_after = args.get_opt_u64("crash-after")?.map(|n| n as usize);
    cfg.strict_checkpoints = args.has("strict-checkpoints");
    cfg.upto = args.get_opt_u64("upto")?.map(|n| n as usize);
    cfg.resolve_budget = args.get_opt_u64("resolve-budget")?;

    let dir = std::env::temp_dir().join(format!("hera-faults-replay-{}", std::process::id()));
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let verdict = chaos::check_no_torn_state(&ds, &cfg, &plan, &dir);
    let _ = fs::remove_dir_all(&dir);

    let report = &verdict.report;
    eprintln!(
        "replayed {} records under plan seed {} ({} rule(s))",
        cfg.upto.map_or(ds.len(), |u| u.min(ds.len())),
        plan.seed,
        plan.rules.len()
    );
    for f in &report.fired {
        eprintln!("  fired: {f}");
    }
    eprintln!(
        "  outcome: {} · {} checkpoint failure(s) absorbed · {} recovery(ies) · sink degraded: {}",
        if report.completed() {
            "completed".to_string()
        } else {
            format!(
                "typed error ({})",
                report.error.as_ref().expect("error set")
            )
        },
        report.checkpoint_failures,
        report.restores,
        report.sink_degraded
    );
    if verdict.ok {
        outln!("no-torn-state invariant: OK");
        Ok(())
    } else {
        Err(format!(
            "no-torn-state invariant VIOLATED: {}",
            verdict.detail
        ))
    }
}

/// `serve` — run the long-lived ER service over stdio or TCP.
fn serve(args: &Args) -> Result<(), String> {
    let config = build_config(args)?;
    let stitch_every = args.get_u64("stitch-every", 0)? as usize;
    let recorder = build_recorder(args)?;
    let injector = fault_injector(args)?;
    let mut builder = hera_serve::ErService::builder(config, 1)
        .stitch_every(stitch_every)
        .recorder(recorder.clone())
        .faults(injector);
    if args.has("no-retry") {
        builder = builder.retry(hera_faults::BackoffPolicy::none());
    }
    let service = match args.get("restore") {
        Some(path) => builder
            .restore(path)
            .map_err(|e| format!("restoring {path}: {e}"))?,
        None => builder.build(),
    };
    eprintln!(
        "hera-serve: {} record(s) restored, stitch-every {}",
        service.len(),
        stitch_every
    );

    let service = std::sync::Arc::new(service);
    let shutdown = match args.get("listen") {
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
            eprintln!(
                "listening on {}",
                listener.local_addr().map_err(|e| e.to_string())?
            );
            hera_serve::serve_tcp(service.clone(), listener).map(|_| true)
        }
        None => {
            // stdio mode: requests on stdin, responses on stdout.
            let stdin = std::io::stdin();
            let mut stdout = Stdout::default();
            let served = hera_serve::serve_lines(&service, stdin.lock(), &mut stdout);
            if stdout.closed {
                recorder.flush();
                closed_stdout();
            }
            served
        }
    }
    .map_err(|e| e.to_string())?;
    recorder.flush();
    eprintln!(
        "hera-serve: {} ({} record(s), {} stitched)",
        if shutdown { "shutdown" } else { "input closed" },
        service.len(),
        service.len() - service.pending_len()
    );
    Ok(())
}

/// `client` — forward JSON-lines requests to a running server. `--line`
/// sends one request per flag occurrence; with none, stdin is piped.
/// Responses print to stdout, one line per request.
fn client(args: &Args) -> Result<(), String> {
    let addr = args.require("connect")?;
    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let reader = std::io::BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let lines: Vec<String> = if args.get_all("line").is_empty() {
        use std::io::BufRead as _;
        std::io::stdin()
            .lock()
            .lines()
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?
    } else {
        args.get_all("line").to_vec()
    };
    use std::io::{BufRead as _, Write as _};
    let mut responses = reader;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        // One write per line, like the typed client: a separate newline
        // write stalls the socket (Nagle's algorithm, delayed ACK).
        writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())?;
        let mut reply = String::new();
        if responses.read_line(&mut reply).map_err(|e| e.to_string())? == 0 {
            return Err("server closed the connection".into());
        }
        out(format_args!("{reply}"))?;
    }
    Ok(())
}

fn demo(_: &Args) -> Result<(), String> {
    let ds = hera_types::motivating_example();
    outln!("The paper's Fig. 1 scenario: six customer records, three schemas.\n");
    for rec in ds.iter() {
        let schema = ds.registry.schema(rec.schema);
        outln!("  r{} [{}] {:?}", rec.id.raw() + 1, schema.name, rec.values);
    }
    let result = Hera::builder(HeraConfig::paper_example())
        .build()
        .run(&ds)
        .map_err(|e| e.to_string())?;
    outln!(
        "\nHERA (δ = ξ = 0.5) finds {} entities:",
        result.entity_count()
    );
    for cluster in result.clusters() {
        let names: Vec<String> = cluster.iter().map(|r| format!("r{}", r + 1)).collect();
        outln!("  {{{}}}", names.join(", "));
    }
    let m = PairMetrics::score(&result.clusters(), &ds.truth);
    outln!("\nagainst ground truth: {m}");
    Ok(())
}
