//! Subcommand implementations.

use crate::args::Args;
use hera_baselines::{CollectiveEr, CorrelationClustering, RSwoosh, Resolver};
use hera_core::{chaos, BlockingScheme, Hera, HeraConfig, HeraSession, ResolveBudget};
use hera_eval::{bcubed, PairMetrics};
use hera_faults::{FaultInjector, FaultPlan};
use hera_sim::TypeDispatch;
use hera_types::{Dataset, HeraError, RecordId, SchemaId};
use std::fs;

/// Help text.
pub const USAGE: &str = "\
hera-cli — entity resolution on heterogeneous records (HERA, ICDE 2020)

USAGE:
  hera-cli import   --source NAME=FILE.csv [--source …] [--entity-column COL]
                [--name NAME] [--out FILE]
  hera-cli generate --preset <dm1|dm2|dm3|dm4> [--seed N] [--out FILE]
  hera-cli generate --size N [--dup-ratio 0.3] [--sources 6] [--attrs 12]
                [--corruption <light|moderate|heavy>] [--seed N] [--out FILE]
  hera-cli resolve  --input FILE [--delta 0.5] [--xi 0.5] [--threads N] [--labels FILE]
                [--eval] [--matchings] [--no-sim-cache] [--trace FILE.jsonl]
                [--trace-stderr] [--trace-deterministic] [--streaming]
                [--checkpoint FILE.hera] [--checkpoint-every N]
                [--budget N] [--budget-merges M]
                [--fault-plan FILE.json] [--blocking <none|token|qgram|lsh>]
  hera-cli checkpoint --input FILE --out FILE.hera [--upto N] [--delta 0.5] [--xi 0.5]
                [--threads N] [--no-sim-cache] [--blocking <none|token|qgram|lsh>]
  hera-cli restore-resolve --snapshot FILE.hera --input FILE [--labels FILE] [--eval]
                [--matchings] [--delta 0.5] [--xi 0.5] [--threads N] [--no-sim-cache]
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
                [--delta 0.5] [--xi 0.5] [--threads N] [--no-sim-cache]
  hera-cli serve    [--listen ADDR | (stdio default)] [--restore FILE.hera]
                [--stitch-every N] [--delta 0.5] [--xi 0.5] [--threads N]
                [--no-sim-cache] [--blocking <none|token|qgram|lsh>]
                [--trace FILE.jsonl] [--trace-deterministic]
                [--fault-plan FILE.json] [--no-retry]
  hera-cli client   --connect ADDR [--line JSON]...   (stdin JSONL when no --line)
  hera-cli demo
  hera-cli help

Datasets are JSON (hera_types::Dataset). Labels are CSV `record_id,entity`.
`--threads 0` (the default) auto-detects the cores; any setting yields
bit-identical results. `--no-sim-cache` disables the merge-aware similarity
memo cache (results are bit-identical either way; the flag exists for
baseline timing).

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
count and cache setting; `--trace-deterministic` drops the host-dependent
timing/diag lines too, making the whole file reproducible.
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

/// The bare `--switch`es the subcommands read with [`Args::has`]; every
/// other flag takes a value.
pub const SWITCHES: &[&str] = &[
    "eval",
    "matchings",
    "no-retry",
    "no-sim-cache",
    "require-monotonic-rounds",
    "streaming",
    "strict-checkpoints",
    "trace-deterministic",
    "trace-stderr",
];

/// Routes a parsed command line.
pub fn dispatch(args: &Args) -> Result<(), String> {
    match args.command.as_str() {
        "import" => import(args),
        "generate" => generate(args),
        "resolve" => resolve(args),
        "checkpoint" => checkpoint(args),
        "restore-resolve" => restore_resolve(args),
        "exchange" => exchange(args),
        "fuse" => fuse(args),
        "baseline" => baseline(args),
        "trace-check" => trace_check(args),
        "serve" => serve(args),
        "client" => client(args),
        "faults gen" => faults_gen(args),
        "faults replay" => faults_replay(args),
        "faults" => Err("faults needs an action: `faults gen` or `faults replay`".into()),
        "demo" => demo(),
        other => Err(format!(
            "unknown subcommand {other:?} (try `hera-cli help`)"
        )),
    }
}

fn load_dataset(path: &str) -> Result<Dataset, String> {
    let json = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Dataset::from_json(&json).map_err(|e| format!("parsing {path}: {e}"))
}

fn write_out(path: Option<&str>, content: &str) -> Result<(), String> {
    match path {
        Some(p) => fs::write(p, content).map_err(|e| format!("writing {p}: {e}")),
        None => {
            println!("{content}");
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
    if args.has("no-sim-cache") {
        config = config.without_sim_cache();
    }
    if let Some(scheme) = args.get("blocking") {
        config = config.with_blocking(BlockingScheme::parse(scheme)?);
    }
    Ok(config)
}

/// The `--budget N` / `--budget-merges M` pair as a [`ResolveBudget`];
/// `None` when neither flag is present (classic fixpoint resolution).
fn budget_of(args: &Args) -> Result<Option<ResolveBudget>, String> {
    let mut budget = ResolveBudget::unlimited();
    if args.get("budget").is_some() {
        budget.comparisons = Some(args.get_u64("budget", 0)?);
    }
    if args.get("budget-merges").is_some() {
        budget.merges = Some(args.get_u64("budget-merges", 0)?);
    }
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

/// Ingests records `[from, to)` of `ds` one by one, resolving after
/// each insert; with `checkpoint_every = Some(n)` also snapshots the
/// session to `checkpoint_path` after every `n`-th ingested record.
///
/// A mid-run checkpoint that still fails after its retry policy
/// ([`HeraError::CheckpointFailed`]) degrades gracefully: the failure is
/// reported on stderr and resolution continues from in-memory state —
/// only durability suffered, and the next periodic checkpoint will try
/// again. Any other checkpoint error is fatal.
fn ingest_range(
    session: &mut HeraSession,
    ds: &Dataset,
    schemas: &[SchemaId],
    from: usize,
    to: usize,
    checkpoint_every: Option<usize>,
    checkpoint_path: Option<&str>,
) -> Result<(), String> {
    for (i, rec) in ds.records.iter().enumerate().skip(from).take(to - from) {
        session
            .add_record(schemas[rec.schema.index()], rec.values.clone())
            .map_err(|e| format!("ingesting record {i}: {e}"))?;
        session.resolve();
        if let (Some(n), Some(path)) = (checkpoint_every, checkpoint_path) {
            if (i + 1) % n == 0 {
                match session.checkpoint(path) {
                    Ok(()) => {}
                    Err(e @ HeraError::CheckpointFailed { .. }) => {
                        eprintln!(
                            "warning: {e}; continuing from in-memory state \
                             (next checkpoint will retry)"
                        );
                    }
                    Err(e) => return Err(format!("checkpointing to {path}: {e}")),
                }
            }
        }
    }
    Ok(())
}

/// Shared tail of `resolve --streaming` and `restore-resolve`: stats,
/// optional eval/matchings, and the labels CSV.
fn report_session(args: &Args, ds: &Dataset, session: &mut HeraSession) -> Result<(), String> {
    let stats = session.stats().clone();
    eprintln!(
        "resolved {} records into {} entities ({} iterations, {} merges, {} threads, {:?})",
        session.len(),
        session.clusters().len(),
        stats.iterations,
        stats.merges,
        stats.threads,
        stats.total_time()
    );
    eprintln!(
        "  ingest: {:?} · admit: {:?} · join insert: {:?}",
        stats.ingest_time, stats.admit_time, stats.join_insert_time
    );
    if args.has("no-sim-cache") {
        eprintln!("  sim cache: off · {} metric calls", stats.metric_sim_calls);
    } else {
        eprintln!(
            "  sim cache: {} hits / {} misses ({:.0}% hit rate) · {} entries, {} invalidated · {} metric calls",
            stats.sim_cache_hits,
            stats.sim_cache_misses,
            stats.sim_cache_hit_rate() * 100.0,
            stats.sim_cache_size,
            stats.sim_cache_invalidated,
            stats.metric_sim_calls
        );
    }
    if args.has("eval") {
        let clusters = session.clusters();
        let m = PairMetrics::score(&clusters, &ds.truth);
        let (bp, br, bf) = bcubed(&clusters, &ds.truth);
        eprintln!("pairwise: {m}");
        eprintln!("b-cubed:  P={bp:.3} R={br:.3} F1={bf:.3}");
    }
    if args.has("matchings") {
        for m in session.schema_matchings() {
            eprintln!(
                "matching: {} ≈ {} (confidence {:.2})",
                ds.registry.attr_qualified_name(m.attr),
                ds.registry.attr_qualified_name(m.partner),
                m.confidence
            );
        }
    }
    let mut csv = String::from("record_id,entity\n");
    for rid in 0..session.len() {
        csv.push_str(&format!(
            "{rid},{}\n",
            session.entity_of(RecordId::new(rid as u32))
        ));
    }
    write_out(args.get("labels"), &csv)
}

fn resolve_streaming(args: &Args, ds: &Dataset) -> Result<(), String> {
    let every = match args.get("checkpoint-every") {
        Some(_) => Some(args.get_u64("checkpoint-every", 1)? as usize),
        None => None,
    };
    if every == Some(0) {
        return Err("--checkpoint-every expects a positive record count".into());
    }
    let snap_path = args.get("checkpoint");
    if every.is_some() && snap_path.is_none() {
        return Err("--checkpoint-every needs --checkpoint FILE.hera".into());
    }
    let injector = fault_injector(args)?;
    let recorder = build_recorder(args)?.with_faults(injector.clone());
    let mut session = HeraSession::builder(build_config(args)?)
        .recorder(recorder.clone())
        .faults(injector)
        .build();
    let schemas = session.mirror_schemas(&ds.registry);
    ingest_range(&mut session, ds, &schemas, 0, ds.len(), every, snap_path)?;
    if let Some(path) = snap_path {
        session
            .checkpoint(path)
            .map_err(|e| format!("checkpointing to {path}: {e}"))?;
        eprintln!("checkpoint written to {path}");
    }
    recorder.flush();
    if let Some(path) = args.get("trace") {
        eprintln!("trace journal written to {path}");
    }
    report_session(args, ds, &mut session)
}

fn checkpoint(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args.require("input")?)?;
    let out = args.require("out")?;
    let upto = match args.get("upto") {
        Some(_) => args.get_u64("upto", 0)? as usize,
        None => ds.len(),
    };
    if upto > ds.len() {
        return Err(format!(
            "--upto {upto} exceeds the dataset's {} records",
            ds.len()
        ));
    }
    let recorder = build_recorder(args)?;
    let mut session = HeraSession::builder(build_config(args)?)
        .recorder(recorder.clone())
        .build();
    let schemas = session.mirror_schemas(&ds.registry);
    ingest_range(&mut session, &ds, &schemas, 0, upto, None, None)?;
    session
        .checkpoint(out)
        .map_err(|e| format!("checkpointing to {out}: {e}"))?;
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
    let schemas: Vec<SchemaId> = (0..ds.registry.len() as u32).map(SchemaId::new).collect();
    let from = session.len();
    eprintln!(
        "restored {snap} at record {from}; continuing through record {}",
        ds.len()
    );
    if let Some(budget) = budget_of(args)? {
        // Budgeted continuation: ingest whatever the snapshot has not
        // seen, then spend one budgeted call on the frontier — for a
        // snapshot taken at budget exhaustion this picks up exactly
        // where the previous slice stopped.
        for (i, rec) in ds.records.iter().enumerate().skip(from) {
            session
                .add_record(schemas[rec.schema.index()], rec.values.clone())
                .map_err(|e| format!("ingesting record {i}: {e}"))?;
        }
        let report = session.resolve_progressive(budget);
        report_progressive(&report);
        if let Some(path) = args.get("checkpoint") {
            session
                .checkpoint(path)
                .map_err(|e| format!("checkpointing to {path}: {e}"))?;
            eprintln!("checkpoint written to {path}");
        }
    } else {
        ingest_range(&mut session, &ds, &schemas, from, ds.len(), None, None)?;
    }
    recorder.flush();
    if let Some(path) = args.get("trace") {
        eprintln!("trace journal written to {path}");
    }
    report_session(args, &ds, &mut session)
}

/// `resolve --budget N [--budget-merges M]`: ingest everything into a
/// session without intermediate resolution, then spend one budgeted
/// [`HeraSession::resolve_progressive`] call over the whole frontier —
/// the highest-expected-value candidates first. `--checkpoint FILE`
/// snapshots the (possibly exhausted) session so `restore-resolve
/// --budget` can spend the next slice.
fn resolve_budgeted(args: &Args, ds: &Dataset, budget: ResolveBudget) -> Result<(), String> {
    if args.get("checkpoint-every").is_some() {
        return Err(
            "--checkpoint-every does not compose with --budget; the budget boundary is \
             the checkpoint boundary — use --checkpoint FILE.hera"
                .into(),
        );
    }
    let injector = fault_injector(args)?;
    let recorder = build_recorder(args)?.with_faults(injector.clone());
    let mut session = HeraSession::builder(build_config(args)?)
        .recorder(recorder.clone())
        .faults(injector)
        .build();
    let schemas = session.mirror_schemas(&ds.registry);
    for (i, rec) in ds.records.iter().enumerate() {
        session
            .add_record(schemas[rec.schema.index()], rec.values.clone())
            .map_err(|e| format!("ingesting record {i}: {e}"))?;
    }
    let report = session.resolve_progressive(budget);
    report_progressive(&report);
    if let Some(path) = args.get("checkpoint") {
        session
            .checkpoint(path)
            .map_err(|e| format!("checkpointing to {path}: {e}"))?;
        eprintln!(
            "checkpoint written to {path}; resume with \
             `hera-cli restore-resolve --snapshot {path} --input … --budget N`"
        );
    }
    recorder.flush();
    if let Some(path) = args.get("trace") {
        eprintln!("trace journal written to {path}");
    }
    report_session(args, ds, &mut session)
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
    recorder.flush();
    if let Some(path) = args.get("trace") {
        eprintln!("trace journal written to {path}");
    }
    eprintln!(
        "resolved {} records into {} entities ({} iterations, {} merges, {} threads, {:?})",
        ds.len(),
        result.entity_count(),
        result.stats.iterations,
        result.stats.merges,
        result.stats.threads,
        result.stats.total_time()
    );
    eprintln!(
        "  index: {:?} ({:.0} pairs/s) · verify: {:?} ({:.0} pairs/s)",
        result.stats.index_build_time,
        result.stats.index_pairs_per_sec(),
        result.stats.verify_time,
        result.stats.verify_pairs_per_sec()
    );
    eprintln!(
        "  loop: {:?} · candidates: {:?} · absorb: {:?} · index/cache merge: {:?}",
        result.stats.resolve_time,
        result.stats.candidate_time,
        result.stats.absorb_time,
        result.stats.merge_time
    );
    if args.has("no-sim-cache") {
        eprintln!(
            "  sim cache: off · {} metric calls",
            result.stats.metric_sim_calls
        );
    } else {
        eprintln!(
            "  sim cache: {} hits / {} misses ({:.0}% hit rate) · {} entries, {} invalidated · {} metric calls",
            result.stats.sim_cache_hits,
            result.stats.sim_cache_misses,
            result.stats.sim_cache_hit_rate() * 100.0,
            result.stats.sim_cache_size,
            result.stats.sim_cache_invalidated,
            result.stats.metric_sim_calls
        );
    }
    if args.has("eval") {
        let m = PairMetrics::score(&result.clusters(), &ds.truth);
        let (bp, br, bf) = bcubed(&result.clusters(), &ds.truth);
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

fn exchange(args: &Args) -> Result<(), String> {
    let ds = load_dataset(args.require("input")?)?;
    let fraction = args.get_f64("fraction", 1.0 / 3.0)?;
    let seed = args.get_u64("seed", 1)?;
    let plan = hera_exchange::plan_exchange_ensuring(
        &ds,
        fraction,
        seed,
        &[hera_types::CanonAttrId::new(0)],
    );
    let out = hera_exchange::chase(&ds, &plan, format!("{}-X", ds.name));
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
    let plan = hera_exchange::plan_exchange_ensuring(
        &ds,
        fraction,
        seed,
        &[hera_types::CanonAttrId::new(0)],
    );
    let fused = hera_exchange::fuse_entities(&ds, &labels, &plan, format!("{}-fused", ds.name));
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
    println!("{path}: {} journal lines, all valid", summary.lines);
    for (kind, n) in &summary.by_kind {
        println!("  {kind}: {n}");
    }
    let core_lines = hera_obs::deterministic_view(&text).lines().count();
    println!("  ({core_lines} deterministic core lines)");
    match hera_obs::check_rounds_monotonic(&text) {
        Ok(n) => println!("  rounds monotonic across {n} round-bearing line(s)"),
        Err(e) if args.has("require-monotonic-rounds") => {
            return Err(format!("{path}: rounds not monotonic: {e}"));
        }
        Err(e) => {
            // Crash-*replay* journals legitimately rewind (the writer
            // re-executes pre-crash rounds); anything else is a resumed
            // run that restarted its counter — a bug.
            println!("  rounds NOT monotonic ({e}) — expected only for crash-replay journals");
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
    if args.get("crash-after").is_some() {
        cfg.crash_after = Some(args.get_u64("crash-after", 0)? as usize);
    }
    cfg.strict_checkpoints = args.has("strict-checkpoints");
    if args.get("upto").is_some() {
        cfg.upto = Some(args.get_u64("upto", 0)? as usize);
    }
    if args.get("resolve-budget").is_some() {
        cfg.resolve_budget = Some(args.get_u64("resolve-budget", 0)?);
    }

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
        println!("no-torn-state invariant: OK");
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
            let mut stdout = std::io::stdout();
            hera_serve::serve_lines(&service, stdin.lock(), &mut stdout)
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
        print!("{reply}");
    }
    Ok(())
}

fn demo() -> Result<(), String> {
    let ds = hera_types::motivating_example();
    println!("The paper's Fig. 1 scenario: six customer records, three schemas.\n");
    for rec in ds.iter() {
        let schema = ds.registry.schema(rec.schema);
        println!("  r{} [{}] {:?}", rec.id.raw() + 1, schema.name, rec.values);
    }
    let result = Hera::builder(HeraConfig::paper_example())
        .build()
        .run(&ds)
        .map_err(|e| e.to_string())?;
    println!(
        "\nHERA (δ = ξ = 0.5) finds {} entities:",
        result.entity_count()
    );
    for cluster in result.clusters() {
        let names: Vec<String> = cluster.iter().map(|r| format!("r{}", r + 1)).collect();
        println!("  {{{}}}", names.join(", "));
    }
    let m = PairMetrics::score(&result.clusters(), &ds.truth);
    println!("\nagainst ground truth: {m}");
    Ok(())
}
