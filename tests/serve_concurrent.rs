//! Concurrency properties of the service, held under the deterministic
//! schedule harness (`hera::serve::harness`):
//!
//! 1. **Sequential equivalence** — under random seeded schedules of
//!    interleaved ingest / lookup / budgeted resolve / stitch, across
//!    1–4 clients and 1–8 session threads, the final published
//!    partition is bit-identical to a bare `HeraSession` replaying the
//!    logged arrivals and passes.
//! 2. **Bounded staleness, never torn** — every lookup the schedule
//!    issued returned either a provisional live-session answer or the
//!    reference partition *at one of the boundary passes dispatched by
//!    then* — never a mixture of generations, never a pass that had not
//!    been dispatched.
//! 3. **Connection robustness** — a TCP client dying at every protocol
//!    stage (pre-request, mid-line, mid-request, between requests)
//!    neither panics the server nor leaks its connection thread; the
//!    server keeps serving and still shuts down cleanly (joining all
//!    threads — a leaked thread would hang the shutdown).
//!
//! Failing schedule seeds are persisted under
//! `/tmp/hera-serve-sched-<seed>/` (dataset + schedule parameters), the
//! same pattern the chaos suite uses, so CI can upload them.

use hera::serve::harness::{drive, LoggedPass, Schedule, ScheduledOp};
use hera::serve::{serve_tcp, ErService, LookupReply, TcpClient};
use hera::{HeraConfig, HeraSession, ResolveBudget, SchemaId};
use hera_datagen::{CorruptionConfig, DatagenConfig, Generator};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Arc;

const DELTA: f64 = 0.5;
const XI: f64 = 0.5;

/// splitmix64 — same per-case seed fan-out as the chaos suite.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn dataset(seed: u64, n_records: usize) -> hera::Dataset {
    Generator::new(DatagenConfig {
        name: format!("serve-conc-{seed}"),
        seed,
        n_records,
        n_entities: (n_records / 5).max(2),
        n_attrs: 10,
        n_sources: 3,
        min_source_attrs: 5,
        max_source_attrs: 8,
        corruption: CorruptionConfig::moderate(),
        domain: Default::default(),
    })
    .generate()
}

/// Everything one master seed expands to.
struct Case {
    ds: hera::Dataset,
    threads: usize,
    stitch_every: usize,
    schedule: Schedule,
    lookups: usize,
    resolves: usize,
    stitches: usize,
}

fn expand(master_seed: u64) -> Case {
    let mut s = master_seed;
    let n_records = 36 + (next(&mut s) % 29) as usize; // 36..=64
    let ds = dataset(next(&mut s), n_records);
    let threads = 1 + (next(&mut s) % 8) as usize; // 1..=8
                                                   // Half the cases stitch automatically mid-stream, half only on the
                                                   // schedule's explicit stitch ops.
    let stitch_every = if next(&mut s).is_multiple_of(2) {
        8 + (next(&mut s) % 16) as usize
    } else {
        0
    };
    Case {
        ds,
        threads,
        stitch_every,
        schedule: Schedule {
            seed: next(&mut s),
            clients: 1 + (next(&mut s) % 4) as usize,
        },
        lookups: n_records / 2,
        resolves: 3,
        stitches: 2,
    }
}

/// Builds the op list: every dataset record once, plus lookups,
/// budgeted resolves, and explicit stitches for the scheduler to
/// interleave.
fn ops_for(case: &Case, seed: u64) -> Vec<ScheduledOp> {
    let mut s = seed ^ 0x5eed;
    let mut ops: Vec<ScheduledOp> = case
        .ds
        .iter()
        .map(|rec| ScheduledOp::Ingest(rec.schema, rec.values.clone()))
        .collect();
    for _ in 0..case.lookups {
        ops.push(ScheduledOp::Lookup);
    }
    for _ in 0..case.resolves {
        ops.push(ScheduledOp::Resolve(ResolveBudget::comparisons(
            50 + next(&mut s) % 350,
        )));
    }
    for _ in 0..case.stitches {
        ops.push(ScheduledOp::Stitch);
    }
    ops
}

/// One reference generation: the bare session's partition after a
/// boundary pass.
struct RefView {
    /// Passes dispatched up to and including this one.
    dispatched: usize,
    boundary: usize,
    entity: Vec<u32>,
    members: HashMap<u32, Vec<u32>>,
}

/// Replays `arrivals` and `passes` through a bare session — each pass
/// at its logged stream position, budgeted resolves with their budget,
/// boundary passes to fixpoint — and snapshots the partition at every
/// boundary pass. Returns the per-boundary views and the session.
fn reference_run(
    service_schemas: &[(String, Vec<String>)],
    arrivals: &[(SchemaId, Vec<hera::Value>)],
    passes: &[LoggedPass],
) -> (Vec<RefView>, HeraSession) {
    let mut reference = HeraSession::builder(HeraConfig::new(DELTA, XI)).build();
    for (name, attrs) in service_schemas {
        reference.add_schema(name.clone(), attrs.clone());
    }
    let mut views = Vec::new();
    let mut at = 0usize;
    for (i, pass) in passes.iter().enumerate() {
        assert!(pass.at >= at, "passes are logged in stream order");
        for (schema, values) in &arrivals[at..pass.at] {
            reference.add_record(*schema, values.clone()).unwrap();
        }
        at = pass.at;
        if let Some(budget) = pass.budget {
            reference.resolve_progressive(budget);
            continue;
        }
        reference.resolve();
        let entity: Vec<u32> = (0..at as u32)
            .map(|id| reference.entity_of(hera::RecordId::new(id)))
            .collect();
        let mut members: HashMap<u32, Vec<u32>> = HashMap::new();
        for cluster in reference.clusters() {
            members.insert(entity[cluster[0] as usize], cluster);
        }
        views.push(RefView {
            dispatched: i + 1,
            boundary: at,
            entity,
            members,
        });
    }
    (views, reference)
}

/// Persists a failing case for CI artifact upload; returns the dir.
fn persist_failure(master_seed: u64, case: &Case) -> String {
    let dir = std::env::temp_dir().join(format!("hera-serve-sched-{master_seed}"));
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(
        dir.join("dataset.json"),
        case.ds.to_json().unwrap_or_default(),
    );
    let params = format!(
        "master_seed={master_seed}\nthreads={}\nstitch_every={}\nschedule_seed={}\nclients={}\n",
        case.threads, case.stitch_every, case.schedule.seed, case.schedule.clients,
    );
    let _ = std::fs::write(dir.join("params.txt"), params);
    dir.display().to_string()
}

/// Runs one schedule case end to end and checks every property.
fn run_case(master_seed: u64) -> Result<(), String> {
    let case = expand(master_seed);
    let fail = |detail: String| {
        let dir = persist_failure(master_seed, &case);
        Err(format!(
            "seed {master_seed} ({} thread(s), stitch_every {}, {} client(s)): \
             {detail}\ncase persisted at {dir}",
            case.threads, case.stitch_every, case.schedule.clients
        ))
    };

    let service = ErService::builder(HeraConfig::new(DELTA, XI).with_threads(case.threads), 1)
        .stitch_every(case.stitch_every)
        .build();
    let schemas: Vec<(String, Vec<String>)> = case
        .ds
        .registry
        .schemas()
        .map(|s| {
            (
                s.name.clone(),
                s.attrs.iter().map(|a| a.name.clone()).collect(),
            )
        })
        .collect();
    for (name, attrs) in &schemas {
        service.add_schema(name, attrs);
    }

    let log = drive(&service, ops_for(&case, master_seed), &case.schedule)
        .map_err(|e| format!("seed {master_seed}: drive failed: {e}"))?;
    // Cover the tail: the final boundary pass every deployment would run.
    service.stitch();

    let mut passes = log.passes.clone();
    passes.push(LoggedPass {
        at: log.arrivals.len(),
        budget: None,
    });
    let (views, mut reference) = reference_run(&schemas, &log.arrivals, &passes);
    let want = reference.clusters();

    // Property 1: final published partition == bare-session reference.
    let got = service.stitched_partition();
    if got != want {
        return fail(format!(
            "published partition diverged from the bare-session reference \
             ({} vs {} cluster(s))",
            got.len(),
            want.len()
        ));
    }
    for id in 0..log.arrivals.len() as u32 {
        let reply = service
            .lookup(id)
            .map_err(|e| format!("lookup {id}: {e}"))?;
        if reply.provisional || reply.entity != reference.entity_of(hera::RecordId::new(id)) {
            return fail(format!("final lookup {id} diverged: {reply:?}"));
        }
    }

    // Property 2: every mid-schedule lookup was provisional or one of
    // the generations dispatched by then — never torn, never future.
    for sample in &log.lookups {
        let reply = &sample.reply;
        if !reply.members.contains(&sample.id) {
            return fail(format!(
                "lookup {} returned members {:?} not containing the record",
                sample.id, reply.members
            ));
        }
        if reply.provisional {
            // Provisional labels come from the live session's coherent
            // view; the label must itself be a member.
            if !reply.members.contains(&reply.entity) {
                return fail(format!(
                    "provisional lookup {} label {} outside its members {:?}",
                    sample.id, reply.entity, reply.members
                ));
            }
            continue;
        }
        let candidates: Vec<&RefView> = views
            .iter()
            .filter(|v| v.dispatched <= sample.dispatched && v.boundary > sample.id as usize)
            .collect();
        let matched = candidates.iter().any(|v| {
            v.entity[sample.id as usize] == reply.entity
                && v.members.get(&reply.entity) == Some(&reply.members)
        });
        if !matched {
            return fail(format!(
                "published lookup {} = {:?} matches none of the {} dispatched \
                 generation(s) covering it (torn or future value)",
                sample.id,
                reply,
                candidates.len()
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The acceptance criterion: 160 seeded schedules, session thread
    /// counts 1–8, published partition bit-identical to the bare-session
    /// reference, every lookup provisional-or-published.
    #[test]
    fn schedules_match_sequential_reference(master_seed in any::<u64>()) {
        let outcome = run_case(master_seed);
        prop_assert!(outcome.is_ok(), "{}", outcome.err().unwrap_or_default());
    }
}

/// Satellite: a client dying at every protocol stage must not panic the
/// server or leak its connection thread. After each death a fresh
/// client verifies the server still answers, and the final `shutdown`
/// joins every connection thread — a leaked thread would hang here.
#[test]
fn tcp_client_death_at_every_stage_leaves_server_serving() {
    use std::io::{BufRead as _, BufReader};
    use std::net::TcpStream;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let service = Arc::new(ErService::builder(HeraConfig::new(DELTA, XI), 1).build());
        serve_tcp(service, listener).unwrap();
    });

    // Stage 0: connect, say nothing, die.
    drop(TcpStream::connect(addr).unwrap());

    // Stage 1: die mid-line (no trailing newline — the server sees a
    // partial request when the socket closes).
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"{\"cmd\":\"sta").unwrap();
        drop(s);
    }

    // Stage 2: complete request, die without reading the reply (the
    // server's reply write hits a closed socket).
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
        drop(s);
    }

    // Stage 3: one full request, then a partial second one, then death.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"{\"cmd\":\"schema\",\"name\":\"crm\",\"attrs\":[\"name\"]}\n")
            .unwrap();
        let mut line = String::new();
        BufReader::new(s.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        s.write_all(b"{\"cmd\":\"ingest\",\"schema\":0,\"va")
            .unwrap();
        drop(s);
    }

    // Stage 4: garbage then death — the error reply path must also
    // survive the closed socket.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"not json at all\n").unwrap();
        drop(s);
    }

    // After all five deaths the server still serves new clients with
    // intact state (the schema from stage 3 survived).
    let mut c = TcpClient::connect(addr).unwrap();
    let id = c
        .ingest(SchemaId::new(0), vec![hera::Value::from("carol stone")])
        .unwrap();
    assert_eq!(id.id, 0, "state survived the client deaths");
    assert_eq!(c.stitch().unwrap(), 1);
    let hit: LookupReply = c.lookup(0).unwrap();
    assert!(!hit.provisional);
    c.shutdown().unwrap();

    // Shutdown joins every connection thread; a leaked thread from any
    // of the dead clients would deadlock this join.
    server.join().unwrap();
}
