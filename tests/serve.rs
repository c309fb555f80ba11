//! hera-serve integration tests: the line protocol end to end (in
//! process and over TCP), checkpoint → kill → restore continuity (one
//! file, the session's own snapshot), and the service's equivalence
//! property — the published partition is exactly what a bare
//! `HeraSession` produces from the same arrivals and passes, at any
//! session thread count.

use hera::serve::{serve_lines, serve_tcp, ErService, TcpClient};
use hera::types::json::{parse, Json};
use hera::{HeraConfig, HeraError, HeraSession, ResolveBudget, SchemaId};
use hera_datagen::{CorruptionConfig, DatagenConfig, Generator};
use std::io::Cursor;

const DELTA: f64 = 0.5;
const XI: f64 = 0.5;

fn dataset(seed: u64, n_records: usize) -> hera::Dataset {
    Generator::new(DatagenConfig {
        name: format!("serve-test-{seed}"),
        seed,
        n_records,
        n_entities: (n_records / 6).max(2),
        n_attrs: 12,
        n_sources: 4,
        min_source_attrs: 6,
        max_source_attrs: 10,
        corruption: CorruptionConfig::moderate(),
        domain: Default::default(),
    })
    .generate()
}

/// Registers a dataset's schemas in a service; service ids mirror
/// dataset ids (dense registration order).
fn mirror_schemas(service: &ErService, ds: &hera::Dataset) -> Vec<SchemaId> {
    ds.registry
        .schemas()
        .map(|s| {
            service.add_schema(
                &s.name,
                &s.attrs.iter().map(|a| a.name.clone()).collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// A fresh per-process scratch directory; callers remove it.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hera-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs a request script through an in-process service and returns the
/// parsed response lines.
fn run_script(service: &ErService, script: &str) -> Vec<Json> {
    let mut out = Vec::new();
    let shutdown = serve_lines(service, Cursor::new(script.to_string()), &mut out).unwrap();
    assert!(!shutdown || script.contains("shutdown"));
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| parse(l).unwrap())
        .collect()
}

fn is_ok(reply: &Json) -> bool {
    matches!(reply.get("ok"), Some(Json::Bool(true)))
}

/// The protocol end to end over an in-process byte stream: schema →
/// ingest → resolve → stitch → lookup → entity → stats, plus error
/// responses for bad input, with the connection surviving every error.
#[test]
fn protocol_round_trips_in_process() {
    let service = ErService::builder(HeraConfig::new(DELTA, XI), 1).build();
    let script = r#"{"cmd":"schema","name":"crm","attrs":["name","city"]}
{"cmd":"ingest","schema":0,"values":[{"Str":"alice example"},{"Str":"berlin"}]}
not even json
{"cmd":"lookup","id":99}
{"cmd":"ingest","schema":0,"values":[{"Str":"alice example"},{"Str":"berlin"}]}
{"cmd":"resolve","budget":{}}
{"cmd":"stitch"}
{"cmd":"lookup","id":0}
{"cmd":"stats"}
{"cmd":"shutdown"}
"#;
    // Values ride the wire in hera_types::Value::to_json's tagged shape.
    let probe = hera::Value::from("alice example")
        .to_json()
        .to_string_compact();
    assert_eq!(probe, r#"{"Str":"alice example"}"#, "wire shape drifted");

    let replies = run_script(&service, script);
    assert_eq!(replies.len(), 10);
    assert!(is_ok(&replies[0]), "schema");
    assert_eq!(replies[0].expect("schema").unwrap().as_u32().unwrap(), 0);
    assert!(is_ok(&replies[1]), "first ingest");
    assert!(!is_ok(&replies[2]), "garbage line must error, not kill");
    assert!(!is_ok(&replies[3]), "unknown id must error");
    assert!(is_ok(&replies[4]) && is_ok(&replies[5]) && is_ok(&replies[6]));
    let lookup = &replies[7];
    assert!(is_ok(lookup));
    assert_eq!(
        lookup.expect("provisional").unwrap(),
        &Json::Bool(false),
        "published lookup is authoritative"
    );
    let members = lookup.expect("members").unwrap().as_arr().unwrap();
    assert_eq!(members.len(), 2, "identical records must have merged");
    let stats = &replies[8];
    assert_eq!(stats.expect("records").unwrap().as_i64().unwrap(), 2);
    assert_eq!(stats.expect("pending").unwrap().as_i64().unwrap(), 0);
    assert!(is_ok(&replies[9]), "shutdown acks");
}

/// A line of 10⁵ nested arrays gets an error reply naming the depth
/// bound, where an unbounded recursive parse would overflow the reading
/// thread's stack and abort the process, and the next request on the
/// same stream is answered.
#[test]
fn deeply_nested_line_is_refused_and_serving_continues() {
    let service = ErService::builder(HeraConfig::new(DELTA, XI), 1).build();
    let script = "[".repeat(100_000)
        + "\n"
        + r#"{"cmd":"schema","name":"crm","attrs":["name","city"]}"#
        + "\n";
    let replies = run_script(&service, &script);
    assert_eq!(replies.len(), 2);
    assert!(!is_ok(&replies[0]), "the deep line must error");
    let error = replies[0].expect("error").unwrap().as_str().unwrap();
    assert!(error.contains("nested deeper than 128 levels"), "{error}");
    assert!(is_ok(&replies[1]), "the next request is served");
}

/// A bare session with the dataset's schemas mirrored in.
fn reference_session(ds: &hera::Dataset) -> (HeraSession, Vec<SchemaId>) {
    let mut session = HeraSession::builder(HeraConfig::new(DELTA, XI)).build();
    let schemas = session.mirror_schemas(&ds.registry);
    (session, schemas)
}

/// The service publishes exactly the partition a bare session reaches
/// from the same arrivals and the same passes — same clusters, same
/// entity labels — at every session thread count, with budgeted
/// resolves and automatic boundary passes along the way. (The name
/// predates the removal of the shard layer.)
#[test]
fn sharded_stitching_matches_single_shard_partition() {
    let ds = dataset(91, 180);
    let stitch_every = 45;
    let budget = ResolveBudget::comparisons(200);
    let (mut reference, ref_schemas) = reference_session(&ds);
    for (i, rec) in ds.iter().enumerate() {
        reference
            .add_record(ref_schemas[rec.schema.index()], rec.values.clone())
            .unwrap();
        if (i + 1) % stitch_every == 0 {
            reference.resolve();
        }
        if (i + 1) % 10 == 0 {
            reference.resolve_progressive(budget);
        }
    }
    reference.resolve();
    let want = reference.clusters();

    for threads in [1, 2, 8] {
        let service = ErService::builder(HeraConfig::new(DELTA, XI).with_threads(threads), 1)
            .stitch_every(stitch_every)
            .build();
        let schemas = mirror_schemas(&service, &ds);
        for rec in ds.iter() {
            service
                .ingest(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
            // Budgeted resolution between boundaries acts on the
            // authoritative session, so the reference replays it too.
            if service.len() % 10 == 0 {
                service.resolve(budget);
            }
        }
        service.stitch();
        assert_eq!(service.stitched_partition(), want, "{threads} thread(s)");
        // Every lookup agrees with the reference session bit for bit.
        for rid in 0..ds.len() as u32 {
            let reply = service.lookup(rid).unwrap();
            assert!(!reply.provisional, "all records published");
            assert_eq!(
                reply.entity,
                reference.entity_of(hera::RecordId::new(rid)),
                "rid {rid} at {threads} thread(s)"
            );
        }
    }
}

/// `resolve` acts on the authoritative session, so it shapes the
/// published partition: on a stream long enough for merge order to
/// matter, the service lands on what a bare session reaches with the
/// same interleaved resolves — not on what it reaches without them.
#[test]
fn resolves_shape_the_published_partition() {
    use hera::datagen::{scale_preset, ScaleGenerator};
    let n = 1_500;
    let ds = ScaleGenerator::new(scale_preset(n, 51)).generate();
    let config = HeraConfig::new(DELTA, 0.7).with_blocking(hera::BlockingScheme::token());
    let bare = |every: usize| {
        let mut session = HeraSession::builder(config.clone()).build();
        let schemas = session.mirror_schemas(&ds.registry);
        for (i, rec) in ds.iter().enumerate() {
            session
                .add_record(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
            if (i + 1).is_multiple_of(every) {
                session.resolve();
            }
        }
        session.resolve();
        session.clusters()
    };

    let service = ErService::builder(config.clone(), 1).build();
    let schemas = mirror_schemas(&service, &ds);
    for rec in ds.iter() {
        service
            .ingest(schemas[rec.schema.index()], rec.values.clone())
            .unwrap();
        if service.len().is_multiple_of(n / 10) {
            service.resolve(ResolveBudget::unlimited());
        }
    }
    service.stitch();
    let served = service.stitched_partition();
    assert_eq!(served, bare(n / 10), "same arrivals, same passes");
    assert_ne!(served, bare(n), "the interleaved resolves left no trace");
}

// Property version over random streams: session thread count and
// stitch cadence never move the published partition off the bare
// session's. (The name predates the removal of the shard layer.)
proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
    #[test]
    fn stitched_partition_is_shard_invariant(
        seed in 0u64..1_000,
        threads in 1usize..=8,
        stitch_every in 20usize..=60,
    ) {
        let ds = dataset(seed, 120);
        let (mut reference, ref_schemas) = reference_session(&ds);
        for (i, rec) in ds.iter().enumerate() {
            reference
                .add_record(ref_schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
            if (i + 1) % stitch_every == 0 {
                reference.resolve();
            }
        }
        reference.resolve_progressive(ResolveBudget::merges(5));
        reference.resolve();

        let service = ErService::builder(HeraConfig::new(DELTA, XI).with_threads(threads), 1)
            .stitch_every(stitch_every)
            .build();
        let schemas = mirror_schemas(&service, &ds);
        for rec in ds.iter() {
            service
                .ingest(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
        }
        service.resolve(ResolveBudget::merges(5));
        service.stitch();
        proptest::prop_assert_eq!(service.stitched_partition(), reference.clusters());
    }
}

/// Checkpoint → drop → restore: the restored service answers lookups
/// identically, publishes what it restored, and continues ingesting +
/// stitching to the same final partition as a never-interrupted twin.
#[test]
fn checkpoint_restore_preserves_answers_and_continuation() {
    let ds = dataset(92, 160);
    let cut = 100;
    let dir = scratch_dir("ckpt");
    let path = dir.join("service.hera");

    let build = || ErService::builder(HeraConfig::new(DELTA, XI), 1).stitch_every(40);

    // Uninterrupted twin.
    let whole = build().build();
    let schemas = mirror_schemas(&whole, &ds);
    for rec in ds.iter() {
        whole
            .ingest(schemas[rec.schema.index()], rec.values.clone())
            .unwrap();
    }
    whole.stitch();

    // Interrupted twin: ingest a prefix, checkpoint mid-pending, drop.
    let pre_lookup = {
        let first = build().build();
        let schemas = mirror_schemas(&first, &ds);
        for rec in ds.iter().take(cut) {
            first
                .ingest(schemas[rec.schema.index()], rec.values.clone())
                .unwrap();
        }
        assert!(first.pending_len() > 0, "cut must land mid-pending");
        first.checkpoint(&path).unwrap();
        first.lookup(0).unwrap()
    };

    let resumed = build().restore(&path).unwrap();
    assert_eq!(resumed.len(), cut);
    assert_eq!(
        (resumed.stitched_len(), resumed.pending_len()),
        (cut, 0),
        "the restored partition is the first published generation"
    );
    assert_eq!(
        resumed.lookup(0).unwrap(),
        pre_lookup,
        "restored answers agree"
    );

    for rec in ds.iter().skip(cut) {
        resumed
            .ingest(schemas[rec.schema.index()], rec.values.clone())
            .unwrap();
    }
    resumed.stitch();
    assert_eq!(
        resumed.stitched_partition(),
        whole.stitched_partition(),
        "continuation matches the uninterrupted run"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A service checkpoint is one file, and that file is the session's own
/// snapshot: `HeraSessionBuilder::restore` opens it to the partition
/// the service goes on to publish.
#[test]
fn checkpoint_is_one_session_snapshot_file() {
    let ds = dataset(93, 90);
    let dir = scratch_dir("onefile");
    let path = dir.join("service.hera");

    let service = ErService::builder(HeraConfig::new(DELTA, XI), 1)
        .stitch_every(30)
        .build();
    let schemas = mirror_schemas(&service, &ds);
    for rec in ds.iter() {
        service
            .ingest(schemas[rec.schema.index()], rec.values.clone())
            .unwrap();
    }
    service.checkpoint(&path).unwrap();
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(files, ["service.hera"], "one file, nothing beside it");

    let mut session = HeraSession::builder(HeraConfig::new(DELTA, XI))
        .restore(&path)
        .unwrap();
    service.stitch();
    session.resolve();
    assert_eq!(session.clusters(), service.stitched_partition());
    std::fs::remove_dir_all(&dir).ok();
}

/// A manifest written before the shard layer went (`service` / `route`
/// / `pending` sections, no session sections) is a foreign file now:
/// typed rejection, no panic.
#[test]
fn pre_change_manifest_is_rejected_typed() {
    let dir = scratch_dir("manifest");
    let path = dir.join("old.hera");
    let mut manifest = hera::Snapshot::new();
    manifest.insert(
        "service",
        parse(r#"{"shards":2,"stitch_every":0}"#).unwrap(),
    );
    manifest.insert(
        "schemas",
        parse(r#"[{"name":"crm","attrs":["name"]}]"#).unwrap(),
    );
    manifest.insert("route", parse("[0,1]").unwrap());
    manifest.insert(
        "pending",
        parse(r#"[{"schema":0,"values":[{"Str":"alice"}]}]"#).unwrap(),
    );
    manifest.write(&path).unwrap();

    let err = ErService::builder(HeraConfig::new(DELTA, XI), 1)
        .restore(&path)
        .err()
        .expect("a pre-change manifest must not restore");
    assert!(matches!(err, HeraError::Corrupt(_)), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The TCP transport end to end with the typed client: two sequential
/// connections share service state, and `shutdown` stops the server.
#[test]
fn tcp_server_and_typed_client() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let service =
            std::sync::Arc::new(ErService::builder(HeraConfig::new(DELTA, XI), 1).build());
        serve_tcp(service, listener).unwrap();
    });

    // Connection 1: register + ingest, then hang up (no shutdown).
    {
        let mut c = TcpClient::connect(addr).unwrap();
        let schema = c
            .schema("crm", &["name".to_string(), "city".to_string()])
            .unwrap();
        assert_eq!(schema.raw(), 0);
        let a = c
            .ingest(
                schema,
                vec![hera::Value::from("bob stone"), hera::Value::from("paris")],
            )
            .unwrap();
        assert_eq!(a.id, 0);
        let ids = c
            .batch(vec![
                (
                    schema,
                    vec![hera::Value::from("bob stone"), hera::Value::from("paris")],
                ),
                (
                    schema,
                    vec![hera::Value::from("someone else"), hera::Value::from("lyon")],
                ),
            ])
            .unwrap();
        assert_eq!(ids, vec![1, 2]);
    }

    // Connection 2: state survived; resolve, stitch, look up, shut down.
    {
        let mut c = TcpClient::connect(addr).unwrap();
        let (_, exhausted) = c.resolve(ResolveBudget::unlimited()).unwrap();
        assert!(!exhausted);
        assert_eq!(c.stitch().unwrap(), 3);
        let hit = c.lookup(0).unwrap();
        assert!(!hit.provisional);
        assert_eq!(hit.members, vec![0, 1], "the two bobs merged");
        assert_eq!(c.entity(hit.entity).unwrap(), hit.members);
        let stats = c.stats().unwrap();
        assert_eq!(stats.expect("records").unwrap().as_i64().unwrap(), 3);
        c.shutdown().unwrap();
    }
    server.join().unwrap();
}
