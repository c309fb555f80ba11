//! Checkpoint/restore property tests: a snapshot taken mid-stream and
//! restored in a fresh session must be a *perfect continuation* — the
//! resumed run's entities, stats, schema matchings, and deterministic
//! journal events are bit-identical to an uninterrupted run, at every
//! thread count. Plus rejection tests: corrupt,
//! truncated, and version-skewed snapshot files fail with typed errors
//! instead of poisoning a session. See DESIGN.md ("Persistence").

use hera::{HeraConfig, HeraError, HeraSession, Recorder, RunStats, SchemaId};
use hera_datagen::{CorruptionConfig, DatagenConfig, Generator};
use proptest::prelude::*;
use std::path::PathBuf;

fn dataset(seed: u64, n_records: usize, n_entities: usize, corruption: u8) -> hera::Dataset {
    Generator::new(DatagenConfig {
        name: format!("store-prop-{seed}"),
        seed,
        n_records,
        n_entities,
        n_attrs: 10,
        n_sources: 3,
        min_source_attrs: 5,
        max_source_attrs: 8,
        corruption: match corruption {
            0 => CorruptionConfig::light(),
            1 => CorruptionConfig::moderate(),
            _ => CorruptionConfig::heavy(),
        },
        domain: Default::default(),
    })
    .generate()
}

/// Ingests records `[from, to)` with a resolve after each insert.
fn ingest(session: &mut HeraSession, ds: &hera::Dataset, from: usize, to: usize) {
    let schemas: Vec<SchemaId> = (0..ds.registry.len() as u32).map(SchemaId::new).collect();
    for rec in ds.iter().skip(from).take(to - from) {
        session
            .add_record(schemas[rec.schema.index()], rec.values.clone())
            .unwrap();
        session.resolve();
    }
}

/// Stats rendering with the wall-clock fields zeroed — everything that
/// must be bit-identical across an interrupted and an uninterrupted run.
fn deterministic_stats(s: &RunStats) -> String {
    let mut s = s.clone();
    s.index_build_time = Default::default();
    s.resolve_time = Default::default();
    s.verify_time = Default::default();
    s.candidate_time = Default::default();
    s.ingest_time = Default::default();
    s.admit_time = Default::default();
    s.join_insert_time = Default::default();
    s.absorb_time = Default::default();
    s.merge_time = Default::default();
    s.to_json().to_string_compact()
}

/// The journal's deterministic core with checkpoint bookkeeping spans
/// removed — the interrupted run emits `checkpoint_save`/`checkpoint_load`
/// lines the straight run never sees; everything else must match.
fn core_events(journal: &str) -> String {
    hera::obs::deterministic_view(journal)
        .lines()
        .filter(|l| {
            !l.contains("\"stage\":\"checkpoint_save\"")
                && !l.contains("\"stage\":\"checkpoint_load\"")
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

fn snap_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hera-store-test-{}-{tag}.hera", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random datasets, checkpoint points and thread counts:
    /// streaming resolution interrupted by a checkpoint and
    /// resumed from disk in a fresh session is indistinguishable from a
    /// run that was never interrupted — same entity for every record,
    /// same merge count, same deterministic stats and schema matchings,
    /// and the same core journal events.
    #[test]
    fn restored_continuation_is_bit_identical(
        seed in 0u64..10_000,
        n_records in 30usize..60,
        n_entities in 6usize..14,
        corruption in 0u8..3,
        cut_ppm in 0u32..1_000_000,
        threads in 1usize..9,
    ) {
        let ds = dataset(seed, n_records, n_entities, corruption);
        let n = ds.len();
        let cut = 1 + (cut_ppm as usize * (n - 2)) / 1_000_000;
        let config = HeraConfig::new(0.5, 0.5).with_threads(threads);
        let path = snap_path(&format!("prop-{seed}"));

        // Uninterrupted reference run.
        let (rec_a, buf_a) = Recorder::to_memory();
        let mut straight = HeraSession::builder(config.clone()).recorder(rec_a).build();
        straight.mirror_schemas(&ds.registry);
        ingest(&mut straight, &ds, 0, n);

        // Interrupted run: ingest [0, cut), checkpoint, drop the session,
        // restore from disk, continue with [cut, n).
        let (rec_b1, buf_b1) = Recorder::to_memory();
        let mut first = HeraSession::builder(config.clone()).recorder(rec_b1).build();
        first.mirror_schemas(&ds.registry);
        ingest(&mut first, &ds, 0, cut);
        first.checkpoint(&path).unwrap();
        drop(first);

        let (rec_b2, buf_b2) = Recorder::to_memory();
        let mut resumed = HeraSession::builder(config.clone())
            .recorder(rec_b2)
            .restore(&path)
            .unwrap();
        prop_assert_eq!(resumed.len(), cut);
        ingest(&mut resumed, &ds, cut, n);

        for rid in 0..n as u32 {
            prop_assert_eq!(
                straight.entity_of(hera::RecordId::new(rid)),
                resumed.entity_of(hera::RecordId::new(rid)),
                "record {} diverged (cut {}, threads {})",
                rid, cut, threads
            );
        }
        prop_assert_eq!(straight.clusters(), resumed.clusters());
        prop_assert_eq!(straight.merge_count(), resumed.merge_count());
        prop_assert_eq!(
            deterministic_stats(straight.stats()),
            deterministic_stats(resumed.stats())
        );
        let (ma, mb) = (straight.schema_matchings(), resumed.schema_matchings());
        prop_assert_eq!(ma.len(), mb.len());
        for (a, b) in ma.iter().zip(&mb) {
            prop_assert_eq!(a.attr, b.attr);
            prop_assert_eq!(a.partner, b.partner);
            prop_assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
        let replayed = format!(
            "{}{}",
            core_events(&buf_b1.contents()),
            core_events(&buf_b2.contents())
        );
        prop_assert_eq!(core_events(&buf_a.contents()), replayed);

        std::fs::remove_file(&path).ok();
    }
}

/// Builds a real mid-stream snapshot file to corrupt.
fn real_snapshot(tag: &str) -> PathBuf {
    real_snapshot_under(HeraConfig::new(0.5, 0.5), tag)
}

fn real_snapshot_under(config: HeraConfig, tag: &str) -> PathBuf {
    let ds = dataset(4242, 40, 8, 1);
    let mut session = HeraSession::builder(config).build();
    session.mirror_schemas(&ds.registry);
    ingest(&mut session, &ds, 0, 20);
    let path = snap_path(tag);
    session.checkpoint(&path).unwrap();
    path
}

fn restore(path: &PathBuf) -> Result<HeraSession, HeraError> {
    HeraSession::builder(HeraConfig::new(0.5, 0.5)).restore(path)
}

#[test]
fn flipped_payload_byte_is_rejected_as_corrupt() {
    let path = real_snapshot("flip");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    match restore(&path) {
        Err(HeraError::Corrupt(msg)) => assert!(
            msg.contains("crc32") || msg.contains("parse") || msg.contains("expects"),
            "unexpected corrupt message: {msg}"
        ),
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("flipped byte accepted"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_snapshot_is_rejected_as_corrupt() {
    let path = real_snapshot("trunc");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
    match restore(&path) {
        Err(HeraError::Corrupt(msg)) => {
            assert!(msg.contains("truncated"), "unexpected message: {msg}")
        }
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("truncated snapshot accepted"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn version_skewed_snapshot_is_rejected_as_version_mismatch() {
    let path = real_snapshot("skew");
    let text = std::fs::read(&path).unwrap();
    let text = String::from_utf8(text).unwrap();
    let skewed = text.replacen("#hera-snapshot v1 ", "#hera-snapshot v9 ", 1);
    assert_ne!(text, skewed, "header rewrite failed");
    std::fs::write(&path, skewed).unwrap();
    match restore(&path) {
        Err(HeraError::VersionMismatch { found, expected }) => {
            assert_eq!(found, 9);
            assert_eq!(expected, 1);
        }
        Err(other) => panic!("expected VersionMismatch, got {other}"),
        Ok(_) => panic!("version-skewed snapshot accepted"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_snapshot_is_an_io_error() {
    let path = snap_path("definitely-not-there");
    std::fs::remove_file(&path).ok();
    match restore(&path) {
        Err(HeraError::Io(msg)) => assert!(msg.contains("read"), "unexpected message: {msg}"),
        Err(other) => panic!("expected Io, got {other}"),
        Ok(_) => panic!("missing snapshot restored"),
    }
}

/// Restore reads the sections it knows and ignores the rest: a file that
/// carries one more — as the files written before the join was derived
/// from the super records carry a `join` section — restores, and the
/// continuation lands on the uninterrupted run's partition.
#[test]
fn unknown_extra_section_is_ignored() {
    let ds = dataset(4242, 40, 8, 1);
    let path = real_snapshot("extra-section");
    let mut snap = hera::Snapshot::read(&path).unwrap();
    assert!(snap.get("join").is_none(), "the join is no longer stored");
    let stale = r#"{"xi":0.5,"q":2,"entries":[{"label":{"rid":0,"fid":0,"vid":0},"value":{"Str":"stale"}}]}"#;
    snap.insert("join", hera::types::json::parse(stale).unwrap());
    snap.write(&path).unwrap();

    let mut resumed = restore(&path).unwrap();
    ingest(&mut resumed, &ds, 20, ds.len());
    let mut straight = HeraSession::builder(HeraConfig::new(0.5, 0.5)).build();
    straight.mirror_schemas(&ds.registry);
    ingest(&mut straight, &ds, 0, ds.len());
    assert_eq!(resumed.clusters(), straight.clusters());
    assert_eq!(resumed.merge_count(), straight.merge_count());
    assert_eq!(
        deterministic_stats(resumed.stats()),
        deterministic_stats(straight.stats())
    );
    std::fs::remove_file(&path).ok();
}

/// The index's rows are indexed by record id, so a snapshot whose index
/// section names a record the snapshot does not hold is refused when the
/// section is read — a typed error, before the rid sizes anything and
/// long before the resolver would look the record up.
#[test]
fn index_pair_naming_an_unknown_record_is_rejected_as_corrupt() {
    use hera::types::json::Json;
    let path = real_snapshot("index-rid");
    let mut snap = hera::Snapshot::read(&path).unwrap();
    let Json::Arr(mut pairs) = snap.get("index").unwrap().clone() else {
        panic!("the index section is an array of pairs");
    };
    let label = |rid: i64| {
        let part = |k: &str, v: i64| (k.to_string(), Json::Int(v));
        Json::Obj(vec![part("rid", rid), part("fid", 0), part("vid", 0)])
    };
    // 20 records were ingested: rids 0..20. One just past the end, one
    // that would size a 4-billion-row table.
    for unknown in [20, i64::from(u32::MAX)] {
        pairs.push(Json::Obj(vec![
            ("a".into(), label(3)),
            ("b".into(), label(unknown)),
            ("sim".into(), Json::Float(0.75)),
        ]));
        snap.insert("index", Json::Arr(pairs.clone()));
        snap.write(&path).unwrap();
        match restore(&path) {
            Err(HeraError::Corrupt(msg)) => {
                assert!(msg.contains(&unknown.to_string()), "message: {msg}")
            }
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("index pair naming record {unknown} accepted"),
        }
        pairs.pop();
    }
    std::fs::remove_file(&path).ok();
}

/// A super record whose members are `[rid]` absorbed nothing, so each of
/// its fields holds the one attribute and at most the one value its
/// record arrived with. A snapshot that gives such a record a second
/// attribute or a second value in a field is refused, naming the record.
#[test]
fn one_member_super_record_with_a_grown_field_is_rejected_as_corrupt() {
    use hera::types::json::Json;
    let path = real_snapshot("one-member");
    let mut snap = hera::Snapshot::read(&path).unwrap();
    let Json::Arr(supers) = snap.get("supers").unwrap().clone() else {
        panic!("the supers section is an array");
    };
    let int = |j: &Json| match j {
        Json::Int(i) => *i,
        other => panic!("expected an integer, got {other:?}"),
    };
    let (at, rid) = supers
        .iter()
        .enumerate()
        .find_map(|(at, s)| {
            let rid = int(s.get("rid").unwrap());
            let members = s.get("members").unwrap().as_arr().unwrap();
            (members.len() == 1).then_some((at, rid))
        })
        .expect("some record of the snapshot merged with nothing");
    type Grow = fn(&mut Vec<(String, Json)>);
    let grows: [Grow; 2] = [
        |field| field[1].1 = Json::Arr(vec![Json::Int(0), Json::Int(1)]),
        |field| field[0].1 = Json::Arr(vec![Json::Str("Null".into()); 2]),
    ];
    for grow in grows {
        let mut edited = supers.clone();
        let Json::Obj(record) = &mut edited[at] else {
            panic!("a super record is an object");
        };
        let Json::Arr(fields) = &mut record.iter_mut().find(|(k, _)| k == "fields").unwrap().1
        else {
            panic!("fields is an array");
        };
        let Json::Obj(field) = &mut fields[0] else {
            panic!("a field is an object");
        };
        assert_eq!(
            (field[0].0.as_str(), field[1].0.as_str()),
            ("values", "attrs")
        );
        grow(field);
        snap.insert("supers", Json::Arr(edited));
        snap.write(&path).unwrap();
        match restore(&path) {
            Err(HeraError::Corrupt(msg)) => {
                assert!(
                    msg.contains(&format!("super record {rid}")),
                    "message: {msg}"
                )
            }
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("record {rid} restored with a grown field"),
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The streaming blocker counts co-occurrence in a table indexed by
/// rid, so a blocker section naming a record the snapshot does not hold
/// is refused at restore — before an admission sizes the table by it.
#[test]
fn blocker_member_naming_an_unknown_record_is_rejected_as_corrupt() {
    use hera::types::json::Json;
    let config = || HeraConfig::new(0.5, 0.5).with_blocking(hera::BlockingScheme::token());
    let path = real_snapshot_under(config(), "blocker-rid");
    let restore = || HeraSession::builder(config()).restore(&path);
    restore().expect("the untouched snapshot restores");

    let mut snap = hera::Snapshot::read(&path).unwrap();
    let Json::Obj(blocker) = snap.get("blocker").unwrap().clone() else {
        panic!("the blocker section is an object");
    };
    // 20 records were ingested: rids 0..20. One just past the end, one
    // that would size a 16 GB table.
    for unknown in [20, i64::from(u32::MAX)] {
        let block = Json::Obj(vec![
            ("key".into(), Json::Str("0000000000000001".into())),
            ("members".into(), Json::Arr(vec![Json::Int(unknown)])),
        ]);
        let mut edited = blocker.clone();
        let blocks = edited.iter_mut().find(|(k, _)| k == "blocks").unwrap();
        blocks.1 = Json::Arr(vec![block]);
        snap.insert("blocker", Json::Obj(edited));
        snap.write(&path).unwrap();
        match restore() {
            Err(HeraError::Corrupt(msg)) => {
                assert!(msg.contains(&unknown.to_string()), "message: {msg}")
            }
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("blocker member naming record {unknown} accepted"),
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Restoring under a different ξ is refused — the live-value universe
/// was filtered by the snapshot's ξ, so continuing under another
/// threshold would silently diverge from a from-scratch run.
#[test]
fn xi_skew_is_refused_as_invalid_config() {
    let path = real_snapshot("xi-skew");
    match HeraSession::builder(HeraConfig::new(0.5, 0.9)).restore(&path) {
        Err(HeraError::InvalidConfig(msg)) => {
            assert!(msg.contains('ξ') || msg.contains("xi"), "message: {msg}")
        }
        Err(other) => panic!("expected InvalidConfig, got {other}"),
        Ok(_) => panic!("ξ-skewed restore accepted"),
    }
    std::fs::remove_file(&path).ok();
}
