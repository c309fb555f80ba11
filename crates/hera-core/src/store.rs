//! Durable snapshots for HERA session state (checkpoint/restore).
//!
//! A snapshot is a named collection of JSON sections wrapped in a small
//! self-validating envelope:
//!
//! ```text
//! #hera-snapshot v1 crc32=89abcdef len=1234\n
//! {"registry":{…},"supers":[…],…}
//! ```
//!
//! * **versioned** — the header carries the format version; a reader
//!   built for a different version rejects the file with
//!   [`HeraError::VersionMismatch`] instead of misreading it;
//! * **CRC-checked** — `crc32` is the IEEE CRC-32 of the exact payload
//!   bytes and `len` is their count, so flipped bytes, truncation, and
//!   trailing garbage are all caught deterministically and reported as
//!   [`HeraError::Corrupt`];
//! * **atomically written** — [`Snapshot::write`] writes to a temporary
//!   sibling file, syncs it, renames it over the destination, and then
//!   syncs the parent directory so the rename itself is durable — a
//!   crash mid-write can never leave a half-written snapshot under the
//!   target path, and a crash right after the write cannot lose the
//!   rename.
//!
//! Every stage of the write and read paths carries a named failpoint
//! ([`hera_faults::points`]): `Snapshot::write_with` /
//! `Snapshot::read_with` accept a [`hera_faults::FaultInjector`] so the
//! chaos harness can fail any stage deterministically (including torn
//! writes — a partial payload followed by failure — and bit-rot reads).
//! The plain [`Snapshot::write`] / [`Snapshot::read`] entry points use a
//! disabled injector and pay one branch per stage.
//!
//! The payload is produced by the workspace's dependency-free
//! [`hera_types::json`] writer. Every producer serializes its maps in
//! sorted order, so equal state yields byte-identical snapshots.
//!
//! The module knows nothing about sessions — it stores named [`Json`]
//! sections. The session assembles its state into sections and consumes
//! them on restore.

use hera_faults::{points, FaultInjector, FaultKind};
use hera_types::json::{self, Json};
use hera_types::{HeraError, Result};
use std::io::Write as _;
use std::path::Path;

/// Snapshot format version understood by this build.
pub(crate) const FORMAT_VERSION: u32 = 1;

/// Leading magic of every snapshot header.
const MAGIC: &str = "#hera-snapshot v";

/// IEEE CRC-32 lookup table (polynomial `0xEDB88320`), built at compile
/// time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of a byte slice (the checksum zip, gzip, and PNG use).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Outcome of a successful [`Snapshot::write`], for observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReport {
    /// Payload bytes written (header excluded).
    pub payload_bytes: usize,
    /// Number of sections in the snapshot.
    pub sections: usize,
}

/// A named collection of JSON sections with a versioned, CRC-checked
/// envelope (module docs).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, section)` pairs in insertion order. Order is part of the
    /// byte format, so writers must insert sections deterministically.
    sections: Vec<(String, Json)>,
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section. Names must be unique; inserting a duplicate
    /// replaces the earlier section in place (keeping its position).
    pub fn insert(&mut self, name: impl Into<String>, section: Json) {
        let name = name.into();
        if let Some(slot) = self.sections.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = section;
        } else {
            self.sections.push((name, section));
        }
    }

    /// Looks up a section by name.
    pub fn get(&self, name: &str) -> Option<&Json> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// Looks up a section, failing with [`HeraError::Corrupt`] when it is
    /// missing (a snapshot without a required section is damaged, not
    /// merely incomplete).
    pub fn expect(&self, name: &str) -> Result<&Json> {
        self.get(name)
            .ok_or_else(|| HeraError::Corrupt(format!("snapshot section {name:?} missing")))
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True if no section was inserted.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Section names in snapshot order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Renders the payload (compact JSON object of all sections, without
    /// the envelope header) straight from the sections, copying no tree.
    fn payload(&self) -> String {
        json::compact_object(&self.sections)
    }

    /// Encodes the snapshot as envelope bytes (header + payload).
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let payload = self.payload();
        let header = format!(
            "{MAGIC}{FORMAT_VERSION} crc32={:08x} len={}\n",
            crc32(payload.as_bytes()),
            payload.len()
        );
        let mut out = Vec::with_capacity(header.len() + payload.len());
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(payload.as_bytes());
        out
    }

    /// Decodes and validates envelope bytes. Bad magic, length or CRC
    /// mismatches, and malformed payloads yield [`HeraError::Corrupt`]; a
    /// parsable header carrying a different format version yields
    /// [`HeraError::VersionMismatch`].
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| HeraError::Corrupt("snapshot is not valid UTF-8".into()))?;
        let Some(rest) = text.strip_prefix(MAGIC) else {
            return Err(HeraError::Corrupt(
                "missing #hera-snapshot magic header".into(),
            ));
        };
        let Some((header, payload)) = rest.split_once('\n') else {
            return Err(HeraError::Corrupt("snapshot header not terminated".into()));
        };
        let mut fields = header.split(' ');
        let version: u32 = fields
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| HeraError::Corrupt("unparsable snapshot version".into()))?;
        if version != FORMAT_VERSION {
            return Err(HeraError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let crc_expected: u32 = fields
            .next()
            .and_then(|f| f.strip_prefix("crc32="))
            .and_then(|v| u32::from_str_radix(v, 16).ok())
            .ok_or_else(|| HeraError::Corrupt("unparsable snapshot crc field".into()))?;
        let len_expected: usize = fields
            .next()
            .and_then(|f| f.strip_prefix("len="))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| HeraError::Corrupt("unparsable snapshot len field".into()))?;
        if payload.len() != len_expected {
            return Err(HeraError::Corrupt(format!(
                "snapshot payload is {} bytes, header promises {len_expected} \
                 (truncated or padded file)",
                payload.len()
            )));
        }
        let crc_actual = crc32(payload.as_bytes());
        if crc_actual != crc_expected {
            return Err(HeraError::Corrupt(format!(
                "snapshot crc32 {crc_actual:08x} does not match header {crc_expected:08x}"
            )));
        }
        let Json::Obj(sections) = json::parse(payload)
            .map_err(|e| HeraError::Corrupt(format!("snapshot payload: {e}")))?
        else {
            return Err(HeraError::Corrupt(
                "snapshot payload is not a JSON object".into(),
            ));
        };
        Ok(Self { sections })
    }

    /// Writes the snapshot atomically: the bytes go to a `.tmp` sibling,
    /// are synced to disk, the file is renamed over `path`, and the
    /// parent directory is synced so the rename is durable — readers see
    /// either the old snapshot or the complete new one, never a partial
    /// write.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<WriteReport> {
        self.write_with(path, &FaultInjector::disabled())
    }

    /// [`Snapshot::write`] with a fault injector consulted at every
    /// stage (`store.write.create` / `.write` / `.sync` / `.rename` /
    /// `.dirsync`). On any failure — injected or real — the `.tmp`
    /// sibling is removed, so no partial snapshot file is left behind;
    /// the destination still holds whatever complete snapshot it held
    /// before.
    pub(crate) fn write_with(
        &self,
        path: impl AsRef<Path>,
        faults: &FaultInjector,
    ) -> Result<WriteReport> {
        let path = path.as_ref();
        let bytes = self.to_bytes();
        let payload_bytes = bytes.len() - header_len(&bytes);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let io_err = |stage: &str, e: std::io::Error| {
            HeraError::Io(format!("{stage} {}: {e}", path.display()))
        };
        let injected = |point: &str| Err(FaultInjector::error(point, &path.display().to_string()));
        let result = (|| {
            if faults.hit(points::STORE_WRITE_CREATE).is_some() {
                return injected(points::STORE_WRITE_CREATE);
            }
            let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create", e))?;
            match faults.hit(points::STORE_WRITE_WRITE) {
                Some(FaultKind::Torn { keep_percent }) => {
                    // A torn write: part of the payload reaches the file,
                    // then the write "crashes". The partial tmp is synced
                    // so the simulation is what a real crash leaves.
                    let keep = bytes.len() * usize::from(keep_percent.min(100)) / 100;
                    let _ = f.write_all(&bytes[..keep]);
                    let _ = f.sync_all();
                    return injected(points::STORE_WRITE_WRITE);
                }
                Some(_) => return injected(points::STORE_WRITE_WRITE),
                None => f.write_all(&bytes).map_err(|e| io_err("write", e))?,
            }
            if faults.hit(points::STORE_WRITE_SYNC).is_some() {
                return injected(points::STORE_WRITE_SYNC);
            }
            f.sync_all().map_err(|e| io_err("sync", e))?;
            drop(f);
            if faults.hit(points::STORE_WRITE_RENAME).is_some() {
                return injected(points::STORE_WRITE_RENAME);
            }
            std::fs::rename(&tmp, path).map_err(|e| io_err("rename", e))?;
            if faults.hit(points::STORE_WRITE_DIRSYNC).is_some() {
                return injected(points::STORE_WRITE_DIRSYNC);
            }
            sync_parent_dir(path).map_err(|e| io_err("dirsync", e))
        })();
        if result.is_err() {
            // Best-effort cleanup; the original error is what matters.
            // (After a successful rename the tmp no longer exists and
            // the destination holds a complete snapshot.)
            let _ = std::fs::remove_file(&tmp);
        }
        result?;
        Ok(WriteReport {
            payload_bytes,
            sections: self.sections.len(),
        })
    }

    /// Reads and validates a snapshot file.
    pub fn read(path: impl AsRef<Path>) -> Result<Self> {
        Self::read_with(path, &FaultInjector::disabled())
    }

    /// [`Snapshot::read`] with a fault injector consulted at the
    /// `store.read` failpoint ([`FaultKind::Corrupt`] flips one byte of
    /// the read buffer — the validation layer must catch it).
    pub(crate) fn read_with(path: impl AsRef<Path>, faults: &FaultInjector) -> Result<Self> {
        Self::read_report_with(path, faults).map(|(snap, _)| snap)
    }

    /// [`Snapshot::read_with`], also reporting the payload size and
    /// section count (the counters `checkpoint_load` spans carry).
    pub(crate) fn read_report_with(
        path: impl AsRef<Path>,
        faults: &FaultInjector,
    ) -> Result<(Self, WriteReport)> {
        let path = path.as_ref();
        let bytes = match faults.hit(points::STORE_READ) {
            Some(FaultKind::Corrupt) => {
                let mut b = std::fs::read(path)
                    .map_err(|e| HeraError::Io(format!("read {}: {e}", path.display())))?;
                if !b.is_empty() {
                    // Simulated bit rot: flip one payload bit mid-file.
                    let mid = b.len() / 2;
                    b[mid] ^= 0x20;
                }
                b
            }
            Some(_) => {
                return Err(FaultInjector::error(
                    points::STORE_READ,
                    &path.display().to_string(),
                ))
            }
            None => std::fs::read(path)
                .map_err(|e| HeraError::Io(format!("read {}: {e}", path.display())))?,
        };
        let snap = Self::from_bytes(&bytes)?;
        let report = WriteReport {
            payload_bytes: bytes.len() - header_len(&bytes),
            sections: snap.len(),
        };
        Ok((snap, report))
    }
}

/// Fsyncs the directory containing `path`, making a just-performed
/// rename durable across power loss. POSIX requires an fsync of the
/// *directory* to persist its entries; syncing only the file leaves the
/// rename in the page cache. No-op on platforms where directories cannot
/// be opened for syncing.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = path;
        Ok(())
    }
}

/// Length of the envelope header line (through the first newline).
fn header_len(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |p| p + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        s.insert("alpha", Json::Arr(vec![Json::Int(1), Json::Int(2)]));
        s.insert("beta", Json::Obj(vec![("x".into(), Json::Float(0.5))]));
        s
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn roundtrip_preserves_sections_and_bytes() {
        let s = sample();
        let bytes = s.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.names().collect::<Vec<_>>(), vec!["alpha", "beta"]);
        assert_eq!(
            back.expect("beta").unwrap().to_string_compact(),
            r#"{"x":0.5}"#
        );
        assert_eq!(back.to_bytes(), bytes, "re-encoding is a fixpoint");
    }

    #[test]
    fn insert_replaces_in_place() {
        let mut s = sample();
        s.insert("alpha", Json::Int(9));
        assert_eq!(s.len(), 2);
        assert_eq!(s.names().next(), Some("alpha"));
        assert_eq!(s.expect("alpha").unwrap().as_i64().unwrap(), 9);
    }

    #[test]
    fn missing_section_is_corrupt() {
        let err = sample().expect("gamma").unwrap_err();
        assert!(matches!(err, HeraError::Corrupt(_)), "{err}");
    }

    #[test]
    fn flipped_payload_byte_is_corrupt() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = Snapshot::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, HeraError::Corrupt(_)), "{err}");
    }

    #[test]
    fn truncation_is_corrupt() {
        let bytes = sample().to_bytes();
        for cut in [bytes.len() - 1, bytes.len() - 10, 5] {
            let err = Snapshot::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, HeraError::Corrupt(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut bytes = sample().to_bytes();
        bytes.extend_from_slice(b"junk");
        let err = Snapshot::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, HeraError::Corrupt(_)), "{err}");
    }

    #[test]
    fn version_skew_is_typed() {
        let bytes = sample().to_bytes();
        let skewed = String::from_utf8(bytes).unwrap().replacen(
            "#hera-snapshot v1 ",
            "#hera-snapshot v2 ",
            1,
        );
        let err = Snapshot::from_bytes(skewed.as_bytes()).unwrap_err();
        assert_eq!(
            err,
            HeraError::VersionMismatch {
                found: 2,
                expected: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn foreign_file_is_corrupt() {
        for junk in [&b"not a snapshot"[..], b"", b"\x00\x01\x02"] {
            let err = Snapshot::from_bytes(junk).unwrap_err();
            assert!(matches!(err, HeraError::Corrupt(_)), "{err}");
        }
    }

    #[test]
    fn write_read_roundtrip_and_tmp_cleanup() {
        let dir = std::env::temp_dir().join(format!("hera-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.hera");
        let report = sample().write(&path).unwrap();
        assert_eq!(report.sections, 2);
        assert!(report.payload_bytes > 0);
        assert!(!dir.join("snap.hera.tmp").exists(), "tmp file renamed away");
        let back = Snapshot::read(&path).unwrap();
        assert_eq!(back.to_bytes(), sample().to_bytes());
        // Overwrite is atomic too: write again over the existing file.
        sample().write(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_missing_file_is_io() {
        let err = Snapshot::read("/nonexistent/dir/snap.hera").unwrap_err();
        assert!(matches!(err, HeraError::Io(_)), "{err}");
    }

    // -- failpoint-backed fault-injection tests ------------------------

    use hera_faults::{FaultPlan, FaultRule};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hera-store-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn plan_for(point: &str, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                point: point.into(),
                hits: vec![1],
                kind,
            }],
        }
    }

    #[test]
    fn every_write_stage_fails_cleanly() {
        // Whichever stage fails, the result is an injected Io error, the
        // tmp sibling is gone, and a pre-existing destination snapshot
        // survives untouched.
        let dir = tmp_dir("stages");
        let path = dir.join("snap.hera");
        let mut old = Snapshot::new();
        old.insert("old", Json::Int(1));
        old.write(&path).unwrap();
        let old_bytes = std::fs::read(&path).unwrap();
        for point in [
            points::STORE_WRITE_CREATE,
            points::STORE_WRITE_WRITE,
            points::STORE_WRITE_SYNC,
            points::STORE_WRITE_RENAME,
        ] {
            let inj = FaultInjector::new(&plan_for(point, FaultKind::Error));
            let err = sample().write_with(&path, &inj).unwrap_err();
            assert!(err.to_string().contains("injected fault"), "{point}: {err}");
            assert!(err.to_string().contains(point), "{point}: {err}");
            assert!(
                !dir.join("snap.hera.tmp").exists(),
                "{point}: tmp left behind"
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                old_bytes,
                "{point}: destination was disturbed"
            );
            assert_eq!(inj.fired().len(), 1, "{point}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_never_reaches_destination() {
        let dir = tmp_dir("torn");
        let path = dir.join("snap.hera");
        let mut old = Snapshot::new();
        old.insert("old", Json::Int(1));
        old.write(&path).unwrap();
        let old_bytes = std::fs::read(&path).unwrap();
        for keep in [0u8, 37, 99] {
            let inj = FaultInjector::new(&plan_for(
                points::STORE_WRITE_WRITE,
                FaultKind::Torn { keep_percent: keep },
            ));
            let err = sample().write_with(&path, &inj).unwrap_err();
            assert!(matches!(err, HeraError::Io(_)), "keep {keep}: {err}");
            assert!(
                !dir.join("snap.hera.tmp").exists(),
                "keep {keep}: partial tmp left behind"
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                old_bytes,
                "keep {keep}: torn bytes reached the destination"
            );
            assert_eq!(Snapshot::read(&path).unwrap().to_bytes(), old.to_bytes());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirsync_edge_is_instrumented_and_runs() {
        // Regression test for the missing parent-directory fsync: the
        // dirsync failpoint must sit on the write path (a fault-free
        // write consults it exactly once per write), and a scheduled
        // fault there must surface as an error — proving the sync call
        // is actually reached after the rename.
        let dir = tmp_dir("dirsync");
        let path = dir.join("snap.hera");
        let inj = FaultInjector::new(&FaultPlan::none());
        sample().write_with(&path, &inj).unwrap();
        assert_eq!(
            inj.hits(points::STORE_WRITE_DIRSYNC),
            1,
            "dirsync edge not instrumented — parent fsync likely missing"
        );
        let inj = FaultInjector::new(&plan_for(points::STORE_WRITE_DIRSYNC, FaultKind::Error));
        let err = sample().write_with(&path, &inj).unwrap_err();
        assert!(err.to_string().contains("store.write.dirsync"), "{err}");
        // The rename already happened, so the destination holds the new
        // complete snapshot — only its durability was in question.
        assert_eq!(
            Snapshot::read(&path).unwrap().to_bytes(),
            sample().to_bytes()
        );
        assert!(!dir.join("snap.hera.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_read_is_caught_by_crc() {
        let dir = tmp_dir("bitrot");
        let path = dir.join("snap.hera");
        sample().write(&path).unwrap();
        let inj = FaultInjector::new(&plan_for(points::STORE_READ, FaultKind::Corrupt));
        let err = Snapshot::read_with(&path, &inj).unwrap_err();
        assert!(matches!(err, HeraError::Corrupt(_)), "{err}");
        // The file itself is intact — only the read buffer was flipped.
        assert_eq!(
            Snapshot::read(&path).unwrap().to_bytes(),
            sample().to_bytes()
        );
        // A plain injected read error is Io, not Corrupt.
        let inj = FaultInjector::new(&plan_for(points::STORE_READ, FaultKind::Error));
        let err = Snapshot::read_with(&path, &inj).unwrap_err();
        assert!(matches!(err, HeraError::Io(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
