//! Streaming (incremental) blocking — the batch blocker's semantics
//! maintained under record insertions, for the session ingest path.
//!
//! The batch [`crate::Blocker`] sees the whole dataset at once: it can
//! purge a block by its *final* size and prune pairs by collection-wide
//! weights. A streaming session sees one record at a time, so
//! [`StreamingBlocker`] keeps the block map live and answers, per
//! arriving record, *which earlier records share enough blocking
//! evidence to be worth joining against*:
//!
//! * blocks grow as records arrive; once a block outgrows
//!   `max_block_size` it is **purged going forward** — it stops
//!   producing candidates and drops its member list (records admitted
//!   while it was small already used its evidence; the batch blocker
//!   would have dropped those pairs too, so streaming purge is strictly
//!   more permissive, never less complete);
//! * a candidate must co-occur with the new record in at least
//!   `min_common_blocks` retained blocks (the CBS rule, counted against
//!   the blocks retained *at admission time*);
//! * `MetaBlocking::weighted` needs the collection-wide mean edge
//!   weight and therefore has no streaming analogue — it is ignored
//!   here (documented divergence from the batch pass).
//!
//! An admission costs its visits: one counter bump per member of every
//! retained block the record falls in. The counters are a table indexed
//! by rid that the blocker keeps across admissions — rids are dense in a
//! session; a standalone blocker's table grows to the largest member it
//! visits — a rid joins the output the moment its count reaches the CBS
//! floor, and the table is zeroed again through the list of rids the
//! admission touched. No map is built per record and nothing but the
//! output is allocated.
//!
//! The blocker is session state: it serializes into the session
//! snapshot ([`StreamingBlocker::to_json`]) so a restored session
//! admits future records against exactly the blocks the checkpointed
//! one held.

use crate::{minhash, tokenize, BlockingScheme, MetaBlocking};
use hera_types::json::Json;
use hera_types::{HeraError, Result, Value};
use rustc_hash::FxHashMap;

/// One live block: the records holding its key, in arrival order.
/// `None` once purged (members dropped to bound memory).
type Block = Option<Vec<u32>>;

/// Incremental blocking state — see the module docs for semantics.
pub struct StreamingBlocker {
    scheme: BlockingScheme,
    meta: MetaBlocking,
    /// blocking key → live members, or `None` once purged.
    blocks: FxHashMap<u64, Block>,
    /// Records admitted so far (for stats/sanity only).
    records: u64,
    /// Co-occurrence counts of the admission in progress, indexed by
    /// rid and grown to the largest member visited; all zero between
    /// admissions.
    counts: Vec<u32>,
    /// The rids whose count the admission in progress raised above zero.
    touched: Vec<u32>,
}

impl StreamingBlocker {
    /// Creates a streaming blocker for a scheme, or `None` for
    /// [`BlockingScheme::None`] — no blocking means the caller keeps the
    /// unfiltered join path, bit-identical to not having a blocker at
    /// all.
    pub fn new(scheme: &BlockingScheme) -> Option<Self> {
        let meta = match scheme {
            BlockingScheme::None => return None,
            BlockingScheme::Token(p) => p.meta,
            BlockingScheme::QGram(p) => p.meta,
            BlockingScheme::MinHashLsh(p) => p.meta,
        };
        Some(Self {
            scheme: scheme.clone(),
            meta,
            blocks: FxHashMap::default(),
            records: 0,
            counts: Vec::new(),
            touched: Vec::new(),
        })
    }

    /// The scheme this blocker runs.
    pub fn scheme(&self) -> &BlockingScheme {
        &self.scheme
    }

    /// Records admitted so far.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// True before the first admission.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Blocking keys of one record under this blocker's scheme — sorted
    /// and deduplicated, a pure function of the values.
    pub fn keys_of(&self, values: &[Value]) -> Vec<u64> {
        keys_for(&self.scheme, values)
    }

    /// Admits record `rid` and returns the earlier records it may be
    /// compared against — every rid sharing ≥ `min_common_blocks`
    /// retained blocks with it, sorted ascending (deterministic
    /// regardless of map order). The record joins its blocks either way;
    /// a block pushed past `max_block_size` by this admission is purged
    /// for all *future* admissions.
    ///
    /// Costs one counter bump per member visited: the counts live in a
    /// table the blocker keeps, a rid joins the output the moment its
    /// count reaches the floor, and the table is zeroed through the list
    /// of rids touched — nothing but the output is allocated.
    pub fn admit(&mut self, rid: u32, values: &[Value]) -> Vec<u32> {
        self.records += 1;
        let keys = self.keys_of(values);
        let floor = self.meta.min_common_blocks.max(1);
        let mut out = Vec::new();
        for &k in &keys {
            let block = self.blocks.entry(k).or_insert_with(|| Some(Vec::new()));
            let Some(members) = block else {
                continue; // purged: no candidates, no growth
            };
            for &m in members.iter() {
                if m as usize >= self.counts.len() {
                    self.counts.resize(m as usize + 1, 0);
                }
                let count = &mut self.counts[m as usize];
                if *count == 0 {
                    self.touched.push(m);
                }
                *count += 1;
                if *count == floor {
                    out.push(m);
                }
            }
            members.push(rid);
            if members.len() > self.meta.max_block_size {
                *block = None;
            }
        }
        for m in self.touched.drain(..) {
            self.counts[m as usize] = 0;
        }
        out.sort_unstable();
        out
    }

    /// The largest rid any live block names, if any does. The count
    /// table grows to it, so a session restoring a blocker checks it
    /// against its record count before the next admission.
    pub fn max_member(&self) -> Option<u32> {
        self.blocks.values().flatten().flatten().copied().max()
    }

    /// Encodes the block map (sorted by key for byte-stable snapshots):
    /// live blocks with their members in arrival order, purged blocks as
    /// bare keys. The scheme itself is *not* serialized — it is config,
    /// and the restoring session supplies it (mismatches are the
    /// session's config-compatibility check to make).
    pub fn to_json(&self) -> Json {
        let mut live: Vec<(&u64, &Vec<u32>)> = Vec::new();
        let mut purged: Vec<u64> = Vec::new();
        for (k, b) in &self.blocks {
            match b {
                Some(members) => live.push((k, members)),
                None => purged.push(*k),
            }
        }
        live.sort_unstable_by_key(|(k, _)| **k);
        purged.sort_unstable();
        Json::Obj(vec![
            ("records".into(), Json::Int(self.records as i64)),
            (
                "blocks".into(),
                Json::Arr(
                    live.into_iter()
                        .map(|(k, members)| {
                            Json::Obj(vec![
                                ("key".into(), Json::Str(format!("{k:016x}"))),
                                (
                                    "members".into(),
                                    Json::Arr(
                                        members.iter().map(|&m| Json::Int(m as i64)).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "purged".into(),
                Json::Arr(
                    purged
                        .into_iter()
                        .map(|k| Json::Str(format!("{k:016x}")))
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes a blocker checkpointed by [`StreamingBlocker::to_json`],
    /// under the restoring session's `scheme` (must match the
    /// checkpointing session's for the continuation to be equivalent).
    ///
    /// Member rids are taken as they come — a standalone blocker may
    /// number its records sparsely; a caller that knows how many records
    /// there are checks [`StreamingBlocker::max_member`] against it.
    ///
    /// # Errors
    /// [`HeraError::Corrupt`] on malformed keys, and
    /// [`HeraError::InvalidConfig`] when `scheme` is
    /// [`BlockingScheme::None`] (state exists but config says no
    /// blocking — the caller's config check should have caught this).
    pub fn from_json(scheme: &BlockingScheme, json: &Json) -> Result<Self> {
        let mut blocker = Self::new(scheme).ok_or_else(|| {
            HeraError::InvalidConfig(
                "snapshot carries streaming-blocker state but the restore config disables \
                 blocking"
                    .into(),
            )
        })?;
        let records = json.expect("records")?.as_i64()?;
        if records < 0 {
            return Err(HeraError::Corrupt("negative blocker record count".into()));
        }
        blocker.records = records as u64;
        let parse_key = |j: &Json| -> Result<u64> {
            let s = j.as_str()?;
            u64::from_str_radix(s, 16)
                .map_err(|_| HeraError::Corrupt(format!("bad blocking key '{s}'")))
        };
        for b in json.expect("blocks")?.as_arr()? {
            let key = parse_key(b.expect("key")?)?;
            let mut members = Vec::new();
            for m in b.expect("members")?.as_arr()? {
                members.push(m.as_u32()?);
            }
            if members.len() > blocker.meta.max_block_size {
                return Err(HeraError::Corrupt(format!(
                    "live block {key:016x} exceeds max_block_size"
                )));
            }
            if blocker.blocks.insert(key, Some(members)).is_some() {
                return Err(HeraError::Corrupt(format!(
                    "duplicate blocking key {key:016x}"
                )));
            }
        }
        for p in json.expect("purged")?.as_arr()? {
            let key = parse_key(p)?;
            if blocker.blocks.insert(key, None).is_some() {
                return Err(HeraError::Corrupt(format!(
                    "duplicate blocking key {key:016x}"
                )));
            }
        }
        Ok(blocker)
    }
}

/// Blocking keys of a record's values under a scheme — the shared
/// extraction the batch blocker and the streaming blocker use. Sorted and deduplicated; empty for all-null records.
pub(crate) fn keys_for(scheme: &BlockingScheme, values: &[Value]) -> Vec<u64> {
    match scheme {
        BlockingScheme::None => Vec::new(),
        BlockingScheme::Token(p) => tokenize::word_value_tokens(values, p.include_full_value),
        BlockingScheme::QGram(p) => tokenize::qgram_tokens(values, p.q),
        BlockingScheme::MinHashLsh(p) => minhash::band_tokens(
            &tokenize::word_value_tokens(values, true),
            p.bands,
            p.rows,
            p.seed,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(texts: &[&str]) -> Vec<Value> {
        texts.iter().map(|t| Value::from(*t)).collect()
    }

    fn small_token(max_block_size: usize, min_common_blocks: u32) -> BlockingScheme {
        BlockingScheme::Token(crate::TokenParams {
            include_full_value: true,
            meta: MetaBlocking {
                max_block_size,
                min_common_blocks,
                weighted: false,
            },
        })
    }

    #[test]
    fn none_scheme_has_no_blocker() {
        assert!(StreamingBlocker::new(&BlockingScheme::None).is_none());
    }

    #[test]
    fn cbs_threshold_filters_single_block_coincidences() {
        // min_common_blocks = 2: sharing one token is not enough.
        let mut b = StreamingBlocker::new(&small_token(100, 2)).unwrap();
        assert!(b.admit(0, &vals(&["alice smith"])).is_empty());
        assert!(b.admit(1, &vals(&["bob smith"])).is_empty(), "one shared");
        let c = b.admit(2, &vals(&["alice smith"]));
        assert_eq!(c, vec![0], "shares alice+smith(+full) with 0 only");
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn purged_blocks_stop_producing_candidates() {
        // max_block_size = 2: the third record sharing a key purges it.
        let mut b = StreamingBlocker::new(&small_token(2, 1)).unwrap();
        assert!(b.admit(0, &vals(&["common"])).is_empty());
        assert_eq!(b.admit(1, &vals(&["common"])), vec![0]);
        // This admission fills the block past 2 and purges it…
        assert_eq!(b.admit(2, &vals(&["common"])), vec![0, 1]);
        // …so later records see nothing through it.
        assert!(b.admit(3, &vals(&["common"])).is_empty());
    }

    #[test]
    fn admit_order_is_deterministic_and_sorted() {
        let mut b = StreamingBlocker::new(&small_token(100, 1)).unwrap();
        for rid in 0..20 {
            b.admit(rid, &vals(&["shared key"]));
        }
        let c = b.admit(20, &vals(&["shared key"]));
        assert_eq!(c, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn json_roundtrip_preserves_future_admissions() {
        let scheme = small_token(2, 1);
        let mut live = StreamingBlocker::new(&scheme).unwrap();
        for (rid, text) in [(0, "aa bb"), (1, "aa cc"), (2, "aa dd"), (3, "ee ff")] {
            live.admit(rid, &vals(&[text]));
        }
        let dump = live.to_json().to_string_compact();
        let mut restored =
            StreamingBlocker::from_json(&scheme, &hera_types::json::parse(&dump).unwrap()).unwrap();
        assert_eq!(restored.to_json().to_string_compact(), dump, "fixpoint");
        assert_eq!(restored.len(), live.len());
        let a = live.admit(9, &vals(&["aa bb ee"]));
        let b = restored.admit(9, &vals(&["aa bb ee"]));
        assert_eq!(a, b, "restored blocker admits identically");
    }

    /// Sharing one block of the two the floor asks for returns nothing,
    /// and leaves nothing behind for the next admission to count on.
    #[test]
    fn accumulator_is_clean_after_an_admission_that_returned_nothing() {
        let mut b = StreamingBlocker::new(&small_token(100, 2)).unwrap();
        b.admit(0, &vals(&["alice smith"]));
        b.admit(7, &vals(&["carol smith"]));
        assert!(b.admit(3, &vals(&["bob smith"])).is_empty());
        assert!(b.counts.len() > 7, "both co-members were counted");
        assert!(b.counts.iter().all(|&c| c == 0));
        assert!(b.touched.is_empty());
        assert_eq!(b.admit(9, &vals(&["dave smith", "bob"])), vec![3]);
        assert_eq!(b.max_member(), Some(9));
    }

    /// Recounts co-occurrence from the retained blocks, one scan of the
    /// visited members per member.
    struct Oracle {
        blocks: std::collections::BTreeMap<u64, Block>,
        meta: MetaBlocking,
    }

    impl Oracle {
        fn admit(&mut self, rid: u32, keys: &[u64]) -> Vec<u32> {
            let mut visited: Vec<u32> = Vec::new();
            for &k in keys {
                let block = self.blocks.entry(k).or_insert_with(|| Some(Vec::new()));
                let Some(members) = block else { continue };
                visited.extend(members.iter());
                members.push(rid);
                if members.len() > self.meta.max_block_size {
                    *block = None;
                }
            }
            let shared = |m: u32| visited.iter().filter(|&&v| v == m).count();
            let floor = self.meta.min_common_blocks.max(1) as usize;
            let mut out: Vec<u32> = visited
                .iter()
                .copied()
                .filter(|&m| shared(m) >= floor)
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Random streams over a vocabulary small enough that blocks
        /// outgrow `max_block_size`, with rids out of order, far apart
        /// and admitted twice, and a snapshot round trip somewhere in
        /// the middle: every admission returns what recounting the
        /// retained blocks gives.
        #[test]
        fn admissions_equal_a_recount_of_the_retained_blocks(
            stream in proptest::collection::vec(
                (prop_oneof![0u32..12, 0u32..12, 0u32..3000], "[a-e ]{0,7}", "[a-c]{0,2}"),
                0..40,
            ),
            max_block_size in 1usize..7,
            min_common_blocks in 1u32..4,
            cut in 0usize..40,
        ) {
            let scheme = small_token(max_block_size, min_common_blocks);
            let mut blocker = StreamingBlocker::new(&scheme).unwrap();
            let mut oracle = Oracle {
                blocks: Default::default(),
                meta: blocker.meta,
            };
            for (step, (rid, a, b)) in stream.iter().enumerate() {
                if step == cut {
                    let dump = blocker.to_json().to_string_compact();
                    let json = hera_types::json::parse(&dump).unwrap();
                    blocker = StreamingBlocker::from_json(&scheme, &json).unwrap();
                }
                let values = vals(&[a.as_str(), b.as_str()]);
                let expected = oracle.admit(*rid, &blocker.keys_of(&values));
                prop_assert_eq!(blocker.admit(*rid, &values), expected, "step {}", step);
                prop_assert!(blocker.touched.is_empty());
                prop_assert!(blocker.counts.iter().all(|&c| c == 0));
            }
        }
    }

    #[test]
    fn from_json_rejects_none_scheme() {
        let dump = StreamingBlocker::new(&small_token(10, 1))
            .unwrap()
            .to_json()
            .to_string_compact();
        let err = StreamingBlocker::from_json(
            &BlockingScheme::None,
            &hera_types::json::parse(&dump).unwrap(),
        )
        .err()
        .expect("None scheme must be rejected");
        assert!(matches!(err, HeraError::InvalidConfig(_)), "{err}");
    }
}
