//! Streaming (incremental) blocking — the batch blocker's semantics
//! maintained under record insertions, for the session ingest path.
//!
//! The batch [`crate::Blocker`] sees the whole dataset at once: it can
//! purge a block by its *final* size and count a pair's common blocks
//! over the whole collection. A streaming session sees one record at a
//! time, so [`StreamingBlocker`] keeps the block map live and answers, per
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
//!   the blocks retained *at admission time*).
//!
//! An admission costs its visits: one counter bump per member of every
//! retained block the record falls in. The counters are a table indexed
//! by rid that the blocker keeps across admissions — rids are dense in a
//! session; a standalone blocker's table grows to the largest member it
//! visits — a rid joins the output the moment its count reaches the CBS
//! floor, and the table is zeroed again through the list of rids the
//! admission touched. No map is built per record; besides the output, an
//! admission allocates only the spill row of a block that gets its second
//! member (below).
//!
//! A block costs what it holds. The key map stores 8 bytes per block
//! beside its 8-byte key: the first member inline, and where a later one
//! arrived, the index of a spill row holding the members after the first
//! (a 24-byte row header plus 4 bytes per member). A purged block is a
//! marker and its spill row goes back to a free list, its members
//! dropped. Most blocks never see a second member, and those allocate
//! nothing of their own.
//!
//! The blocker is session state: it serializes into the session
//! snapshot ([`StreamingBlocker::to_json`]) so a restored session
//! admits future records against exactly the blocks the checkpointed
//! one held.

use crate::meta::MetaBlocking;
use crate::{keys_for, BlockingScheme};
use hera_types::json::Json;
use hera_types::{HeraError, Result, Value};
use rustc_hash::FxHashMap;
use std::collections::hash_map::Entry;

/// `Block::rest` of a block with one member.
const NO_ROW: u32 = u32::MAX;
/// `Block::rest` of a purged block.
const PURGED_ROW: u32 = u32::MAX - 1;

/// One block in the key map: the records holding its key, in arrival
/// order — `first`, then the spill row `rest` names — or a purge marker
/// once the block outgrew `max_block_size` (members dropped to bound
/// memory).
#[derive(Clone, Copy)]
struct Block {
    /// The first member; meaningless once purged.
    first: u32,
    /// The spill row of the later members, [`NO_ROW`] or [`PURGED_ROW`].
    rest: u32,
}

/// A block is two rids in the key map, however many members it has: the
/// compile-time twin of the "Compact streaming state" CI step, which
/// refuses a block that is an optional member vector again.
const _: () = assert!(std::mem::size_of::<Block>() == 8);

impl Block {
    const PURGED: Self = Self {
        first: 0,
        rest: PURGED_ROW,
    };

    fn solo(first: u32) -> Self {
        Self {
            first,
            rest: NO_ROW,
        }
    }

    fn is_purged(self) -> bool {
        self.rest == PURGED_ROW
    }

    /// The members after the first.
    fn later(self, spill: &[Vec<u32>]) -> &[u32] {
        match self.rest {
            NO_ROW | PURGED_ROW => &[],
            row => &spill[row as usize],
        }
    }
}

/// Incremental blocking state — see the module docs for semantics.
pub struct StreamingBlocker {
    scheme: BlockingScheme,
    meta: MetaBlocking,
    /// blocking key → its block.
    blocks: FxHashMap<u64, Block>,
    /// The members after the first of every block that holds more than
    /// one, by `Block::rest`; a row on `free` is empty.
    spill: Vec<Vec<u32>>,
    /// Spill rows a purge emptied, for the next block that spills.
    free: Vec<u32>,
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
        Some(Self::with_meta(*scheme, scheme.meta()?))
    }

    /// An empty blocker under `meta` (the scheme's own limits, or a
    /// test's smaller ones).
    fn with_meta(scheme: BlockingScheme, meta: MetaBlocking) -> Self {
        Self {
            scheme,
            meta,
            blocks: FxHashMap::default(),
            spill: Vec::new(),
            free: Vec::new(),
            records: 0,
            counts: Vec::new(),
            touched: Vec::new(),
        }
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
    /// of rids touched — nothing but the output and a block's first
    /// spill row is allocated.
    pub fn admit(&mut self, rid: u32, values: &[Value]) -> Vec<u32> {
        self.records += 1;
        let keys = keys_for(self.scheme, values);
        let floor = self.meta.min_common_blocks.max(1);
        let max_block_size = self.meta.max_block_size;
        let mut out = Vec::new();
        for &k in &keys {
            let block = match self.blocks.entry(k) {
                Entry::Vacant(slot) => {
                    // A block's first member: nothing to count.
                    slot.insert(Block::solo(rid));
                    continue;
                }
                Entry::Occupied(slot) => slot.into_mut(),
            };
            if block.is_purged() {
                continue; // no candidates, no growth
            }
            let later = block.later(&self.spill);
            for &m in std::iter::once(&block.first).chain(later) {
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
            // The block now holds `later.len() + 2` members.
            if later.len() + 2 > max_block_size {
                if block.rest != NO_ROW {
                    self.spill[block.rest as usize] = Vec::new();
                    self.free.push(block.rest);
                }
                *block = Block::PURGED;
            } else if block.rest == NO_ROW {
                block.rest = spill_row(&mut self.spill, &mut self.free, vec![rid]);
            } else {
                self.spill[block.rest as usize].push(rid);
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
        let firsts = self.blocks.values().filter(|b| !b.is_purged());
        let later = self.spill.iter().flatten();
        firsts.map(|b| b.first).chain(later.copied()).max()
    }

    /// Encodes the block map (sorted by key for byte-stable snapshots):
    /// live blocks with their members in arrival order, purged blocks as
    /// bare keys. The scheme itself is *not* serialized — it is config,
    /// and the restoring session supplies it (mismatches are the
    /// session's config-compatibility check to make).
    pub fn to_json(&self) -> Json {
        let mut live: Vec<(u64, Block)> = Vec::new();
        let mut purged: Vec<u64> = Vec::new();
        for (&k, &b) in &self.blocks {
            if b.is_purged() {
                purged.push(k);
            } else {
                live.push((k, b));
            }
        }
        live.sort_unstable_by_key(|&(k, _)| k);
        purged.sort_unstable();
        let member = |&m: &u32| Json::Int(m as i64);
        Json::Obj(vec![
            ("records".into(), Json::Int(self.records as i64)),
            (
                "blocks".into(),
                Json::Arr(
                    live.into_iter()
                        .map(|(k, b)| {
                            let members = std::iter::once(&b.first).chain(b.later(&self.spill));
                            Json::Obj(vec![
                                ("key".into(), Json::Str(format!("{k:016x}"))),
                                ("members".into(), Json::Arr(members.map(member).collect())),
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

    /// Loads the blocks of a blocker checkpointed by
    /// [`StreamingBlocker::to_json`] into this empty one, which must have
    /// the checkpointing blocker's scheme for the continuation to be
    /// equivalent.
    ///
    /// Member rids are taken as they come — a standalone blocker may
    /// number its records sparsely; a caller that knows how many records
    /// there are checks [`StreamingBlocker::max_member`] against it.
    ///
    /// # Errors
    /// [`HeraError::Corrupt`] on malformed keys and on a live block with
    /// no members (admission adds a member before it can purge, so no
    /// blocker ever wrote one).
    pub fn load(mut self, json: &Json) -> Result<Self> {
        let records = json.expect("records")?.as_i64()?;
        if records < 0 {
            return Err(HeraError::Corrupt("negative blocker record count".into()));
        }
        self.records = records as u64;
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
            if members.len() > self.meta.max_block_size {
                return Err(HeraError::Corrupt(format!(
                    "live block {key:016x} exceeds max_block_size"
                )));
            }
            let Some((&first, later)) = members.split_first() else {
                return Err(HeraError::Corrupt(format!(
                    "live block {key:016x} has no members"
                )));
            };
            let mut block = Block::solo(first);
            if !later.is_empty() {
                block.rest = spill_row(&mut self.spill, &mut self.free, later.to_vec());
            }
            if self.blocks.insert(key, block).is_some() {
                return Err(HeraError::Corrupt(format!(
                    "duplicate blocking key {key:016x}"
                )));
            }
        }
        for p in json.expect("purged")?.as_arr()? {
            let key = parse_key(p)?;
            if self.blocks.insert(key, Block::PURGED).is_some() {
                return Err(HeraError::Corrupt(format!(
                    "duplicate blocking key {key:016x}"
                )));
            }
        }
        Ok(self)
    }
}

/// Files `members` in a spill row — one a purge freed, else a new one —
/// and returns its index.
fn spill_row(spill: &mut Vec<Vec<u32>>, free: &mut Vec<u32>, members: Vec<u32>) -> u32 {
    match free.pop() {
        Some(row) => {
            spill[row as usize] = members;
            row
        }
        None => {
            let row = u32::try_from(spill.len())
                .ok()
                .filter(|&row| row < PURGED_ROW)
                .expect("fewer than 2^32 - 2 blocks spill");
            spill.push(members);
            row
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(texts: &[&str]) -> Vec<Value> {
        texts.iter().map(|t| Value::from(*t)).collect()
    }

    /// A token blocker under limits small enough for a test to reach.
    fn small_token(max_block_size: usize, min_common_blocks: u32) -> StreamingBlocker {
        let meta = MetaBlocking {
            max_block_size,
            min_common_blocks,
        };
        StreamingBlocker::with_meta(BlockingScheme::Token, meta)
    }

    /// Decodes `dump` into a fresh blocker under `blocker`'s limits.
    fn reload(blocker: &StreamingBlocker, dump: &str) -> Result<StreamingBlocker> {
        let json = hera_types::json::parse(dump).unwrap();
        StreamingBlocker::with_meta(blocker.scheme, blocker.meta).load(&json)
    }

    #[test]
    fn none_scheme_has_no_blocker() {
        assert!(StreamingBlocker::new(&BlockingScheme::None).is_none());
    }

    #[test]
    fn cbs_threshold_filters_single_block_coincidences() {
        // min_common_blocks = 2: sharing one token is not enough.
        let mut b = small_token(100, 2);
        assert!(b.admit(0, &vals(&["alice smith"])).is_empty());
        assert!(b.admit(1, &vals(&["bob smith"])).is_empty(), "one shared");
        let c = b.admit(2, &vals(&["alice smith"]));
        assert_eq!(c, vec![0], "shares alice+smith(+full) with 0 only");
        assert_eq!(b.records, 3);
    }

    #[test]
    fn purged_blocks_stop_producing_candidates() {
        // max_block_size = 2: the third record sharing a key purges it.
        let mut b = small_token(2, 1);
        assert!(b.admit(0, &vals(&["common"])).is_empty());
        assert_eq!(b.admit(1, &vals(&["common"])), vec![0]);
        // This admission fills the block past 2 and purges it…
        assert_eq!(b.admit(2, &vals(&["common"])), vec![0, 1]);
        // …so later records see nothing through it.
        assert!(b.admit(3, &vals(&["common"])).is_empty());
    }

    #[test]
    fn admit_order_is_deterministic_and_sorted() {
        let mut b = small_token(100, 1);
        for rid in 0..20 {
            b.admit(rid, &vals(&["shared key"]));
        }
        let c = b.admit(20, &vals(&["shared key"]));
        assert_eq!(c, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn json_roundtrip_preserves_future_admissions() {
        let mut live = small_token(2, 1);
        for (rid, text) in [(0, "aa bb"), (1, "aa cc"), (2, "aa dd"), (3, "ee ff")] {
            live.admit(rid, &vals(&[text]));
        }
        let dump = live.to_json().to_string_compact();
        let mut restored = reload(&live, &dump).unwrap();
        assert_eq!(restored.to_json().to_string_compact(), dump, "fixpoint");
        assert_eq!(restored.records, live.records);
        let a = live.admit(9, &vals(&["aa bb ee"]));
        let b = restored.admit(9, &vals(&["aa bb ee"]));
        assert_eq!(a, b, "restored blocker admits identically");
    }

    /// Sharing one block of the two the floor asks for returns nothing,
    /// and leaves nothing behind for the next admission to count on.
    #[test]
    fn accumulator_is_clean_after_an_admission_that_returned_nothing() {
        let mut b = small_token(100, 2);
        b.admit(0, &vals(&["alice smith"]));
        b.admit(7, &vals(&["carol smith"]));
        assert!(b.admit(3, &vals(&["bob smith"])).is_empty());
        assert!(b.counts.len() > 7, "both co-members were counted");
        assert!(b.counts.iter().all(|&c| c == 0));
        assert!(b.touched.is_empty());
        assert_eq!(b.admit(9, &vals(&["dave smith", "bob"])), vec![3]);
        assert_eq!(b.max_member(), Some(9));
    }

    /// A block as the oracle keeps it: the records holding its key, in
    /// arrival order, or `None` once purged.
    type Block = Option<Vec<u32>>;

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
            let mut blocker = small_token(max_block_size, min_common_blocks);
            let mut oracle = Oracle {
                blocks: Default::default(),
                meta: blocker.meta,
            };
            for (step, (rid, a, b)) in stream.iter().enumerate() {
                if step == cut {
                    let dump = blocker.to_json().to_string_compact();
                    blocker = reload(&blocker, &dump).unwrap();
                }
                let values = vals(&[a.as_str(), b.as_str()]);
                let expected = oracle.admit(*rid, &keys_for(blocker.scheme, &values));
                prop_assert_eq!(blocker.admit(*rid, &values), expected, "step {}", step);
                prop_assert!(blocker.touched.is_empty());
                prop_assert!(blocker.counts.iter().all(|&c| c == 0));
            }
        }
    }

    /// Admission adds a member before it can purge, so no blocker ever
    /// wrote a live block without one; restore refuses it by key.
    #[test]
    fn load_rejects_a_live_block_with_no_members() {
        let dump =
            r#"{"records":1,"blocks":[{"key":"00000000000000ab","members":[]}],"purged":[]}"#;
        let json = hera_types::json::parse(dump).unwrap();
        let err = StreamingBlocker::new(&BlockingScheme::Token)
            .unwrap()
            .load(&json)
            .err()
            .expect("a live block with no members must be rejected");
        assert!(matches!(err, HeraError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("00000000000000ab"), "{err}");
    }

    /// Blocks of one, two and more members, a purged one and a spill row
    /// a purge freed and the next spilling block took: every live block
    /// writes its members in arrival order, and the largest member is
    /// found inline or spilled.
    #[test]
    fn members_are_written_in_arrival_order_inline_or_spilled() {
        let mut b = small_token(3, 1);
        b.admit(5, &vals(&["aa"]));
        b.admit(2, &vals(&["bb"]));
        b.admit(9, &vals(&["bb"]));
        for rid in [1, 3, 4, 6] {
            b.admit(rid, &vals(&["cc"]));
        }
        b.admit(8, &vals(&["dd"]));
        b.admit(7, &vals(&["dd"]));
        assert_eq!(b.spill.len(), 2, "the purged block's row was taken again");
        let members = |b: &StreamingBlocker, text: &str| {
            let key = format!("{:016x}", keys_for(b.scheme, &vals(&[text]))[0]);
            let json = b.to_json();
            let blocks = json.get("blocks").unwrap().as_arr().unwrap();
            let block = blocks
                .iter()
                .find(|block| block.get("key").unwrap().as_str().unwrap() == key);
            block.map(|block| {
                let members = block.get("members").unwrap().as_arr().unwrap();
                members
                    .iter()
                    .map(|m| m.as_u32().unwrap())
                    .collect::<Vec<u32>>()
            })
        };
        assert_eq!(members(&b, "aa"), Some(vec![5]));
        assert_eq!(members(&b, "bb"), Some(vec![2, 9]));
        assert_eq!(members(&b, "cc"), None, "purged");
        assert_eq!(members(&b, "dd"), Some(vec![8, 7]));
        assert_eq!(b.max_member(), Some(9));
        b.admit(11, &vals(&["aa"]));
        assert_eq!(b.max_member(), Some(11));
    }
}
