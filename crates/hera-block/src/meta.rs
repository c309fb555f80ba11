//! Meta-blocking: block purging and block-graph edge pruning.
//!
//! Raw blocking collections are noisy — stop-word-like keys produce huge
//! blocks that are all cost and no signal, and a single shared rare key
//! can still be coincidence. Meta-blocking treats the collection as a
//! graph (records are nodes, an edge per co-blocked pair weighted by how
//! many blocks the pair shares) and keeps only the edges worth
//! comparing:
//!
//! * **Block purging** drops blocks larger than `max_block_size` before
//!   any pair is enumerated (their pair cost is quadratic in block size
//!   while their evidence value per pair is lowest).
//! * **CBS weighting + pruning** counts, for each surviving pair, the
//!   number of common blocks (the CBS scheme) and keeps pairs with
//!   weight `≥ min_common_blocks`.

use rustc_hash::FxHashMap;

/// Meta-blocking parameters, shared by every scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetaBlocking {
    /// Purge blocks with more records than this before pair enumeration.
    pub max_block_size: usize,
    /// Keep only record pairs sharing at least this many retained blocks
    /// (CBS weight threshold; 1 disables the filter).
    pub min_common_blocks: u32,
}

impl Default for MetaBlocking {
    fn default() -> Self {
        Self {
            max_block_size: 100,
            min_common_blocks: 2,
        }
    }
}

/// Counters produced while pruning a block collection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PruneCounters {
    /// Blocks holding ≥ 2 records (only those can produce pairs).
    pub blocks: u64,
    /// Of those, blocks dropped by the size purge.
    pub blocks_purged: u64,
    /// Distinct record pairs co-blocked in retained blocks.
    pub pairs_considered: u64,
    /// Pairs surviving edge pruning (the blocker's output).
    pub pairs_emitted: u64,
}

/// Prunes a token → members block map into the surviving record pairs.
///
/// Deterministic regardless of map iteration order: the pair multiset is
/// sorted before counting, and every counter is an order-independent
/// total.
pub(crate) fn prune_blocks(
    blocks: &FxHashMap<u64, Vec<u32>>,
    meta: &MetaBlocking,
) -> (Vec<(u32, u32)>, PruneCounters) {
    let mut c = PruneCounters::default();
    // One entry per (pair, block) co-occurrence, packed for cheap sorting.
    let mut cooc: Vec<u64> = Vec::new();
    for members in blocks.values() {
        if members.len() < 2 {
            continue;
        }
        c.blocks += 1;
        if members.len() > meta.max_block_size {
            c.blocks_purged += 1;
            continue;
        }
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                cooc.push(((lo as u64) << 32) | hi as u64);
            }
        }
    }
    cooc.sort_unstable();

    // One run-length pass: each run is one distinct pair, its length the
    // pair's CBS weight; keep the pairs clearing the threshold.
    let threshold = meta.min_common_blocks.max(1) as u64;
    let mut kept: Vec<(u32, u32)> = Vec::new();
    let mut i = 0;
    while i < cooc.len() {
        let mut j = i + 1;
        while j < cooc.len() && cooc[j] == cooc[i] {
            j += 1;
        }
        c.pairs_considered += 1;
        if (j - i) as u64 >= threshold {
            let key = cooc[i];
            kept.push(((key >> 32) as u32, (key & 0xFFFF_FFFF) as u32));
        }
        i = j;
    }
    c.pairs_emitted = kept.len() as u64;
    (kept, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(blocks: &[&[u32]]) -> FxHashMap<u64, Vec<u32>> {
        blocks
            .iter()
            .enumerate()
            .map(|(i, m)| (i as u64, m.to_vec()))
            .collect()
    }

    #[test]
    fn singleton_blocks_produce_nothing() {
        let blocks = map(&[&[1], &[2]]);
        let (pairs, c) = prune_blocks(&blocks, &MetaBlocking::default());
        assert!(pairs.is_empty());
        assert_eq!(c.blocks, 0);
    }

    #[test]
    fn oversized_blocks_are_purged() {
        let meta = MetaBlocking {
            max_block_size: 3,
            min_common_blocks: 1,
        };
        let blocks = map(&[&[0, 1, 2, 3, 4], &[5, 6]]);
        let (pairs, c) = prune_blocks(&blocks, &meta);
        assert_eq!(pairs, vec![(5, 6)]);
        assert_eq!(c.blocks, 2);
        assert_eq!(c.blocks_purged, 1);
    }

    #[test]
    fn cbs_threshold_prunes_single_cooccurrence() {
        let meta = MetaBlocking {
            max_block_size: 100,
            min_common_blocks: 2,
        };
        // (1,2) share two blocks, (1,3) only one.
        let blocks = map(&[&[1, 2, 3], &[1, 2]]);
        let (pairs, c) = prune_blocks(&blocks, &meta);
        assert_eq!(pairs, vec![(1, 2)]);
        assert_eq!(c.pairs_considered, 3);
        assert_eq!(c.pairs_emitted, 1);
    }

    #[test]
    fn output_is_sorted_and_normalized() {
        let meta = MetaBlocking {
            max_block_size: 100,
            min_common_blocks: 1,
        };
        let blocks = map(&[&[9, 3, 7], &[1, 2]]);
        let (pairs, _) = prune_blocks(&blocks, &meta);
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pairs, sorted);
        assert!(pairs.iter().all(|&(a, b)| a < b));
    }
}
