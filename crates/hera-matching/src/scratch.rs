//! Reusable working memory for the matching pipeline.
//!
//! The matching pipeline and the greedy matcher borrow a [`MatchScratch`]
//! instead of allocating their intermediate buffers (edge lists, degree maps, union–find arrays, component
//! graphs, the Hungarian cost matrix and potentials). A caller that
//! verifies many record pairs — HERA's hottest loop — reuses one scratch
//! per worker and reaches zero steady-state allocation inside the
//! solvers. Results are identical to the allocating entry points: the
//! scratch only recycles capacity, never state (every buffer is cleared
//! or fully overwritten before use).

use crate::graph::{BipartiteGraph, Edge};
use rustc_hash::{FxHashMap, FxHashSet};

/// Reusable buffers for
/// [`greedy_matching_into`](crate::greedy_matching_into) and
/// [`max_weight_matching_observed`](crate::max_weight_matching_observed).
///
/// Create one per worker thread and pass it to every call; the first few
/// calls grow the buffers to the working-set size and later calls run
/// allocation-free.
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// Sorted edge list of the graph under consideration.
    pub(crate) edges: Vec<Edge>,
    /// Left-node degrees (simplification's Theorem-1 test).
    pub(crate) deg_l: FxHashMap<u32, u32>,
    /// Right-node degrees.
    pub(crate) deg_r: FxHashMap<u32, u32>,
    /// `(side, node)` → union–find slot, for component decomposition.
    pub(crate) key_of: FxHashMap<(bool, u32), usize>,
    /// Union–find parent array over interned nodes.
    pub(crate) parent: Vec<usize>,
    /// Component root → pool index, in first-seen (deterministic) order.
    pub(crate) comp_of_root: FxHashMap<usize, usize>,
    /// Pooled per-component graphs; only the prefix assigned in the
    /// current call is meaningful.
    pub(crate) comps: Vec<BipartiteGraph>,
    /// Greedy matching's occupied left nodes.
    pub(crate) used_l: FxHashSet<u32>,
    /// Greedy matching's occupied right nodes.
    pub(crate) used_r: FxHashSet<u32>,
    /// Hungarian-algorithm working memory.
    pub(crate) km: KmScratch,
}

impl MatchScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Kuhn–Munkres working memory: compacted node lists, the flat
/// `(n+1) × (m+1)` cost matrix, and the potential/augmentation arrays of
/// the e-maxx formulation.
#[derive(Debug, Default)]
pub(crate) struct KmScratch {
    pub(crate) lefts: Vec<u32>,
    pub(crate) rights: Vec<u32>,
    pub(crate) cost: Vec<f64>,
    pub(crate) u: Vec<f64>,
    pub(crate) v: Vec<f64>,
    pub(crate) p: Vec<usize>,
    pub(crate) way: Vec<usize>,
    pub(crate) minv: Vec<f64>,
    pub(crate) used: Vec<bool>,
}
