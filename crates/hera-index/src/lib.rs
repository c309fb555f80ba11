//! HERA's value-pair index (§III) and everything built on it.
//!
//! The index stores every cross-record value pair with similarity `≥ ξ`,
//! logically sorted by `(rid₁, rid₂, sim desc)` exactly as Definition 6
//! prescribes, and supports the three operations the paper needs:
//!
//! * **Group lookup** (`𝒱ᵢⱼ`) — all similar value pairs of a record pair,
//!   in `O(log |𝒱| + |𝒱ᵢⱼ|)`;
//! * **Candidate generation** (Algorithm 1) — upper/lower bounds of
//!   `Sim(Rᵢ, Rⱼ)` from the *refined field set* `𝒱′ᵢⱼ`, in two flavors
//!   ([`BoundMode`]): the paper's literal Algorithm 1 and a provably sound
//!   variant (see DESIGN.md §Faithfulness);
//! * **Merge maintenance** (§III-B2) — when `Rᵢ ⊕ Rⱼ → R_k`, intra-pairs
//!   are deleted, labels are rewritten through the caller's remap, and
//!   groups are re-homed under `k`, in `O(|𝒱̂ᵢⱼ| log |𝒱|)`.
//!
//! Two physical layouts implement the same logical structure:
//! [`ValuePairIndex`] (sorted partner rows over a group slab, the
//! production structure) and [`FlatIndex`] (the paper's literal flat
//! sorted array probed by nested binary search, kept as the differential
//! oracle and for the bench suite).
//! [`UnionFind`] tracks record → super-record identity (Prop. 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod flat;
mod index;
mod union_find;

pub use bounds::{refined_field_set_into, BoundMode, Bounds, BoundsScratch, FieldPairSim};
pub use flat::FlatIndex;
pub use index::{rank_candidates, IndexStats, RankedCandidate, ValuePairIndex};
pub use union_find::{Grouping, UnionFind};

pub use hera_join::ValuePair;
