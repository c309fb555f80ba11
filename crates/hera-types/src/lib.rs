//! Core data model for HERA — entity resolution on heterogeneous records.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Value`] — a single attribute value (string, integer, float, or null).
//! * [`Schema`] / [`SchemaRegistry`] — per-source schemas whose attributes are
//!   interned into globally unique [`SourceAttrId`]s. Two sources may both
//!   call an attribute `"name"`, yet their attributes remain distinct until
//!   HERA's schema-based method (or ground truth) says otherwise.
//! * [`Record`] — a tuple under one source schema.
//! * [`Dataset`] — a heterogeneous record collection plus its
//!   [`GroundTruth`] (entity labels per record, canonical identity per
//!   source attribute).
//! * [`Label`] — the `(rid, fid, vid)` coordinate of a value inside a
//!   (super) record, exactly as used by the paper's value-pair index
//!   (Definition 6).
//! * [`parallel`] — the one ordered fan-out every parallel stage of the
//!   workspace runs on (std-only, so it sits at the bottom of the crate
//!   graph).
//!
//! The paper's notation maps onto this crate as follows: a record set
//! `R = {r_1 .. r_n}` is a [`Dataset`]; the schema `s_i` of `r_i` with
//! attributes `a^i_1 .. a^i_{k_i}` is a [`Schema`] whose attributes carry
//! [`SourceAttrId`]s; and the *distinct attribute* count of §VI (Table I) is
//! the number of [`CanonAttrId`] equivalence classes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csv;
mod dataset;
mod error;
mod ids;
pub mod json;
pub mod parallel;
mod record;
mod schema;
mod value;

pub use csv::CsvImporter;
pub use dataset::{motivating_example, Dataset, DatasetBuilder, GroundTruth};
pub use error::{HeraError, Result};
pub use ids::{CanonAttrId, EntityId, Label, RecordId, SchemaId, SourceAttrId};
pub use record::Record;
pub use schema::{Schema, SchemaRegistry, SourceAttr};
pub use value::{Value, ValueKind};
