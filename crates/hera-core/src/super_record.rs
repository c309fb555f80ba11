//! Super records (Definition 2) and the merge operation `⊕` (Example 2).
//!
//! # What a super record costs
//!
//! A super record has one of two shapes, and readers never see which:
//! [`SuperRecord::field`] answers the same [`FieldRef`] — a field's values
//! and source attributes — in both.
//!
//! - *Base*: the record has absorbed nothing, and is what Definition 2
//!   calls the simplest super record, one value per field. It stays the
//!   `Vec<Value>` it arrived in, a null marking an empty field, beside an
//!   `Arc` of its schema's attribute ids that every base record of the
//!   schema shares: one allocation per record, the value vector the
//!   caller handed in, and its members are `[rid]` without storage.
//! - *Merged*: the record has absorbed at least one other. Each field owns
//!   a value vector and an attribute vector, and the record owns its
//!   member list: up to `2 + 2 × fields` allocations, the price of fields that
//!   grow. [`SuperRecord::absorb`] builds this shape at a record's first
//!   merge.
//!
//! Per field, the base shape stores one 24-byte value in the record's one
//! vector; the merged shape a 48-byte field that points at a one-value
//! and a one-attribute allocation of their own. On the 5 000-record
//! token-blocked scale stream (seed 51), where 3 609 of the 4 241 super
//! records left at the end have absorbed nothing, a counting allocator
//! puts the whole session at 9.5 MB in 27 051 live allocations, against
//! 11.0 MB in 84 766 when every record took the merged shape on arrival.

use hera_types::json::Json;
use hera_types::{Dataset, HeraError, Label, Record, Result, Schema, SourceAttrId, Value};
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::Arc;

/// One field of a super record as a reader sees it, whichever shape the
/// record has: the set of values observed for (what HERA believes is) one
/// attribute of the entity, plus the source attributes those values came
/// from.
///
/// The attribute provenance is *not* part of the paper's Definition 2, but
/// the schema-based method (§IV-B) needs to know which source attributes a
/// field aggregates in order to cast votes; tracking it here keeps votes
/// exact under arbitrary merge orders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldRef<'a> {
    /// Observed values (`f_i = {v_1, v_2, …}`), deduplicated by
    /// [`Value::same`] as in Fig. 2 (the two `John`s of `r1`/`r6` merge;
    /// `Electronic`/`electronics` are both kept); empty for a field that
    /// only nulls reached.
    pub values: &'a [Value],
    /// Source attributes whose values were folded into this field.
    pub attrs: &'a [SourceAttrId],
}

/// One field of a merged super record, owning what [`FieldRef`] lends.
#[derive(Debug, Clone)]
struct Field {
    values: Vec<Value>,
    attrs: Vec<SourceAttrId>,
}

impl Field {
    /// True if the field already stores an equal value.
    fn position_of_same(&self, v: &Value) -> Option<usize> {
        self.values.iter().position(|x| x.same(v))
    }

    fn add_attr(&mut self, attr: SourceAttrId) {
        if !self.attrs.contains(&attr) {
            self.attrs.push(attr);
        }
    }
}

/// How a super record stores its fields; see the module docs.
#[derive(Debug, Clone)]
enum Shape {
    /// Absorbed nothing: `values[fid]` is field `fid`'s one value, or a
    /// null, and `attrs[fid]` its source attribute. Equal lengths.
    Base {
        values: Vec<Value>,
        attrs: Arc<[SourceAttrId]>,
    },
    /// Absorbed at least one record; `members` ascending.
    Merged {
        fields: Vec<Field>,
        members: Vec<u32>,
    },
}

/// A super record `R = {f_1 … f_|R|}` (Definition 2).
///
/// A base record is the simplest super record: one value per field. Value
/// coordinates follow the index's label convention: value `vid` of field
/// `fid` of record `rid` is `self.field(fid).values[vid]`.
///
/// Equality compares content — rid, fields and members — not shape.
#[derive(Debug, Clone)]
pub struct SuperRecord {
    /// Record id — after merges, the union–find representative.
    pub rid: u32,
    shape: Shape,
}

impl PartialEq for SuperRecord {
    fn eq(&self, other: &Self) -> bool {
        self.rid == other.rid
            && self.members() == other.members()
            && self.fields().eq(other.fields())
    }
}

/// The attribute lists base-shaped super records share: one `Arc` per
/// distinct list, which is one per schema.
#[derive(Debug, Default)]
pub(crate) struct SharedAttrs {
    lists: FxHashSet<Arc<[SourceAttrId]>>,
    /// Buffer for [`SharedAttrs::of_schema`]'s lookup key.
    ids: Vec<SourceAttrId>,
}

impl SharedAttrs {
    /// `schema`'s attribute ids, in order, shared.
    pub(crate) fn of_schema(&mut self, schema: &Schema) -> Arc<[SourceAttrId]> {
        let mut ids = std::mem::take(&mut self.ids);
        ids.clear();
        ids.extend(schema.attrs.iter().map(|a| a.id));
        let shared = self.share(&ids);
        self.ids = ids;
        shared
    }

    /// `attrs`, shared with every list equal to it handed out before.
    pub(crate) fn share(&mut self, attrs: &[SourceAttrId]) -> Arc<[SourceAttrId]> {
        if let Some(shared) = self.lists.get(attrs) {
            return Arc::clone(shared);
        }
        let shared: Arc<[SourceAttrId]> = attrs.into();
        self.lists.insert(Arc::clone(&shared));
        shared
    }
}

impl SuperRecord {
    /// Lifts a base record, resolving each field's source attribute
    /// through the dataset's schema registry. Null fields are kept (they
    /// occupy a fid so labels align with the base record's positions) but
    /// carry no values. The schema's attribute list is allocated for this
    /// record alone; the engine lifts every record of a dataset against
    /// one shared list per schema.
    pub fn from_record(ds: &Dataset, rec: &Record) -> Self {
        let schema = ds.registry.schema(rec.schema);
        let attrs = schema.attrs.iter().map(|a| a.id).collect();
        Self::lift(rec.id.raw(), rec.values.clone(), attrs)
    }

    /// Lifts record `rid`'s values under its schema's attribute ids — the
    /// one place a base record becomes a super record, for the batch path
    /// and the streaming one alike. The values are kept as they are.
    ///
    /// # Panics
    /// Panics unless there is one value per attribute.
    pub(crate) fn lift(rid: u32, values: Vec<Value>, attrs: Arc<[SourceAttrId]>) -> Self {
        assert_eq!(values.len(), attrs.len(), "one value per attribute");
        Self {
            rid,
            shape: Shape::Base { values, attrs },
        }
    }

    /// The values the record arrived with, one per field and a null for
    /// an empty one, while it has absorbed nothing; `None` after.
    pub(crate) fn base_values(&self) -> Option<&[Value]> {
        match &self.shape {
            Shape::Base { values, .. } => Some(values),
            Shape::Merged { .. } => None,
        }
    }

    /// Field `fid`.
    ///
    /// # Panics
    /// Panics if `fid ≥ self.size()`.
    pub fn field(&self, fid: usize) -> FieldRef<'_> {
        match &self.shape {
            Shape::Base { values, attrs } => {
                let value = &values[fid];
                FieldRef {
                    values: if value.is_null() {
                        &[]
                    } else {
                        std::slice::from_ref(value)
                    },
                    attrs: std::slice::from_ref(&attrs[fid]),
                }
            }
            Shape::Merged { fields, .. } => {
                let Field { values, attrs } = &fields[fid];
                FieldRef { values, attrs }
            }
        }
    }

    /// The fields, in fid order.
    pub fn fields(&self) -> impl ExactSizeIterator<Item = FieldRef<'_>> + '_ {
        (0..self.size()).map(|fid| self.field(fid))
    }

    /// Base records folded into this super record, ascending.
    pub fn members(&self) -> &[u32] {
        match &self.shape {
            Shape::Base { .. } => std::slice::from_ref(&self.rid),
            Shape::Merged { members, .. } => members,
        }
    }

    /// `|R|` — the field count, the denominator component of Definition 5.
    pub fn size(&self) -> usize {
        match &self.shape {
            Shape::Base { values, .. } => values.len(),
            Shape::Merged { fields, .. } => fields.len(),
        }
    }

    /// Number of fields holding at least one value. Equal to
    /// [`SuperRecord::size`] on heterogeneous data; smaller on exchanged records
    /// where nulls occupy fids. The driver uses this as Definition 5's
    /// denominator so that nulls (which carry no evidence) do not depress
    /// similarity.
    pub fn informative_size(&self) -> usize {
        self.fields().filter(|f| !f.values.is_empty()).count()
    }

    /// The value at a label (which must belong to this record).
    pub fn value(&self, label: Label) -> &Value {
        debug_assert_eq!(label.rid, self.rid);
        &self.field(label.fid as usize).values[label.vid as usize]
    }

    /// Every stored value with its label, in `(fid, vid)` order.
    pub(crate) fn labeled_values(&self) -> impl Iterator<Item = (Label, &Value)> {
        self.fields().zip(0u32..).flat_map(move |(f, fid)| {
            let labels = (0u32..).map(move |vid| Label::new(self.rid, fid, vid));
            labels.zip(f.values)
        })
    }

    /// Encodes the super record as JSON, preserving field, value, and
    /// member order exactly (labels index into these vectors, so the
    /// order *is* part of the state). Both shapes encode alike: a base
    /// record's fields each carry one attribute and its value, or none.
    pub fn to_json(&self) -> Json {
        let fields = self
            .fields()
            .map(|f| {
                Json::Obj(vec![
                    (
                        "values".into(),
                        Json::Arr(f.values.iter().map(Value::to_json).collect()),
                    ),
                    (
                        "attrs".into(),
                        Json::Arr(
                            f.attrs
                                .iter()
                                .map(|a| Json::Int(i64::from(a.raw())))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("rid".into(), Json::Int(i64::from(self.rid))),
            ("fields".into(), Json::Arr(fields)),
            (
                "members".into(),
                Json::Arr(
                    self.members()
                        .iter()
                        .map(|&m| Json::Int(i64::from(m)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes a super record from [`SuperRecord::to_json`] output. One
    /// whose members are `[rid]` comes back base-shaped, its attribute
    /// list shared through `shared`; each of its fields must then carry
    /// exactly one attribute and at most one value, or the snapshot is
    /// [`HeraError::Corrupt`].
    pub(crate) fn from_json(json: &Json, shared: &mut SharedAttrs) -> Result<Self> {
        let rid = json.expect("rid")?.as_u32()?;
        let mut fields = Vec::new();
        for f in json.expect("fields")?.as_arr()? {
            let mut values = Vec::new();
            for v in f.expect("values")?.as_arr()? {
                values.push(Value::from_json(v)?);
            }
            let mut attrs = Vec::new();
            for a in f.expect("attrs")?.as_arr()? {
                attrs.push(SourceAttrId::new(a.as_u32()?));
            }
            fields.push(Field { values, attrs });
        }
        let mut members = Vec::new();
        for m in json.expect("members")?.as_arr()? {
            members.push(m.as_u32()?);
        }
        if members != [rid] {
            let shape = Shape::Merged { fields, members };
            return Ok(Self { rid, shape });
        }
        let mut values = Vec::with_capacity(fields.len());
        let mut attrs = Vec::with_capacity(fields.len());
        for (fid, mut f) in fields.into_iter().enumerate() {
            if f.attrs.len() != 1 || f.values.len() > 1 {
                return Err(HeraError::Corrupt(format!(
                    "super record {rid} absorbed nothing, yet its field {fid} holds {} \
                     attributes and {} values",
                    f.attrs.len(),
                    f.values.len()
                )));
            }
            attrs.push(f.attrs[0]);
            values.push(f.values.pop().unwrap_or(Value::Null));
        }
        Ok(Self::lift(rid, values, shared.share(&attrs)))
    }

    /// The merged shape's fields and members, built from the base shape
    /// first if the record has absorbed nothing yet.
    fn merged_mut(&mut self) -> (&mut Vec<Field>, &mut Vec<u32>) {
        if let Shape::Base { values, attrs } = &mut self.shape {
            let fields = std::mem::take(values)
                .into_iter()
                .zip(attrs.iter())
                .map(|(v, &a)| Field {
                    values: if v.is_null() { Vec::new() } else { vec![v] },
                    attrs: vec![a],
                })
                .collect();
            let members = vec![self.rid];
            self.shape = Shape::Merged { fields, members };
        }
        match &mut self.shape {
            Shape::Merged { fields, members } => (fields, members),
            Shape::Base { .. } => unreachable!("the base shape was just replaced"),
        }
    }

    /// Merges `other` into `self` (`self ⊕ other`, Example 2):
    ///
    /// * for each `(self_fid, other_fid)` in `matching` (the verified field
    ///   matching set, one-to-one), `other`'s values join the `self` field
    ///   — equal values deduplicate, distinct variants are all kept;
    /// * `other`'s unmatched fields are appended as new fields;
    /// * attribute provenance is unioned.
    ///
    /// `other` is consumed: the values `self` keeps are moved, not copied.
    ///
    /// Returns the label remap for index maintenance: every `(other.rid,
    /// fid, vid)` label maps to its new label under `self.rid` (labels of
    /// `self` are unchanged — appended values never displace existing
    /// ones). The remap also accepts `self` labels and returns them
    /// untouched, which is exactly the contract
    /// [`ValuePairIndex::merge`](hera_index::ValuePairIndex::merge) needs.
    pub fn absorb(&mut self, other: SuperRecord, matching: &[(u32, u32)]) -> LabelRemap {
        debug_assert_ne!(self.rid, other.rid);
        let winner = self.rid;
        let (fields, members) = self.merged_mut();
        let matched_of_other: FxHashMap<u32, u32> = matching.iter().map(|&(s, o)| (o, s)).collect();
        debug_assert_eq!(
            matched_of_other.len(),
            matching.len(),
            "field matching must be one-to-one"
        );
        // Attribute-identity consolidation: a field of `other` whose
        // provenance shares a SourceAttrId with a field of `self` is the
        // same attribute *by definition* (same schema, same position) —
        // no similarity evidence needed. Without this, corrupted or
        // missing values make the matcher skip such pairs and the super
        // record accumulates duplicate fields per attribute, inflating
        // `|R|` and suppressing every later similarity (field bloat).
        let mut attr_home: FxHashMap<SourceAttrId, u32> = FxHashMap::default();
        for (fid, field) in fields.iter().enumerate() {
            for &a in &field.attrs {
                attr_home.entry(a).or_insert(fid as u32);
            }
        }
        let mut fold = Fold {
            fields,
            attr_home,
            matched_of_other,
            map: FxHashMap::default(),
            winner,
            loser: other.rid,
        };
        match other.shape {
            Shape::Base { values, attrs } => {
                for ((ofid, v), a) in (0u32..).zip(values).zip(attrs.iter()) {
                    let v = (!v.is_null()).then_some(v);
                    fold.field(ofid, std::slice::from_ref(a), v);
                }
                members.push(other.rid);
            }
            Shape::Merged {
                fields,
                members: other_members,
            } => {
                for (ofid, f) in (0u32..).zip(fields) {
                    fold.field(ofid, &f.attrs, f.values);
                }
                members.extend(other_members);
            }
        }
        members.sort_unstable();
        members.dedup();

        LabelRemap {
            winner,
            map: fold.map,
        }
    }
}

/// One [`SuperRecord::absorb`] in progress: the winner's fields, where
/// each of the loser's fields and values goes, and the remap so far.
struct Fold<'a> {
    fields: &'a mut Vec<Field>,
    /// The winner's field of each source attribute it holds.
    attr_home: FxHashMap<SourceAttrId, u32>,
    /// The winner's field of each matched field of the loser.
    matched_of_other: FxHashMap<u32, u32>,
    map: FxHashMap<Label, Label>,
    winner: u32,
    loser: u32,
}

impl Fold<'_> {
    /// Folds the loser's field `ofid` — source attributes `attrs`, values
    /// `values` — into its matched field, else into the winner's field of
    /// one of its attributes, else into a new field.
    fn field(
        &mut self,
        ofid: u32,
        attrs: &[SourceAttrId],
        values: impl IntoIterator<Item = Value>,
    ) {
        let fields = &mut *self.fields;
        let target_fid = match self.matched_of_other.get(&ofid) {
            Some(&sfid) => sfid,
            None => match attrs.iter().find_map(|a| self.attr_home.get(a)) {
                Some(&sfid) => sfid,
                None => {
                    // Genuinely new attribute: append as a new field.
                    let new_fid = fields.len() as u32;
                    fields.push(Field {
                        values: Vec::new(),
                        attrs: Vec::new(),
                    });
                    for &a in attrs {
                        self.attr_home.entry(a).or_insert(new_fid);
                    }
                    new_fid
                }
            },
        };
        let target = &mut fields[target_fid as usize];
        for attr in attrs {
            target.add_attr(*attr);
        }
        for (ovid, v) in (0u32..).zip(values) {
            let new_vid = match target.position_of_same(&v) {
                Some(pos) => pos as u32, // dedupe: equal value exists
                None => {
                    target.values.push(v);
                    (target.values.len() - 1) as u32
                }
            };
            self.map.insert(
                Label::new(self.loser, ofid, ovid),
                Label::new(self.winner, target_fid, new_vid),
            );
        }
    }
}

/// Label rewrite produced by [`SuperRecord::absorb`].
#[derive(Debug, Clone, PartialEq)]
pub struct LabelRemap {
    winner: u32,
    map: FxHashMap<Label, Label>,
}

impl LabelRemap {
    /// Rewrites a label: loser labels go through the merge map, winner
    /// labels pass through unchanged.
    pub fn apply(&self, l: Label) -> Label {
        if l.rid == self.winner {
            l
        } else {
            *self
                .map
                .get(&l)
                .unwrap_or_else(|| panic!("label {l} not covered by merge remap"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_types::{motivating_example, RecordId};

    fn supers() -> Vec<SuperRecord> {
        let ds = motivating_example();
        ds.iter()
            .map(|r| SuperRecord::from_record(&ds, r))
            .collect()
    }

    /// The same record in the merged shape, as its first merge builds it.
    fn materialised(s: &SuperRecord) -> SuperRecord {
        let mut merged = s.clone();
        merged.merged_mut();
        merged
    }

    fn is_base(s: &SuperRecord) -> bool {
        s.base_values().is_some()
    }

    /// A record `x = null, y = "v"`, lifted.
    fn with_a_null() -> SuperRecord {
        use hera_types::{CanonAttrId, DatasetBuilder, EntityId};
        let mut b = DatasetBuilder::new("t");
        let s = b.add_schema(
            "S",
            [("x", CanonAttrId::new(0)), ("y", CanonAttrId::new(1))],
        );
        b.add_record(s, vec![Value::Null, Value::from("v")], EntityId::new(0))
            .unwrap();
        let ds = b.build();
        SuperRecord::from_record(&ds, ds.record(RecordId::new(0)))
    }

    #[test]
    fn equality_compares_content_not_shape() {
        let ss = supers();
        for s in ss.iter().cloned().chain([with_a_null()]) {
            let merged = materialised(&s);
            assert!(is_base(&s) && !is_base(&merged));
            assert_eq!(s, merged);
            assert_eq!(merged, s);
        }
        assert_ne!(ss[0], ss[1]);
        let mut renamed = ss[1].clone();
        renamed.rid = 0;
        assert_ne!(ss[0], renamed, "same rid, other fields");
        let mut grown = ss[0].clone();
        grown.absorb(ss[5].clone(), &[(0, 0)]);
        assert_ne!(materialised(&ss[0]), grown);
    }

    #[test]
    fn base_record_round_trips_byte_identical_and_base_shaped() {
        let mut shared = SharedAttrs::default();
        let decode = |text: &str, shared: &mut SharedAttrs| {
            let json = hera_types::json::parse(text).unwrap();
            SuperRecord::from_json(&json, shared).unwrap()
        };
        for s in supers().into_iter().chain([with_a_null()]) {
            let text = s.to_json().to_string_compact();
            assert_eq!(text, materialised(&s).to_json().to_string_compact());
            let back = decode(&text, &mut shared);
            assert!(is_base(&back), "r{} comes back base-shaped", s.rid);
            assert_eq!(back, s);
            assert_eq!(back.to_json().to_string_compact(), text);
        }
        // r2 and r3 share a schema, and so one attribute list.
        let ss = supers();
        let [r2, r3] =
            [&ss[1], &ss[2]].map(|s| decode(&s.to_json().to_string_compact(), &mut shared));
        let attrs = |s: &SuperRecord| match &s.shape {
            Shape::Base { attrs, .. } => Arc::clone(attrs),
            Shape::Merged { .. } => unreachable!("decoded base-shaped"),
        };
        assert!(Arc::ptr_eq(&attrs(&r2), &attrs(&r3)));
        // A merged record stays merged.
        let mut merged = ss[0].clone();
        merged.absorb(ss[5].clone(), &[(0, 0), (1, 1), (2, 2), (4, 4)]);
        let text = merged.to_json().to_string_compact();
        let back = decode(&text, &mut shared);
        assert!(!is_base(&back));
        assert_eq!(back, merged);
        assert_eq!(back.to_json().to_string_compact(), text);
    }

    #[test]
    fn one_member_record_holds_one_attribute_and_at_most_one_value_per_field() {
        let decode = |fields: &str, members: &str| {
            let text = format!(r#"{{"rid":7,"fields":[{fields}],"members":[{members}]}}"#);
            let json = hera_types::json::parse(&text).unwrap();
            SuperRecord::from_json(&json, &mut SharedAttrs::default())
        };
        let two_attrs = r#"{"values":[{"Str":"a"}],"attrs":[1,2]}"#;
        let two_values = r#"{"values":[{"Str":"a"},{"Str":"b"}],"attrs":[1]}"#;
        let no_attr = r#"{"values":[],"attrs":[]}"#;
        for field in [two_attrs, two_values, no_attr] {
            match decode(field, "7") {
                Err(HeraError::Corrupt(msg)) => assert!(msg.contains("super record 7"), "{msg}"),
                other => panic!("{field} accepted as a base record: {other:?}"),
            }
            let merged = decode(field, "3,7").expect("a merged record may grow its fields");
            assert_eq!(merged.members(), [3, 7]);
        }
        let base = decode(r#"{"values":[],"attrs":[1]}"#, "7").unwrap();
        assert!(is_base(&base));
        assert_eq!(base.informative_size(), 0);
    }

    #[test]
    fn lift_base_record() {
        let s = &supers()[0]; // r1: Customer I
        assert_eq!(s.size(), 5);
        assert_eq!(s.value(Label::new(0, 0, 0)), &Value::from("John"));
        assert_eq!(s.members(), [0]);
    }

    #[test]
    fn fig2_merge_r1_r6() {
        // R1 = r1 ⊕ r6 (0-based: records 0 and 5). Customer III fields
        // map: name→name(0), addr→address(1), mailbox→e-mail(2),
        // Tel unmatched, Con.Type→Con.Type(4).
        let ss = supers();
        let mut r1 = ss[0].clone();
        let r6 = ss[5].clone();
        let remap = r1.absorb(r6, &[(0, 0), (1, 1), (2, 2), (4, 4)]);
        // 5 original + 1 appended (Tel) = 6 fields.
        assert_eq!(r1.size(), 6);
        // name: "John" + "John" dedupes to one value.
        assert_eq!(r1.field(0).values.len(), 1);
        // Con.Type: "Electronic" + "electronics" keeps both.
        assert_eq!(r1.field(4).values.len(), 2);
        // Appended Tel field holds 831-432.
        assert_eq!(r1.field(5).values, [Value::from("831-432")]);
        // Remap: r6's name value folded into (0,0,0).
        assert_eq!(remap.apply(Label::new(5, 0, 0)), Label::new(0, 0, 0));
        // r6's Con.Type got vid 1 in field 4.
        assert_eq!(remap.apply(Label::new(5, 4, 0)), Label::new(0, 4, 1));
        // r6's Tel moved to the new field 5.
        assert_eq!(remap.apply(Label::new(5, 3, 0)), Label::new(0, 5, 0));
        // Winner labels pass through.
        assert_eq!(remap.apply(Label::new(0, 2, 0)), Label::new(0, 2, 0));
        // Membership.
        assert_eq!(r1.members(), [0, 5]);
    }

    #[test]
    fn merge_tracks_attr_provenance() {
        let ds = motivating_example();
        let ss = supers();
        let mut r1 = ss[0].clone();
        r1.absorb(ss[5].clone(), &[(0, 0), (1, 1), (2, 2), (4, 4)]);
        // e-mail field now carries Customer I.e-mail AND Customer
        // III.work mailbox.
        let attrs = r1.field(2).attrs;
        assert_eq!(attrs.len(), 2);
        let names: Vec<String> = attrs
            .iter()
            .map(|&a| ds.registry.attr_qualified_name(a))
            .collect();
        assert!(names.contains(&"Customer I.e-mail".to_string()));
        assert!(names.contains(&"Customer III.work mailbox".to_string()));
    }

    #[test]
    fn empty_matching_appends_everything() {
        let ss = supers();
        let mut a = ss[0].clone(); // 5 fields
        let b = ss[1].clone(); // r2: Customer II, 3 fields
        let remap = a.absorb(b, &[]);
        assert_eq!(a.size(), 8);
        assert_eq!(remap.apply(Label::new(1, 2, 0)), Label::new(0, 7, 0));
    }

    #[test]
    fn chained_merges_accumulate_members() {
        let ss = supers();
        let mut a = ss[0].clone();
        a.absorb(ss[5].clone(), &[(0, 0), (1, 1), (2, 2), (4, 4)]);
        let mut b = ss[1].clone();
        b.absorb(ss[3].clone(), &[(0, 0)]);
        a.absorb(b, &[(0, 0)]);
        assert_eq!(a.members(), [0, 1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn remap_rejects_unknown_foreign_label() {
        let ss = supers();
        let mut a = ss[0].clone();
        let remap = a.absorb(ss[5].clone(), &[(0, 0)]);
        remap.apply(Label::new(3, 0, 0)); // rid 3 never merged
    }

    proptest::proptest! {
        /// For arbitrary merges: the remap is total over the loser's
        /// labels and value-preserving — the relabeled coordinate holds
        /// an equal value in the merged record. This is exactly what
        /// Proposition 3 needs from index maintenance.
        #[test]
        fn absorb_remap_is_total_and_value_preserving(
            seed in proptest::prelude::any::<u64>(),
            n_match in 0usize..4,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let ds = motivating_example();
            let all: Vec<SuperRecord> = ds
                .iter()
                .map(|r| SuperRecord::from_record(&ds, r))
                .collect();
            let mut winner = all[rng.gen_range(0..3)].clone();
            let loser = all[rng.gen_range(3..6)].clone();
            // Random one-to-one matching between field ranges.
            let mut matching: Vec<(u32, u32)> = Vec::new();
            let mut used_w: Vec<u32> = Vec::new();
            let mut used_l: Vec<u32> = Vec::new();
            for _ in 0..n_match {
                let w = rng.gen_range(0..winner.size() as u32);
                let l = rng.gen_range(0..loser.size() as u32);
                if !used_w.contains(&w) && !used_l.contains(&l) {
                    used_w.push(w);
                    used_l.push(l);
                    matching.push((w, l));
                }
            }
            let snapshot = loser.clone();
            let remap = winner.absorb(loser, &matching);
            for (fid, field) in snapshot.fields().enumerate() {
                for (vid, v) in field.values.iter().enumerate() {
                    let old = Label::new(snapshot.rid, fid as u32, vid as u32);
                    let new = remap.apply(old);
                    proptest::prop_assert_eq!(new.rid, winner.rid);
                    let stored = winner.value(new);
                    proptest::prop_assert!(stored.same(v),
                        "label {} → {}: {:?} vs {:?}", old, new, stored, v);
                }
            }
            // Winner labels pass through unchanged.
            let w0 = Label::new(winner.rid, 0, 0);
            proptest::prop_assert_eq!(remap.apply(w0), w0);
        }

        /// Absorbing into a base-shaped winner and into its merged form
        /// gives the same fields, members and remap, for a base-shaped
        /// loser and a merged one alike.
        #[test]
        fn absorb_into_a_base_winner_equals_absorb_into_its_merged_form(
            seed in proptest::prelude::any::<u64>(),
            n_match in 0usize..4,
            merged_loser in proptest::prelude::any::<bool>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let all = supers();
            let winner = all[rng.gen_range(0..3)].clone();
            let mut loser = all[rng.gen_range(3..5)].clone();
            if merged_loser {
                loser.absorb(all[5].clone(), &[(0, 0)]);
            }
            let mut matching: Vec<(u32, u32)> = Vec::new();
            for _ in 0..n_match {
                let w = rng.gen_range(0..winner.size() as u32);
                let l = rng.gen_range(0..loser.size() as u32);
                if matching.iter().all(|&(mw, ml)| mw != w && ml != l) {
                    matching.push((w, l));
                }
            }
            let mut base = winner.clone();
            let mut merged = materialised(&winner);
            let base_remap = base.absorb(loser.clone(), &matching);
            let merged_remap = merged.absorb(loser, &matching);
            proptest::prop_assert!(!is_base(&base), "a merge builds the merged shape");
            proptest::prop_assert!(base.fields().eq(merged.fields()));
            proptest::prop_assert_eq!(base.members(), merged.members());
            proptest::prop_assert_eq!(base_remap, merged_remap);
        }
    }

    #[test]
    fn null_fields_hold_no_values_but_keep_fid_alignment() {
        let sr = with_a_null();
        assert_eq!(sr.size(), 2);
        assert_eq!(sr.field(0).values.len(), 0);
        assert_eq!(sr.value(Label::new(0, 1, 0)), &Value::from("v"));
    }
}
