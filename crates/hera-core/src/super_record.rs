//! Super records (Definition 2) and the merge operation `⊕` (Example 2).

use hera_types::json::Json;
use hera_types::{Dataset, Label, Record, Result, Schema, SourceAttrId, Value};
use rustc_hash::FxHashMap;

/// One field of a super record: the set of values observed for (what HERA
/// believes is) one attribute of the entity, plus the source attributes
/// those values came from.
///
/// The attribute provenance is *not* part of the paper's Definition 2, but
/// the schema-based method (§IV-B) needs to know which source attributes a
/// field aggregates in order to cast votes; tracking it here keeps votes
/// exact under arbitrary merge orders.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Observed values (`f_i = {v_1, v_2, …}`), deduplicated by
    /// [`Value::same`] as in Fig. 2 (the two `John`s of `r1`/`r6` merge;
    /// `Electronic`/`electronics` are both kept).
    pub values: Vec<Value>,
    /// Source attributes whose values were folded into this field.
    pub attrs: Vec<SourceAttrId>,
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

/// A super record `R = {f_1 … f_|R|}` (Definition 2).
///
/// A base record is the simplest super record: one value per field. Value
/// coordinates follow the index's label convention: value `vid` of field
/// `fid` of record `rid` is `self.fields[fid].values[vid]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperRecord {
    /// Record id — after merges, the union–find representative.
    pub rid: u32,
    /// The fields.
    pub fields: Vec<Field>,
    /// Base records folded into this super record (ascending rid).
    pub members: Vec<u32>,
}

impl SuperRecord {
    /// Lifts a base record, resolving each field's source attribute
    /// through the dataset's schema registry. Null fields are kept (they
    /// occupy a fid so labels align with the base record's positions) but
    /// carry no values.
    pub fn from_record(ds: &Dataset, rec: &Record) -> Self {
        let values = rec.values.iter().cloned();
        Self::lift(rec.id.raw(), values, ds.registry.schema(rec.schema))
    }

    /// Lifts record `rid`'s values under their schema — the one place a
    /// base record becomes a super record, for the batch path (through
    /// [`SuperRecord::from_record`]) and the streaming one alike.
    pub(crate) fn lift(rid: u32, values: impl IntoIterator<Item = Value>, schema: &Schema) -> Self {
        let fields = values
            .into_iter()
            .zip(&schema.attrs)
            .map(|(v, a)| Field {
                values: if v.is_null() { Vec::new() } else { vec![v] },
                attrs: vec![a.id],
            })
            .collect();
        Self {
            rid,
            fields,
            members: vec![rid],
        }
    }

    /// `|R|` — the field count, the denominator component of Definition 5.
    pub fn size(&self) -> usize {
        self.fields.len()
    }

    /// Number of fields holding at least one value. Equal to
    /// [`SuperRecord::size`] on heterogeneous data; smaller on exchanged records
    /// where nulls occupy fids. The driver uses this as Definition 5's
    /// denominator so that nulls (which carry no evidence) do not depress
    /// similarity.
    pub fn informative_size(&self) -> usize {
        self.fields.iter().filter(|f| !f.values.is_empty()).count()
    }

    /// Total number of stored values.
    pub fn value_count(&self) -> usize {
        self.fields.iter().map(|f| f.values.len()).sum()
    }

    /// The value at a label (which must belong to this record).
    pub fn value(&self, label: Label) -> &Value {
        debug_assert_eq!(label.rid, self.rid);
        &self.fields[label.fid as usize].values[label.vid as usize]
    }

    /// Every stored value with its label, in `(fid, vid)` order.
    pub(crate) fn labeled_values(&self) -> impl Iterator<Item = (Label, &Value)> {
        self.fields.iter().zip(0u32..).flat_map(move |(f, fid)| {
            let labels = (0u32..).map(move |vid| Label::new(self.rid, fid, vid));
            labels.zip(&f.values)
        })
    }

    /// Encodes the super record as JSON, preserving field, value, and
    /// member order exactly (labels index into these vectors, so the
    /// order *is* part of the state).
    pub fn to_json(&self) -> Json {
        let fields = self
            .fields
            .iter()
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
                    self.members
                        .iter()
                        .map(|&m| Json::Int(i64::from(m)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes a super record from [`SuperRecord::to_json`] output.
    pub fn from_json(json: &Json) -> Result<Self> {
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
        Ok(Self {
            rid: json.expect("rid")?.as_u32()?,
            fields,
            members,
        })
    }

    /// Merges `other` into `self` (`self ⊕ other`, Example 2):
    ///
    /// * for each `(self_fid, other_fid)` in `matching` (the verified field
    ///   matching set, one-to-one), `other`'s values join the `self` field
    ///   — equal values deduplicate, distinct variants are all kept;
    /// * `other`'s unmatched fields are appended as new fields;
    /// * attribute provenance is unioned.
    ///
    /// Returns the label remap for index maintenance: every `(other.rid,
    /// fid, vid)` label maps to its new label under `self.rid` (labels of
    /// `self` are unchanged — appended values never displace existing
    /// ones). The remap also accepts `self` labels and returns them
    /// untouched, which is exactly the contract
    /// [`ValuePairIndex::merge`](hera_index::ValuePairIndex::merge) needs.
    pub fn absorb(&mut self, other: &SuperRecord, matching: &[(u32, u32)]) -> LabelRemap {
        debug_assert_ne!(self.rid, other.rid);
        let mut map: FxHashMap<Label, Label> = FxHashMap::default();
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
        for (fid, field) in self.fields.iter().enumerate() {
            for &a in &field.attrs {
                attr_home.entry(a).or_insert(fid as u32);
            }
        }

        for (ofid, ofield) in other.fields.iter().enumerate() {
            let ofid = ofid as u32;
            let target_fid = match matched_of_other.get(&ofid) {
                Some(&sfid) => sfid,
                None => match ofield.attrs.iter().find_map(|a| attr_home.get(a)) {
                    Some(&sfid) => sfid,
                    None => {
                        // Genuinely new attribute: append as a new field.
                        let new_fid = self.fields.len() as u32;
                        self.fields.push(Field {
                            values: Vec::new(),
                            attrs: Vec::new(),
                        });
                        for &a in &ofield.attrs {
                            attr_home.entry(a).or_insert(new_fid);
                        }
                        new_fid
                    }
                },
            };
            let target = &mut self.fields[target_fid as usize];
            for attr in &ofield.attrs {
                target.add_attr(*attr);
            }
            for (ovid, v) in ofield.values.iter().enumerate() {
                let new_vid = match target.position_of_same(v) {
                    Some(pos) => pos as u32, // dedupe: equal value exists
                    None => {
                        target.values.push(v.clone());
                        (target.values.len() - 1) as u32
                    }
                };
                map.insert(
                    Label::new(other.rid, ofid, ovid as u32),
                    Label::new(self.rid, target_fid, new_vid),
                );
            }
        }

        let mut members = std::mem::take(&mut self.members);
        members.extend(&other.members);
        members.sort_unstable();
        members.dedup();
        self.members = members;

        LabelRemap {
            winner: self.rid,
            map,
        }
    }
}

/// Label rewrite produced by [`SuperRecord::absorb`].
#[derive(Debug, Clone)]
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

    #[test]
    fn lift_base_record() {
        let s = &supers()[0]; // r1: Customer I
        assert_eq!(s.size(), 5);
        assert_eq!(s.value_count(), 5);
        assert_eq!(s.value(Label::new(0, 0, 0)), &Value::from("John"));
        assert_eq!(s.members, vec![0]);
    }

    #[test]
    fn fig2_merge_r1_r6() {
        // R1 = r1 ⊕ r6 (0-based: records 0 and 5). Customer III fields
        // map: name→name(0), addr→address(1), mailbox→e-mail(2),
        // Tel unmatched, Con.Type→Con.Type(4).
        let ss = supers();
        let mut r1 = ss[0].clone();
        let r6 = &ss[5];
        let remap = r1.absorb(r6, &[(0, 0), (1, 1), (2, 2), (4, 4)]);
        // 5 original + 1 appended (Tel) = 6 fields.
        assert_eq!(r1.size(), 6);
        // name: "John" + "John" dedupes to one value.
        assert_eq!(r1.fields[0].values.len(), 1);
        // Con.Type: "Electronic" + "electronics" keeps both.
        assert_eq!(r1.fields[4].values.len(), 2);
        // Appended Tel field holds 831-432.
        assert_eq!(r1.fields[5].values, vec![Value::from("831-432")]);
        // Remap: r6's name value folded into (0,0,0).
        assert_eq!(remap.apply(Label::new(5, 0, 0)), Label::new(0, 0, 0));
        // r6's Con.Type got vid 1 in field 4.
        assert_eq!(remap.apply(Label::new(5, 4, 0)), Label::new(0, 4, 1));
        // r6's Tel moved to the new field 5.
        assert_eq!(remap.apply(Label::new(5, 3, 0)), Label::new(0, 5, 0));
        // Winner labels pass through.
        assert_eq!(remap.apply(Label::new(0, 2, 0)), Label::new(0, 2, 0));
        // Membership.
        assert_eq!(r1.members, vec![0, 5]);
    }

    #[test]
    fn merge_tracks_attr_provenance() {
        let ds = motivating_example();
        let ss = supers();
        let mut r1 = ss[0].clone();
        r1.absorb(&ss[5], &[(0, 0), (1, 1), (2, 2), (4, 4)]);
        // e-mail field now carries Customer I.e-mail AND Customer
        // III.work mailbox.
        let attrs = &r1.fields[2].attrs;
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
        let b = &ss[1]; // r2: Customer II, 3 fields
        let remap = a.absorb(b, &[]);
        assert_eq!(a.size(), 8);
        assert_eq!(remap.apply(Label::new(1, 2, 0)), Label::new(0, 7, 0));
    }

    #[test]
    fn chained_merges_accumulate_members() {
        let ss = supers();
        let mut a = ss[0].clone();
        a.absorb(&ss[5], &[(0, 0), (1, 1), (2, 2), (4, 4)]);
        let mut b = ss[1].clone();
        b.absorb(&ss[3], &[(0, 0)]);
        a.absorb(&b, &[(0, 0)]);
        assert_eq!(a.members, vec![0, 1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn remap_rejects_unknown_foreign_label() {
        let ss = supers();
        let mut a = ss[0].clone();
        let remap = a.absorb(&ss[5], &[(0, 0)]);
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
            let remap = winner.absorb(&loser, &matching);
            for (fid, field) in snapshot.fields.iter().enumerate() {
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
    }

    #[test]
    fn null_fields_hold_no_values_but_keep_fid_alignment() {
        use hera_types::{CanonAttrId, DatasetBuilder, EntityId};
        let mut b = DatasetBuilder::new("t");
        let s = b.add_schema(
            "S",
            [("x", CanonAttrId::new(0)), ("y", CanonAttrId::new(1))],
        );
        b.add_record(s, vec![Value::Null, Value::from("v")], EntityId::new(0))
            .unwrap();
        let ds = b.build();
        let sr = SuperRecord::from_record(&ds, ds.record(RecordId::new(0)));
        assert_eq!(sr.size(), 2);
        assert_eq!(sr.fields[0].values.len(), 0);
        assert_eq!(sr.value(Label::new(0, 1, 0)), &Value::from("v"));
    }
}
