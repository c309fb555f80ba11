//! Schema-agnostic record tokenization for blocking keys.
//!
//! Blocking keys deliberately ignore which *field* a value sits in — the
//! whole point of the heterogeneous-record regime is that schemas do not
//! line up, so keys are drawn from the bag of all values of a record
//! (the "schema-agnostic" setting of the blocking literature).

use rustc_hash::FxHasher;
use std::hash::Hasher;

/// Hashes one textual token into a 64-bit blocking key.
pub(crate) fn hash_token(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Word tokens of a record's values (folded), joined by one whole-value
/// token per value. Sorted and deduplicated.
///
/// The whole-value tokens matter at scale: word vocabularies are small
/// and their blocks get purged as oversized, while full renderings
/// (external ids, complete titles, dates, exact numbers) stay rare and
/// carry the discriminative signal.
pub(crate) fn word_value_tokens(values: &[hera_types::Value]) -> Vec<u64> {
    let mut out = Vec::new();
    for v in values {
        if v.is_null() {
            continue;
        }
        // ASCII folds byte by byte, in the rendering itself.
        let mut folded = v.to_text();
        if folded.is_ascii() {
            folded.make_ascii_lowercase();
        } else {
            folded = hera_sim::text::fold(&folded);
        }
        for w in folded.split_whitespace() {
            out.push(hash_token(w.as_bytes()));
        }
        if !folded.is_empty() {
            out.push(hash_token(folded.as_bytes()));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Union of the q-gram sets of a record's values (folded), sorted and
/// deduplicated. More robust to typos than word tokens (a single edit
/// perturbs at most `q` grams) at the price of more keys per record.
pub(crate) fn qgram_tokens(values: &[hera_types::Value], q: usize) -> Vec<u64> {
    let mut out = Vec::new();
    for v in values {
        if v.is_null() {
            continue;
        }
        out.extend(hera_sim::text::folded_qgram_set(&v.text(), q));
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_types::Value;

    #[test]
    fn word_tokens_fold_split_and_dedup() {
        let vals = vec![Value::from("Norman Street"), Value::from("norman")];
        let toks = word_value_tokens(&vals);
        // {"norman", "street", "norman street"} — the repeated word and
        // the whole value "norman" collapse.
        assert_eq!(toks.len(), 3);
        assert!(toks.contains(&hash_token(b"norman")));
        assert!(toks.contains(&hash_token(b"street")));
        assert!(toks.contains(&hash_token(b"norman street")));
    }

    #[test]
    fn nulls_and_empties_yield_no_tokens() {
        assert!(word_value_tokens(&[Value::Null, Value::from("")]).is_empty());
        assert!(qgram_tokens(&[Value::Null, Value::from("")], 3).is_empty());
    }

    #[test]
    fn numbers_tokenize_via_rendering() {
        let toks = word_value_tokens(&[Value::from(1984i64)]);
        assert_eq!(toks, vec![hash_token(b"1984")]);
    }

    /// The allocate-and-fold form `word_value_tokens` replaced.
    fn folded_copy_tokens(values: &[Value]) -> Vec<u64> {
        let mut out = Vec::new();
        for v in values.iter().filter(|v| !v.is_null()) {
            let folded = hera_sim::text::fold(&v.to_text());
            out.extend(folded.split_whitespace().map(|w| hash_token(w.as_bytes())));
            if !folded.is_empty() {
                out.push(hash_token(folded.as_bytes()));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    proptest::proptest! {
        /// Lowering an ASCII rendering in place yields the keys of the
        /// folded copy; text with a final sigma, a dotted capital I, a
        /// sharp s or a combining mark in it still goes through `fold`.
        #[test]
        fn word_tokens_equal_those_of_the_folded_copy(
            texts in proptest::collection::vec(
                proptest::prop_oneof![
                    "[ -~]{0,16}",
                    "[a-cA-C ΣσςİßÀé\u{301}]{0,10}",
                ],
                0..4,
            ),
            number in -50i64..50,
        ) {
            let mut values: Vec<Value> = texts.iter().map(|t| Value::from(t.as_str())).collect();
            values.push(Value::from(number));
            values.push(Value::from(number as f64 / 4.0));
            values.push(Value::Null);
            proptest::prop_assert_eq!(word_value_tokens(&values), folded_copy_tokens(&values));
        }
    }

    #[test]
    fn qgram_tokens_union_values() {
        let toks = qgram_tokens(&[Value::from("abcd"), Value::from("bcde")], 3);
        // abc, bcd (shared), cde → 3 distinct grams.
        assert_eq!(toks.len(), 3);
    }
}
