//! Term normalization: case folding and abbreviation expansion.
//!
//! The paper's name matcher "normalizes terms" before computing n-gram
//! overlap. We fold case and optionally expand a dictionary of
//! abbreviations that are endemic in real schema corpora (`qty`, `amt`,
//! `dob`, …), which measurably improves matching of abbreviated names.

use std::collections::HashMap;

/// Lowercase `term` (full Unicode case folding via `char::to_lowercase`).
pub fn fold_case(term: &str) -> String {
    let mut folded = String::new();
    fold_case_into(term, &mut folded);
    folded
}

/// [`fold_case`] into `out`, whose contents are overwritten: a caller
/// that keeps `out` folds without allocating. ASCII — nearly every
/// schema name — is lowercased bytewise.
pub(crate) fn fold_case_into(term: &str, out: &mut String) {
    out.clear();
    if term.is_ascii() {
        out.push_str(term);
        out.make_ascii_lowercase();
    } else {
        out.extend(term.chars().flat_map(char::to_lowercase));
    }
}

/// A dictionary mapping common schema abbreviations to expansions.
///
/// Keys are case-folded and looked up by case-folded term; expansions are
/// lowercase and may be multi-word (`dob` → `date of birth`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbbreviationDict {
    map: HashMap<String, String>,
}

impl AbbreviationDict {
    /// An empty dictionary (expansion disabled).
    pub fn empty() -> Self {
        AbbreviationDict {
            map: HashMap::new(),
        }
    }

    /// The built-in dictionary of abbreviations common in database schemas.
    pub fn builtin() -> Self {
        const PAIRS: &[(&str, &str)] = &[
            ("abbr", "abbreviation"),
            ("acct", "account"),
            ("addr", "address"),
            ("amt", "amount"),
            ("avg", "average"),
            ("bal", "balance"),
            ("bday", "birthday"),
            ("bldg", "building"),
            ("cat", "category"),
            ("cd", "code"),
            ("cnt", "count"),
            ("co", "company"),
            ("ct", "count"),
            ("ctry", "country"),
            ("cust", "customer"),
            ("dept", "department"),
            ("desc", "description"),
            ("diag", "diagnosis"),
            ("dob", "date of birth"),
            ("doc", "document"),
            ("dr", "doctor"),
            ("dt", "date"),
            ("emp", "employee"),
            ("fk", "foreign key"),
            ("fname", "first name"),
            ("gend", "gender"),
            ("hosp", "hospital"),
            ("ht", "height"),
            ("id", "identifier"),
            ("img", "image"),
            ("inv", "invoice"),
            ("lang", "language"),
            ("lat", "latitude"),
            ("lname", "last name"),
            ("loc", "location"),
            ("lon", "longitude"),
            ("lng", "longitude"),
            ("max", "maximum"),
            ("med", "medication"),
            ("min", "minimum"),
            ("msg", "message"),
            ("mtg", "meeting"),
            ("nbr", "number"),
            ("no", "number"),
            ("num", "number"),
            ("org", "organization"),
            ("pat", "patient"),
            ("pct", "percent"),
            ("phys", "physician"),
            ("pk", "primary key"),
            ("pos", "position"),
            ("prod", "product"),
            ("pt", "patient"),
            ("qty", "quantity"),
            ("rcpt", "receipt"),
            ("ref", "reference"),
            ("reg", "region"),
            ("rm", "room"),
            ("rx", "prescription"),
            ("sched", "schedule"),
            ("sex", "gender"),
            ("spec", "specimen"),
            ("sta", "station"),
            ("std", "standard"),
            ("svc", "service"),
            ("tel", "telephone"),
            ("temp", "temperature"),
            ("tm", "time"),
            ("tot", "total"),
            ("txn", "transaction"),
            ("usr", "user"),
            ("vis", "visit"),
            ("wt", "weight"),
            ("yr", "year"),
            ("zip", "zipcode"),
        ];
        AbbreviationDict {
            map: PAIRS
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Dictionary from caller-supplied pairs (keys folded to lowercase).
    pub fn from_pairs<I, K, V>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<str>,
        V: Into<String>,
    {
        AbbreviationDict {
            map: pairs
                .into_iter()
                .map(|(k, v)| (fold_case(k.as_ref()), v.into()))
                .collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The expansion of `folded` — a term already through [`fold_case`] —
    /// if it is a known abbreviation; `None` otherwise. A borrowed
    /// lookup: nothing is folded or allocated here.
    pub fn expand(&self, folded: &str) -> Option<&str> {
        self.map.get(folded).map(String::as_str)
    }
}

impl Default for AbbreviationDict {
    fn default() -> Self {
        Self::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_case_lowercases_unicode() {
        assert_eq!(fold_case("PatientHeight"), "patientheight");
        assert_eq!(fold_case("ÜBER"), "über");
        assert_eq!(fold_case(""), "");
    }

    #[test]
    fn fold_case_into_overwrites_the_buffer() {
        let mut buf = String::from("left over");
        fold_case_into("PatientHeight", &mut buf);
        assert_eq!(buf, "patientheight");
        fold_case_into("ÜBER İ", &mut buf);
        assert_eq!(buf, fold_case("ÜBER İ"));
        fold_case_into("", &mut buf);
        assert_eq!(buf, "");
    }

    #[test]
    fn builtin_expands_common_schema_abbreviations() {
        let d = AbbreviationDict::builtin();
        assert_eq!(d.expand("qty"), Some("quantity"));
        assert_eq!(d.expand(&fold_case("QTY")), Some("quantity"));
        assert_eq!(d.expand("QTY"), None, "lookup is by folded term");
        assert_eq!(d.expand("ht"), Some("height"));
        assert_eq!(d.expand("patient"), None);
        assert!(!d.is_empty());
    }

    #[test]
    fn custom_dictionaries_fold_keys() {
        let d = AbbreviationDict::from_pairs([("TNC", "the nature conservancy")]);
        assert_eq!(d.expand("tnc"), Some("the nature conservancy"));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn empty_dictionary_expands_nothing() {
        let d = AbbreviationDict::empty();
        assert!(d.is_empty());
        assert_eq!(d.expand("qty"), None);
    }
}
