//! Document fields and their boosts.

/// The fields of a flattened schema document.
///
/// These mirror the paper's document layout — "a title, a summary, an ID,
/// and a flattened representation of each element". The ID is the document
/// key, not a searchable field; documentation strings get their own
/// low-boost field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Field {
    /// Schema title (name). Highest boost: a title hit is a strong signal.
    Title,
    /// Human-written summary.
    Summary,
    /// Flattened element names/paths — the meat of schema search.
    Elements,
    /// Element documentation strings.
    Docs,
}

impl Field {
    /// Number of fields. Every per-field array in the index (term
    /// tables, `Columns::field_lengths`, codec tables) derives its
    /// width from this constant, so adding a fifth field is a one-line
    /// change here instead of a hunt for naked `4`s.
    pub const COUNT: usize = 4;

    /// All fields, in codec order.
    pub const ALL: [Field; Field::COUNT] =
        [Field::Title, Field::Summary, Field::Elements, Field::Docs];

    /// The field's score boost in the TF/IDF scorer.
    pub fn boost(self) -> f64 {
        match self {
            Field::Title => 2.0,
            Field::Summary => 1.0,
            Field::Elements => 1.5,
            Field::Docs => 0.5,
        }
    }

    /// Whether the field holds free text, analyzed through the document
    /// pipeline (stop words dropped), rather than names.
    pub fn is_prose(self) -> bool {
        matches!(self, Field::Summary | Field::Docs)
    }

    /// Stable ordinal for the on-disk codec.
    pub fn ordinal(self) -> u8 {
        match self {
            Field::Title => 0,
            Field::Summary => 1,
            Field::Elements => 2,
            Field::Docs => 3,
        }
    }

    /// Inverse of [`Field::ordinal`].
    pub fn from_ordinal(o: u8) -> Option<Field> {
        Field::ALL.into_iter().find(|f| f.ordinal() == o)
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Field::Title => "title",
            Field::Summary => "summary",
            Field::Elements => "elements",
            Field::Docs => "docs",
        }
    }
}

/// `Field::COUNT` and `Field::ALL` can never desync: the array's length
/// is checked against the constant at compile time, and `ordinal()` is
/// exhaustively matched over the enum, so a new variant fails to compile
/// until every width agrees.
const _: () = assert!(Field::ALL.len() == Field::COUNT);

impl std::fmt::Display for Field {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordinals_round_trip() {
        for f in Field::ALL {
            assert_eq!(Field::from_ordinal(f.ordinal()), Some(f));
        }
        assert_eq!(Field::from_ordinal(200), None);
    }

    #[test]
    fn title_outboosts_elements_outboosts_docs() {
        assert!(Field::Title.boost() > Field::Elements.boost());
        assert!(Field::Elements.boost() > Field::Docs.boost());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> = Field::ALL.iter().map(|f| f.label()).collect();
        assert_eq!(labels.len(), Field::ALL.len());
    }
}
