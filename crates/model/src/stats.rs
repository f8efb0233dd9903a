//! Schema statistics, used by the result table ("entities, attributes"
//! columns in Figure 2), the corpus filter, and experiment reports.

use crate::element::ElementKind;
use crate::schema::Schema;

/// Summary statistics of one schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchemaStats {
    /// Number of entity elements.
    pub entities: usize,
    /// Number of attribute elements.
    pub attributes: usize,
    /// Number of group elements.
    pub groups: usize,
    /// Number of foreign-key edges.
    pub foreign_keys: usize,
    /// Maximum containment depth (roots are depth 0).
    pub max_depth: usize,
}

impl SchemaStats {
    /// Compute stats for `schema` in one pass.
    pub fn of(schema: &Schema) -> Self {
        let mut stats = SchemaStats {
            foreign_keys: schema.foreign_keys().len(),
            ..Default::default()
        };
        for id in schema.ids() {
            match schema.element(id).kind {
                ElementKind::Entity => stats.entities += 1,
                ElementKind::Attribute => stats.attributes += 1,
                ElementKind::Group => stats.groups += 1,
            }
            stats.max_depth = stats.max_depth.max(schema.depth(id));
        }
        stats
    }

    /// Total element count.
    pub fn total_elements(&self) -> usize {
        self.entities + self.attributes + self.groups
    }

    /// "Trivial schemas with three or less elements" — the paper's corpus
    /// filter drops these.
    pub fn is_trivial(&self) -> bool {
        self.total_elements() <= 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;
    use crate::element::{DataType, Element};

    #[test]
    fn counts_each_kind() {
        let mut s = SchemaBuilder::new("x")
            .entity("a", |e| {
                e.attr("p", DataType::Text).attr("q", DataType::Text)
            })
            .entity("b", |e| e.attr("r", DataType::Text))
            .foreign_key("a", &[], "b", &[])
            .build_unchecked();
        let root = s.entities()[0];
        s.add_child(root, Element::group("grp"));
        let st = SchemaStats::of(&s);
        assert_eq!(st.entities, 2);
        assert_eq!(st.attributes, 3);
        assert_eq!(st.groups, 1);
        assert_eq!(st.foreign_keys, 1);
        assert_eq!(st.max_depth, 1);
        assert_eq!(st.total_elements(), 6);
    }

    #[test]
    fn depth_tracks_nesting() {
        let mut s = Schema::new("deep");
        let a = s.add_root(Element::entity("a"));
        let b = s.add_child(a, Element::group("b"));
        let c = s.add_child(b, Element::group("c"));
        s.add_child(c, Element::attribute("d", DataType::Text));
        assert_eq!(SchemaStats::of(&s).max_depth, 3);
    }

    #[test]
    fn triviality_threshold_is_three_elements() {
        let mut s = Schema::new("t");
        let a = s.add_root(Element::entity("a"));
        s.add_child(a, Element::attribute("x", DataType::Text));
        s.add_child(a, Element::attribute("y", DataType::Text));
        assert!(SchemaStats::of(&s).is_trivial());
        s.add_child(a, Element::attribute("z", DataType::Text));
        assert!(!SchemaStats::of(&s).is_trivial());
    }

    #[test]
    fn empty_schema_stats() {
        let st = SchemaStats::of(&Schema::new("e"));
        assert_eq!(st, SchemaStats::default());
        assert!(st.is_trivial());
    }
}
