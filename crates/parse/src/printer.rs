//! DDL pretty-printer: schema graph → `CREATE TABLE` script.
//!
//! The repository's export path and the round-trip tests use this: a schema
//! imported from DDL, printed, and re-parsed must describe the same graph.

use schemr_model::{DataType, ElementKind, Schema};

/// Render a SQL type for a model data type.
fn render_type(ty: DataType) -> &'static str {
    match ty {
        DataType::Integer => "INTEGER",
        DataType::Real => "REAL",
        DataType::Decimal => "DECIMAL",
        DataType::Text => "TEXT",
        DataType::Boolean => "BOOLEAN",
        DataType::Date => "DATE",
        DataType::Time => "TIME",
        DataType::DateTime => "TIMESTAMP",
        DataType::Binary => "BLOB",
        DataType::Unknown => "TEXT",
    }
}

/// Quote an identifier when it isn't a plain `[A-Za-z_][A-Za-z0-9_]*` word.
fn quote_ident(name: &str) -> String {
    let plain = !name.is_empty()
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c == '_' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit()));
    if plain {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('"', "\"\""))
    }
}

/// Print a schema as a DDL script: one `CREATE TABLE` per entity, with
/// table-level `FOREIGN KEY` clauses and `COMMENT` strings for documented
/// attributes. Group elements flatten into their owning entity, mirroring
/// how the XSD reader would interpret the result.
pub fn print_ddl(schema: &Schema) -> String {
    let mut out = String::new();
    for entity in schema.entities() {
        // Only print top-level entities as tables; nested entities become
        // their own tables too (relational flattening of tree schemas).
        let name = &schema.element(entity).name;
        out.push_str(&format!("CREATE TABLE {} (\n", quote_ident(name)));
        let mut lines = Vec::new();
        // Attributes of this entity, including those under groups.
        let mut stack: Vec<_> = schema.children(entity).into_iter().collect();
        let mut attrs = Vec::new();
        while let Some(id) = stack.pop() {
            match schema.element(id).kind {
                ElementKind::Attribute => attrs.push(id),
                ElementKind::Group => stack.extend(schema.children(id)),
                ElementKind::Entity => {} // nested entity prints separately
            }
        }
        attrs.sort(); // insertion order
        for attr in attrs {
            let el = schema.element(attr);
            let mut line = format!("  {} {}", quote_ident(el.name), render_type(el.data_type));
            if let Some(doc) = &el.doc {
                line.push_str(&format!(" COMMENT '{}'", doc.replace('\'', "''")));
            }
            lines.push(line);
        }
        for fk in schema
            .foreign_keys()
            .iter()
            .filter(|fk| fk.from_entity == entity)
        {
            let cols: Vec<String> = fk
                .from_attrs
                .iter()
                .map(|a| quote_ident(schema.element(*a).name))
                .collect();
            let to_cols: Vec<String> = fk
                .to_attrs
                .iter()
                .map(|a| quote_ident(schema.element(*a).name))
                .collect();
            let mut line = format!(
                "  FOREIGN KEY ({}) REFERENCES {}",
                cols.join(", "),
                quote_ident(schema.element(fk.to_entity).name)
            );
            if !to_cols.is_empty() {
                line.push_str(&format!(" ({})", to_cols.join(", ")));
            }
            if fk.from_attrs.is_empty() {
                // FK with no column detail (e.g. from XSD keyref): skip —
                // it has no DDL rendering.
                continue;
            }
            lines.push(line);
        }
        out.push_str(&lines.join(",\n"));
        out.push_str("\n);\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::parse_ddl;
    use schemr_model::{DataType as DT, SchemaBuilder};

    #[test]
    fn prints_a_simple_table() {
        let s = SchemaBuilder::new("q")
            .entity("patient", |e| {
                e.attr("height", DT::Real).attr("gender", DT::Text)
            })
            .build_unchecked();
        let ddl = print_ddl(&s);
        assert!(ddl.contains("CREATE TABLE patient"));
        assert!(ddl.contains("height REAL"));
        assert!(ddl.contains("gender TEXT"));
    }

    #[test]
    fn round_trips_through_the_parser() {
        let original = SchemaBuilder::new("clinic")
            .entity("patient", |e| {
                e.attr("id", DT::Integer)
                    .attr("height", DT::Real)
                    .attr("gender", DT::Text)
            })
            .entity("case", |e| {
                e.attr("id", DT::Integer).attr("patient", DT::Integer)
            })
            .foreign_key("case", &["patient"], "patient", &["id"])
            .build_unchecked();
        let ddl = print_ddl(&original);
        let reparsed = parse_ddl("clinic", &ddl).unwrap();
        assert_eq!(reparsed.entities().len(), 2);
        assert_eq!(reparsed.foreign_keys().len(), 1);
        assert_eq!(reparsed.attributes().len(), 5);
        let fk = &reparsed.foreign_keys()[0];
        assert_eq!(reparsed.element(fk.from_entity).name, "case");
        assert_eq!(reparsed.element(fk.to_entity).name, "patient");
    }

    #[test]
    fn quoting_protects_awkward_names() {
        let s = SchemaBuilder::new("q")
            .entity("first name", |e| e.attr("2nd col", DT::Text))
            .build_unchecked();
        let ddl = print_ddl(&s);
        assert!(ddl.contains("\"first name\""));
        assert!(ddl.contains("\"2nd col\""));
        let reparsed = parse_ddl("q", &ddl).unwrap();
        assert_eq!(reparsed.element(reparsed.attributes()[0]).name, "2nd col");
    }

    #[test]
    fn comments_round_trip() {
        let s = SchemaBuilder::new("q")
            .entity("t", |e| e.attr_doc("ht", DT::Real, "it's height"))
            .build_unchecked();
        let ddl = print_ddl(&s);
        let reparsed = parse_ddl("q", &ddl).unwrap();
        assert_eq!(
            reparsed.element(reparsed.attributes()[0]).doc,
            Some("it's height")
        );
    }
}
