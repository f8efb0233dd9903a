//! XSD pretty-printer: schema graph → XML Schema Definition.
//!
//! The export mirror of [`crate::xsd`]: entities become elements with
//! inline complex types, attributes become simple `xs:element`s,
//! documentation becomes `xs:annotation/xs:documentation`, and foreign
//! keys become `xs:key`/`xs:keyref` pairs. A schema exported here and
//! re-imported through [`crate::xsd::parse_xsd`] describes the same graph.

use schemr_model::{DataType, ElementId, ElementKind, Schema};

use crate::xml::escape;

/// XSD built-in name for a model data type.
fn render_type(ty: DataType) -> &'static str {
    match ty {
        DataType::Integer => "xs:integer",
        DataType::Real => "xs:double",
        DataType::Decimal => "xs:decimal",
        DataType::Text => "xs:string",
        DataType::Boolean => "xs:boolean",
        DataType::Date => "xs:date",
        DataType::Time => "xs:time",
        DataType::DateTime => "xs:dateTime",
        DataType::Binary => "xs:base64Binary",
        DataType::Unknown => "xs:string",
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_doc(out: &mut String, depth: usize, doc: Option<&str>) {
    if let Some(doc) = doc {
        indent(out, depth);
        out.push_str("<xs:annotation><xs:documentation>");
        out.push_str(&escape(doc));
        out.push_str("</xs:documentation></xs:annotation>\n");
    }
}

fn write_element(schema: &Schema, id: ElementId, out: &mut String, depth: usize) {
    let el = schema.element(id);
    match el.kind {
        ElementKind::Attribute => {
            indent(out, depth);
            out.push_str(&format!(
                "<xs:element name=\"{}\" type=\"{}\"",
                escape(el.name),
                render_type(el.data_type)
            ));
            if el.doc.is_some() {
                out.push_str(">\n");
                write_doc(out, depth + 1, el.doc);
                indent(out, depth);
                out.push_str("</xs:element>\n");
            } else {
                out.push_str("/>\n");
            }
        }
        ElementKind::Entity | ElementKind::Group => {
            indent(out, depth);
            out.push_str(&format!("<xs:element name=\"{}\">\n", escape(el.name)));
            write_doc(out, depth + 1, el.doc);
            indent(out, depth + 1);
            out.push_str("<xs:complexType>\n");
            indent(out, depth + 2);
            out.push_str("<xs:sequence>\n");
            for child in schema.children(id) {
                write_element(schema, child, out, depth + 3);
            }
            indent(out, depth + 2);
            out.push_str("</xs:sequence>\n");
            indent(out, depth + 1);
            out.push_str("</xs:complexType>\n");
            indent(out, depth);
            out.push_str("</xs:element>\n");
        }
    }
}

/// Print a schema as an XSD document.
///
/// Foreign keys are expressed as `xs:key`/`xs:keyref` pairs attached to a
/// synthetic wrapper element when the schema has more than one root (XSD
/// identity constraints need a common ancestor).
pub fn print_xsd(schema: &Schema) -> String {
    let roots = schema.roots();
    let mut out = String::with_capacity(1024);
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str("<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n");
    // Foreign keys need a common ancestor for the key/keyref scope, so
    // any schema carrying them exports under a wrapper element.
    let needs_wrapper = !schema.foreign_keys().is_empty();
    if needs_wrapper {
        // Wrap all roots so keyrefs have a shared scope.
        out.push_str(&format!(
            "  <xs:element name=\"{}\">\n    <xs:complexType>\n      <xs:sequence>\n",
            escape(&schema.name)
        ));
        for root in &roots {
            write_element(schema, *root, &mut out, 4);
        }
        out.push_str("      </xs:sequence>\n    </xs:complexType>\n");
        // Key/keyref pairs at wrapper scope, one per FK.
        for (i, fk) in schema.foreign_keys().iter().enumerate() {
            let to_name = &schema.element(fk.to_entity).name;
            let from_name = &schema.element(fk.from_entity).name;
            out.push_str(&format!(
                "    <xs:key name=\"k{i}\"><xs:selector xpath=\".//{}\"/><xs:field xpath=\"@id\"/></xs:key>\n",
                escape(to_name)
            ));
            out.push_str(&format!(
                "    <xs:keyref name=\"r{i}\" refer=\"k{i}\"><xs:selector xpath=\".//{}\"/><xs:field xpath=\"@ref\"/></xs:keyref>\n",
                escape(from_name)
            ));
        }
        out.push_str("  </xs:element>\n");
    } else {
        for root in &roots {
            write_element(schema, *root, &mut out, 1);
        }
    }
    out.push_str("</xs:schema>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xsd::parse_xsd;
    use schemr_model::{validate, SchemaBuilder};

    fn clinic() -> Schema {
        SchemaBuilder::new("clinic")
            .entity("patient", |e| {
                e.attr("height", DataType::Real).attr_doc(
                    "gender",
                    DataType::Text,
                    "administrative gender",
                )
            })
            .entity("visit", |e| {
                e.attr("date", DataType::Date)
                    .attr("patient_id", DataType::Integer)
            })
            .foreign_key("visit", &["patient_id"], "patient", &[])
            .build_unchecked()
    }

    #[test]
    fn exported_xsd_is_wellformed_xml() {
        let xsd = print_xsd(&clinic());
        assert!(crate::xml::XmlParser::parse_all(&xsd).is_ok(), "{xsd}");
        assert!(xsd.contains("xs:schema"));
    }

    #[test]
    fn round_trips_through_the_xsd_reader() {
        let original = clinic();
        let xsd = print_xsd(&original);
        let back = parse_xsd("clinic", &xsd).unwrap();
        assert!(validate(&back).is_empty());
        // The wrapper element adds one entity; all original entities,
        // attributes, and the FK survive.
        let names: Vec<&str> = back
            .entities()
            .iter()
            .map(|&e| back.element(e).name)
            .collect();
        assert!(names.contains(&"patient"));
        assert!(names.contains(&"visit"));
        assert_eq!(back.attributes().len(), original.attributes().len());
        assert_eq!(back.foreign_keys().len(), 1);
        let fk = &back.foreign_keys()[0];
        assert_eq!(back.element(fk.from_entity).name, "visit");
        assert_eq!(back.element(fk.to_entity).name, "patient");
    }

    #[test]
    fn documentation_round_trips() {
        let xsd = print_xsd(&clinic());
        let back = parse_xsd("clinic", &xsd).unwrap();
        let gender = back
            .attributes()
            .into_iter()
            .find(|&a| back.element(a).name == "gender")
            .unwrap();
        assert_eq!(back.element(gender).doc, Some("administrative gender"));
    }

    #[test]
    fn types_round_trip() {
        let xsd = print_xsd(&clinic());
        let back = parse_xsd("clinic", &xsd).unwrap();
        let find = |name: &str| {
            back.attributes()
                .into_iter()
                .find(|&a| back.element(a).name == name)
                .map(|a| back.element(a).data_type)
                .unwrap()
        };
        assert_eq!(find("height"), DataType::Real);
        assert_eq!(find("date"), DataType::Date);
        assert_eq!(find("patient_id"), DataType::Integer);
    }

    #[test]
    fn single_root_schema_needs_no_wrapper() {
        let s = SchemaBuilder::new("solo")
            .entity("thing", |e| e.attr("x", DataType::Text))
            .build_unchecked();
        let xsd = print_xsd(&s);
        assert!(!xsd.contains("name=\"solo\""));
        let back = parse_xsd("solo", &xsd).unwrap();
        assert_eq!(back.entities().len(), 1);
    }

    #[test]
    fn awkward_names_are_escaped() {
        let mut s = Schema::new("x");
        let e = s.add_root(schemr_model::Element::entity("a&b"));
        s.add_child(e, schemr_model::Element::attribute("c<d", DataType::Text));
        let xsd = print_xsd(&s);
        assert!(crate::xml::XmlParser::parse_all(&xsd).is_ok());
    }
}
