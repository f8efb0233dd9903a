//! XSD (XML Schema Definition) → schema graph.
//!
//! Maps the structural core of XML Schema onto the model:
//!
//! * global `xs:element`s with complex content and named `xs:complexType`s
//!   become **entities**,
//! * `xs:element`s with simple types and `xs:attribute`s become
//!   **attributes**,
//! * `xs:sequence` / `xs:choice` / `xs:all` become transparent containers
//!   (their children attach directly to the enclosing entity),
//! * nested `xs:element`s with inline complex types become child entities,
//! * `xs:annotation/xs:documentation` text becomes element documentation,
//! * `xs:keyref` pairs become foreign keys when both endpoints resolve.
//!
//! Namespace prefixes are stripped: `xs:element`, `xsd:element`, and
//! `element` are treated alike, which is what a schema *search* tool wants.

use schemr_model::{DataType, Element, ElementId, ForeignKey, Schema};

use crate::error::ParseError;
use crate::xml::{Event, XmlParser};

/// A tiny DOM node, built from the pull parser.
#[derive(Debug)]
struct Node {
    name: String,
    attrs: Vec<(String, String)>,
    children: Vec<Node>,
    text: String,
}

impl Node {
    fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Local (prefix-stripped) element name.
    fn local(&self) -> &str {
        local_name(&self.name)
    }

    fn children_named<'a>(&'a self, local: &'a str) -> impl Iterator<Item = &'a Node> + 'a {
        self.children.iter().filter(move |c| c.local() == local)
    }
}

fn local_name(name: &str) -> &str {
    name.rsplit(':').next().unwrap_or(name)
}

/// Build a DOM from the event stream.
fn build_dom(input: &str) -> Result<Node, ParseError> {
    let mut parser = XmlParser::new(input);
    let mut stack: Vec<Node> = Vec::new();
    let mut root: Option<Node> = None;
    while let Some(ev) = parser.next_event()? {
        match ev {
            Event::Start { name, attributes } => {
                stack.push(Node {
                    name,
                    attrs: attributes.into_iter().map(|a| (a.name, a.value)).collect(),
                    children: Vec::new(),
                    text: String::new(),
                });
            }
            Event::End { .. } => {
                let node = stack.pop().expect("parser guarantees balance");
                match stack.last_mut() {
                    Some(parent) => parent.children.push(node),
                    None => root = Some(node),
                }
            }
            Event::Text(t) => {
                if let Some(top) = stack.last_mut() {
                    if !top.text.is_empty() {
                        top.text.push(' ');
                    }
                    top.text.push_str(&t);
                }
            }
            Event::Comment(_) => {}
        }
    }
    root.ok_or_else(|| ParseError::at_start("no document element"))
}

/// Map an XSD built-in type (`xs:string`, `xsd:dateTime`, …) to the model.
fn map_xsd_type(ty: &str) -> DataType {
    match local_name(ty) {
        "int" | "integer" | "long" | "short" | "byte" | "unsignedInt" | "unsignedLong"
        | "nonNegativeInteger" | "positiveInteger" | "negativeInteger" | "nonPositiveInteger" => {
            DataType::Integer
        }
        "float" | "double" => DataType::Real,
        "decimal" => DataType::Decimal,
        "string" | "normalizedString" | "token" | "anyURI" | "NMTOKEN" | "Name" | "NCName"
        | "ID" | "IDREF" | "language" => DataType::Text,
        "boolean" => DataType::Boolean,
        "date" | "gYear" | "gYearMonth" | "gMonthDay" | "gDay" | "gMonth" => DataType::Date,
        "time" => DataType::Time,
        "dateTime" | "duration" => DataType::DateTime,
        "base64Binary" | "hexBinary" => DataType::Binary,
        _ => DataType::Unknown,
    }
}

/// Extract `<xs:annotation><xs:documentation>…` text from a node.
fn documentation(node: &Node) -> Option<String> {
    let ann = node.children_named("annotation").next()?;
    let doc = ann.children_named("documentation").next()?;
    let text = doc.text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

/// Parse an XSD document into a schema named `schema_name`.
pub fn parse_xsd(schema_name: &str, input: &str) -> Result<Schema, ParseError> {
    let dom = build_dom(input)?;
    if dom.local() != "schema" {
        return Err(ParseError::at_start(format!(
            "expected an xs:schema document element, found `{}`",
            dom.name
        )));
    }
    let mut reader = XsdReader {
        schema: Schema::new(schema_name),
        named_types: dom
            .children_named("complexType")
            .filter_map(|ct| ct.attr("name").map(|n| (n.to_string(), ct)))
            .collect(),
        keyrefs: Vec::new(),
        keys: Vec::new(),
    };

    // Global elements become root entities (or root attributes when simple).
    for el in dom.children_named("element") {
        reader.element(el, None)?;
    }
    // Named complex types that no global element used still index as
    // entities in their own right (common in type-library XSDs).
    let used: std::collections::HashSet<String> = dom
        .children_named("element")
        .filter_map(|e| e.attr("type").map(|t| local_name(t).to_string()))
        .collect();
    let named: Vec<(String, &Node)> = reader
        .named_types
        .iter()
        .map(|(n, ct)| (n.clone(), *ct))
        .collect();
    for (name, ct) in named {
        if !used.contains(&name) {
            let mut entity = Element::entity(name);
            entity.doc = documentation(ct);
            let id = reader.schema.add_root(entity);
            reader.complex_content(ct, id)?;
        }
    }
    reader.resolve_keyrefs();
    Ok(reader.schema)
}

struct XsdReader<'a> {
    schema: Schema,
    named_types: std::collections::HashMap<String, &'a Node>,
    /// (entity, keyref selector target, referred key name)
    keyrefs: Vec<(ElementId, String, String)>,
    /// (key name, entity it selects)
    keys: Vec<(String, String)>,
}

impl<'a> XsdReader<'a> {
    /// Interpret one `xs:element` node under `parent` (None = root).
    fn element(&mut self, el: &'a Node, parent: Option<ElementId>) -> Result<(), ParseError> {
        let Some(name) = el.attr("name").or_else(|| el.attr("ref")) else {
            return Err(ParseError::at_start("xs:element without name or ref"));
        };
        let name = local_name(name).to_string();
        let doc = documentation(el);

        let inline_complex = el.children_named("complexType").next();
        let named_complex = el
            .attr("type")
            .and_then(|t| self.named_types.get(local_name(t)).copied());

        if let Some(ct) = inline_complex.or(named_complex) {
            // Complex content → entity.
            let mut entity = Element::entity(name);
            entity.doc = doc;
            let id = match parent {
                Some(p) => self.schema.add_child(p, entity),
                None => self.schema.add_root(entity),
            };
            self.complex_content(ct, id)?;
            self.identity_constraints(el, id);
        } else {
            // Simple content (built-in type, ref, or typeless) → attribute.
            let ty = el.attr("type").map(map_xsd_type).unwrap_or_default();
            let mut attr = Element::attribute(name, ty);
            attr.doc = doc;
            match parent {
                Some(p) => self.schema.add_child(p, attr),
                None => self.schema.add_root(attr),
            };
        }
        Ok(())
    }

    /// Walk a complexType's content, attaching children to `entity`.
    fn complex_content(&mut self, ct: &'a Node, entity: ElementId) -> Result<(), ParseError> {
        for child in &ct.children {
            match child.local() {
                "sequence" | "choice" | "all" => self.complex_content(child, entity)?,
                "element" => self.element(child, Some(entity))?,
                "attribute" => {
                    if let Some(name) = child.attr("name").or_else(|| child.attr("ref")) {
                        let ty = child.attr("type").map(map_xsd_type).unwrap_or_default();
                        let mut attr = Element::attribute(local_name(name), ty);
                        attr.doc = documentation(child);
                        self.schema.add_child(entity, attr);
                    }
                }
                "complexContent" | "simpleContent" => {
                    // extension/restriction: walk through to the inner model.
                    for inner in &child.children {
                        if matches!(inner.local(), "extension" | "restriction") {
                            self.complex_content(inner, entity)?;
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Record `xs:key` / `xs:keyref` declared on an element.
    fn identity_constraints(&mut self, el: &'a Node, entity: ElementId) {
        let selector_target = |n: &Node| -> Option<String> {
            let sel = n.children_named("selector").next()?;
            let xpath = sel.attr("xpath")?;
            // `.//patient` → `patient`
            Some(
                xpath
                    .rsplit('/')
                    .next()
                    .unwrap_or(xpath)
                    .trim_start_matches('.')
                    .to_string(),
            )
        };
        for key in el.children_named("key") {
            if let (Some(name), Some(target)) = (key.attr("name"), selector_target(key)) {
                self.keys.push((name.to_string(), target));
            }
        }
        for kr in el.children_named("keyref") {
            if let (Some(refer), Some(target)) = (kr.attr("refer"), selector_target(kr)) {
                let _ = entity;
                self.keyrefs
                    .push((entity, target, local_name(refer).to_string()));
            }
        }
    }

    /// Turn recorded keyrefs into foreign keys where both entities resolve
    /// by name; unresolved ones are dropped (fragments may be partial).
    fn resolve_keyrefs(&mut self) {
        let find_entity = |schema: &Schema, name: &str| -> Option<ElementId> {
            schema
                .entities()
                .into_iter()
                .find(|&e| schema.element(e).name == name)
        };
        let keyrefs = std::mem::take(&mut self.keyrefs);
        for (_scope, from_name, key_name) in keyrefs {
            let Some(from_entity) = find_entity(&self.schema, &from_name) else {
                continue;
            };
            let Some((_, to_name)) = self.keys.iter().find(|(k, _)| *k == key_name) else {
                continue;
            };
            let Some(to_entity) = find_entity(&self.schema, to_name) else {
                continue;
            };
            self.schema.add_foreign_key(ForeignKey {
                from_entity,
                from_attrs: vec![],
                to_entity,
                to_attrs: vec![],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_model::{validate, ElementKind};

    const PATIENT_XSD: &str = r#"<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="patient">
    <xs:annotation><xs:documentation>A person under care</xs:documentation></xs:annotation>
    <xs:complexType>
      <xs:sequence>
        <xs:element name="height" type="xs:double"/>
        <xs:element name="gender" type="xs:string"/>
        <xs:element name="dob" type="xs:date"/>
      </xs:sequence>
      <xs:attribute name="id" type="xs:integer"/>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

    #[test]
    fn parses_inline_complex_type() {
        let s = parse_xsd("q", PATIENT_XSD).unwrap();
        assert_eq!(s.entities().len(), 1);
        let e = s.entities()[0];
        assert_eq!(s.element(e).name, "patient");
        assert_eq!(s.element(e).doc, Some("A person under care"));
        let kids = s.children(e);
        assert_eq!(kids.len(), 4);
        assert_eq!(s.element(kids[0]).data_type, DataType::Real);
        assert_eq!(s.element(kids[1]).data_type, DataType::Text);
        assert_eq!(s.element(kids[2]).data_type, DataType::Date);
        assert_eq!(s.element(kids[3]).data_type, DataType::Integer);
        assert!(validate(&s).is_empty());
    }

    #[test]
    fn named_complex_types_resolve_through_type_attribute() {
        let xsd = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="visit" type="VisitType"/>
  <xs:complexType name="VisitType">
    <xs:sequence><xs:element name="date" type="xs:date"/></xs:sequence>
  </xs:complexType>
</xs:schema>"#;
        let s = parse_xsd("q", xsd).unwrap();
        assert_eq!(s.entities().len(), 1);
        assert_eq!(s.element(s.entities()[0]).name, "visit");
        assert_eq!(s.attributes().len(), 1);
    }

    #[test]
    fn unused_named_types_become_entities_themselves() {
        let xsd = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="Address">
    <xs:sequence><xs:element name="street" type="xs:string"/></xs:sequence>
  </xs:complexType>
</xs:schema>"#;
        let s = parse_xsd("q", xsd).unwrap();
        assert_eq!(s.entities().len(), 1);
        assert_eq!(s.element(s.entities()[0]).name, "Address");
    }

    #[test]
    fn nested_inline_complex_types_become_child_entities() {
        let xsd = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="order">
    <xs:complexType><xs:sequence>
      <xs:element name="item">
        <xs:complexType><xs:sequence>
          <xs:element name="sku" type="xs:string"/>
        </xs:sequence></xs:complexType>
      </xs:element>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>"#;
        let s = parse_xsd("q", xsd).unwrap();
        assert_eq!(s.entities().len(), 2);
        let order = s.entities()[0];
        let item = s.entities()[1];
        assert_eq!(s.element(item).parent, Some(order));
        assert_eq!(s.element(item).kind, ElementKind::Entity);
    }

    #[test]
    fn choice_and_all_are_transparent() {
        let xsd = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="contact">
    <xs:complexType><xs:choice>
      <xs:element name="email" type="xs:string"/>
      <xs:element name="phone" type="xs:string"/>
    </xs:choice></xs:complexType>
  </xs:element>
</xs:schema>"#;
        let s = parse_xsd("q", xsd).unwrap();
        assert_eq!(s.children(s.entities()[0]).len(), 2);
    }

    #[test]
    fn extension_walks_into_inner_model() {
        let xsd = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="employee">
    <xs:complexType>
      <xs:complexContent>
        <xs:extension base="Person">
          <xs:sequence><xs:element name="salary" type="xs:decimal"/></xs:sequence>
        </xs:extension>
      </xs:complexContent>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;
        let s = parse_xsd("q", xsd).unwrap();
        assert_eq!(s.attributes().len(), 1);
        assert_eq!(s.element(s.attributes()[0]).data_type, DataType::Decimal);
    }

    #[test]
    fn keyref_becomes_foreign_key() {
        let xsd = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="clinic">
    <xs:complexType><xs:sequence>
      <xs:element name="patient">
        <xs:complexType><xs:sequence>
          <xs:element name="id" type="xs:integer"/>
        </xs:sequence></xs:complexType>
      </xs:element>
      <xs:element name="case">
        <xs:complexType><xs:sequence>
          <xs:element name="patientId" type="xs:integer"/>
        </xs:sequence></xs:complexType>
      </xs:element>
    </xs:sequence></xs:complexType>
    <xs:key name="patientKey"><xs:selector xpath=".//patient"/><xs:field xpath="id"/></xs:key>
    <xs:keyref name="casePatient" refer="patientKey"><xs:selector xpath=".//case"/><xs:field xpath="patientId"/></xs:keyref>
  </xs:element>
</xs:schema>"#;
        let s = parse_xsd("q", xsd).unwrap();
        assert_eq!(s.foreign_keys().len(), 1);
        let fk = &s.foreign_keys()[0];
        assert_eq!(s.element(fk.from_entity).name, "case");
        assert_eq!(s.element(fk.to_entity).name, "patient");
        assert!(validate(&s).is_empty());
    }

    #[test]
    fn global_simple_element_is_a_root_attribute() {
        let xsd = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="temperature" type="xs:double"/>
</xs:schema>"#;
        let s = parse_xsd("q", xsd).unwrap();
        assert!(s.entities().is_empty());
        assert_eq!(s.attributes().len(), 1);
    }

    #[test]
    fn non_schema_root_is_rejected() {
        let err = parse_xsd("q", "<html/>").unwrap_err();
        assert!(err.message.contains("xs:schema"), "{err}");
    }

    #[test]
    fn element_refs_become_attributes() {
        let xsd = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="a">
    <xs:complexType><xs:sequence>
      <xs:element ref="tns:externalThing"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>"#;
        let s = parse_xsd("q", xsd).unwrap();
        let kids = s.children(s.entities()[0]);
        assert_eq!(s.element(kids[0]).name, "externalThing");
    }
}
