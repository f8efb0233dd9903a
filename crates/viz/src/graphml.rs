//! GraphML serialization — the transport format between the search service
//! and the GUI ("returns a graphical representation of the schema to the
//! client as a GraphML response").
//!
//! Nodes carry label, kind, data type, and (optionally) the match score
//! from Phase 3 so the client can apply the similarity encodings. Edges
//! carry their kind: `contains` or `fk`.

use schemr::MatchedElement;
use schemr_model::{ElementId, Schema};
use schemr_parse::xml::escape;

/// GraphML output options.
#[derive(Debug, Clone, Default)]
pub struct GraphmlOptions {
    /// Cap the serialized containment depth (the paper's display cap);
    /// `None` serializes the whole schema.
    pub max_depth: Option<usize>,
    /// Per-element match scores to embed (from a search result).
    pub scores: Vec<MatchedElement>,
}

/// Serialize `schema` to GraphML.
pub fn to_graphml(schema: &Schema, options: &GraphmlOptions) -> String {
    let visible: Vec<ElementId> = match options.max_depth {
        Some(d) => schema
            .roots()
            .into_iter()
            .flat_map(|r| schema.subtree(r, d))
            .collect(),
        None => schema.ids().collect(),
    };
    let visible_set: std::collections::HashSet<ElementId> = visible.iter().copied().collect();
    let score_of = |id: ElementId| -> Option<f64> {
        options
            .scores
            .iter()
            .find(|m| m.element == id)
            .map(|m| m.score)
    };

    let mut out = String::with_capacity(1024);
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str("<graphml xmlns=\"http://graphml.graphdrawing.org/xmlns\">\n");
    out.push_str("  <key id=\"label\" for=\"node\" attr.name=\"label\" attr.type=\"string\"/>\n");
    out.push_str("  <key id=\"kind\" for=\"node\" attr.name=\"kind\" attr.type=\"string\"/>\n");
    out.push_str("  <key id=\"type\" for=\"node\" attr.name=\"type\" attr.type=\"string\"/>\n");
    out.push_str("  <key id=\"score\" for=\"node\" attr.name=\"score\" attr.type=\"double\"/>\n");
    out.push_str("  <key id=\"ekind\" for=\"edge\" attr.name=\"kind\" attr.type=\"string\"/>\n");
    out.push_str(&format!(
        "  <graph id=\"{}\" edgedefault=\"directed\">\n",
        escape(&schema.name)
    ));
    for &id in &visible {
        let el = schema.element(id);
        out.push_str(&format!("    <node id=\"{id}\">\n"));
        out.push_str(&format!(
            "      <data key=\"label\">{}</data>\n",
            escape(el.name)
        ));
        out.push_str(&format!("      <data key=\"kind\">{}</data>\n", el.kind));
        out.push_str(&format!(
            "      <data key=\"type\">{}</data>\n",
            el.data_type
        ));
        if let Some(score) = score_of(id) {
            out.push_str(&format!("      <data key=\"score\">{score:.4}</data>\n"));
        }
        out.push_str("    </node>\n");
    }
    let mut edge_ix = 0usize;
    for &id in &visible {
        if let Some(parent) = schema.element(id).parent {
            if visible_set.contains(&parent) {
                out.push_str(&format!(
                    "    <edge id=\"e{edge_ix}\" source=\"{parent}\" target=\"{id}\"><data key=\"ekind\">contains</data></edge>\n"
                ));
                edge_ix += 1;
            }
        }
    }
    for fk in schema.foreign_keys() {
        if visible_set.contains(&fk.from_entity) && visible_set.contains(&fk.to_entity) {
            out.push_str(&format!(
                "    <edge id=\"e{edge_ix}\" source=\"{}\" target=\"{}\"><data key=\"ekind\">fk</data></edge>\n",
                fk.from_entity, fk.to_entity
            ));
            edge_ix += 1;
        }
    }
    out.push_str("  </graph>\n</graphml>\n");
    out
}

/// Errors from [`from_graphml`].
#[derive(Debug)]
pub enum GraphmlError {
    /// The input is not well-formed XML.
    Xml(schemr_parse::ParseError),
    /// The document parses but is not a usable GraphML schema graph.
    Shape(String),
}

impl std::fmt::Display for GraphmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphmlError::Xml(e) => write!(f, "graphml: {e}"),
            GraphmlError::Shape(msg) => write!(f, "graphml: {msg}"),
        }
    }
}

impl std::error::Error for GraphmlError {}

/// Parse GraphML (as produced by [`to_graphml`]) back into a schema plus
/// any embedded per-element match scores — the client side of the
/// paper's transport format.
pub fn from_graphml(xml: &str) -> Result<(Schema, Vec<(ElementId, f64)>), GraphmlError> {
    use schemr_parse::xml::{Event, XmlParser};

    #[derive(Default, Clone)]
    struct NodeData {
        label: String,
        kind: String,
        data_type: String,
        score: Option<f64>,
    }

    let mut parser = XmlParser::new(xml);
    let mut graph_name = String::from("graphml");
    let mut nodes: Vec<(String, NodeData)> = Vec::new();
    let mut contains: Vec<(String, String)> = Vec::new();
    let mut fks: Vec<(String, String)> = Vec::new();

    let mut current_node: Option<(String, NodeData)> = None;
    let mut current_edge: Option<(String, String, String)> = None; // source, target, kind
    let mut current_data_key: Option<String> = None;

    while let Some(ev) = parser.next_event().map_err(GraphmlError::Xml)? {
        match ev {
            Event::Start { name, attributes } => {
                let local = name.rsplit(':').next().unwrap_or(&name);
                let attr = |k: &str| {
                    attributes
                        .iter()
                        .find(|a| a.name == k)
                        .map(|a| a.value.clone())
                };
                match local {
                    "graph" => {
                        if let Some(id) = attr("id") {
                            graph_name = id;
                        }
                    }
                    "node" => {
                        let id = attr("id")
                            .ok_or_else(|| GraphmlError::Shape("node without id".into()))?;
                        current_node = Some((id, NodeData::default()));
                    }
                    "edge" => {
                        let source = attr("source")
                            .ok_or_else(|| GraphmlError::Shape("edge without source".into()))?;
                        let target = attr("target")
                            .ok_or_else(|| GraphmlError::Shape("edge without target".into()))?;
                        current_edge = Some((source, target, "contains".into()));
                    }
                    "data" => current_data_key = attr("key"),
                    _ => {}
                }
            }
            Event::Text(text) => {
                if let Some(key) = &current_data_key {
                    if let Some((_, data)) = current_node.as_mut() {
                        match key.as_str() {
                            "label" => data.label = text,
                            "kind" => data.kind = text,
                            "type" => data.data_type = text,
                            "score" => data.score = text.parse().ok(),
                            _ => {}
                        }
                    } else if let Some((_, _, kind)) = current_edge.as_mut() {
                        if key == "ekind" {
                            *kind = text;
                        }
                    }
                }
            }
            Event::End { name } => {
                let local = name.rsplit(':').next().unwrap_or(&name);
                match local {
                    "node" => {
                        if let Some(n) = current_node.take() {
                            nodes.push(n);
                        }
                    }
                    "edge" => {
                        if let Some((s, t, kind)) = current_edge.take() {
                            if kind == "fk" {
                                fks.push((s, t));
                            } else {
                                contains.push((s, t));
                            }
                        }
                    }
                    "data" => current_data_key = None,
                    _ => {}
                }
            }
            Event::Comment(_) => {}
        }
    }

    // Assemble: BFS from roots so parents exist before children.
    let index_of: std::collections::HashMap<&str, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, (id, _))| (id.as_str(), i))
        .collect();
    let mut parent_of: Vec<Option<usize>> = vec![None; nodes.len()];
    for (s, t) in &contains {
        let (Some(&p), Some(&c)) = (index_of.get(s.as_str()), index_of.get(t.as_str())) else {
            return Err(GraphmlError::Shape(format!(
                "edge references unknown node {s}→{t}"
            )));
        };
        if parent_of[c].is_some() {
            return Err(GraphmlError::Shape(format!("node {t} has two parents")));
        }
        parent_of[c] = Some(p);
    }

    // Insert in document order (our writer emits parents before children,
    // so this preserves the original element layout); repeated passes
    // handle foreign documents with children listed first.
    let mut schema = Schema::new(graph_name);
    let mut new_ids: Vec<Option<ElementId>> = vec![None; nodes.len()];
    let mut placed = 0usize;
    loop {
        let before = placed;
        for i in 0..nodes.len() {
            if new_ids[i].is_some() {
                continue;
            }
            let parent_id = match parent_of[i] {
                Some(p) => match new_ids[p] {
                    Some(id) => Some(id),
                    None => continue, // parent not placed yet; next pass
                },
                None => None,
            };
            let data = &nodes[i].1;
            let kind_el = match data.kind.as_str() {
                "entity" => schemr_model::Element::entity(data.label.clone()),
                "group" => schemr_model::Element::group(data.label.clone()),
                _ => {
                    let ty = schemr_model::DataType::ALL
                        .into_iter()
                        .find(|t| t.label() == data.data_type)
                        .unwrap_or_default();
                    schemr_model::Element::attribute(data.label.clone(), ty)
                }
            };
            new_ids[i] = Some(match parent_id {
                Some(p) => schema.add_child(p, kind_el),
                None => schema.add_root(kind_el),
            });
            placed += 1;
        }
        if placed == nodes.len() {
            break;
        }
        if placed == before {
            return Err(GraphmlError::Shape("containment cycle".into()));
        }
    }
    for (s, t) in &fks {
        let (Some(&si), Some(&ti)) = (index_of.get(s.as_str()), index_of.get(t.as_str())) else {
            return Err(GraphmlError::Shape(format!(
                "fk references unknown node {s}→{t}"
            )));
        };
        schema.add_foreign_key(schemr_model::ForeignKey {
            from_entity: new_ids[si].expect("placed"),
            from_attrs: vec![],
            to_entity: new_ids[ti].expect("placed"),
            to_attrs: vec![],
        });
    }
    let scores = nodes
        .iter()
        .enumerate()
        .filter_map(|(i, (_, d))| d.score.map(|s| (new_ids[i].expect("placed"), s)))
        .collect();
    Ok((schema, scores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_model::{DataType, DistanceClass, SchemaBuilder};
    use schemr_parse::xml::{Event, XmlParser};

    fn clinic() -> Schema {
        SchemaBuilder::new("clinic")
            .entity("patient", |e| {
                e.attr("height", DataType::Real)
                    .attr("gender", DataType::Text)
            })
            .entity("case", |e| e.attr("patient_id", DataType::Integer))
            .foreign_key("case", &["patient_id"], "patient", &[])
            .build_unchecked()
    }

    fn count_events(xml: &str) -> (usize, usize) {
        let events = XmlParser::parse_all(xml).unwrap();
        let nodes = events
            .iter()
            .filter(|e| matches!(e, Event::Start { name, .. } if name == "node"))
            .count();
        let edges = events
            .iter()
            .filter(|e| matches!(e, Event::Start { name, .. } if name == "edge"))
            .count();
        (nodes, edges)
    }

    #[test]
    fn graphml_is_well_formed_with_all_nodes_and_edges() {
        let s = clinic();
        let xml = to_graphml(&s, &GraphmlOptions::default());
        let (nodes, edges) = count_events(&xml);
        assert_eq!(nodes, s.len());
        // 3 containment edges + 1 FK edge.
        assert_eq!(edges, 4);
        assert!(xml.contains("<data key=\"ekind\">fk</data>"));
    }

    #[test]
    fn depth_cap_limits_nodes() {
        let mut s = schemr_model::Schema::new("deep");
        let a = s.add_root(schemr_model::Element::entity("a"));
        let b = s.add_child(a, schemr_model::Element::group("b"));
        let c = s.add_child(b, schemr_model::Element::group("c"));
        s.add_child(c, schemr_model::Element::attribute("x", DataType::Text));
        let xml = to_graphml(
            &s,
            &GraphmlOptions {
                max_depth: Some(2),
                scores: vec![],
            },
        );
        let (nodes, edges) = count_events(&xml);
        assert_eq!(nodes, 3);
        assert_eq!(edges, 2);
    }

    #[test]
    fn scores_embed_for_matched_elements_only() {
        let s = clinic();
        let height = s.attributes()[0];
        let xml = to_graphml(
            &s,
            &GraphmlOptions {
                max_depth: None,
                scores: vec![MatchedElement {
                    element: height,
                    term: 0,
                    score: 0.87,
                    class: DistanceClass::SameEntity,
                }],
            },
        );
        assert_eq!(xml.matches("<data key=\"score\">").count(), 1);
        assert!(xml.contains("0.8700"));
    }

    #[test]
    fn names_are_escaped() {
        let mut s = schemr_model::Schema::new("x<&>y");
        let e = s.add_root(schemr_model::Element::entity("a&b"));
        s.add_child(e, schemr_model::Element::attribute("c<d", DataType::Text));
        let xml = to_graphml(&s, &GraphmlOptions::default());
        // Must parse back cleanly.
        assert!(XmlParser::parse_all(&xml).is_ok());
        assert!(xml.contains("a&amp;b"));
        assert!(xml.contains("c&lt;d"));
    }

    #[test]
    fn from_graphml_round_trips_structure_and_scores() {
        let s = clinic();
        let height = s.attributes()[0];
        let xml = to_graphml(
            &s,
            &GraphmlOptions {
                max_depth: None,
                scores: vec![MatchedElement {
                    element: height,
                    term: 0,
                    score: 0.87,
                    class: DistanceClass::SameEntity,
                }],
            },
        );
        let (back, scores) = from_graphml(&xml).unwrap();
        assert_eq!(back.name, "clinic");
        assert_eq!(back.len(), s.len());
        assert_eq!(back.entities().len(), s.entities().len());
        assert_eq!(back.foreign_keys().len(), s.foreign_keys().len());
        for (a, b) in s.ids().zip(back.ids()) {
            assert_eq!(s.element(a).name, back.element(b).name);
            assert_eq!(s.element(a).kind, back.element(b).kind);
            assert_eq!(s.element(a).data_type, back.element(b).data_type);
            assert_eq!(s.path(a), back.path(b));
        }
        assert_eq!(scores.len(), 1);
        assert!((scores[0].1 - 0.87).abs() < 1e-6);
        assert!(schemr_model::validate(&back).is_empty());
    }

    #[test]
    fn from_graphml_rejects_malformed_documents() {
        assert!(from_graphml("<graphml><graph><node/></graph></graphml>").is_err()); // node w/o id
        assert!(from_graphml("not xml").is_err());
        // Two parents.
        let bad = r#"<graphml><graph id="g">
            <node id="a"><data key="label">a</data><data key="kind">entity</data></node>
            <node id="b"><data key="label">b</data><data key="kind">entity</data></node>
            <node id="c"><data key="label">c</data><data key="kind">attribute</data></node>
            <edge source="a" target="c"/><edge source="b" target="c"/>
        </graph></graphml>"#;
        assert!(matches!(from_graphml(bad), Err(GraphmlError::Shape(_))));
    }

    #[test]
    fn labels_round_trip_through_the_xml_parser() {
        let s = clinic();
        let xml = to_graphml(&s, &GraphmlOptions::default());
        let events = XmlParser::parse_all(&xml).unwrap();
        let labels: Vec<&String> = events
            .windows(2)
            .filter_map(|w| match (&w[0], &w[1]) {
                (Event::Start { name, attributes }, Event::Text(t))
                    if name == "data"
                        && attributes
                            .iter()
                            .any(|a| a.name == "key" && a.value == "label") =>
                {
                    Some(t)
                }
                _ => None,
            })
            .collect();
        assert_eq!(labels.len(), s.len());
        assert!(labels.iter().any(|l| *l == "patient"));
    }

    /// Names as a repository can hold them: printable text with XML's
    /// markup characters, TAB, LF, CR and the controls XML 1.0 cannot
    /// carry mixed in.
    fn arb_name() -> impl proptest::prelude::Strategy<Value = String> {
        use proptest::prelude::Strategy;
        let special = vec![
            '\t', '\n', '\r', '\u{1}', '\u{8}', '\u{C}', '\u{FFFF}', '&', '<',
        ];
        let one = (0u32..3, proptest::sample::select(special), ".");
        proptest::collection::vec(one, 0..12).prop_map(|parts| {
            parts
                .into_iter()
                .map(|(pick, special, plain)| match pick {
                    0 => special.to_string(),
                    _ => plain,
                })
                .collect()
        })
    }

    /// XML 1.0's `Char` production (surrogates are no `char`).
    fn xml_char(c: char) -> bool {
        matches!(c, '\t' | '\n' | '\r' | '\u{20}'..='\u{D7FF}' | '\u{E000}'..='\u{FFFD}' | '\u{10000}'..)
    }

    /// What an XML document can carry of `name`: U+FFFD for each
    /// character outside XML 1.0's `Char` production.
    fn carried(name: &str) -> String {
        name.chars()
            .map(|c| {
                if xml_char(c) {
                    c
                } else {
                    char::REPLACEMENT_CHARACTER
                }
            })
            .collect()
    }

    proptest::proptest! {
        /// Any schema and element names give a well-formed document whose
        /// names come back through `from_graphml`: the schema name (an
        /// attribute) exactly, TAB, LF and CR included; an element label
        /// (character data, which the parser trims) once its ends are
        /// free of whitespace.
        #[test]
        fn names_round_trip_through_graphml(graph in arb_name(), names in proptest::collection::vec(arb_name(), 1..5)) {
            let names: Vec<String> = names.iter().map(|n| n.trim().to_string()).collect();
            let mut s = schemr_model::Schema::new(graph.clone());
            let root = s.add_root(schemr_model::Element::entity(names[0].clone()));
            for name in &names[1..] {
                s.add_child(root, schemr_model::Element::attribute(name.clone(), DataType::Text));
            }
            let xml = to_graphml(&s, &GraphmlOptions::default());
            proptest::prop_assert!(xml.chars().all(xml_char));
            let (back, _) = from_graphml(&xml).unwrap();
            proptest::prop_assert_eq!(&back.name, &carried(&graph));
            proptest::prop_assert_eq!(back.len(), names.len());
            for (id, name) in back.ids().zip(&names) {
                proptest::prop_assert_eq!(back.element(id).name, carried(name).trim());
            }
        }
    }
}
