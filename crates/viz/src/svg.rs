//! SVG rendering of a layout — the inspectable stand-in for the Flash GUI.

use schemr::MatchedElement;
use schemr_model::Schema;
use schemr_parse::xml::escape;

use crate::color::{ramp_color, type_color};
use crate::layout::Layout;

/// Node circle radius.
const NODE_RADIUS: f64 = 14.0;

/// Canvas padding around the layout bounds.
const PADDING: f64 = 60.0;

/// SVG rendering options.
#[derive(Debug, Clone, Default)]
pub struct SvgOptions {
    /// Per-element match scores; matched nodes get a similarity halo.
    pub scores: Vec<MatchedElement>,
}

/// Render a layout of `schema` to an SVG document string.
pub fn render_svg(schema: &Schema, layout: &Layout, options: &SvgOptions) -> String {
    let (minx, miny, maxx, maxy) = layout.bounds();
    let width = (maxx - minx) + 2.0 * PADDING;
    let height = (maxy - miny) + 2.0 * PADDING;
    let tx = |x: f64| x - minx + PADDING;
    let ty = |y: f64| y - miny + PADDING;

    let mut out = String::with_capacity(2048);
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" viewBox=\"0 0 {width:.0} {height:.0}\">\n"
    ));
    out.push_str(&format!(
        "  <rect width=\"{width:.0}\" height=\"{height:.0}\" fill=\"#ffffff\"/>\n"
    ));

    // Containment edges.
    for &(p, c) in &layout.edges {
        let (Some(pp), Some(pc)) = (layout.position(p), layout.position(c)) else {
            continue;
        };
        out.push_str(&format!(
            "  <line x1=\"{:.1}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" stroke=\"#b5b5b5\" stroke-width=\"1.5\"/>\n",
            tx(pp.x), ty(pp.y), tx(pc.x), ty(pc.y)
        ));
    }
    // FK edges, dashed.
    for &(a, b) in &layout.fk_edges {
        let (Some(pa), Some(pb)) = (layout.position(a), layout.position(b)) else {
            continue;
        };
        out.push_str(&format!(
            "  <line x1=\"{:.1}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" stroke=\"#7a7adb\" stroke-width=\"1.5\" stroke-dasharray=\"6 4\"/>\n",
            tx(pa.x), ty(pa.y), tx(pb.x), ty(pb.y)
        ));
    }
    // Nodes.
    for n in &layout.nodes {
        let el = schema.element(n.id);
        let score = options
            .scores
            .iter()
            .find(|m| m.element == n.id)
            .map(|m| m.score);
        if let Some(s) = score {
            // Similarity halo behind the node.
            out.push_str(&format!(
                "  <circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"{:.1}\" fill=\"{}\"/>\n",
                tx(n.x),
                ty(n.y),
                NODE_RADIUS + 6.0,
                ramp_color(s).hex()
            ));
        }
        out.push_str(&format!(
            "  <circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"{:.1}\" fill=\"{}\" stroke=\"#555555\"/>\n",
            tx(n.x),
            ty(n.y),
            NODE_RADIUS,
            type_color(el.kind).hex()
        ));
        out.push_str(&format!(
            "  <text x=\"{:.1}\" y=\"{:.1}\" font-size=\"11\" text-anchor=\"middle\" font-family=\"sans-serif\">{}</text>\n",
            tx(n.x),
            ty(n.y) + NODE_RADIUS + 12.0,
            escape(el.name)
        ));
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::tree_layout;
    use schemr_model::{DataType, DistanceClass, SchemaBuilder};

    fn clinic() -> Schema {
        SchemaBuilder::new("clinic")
            .entity("patient", |e| {
                e.attr("height", DataType::Real)
                    .attr("gender", DataType::Text)
            })
            .build_unchecked()
    }

    #[test]
    fn svg_contains_a_circle_per_node_and_line_per_edge() {
        let s = clinic();
        let layout = tree_layout(&s, &s.roots(), 3);
        let svg = render_svg(&s, &layout, &SvgOptions::default());
        assert_eq!(svg.matches("<circle").count(), s.len());
        assert_eq!(svg.matches("<line").count(), layout.edges.len());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn matched_nodes_get_halos() {
        let s = clinic();
        let layout = tree_layout(&s, &s.roots(), 3);
        let svg = render_svg(
            &s,
            &layout,
            &SvgOptions {
                scores: vec![MatchedElement {
                    element: s.attributes()[0],
                    term: 0,
                    score: 0.9,
                    class: DistanceClass::SameEntity,
                }],
            },
        );
        // One extra circle: the halo.
        assert_eq!(svg.matches("<circle").count(), s.len() + 1);
    }

    #[test]
    fn svg_parses_as_xml() {
        let s = clinic();
        let layout = tree_layout(&s, &s.roots(), 3);
        let svg = render_svg(&s, &layout, &SvgOptions::default());
        assert!(schemr_parse::xml::XmlParser::parse_all(&svg).is_ok());
    }

    #[test]
    fn coordinates_are_shifted_into_the_canvas() {
        let s = clinic();
        let layout = tree_layout(&s, &s.roots(), 3);
        let svg = render_svg(&s, &layout, &SvgOptions::default());
        // No negative coordinates.
        assert!(!svg.contains("=\"-"));
    }
}
