//! Header-row import: WebTables-style relational tables.
//!
//! The paper's 30,000-schema repository was distilled from HTML tables on
//! the web [Cafarella et al.]; each such table is just an ordered list of
//! column labels. `parse_header` turns one header row into a one-entity
//! schema, which is exactly how the corpus generator and bulk importers
//! feed WebTables-like data in.

use schemr_model::{DataType, Element, Schema};

use crate::error::ParseError;

/// Parse a comma- (or tab-) separated header row into a one-entity schema.
///
/// The entity takes `name`; each non-empty cell becomes an attribute of
/// unknown type. Surrounding quotes and whitespace are stripped.
pub fn parse_header(name: &str, input: &str) -> Result<Schema, ParseError> {
    let line = input.lines().next().unwrap_or("").trim();
    if line.is_empty() {
        return Err(ParseError::at_start("empty header row"));
    }
    let sep = if line.contains('\t') { '\t' } else { ',' };
    let mut schema = Schema::new(name);
    let entity = schema.add_root(Element::entity(name));
    let mut added = 0usize;
    for cell in line.split(sep) {
        let cell = cell.trim().trim_matches('"').trim();
        if cell.is_empty() {
            continue;
        }
        schema.add_child(entity, Element::attribute(cell, DataType::Unknown));
        added += 1;
    }
    if added == 0 {
        return Err(ParseError::at_start("header row has no usable labels"));
    }
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comma_separated_header() {
        let s = parse_header("observations", "species, count, location, date").unwrap();
        assert_eq!(s.entities().len(), 1);
        let names: Vec<_> = s
            .attributes()
            .into_iter()
            .map(|a| s.element(a).name)
            .collect();
        assert_eq!(names, ["species", "count", "location", "date"]);
    }

    #[test]
    fn tab_separated_wins_when_tabs_present() {
        let s = parse_header("t", "first name\tlast, name\theight").unwrap();
        let names: Vec<_> = s
            .attributes()
            .into_iter()
            .map(|a| s.element(a).name)
            .collect();
        assert_eq!(names, ["first name", "last, name", "height"]);
    }

    #[test]
    fn quotes_and_blank_cells_are_stripped() {
        let s = parse_header("t", "\"a\", , \"b\"").unwrap();
        assert_eq!(s.attributes().len(), 2);
    }

    #[test]
    fn only_first_line_is_read() {
        let s = parse_header("t", "a,b\n1,2\n3,4").unwrap();
        assert_eq!(s.attributes().len(), 2);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(parse_header("t", "").is_err());
        assert!(parse_header("t", " , , ").is_err());
    }
}
