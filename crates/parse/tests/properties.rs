//! Property-based tests for the parsers: printer↔parser round trips and
//! robustness against arbitrary input.

use proptest::prelude::*;
use schemr_model::{DataType, SchemaBuilder};
use schemr_parse::ddl::parse_ddl;
use schemr_parse::printer::print_ddl;
use schemr_parse::xml::XmlParser;

/// Identifier-ish names: start alpha, then alphanumerics/underscores.
fn arb_ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,10}"
}

fn arb_type() -> impl Strategy<Value = DataType> {
    proptest::sample::select(DataType::ALL.to_vec())
}

/// Arbitrary strings: any Unicode scalar value, weighted toward what XML
/// treats specially — every C0 control, U+FFFE and U+FFFF, the markup
/// characters, and whitespace.
fn arb_text() -> impl Strategy<Value = String> {
    let special: Vec<char> = (0u32..0x20)
        .filter_map(char::from_u32)
        .chain([
            '\u{FFFE}', '\u{FFFF}', '&', '<', '>', '"', '\'', ' ', '#', ';',
        ])
        .collect();
    let one = (0u32..2, proptest::sample::select(special), 0u32..0x11_0000);
    proptest::collection::vec(one, 0..40).prop_map(|chars| {
        chars
            .into_iter()
            .map(|(pick, special, any)| match pick {
                0 => special,
                _ => char::from_u32(any).unwrap_or('\u{D7FF}'),
            })
            .collect()
    })
}

/// XML 1.0's `Char` production (surrogates are no `char`).
fn xml_char(c: char) -> bool {
    matches!(c, '\t' | '\n' | '\r' | '\u{20}'..='\u{D7FF}' | '\u{E000}'..='\u{FFFD}' | '\u{10000}'..)
}

proptest! {
    /// Any schema built from identifier-safe names survives a DDL
    /// print → parse round trip with identical structure.
    #[test]
    fn ddl_round_trip_preserves_structure(
        tables in proptest::collection::vec(
            (arb_ident(), proptest::collection::vec((arb_ident(), arb_type()), 1..6)),
            1..4,
        )
    ) {
        // Dedupe table names and per-table column names so the builder
        // resolves unambiguously.
        let mut seen_tables = std::collections::HashSet::new();
        let mut builder = SchemaBuilder::new("prop");
        let mut expected_tables = 0usize;
        let mut expected_columns = 0usize;
        for (tname, cols) in &tables {
            if !seen_tables.insert(tname.clone()) {
                continue;
            }
            expected_tables += 1;
            let mut seen_cols = std::collections::HashSet::new();
            let cols: Vec<(String, DataType)> = cols
                .iter()
                .filter(|(c, _)| seen_cols.insert(c.clone()))
                .cloned()
                .collect();
            expected_columns += cols.len();
            builder = builder.entity(tname.clone(), move |mut e| {
                for (c, t) in cols {
                    e = e.attr(c, t);
                }
                e
            });
        }
        let schema = builder.build_unchecked();
        let ddl = print_ddl(&schema);
        let reparsed = parse_ddl("prop", &ddl).unwrap();
        prop_assert_eq!(reparsed.entities().len(), expected_tables);
        prop_assert_eq!(reparsed.attributes().len(), expected_columns);
        // Names survive verbatim.
        for (a, b) in schema.ids().zip(reparsed.ids()) {
            prop_assert_eq!(&schema.element(a).name, &reparsed.element(b).name);
        }
    }

    /// The DDL lexer/parser never panics on arbitrary input.
    #[test]
    fn ddl_parser_never_panics(input in ".{0,200}") {
        let _ = parse_ddl("fuzz", &input);
    }

    /// The XML parser never panics on arbitrary input.
    #[test]
    fn xml_parser_never_panics(input in ".{0,200}") {
        let _ = XmlParser::parse_all(&input);
    }

    /// Escaped arbitrary text round-trips through an XML document.
    #[test]
    fn xml_escape_round_trips(text in "[^\\x00]{0,100}") {
        let doc = format!("<a>{}</a>", schemr_parse::xml::escape(&text));
        let events = XmlParser::parse_all(&doc).unwrap();
        // Whitespace-only text is skipped by the parser; otherwise the
        // decoded text must equal the trimmed original.
        if text.trim().is_empty() {
            prop_assert_eq!(events.len(), 2);
        } else {
            match &events[1] {
                schemr_parse::xml::Event::Text(t) => prop_assert_eq!(t.as_str(), text.trim()),
                other => prop_assert!(false, "expected text event, got {:?}", other),
            }
        }
    }

    /// Escaped text holds only characters an XML document can carry, and
    /// no raw TAB, LF or CR, which attribute-value normalisation would
    /// turn into spaces.
    #[test]
    fn escape_writes_only_xml_chars(text in arb_text()) {
        let mut out = String::new();
        schemr_parse::xml::escape_into(&mut out, &text);
        prop_assert!(
            out.chars().all(|c| xml_char(c) && !matches!(c, '\t' | '\n' | '\r')),
            "{:?} escaped to {:?}",
            text,
            out
        );
    }

    /// An escaped attribute value decodes back through the in-tree parser
    /// to the original, exactly when every character is legal, and with
    /// U+FFFD for each one that is not.
    #[test]
    fn escaped_attribute_values_decode_exactly(text in arb_text()) {
        let doc = format!("<a v=\"{}\"/>", schemr_parse::xml::escape(&text));
        let events = XmlParser::parse_all(&doc).unwrap();
        let expected: String = text
            .chars()
            .map(|c| if xml_char(c) { c } else { char::REPLACEMENT_CHARACTER })
            .collect();
        match &events[0] {
            schemr_parse::xml::Event::Start { attributes, .. } => {
                prop_assert_eq!(&attributes[0].value, &expected);
                if text.chars().all(xml_char) {
                    prop_assert_eq!(&attributes[0].value, &text);
                }
            }
            other => prop_assert!(false, "expected a start tag, got {:?}", other),
        }
    }

    /// parse_fragment dispatches without panicking for any input.
    #[test]
    fn parse_fragment_never_panics(input in ".{0,200}") {
        let _ = schemr_parse::parse_fragment("fuzz", &input);
    }

    /// CSV headers parse every identifier list.
    #[test]
    fn csv_headers_parse(cells in proptest::collection::vec("[a-z]{1,8}", 1..10)) {
        let header = cells.join(",");
        let schema = schemr_parse::csv::parse_header("t", &header).unwrap();
        prop_assert_eq!(schema.attributes().len(), cells.len());
    }
}
