//! A minimal streaming XML pull parser — the substrate beneath the XSD
//! reader and the GraphML round-trip tests.
//!
//! Supports the subset of XML that schema documents use: elements with
//! attributes, text content, comments, processing instructions, CDATA
//! sections, and the five predefined entities. Namespaces are surfaced as
//! raw prefixed names (`xs:element`); the XSD layer strips prefixes itself.
//! DTDs are not supported.

use crate::error::{ParseError, Position};

/// An attribute on a start tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name, possibly prefixed (`xs:type`, `minOccurs`).
    pub name: String,
    /// Decoded attribute value.
    pub value: String,
}

/// One parse event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `<name attr="…">` (for self-closing tags an [`Event::End`] follows
    /// immediately).
    Start {
        name: String,
        attributes: Vec<Attribute>,
    },
    /// `</name>`.
    End { name: String },
    /// Decoded character data between tags (whitespace-only runs are
    /// skipped).
    Text(String),
    /// `<!-- … -->` (content verbatim).
    Comment(String),
}

/// Pull parser over an XML document.
pub struct XmlParser<'a> {
    input: &'a [u8],
    at: usize,
    pos: Position,
    /// Stack of open element names, for well-formedness checks.
    open: Vec<String>,
    /// Pending End event for a self-closed tag.
    pending_end: Option<String>,
    /// True once the document element has closed.
    done: bool,
}

impl<'a> XmlParser<'a> {
    /// Parser over `input`. Parsing is incremental; call [`XmlParser::next_event`].
    pub fn new(input: &'a str) -> Self {
        XmlParser {
            input: input.as_bytes(),
            at: 0,
            pos: Position::start(),
            open: Vec::new(),
            pending_end: None,
            done: false,
        }
    }

    /// Parse the whole document into a vector of events (convenience for
    /// tests and small documents).
    pub fn parse_all(input: &str) -> Result<Vec<Event>, ParseError> {
        let mut p = XmlParser::new(input);
        let mut events = Vec::new();
        while let Some(ev) = p.next_event()? {
            events.push(ev);
        }
        Ok(events)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.pos)
    }

    fn peek_byte(&self) -> Option<u8> {
        self.input.get(self.at).copied()
    }

    fn bump_byte(&mut self) -> Option<u8> {
        let b = self.peek_byte()?;
        self.at += 1;
        // Positions are tracked per byte; multi-byte chars advance columns
        // once per continuation byte too, which is close enough for error
        // reporting.
        self.pos.advance(b as char);
        Some(b)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek_byte(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump_byte();
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.at..].starts_with(s.as_bytes())
    }

    fn eat_str(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in 0..s.len() {
                self.bump_byte();
            }
            true
        } else {
            false
        }
    }

    /// Scan until `delim` appears; return the content before it (delim
    /// consumed).
    fn take_until(&mut self, delim: &str) -> Result<String, ParseError> {
        let start = self.at;
        while self.at < self.input.len() {
            if self.starts_with(delim) {
                let content = std::str::from_utf8(&self.input[start..self.at])
                    .map_err(|_| self.err("invalid UTF-8"))?
                    .to_string();
                self.eat_str(delim);
                return Ok(content);
            }
            self.bump_byte();
        }
        Err(self.err(format!("expected `{delim}` before end of input")))
    }

    fn name(&mut self) -> Result<String, ParseError> {
        let start = self.at;
        while let Some(b) = self.peek_byte() {
            let c = b as char;
            if c.is_ascii_alphanumeric() || matches!(c, ':' | '_' | '-' | '.') {
                self.bump_byte();
            } else {
                break;
            }
        }
        if self.at == start {
            return Err(self.err("expected a name"));
        }
        Ok(std::str::from_utf8(&self.input[start..self.at])
            .expect("name bytes are ASCII")
            .to_string())
    }

    fn attribute(&mut self) -> Result<Attribute, ParseError> {
        let name = self.name()?;
        self.skip_whitespace();
        if self.bump_byte() != Some(b'=') {
            return Err(self.err(format!("expected `=` after attribute `{name}`")));
        }
        self.skip_whitespace();
        let quote = self
            .bump_byte()
            .filter(|b| matches!(b, b'"' | b'\''))
            .ok_or_else(|| self.err("expected quoted attribute value"))?;
        let raw = self.take_until(if quote == b'"' { "\"" } else { "'" })?;
        Ok(Attribute {
            name,
            value: decode_entities(&raw, self.pos)?,
        })
    }

    /// The next event, or `None` at end of document.
    pub fn next_event(&mut self) -> Result<Option<Event>, ParseError> {
        if let Some(name) = self.pending_end.take() {
            self.open.pop();
            if self.open.is_empty() {
                self.done = true;
            }
            return Ok(Some(Event::End { name }));
        }
        loop {
            if self.open.is_empty() {
                self.skip_whitespace();
            }
            if self.at >= self.input.len() {
                if !self.open.is_empty() {
                    return Err(self.err(format!(
                        "unclosed element `{}`",
                        self.open.last().expect("nonempty")
                    )));
                }
                if !self.done {
                    return Err(self.err("empty document"));
                }
                return Ok(None);
            }
            if self.done {
                // Only whitespace, comments, and PIs may trail the document
                // element.
                if self.eat_str("<!--") {
                    let c = self.take_until("-->")?;
                    return Ok(Some(Event::Comment(c)));
                }
                if self.eat_str("<?") {
                    self.take_until("?>")?;
                    continue;
                }
                return Err(self.err("content after document element"));
            }
            if self.peek_byte() == Some(b'<') {
                if self.eat_str("<!--") {
                    let c = self.take_until("-->")?;
                    return Ok(Some(Event::Comment(c)));
                }
                if self.eat_str("<![CDATA[") {
                    let c = self.take_until("]]>")?;
                    if self.open.is_empty() {
                        return Err(self.err("CDATA outside document element"));
                    }
                    return Ok(Some(Event::Text(c)));
                }
                if self.eat_str("<?") {
                    self.take_until("?>")?;
                    continue;
                }
                if self.eat_str("<!") {
                    // DOCTYPE or other declaration: skip to `>`.
                    self.take_until(">")?;
                    continue;
                }
                if self.eat_str("</") {
                    let name = self.name()?;
                    self.skip_whitespace();
                    if self.bump_byte() != Some(b'>') {
                        return Err(self.err("expected `>` in end tag"));
                    }
                    match self.open.pop() {
                        Some(expected) if expected == name => {
                            if self.open.is_empty() {
                                self.done = true;
                            }
                            return Ok(Some(Event::End { name }));
                        }
                        Some(expected) => {
                            return Err(self.err(format!(
                                "mismatched end tag: expected `</{expected}>`, found `</{name}>`"
                            )))
                        }
                        None => return Err(self.err(format!("unmatched end tag `</{name}>`"))),
                    }
                }
                // Start tag.
                self.bump_byte(); // consume '<'
                let name = self.name()?;
                let mut attributes = Vec::new();
                loop {
                    self.skip_whitespace();
                    match self.peek_byte() {
                        Some(b'>') => {
                            self.bump_byte();
                            self.open.push(name.clone());
                            return Ok(Some(Event::Start { name, attributes }));
                        }
                        Some(b'/') => {
                            self.bump_byte();
                            if self.bump_byte() != Some(b'>') {
                                return Err(self.err("expected `/>`"));
                            }
                            self.open.push(name.clone());
                            self.pending_end = Some(name.clone());
                            return Ok(Some(Event::Start { name, attributes }));
                        }
                        Some(_) => attributes.push(self.attribute()?),
                        None => return Err(self.err("unexpected end of input in tag")),
                    }
                }
            }
            // Text content.
            let start = self.at;
            while self.at < self.input.len() && self.peek_byte() != Some(b'<') {
                self.bump_byte();
            }
            let raw = std::str::from_utf8(&self.input[start..self.at])
                .map_err(|_| self.err("invalid UTF-8"))?;
            if self.open.is_empty() {
                if raw.trim().is_empty() {
                    continue;
                }
                return Err(self.err("text outside document element"));
            }
            if !raw.trim().is_empty() {
                return Ok(Some(Event::Text(decode_entities(raw.trim(), self.pos)?)));
            }
        }
    }
}

/// Decode the five predefined entities plus numeric character references.
fn decode_entities(s: &str, pos: Position) -> Result<String, ParseError> {
    if !s.contains('&') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest
            .find(';')
            .ok_or_else(|| ParseError::new("unterminated entity reference", pos))?;
        let entity = &rest[1..semi];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16).map_err(|_| {
                    ParseError::new(format!("bad character reference `&{entity};`"), pos)
                })?;
                out.push(char::from_u32(code).ok_or_else(|| {
                    ParseError::new(format!("invalid character reference `&{entity};`"), pos)
                })?);
            }
            _ if entity.starts_with('#') => {
                let code: u32 = entity[1..].parse().map_err(|_| {
                    ParseError::new(format!("bad character reference `&{entity};`"), pos)
                })?;
                out.push(char::from_u32(code).ok_or_else(|| {
                    ParseError::new(format!("invalid character reference `&{entity};`"), pos)
                })?);
            }
            _ => return Err(ParseError::new(format!("unknown entity `&{entity};`"), pos)),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// Escape text for inclusion in XML character data or attribute values.
/// TAB, LF and CR are written as character references, so an attribute
/// value keeps them through a conforming parser's normalisation; a
/// character outside XML 1.0's `Char` production, which no document can
/// carry even as a reference, is written as U+FFFD.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// [`escape`] appended to `out`, for a writer that builds a document in
/// one buffer.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            '\t' => out.push_str("&#9;"),
            '\n' => out.push_str("&#10;"),
            '\r' => out.push_str("&#13;"),
            '\u{0}'..='\u{1F}' | '\u{FFFE}' | '\u{FFFF}' => out.push(char::REPLACEMENT_CHARACTER),
            other => out.push(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(input: &str) -> Vec<Event> {
        XmlParser::parse_all(input).unwrap()
    }

    #[test]
    fn parses_elements_and_text() {
        let events = parse("<a><b>hello</b></a>");
        assert_eq!(
            events,
            vec![
                Event::Start {
                    name: "a".into(),
                    attributes: vec![]
                },
                Event::Start {
                    name: "b".into(),
                    attributes: vec![]
                },
                Event::Text("hello".into()),
                Event::End { name: "b".into() },
                Event::End { name: "a".into() },
            ]
        );
    }

    #[test]
    fn self_closing_tags_emit_start_then_end() {
        let events = parse("<a><b x=\"1\"/></a>");
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[1],
            Event::Start {
                name: "b".into(),
                attributes: vec![Attribute {
                    name: "x".into(),
                    value: "1".into()
                }]
            }
        );
        assert_eq!(events[2], Event::End { name: "b".into() });
    }

    #[test]
    fn attributes_with_both_quote_styles_and_entities() {
        let events = parse("<a title='x &amp; y' alt=\"&lt;tag&gt;\"/>");
        let Event::Start { attributes, .. } = &events[0] else {
            panic!()
        };
        assert_eq!(attributes[0].value, "x & y");
        assert_eq!(attributes[1].value, "<tag>");
    }

    #[test]
    fn xml_declaration_doctype_and_comments() {
        let events = parse("<?xml version=\"1.0\"?><!DOCTYPE a><!-- hi --><a/>");
        assert_eq!(events[0], Event::Comment(" hi ".into()));
        assert!(matches!(events[1], Event::Start { .. }));
    }

    #[test]
    fn cdata_is_verbatim_text() {
        let events = parse("<a><![CDATA[<not & parsed>]]></a>");
        assert_eq!(events[1], Event::Text("<not & parsed>".into()));
    }

    #[test]
    fn numeric_character_references() {
        let events = parse("<a>&#65;&#x42;</a>");
        assert_eq!(events[1], Event::Text("AB".into()));
    }

    #[test]
    fn namespaced_names_pass_through() {
        let events = parse("<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\"/>");
        let Event::Start { name, attributes } = &events[0] else {
            panic!()
        };
        assert_eq!(name, "xs:schema");
        assert_eq!(attributes[0].name, "xmlns:xs");
    }

    #[test]
    fn mismatched_tags_are_rejected() {
        let err = XmlParser::parse_all("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
    }

    #[test]
    fn unclosed_elements_are_rejected() {
        let err = XmlParser::parse_all("<a><b>").unwrap_err();
        assert!(err.message.contains("unclosed"), "{err}");
    }

    #[test]
    fn content_after_document_element_is_rejected() {
        let err = XmlParser::parse_all("<a/><b/>").unwrap_err();
        assert!(err.message.contains("after document element"), "{err}");
    }

    #[test]
    fn trailing_comments_are_allowed() {
        let events = parse("<a/><!-- done -->");
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn empty_document_is_rejected() {
        assert!(XmlParser::parse_all("").is_err());
        assert!(XmlParser::parse_all("   ").is_err());
    }

    #[test]
    fn unknown_entities_are_rejected() {
        assert!(XmlParser::parse_all("<a>&nope;</a>").is_err());
    }

    #[test]
    fn escape_round_trips_through_decode() {
        let original = "a < b & c > 'd' \"e\"";
        let escaped = escape(original);
        let events = parse(&format!("<a>{escaped}</a>"));
        assert_eq!(events[1], Event::Text(original.into()));
    }

    #[test]
    fn whitespace_only_text_is_skipped() {
        let events = parse("<a>\n  <b/>\n</a>");
        assert!(!events.iter().any(|e| matches!(e, Event::Text(_))));
    }
}
