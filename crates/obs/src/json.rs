//! The workspace's one JSON codec.
//!
//! Writing is appending to a `String`: [`escape_into`] and
//! [`string_into`] for text, [`number`] for floats. Reading is a pull
//! [`Reader`] over `&str`: the caller walks objects and arrays with
//! callbacks and asks for the type it expects next, so a typed document
//! (`repo.json`, the community signals) goes straight into its types with
//! no tree in between, and a string without escapes is borrowed from the
//! input. [`Json`] is the untyped tree the event log, the trace endpoints
//! and the benchmark read, built on the same reader. This crate has
//! **zero dependencies**, so the codec is hand-rolled here.

use std::borrow::Cow;

/// Objects and arrays nested deeper than this are refused, so no input
/// can exhaust the stack.
const MAX_DEPTH: usize = 128;

/// Append `s` escaped for a JSON string (quotes not included): `"` and
/// `\` backslashed, `\n \r \t \b \f` in their short forms, every other
/// control character as lowercase `\u00XX`, everything else raw.
pub fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        // Every byte matched is ASCII, so `i` and `i + 1` are char
        // boundaries.
        out.push_str(&s[plain..i]);
        plain = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[plain..]);
}

/// Escape a string for embedding in a JSON document (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Append `s` as a JSON string, quotes included.
pub fn string_into(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Render an f64 the way the rest of the crate expects: finite numbers
/// via `{}` (shortest round-trip), non-finite ones as `null` (JSON has
/// no NaN/Inf).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key/value pairs in document order (duplicates kept as-is).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut r = Reader::new(input);
        let v = Json::read(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    fn read(r: &mut Reader<'_>) -> Result<Json, JsonError> {
        Ok(match r.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                r.object(|r, key| {
                    fields.push((key.into_owned(), Json::read(r)?));
                    Ok(())
                })?;
                Json::Obj(fields)
            }
            Some(b'[') => {
                let mut items = Vec::new();
                r.array(|r| {
                    items.push(Json::read(r)?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            Some(b'"') => Json::Str(r.string()?.into_owned()),
            Some(b't' | b'f') => Json::Bool(r.bool()?),
            Some(b'-' | b'0'..=b'9') => Json::Num(r.f64()?),
            _ if r.null() => Json::Null,
            _ => return Err(r.error("expected a value")),
        })
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// A parse failure with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub pos: usize,
    pub message: Cow<'static, str>,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A pull reader over one JSON document.
///
/// Every read skips the whitespace before its value, consumes exactly one
/// value of the type asked for, and otherwise fails with the byte offset
/// it stopped at. [`Reader::finish`] checks that nothing but whitespace
/// follows the document.
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    pub fn new(input: &'a str) -> Self {
        Reader {
            input,
            pos: 0,
            depth: 0,
        }
    }

    /// An error at the current position.
    pub fn error(&self, message: impl Into<Cow<'static, str>>) -> JsonError {
        JsonError {
            pos: self.pos,
            message: message.into(),
        }
    }

    /// The next byte after any whitespace, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let rest = &self.input.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .take_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .count();
        self.input.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(message))
        }
    }

    /// End of the document: only whitespace may follow.
    pub fn finish(mut self) -> Result<(), JsonError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    /// Walk an object: `f` gets each key in document order and must read
    /// or [`skip`](Reader::skip) its value.
    pub fn object(
        &mut self,
        mut f: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.seq(b'{', b'}', |r| {
            let key = r.string()?;
            r.expect(b':', "expected ':'")?;
            f(r, key)
        })
    }

    /// Walk an array: `f` reads each item.
    pub fn array(
        &mut self,
        f: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.seq(b'[', b']', f)
    }

    /// `open`, items separated by commas, `close`.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        let (expected, separator) = match open {
            b'{' => ("expected an object", "expected ',' or '}'"),
            _ => ("expected an array", "expected ',' or ']'"),
        };
        self.expect(open, expected)?;
        if self.depth == MAX_DEPTH {
            return Err(self.error("nested too deeply"));
        }
        self.depth += 1;
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                item(self)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.error(separator)),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Walk an object whose keys are a struct's fields, `names`: `f` gets
    /// each known key as it comes and reads its value. Unknown keys are
    /// skipped; a repeated or a missing one is an error.
    pub fn fields<const N: usize>(
        &mut self,
        names: [&'static str; N],
        mut f: impl FnMut(&mut Self, &'static str) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        let mut seen = [false; N];
        self.object(|r, key| match names.iter().position(|&n| n == key) {
            Some(i) if seen[i] => Err(r.error(format!("duplicate field {key:?}"))),
            Some(i) => {
                seen[i] = true;
                f(r, names[i])
            }
            None => r.skip(),
        })?;
        match seen.iter().position(|&s| !s) {
            Some(i) => Err(self.error(format!("missing field {:?}", names[i]))),
            None => Ok(()),
        }
    }

    /// A string, borrowed from the input when it holds no escapes. A raw
    /// control character is an error; `\u` escapes of a surrogate pair
    /// decode to one character, and an unpaired surrogate is an error.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"', "expected a string")?;
        let bytes = self.input.as_bytes();
        let mut owned = String::new();
        let mut escaped = false;
        let mut start = self.pos;
        loop {
            let Some(run) = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            else {
                self.pos = bytes.len();
                return Err(self.error("unterminated string"));
            };
            self.pos += run;
            // The byte found is ASCII, so `pos` is a char boundary.
            let text = &self.input[start..self.pos];
            match bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(if escaped {
                        owned.push_str(text);
                        Cow::Owned(owned)
                    } else {
                        Cow::Borrowed(text)
                    });
                }
                b'\\' => {
                    escaped = true;
                    owned.push_str(text);
                    self.pos += 1;
                    owned.push(self.escape()?);
                    start = self.pos;
                }
                _ => return Err(self.error("control character in string")),
            }
        }
    }

    /// The character an escape (after its backslash) stands for.
    fn escape(&mut self) -> Result<char, JsonError> {
        let b = self.input.as_bytes().get(self.pos).copied();
        self.pos += 1;
        Ok(match b {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let high = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&high) {
                    if !self.input.as_bytes()[self.pos..].starts_with(b"\\u") {
                        return Err(self.error("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.error("unpaired surrogate"));
                    }
                    0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
                } else {
                    high
                };
                // Only a lone low surrogate is not a char here.
                char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"))?
            }
            _ => return Err(self.error("bad escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self.input.as_bytes().get(self.pos..self.pos + 4);
        let code = digits.and_then(|digits| {
            digits
                .iter()
                .try_fold(0, |code, &d| Some(code * 16 + char::from(d).to_digit(16)?))
        });
        let code = code.ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// An unsigned integer, exactly: digits only, no sign, fraction or
    /// exponent, and a value past `u64::MAX` is an error.
    pub fn u64(&mut self) -> Result<u64, JsonError> {
        self.peek();
        let bytes = &self.input.as_bytes()[self.pos..];
        let len = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
        if len == 0 || matches!(bytes.get(len), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
            return Err(self.error("expected an unsigned integer"));
        }
        let n = self.input[self.pos..self.pos + len]
            .parse()
            .map_err(|_| self.error("integer out of range"))?;
        self.pos += len;
        Ok(n)
    }

    /// Any JSON number, as an `f64`.
    fn f64(&mut self) -> Result<f64, JsonError> {
        self.peek();
        let len = self.input.as_bytes()[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
            .count();
        let n = self.input[self.pos..self.pos + len]
            .parse()
            .map_err(|_| self.error("expected a number"))?;
        self.pos += len;
        Ok(n)
    }

    fn bool(&mut self) -> Result<bool, JsonError> {
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            Err(self.error("expected true or false"))
        }
    }

    /// Consume a `null` if one comes next; `false` (and nothing consumed)
    /// otherwise.
    fn null(&mut self) -> bool {
        self.literal("null")
    }

    /// `None` for a `null`, otherwise what `read` reads.
    pub fn nullable<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Option<T>, JsonError> {
        if self.null() {
            Ok(None)
        } else {
            read(self).map(Some)
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        self.peek();
        let found = self.input.as_bytes()[self.pos..].starts_with(word.as_bytes());
        if found {
            self.pos += word.len();
        }
        found
    }

    /// A unit enum variant, written as its name: the one of `all` whose
    /// `name` is the string read.
    pub fn variant<T: Copy>(
        &mut self,
        all: &[T],
        name: impl Fn(T) -> &'static str,
    ) -> Result<T, JsonError> {
        let s = self.string()?;
        all.iter()
            .copied()
            .find(|&v| name(v) == s)
            .ok_or_else(|| self.error(format!("unknown variant {s:?}")))
    }

    /// Read past one value of any type (an unknown key's).
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip()),
            Some(b'[') => self.array(Self::skip),
            Some(b'"') => self.string().map(drop),
            Some(b't' | b'f') => self.bool().map(drop),
            _ if self.null() => Ok(()),
            _ => self.f64().map(drop),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_escaped_strings() {
        let original = "a \"quote\"\\ with\nnewline\tand\u{1}control\u{8}\u{c}";
        let doc = format!("{{\"k\":\"{}\"}}", escape(original));
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("k").unwrap().as_str(), Some(original));
    }

    #[test]
    fn escapes_are_the_repository_files_bytes() {
        // What `repo.json` has always held: short forms for the five
        // named controls, lowercase `\u00XX` for the rest, raw non-ASCII.
        for c in (0u8..0x20).chain([b'"', b'\\']) {
            let expected = match c {
                b'"' => "\\\"".to_string(),
                b'\\' => "\\\\".to_string(),
                b'\n' => "\\n".to_string(),
                b'\r' => "\\r".to_string(),
                b'\t' => "\\t".to_string(),
                0x08 => "\\b".to_string(),
                0x0c => "\\f".to_string(),
                c => format!("\\u{:04x}", c),
            };
            assert_eq!(escape(&char::from(c).to_string()), expected, "{c:#x}");
        }
        assert_eq!(escape("Größe ☂ \u{7f}"), "Größe ☂ \u{7f}");
        let mut out = String::new();
        string_into(&mut out, "a\u{1f}b");
        assert_eq!(out, "\"a\\u001fb\"");
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut r = Reader::new(r#" "plain ☂" "esc\"aped" "#);
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("plain ☂")));
        let escaped = r.string().unwrap();
        assert!(matches!(escaped, Cow::Owned(_)));
        assert_eq!(escaped, "esc\"aped");
        r.finish().unwrap();
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_halves_do_not() {
        // The escaped pair for U+1F600, then an escaped U+00E9.
        let bs = '\\';
        let escaped = format!("\"{bs}ud83d{bs}ude00 {bs}u00e9\"");
        assert_eq!(escaped.len(), 21);
        let mut r = Reader::new(&escaped);
        assert_eq!(r.string().unwrap(), "\u{1f600} \u{e9}");
        for lone in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ud83dA""#, r#""\ude00""#] {
            assert!(Reader::new(lone).string().is_err(), "{lone}");
        }
    }

    #[test]
    fn a_raw_control_character_in_a_string_is_an_error() {
        assert!(Reader::new("\"a\nb\"").string().is_err());
        assert!(Json::parse("\"tab\there\"").is_err());
    }

    #[test]
    fn integers_are_exact() {
        for n in [0, 9_007_199_254_740_993, u64::MAX] {
            assert_eq!(Reader::new(&n.to_string()).u64().unwrap(), n);
        }
        for bad in ["18446744073709551616", "-1", "1.5", "1e3", "\"7\"", "", "x"] {
            assert!(Reader::new(bad).u64().is_err(), "{bad}");
        }
    }

    #[test]
    fn fields_skip_unknown_keys_and_refuse_repeated_or_missing_ones() {
        let read = |doc: &str| {
            let mut r = Reader::new(doc);
            let mut a = 0;
            r.fields(["a", "b"], |r, key| {
                match key {
                    "a" => a = r.u64()?,
                    _ => assert!(r.null()),
                }
                Ok(())
            })
            .map(|()| a)
        };
        assert_eq!(read(r#"{"x":[1,{"y":null}],"b":null,"a":7}"#), Ok(7));
        let missing = read(r#"{"a":7}"#).unwrap_err();
        assert!(missing.message.contains("missing field \"b\""), "{missing}");
        assert!(read(r#"{"a":7,"b":null,"a":8}"#).is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert_eq!(Json::parse(&deep).unwrap_err().message, "nested too deeply");
        assert!(Reader::new(&deep).skip().is_err());
        let nested = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&nested).is_ok());
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a":[1,2.5,-3e2],"b":{"c":true,"d":null},"e":"x"}"#;
        let v = Json::parse(doc).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1,}").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn unicode_survives() {
        let doc = "{\"q\":\"höhe ≥ 1.8m\"}";
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("q").unwrap().as_str(), Some("höhe ≥ 1.8m"));
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(1.25), "1.25");
    }
}
