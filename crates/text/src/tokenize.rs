//! Tokenization of schema element names and free text.
//!
//! Splits on delimiter characters (`_`, `-`, `.`, whitespace, punctuation),
//! camelCase boundaries (`PatientHeight` → `Patient`, `Height`), acronym
//! boundaries (`HTTPResponse` → `HTTP`, `Response`), and letter/digit
//! boundaries (`address2` → `address`, `2`).
//!
//! There is one tokenizer: [`tokenize`] walks the input once and hands
//! out [`Token`]s that *borrow* it — a `&str` slice and its byte offset,
//! no copy of the input and no `String` per token. [`words`] collects the
//! slices; the [`crate::Analyzer`] folds, expands, stops and stems them
//! as they come.

/// A token: a slice of the source string and where it starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token text, exactly as it appears in the source.
    pub text: &'a str,
    /// Byte offset of the token's first character.
    pub offset: usize,
}

/// Character classes driving boundary detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Lower,
    Upper,
    /// A letter of a script without case (`患`, `מ`): part of a word, but
    /// it can neither open nor close a camelCase or acronym boundary.
    Caseless,
    Digit,
    Other,
}

fn classify(c: char) -> Class {
    if c.is_ascii() {
        return match c {
            'a'..='z' => Class::Lower,
            'A'..='Z' => Class::Upper,
            '0'..='9' => Class::Digit,
            _ => Class::Other,
        };
    }
    if c.is_lowercase() {
        Class::Lower
    } else if c.is_uppercase() {
        Class::Upper
    } else if c.is_alphabetic() {
        Class::Caseless
    } else if c.is_numeric() {
        Class::Digit
    } else {
        Class::Other
    }
}

/// The tokens of one input, in order. Created by [`tokenize`].
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    input: &'a str,
    chars: std::str::CharIndices<'a>,
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        // Skip delimiters up to the token's first character.
        let (start, mut prev) = loop {
            let (off, c) = self.chars.next()?;
            let class = classify(c);
            if class != Class::Other {
                break (off, class);
            }
        };
        // Extend the token until a delimiter, a boundary, or the end.
        let end = loop {
            let mut ahead = self.chars.clone();
            let Some((off, c)) = ahead.next() else {
                break self.input.len();
            };
            let class = classify(c);
            if class == Class::Other {
                // The delimiter is consumed; it belongs to no token.
                self.chars = ahead;
                break off;
            }
            let boundary = match (prev, class) {
                // camelCase: patient|Height
                (Class::Lower, Class::Upper) => true,
                // acronym end: HTTP|Server — split before an Upper followed by a lower.
                (Class::Upper, Class::Upper) => {
                    matches!(ahead.clone().next(), Some((_, after)) if classify(after) == Class::Lower)
                }
                // letter/digit transitions: address|2, 2|nd
                (Class::Digit, Class::Lower | Class::Upper | Class::Caseless)
                | (Class::Lower | Class::Upper | Class::Caseless, Class::Digit) => true,
                _ => false,
            };
            if boundary {
                // Left in place: it is the next token's first character.
                break off;
            }
            self.chars = ahead;
            prev = class;
        };
        Some(Token {
            text: &self.input[start..end],
            offset: start,
        })
    }
}

/// Split `input` into tokens, each a slice of `input` at its offset.
///
/// Boundary rules, applied between consecutive characters `a`,`b`:
/// * either side is a non-alphanumeric delimiter → split (delimiter dropped),
/// * `lower → Upper` (camelCase) → split,
/// * `Upper → Upper lower` (acronym end: `HTTPServer` → `HTTP`|`Server`) → split,
/// * letter ↔ digit transition → split.
///
/// Alphanumeric is Unicode's notion: a letter of a caseless script
/// (`患者`, `מטופל`) is a letter that takes part in no case boundary, and
/// a non-ASCII digit (`٣`) is a digit.
pub fn tokenize(input: &str) -> Tokens<'_> {
    Tokens {
        input,
        chars: input.char_indices(),
    }
}

/// Tokenize and return just the texts.
pub fn words(input: &str) -> Vec<&str> {
    tokenize(input).map(|t| t.text).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(s: &str) -> Vec<&str> {
        words(s)
    }

    #[test]
    fn splits_on_delimiters() {
        assert_eq!(texts("patient_height"), ["patient", "height"]);
        assert_eq!(texts("patient-height"), ["patient", "height"]);
        assert_eq!(texts("patient.height"), ["patient", "height"]);
        assert_eq!(texts("patient height"), ["patient", "height"]);
        assert_eq!(
            texts("patient/height,gender"),
            ["patient", "height", "gender"]
        );
    }

    #[test]
    fn splits_camel_case() {
        assert_eq!(texts("PatientHeight"), ["Patient", "Height"]);
        assert_eq!(texts("patientHeight"), ["patient", "Height"]);
    }

    #[test]
    fn keeps_acronyms_together() {
        assert_eq!(texts("HTTPServer"), ["HTTP", "Server"]);
        assert_eq!(texts("parseXMLDocument"), ["parse", "XML", "Document"]);
        assert_eq!(texts("HIV"), ["HIV"]);
    }

    #[test]
    fn splits_letter_digit_boundaries() {
        assert_eq!(texts("address2"), ["address", "2"]);
        assert_eq!(texts("2nd"), ["2", "nd"]);
        assert_eq!(texts("icd10code"), ["icd", "10", "code"]);
    }

    #[test]
    fn empty_and_delimiter_only_inputs() {
        assert!(texts("").is_empty());
        assert!(texts("___---").is_empty());
        assert!(texts("  \t ").is_empty());
    }

    #[test]
    fn offsets_point_into_the_source() {
        let source = "pat_Height2";
        let toks: Vec<Token<'_>> = tokenize(source).collect();
        let expected = [("pat", 0), ("Height", 4), ("2", 10)];
        assert_eq!(toks, expected.map(|(text, offset)| Token { text, offset }));
        for t in &toks {
            assert_eq!(&source[t.offset..t.offset + t.text.len()], t.text);
        }
    }

    #[test]
    fn handles_unicode_without_panicking() {
        // Non-ASCII letters are classified by Unicode case.
        assert_eq!(texts("größeÜber"), ["größe", "Über"]);
    }

    #[test]
    fn caseless_scripts_and_non_ascii_digits_are_alphanumeric() {
        // Regression: a letter without case and a digit outside ASCII
        // used to be delimiters, so these names tokenized to nothing.
        assert_eq!(texts("患者"), ["患者"]);
        assert_eq!(texts("מטופל"), ["מטופל"]);
        assert_eq!(texts("患者_id"), ["患者", "id"]);
        assert_eq!(texts("patient٣"), ["patient", "٣"]);
        // A caseless letter opens no camelCase or acronym boundary …
        assert_eq!(texts("patient患者Height"), ["patient患者Height"]);
        assert_eq!(texts("AB患c"), ["AB患c"]);
        // … while letter ↔ digit still splits, whatever the script.
        assert_eq!(texts("患者٣号"), ["患者", "٣", "号"]);
    }

    #[test]
    fn single_character_tokens() {
        assert_eq!(texts("a_b_c"), ["a", "b", "c"]);
        assert_eq!(texts("aB"), ["a", "B"]);
    }
}
