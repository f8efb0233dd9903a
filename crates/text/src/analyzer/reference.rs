//! Test-only reference: the allocating pipeline the streaming core
//! replaced, kept so the property tests can compare the two term for
//! term — the way the matchers keep their string-set references.
//!
//! It is deliberately the old code shape: the input copied into a vector
//! of characters, a `String` per token, the token folded once here, again
//! inside the dictionary lookup and a third time on the way out, a
//! `Vec<String>` per expansion. It shares nothing with the stream but the
//! dictionary's map, the stop list and the Porter steps. Its classes
//! carry the tokenizer fix (caseless letters and non-ASCII digits are
//! alphanumeric), which is the one way it differs from what shipped
//! before.

use super::Analyzer;
use crate::stem::stem;
use crate::stopwords::is_stopword;

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    pub text: String,
    pub offset: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Lower,
    Upper,
    Caseless,
    Digit,
    Other,
}

fn classify(c: char) -> Class {
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

fn is_letter(class: Class) -> bool {
    matches!(class, Class::Lower | Class::Upper | Class::Caseless)
}

pub(crate) fn tokenize(input: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    let mut cur_offset = 0usize;
    let chars: Vec<_> = input.char_indices().collect();

    let flush = |tokens: &mut Vec<Token>, cur: &mut String, cur_offset: usize| {
        if !cur.is_empty() {
            tokens.push(Token {
                text: std::mem::take(cur),
                offset: cur_offset,
            });
        }
    };

    for i in 0..chars.len() {
        let (off, c) = chars[i];
        let class = classify(c);
        if class == Class::Other {
            flush(&mut tokens, &mut cur, cur_offset);
            continue;
        }
        if cur.is_empty() {
            cur_offset = off;
            cur.push(c);
            continue;
        }
        let prev = classify(cur.chars().next_back().expect("cur nonempty"));
        let boundary = match (prev, class) {
            (Class::Lower, Class::Upper) => true,
            (Class::Upper, Class::Upper) => {
                matches!(chars.get(i + 1), Some(&(_, next)) if classify(next) == Class::Lower)
            }
            (Class::Digit, letter) if is_letter(letter) => true,
            (letter, Class::Digit) if is_letter(letter) => true,
            _ => false,
        };
        if boundary {
            flush(&mut tokens, &mut cur, cur_offset);
            cur_offset = off;
        }
        cur.push(c);
    }
    flush(&mut tokens, &mut cur, cur_offset);
    tokens
}

fn fold_case(term: &str) -> String {
    term.chars().flat_map(char::to_lowercase).collect()
}

fn expand_words(analyzer: &Analyzer, term: &str) -> Vec<String> {
    match analyzer.abbreviations.expand(&fold_case(term)) {
        Some(exp) => exp.split_whitespace().map(str::to_string).collect(),
        None => vec![fold_case(term)],
    }
}

pub(crate) fn analyze(analyzer: &Analyzer, input: &str) -> Vec<String> {
    let mut out = Vec::new();
    for token in tokenize(input) {
        let folded = fold_case(&token.text);
        let words = if analyzer.config.expand_abbreviations {
            expand_words(analyzer, &folded)
        } else {
            vec![folded]
        };
        for w in words {
            if analyzer.config.remove_stopwords && is_stopword(&w) {
                continue;
            }
            let term = if analyzer.config.stem { stem(&w) } else { w };
            if !term.is_empty() {
                out.push(term);
            }
        }
    }
    out
}
