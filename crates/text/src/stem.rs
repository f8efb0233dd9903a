//! A from-scratch Porter stemmer (M.F. Porter, "An algorithm for suffix
//! stripping", 1980).
//!
//! The name matcher must rank `diagnoses`, `diagnosed`, and `diagnosis`
//! close to the query term `diagnosis` — the paper calls out "alternate
//! grammatical forms" explicitly. Stemming conflates those forms before
//! n-gram comparison and before index terms are written.
//!
//! The implementation follows the published algorithm: words are measured
//! as `[C](VC)^m[V]`, and five rule phases strip or rewrite suffixes subject
//! to measure and shape conditions. Input is expected lowercase; words
//! shorter than three characters or containing non-ASCII-alphabetic
//! characters are returned unchanged.

/// Stem one lowercase word into a new `String`.
pub fn stem(word: &str) -> String {
    stem_in(word, &mut Vec::new()).to_string()
}

/// Stem one lowercase word in `buf`, whose contents are overwritten —
/// the one entry to the algorithm; a caller that keeps `buf` stems
/// without allocating. The result borrows `buf`, or `word` itself when
/// the word passes through unchanged.
pub(crate) fn stem_in<'a>(word: &'a str, buf: &'a mut Vec<u8>) -> &'a str {
    if word.len() <= 2 || !word.bytes().all(|b| b.is_ascii_lowercase()) {
        return word;
    }
    buf.clear();
    buf.extend_from_slice(word.as_bytes());
    step1a(buf);
    step1b(buf);
    step1c(buf);
    step2(buf);
    step3(buf);
    step4(buf);
    step5a(buf);
    step5b(buf);
    std::str::from_utf8(buf).expect("stemmer preserves ASCII")
}

/// Is `w[i]` a consonant, per Porter's definition (`y` is a consonant when
/// preceded by a vowel... precisely: `y` is a consonant at position 0 or
/// when the previous letter is a vowel)?
fn is_consonant(w: &[u8], i: usize) -> bool {
    match w[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => false,
        b'y' => i == 0 || !is_consonant(w, i - 1),
        _ => true,
    }
}

/// Porter's measure m of `w[..len]`: the number of VC sequences in
/// `[C](VC)^m[V]`.
fn measure(w: &[u8], len: usize) -> usize {
    let mut m = 0;
    let mut i = 0;
    // Skip initial consonants.
    while i < len && is_consonant(w, i) {
        i += 1;
    }
    loop {
        // Skip vowels.
        while i < len && !is_consonant(w, i) {
            i += 1;
        }
        if i >= len {
            return m;
        }
        // Skip consonants — one full VC block seen.
        while i < len && is_consonant(w, i) {
            i += 1;
        }
        m += 1;
    }
}

/// Does `w[..len]` contain a vowel?
fn has_vowel(w: &[u8], len: usize) -> bool {
    (0..len).any(|i| !is_consonant(w, i))
}

/// Does `w[..len]` end with a double consonant?
fn ends_double_consonant(w: &[u8], len: usize) -> bool {
    len >= 2 && w[len - 1] == w[len - 2] && is_consonant(w, len - 1)
}

/// Does `w[..len]` end consonant-vowel-consonant, where the final consonant
/// is not `w`, `x`, or `y`? (Porter's `*o` condition.)
fn ends_cvc(w: &[u8], len: usize) -> bool {
    if len < 3 {
        return false;
    }
    is_consonant(w, len - 3)
        && !is_consonant(w, len - 2)
        && is_consonant(w, len - 1)
        && !matches!(w[len - 1], b'w' | b'x' | b'y')
}

fn ends_with(w: &[u8], suffix: &str) -> bool {
    w.len() >= suffix.len() && &w[w.len() - suffix.len()..] == suffix.as_bytes()
}

/// If `w` ends with `suffix` and the stem before it has measure > `min_m`,
/// replace the suffix with `replacement` and return true.
fn replace_if_m(w: &mut Vec<u8>, suffix: &str, replacement: &str, min_m: usize) -> bool {
    if !ends_with(w, suffix) {
        return false;
    }
    let stem_len = w.len() - suffix.len();
    if measure(w, stem_len) > min_m {
        w.truncate(stem_len);
        w.extend_from_slice(replacement.as_bytes());
        true
    } else {
        false
    }
}

/// Plurals: `sses`→`ss`, `ies`→`i`, `ss`→`ss`, `s`→``.
fn step1a(w: &mut Vec<u8>) {
    // `sses`→`ss` and `ies`→`i` both strip two characters.
    if ends_with(w, "sses") || ends_with(w, "ies") {
        w.truncate(w.len() - 2);
    } else if ends_with(w, "ss") {
        // keep
    } else if ends_with(w, "s") {
        w.truncate(w.len() - 1);
    }
}

/// Past tense / gerunds: `eed`, `ed`, `ing`, with cleanup rules.
fn step1b(w: &mut Vec<u8>) {
    if ends_with(w, "eed") {
        let stem_len = w.len() - 3;
        if measure(w, stem_len) > 0 {
            w.truncate(w.len() - 1); // eed -> ee
        }
        return;
    }
    let stripped = if ends_with(w, "ed") && has_vowel(w, w.len() - 2) {
        w.truncate(w.len() - 2);
        true
    } else if ends_with(w, "ing") && has_vowel(w, w.len() - 3) {
        w.truncate(w.len() - 3);
        true
    } else {
        false
    };
    if stripped {
        if ends_with(w, "at") || ends_with(w, "bl") || ends_with(w, "iz") {
            w.push(b'e');
        } else if ends_double_consonant(w, w.len()) && !matches!(w[w.len() - 1], b'l' | b's' | b'z')
        {
            w.truncate(w.len() - 1);
        } else if measure(w, w.len()) == 1 && ends_cvc(w, w.len()) {
            w.push(b'e');
        }
    }
}

/// `y` → `i` when the stem contains a vowel.
fn step1c(w: &mut [u8]) {
    let len = w.len();
    if len > 1 && w[len - 1] == b'y' && has_vowel(w, len - 1) {
        w[len - 1] = b'i';
    }
}

/// Double-suffix reductions (`ational`→`ate`, `iveness`→`ive`, …), m > 0.
fn step2(w: &mut Vec<u8>) {
    const RULES: &[(&str, &str)] = &[
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    ];
    for (suffix, replacement) in RULES {
        if ends_with(w, suffix) {
            replace_if_m(w, suffix, replacement, 0);
            return;
        }
    }
}

/// `icate`→`ic`, `ative`→``, `alize`→`al`, …, m > 0.
fn step3(w: &mut Vec<u8>) {
    const RULES: &[(&str, &str)] = &[
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    ];
    for (suffix, replacement) in RULES {
        if ends_with(w, suffix) {
            replace_if_m(w, suffix, replacement, 0);
            return;
        }
    }
}

/// Strip residual suffixes (`al`, `ance`, `ment`, `tion` via `ion`, …), m > 1.
fn step4(w: &mut Vec<u8>) {
    const SUFFIXES: &[&str] = &[
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ion",
        "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    ];
    for suffix in SUFFIXES {
        if ends_with(w, suffix) {
            let stem_len = w.len() - suffix.len();
            if measure(w, stem_len) > 1 {
                // `ion` only strips after `s` or `t`.
                if *suffix == "ion" && stem_len > 0 && !matches!(w[stem_len - 1], b's' | b't') {
                    return;
                }
                w.truncate(stem_len);
            }
            return;
        }
    }
}

/// Drop a final `e` when m > 1, or when m == 1 and the stem does not end
/// cvc.
fn step5a(w: &mut Vec<u8>) {
    if ends_with(w, "e") {
        let stem_len = w.len() - 1;
        let m = measure(w, stem_len);
        if m > 1 || (m == 1 && !ends_cvc(w, stem_len)) {
            w.truncate(stem_len);
        }
    }
}

/// `ll` → `l` when m > 1.
fn step5b(w: &mut Vec<u8>) {
    let len = w.len();
    if len >= 2 && w[len - 1] == b'l' && ends_double_consonant(w, len) && measure(w, len) > 1 {
        w.truncate(len - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cases from Porter's paper and the canonical test vocabulary.
    #[test]
    fn canonical_examples() {
        let cases = [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("digitizer", "digit"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("formaliti", "formal"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ];
        for (input, expected) in cases {
            assert_eq!(stem(input), expected, "stem({input})");
        }
    }

    #[test]
    fn schema_vocabulary_conflates_grammatical_variants() {
        assert_eq!(stem("diagnoses"), stem("diagnose"));
        assert_eq!(stem("medications"), stem("medication"));
        assert_eq!(stem("measurements"), stem("measurement"));
        assert_eq!(stem("patients"), stem("patient"));
    }

    #[test]
    fn short_words_pass_through() {
        assert_eq!(stem("is"), "is");
        assert_eq!(stem("a"), "a");
        assert_eq!(stem(""), "");
    }

    #[test]
    fn non_ascii_and_mixed_case_pass_through() {
        assert_eq!(stem("Patients"), "Patients");
        assert_eq!(stem("größe"), "größe");
        assert_eq!(stem("icd10"), "icd10");
    }

    #[test]
    fn measure_counts_vc_sequences() {
        let m = |s: &str| measure(s.as_bytes(), s.len());
        assert_eq!(m("tr"), 0);
        assert_eq!(m("ee"), 0);
        assert_eq!(m("tree"), 0);
        assert_eq!(m("y"), 0);
        assert_eq!(m("by"), 0);
        assert_eq!(m("trouble"), 1);
        assert_eq!(m("oats"), 1);
        assert_eq!(m("trees"), 1);
        assert_eq!(m("ivy"), 1);
        assert_eq!(m("troubles"), 2);
        assert_eq!(m("private"), 2);
        assert_eq!(m("oaten"), 2);
        assert_eq!(m("orrery"), 2);
    }

    #[test]
    fn stemming_is_idempotent_on_common_words() {
        for w in [
            "patient",
            "diagnosis",
            "gender",
            "height",
            "relational",
            "caresses",
        ] {
            let once = stem(w);
            assert_eq!(stem(&once), once, "idempotence for {w}");
        }
    }
}
