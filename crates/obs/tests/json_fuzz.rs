//! The JSON codec reads untrusted text: repository files and event logs.
//! Whatever bytes it is given, every entry point answers a value, an
//! error or `None`, and never panics.

use proptest::prelude::*;
use proptest::sample::select;
use schemr_obs::json::{Json, Reader};
use schemr_obs::SearchEvent;

/// A valid event line that nests every value type, escapes included.
const DOC: &str = r#"{"v":1,"trace_id":"t7","unix_ms":1700000000000,"query":"a \"b\"\né😀","total_us":360,"phases":{"matching":300},"results":[{"id":"s0","score":0.75,"matchers":{"name":-1.5e-3}}],"tags":{"k":"v"},"x":[true,false,null,[],{}]}"#;

/// Every reader a hostile line can reach.
fn read_everything(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = Json::parse(&text);
    let mut reader = Reader::new(&text);
    if reader.skip().is_ok() {
        let _ = reader.finish();
    }
    let _ = SearchEvent::from_json_line(&text);
}

#[test]
fn the_seed_document_reads_everywhere() {
    assert!(Json::parse(DOC).is_ok());
    let mut reader = Reader::new(DOC);
    reader.skip().unwrap();
    reader.finish().unwrap();
    assert_eq!(SearchEvent::from_json_line(DOC).unwrap().trace_id, "t7");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..128)) {
        read_everything(&bytes);
    }

    #[test]
    fn random_json_punctuation_never_panics(
        bytes in proptest::collection::vec(select(br#"{}[],:"\0-1.eEtrufalsn "#.to_vec()), 0..64)
    ) {
        read_everything(&bytes);
    }

    #[test]
    fn single_byte_mutations_never_panic(at in 0..DOC.len(), byte in 0u8..=255) {
        let mut bytes = DOC.as_bytes().to_vec();
        bytes[at] = byte;
        read_everything(&bytes);
    }
}
