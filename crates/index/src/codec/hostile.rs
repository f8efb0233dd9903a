//! Index files whose checksum is valid and whose structure is not.
//!
//! The checksum catches accidents; what it cannot catch is a file written
//! wrong in the first place. Each case here takes the columns of a small
//! multi-segment index with baked and overlay tombstones, breaks exactly
//! one structural fact, writes the file with a matching checksum and
//! expects a typed refusal. A second property overwrites an arbitrary cell
//! and requires that whatever still loads can be searched, churned and
//! merged without a panic.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

use super::*;
use crate::document::OwnedDocument;
use crate::search::SearchOptions;
use crate::segment::bit;

const WORDS: [&str; 6] = ["patient", "height", "ward", "order", "total", "gender"];
const IDS: u64 = 12;

fn arb_docs() -> impl Strategy<Value = Vec<OwnedDocument>> {
    let word = || select(WORDS.to_vec());
    let element = (word(), word()).prop_map(|(a, b)| format!("{a}.{b}"));
    vec((0..IDS, word(), vec(element, 1..5)), 8..24).prop_map(|docs| {
        docs.into_iter()
            .map(|(id, title, elements)| {
                let doc = format!("the {title} of a {}", elements[0]);
                OwnedDocument::new(id, title, elements).with_docs([doc])
            })
            .collect()
    })
}

/// Every segment's columns and overlay bits. Ids repeat, so replacements
/// leave overlay tombstones on sealed segments and baked ones in the head.
fn segments_of(docs: &[OwnedDocument]) -> Vec<(Columns, Vec<u64>)> {
    let index = Index::new().with_seal_threshold(5);
    for doc in docs {
        index.add(doc.view());
    }
    index.remove(docs[0].id);
    index
        .snapshot()
        .segments
        .iter()
        .map(|seg| (seg.data.columns().clone(), seg.live.bits().to_vec()))
        .collect()
}

fn file_of(segments: &[(Columns, Vec<u64>)]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(segments.len() as u32).to_le_bytes());
    for (cols, overlay) in segments {
        write_segment(&mut out, cols, overlay);
    }
    out
}

/// Break one structural fact, chosen by `kind`, somewhere chosen by `at`.
/// Returns what was broken, or `None` when this segment has no place for it.
fn break_one(
    c: &mut Columns,
    overlay: &mut Vec<u64>,
    kind: usize,
    at: usize,
) -> Option<&'static str> {
    let (docs, lists, postings) = (c.ids.len(), c.live_df.len(), c.posting_docs.len());
    let rows = |c: &Columns, l: usize| c.list_offsets[l] as usize..c.list_offsets[l + 1] as usize;
    let list = at % lists;
    Some(match kind {
        0 => {
            c.pos_offsets[1 + at % postings] = c.positions.len() as u32 + 1 + (at % 5) as u32;
            "offset past the arena"
        }
        1 => {
            let l = (0..lists)
                .map(|i| (list + i) % lists)
                .find(|&l| rows(c, l).len() >= 2)?;
            let first = rows(c, l).start;
            c.posting_docs.swap(first, first + 1);
            "descending ordinal"
        }
        2 => {
            c.posting_docs[at % postings] = (docs + at % 3) as u32;
            "ordinal ≥ docs"
        }
        3 => {
            c.block_max.remove(c.block_offsets[list] as usize);
            c.block_offsets[list + 1..].iter_mut().for_each(|o| *o -= 1);
            "short block-max column"
        }
        4 => {
            let block = at % c.block_max.len();
            c.block_max[block] *= 0.5;
            "under-stated block bound"
        }
        5 => {
            c.max_tf_norm[list] *= 0.5;
            "under-stated list bound"
        }
        6 => {
            c.max_tf_norm[list] = [f64::NAN, f64::INFINITY][at % 2];
            "bound not finite"
        }
        7 => {
            let byte = at % c.term_bytes.len();
            c.term_bytes[byte] = 0xFF;
            "non-UTF-8 term"
        }
        8 => {
            // Swap two neighbouring terms of one field, lengths and all.
            let l = (0..lists - 1)
                .map(|i| (list + i) % (lists - 1))
                .find(|&l| !c.field_starts.contains(&(l as u32 + 1)))?;
            let (a, b) = (c.term(l).to_vec(), c.term(l + 1).to_vec());
            let start = c.term_offsets[l] as usize;
            c.term_bytes[start..start + b.len()].copy_from_slice(&b);
            c.term_bytes[start + b.len()..start + b.len() + a.len()].copy_from_slice(&a);
            c.term_offsets[l + 1] = (start + b.len()) as u32;
            "unsorted terms"
        }
        9 => {
            c.live_df[list] += 1;
            "live df over-stated"
        }
        10 => {
            c.live_df[list] = c.live_df[list].checked_sub(1)?;
            "live df under-stated"
        }
        11 => {
            (lists >= 2).then_some(())?;
            let entry = at % postings;
            c.fwd_lists[entry] =
                (c.fwd_lists[entry] + 1 + (at % (lists - 1)) as u32) % lists as u32;
            "forward index names the wrong list"
        }
        12 => {
            let p = (0..postings)
                .map(|i| (at + i) % postings)
                .find(|&p| c.pos_offsets[p + 1] - c.pos_offsets[p] >= 2)?;
            let first = c.pos_offsets[p] as usize;
            c.positions.swap(first, first + 1);
            "descending positions"
        }
        13 => {
            let ord = if at.is_multiple_of(2) {
                (0..docs).find(|&d| bit(&c.baked_dead, d))?
            } else {
                docs + at % 3
            };
            overlay.resize(overlay.len().max(ord / 64 + 1), 0);
            overlay[ord / 64] |= 1 << (ord % 64);
            "overlay names a document that is not live"
        }
        14 => {
            (docs % 64 != 0).then_some(())?;
            c.baked_dead[docs / 64] |= 1 << (docs % 64);
            "tombstone past the last document"
        }
        _ => {
            c.field_starts[1 + at % Field::COUNT] = lists as u32 + 1;
            "field rows past the term table"
        }
    })
}

const KINDS: usize = 16;

/// Search, inspect, churn and merge a loaded index: none of it may panic.
fn exercise(index: &Index) {
    let grid = |index: &Index| {
        for a in WORDS {
            for b in WORDS {
                for (top_n, prune) in [(1, true), (3, true), (50, true), (50, false)] {
                    let options = SearchOptions {
                        top_n,
                        prune,
                        ..SearchOptions::default()
                    };
                    index.search(&[a, b, "the"], &options);
                }
            }
        }
    };
    grid(index);
    index.stats();
    index.introspect(usize::MAX);
    for id in (0..IDS).step_by(2) {
        index.remove(SchemaId(id));
    }
    grid(index);
    index.merge(1e-9);
    index.add(OwnedDocument::new(1, "ward", ["patient.height"]).view());
    grid(index);
}

proptest! {
    #[test]
    fn a_valid_checksum_over_one_broken_fact_is_refused(
        docs in arb_docs(),
        kind in 0..KINDS,
        at in 0usize..1 << 20,
    ) {
        let mut segments = segments_of(&docs);
        prop_assert!(segments.len() >= 2);
        prop_assert!(decode(&file_of(&segments)).is_ok(), "the unbroken file loads");
        // The first segment, from a seeded start, that has a place for it.
        let n = segments.len();
        let broken = (0..n).map(|i| (at + i) % n).find_map(|s| {
            let (cols, overlay) = &mut segments[s];
            break_one(cols, overlay, kind, at / n)
        });
        let Some(broken) = broken else { return Ok(()); };
        match decode(&file_of(&segments)) {
            Err(CodecError::Corrupt(_)) => {}
            Err(other) => panic!("{broken}: refused as {other}"),
            Ok(_) => panic!("{broken}: loaded"),
        }
    }

    #[test]
    fn whatever_loads_after_an_overwritten_cell_can_be_used(
        docs in arb_docs(),
        column in 0usize..13,
        at in 0usize..1 << 20,
        value in 0u32..40,
    ) {
        let mut segments = segments_of(&docs);
        let n = segments.len();
        let (c, overlay) = &mut segments[at % n];
        let at = at / n;
        let cell = |column: &mut Vec<u32>| {
            let i = at % column.len();
            column[i] = value;
        };
        match column {
            0 => cell(&mut c.term_offsets),
            1 => cell(&mut c.list_offsets),
            2 => cell(&mut c.block_offsets),
            3 => cell(&mut c.live_df),
            4 => cell(&mut c.posting_docs),
            5 => cell(&mut c.pos_offsets),
            6 => cell(&mut c.positions),
            7 => cell(&mut c.fwd_offsets),
            8 => cell(&mut c.fwd_lists),
            9 => cell(&mut c.field_lengths),
            10 => {
                let ord = at % c.ids.len();
                c.ids[ord] = SchemaId(u64::from(value) % IDS);
            }
            11 => c.baked_dead[0] ^= 1 << (value % 8),
            _ => {
                overlay.resize(1, 0);
                overlay[0] ^= 1 << (value % 8);
            }
        }
        if column == 6 && value % 2 == 0 {
            // The far end of the position range, where `+ 1` would wrap.
            let last = c.pos_offsets[1 + at % (c.pos_offsets.len() - 1)] as usize - 1;
            c.positions[last] = u32::MAX;
        }
        if let Ok(index) = decode(&file_of(&segments)) {
            exercise(&index);
        }
    }
}

#[test]
fn every_kind_of_break_finds_a_place_in_the_fixture() {
    // Guards the property above against passing vacuously.
    let docs: Vec<OwnedDocument> = (0..20)
        .map(|i| {
            super::tests::doc(
                i % IDS,
                WORDS[i as usize % 6],
                &["patient.height", "ward.patient"],
            )
        })
        .collect();
    let segments = segments_of(&docs);
    for kind in 0..KINDS {
        let placed = segments.iter().any(|(cols, overlay)| {
            break_one(&mut cols.clone(), &mut overlay.clone(), kind, 1).is_some()
        });
        assert!(placed, "kind {kind}");
    }
}
