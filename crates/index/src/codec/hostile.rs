//! Index files whose checksum is valid and whose structure is not.
//!
//! The checksum catches accidents; what it cannot catch is a file written
//! wrong in the first place. Each case here takes the columns of a small
//! multi-segment index with tombstones in sealed segments and in the head,
//! breaks exactly one structural fact, writes the file with a matching
//! checksum and expects a typed refusal. A second property overwrites an
//! arbitrary cell and requires that whatever still loads can be searched,
//! churned and merged without a panic.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

use super::*;
use crate::document::OwnedDocument;
use crate::postings::{
    pack, packed_len, position_width, push_run, read_run, run_width, unpack, width_of,
    BLOCK_POSTINGS,
};
use crate::search::SearchOptions;

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
/// leave tombstones on sealed segments and in the head.
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

/// How many postings block `b` holds.
fn block_postings(c: &Columns, b: usize) -> usize {
    let list = c
        .block_offsets
        .partition_point(|&first| first as usize <= b)
        - 1;
    let df = (c.list_offsets[list + 1] - c.list_offsets[list]) as usize;
    (df - (b - c.block_offsets[list] as usize) * BLOCK_POSTINGS).min(BLOCK_POSTINGS)
}

/// Block `b`'s stored codes: document gaps, tf − 1, position codes.
fn codes_of(c: &Columns, b: usize) -> [Vec<u32>; 3] {
    let bytes = &c.blocks[c.block_starts[b] as usize..c.block_starts[b + 1] as usize];
    let n = block_postings(c, b);
    let [wd, wt, wp] = [bytes[0], bytes[1], bytes[2]].map(u32::from);
    let mut gaps = vec![0; n - 1];
    let mut tfs = vec![0; n];
    let tfs_at = 3 + packed_len(n - 1, wd);
    unpack(&bytes[3..], wd, 0, &mut gaps);
    unpack(&bytes[tfs_at..], wt, 0, &mut tfs);
    let mut positions = vec![0; tfs.iter().map(|&tf| tf as usize + 1).sum()];
    unpack(&bytes[tfs_at + packed_len(n, wt)..], wp, 0, &mut positions);
    [gaps, tfs, positions]
}

/// Re-code block `b` from `codes`, each stream at the width a freeze
/// would give it, moving the blocks after it.
fn recode(c: &mut Columns, b: usize, codes: &[Vec<u32>; 3]) {
    let [gaps, tfs, positions] = codes
        .each_ref()
        .map(|stream| stream.iter().fold(0, |bits, &code| bits | code));
    let widths = [
        width_of(gaps),
        width_of(tfs),
        position_width(positions, tfs),
    ];
    let mut bytes = widths.map(|w| w as u8).to_vec();
    for (stream, width) in codes.iter().zip(widths) {
        pack(&mut bytes, width, stream.iter().copied());
    }
    resize_run(&mut c.blocks, &mut c.block_starts, b, bytes);
}

/// Replace run `r` of `stream`, cut by `starts`, with `bytes`.
fn resize_run(stream: &mut Vec<u8>, starts: &mut [u32], r: usize, bytes: Vec<u8>) {
    let old = starts[r] as usize..starts[r + 1] as usize;
    let grown = bytes.len() as i64 - old.len() as i64;
    stream.splice(old, bytes);
    starts[r + 1..]
        .iter_mut()
        .for_each(|s| *s = (i64::from(*s) + grown) as u32);
}

/// Break one structural fact, chosen by `kind`, somewhere chosen by `at`.
/// Returns what was broken, or `None` when this segment has no place for it.
fn break_one(
    c: &mut Columns,
    overlay: &mut Vec<u64>,
    kind: usize,
    at: usize,
) -> Option<&'static str> {
    let (docs, lists, blocks) = (c.ids.len(), c.list_count(), c.block_max.len());
    let list = at % lists;
    // The first block from `at` on that `fits`.
    let block_where = |c: &Columns, fits: &dyn Fn(&Columns, usize) -> bool| {
        (0..blocks).map(|i| (at + i) % blocks).find(|&b| fits(c, b))
    };
    Some(match kind {
        0 => {
            c.block_starts[1 + at % blocks] = c.blocks.len() as u32 + 1 + (at % 5) as u32;
            "block start past the stream"
        }
        1 => {
            let b = block_where(c, &|c, b| block_postings(c, b) >= 2)?;
            let mut codes = codes_of(c, b);
            let last = codes[0].len() - 1;
            codes[0][last] = (docs + at % 3) as u32;
            recode(c, b, &codes);
            "a gap runs a document ordinal past the document count"
        }
        2 => {
            c.block_first[at % blocks] = (docs + at % 3) as u32;
            "first ordinal ≥ docs"
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
            // Swap one of a document's lists for one it is not in.
            let doc = (0..docs)
                .map(|i| (at + i) % docs)
                .find(|&d| c.fwd_offsets[d + 1] > c.fwd_offsets[d])?;
            let count = (c.fwd_offsets[doc + 1] - c.fwd_offsets[doc]) as usize;
            let run = &c.fwd_bytes[c.fwd_starts[doc] as usize..c.fwd_starts[doc + 1] as usize];
            let mut row: Vec<u32> = read_run(run, count).collect();
            let other = (0..lists as u32)
                .map(|i| (list as u32 + i) % lists as u32)
                .find(|l| !row.contains(l))?;
            row[at % count] = other;
            row.sort_unstable();
            let mut bytes = Vec::new();
            push_run(&mut bytes, &row, run_width(&row));
            resize_run(&mut c.fwd_bytes, &mut c.fwd_starts, doc, bytes);
            "forward index names the wrong list"
        }
        10 => {
            // A posting of two or more positions whose first is the last
            // a u32 holds.
            let b = block_where(c, &|c, b| codes_of(c, b)[1].iter().any(|&tf| tf >= 1))?;
            let mut codes = codes_of(c, b);
            let posting = codes[1].iter().position(|&tf| tf >= 1)?;
            let first: u32 = codes[1][..posting].iter().map(|&tf| tf + 1).sum();
            codes[2][first as usize] = u32::MAX;
            recode(c, b, &codes);
            "a position past 2^32"
        }
        11 => {
            let ord = docs + at % 3;
            overlay.resize(overlay.len().max(ord / 64 + 1), 0);
            overlay[ord / 64] |= 1 << (ord % 64);
            "overlay names a document past the last"
        }
        12 => {
            c.field_starts[1 + at % Field::COUNT] = lists as u32 + 1;
            "field rows past the term table"
        }
        13 => {
            let b = at % blocks;
            c.blocks[c.block_starts[b] as usize + at % 3] = 33 + (at % 200) as u8;
            "block width past 32 bits"
        }
        14 => {
            let b = at % blocks;
            let mut bytes =
                c.blocks[c.block_starts[b] as usize..c.block_starts[b + 1] as usize].to_vec();
            bytes.push(0);
            resize_run(&mut c.blocks, &mut c.block_starts, b, bytes);
            "packed stream length disagrees with its counts"
        }
        15 => {
            let b = at % blocks;
            let mut codes = codes_of(c, b);
            let posting = at % codes[1].len();
            codes[1][posting] += 1;
            recode(c, b, &codes);
            "tf sums disagree with the positions stream"
        }
        16 => {
            let doc = (0..docs)
                .map(|i| (at + i) % docs)
                .find(|&d| c.fwd_offsets[d + 1] > c.fwd_offsets[d])?;
            c.fwd_bytes[c.fwd_starts[doc] as usize] += 8;
            "a forward delta run overruns its row"
        }
        _ => {
            // One posting raised to the segment's last representable
            // position, all of them in 0 bits, its count and bounds agreeing:
            // a few bytes that would decode to 16 GiB.
            let b = at % blocks;
            let [gaps, mut tfs, _] = codes_of(c, b);
            let posting = at % tfs.len();
            tfs[posting] += u32::MAX - c.occurrences;
            c.occurrences = u32::MAX;
            recode(c, b, &[gaps, tfs, Vec::new()]);
            c.blocks[c.block_starts[b] as usize + 2] = 0;
            let list = c
                .block_offsets
                .partition_point(|&first| first as usize <= b)
                - 1;
            (c.block_max[b], c.max_tf_norm[list]) = (f64::MAX, f64::MAX);
            "a posting's second position stored in 0 bits"
        }
    })
}

const KINDS: usize = 18;

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
        // A byte: now and then all ones, the widest a width byte or a
        // packed value can read.
        let byte = |column: &mut Vec<u8>| {
            let i = at % column.len();
            column[i] = if value % 4 == 0 { 0xFF } else { value as u8 };
        };
        match column {
            0 => cell(&mut c.term_offsets),
            1 => cell(&mut c.list_offsets),
            2 => cell(&mut c.block_offsets),
            3 => cell(&mut c.block_first),
            4 => cell(&mut c.block_starts),
            5 => cell(&mut c.fwd_offsets),
            6 => cell(&mut c.fwd_starts),
            7 => cell(&mut c.field_lengths),
            8 => byte(&mut c.blocks),
            9 => byte(&mut c.fwd_bytes),
            10 => {
                let ord = at % c.ids.len();
                c.ids[ord] = SchemaId(u64::from(value) % IDS);
            }
            11 => c.occurrences = value,
            _ => {
                overlay.resize(1, 0);
                overlay[0] ^= 1 << (value % 8);
            }
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
