//! The search-results XML format — "this list of candidate schemas, along
//! with their corresponding score, is finally sent as an XML response to
//! the client".
//!
//! A response is written into one `String`: numbers through `write!`,
//! text through [`escape_into`], no intermediate string per row.

use std::fmt::Write;

use schemr::{SearchResponse, SearchResult, SearchTrace};
use schemr_parse::xml::escape_into;

/// Serialize ranked results to the response XML.
///
/// ```xml
/// <results count="2">
///   <result id="s3" rank="1" score="0.740" matches="5" entities="3" attributes="6">
///     <title>clinic</title>
///     <summary>rural health clinic</summary>
///   </result>
///   …
/// </results>
/// ```
pub fn results_to_xml(results: &[SearchResult]) -> String {
    to_xml(results, None)
}

/// Serialize a full [`SearchResponse`]. When the response carries an
/// explain trace (`/search?…&explain=1`), a `<trace>` element with
/// per-phase and per-matcher timings follows the results.
///
/// ```xml
/// <results count="1">
///   <result …>…</result>
///   <trace candidates-from-index="5" candidates-evaluated="5" match-threads="1">
///     <phase name="candidate_extraction" seconds="0.000041"/>
///     <phase name="matching" seconds="0.000305"/>
///     <phase name="scoring" seconds="0.000012"/>
///     <matcher name="name" seconds="0.000171"/>
///     <matcher name="context" seconds="0.000092"/>
///   </trace>
/// </results>
/// ```
pub fn search_response_to_xml(response: &SearchResponse) -> String {
    to_xml(
        &response.results,
        response.trace.as_ref().map(|trace| (trace, response)),
    )
}

fn to_xml(results: &[SearchResult], trace: Option<(&SearchTrace, &SearchResponse)>) -> String {
    let mut out = String::with_capacity(256 + results.len() * 160);
    write_xml(&mut out, results, trace).expect("writing into a String does not fail");
    out
}

fn write_xml(
    out: &mut String,
    results: &[SearchResult],
    trace: Option<(&SearchTrace, &SearchResponse)>,
) -> std::fmt::Result {
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    writeln!(out, "<results count=\"{}\">", results.len())?;
    for (i, r) in results.iter().enumerate() {
        writeln!(
            out,
            "  <result id=\"{}\" rank=\"{}\" score=\"{:.4}\" matches=\"{}\" entities=\"{}\" attributes=\"{}\">",
            r.id,
            i + 1,
            r.score,
            r.matches.len(),
            r.stats.entities,
            r.stats.attributes
        )?;
        out.push_str("    <title>");
        escape_into(out, &r.title);
        out.push_str("</title>\n    <summary>");
        escape_into(out, &r.summary);
        out.push_str("</summary>\n  </result>\n");
    }
    if let Some((trace, response)) = trace {
        writeln!(
            out,
            // Phase 2 runs on one thread; `match-threads` stays for clients that parse it.
            "  <trace candidates-from-index=\"{}\" candidates-evaluated=\"{}\" match-threads=\"1\">",
            trace.candidates_from_index, trace.candidates_evaluated
        )?;
        let t = &response.timings;
        for (name, d) in [
            ("candidate_extraction", t.candidate_extraction),
            ("matching", t.matching),
            ("scoring", t.scoring),
        ] {
            writeln!(
                out,
                "    <phase name=\"{name}\" seconds=\"{:.6}\"/>",
                d.as_secs_f64()
            )?;
        }
        for m in &trace.matchers {
            out.push_str("    <matcher name=\"");
            escape_into(out, &m.name);
            writeln!(out, "\" seconds=\"{:.6}\"/>", m.wall.as_secs_f64())?;
        }
        out.push_str("  </trace>\n");
    }
    out.push_str("</results>\n");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemr_model::{SchemaId, SchemaStats};
    use schemr_parse::xml::XmlParser;

    fn result(id: u64, title: &str) -> SearchResult {
        SearchResult {
            id: SchemaId(id),
            title: title.to_string(),
            summary: "a <summary> & more".to_string(),
            score: 0.5,
            coarse_score: 1.0,
            matched_terms: 1,
            stats: SchemaStats::default(),
            matches: vec![],
        }
    }

    #[test]
    fn xml_is_well_formed_and_ranked() {
        let xml = results_to_xml(&[result(3, "clinic"), result(9, "store")]);
        assert!(XmlParser::parse_all(&xml).is_ok());
        assert!(xml.contains("count=\"2\""));
        assert!(xml.contains("id=\"s3\" rank=\"1\""));
        assert!(xml.contains("id=\"s9\" rank=\"2\""));
    }

    #[test]
    fn titles_and_summaries_are_escaped() {
        let xml = results_to_xml(&[result(1, "a<b>&c")]);
        assert!(xml.contains("a&lt;b&gt;&amp;c"));
        assert!(XmlParser::parse_all(&xml).is_ok());
    }

    #[test]
    fn empty_results() {
        let xml = results_to_xml(&[]);
        assert!(xml.contains("count=\"0\""));
        assert!(XmlParser::parse_all(&xml).is_ok());
    }

    #[test]
    fn response_without_trace_matches_plain_results() {
        let response = SearchResponse {
            results: vec![result(3, "clinic")],
            ..Default::default()
        };
        assert_eq!(
            search_response_to_xml(&response),
            results_to_xml(&response.results)
        );
    }

    #[test]
    fn golden_bytes_of_two_escaped_rows_and_a_trace() {
        use schemr::{MatchedElement, MatcherTiming, PhaseTimings, SearchTrace};
        use schemr_model::{DistanceClass, ElementId};
        use std::time::Duration;
        let matched = |element| MatchedElement {
            element: ElementId(element),
            term: 0,
            score: 0.8,
            class: DistanceClass::SameEntity,
        };
        let response = SearchResponse {
            results: vec![
                SearchResult {
                    id: SchemaId(3),
                    title: "a<b>&c\"d'e".to_string(),
                    summary: "rural <health> & 'care' \"now\"".to_string(),
                    score: 0.74,
                    coarse_score: 2.0,
                    matched_terms: 2,
                    stats: SchemaStats {
                        entities: 3,
                        attributes: 6,
                        ..SchemaStats::default()
                    },
                    matches: vec![matched(1), matched(4)],
                },
                SearchResult {
                    id: SchemaId(12),
                    title: "plain".to_string(),
                    summary: String::new(),
                    score: 0.123456,
                    coarse_score: 1.0,
                    matched_terms: 1,
                    stats: SchemaStats::default(),
                    matches: vec![],
                },
            ],
            timings: PhaseTimings {
                candidate_extraction: Duration::from_micros(41),
                matching: Duration::from_micros(1305),
                scoring: Duration::from_micros(12),
            },
            candidates_evaluated: 5,
            trace: Some(SearchTrace {
                candidates_from_index: 7,
                candidates_evaluated: 5,
                matchers: vec![
                    MatcherTiming {
                        name: "name".to_string(),
                        wall: Duration::from_micros(171),
                    },
                    MatcherTiming {
                        name: "a&b".to_string(),
                        wall: Duration::from_nanos(92_600),
                    },
                ],
            }),
            trace_id: None,
            ledger: None,
        };
        let golden = concat!(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n",
            "<results count=\"2\">\n",
            "  <result id=\"s3\" rank=\"1\" score=\"0.7400\" matches=\"2\" entities=\"3\" attributes=\"6\">\n",
            "    <title>a&lt;b&gt;&amp;c&quot;d&apos;e</title>\n",
            "    <summary>rural &lt;health&gt; &amp; &apos;care&apos; &quot;now&quot;</summary>\n",
            "  </result>\n",
            "  <result id=\"s12\" rank=\"2\" score=\"0.1235\" matches=\"0\" entities=\"0\" attributes=\"0\">\n",
            "    <title>plain</title>\n",
            "    <summary></summary>\n",
            "  </result>\n",
            "  <trace candidates-from-index=\"7\" candidates-evaluated=\"5\" match-threads=\"1\">\n",
            "    <phase name=\"candidate_extraction\" seconds=\"0.000041\"/>\n",
            "    <phase name=\"matching\" seconds=\"0.001305\"/>\n",
            "    <phase name=\"scoring\" seconds=\"0.000012\"/>\n",
            "    <matcher name=\"name\" seconds=\"0.000171\"/>\n",
            "    <matcher name=\"a&amp;b\" seconds=\"0.000093\"/>\n",
            "  </trace>\n",
            "</results>\n",
        );
        assert_eq!(search_response_to_xml(&response), golden);
        // Without the trace, the same rows and nothing else.
        let (rows, _) = golden.split_once("  <trace").unwrap();
        assert_eq!(
            results_to_xml(&response.results),
            format!("{rows}</results>\n")
        );
    }

    #[test]
    fn response_with_trace_renders_phases_and_matchers() {
        use schemr::{MatcherTiming, PhaseTimings, SearchTrace};
        use std::time::Duration;
        let response = SearchResponse {
            results: vec![result(3, "clinic")],
            timings: PhaseTimings {
                candidate_extraction: Duration::from_micros(41),
                matching: Duration::from_micros(305),
                scoring: Duration::from_micros(12),
            },
            candidates_evaluated: 5,
            trace: Some(SearchTrace {
                candidates_from_index: 7,
                candidates_evaluated: 5,
                matchers: vec![
                    MatcherTiming {
                        name: "name".to_string(),
                        wall: Duration::from_micros(171),
                    },
                    MatcherTiming {
                        name: "context".to_string(),
                        wall: Duration::from_micros(92),
                    },
                ],
            }),
            trace_id: None,
            ledger: None,
        };
        let xml = search_response_to_xml(&response);
        assert!(XmlParser::parse_all(&xml).is_ok(), "{xml}");
        assert!(xml.contains(
            "<trace candidates-from-index=\"7\" candidates-evaluated=\"5\" match-threads=\"1\">"
        ));
        assert!(xml.contains("<phase name=\"candidate_extraction\" seconds=\"0.000041\"/>"));
        assert!(xml.contains("<phase name=\"matching\" seconds=\"0.000305\"/>"));
        assert!(xml.contains("<phase name=\"scoring\" seconds=\"0.000012\"/>"));
        assert!(xml.contains("<matcher name=\"name\" seconds=\"0.000171\"/>"));
        assert!(xml.contains("<matcher name=\"context\" seconds=\"0.000092\"/>"));
    }
}
