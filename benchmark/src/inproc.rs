//! The request path without the socket: the same public functions the
//! server's connection loop and `/search` handler call, in the same
//! order, on the same request bytes. Used as the reference the socket's
//! answers are compared with, and — with a span log — as the traced pass
//! that says which layer the time of a request went to.

use schemr::SchemrEngine;
use schemr_server::http::Response;
use schemr_server::xml_response::search_response_to_xml;

use crate::fixture::{decode, parse_request, search_request};
use crate::spans::SpanLog;

/// Answer `bytes` without tracing; returns the response body the server
/// would send: the reference for verification.
pub fn handle(engine: &SchemrEngine, bytes: &[u8]) -> Result<String, String> {
    let response = engine
        .search_detailed(&decode(bytes)?)
        .map_err(|e| e.to_string())?;
    Ok(search_response_to_xml(&response))
}

/// Answer `bytes` with every layer call wrapped in a span:
///
/// ```text
/// server.request
/// ├─ server.http_parse      http::read_request
/// ├─ parse.fragment         parse_fragment (POST only)
/// ├─ core.search            search_detailed, explain on
/// │  ├─ index.phase1        timings.candidate_extraction
/// │  ├─ matchers.phase2     timings.matching
/// │  │  └─ matchers.<name>  per-matcher wall, summed over match threads
/// │  └─ core.tightness      timings.scoring
/// ├─ server.xml_render      search_response_to_xml
/// └─ server.http_write      Response::write_to_conn into a Vec
/// repo.get                  Repository::get of each returned id, after the request
/// ```
///
/// The engine reports its phases as durations, so the phase spans are
/// laid end to end from the start of `core.search`; what is left of that
/// span after them is `core.search`'s self time.
pub fn handle_traced(
    engine: &SchemrEngine,
    bytes: &[u8],
    log: &mut SpanLog,
    request_no: usize,
) -> Result<(), String> {
    let rid = format!("r{request_no}");
    let start = log.now_ns();
    let root = log.push("server.request", &rid, None, start, start);

    let (request, _) = log.timed("server.http_parse", &rid, Some(root), || {
        parse_request(bytes)
    });
    let request = request?;
    // `search_request` is the handler's own glue around `parse_fragment`;
    // for a POST nearly all of it is the DDL parse.
    let stage = if request.method == "POST" {
        "parse.fragment"
    } else {
        "server.query_params"
    };
    let (sr, _) = log.timed(stage, &rid, Some(root), || search_request(&request));
    let sr = sr?.with_explain();

    let (response, search) = log.timed("core.search", &rid, Some(root), || {
        engine.search_detailed(&sr)
    });
    let mut response = response.map_err(|e| e.to_string())?;
    let t0 = log.spans()[search as usize].start_ns;
    let timings = response.timings;
    let p1 = t0 + timings.candidate_extraction.as_nanos() as u64;
    let p2 = p1 + timings.matching.as_nanos() as u64;
    let p3 = p2 + timings.scoring.as_nanos() as u64;
    log.push("index.phase1", &rid, Some(search), t0, p1);
    let phase2 = log.push("matchers.phase2", &rid, Some(search), p1, p2);
    // Taken out so the body rendered below is the one a request without
    // `explain` gets.
    let explain = response.trace.take();
    for matcher in explain.iter().flat_map(|t| &t.matchers) {
        log.push(
            &format!("matchers.{}", matcher.name),
            &rid,
            Some(phase2),
            p1,
            p1 + matcher.wall.as_nanos() as u64,
        );
    }
    log.push("core.tightness", &rid, Some(search), p2, p3);

    let (xml, _) = log.timed("server.xml_render", &rid, Some(root), || {
        search_response_to_xml(&response)
    });
    let mut http = Response::ok("text/xml", xml);
    if let Some(id) = &response.trace_id {
        http = http.with_header("X-Schemr-Trace-Id", id);
    }
    if let Some(ledger) = &response.ledger {
        let wall_us = response.timings.total().as_micros() as u64;
        http = http.with_header("X-Schemr-Cost", ledger.header_value(wall_us));
    }
    let (written, _) = log.timed("server.http_write", &rid, Some(root), || {
        let mut wire = Vec::with_capacity(http.body.len() + 256);
        http.write_to_conn(&mut wire, true).map(|()| wire.len())
    });
    written.map_err(|e| e.to_string())?;
    log.close(root);

    // Not part of the request: the engine fetched every candidate from
    // the repository inside phase 2, and fetching the returned ones
    // again prices that clone.
    for result in &response.results {
        log.timed("repo.get", &rid, None, || {
            std::hint::black_box(engine.repository().get(result.id))
        });
    }
    Ok(())
}
