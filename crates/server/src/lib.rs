//! # schemr-server
//!
//! The search web service from the paper's architecture (Figure 5): "the
//! GUI processes a set of search terms and delivers them as a request to
//! the Search Service … This list of candidate schemas, along with their
//! corresponding score, is finally sent as an XML response to the client.
//! When the user clicks on a search result … the server performs a lookup
//! of this ID in the schema repository and returns a graphical
//! representation of the schema to the client as a GraphML response."
//!
//! Implemented from scratch on `std::net`:
//!
//! * [`http`] — a minimal HTTP/1.1 parser (bounded by [`HttpLimits`]:
//!   request-line, per-header, header-count, total-header and body caps)
//!   and response writer with keep-alive support,
//! * [`xml_response`] — the search-results XML format,
//! * [`SchemrServer`] — the service itself: a bounded admission queue in
//!   front of a worker pool (full queue ⇒ `503 + Retry-After`),
//!   HTTP/1.1 keep-alive with a per-connection request budget and idle
//!   timeout, and graceful drain ([`SchemrServer::shutdown`] finishes
//!   in-flight requests within [`ServerConfig::drain_deadline`]).
//!
//! Endpoints:
//!
//! | Method | Path | Response |
//! |---|---|---|
//! | GET | `/search?q=<keywords>&limit=<n>&explain=1` | results XML (+ `<trace>` with `explain=1`) |
//! | POST | `/search?q=<keywords>` (body = DDL/XSD fragment) | results XML |
//! | GET | `/schema/<id>` | GraphML |
//! | GET | `/schema/<id>/svg?layout=tree\|radial&depth=<d>` | SVG |
//! | GET | `/healthz` | JSON: status, repository revision, indexed doc count |
//! | GET | `/metrics` | Prometheus text exposition of the engine + HTTP metrics |

pub mod http;
pub mod xml_response;

mod debug;
mod service;

pub use http::HttpLimits;
pub use service::{SchemrServer, ServerConfig};
