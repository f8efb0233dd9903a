//! Everything the program under test receives: a seeded corpus, request
//! bytes for a pool of distinct queries with their ground truth, and a
//! served engine built the way `schemr-cli serve` builds one. The same
//! seed gives the same bytes.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use schemr::{SchemrEngine, SearchRequest};
use schemr_corpus::{Corpus, CorpusConfig, GeneratedQuery, Workload, WorkloadConfig};
use schemr_model::SchemaId;
use schemr_parse::printer::print_ddl;
use schemr_repo::Repository;
use schemr_server::http::{percent_encode, read_request, HttpLimits, Request};
use schemr_server::{SchemrServer, ServerConfig};

/// Result-list length every request asks for.
pub const LIMIT: usize = 10;

/// Corpus size of a recorded run: the paper's repository size.
pub const FULL_CORPUS: usize = 30_000;
/// Corpus size of a `--quick` smoke run.
pub const QUICK_CORPUS: usize = 2_000;

/// The query pool is derived from the run's seed but must not replay the
/// corpus generator's random stream.
const POOL_SEED_SALT: u64 = 0x5eed_0f90_01a7;

/// One search request as the server will see it.
pub struct Query {
    /// Complete HTTP request bytes, sent in one write.
    pub bytes: Vec<u8>,
    /// Corpus indices of the generator's ground-truth family.
    pub relevant: Vec<usize>,
    /// Carries a DDL fragment as a `POST` body.
    pub is_post: bool,
}

/// Request bytes for a generated query: keywords travel percent-encoded
/// in `q`, a fragment travels as a DDL `POST` body.
pub fn request_bytes(query: &GeneratedQuery) -> Vec<u8> {
    let mut target = format!("/search?limit={LIMIT}");
    if !query.keywords.is_empty() {
        target.push_str("&q=");
        target.push_str(&percent_encode(&query.keywords.join(" ")));
    }
    match &query.fragment {
        None => format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes(),
        Some(fragment) => {
            let ddl = print_ddl(fragment);
            format!(
                "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n{ddl}",
                ddl.len()
            )
            .into_bytes()
        }
    }
}

/// Parse request bytes the way the server's connection loop does.
pub fn parse_request(bytes: &[u8]) -> Result<Request, String> {
    read_request(&mut &bytes[..], &HttpLimits::default()).map_err(|e| e.to_string())
}

/// Build the [`SearchRequest`] the server's `/search` handler builds
/// from a parsed request.
pub fn search_request(request: &Request) -> Result<SearchRequest, String> {
    let mut sr = SearchRequest {
        keywords: request
            .param("q")
            .map(schemr::parse_keywords)
            .unwrap_or_default(),
        ..Default::default()
    };
    if request.method == "POST" && !request.body.trim().is_empty() {
        let fragment = schemr_parse::parse_fragment("fragment", &request.body)
            .map_err(|e| format!("fragment: {e}"))?;
        sr.fragments.push(fragment);
    }
    if let Some(limit) = request.param("limit") {
        sr.limit = Some(limit.parse().map_err(|_| "limit must be an integer")?);
    }
    if sr.is_empty() {
        return Err("query is empty".to_string());
    }
    Ok(sr)
}

/// Request bytes → the [`SearchRequest`] the server would run for them.
pub fn decode(bytes: &[u8]) -> Result<SearchRequest, String> {
    search_request(&parse_request(bytes)?)
}

/// `n` distinct queries in the paper's mix (`kind_mix` 0.5 keyword /
/// 0.25 fragment / 0.25 fragment + keywords). A generated query whose
/// bytes the server would answer with a 400 (a perturbed name the DDL
/// printer cannot round-trip) is left out, so no operation of a
/// workload fails by construction; how many were dropped is returned.
pub fn build_pool(corpus: &Corpus, seed: u64, n: usize) -> (Vec<Query>, usize) {
    let generated = Workload::generate(
        corpus,
        &WorkloadConfig {
            seed: seed ^ POOL_SEED_SALT,
            queries: n + n / 20 + 8,
            ..WorkloadConfig::default()
        },
    );
    let mut dropped = 0usize;
    let mut pool = Vec::with_capacity(n);
    for query in &generated.queries {
        if pool.len() == n {
            break;
        }
        let bytes = request_bytes(query);
        if decode(&bytes).is_err() {
            dropped += 1;
            continue;
        }
        pool.push(Query {
            bytes,
            relevant: query.relevant.clone(),
            is_post: query.fragment.is_some(),
        });
    }
    (pool, dropped)
}

/// Generate the corpus for `seed`; returns it with the seconds it took.
pub fn generate_corpus(seed: u64, size: usize) -> (Corpus, f64) {
    let t = Instant::now();
    let corpus = Corpus::generate(&CorpusConfig {
        target_size: size,
        ..CorpusConfig::paper_scale(seed)
    });
    (corpus, t.elapsed().as_secs_f64())
}

/// Insert every corpus schema into a fresh repository; returns the
/// repository, the id of each corpus schema, and the seconds it took.
pub fn load_repository(corpus: &Corpus) -> (Arc<Repository>, Vec<SchemaId>, f64) {
    let t = Instant::now();
    let repo = Arc::new(Repository::new());
    let ids = corpus
        .schemas
        .iter()
        .map(|labeled| {
            repo.insert(
                labeled.title.clone(),
                labeled.summary.clone(),
                labeled.schema.clone(),
            )
            .expect("generated schemas validate")
        })
        .collect();
    (repo, ids, t.elapsed().as_secs_f64())
}

/// Stage times of one fixture build, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    /// Corpus and query pool generation: the fixture's own cost.
    pub generate_s: f64,
    pub insert_s: f64,
    pub reindex_s: f64,
    /// `SchemrEngine::new` + `reindex_full` + first successful search:
    /// what a `schemr-cli serve` start costs once the repository is read.
    pub cold_start_s: f64,
    pub total_s: f64,
}

/// A served engine over a seeded corpus, plus the query pool.
pub struct Fixture {
    pub corpus: Corpus,
    pub pool: Vec<Query>,
    pub pool_dropped: usize,
    pub repo: Arc<Repository>,
    /// `ids[i]` is the repository id of corpus schema `i`.
    pub ids: Vec<SchemaId>,
    pub engine: Arc<SchemrEngine>,
    pub server: SchemrServer,
    pub times: BuildTimes,
}

impl Fixture {
    /// Process start → a bound server over an indexed corpus: generate
    /// the corpus and the pool, load the repository, `reindex_full`,
    /// answer one query, bind. Engine and server run the configuration
    /// `schemr-cli serve` runs.
    pub fn build(seed: u64, corpus_size: usize, pool_size: usize) -> std::io::Result<Fixture> {
        let t = Instant::now();
        let (corpus, _) = generate_corpus(seed, corpus_size);
        let (pool, pool_dropped) = build_pool(&corpus, seed, pool_size);
        let generate_s = t.elapsed().as_secs_f64();
        let (repo, ids, insert_s) = load_repository(&corpus);
        let tc = Instant::now();
        let engine = Arc::new(SchemrEngine::new(repo.clone()));
        engine.reindex_full();
        let reindex_s = tc.elapsed().as_secs_f64();
        first_search(&engine, &pool[0])?;
        let cold_start_s = tc.elapsed().as_secs_f64();
        let server = SchemrServer::start(
            engine.clone(),
            ServerConfig {
                workers: 4,
                ..Default::default()
            },
        )?;
        let times = BuildTimes {
            generate_s,
            insert_s,
            reindex_s,
            cold_start_s,
            total_s: t.elapsed().as_secs_f64(),
        };
        Ok(Fixture {
            corpus,
            pool,
            pool_dropped,
            repo,
            ids,
            engine,
            server,
            times,
        })
    }
}

/// The first query a freshly started engine answers.
pub fn first_search(engine: &SchemrEngine, query: &Query) -> std::io::Result<()> {
    decode(&query.bytes)
        .and_then(|sr| engine.search(&sr).map_err(|e| e.to_string()))
        .map(|_| ())
        .map_err(std::io::Error::other)
}

/// Pool queries `mrr_at_10` is scored on. The ranking is exact for a
/// seed, but the score of so few queries moves from seed to seed; twice
/// the verification slice keeps that within the metric's bound.
pub const RANKED_QUERIES: usize = 60;

/// Reciprocal rank of the first relevant result among the top [`LIMIT`].
pub fn reciprocal_rank(
    ranked: impl Iterator<Item = SchemaId>,
    corpus_index: &HashMap<SchemaId, usize>,
    relevant: &[usize],
) -> f64 {
    ranked
        .take(LIMIT)
        .position(|id| {
            corpus_index
                .get(&id)
                .is_some_and(|ix| relevant.contains(ix))
        })
        .map_or(0.0, |rank| 1.0 / (rank + 1) as f64)
}

/// Mean reciprocal rank of `engine`'s answers to `queries` against the
/// generator's ground truth; `ids[i]` is the repository id of corpus
/// schema `i`.
pub fn mean_reciprocal_rank(
    engine: &SchemrEngine,
    queries: &[Query],
    ids: &[SchemaId],
) -> Result<f64, String> {
    let corpus_index: HashMap<SchemaId, usize> =
        ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut sum = 0.0;
    for query in queries {
        let results = engine
            .search(&decode(&query.bytes)?)
            .map_err(|e| e.to_string())?;
        sum += reciprocal_rank(results.iter().map(|r| r.id), &corpus_index, &query.relevant);
    }
    Ok(sum / queries.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_a_pure_function_of_the_seed_and_parses_as_the_server_would() {
        let (corpus, _) = generate_corpus(7, 300);
        let (a, _) = build_pool(&corpus, 7, 60);
        let (b, _) = build_pool(&corpus, 7, 60);
        let (c, _) = build_pool(&corpus, 8, 60);
        assert_eq!(a.len(), 60);
        assert!(a.iter().zip(&b).all(|(x, y)| x.bytes == y.bytes));
        assert!(a.iter().zip(&c).any(|(x, y)| x.bytes != y.bytes));
        assert!(a.iter().any(|q| q.is_post) && a.iter().any(|q| !q.is_post));
        for q in &a {
            let sr = decode(&q.bytes).unwrap();
            assert_eq!(sr.limit, Some(LIMIT));
            assert_eq!(q.is_post, !sr.fragments.is_empty());
            assert!(!q.relevant.is_empty());
        }
    }

    #[test]
    fn reciprocal_rank_scores_the_first_relevant_hit() {
        let index: HashMap<SchemaId, usize> =
            (0..5).map(|i| (SchemaId(100 + i as u64), i)).collect();
        let ranked = [SchemaId(104), SchemaId(999), SchemaId(101)];
        assert_eq!(reciprocal_rank(ranked.into_iter(), &index, &[1]), 1.0 / 3.0);
        assert_eq!(reciprocal_rank(ranked.into_iter(), &index, &[4, 1]), 1.0);
        assert_eq!(reciprocal_rank(ranked.into_iter(), &index, &[2]), 0.0);
    }
}
