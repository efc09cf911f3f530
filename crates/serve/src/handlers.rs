//! Request handling over the shared application state.
//!
//! [`handle`] is a pure-ish function `(App, Request) → Response`: no
//! socket I/O happens here, which is what lets the cache-on ≡ cache-off
//! property test and the unit tests below drive the full endpoint logic
//! without a listener. The worker pool wraps [`handle`] in
//! `catch_unwind`; everything fallible inside runs *before* any shared
//! lock is taken so a panic cannot corrupt `App` state.

use crate::cache::{content_hash, ShardedLru};
use crate::engine::Engine;
use crate::metrics::Metrics;
use crate::obs::ObsLayer;
use crate::router::{route, Route};
use crate::state::LiveCorpus;
use std::sync::atomic::{AtomicBool, Ordering};
use webre_convert::ConvertStats;
use webre_map::{MapPlanner, MapTier};
use webre_schema::extract_paths;
use webre_substrate::http::{Request, Response};
use webre_substrate::json::{Json, ToJson};

/// Shared server state: engine, cache, live corpus, metrics, and the
/// drain flag. One instance per server, `Arc`-shared across workers.
pub struct App {
    /// The pipeline this server runs.
    pub engine: Engine,
    /// `/convert` response cache.
    pub cache: ShardedLru,
    /// `/corpus/docs` + `/schema` state.
    pub corpus: LiveCorpus,
    /// Counters and histograms.
    pub metrics: Metrics,
    /// Per-stage span recording (stats for `/metrics`, optional trace).
    pub obs: ObsLayer,
    /// Set by `/shutdown`; the acceptor polls it and workers stop
    /// keep-alive once draining.
    pub draining: AtomicBool,
    /// Reject budget for `POST /map`: documents whose edit cost provably
    /// exceeds this are answered 422 without running the exact tier.
    /// `None` (the default) maps everything.
    pub map_budget: Option<u32>,
}

impl App {
    /// Fresh state for `workers` worker threads and a `cache_cap`-entry
    /// cache.
    pub fn new(engine: Engine, cache_cap: usize, workers: usize) -> Self {
        App::with_corpus(
            engine,
            cache_cap,
            workers,
            ObsLayer::default(),
            LiveCorpus::new(),
        )
    }

    /// [`App::new`] with an explicit observability layer and corpus — the
    /// server passes a tracing layer when started with a trace recorder,
    /// and a sharded (possibly durable, WAL-replayed) [`LiveCorpus`].
    pub fn with_corpus(
        engine: Engine,
        cache_cap: usize,
        workers: usize,
        obs: ObsLayer,
        corpus: LiveCorpus,
    ) -> Self {
        App {
            engine,
            cache: ShardedLru::new(cache_cap),
            corpus,
            metrics: Metrics::new(workers),
            obs,
            draining: AtomicBool::new(false),
            map_budget: None,
        }
    }

    /// Sets the `POST /map` reject budget (the `--map-budget` knob).
    pub fn with_map_budget(mut self, budget: Option<u32>) -> Self {
        self.map_budget = budget;
        self
    }

    /// Whether `/shutdown` has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// A parsed request plus the `/convert` cache key the event loop
/// computed while triaging it ([`fast_eligible`]), so a conversion
/// dispatched to a worker does not hash its body a second time.
#[derive(Debug)]
pub struct Routed {
    /// The request as parsed.
    pub request: Request,
    /// [`content_hash`] of the body, for a `POST /convert` the event loop
    /// triaged; `None` otherwise, and the worker hashes the body itself.
    pub convert_key: Option<u64>,
}

impl Routed {
    /// Wraps `request`, not yet hashed.
    pub fn new(request: Request) -> Routed {
        Routed {
            request,
            convert_key: None,
        }
    }
}

/// Dispatches one parsed request. Infallible by contract: every error
/// becomes a status-coded response. Pipeline stages the handlers invoke
/// record spans and counters into whatever context the caller installed
/// (the worker pool installs the server's recorder and opens a
/// per-request span); the response does not depend on it.
pub fn handle(app: &App, request: &Request) -> Response {
    dispatch(app, request, None)
}

/// [`handle`] for a request the event loop already triaged: a
/// `/convert` reuses the loop's body hash as its cache key.
pub(crate) fn handle_routed(app: &App, routed: &Routed) -> Response {
    dispatch(app, &routed.request, routed.convert_key)
}

fn dispatch(app: &App, request: &Request, convert_key: Option<u64>) -> Response {
    let resolved = match route(&request.method, request.path()) {
        Ok(route) => route,
        Err(response) => return response,
    };
    match resolved {
        Route::Convert => {
            let key = convert_key.unwrap_or_else(|| content_hash(&request.body));
            convert(app, &request.body, key)
        }
        Route::Map => map(app, &request.body),
        Route::CorpusDocs => corpus_docs(app, &request.body),
        Route::CorpusXml => corpus_xml(app, &request.body),
        Route::CorpusTable => corpus_table(app),
        Route::Schema => schema(app, false),
        Route::SchemaDtd => schema(app, true),
        Route::Metrics => metrics(app),
        Route::Healthz => Response::text(200, "ok\n"),
        Route::Shutdown => shutdown(app),
    }
}

/// Whether `request` can be answered on the event-loop thread without
/// occupying a worker: constant-time endpoints always, `/convert` only
/// when the body's XML is already resident in the cache (the probe
/// counts nothing, so cache statistics stay exact). Routing failures
/// (404/405) are constant-time too. Everything else — cold conversions,
/// mapping, corpus writes — goes through the dispatch queue where
/// admission control can shed it. A `/convert` keeps the body hash it
/// was probed with in `routed`, for the worker that converts it.
pub fn fast_eligible(app: &App, routed: &mut Routed) -> bool {
    match route(&routed.request.method, routed.request.path()) {
        Ok(Route::Healthz) | Ok(Route::Metrics) | Ok(Route::Shutdown) => true,
        Ok(Route::Convert) => {
            let key = content_hash(&routed.request.body);
            routed.convert_key = Some(key);
            app.cache.contains(key)
        }
        Ok(_) => false,
        Err(_) => true,
    }
}

/// `POST /convert`: HTML → pretty-printed concept-tagged XML, through
/// the content-hash cache; `key` is the body's [`content_hash`].
fn convert(app: &App, body: &[u8], key: u64) -> Response {
    if let Some(cached) = app.cache.get(key) {
        return Response::xml(200, cached.as_str()).with_header("x-cache", "hit");
    }
    let html = String::from_utf8_lossy(body);
    let (_, _, mut xml) = app.engine.convert_to_xml(&html);
    // The cache keeps up to `cache_cap` documents; drop the growth slack.
    xml.shrink_to_fit();
    let xml = std::sync::Arc::new(xml);
    app.cache.insert(key, std::sync::Arc::clone(&xml));
    Response::xml(200, xml.as_str()).with_header("x-cache", "miss")
}

/// Distinguishes `/map` cache entries from `/convert` entries sharing
/// the same body bytes.
const MAP_CACHE_TAG: u64 = 0x6D61_702F_7631;

/// A JSON response (the substrate codec has no dedicated constructor).
fn json_response(status: u16, body: impl Into<String>) -> Response {
    let mut response = Response::text(status, body);
    response.content_type = "application/json".into();
    response
}

/// `POST /map`: HTML body → convert → tiered mapping onto the current
/// majority schema/DTD. 200 with `{tier, cost, xml, script, …}` JSON on
/// success (cached per corpus version), 422 when the edit cost exceeds
/// the configured budget (cheap to recompute, so never cached), 404
/// while no schema exists.
fn map(app: &App, body: &[u8]) -> Response {
    let snapshot = app.corpus.snapshot(&app.engine);
    let Some((schema, dtd)) = snapshot.mapping.as_ref() else {
        return Response::text(
            404,
            "no schema yet: corpus is empty or its root is below the support threshold\n",
        );
    };
    // Key mixes the body hash with the corpus version (a new schema must
    // never serve stale mappings) and a tag distinct from `/convert`.
    let key = content_hash(body)
        ^ snapshot.version.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ MAP_CACHE_TAG;
    if let Some(cached) = app.cache.get(key) {
        return json_response(200, cached.as_str()).with_header("x-cache", "hit");
    }
    let html = String::from_utf8_lossy(body);
    let (doc, _) = app.engine.converter.convert_str(&html);
    let planner = MapPlanner {
        budget: app.map_budget,
        ..MapPlanner::default()
    };
    let planned = planner.plan(&doc, schema, dtd);
    let json = format!("{}\n", webre_map::render_json(&planned, app.map_budget));
    if planned.tier == MapTier::Rejected {
        return json_response(422, json).with_header("x-cache", "miss");
    }
    let json = std::sync::Arc::new(json);
    app.cache.insert(key, std::sync::Arc::clone(&json));
    json_response(200, json.as_str()).with_header("x-cache", "miss")
}

/// `POST /corpus/docs`: convert, then accrete into the live corpus.
fn corpus_docs(app: &App, body: &[u8]) -> Response {
    let html = String::from_utf8_lossy(body);
    // Conversion (the fallible, slow part) happens before the corpus
    // lock inside `accrete` is ever taken.
    let (doc, stats) = app.engine.converter.convert_str(&html);
    accreted(app.corpus.accrete(&doc, &stats))
}

/// `POST /corpus/xml`: accrete an already-converted document without
/// running HTML conversion — the high-throughput ingest path the scale
/// harness streams synthetic corpora through.
fn corpus_xml(app: &App, body: &[u8]) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::text(400, "body is not UTF-8\n");
    };
    let doc = match webre_xml::parse_xml(text) {
        Ok(doc) => doc,
        Err(e) => return Response::text(400, format!("bad xml: {e}\n")),
    };
    // Route by the raw body hash: cheaper than re-serializing, and any
    // deterministic content hash yields the same mining result (the
    // shard-merge-vs-batch identity is split-independent).
    let hash = webre_substrate::wal::checksum(body);
    let paths = extract_paths(&doc);
    accreted(
        app.corpus
            .accrete_paths(hash, paths, &ConvertStats::default()),
    )
}

/// Renders an accretion result: 202 + JSON on success, 500 when the
/// write-ahead log could not be appended.
fn accreted(result: std::io::Result<(u64, usize)>) -> Response {
    let (version, docs) = match result {
        Ok(outcome) => outcome,
        Err(e) => return Response::text(500, format!("corpus write failed: {e}\n")),
    };
    let reply = Json::Obj(vec![
        ("accepted".to_owned(), Json::Bool(true)),
        ("docs".to_owned(), Json::Num(docs as f64)),
        ("version".to_owned(), Json::Num(version as f64)),
    ]);
    Response::text(202, format!("{reply}\n"))
        .with_header("x-corpus-version", version.to_string())
}

/// `GET /corpus/table`: the merged frequent-path table as canonical
/// JSON — what the scale harness's checkpoint merges compare against
/// batch mining.
fn corpus_table(app: &App) -> Response {
    let (table, version, docs) = app.corpus.table();
    Response::text(200, format!("{}\n", table.to_json()))
        .with_header("x-corpus-version", version.to_string())
        .with_header("x-corpus-docs", docs.to_string())
}

/// `GET /schema` and `GET /schema/dtd`: the current snapshot.
fn schema(app: &App, dtd: bool) -> Response {
    let snapshot = app.corpus.snapshot(&app.engine);
    let text = if dtd {
        &snapshot.dtd_text
    } else {
        &snapshot.schema_text
    };
    match text {
        None => Response::text(
            404,
            "no schema yet: corpus is empty or its root is below the support threshold\n",
        ),
        Some(text) => Response::text(200, text.clone())
            .with_header("x-corpus-version", snapshot.version.to_string())
            .with_header("x-corpus-docs", snapshot.docs.to_string()),
    }
}

/// `GET /metrics`: core counters plus cache, corpus, and per-stage
/// pipeline lines.
fn metrics(app: &App) -> Response {
    let cache = app.cache.stats();
    let corpus_stats = app.corpus.stats();
    let extra = format!(
        "cache_hits_total {}\ncache_misses_total {}\ncache_entries {}\n\
         corpus_docs {}\ncorpus_shards {}\ncorpus_tokens_total {}\ncorpus_tokens_identified {}\n{}",
        cache.hits,
        cache.misses,
        cache.entries,
        app.corpus.len(),
        app.corpus.shard_count(),
        corpus_stats.tokens_total,
        corpus_stats.tokens_identified,
        app.obs.stats().render(),
    );
    Response::text(200, app.metrics.render(&extra))
}

/// `POST /shutdown`: flip the drain flag; the server notices and stops
/// accepting. Idempotent.
fn shutdown(app: &App) -> Response {
    app.draining.store(true, Ordering::SeqCst);
    Response::text(200, "draining\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            target: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            target: path.into(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn app() -> App {
        App::new(Engine::resume_domain(), 64, 2)
    }

    const RESUME: &str = "<h2>Education</h2><ul><li>Stanford University, M.S., 1996</li></ul>";

    #[test]
    fn convert_caches_by_content() {
        let app = app();
        let first = handle(&app, &post("/convert", RESUME));
        let second = handle(&app, &post("/convert", RESUME));
        assert_eq!(first.status, 200);
        assert_eq!(first.body, second.body);
        let header = |r: &Response| {
            r.headers
                .iter()
                .find(|(n, _)| n == "x-cache")
                .map(|(_, v)| v.clone())
        };
        assert_eq!(header(&first).as_deref(), Some("miss"));
        assert_eq!(header(&second).as_deref(), Some("hit"));
        let stats = app.cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // And the payload matches the batch pipeline byte for byte.
        let batch = app.engine.convert_to_xml(RESUME).2;
        assert_eq!(String::from_utf8(first.body).unwrap(), batch);
    }

    #[test]
    fn corpus_accretion_then_schema_and_dtd() {
        let app = app();
        assert_eq!(handle(&app, &get("/schema")).status, 404);
        for _ in 0..3 {
            let response = handle(&app, &post("/corpus/docs", RESUME));
            assert_eq!(response.status, 202);
            assert!(response.body.starts_with(b"{"), "json body expected");
        }
        let schema = handle(&app, &get("/schema"));
        assert_eq!(schema.status, 200);
        assert!(String::from_utf8(schema.body).unwrap().contains("resume"));
        let dtd = handle(&app, &get("/schema/dtd"));
        assert_eq!(dtd.status, 200);
        assert!(String::from_utf8(dtd.body).unwrap().contains("<!ELEMENT resume"));
        assert!(dtd
            .headers
            .iter()
            .any(|(n, v)| n == "x-corpus-version" && v == "3"));
    }

    #[test]
    fn corpus_xml_ingests_without_conversion() {
        let app = app();
        // Equivalent content by the two routes: converting RESUME via
        // /corpus/docs and posting the converted XML via /corpus/xml
        // must produce the same schema.
        let xml = app.engine.convert_to_xml(RESUME).2;
        for _ in 0..3 {
            let response = handle(&app, &post("/corpus/xml", &xml));
            assert_eq!(response.status, 202);
        }
        let schema = handle(&app, &get("/schema"));
        assert_eq!(schema.status, 200);
        let reference = self::app();
        for _ in 0..3 {
            handle(&reference, &post("/corpus/docs", RESUME));
        }
        assert_eq!(schema.body, handle(&reference, &get("/schema")).body);
        // Malformed bodies are rejected, not accreted.
        assert_eq!(handle(&app, &post("/corpus/xml", "<r><unclosed>")).status, 400);
        assert_eq!(app.corpus.len(), 3);
    }

    #[test]
    fn corpus_table_returns_canonical_json() {
        use webre_substrate::json::FromJson;
        let app = app();
        let empty = handle(&app, &get("/corpus/table"));
        assert_eq!(empty.status, 200);
        handle(&app, &post("/corpus/docs", RESUME));
        let response = handle(&app, &get("/corpus/table"));
        assert_eq!(response.status, 200);
        let text = String::from_utf8(response.body).unwrap();
        let json = Json::parse(text.trim()).unwrap();
        assert_eq!(json.get("docs").and_then(Json::as_f64), Some(1.0));
        // Round-trips through the schema-side codec.
        let table = webre_schema::PathTable::from_json(&json).unwrap();
        assert_eq!(table, app.corpus.table().0);
        assert!(response
            .headers
            .iter()
            .any(|(n, v)| n == "x-corpus-docs" && v == "1"));
    }

    #[test]
    fn metrics_exposes_cache_and_corpus_lines() {
        let app = app();
        handle(&app, &post("/convert", RESUME));
        handle(&app, &post("/convert", RESUME));
        handle(&app, &post("/corpus/docs", RESUME));
        let text = String::from_utf8(handle(&app, &get("/metrics")).body).unwrap();
        assert!(text.contains("cache_hits_total 1"), "{text}");
        assert!(text.contains("cache_misses_total 1"), "{text}");
        assert!(text.contains("corpus_docs 1"), "{text}");
        assert!(text.contains("queue_depth"), "{text}");
    }

    #[test]
    fn health_and_shutdown() {
        let app = app();
        assert_eq!(handle(&app, &get("/healthz")).status, 200);
        assert!(!app.is_draining());
        let response = handle(&app, &post("/shutdown", ""));
        assert_eq!(response.status, 200);
        assert!(app.is_draining());
        // Idempotent.
        assert_eq!(handle(&app, &post("/shutdown", "")).status, 200);
    }

    fn cache_header(response: &Response) -> Option<String> {
        response
            .headers
            .iter()
            .find(|(n, _)| n == "x-cache")
            .map(|(_, v)| v.clone())
    }

    #[test]
    fn map_requires_a_schema() {
        let app = app();
        assert_eq!(handle(&app, &post("/map", RESUME)).status, 404);
    }

    #[test]
    fn map_returns_planned_json_and_caches() {
        let app = app();
        for _ in 0..3 {
            handle(&app, &post("/corpus/docs", RESUME));
        }
        let first = handle(&app, &post("/map", RESUME));
        assert_eq!(first.status, 200);
        assert_eq!(first.content_type, "application/json");
        assert_eq!(cache_header(&first).as_deref(), Some("miss"));
        let second = handle(&app, &post("/map", RESUME));
        assert_eq!(cache_header(&second).as_deref(), Some("hit"));
        assert_eq!(first.body, second.body);
        // The body is exactly the batch planner's rendering.
        let snapshot = app.corpus.snapshot(&app.engine);
        let (schema, dtd) = snapshot.mapping.as_ref().unwrap();
        let (doc, _) = app.engine.converter.convert_str(RESUME);
        let planner = MapPlanner::default();
        let planned = planner.plan(&doc, schema, dtd);
        let batch = format!("{}\n", webre_map::render_json(&planned, None));
        assert_eq!(String::from_utf8(first.body).unwrap(), batch);
        let json = Json::parse(batch.trim()).expect("body parses as JSON");
        assert!(json.get("tier").and_then(Json::as_str).is_some());
    }

    #[test]
    fn map_budget_rejects_with_422_and_skips_the_cache() {
        let app = app().with_map_budget(Some(0));
        for _ in 0..3 {
            handle(&app, &post("/corpus/docs", RESUME));
        }
        // A document whose mapping needs edits: cost > 0 > budget.
        let alien = "<h2>Experience</h2><p>IBM, staff engineer</p>\
                     <h2>Education</h2><ul><li>MIT, Ph.D., 1990</li></ul>";
        let response = handle(&app, &post("/map", alien));
        if response.status == 422 {
            let text = String::from_utf8(response.body).unwrap();
            assert!(text.contains("\"tier\":\"rejected\""), "{text}");
            assert!(!text.contains("\"cost\""), "rejected bodies carry no cost: {text}");
            // Rejections are recomputed, never cached.
            let again = handle(&app, &post("/map", alien));
            assert_eq!(again.status, 422);
            assert_eq!(cache_header(&again).as_deref(), Some("miss"));
        } else {
            // The document happened to conform exactly; still a valid plan.
            assert_eq!(response.status, 200);
        }
    }

    #[test]
    fn map_cache_invalidates_when_the_corpus_grows() {
        let app = app();
        for _ in 0..3 {
            handle(&app, &post("/corpus/docs", RESUME));
        }
        let first = handle(&app, &post("/map", RESUME));
        assert_eq!(cache_header(&first).as_deref(), Some("miss"));
        assert_eq!(cache_header(&handle(&app, &post("/map", RESUME))).as_deref(), Some("hit"));
        // New corpus version → new schema snapshot → the old entry no
        // longer matches the key.
        handle(&app, &post("/corpus/docs", RESUME));
        let after = handle(&app, &post("/map", RESUME));
        assert_eq!(cache_header(&after).as_deref(), Some("miss"));
    }

    #[test]
    fn routing_errors_surface_as_responses() {
        let app = app();
        assert_eq!(handle(&app, &get("/nope")).status, 404);
        assert_eq!(handle(&app, &get("/convert")).status, 405);
    }

    #[test]
    fn convert_tolerates_non_utf8_bodies() {
        let app = app();
        let request = Request {
            method: "POST".into(),
            target: "/convert".into(),
            headers: Vec::new(),
            body: vec![b'<', b'p', b'>', 0xFF, 0xFE, b'<', b'/', b'p', b'>'],
        };
        let response = handle(&app, &request);
        assert_eq!(response.status, 200);
    }
}
