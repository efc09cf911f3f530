//! Restart equivalence over real HTTP: ingest a corpus into a durable
//! server, drain it, restart on the same data directory, and the schema
//! endpoints must answer byte-identically — the WAL replay rebuilt the
//! exact live corpus, shard layout included.

use std::net::SocketAddr;
use std::path::PathBuf;
use webre_schema::{derive_dtd, extract_paths, DocPaths};
use webre_serve::server::{ServeConfig, Server};
use webre_serve::Engine;
use webre_substrate::http::{request, ParsedResponse};

fn roundtrip(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> ParsedResponse {
    request(addr, method, target, body).expect("response")
}

fn durable_config(dir: &PathBuf) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        data_dir: Some(dir.clone()),
        shards: 3,
        sync_every: 4,
        compact_min: 8,
        ..ServeConfig::default()
    }
}

const PAGES: &[&str] = &[
    "<h2>Education</h2><ul><li>Stanford University, M.S., 1996</li></ul>",
    "<h2>Skills</h2><p>C++, Java, XML</p>",
    "<h2>Education</h2><ul><li>MIT, Ph.D., 2001</li><li>MIT, B.S., 1994</li></ul>",
    "<h2>Objective</h2><p>research scientist</p>",
    "<h2>Education</h2><ul><li>CMU, B.S., 1999</li></ul><h2>Skills</h2><p>SQL</p>",
];

#[test]
fn schema_and_dtd_are_byte_identical_across_a_restart() {
    let dir = std::env::temp_dir().join(format!("webre-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First life: ingest over HTTP through both accretion endpoints.
    let engine = Engine::resume_domain();
    let server = Server::start(durable_config(&dir), Engine::resume_domain()).expect("bind");
    let addr = server.local_addr();
    for (i, page) in PAGES.iter().enumerate() {
        let response = if i % 2 == 0 {
            roundtrip(addr, "POST", "/corpus/docs", page.as_bytes())
        } else {
            // The fast path ingests pre-converted XML.
            let xml = engine.convert_to_xml(page).2;
            roundtrip(addr, "POST", "/corpus/xml", xml.as_bytes())
        };
        assert_eq!(response.status, 202, "{}", response.text());
    }
    let schema_before = roundtrip(addr, "GET", "/schema", b"");
    let dtd_before = roundtrip(addr, "GET", "/schema/dtd", b"");
    let table_before = roundtrip(addr, "GET", "/corpus/table", b"");
    assert_eq!(schema_before.status, 200, "{}", schema_before.text());
    assert_eq!(dtd_before.status, 200);
    assert_eq!(table_before.status, 200);
    server.request_drain();
    server.join();

    // Second life: same data directory, fresh process state.
    let server = Server::start(durable_config(&dir), Engine::resume_domain()).expect("rebind");
    let addr = server.local_addr();
    let schema_after = roundtrip(addr, "GET", "/schema", b"");
    let dtd_after = roundtrip(addr, "GET", "/schema/dtd", b"");
    let table_after = roundtrip(addr, "GET", "/corpus/table", b"");
    assert_eq!(schema_after.status, 200, "{}", schema_after.text());
    assert_eq!(schema_after.body, schema_before.body, "schema changed across restart");
    assert_eq!(dtd_after.body, dtd_before.body, "dtd changed across restart");
    assert_eq!(table_after.body, table_before.body, "path table changed across restart");
    assert_eq!(
        schema_after.header("x-corpus-docs"),
        Some(PAGES.len().to_string().as_str())
    );

    // The restarted corpus keeps accreting: version picks up where the
    // first life stopped.
    let response = roundtrip(addr, "POST", "/corpus/docs", PAGES[0].as_bytes());
    assert_eq!(response.status, 202);
    assert_eq!(
        response.header("x-corpus-version"),
        Some((PAGES.len() as u64 + 1).to_string().as_str())
    );
    server.request_drain();
    server.join();

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Batch DTD over `docs`: mine the slice, derive from the slice.
fn batch_dtd(engine: &Engine, docs: &[DocPaths]) -> String {
    let outcome = engine
        .miner
        .mine(docs)
        .expect("batch mining finds a schema");
    derive_dtd(&outcome.schema, docs, &engine.dtd_config).to_dtd_string()
}

#[test]
fn live_dtd_equals_batch_after_every_burst_and_a_restart() {
    // The served DTD is derived from per-path aggregates kept at push
    // time (and rebuilt by WAL replay); batch derivation aggregates the
    // document slice afresh. Both must agree after every burst.
    let dir = std::env::temp_dir().join(format!("webre-live-dtd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::resume_domain();
    let bursts: [&[&str]; 4] = [
        &PAGES[..1],
        &[
            PAGES[2],
            "<h2>Education</h2><ul><li>MIT, Ph.D., 2001</li><li>MIT, M.S., 1997</li>\
             <li>MIT, B.S., 1994</li></ul><h2>Skills</h2><p>Lisp</p>",
        ],
        &PAGES[1..],
        &[PAGES[4], PAGES[0], PAGES[2], PAGES[2]],
    ];

    let server = Server::start(durable_config(&dir), Engine::resume_domain()).expect("bind");
    let addr = server.local_addr();
    let mut accreted: Vec<DocPaths> = Vec::new();
    for (round, burst) in bursts.iter().enumerate() {
        for page in *burst {
            let (doc, _, xml) = engine.convert_to_xml(page);
            let response = roundtrip(addr, "POST", "/corpus/xml", xml.as_bytes());
            assert_eq!(response.status, 202, "{}", response.text());
            accreted.push(extract_paths(&doc));
        }
        let dtd = roundtrip(addr, "GET", "/schema/dtd", b"");
        assert_eq!(dtd.status, 200, "{}", dtd.text());
        assert_eq!(dtd.text(), batch_dtd(&engine, &accreted), "burst {round}");
    }
    server.request_drain();
    server.join();

    let server = Server::start(durable_config(&dir), Engine::resume_domain()).expect("rebind");
    let dtd = roundtrip(server.local_addr(), "GET", "/schema/dtd", b"");
    assert_eq!(dtd.status, 200, "{}", dtd.text());
    assert_eq!(dtd.text(), batch_dtd(&engine, &accreted), "after restart");
    server.request_drain();
    server.join();

    std::fs::remove_dir_all(&dir).unwrap();
}
