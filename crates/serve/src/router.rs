//! Method/path → route resolution.
//!
//! Routing is a pure function so it is trivially testable and the
//! handler layer never sees raw targets. Unknown paths map to `404`,
//! known paths with the wrong method to `405` (with an `allow` header),
//! both produced here so every worker answers identically.

use webre_substrate::http::Response;

/// The `endpoint` label of each request series in `/metrics`, indexed
/// by `Route as usize`, then [`OTHER`].
pub const ENDPOINTS: &[&str] = &[
    "convert",
    "map",
    "corpus_docs",
    "corpus_xml",
    "corpus_table",
    "schema",
    "schema_dtd",
    "metrics",
    "healthz",
    "shutdown",
    "other",
];

/// The [`ENDPOINTS`] index of requests that resolved to no route (404,
/// 405) or whose handler panicked.
pub const OTHER: usize = ENDPOINTS.len() - 1;

/// A resolved route; its discriminant indexes [`ENDPOINTS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// `POST /convert`
    Convert,
    /// `POST /map`
    Map,
    /// `POST /corpus/docs`
    CorpusDocs,
    /// `POST /corpus/xml`
    CorpusXml,
    /// `GET /corpus/table`
    CorpusTable,
    /// `GET /schema`
    Schema,
    /// `GET /schema/dtd`
    SchemaDtd,
    /// `GET /metrics`
    Metrics,
    /// `GET /healthz`
    Healthz,
    /// `POST /shutdown`
    Shutdown,
}

/// Resolves a request line; `Err` carries the ready-made error response.
pub fn route(method: &str, path: &str) -> Result<Route, Response> {
    let (expected, route) = match path {
        "/convert" => ("POST", Route::Convert),
        "/map" => ("POST", Route::Map),
        "/corpus/docs" => ("POST", Route::CorpusDocs),
        "/corpus/xml" => ("POST", Route::CorpusXml),
        "/corpus/table" => ("GET", Route::CorpusTable),
        "/schema" => ("GET", Route::Schema),
        "/schema/dtd" => ("GET", Route::SchemaDtd),
        "/metrics" => ("GET", Route::Metrics),
        "/healthz" => ("GET", Route::Healthz),
        "/shutdown" => ("POST", Route::Shutdown),
        _ => {
            return Err(Response::text(
                404,
                format!("no route for {path}\n"),
            ))
        }
    };
    if method != expected {
        return Err(Response::text(
            405,
            format!("{path} expects {expected}, got {method}\n"),
        )
        .with_header("allow", expected));
    }
    Ok(route)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every route with its request line and `/metrics` label.
    const ROUTES: [(&str, &str, Route, &str); 10] = [
        ("POST", "/convert", Route::Convert, "convert"),
        ("POST", "/map", Route::Map, "map"),
        ("POST", "/corpus/docs", Route::CorpusDocs, "corpus_docs"),
        ("POST", "/corpus/xml", Route::CorpusXml, "corpus_xml"),
        ("GET", "/corpus/table", Route::CorpusTable, "corpus_table"),
        ("GET", "/schema", Route::Schema, "schema"),
        ("GET", "/schema/dtd", Route::SchemaDtd, "schema_dtd"),
        ("GET", "/metrics", Route::Metrics, "metrics"),
        ("GET", "/healthz", Route::Healthz, "healthz"),
        ("POST", "/shutdown", Route::Shutdown, "shutdown"),
    ];

    #[test]
    fn every_route_resolves() {
        for (method, path, expected, _) in ROUTES {
            assert_eq!(route(method, path), Ok(expected));
        }
    }

    #[test]
    fn unknown_path_is_404() {
        let err = route("GET", "/nope").unwrap_err();
        assert_eq!(err.status, 404);
    }

    #[test]
    fn wrong_method_is_405_with_allow() {
        let err = route("GET", "/convert").unwrap_err();
        assert_eq!(err.status, 405);
        assert!(err.headers.iter().any(|(n, v)| n == "allow" && v == "POST"));
    }

    #[test]
    fn every_endpoint_has_a_distinct_label() {
        for (_, _, route, label) in ROUTES {
            assert_eq!(ENDPOINTS[route as usize], label);
        }
        assert_eq!(ENDPOINTS[OTHER], "other");
        let mut labels = ENDPOINTS.to_vec();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ENDPOINTS.len());
    }
}
