//! Loopback integration tests for versioned corpus snapshots: the
//! admin-gated `GET /v1/corpora/:name/snapshot` export (binary body,
//! decodable with the tenant's spec fingerprint), a server booted from a
//! manifest whose tenant carries a `snapshot` path serving byte-identical
//! `/v1/generate` responses to a spec-built server, and the
//! fingerprint-mismatch fallback rebuilding from the spec rather than
//! serving stale data.
//!
//! Server spawning, readiness, and shutdown ride the shared harness in
//! `tests/common`; the ambient keep-alive mode comes from
//! `RPG_TEST_KEEP_ALIVE` and the readiness backend from `RPG_IO_BACKEND`
//! (CI runs the matrix).

mod common;

use common::{
    get_with_key, hashed_key, request_with_key, spawn_manifest_server, TestServer, ADMIN_KEY,
    ALPHA_KEY,
};
use rpg_repager::artifacts::CorpusArtifacts;
use rpg_repager::system::PathRequest;
use rpg_repager::PipelineScratch;
use rpg_server::{api, client};
use rpg_service::{snapshot, CorpusRegistry, CorpusSpec, Manifest};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A `GET` with a bearer key that returns the body as raw bytes — the
/// shared [`client`] insists on UTF-8 bodies, which a binary snapshot is
/// not.
fn get_raw(addr: SocketAddr, path: &str, key: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(
            format!(
                "GET {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\
                 authorization: Bearer {key}\r\n\r\n"
            )
            .as_bytes(),
        )
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head");
    let head = std::str::from_utf8(&raw[..head_end]).expect("head is UTF-8");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line parses");
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| {
            line.split_once(':')
                .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        })
        .collect();
    (status, headers, raw[head_end + 4..].to_vec())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// The canonical result JSON these artifacts produce for `query` — the same
/// encoder the HTTP layer uses, so comparisons are byte-for-byte.
fn result_json(artifacts: &CorpusArtifacts, query: &str, year: u16) -> String {
    let output = artifacts
        .generate(
            &PathRequest {
                max_year: Some(year),
                ..PathRequest::new(query, 20)
            },
            &mut PipelineScratch::new(),
        )
        .unwrap();
    serde_json::to_string(&api::output_result_value(&output)).unwrap()
}

/// Extracts and re-renders the `result` subtree of a 200 response body.
fn result_bytes(body: &str) -> String {
    let value: Value = serde_json::from_str(body).expect("response body parses");
    serde_json::to_string(value.get("result").expect("response has a result"))
        .expect("result re-serialises")
}

/// The manifest used by the snapshot-boot tests: one tenant whose corpus
/// spec carries `snapshot_path`.
fn alpha_manifest_json(snapshot_path: &str) -> String {
    let [admin, alpha] = [ADMIN_KEY, ALPHA_KEY].map(hashed_key);
    format!(
        r#"{{
            "admin_key_hashes": [{admin:?}],
            "tenants": {{
                "alpha": {{
                    "corpus": {{"seed": 161, "scale": "small", "snapshot": {snapshot_path:?}}},
                    "key_hashes": [{alpha:?}]
                }}
            }}
        }}"#
    )
}

/// Spawns an authenticated server over `manifest_json` (the custom-manifest
/// sibling of `common::spawn_manifest_server`).
fn spawn_from_json(manifest_json: &str) -> TestServer {
    let manifest = Manifest::from_json(manifest_json).expect("manifest parses");
    let registry = Arc::new(CorpusRegistry::new());
    registry
        .apply_manifest(&manifest)
        .expect("manifest tenants build");
    common::spawn_with(registry, |config| {
        config.auth_enabled = true;
        config.workers = 2;
        config.queue_capacity = 16;
        *config = config.clone().with_manifest(&manifest);
    })
}

/// A scratch path under the system temp dir, removed on drop.
struct TempFile(std::path::PathBuf);

impl TempFile {
    fn new(name: &str) -> TempFile {
        TempFile(std::env::temp_dir().join(format!("{name}-{}", std::process::id())))
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("temp path is UTF-8")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn snapshot_export_is_admin_gated_and_decodes_to_the_live_artifacts() {
    let server = spawn_manifest_server(|config| {
        config.workers = 2;
    });
    let addr = server.addr();

    // Gating: anonymous is 401, a tenant key is 403 (even for its own
    // corpus — the export is an operator surface), wrong method is 405.
    let anonymous = client::get(addr, "/v1/corpora/alpha/snapshot").unwrap();
    assert_eq!(anonymous.status, 401, "{}", anonymous.body);
    let tenant = get_with_key(addr, "/v1/corpora/alpha/snapshot", ALPHA_KEY).unwrap();
    assert_eq!(tenant.status, 403, "{}", tenant.body);
    let wrong_method = request_with_key(
        addr,
        "POST",
        "/v1/corpora/alpha/snapshot",
        Some("{}"),
        Some(ADMIN_KEY),
    )
    .unwrap();
    assert_eq!(wrong_method.status, 405, "{}", wrong_method.body);
    assert_eq!(wrong_method.header("allow"), Some("GET"));
    let missing = get_with_key(addr, "/v1/corpora/ghost/snapshot", ADMIN_KEY).unwrap();
    assert_eq!(missing.status, 404, "{}", missing.body);

    // An admin export is a binary attachment...
    let (status, headers, body) = get_raw(addr, "/v1/corpora/alpha/snapshot", ADMIN_KEY);
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        Some("application/octet-stream"),
        "binary body must not claim to be JSON"
    );
    assert_eq!(
        header(&headers, "content-disposition"),
        Some(r#"attachment; filename="alpha.rpgsnap""#)
    );

    // ...that inspects clean and decodes under the tenant's own spec
    // fingerprint into artifacts serving identical results to the live
    // registry's.
    let spec = server.registry().spec("alpha").expect("alpha has a spec");
    let fingerprint = snapshot::spec_fingerprint(&spec);
    let info = snapshot::inspect(&body).expect("export inspects");
    assert_eq!(info.fingerprint, fingerprint);
    assert!(info.sections.iter().all(|s| s.crc_ok), "{info:?}");
    let decoded = snapshot::decode(&body, fingerprint).expect("export decodes");
    let live = server.registry().artifacts("alpha").unwrap();
    let (query, year) = common::tenant_query(&server, "alpha");
    assert_eq!(
        result_json(&decoded, &query, year),
        result_json(&live, &query, year),
        "decoded artifacts diverged from the live tenant"
    );
}

#[test]
fn a_snapshot_booted_server_serves_byte_identical_responses() {
    // Build the reference tenant from its spec alone, snapshot it, then
    // boot a second server whose manifest points at the snapshot file. The
    // two servers must be indistinguishable on the wire.
    let file = TempFile::new("rpg-snapshot-boot.rpgsnap");
    let spec_manifest = Manifest::from_json(&alpha_manifest_json(file.path())).unwrap();
    let spec = spec_manifest
        .tenant("alpha")
        .unwrap()
        .corpus_spec()
        .unwrap()
        .clone();
    // `build_corpus` generates from seed/scale alone (the snapshot path is
    // only consulted at registry load time), and the fingerprint covers
    // the generation parameters, not the path — so this reference build is
    // exactly what the server would rebuild.
    let reference = CorpusArtifacts::build(spec.build_corpus().unwrap()).unwrap();
    let bytes = snapshot::encode(&reference, snapshot::spec_fingerprint(&spec)).unwrap();
    std::fs::write(&file.0, &bytes).unwrap();

    let server = spawn_from_json(&alpha_manifest_json(file.path()));
    let (query, year) = common::tenant_query(&server, "alpha");
    let response = common::post_json_with_key(
        server.addr(),
        "/v1/generate",
        &common::generate_body(&query, year, 20),
        ALPHA_KEY,
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(
        result_bytes(&response.body),
        result_json(&reference, &query, year),
        "snapshot boot diverged from the spec build"
    );
}

#[test]
fn a_mismatched_snapshot_falls_back_to_an_identical_spec_build() {
    // The staleness gate end to end: alpha's snapshot path holds a valid
    // container built from a *different* spec (seed 999), so its embedded
    // fingerprint cannot match. The server must rebuild from the spec —
    // one warning, no stale data — and serve exactly what a snapshot-less
    // boot serves.
    let file = TempFile::new("rpg-snapshot-stale.rpgsnap");
    let stale_spec = CorpusSpec::small(999);
    let stale = CorpusArtifacts::build(stale_spec.build_corpus().unwrap()).unwrap();
    let bytes = snapshot::encode(&stale, snapshot::spec_fingerprint(&stale_spec)).unwrap();
    std::fs::write(&file.0, &bytes).unwrap();

    let server = spawn_from_json(&alpha_manifest_json(file.path()));
    let spec = Manifest::from_json(&alpha_manifest_json(file.path()))
        .unwrap()
        .tenant("alpha")
        .unwrap()
        .corpus_spec()
        .unwrap()
        .clone();
    // The mismatch is structural, not incidental: decoding the file under
    // alpha's fingerprint is refused.
    assert!(matches!(
        snapshot::decode(&bytes, snapshot::spec_fingerprint(&spec)),
        Err(snapshot::SnapshotError::FingerprintMismatch { .. })
    ));

    let reference = CorpusArtifacts::build(spec.build_corpus().unwrap()).unwrap();
    let (query, year) = common::tenant_query(&server, "alpha");
    let response = common::post_json_with_key(
        server.addr(),
        "/v1/generate",
        &common::generate_body(&query, year, 20),
        ALPHA_KEY,
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(
        result_bytes(&response.body),
        result_json(&reference, &query, year),
        "fallback must serve the spec build, not the stale snapshot"
    );
}
