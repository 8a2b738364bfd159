//! Control-plane integration suite: tenant manifests, the authenticated
//! admin API, wire-operable corpus lifecycle (`PUT`/`DELETE`/reload), live
//! fair-queue retuning, per-item batch billing, and mid-compute hangup
//! cancellation — all over real TCP against one server, with no restarts.
//!
//! Every server here runs with `--auth on` semantics (bearer keys from the
//! `tests/common` manifest fixture), so CI exercising this suite in both
//! keep-alive modes is what keeps the authenticated path covered.

mod common;

use common::{
    demo_manifest_json, demo_registry, demo_registry_without_cache, get_with_key, hashed_key,
    post_json_with_key, request_with_key, spawn_manifest_server, spawn_with, tenant_query,
    wait_until, wait_worker_busy, TestServer, ADMIN_KEY, ALPHA_KEY, BETA_KEY,
};
use rpg_server::api::ResolvedRequest;
use rpg_server::{client, GenerateRequest};
use rpg_service::{CorpusRegistry, Manifest};
use serde_json::Value;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn parse(body: &str) -> Value {
    serde_json::from_str(body).expect("response body is JSON")
}

/// A generate body against an explicit corpus.
fn gen_body(query: &str, year: u16, corpus: Option<&str>) -> String {
    match corpus {
        Some(corpus) => {
            format!(
                r#"{{"query": {query:?}, "max_year": {year}, "top_k": 10, "corpus": {corpus:?}}}"#
            )
        }
        None => format!(r#"{{"query": {query:?}, "max_year": {year}, "top_k": 10}}"#),
    }
}

/// The generate body a test plugs the single compute worker with while it
/// stages queue state behind it. The server's reply hold, not the body's
/// cost, keeps the worker busy; no other request repeats the body, so it
/// is never a cache hit.
fn plug_body(query: &str, corpus: &str) -> String {
    format!(r#"{{"query": {query:?}, "top_k": 40, "corpus": {corpus:?}}}"#)
}

#[test]
fn manifest_round_trip_parse_apply_listing_matches() {
    let server = spawn_manifest_server(|_| {});
    // The tenants the manifest declares are the tenants the server serves.
    let health = client::get(server.addr(), "/v1/healthz").unwrap();
    assert_eq!(health.status, 200);
    let corpora = parse(&health.body);
    let names: Vec<&str> = corpora
        .get("corpora")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(names, ["alpha", "beta"]);

    // The control-plane listing round-trips the manifest's specs and
    // tuning: seeds, epochs, weights.
    let listing = get_with_key(server.addr(), "/v1/corpora", ADMIN_KEY).unwrap();
    assert_eq!(listing.status, 200);
    let manifest = Manifest::from_json(&demo_manifest_json()).unwrap();
    let rows = parse(&listing.body);
    let rows = rows.get("corpora").and_then(Value::as_array).unwrap();
    assert_eq!(rows.len(), 2);
    for row in rows {
        let name = row.get("name").and_then(Value::as_str).unwrap();
        let spec = manifest.tenant(name).unwrap().corpus.as_ref().unwrap();
        assert_eq!(
            row.get("corpus")
                .and_then(|c| c.get("seed"))
                .and_then(Value::as_f64),
            Some(spec.seed as f64),
            "listing spec matches the manifest for {name}"
        );
        assert_eq!(row.get("epoch").and_then(Value::as_f64), Some(0.0));
        let expected_weight = manifest.tenant(name).unwrap().weight.unwrap_or(1);
        assert_eq!(
            row.get("weight").and_then(Value::as_f64),
            Some(expected_weight as f64)
        );
    }
    // A tenant key may read the listing too, but sees only its own row —
    // one tenant's corpus recipe and tuning are not another's business.
    let scoped = get_with_key(server.addr(), "/v1/corpora", ALPHA_KEY).unwrap();
    assert_eq!(scoped.status, 200);
    let scoped = parse(&scoped.body);
    let scoped = scoped.get("corpora").and_then(Value::as_array).unwrap();
    assert_eq!(scoped.len(), 1);
    assert_eq!(scoped[0].get("name").and_then(Value::as_str), Some("alpha"));
}

#[test]
fn auth_matrix_401_403_over_tcp() {
    let server = spawn_manifest_server(|_| {});
    let addr = server.addr();
    let (query, year) = tenant_query(&server, "alpha");
    let alpha_body = gen_body(&query, year, Some("alpha"));

    // Unauthenticated and unknown-key generates are 401 with a challenge.
    for key in [None, Some("wrong-key")] {
        let response =
            request_with_key(addr, "POST", "/v1/generate", Some(&alpha_body), key).unwrap();
        assert_eq!(response.status, 401, "key {key:?}");
        assert_eq!(response.header("www-authenticate"), Some("Bearer"));
    }
    // A tenant key generating against *another* tenant's corpus is 403.
    let cross = post_json_with_key(addr, "/v1/generate", &alpha_body, BETA_KEY).unwrap();
    assert_eq!(cross.status, 403);
    // Its own corpus — named or defaulted — is 200, billed to itself.
    let own = post_json_with_key(addr, "/v1/generate", &alpha_body, ALPHA_KEY).unwrap();
    assert_eq!(own.status, 200);
    assert_eq!(
        parse(&own.body).get("corpus").and_then(Value::as_str),
        Some("alpha")
    );
    let defaulted = post_json_with_key(
        addr,
        "/v1/generate",
        &gen_body(&query, year, None),
        ALPHA_KEY,
    )
    .unwrap();
    assert_eq!(defaulted.status, 200);
    assert_eq!(
        parse(&defaulted.body).get("corpus").and_then(Value::as_str),
        Some("alpha"),
        "an authenticated request without a corpus field defaults to its own tenant"
    );
    // The admin key may target any tenant.
    assert_eq!(
        post_json_with_key(addr, "/v1/generate", &alpha_body, ADMIN_KEY)
            .unwrap()
            .status,
        200
    );
    // An anonymous batch is a request-level 401.
    assert_eq!(
        client::post_json(addr, "/v1/batch", r#"{"requests": [{"query": "x"}]}"#)
            .unwrap()
            .status,
        401
    );

    // Admin endpoints: anonymous → 401, tenant key → 403, across every verb.
    let admin_calls: Vec<(&str, &str, Option<&str>)> = vec![
        ("PUT", "/v1/corpora/new", Some("{}")),
        ("DELETE", "/v1/corpora/alpha", None),
        ("POST", "/v1/corpora/alpha/refresh", None),
        ("PATCH", "/v1/admin/tenants/alpha", Some(r#"{"weight": 2}"#)),
        ("POST", "/v1/admin/reload", None),
    ];
    for (method, path, body) in &admin_calls {
        let anonymous = request_with_key(addr, method, path, *body, None).unwrap();
        assert_eq!(anonymous.status, 401, "{method} {path} anonymous");
        let tenant = request_with_key(addr, method, path, *body, Some(ALPHA_KEY)).unwrap();
        assert_eq!(tenant.status, 403, "{method} {path} with a tenant key");
    }
    // The corpora listing requires *some* key.
    assert_eq!(client::get(addr, "/v1/corpora").unwrap().status, 401);
    // Health and stats stay open for probes.
    assert_eq!(client::get(addr, "/v1/healthz").unwrap().status, 200);
    assert_eq!(client::get(addr, "/v1/stats").unwrap().status, 200);
    // Auth rejections never consumed queue budget or broke the server.
    assert_eq!(server.request_depth(), 0);
}

#[test]
fn lifecycle_put_generate_patch_delete_without_restart() {
    // The acceptance flow: a manifest-booted, authenticated server gains a
    // third corpus over the wire, serves it, retunes a tenant, and removes
    // a tenant — one server, no restarts.
    let server = spawn_manifest_server(|config| {
        config.workers = 2;
    });
    let addr = server.addr();

    // PUT a brand-new corpus spec (with its own key) and build it.
    let gamma_spec = format!(
        r#"{{
        "corpus": {{"seed": 193, "scale": "small"}},
        "weight": 3,
        "queue": 16,
        "key_hashes": [{:?}]
    }}"#,
        hashed_key("gamma-key")
    );
    let put = request_with_key(
        addr,
        "PUT",
        "/v1/corpora/gamma",
        Some(&gamma_spec),
        Some(ADMIN_KEY),
    )
    .unwrap();
    assert_eq!(put.status, 200, "{}", put.body);
    let put_value = parse(&put.body);
    assert_eq!(
        put_value.get("created").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(put_value.get("epoch").and_then(Value::as_f64), Some(0.0));
    // Gamma omitted `inflight`, so it gets its weighted share of the two
    // workers, as a manifest tenant would: 2 × 3 ÷ (1 + 2 + 3) = 1.
    let stats = parse(&client::get(addr, "/v1/stats").unwrap().body);
    assert_eq!(
        stats
            .get("queue")
            .and_then(|q| q.get("tenants"))
            .and_then(|t| t.get("gamma"))
            .and_then(|g| g.get("inflight"))
            .and_then(Value::as_f64),
        Some(1.0),
        "a PUT tenant without `inflight` is capped like a manifest tenant"
    );

    // A PUT that tries to claim another tenant's (or the admin) hash is a
    // 400 — the wire path enforces the same key rules as the manifest
    // instead of silently dropping the conflicting grant — and so is an
    // empty or malformed one.
    let beta_hash = hashed_key(BETA_KEY);
    let admin_hash = hashed_key(ADMIN_KEY);
    for stolen in [beta_hash.as_str(), &admin_hash, "", BETA_KEY] {
        let body =
            format!(r#"{{"corpus": {{"seed": 5, "scale": "small"}}, "key_hashes": [{stolen:?}]}}"#);
        let conflict = request_with_key(
            addr,
            "PUT",
            "/v1/corpora/thief",
            Some(&body),
            Some(ADMIN_KEY),
        )
        .unwrap();
        assert_eq!(conflict.status, 400, "key {stolen:?} must not be claimable");
    }

    // Generate against it with its freshly granted key.
    let (query, year) = tenant_query(&server, "gamma");
    let generated = post_json_with_key(
        addr,
        "/v1/generate",
        &gen_body(&query, year, Some("gamma")),
        "gamma-key",
    )
    .unwrap();
    assert_eq!(generated.status, 200, "{}", generated.body);
    let generated = parse(&generated.body);
    assert_eq!(
        generated.get("corpus").and_then(Value::as_str),
        Some("gamma")
    );
    assert!(
        !generated
            .get("result")
            .and_then(|r| r.get("reading_list"))
            .and_then(Value::as_array)
            .unwrap()
            .is_empty(),
        "the PUT corpus actually serves"
    );

    // The listing now shows three tenants with gamma's tuning applied.
    let listing = parse(&get_with_key(addr, "/v1/corpora", ADMIN_KEY).unwrap().body);
    let rows = listing.get("corpora").and_then(Value::as_array).unwrap();
    let names: Vec<&str> = rows
        .iter()
        .filter_map(|r| r.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(names, ["alpha", "beta", "gamma"]);
    let gamma_row = &rows[2];
    assert_eq!(gamma_row.get("weight").and_then(Value::as_f64), Some(3.0));
    assert_eq!(gamma_row.get("queue").and_then(Value::as_f64), Some(16.0));

    // Re-PUT with a different seed: replacement, not creation — the epoch
    // bumps so stale cache entries can never resurface.
    let replaced = request_with_key(
        addr,
        "PUT",
        "/v1/corpora/gamma",
        Some(&format!(
            r#"{{"corpus": {{"seed": 194, "scale": "small"}}, "key_hashes": [{:?}]}}"#,
            hashed_key("gamma-key")
        )),
        Some(ADMIN_KEY),
    )
    .unwrap();
    assert_eq!(replaced.status, 200);
    let replaced = parse(&replaced.body);
    assert_eq!(
        replaced.get("created").and_then(Value::as_bool),
        Some(false)
    );
    assert_eq!(replaced.get("epoch").and_then(Value::as_f64), Some(1.0));

    // PATCH a live tenant's weight and bound; the change is visible
    // immediately in the listing (behavioural DRR coverage lives in the
    // fair-queue unit suite and the retune-under-load test below).
    let patch = request_with_key(
        addr,
        "PATCH",
        "/v1/admin/tenants/beta",
        Some(r#"{"weight": 5, "queue": 11}"#),
        Some(ADMIN_KEY),
    )
    .unwrap();
    assert_eq!(patch.status, 200);
    let patched = parse(&patch.body);
    assert_eq!(patched.get("weight").and_then(Value::as_f64), Some(5.0));
    assert_eq!(patched.get("queue").and_then(Value::as_f64), Some(11.0));
    let listing = parse(&get_with_key(addr, "/v1/corpora", ADMIN_KEY).unwrap().body);
    let beta_row = &listing.get("corpora").and_then(Value::as_array).unwrap()[1];
    assert_eq!(beta_row.get("weight").and_then(Value::as_f64), Some(5.0));
    assert_eq!(beta_row.get("queue").and_then(Value::as_f64), Some(11.0));
    // Patching an unknown tenant is a 404; garbage tuning is a 400.
    assert_eq!(
        request_with_key(
            addr,
            "PATCH",
            "/v1/admin/tenants/ghost",
            Some(r#"{"weight": 2}"#),
            Some(ADMIN_KEY)
        )
        .unwrap()
        .status,
        404
    );
    assert_eq!(
        request_with_key(
            addr,
            "PATCH",
            "/v1/admin/tenants/beta",
            Some(r#"{"weight": 0}"#),
            Some(ADMIN_KEY)
        )
        .unwrap()
        .status,
        400
    );

    // DELETE the tenant: subsequent generates are 404 (admin) and its key
    // is revoked outright (401).
    let deleted =
        request_with_key(addr, "DELETE", "/v1/corpora/gamma", None, Some(ADMIN_KEY)).unwrap();
    assert_eq!(deleted.status, 200);
    assert_eq!(
        request_with_key(addr, "DELETE", "/v1/corpora/gamma", None, Some(ADMIN_KEY))
            .unwrap()
            .status,
        404,
        "double delete"
    );
    let after = post_json_with_key(
        addr,
        "/v1/generate",
        &gen_body(&query, year, Some("gamma")),
        ADMIN_KEY,
    )
    .unwrap();
    assert_eq!(after.status, 404);
    let revoked = post_json_with_key(
        addr,
        "/v1/generate",
        &gen_body(&query, year, Some("gamma")),
        "gamma-key",
    )
    .unwrap();
    assert_eq!(revoked.status, 401, "deleted tenant's key is revoked");
    // alpha and beta were never disturbed.
    let (alpha_query, alpha_year) = tenant_query(&server, "alpha");
    assert_eq!(
        post_json_with_key(
            addr,
            "/v1/generate",
            &gen_body(&alpha_query, alpha_year, None),
            ALPHA_KEY
        )
        .unwrap()
        .status,
        200
    );
}

#[test]
fn put_replace_evicts_exactly_the_replaced_tenants_cache() {
    let server = spawn_manifest_server(|_| {});
    let addr = server.addr();
    let (alpha_query, alpha_year) = tenant_query(&server, "alpha");
    let (beta_query, beta_year) = tenant_query(&server, "beta");
    let alpha_body = gen_body(&alpha_query, alpha_year, Some("alpha"));
    let beta_body = gen_body(&beta_query, beta_year, Some("beta"));

    // Populate both tenants' cache entries over the wire.
    for (body, key) in [(&alpha_body, ALPHA_KEY), (&beta_body, BETA_KEY)] {
        let first = post_json_with_key(addr, "/v1/generate", body, key).unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(
            parse(&first.body).get("cached").and_then(Value::as_bool),
            Some(false)
        );
        let repeat = post_json_with_key(addr, "/v1/generate", body, key).unwrap();
        assert_eq!(
            parse(&repeat.body).get("cached").and_then(Value::as_bool),
            Some(true)
        );
    }

    // Replace alpha's corpus via PUT.
    let put = request_with_key(
        addr,
        "PUT",
        "/v1/corpora/alpha",
        Some(&format!(
            r#"{{"corpus": {{"seed": 9161, "scale": "small"}}, "key_hashes": [{:?}]}}"#,
            hashed_key(ALPHA_KEY)
        )),
        Some(ADMIN_KEY),
    )
    .unwrap();
    assert_eq!(put.status, 200, "{}", put.body);

    // Exactly alpha's entries are gone: the listing says so, beta still
    // hits its cache, and alpha recomputes against the new corpus.
    let listing = parse(&get_with_key(addr, "/v1/corpora", ADMIN_KEY).unwrap().body);
    let rows = listing.get("corpora").and_then(Value::as_array).unwrap();
    assert_eq!(rows[0].get("name").and_then(Value::as_str), Some("alpha"));
    assert_eq!(
        rows[0].get("cached_entries").and_then(Value::as_f64),
        Some(0.0)
    );
    assert_eq!(rows[0].get("epoch").and_then(Value::as_f64), Some(1.0));
    assert_eq!(rows[1].get("name").and_then(Value::as_str), Some("beta"));
    assert_eq!(
        rows[1].get("cached_entries").and_then(Value::as_f64),
        Some(1.0)
    );
    let beta_hit = post_json_with_key(addr, "/v1/generate", &beta_body, BETA_KEY).unwrap();
    assert_eq!(
        parse(&beta_hit.body).get("cached").and_then(Value::as_bool),
        Some(true)
    );
    let alpha_fresh = post_json_with_key(addr, "/v1/generate", &alpha_body, ALPHA_KEY).unwrap();
    assert_eq!(alpha_fresh.status, 200);
    assert_eq!(
        parse(&alpha_fresh.body)
            .get("cached")
            .and_then(Value::as_bool),
        Some(false),
        "the replaced corpus must not serve pre-replacement results"
    );
}

#[test]
fn live_weight_retune_shifts_the_drr_share_under_load() {
    // One compute worker, four parked requests per tenant. The manifest
    // gives beta weight 2 and alpha weight 1, so beta's backlog would
    // normally drain first; a live PATCH raising alpha to weight 6 must
    // flip that — alpha's last response lands before beta's.
    let server = spawn_manifest_server(|config| {
        config.workers = 1;
        config.queue_capacity = 64;
    });
    let addr = server.addr();

    // Distinct queries per request so the result cache never short-circuits
    // the pipeline.
    let alpha_queries: Vec<(String, u16)> = {
        let artifacts = server.registry().artifacts("alpha").unwrap();
        artifacts
            .corpus()
            .survey_bank()
            .iter()
            .take(4)
            .map(|s| (s.query.clone(), s.year))
            .collect()
    };
    let beta_queries: Vec<(String, u16)> = {
        let artifacts = server.registry().artifacts("beta").unwrap();
        artifacts
            .corpus()
            .survey_bank()
            .iter()
            .take(4)
            .map(|s| (s.query.clone(), s.year))
            .collect()
    };

    // Plug the worker so the eight requests park in the queue while the
    // retune happens.
    let hold = server.hold_replies();
    let plug = {
        let (query, _) = alpha_queries[0].clone();
        std::thread::spawn(move || {
            let response =
                post_json_with_key(addr, "/v1/generate", &plug_body(&query, "alpha"), ALPHA_KEY);
            assert_eq!(response.unwrap().status, 200);
        })
    };
    wait_worker_busy(&server, "alpha");

    // Retune alpha while the server is under load.
    let patch = request_with_key(
        addr,
        "PATCH",
        "/v1/admin/tenants/alpha",
        Some(r#"{"weight": 6}"#),
        Some(ADMIN_KEY),
    )
    .unwrap();
    assert_eq!(patch.status, 200);

    // Park 4 + 4 requests (interleaved submission), each recording when its
    // response arrived.
    let mut handles = Vec::new();
    for i in 0..4 {
        for (tenant, key, queries) in [
            ("alpha", ALPHA_KEY, &alpha_queries),
            ("beta", BETA_KEY, &beta_queries),
        ] {
            let (query, year) = queries[i].clone();
            let body = gen_body(&query, year, Some(tenant));
            let key = key.to_string();
            let tenant = tenant.to_string();
            handles.push(std::thread::spawn(move || {
                let response = post_json_with_key(addr, "/v1/generate", &body, &key).unwrap();
                assert_eq!(response.status, 200, "{tenant}: {}", response.body);
                (tenant, Instant::now())
            }));
        }
    }
    // Unplug only once all eight are parked.
    wait_until("the eight requests never queued", || {
        server.request_depth() == 8
    });
    drop(hold);
    let completions: Vec<(String, Instant)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    plug.join().unwrap();

    let last = |tenant: &str| {
        completions
            .iter()
            .filter(|(name, _)| name == tenant)
            .map(|&(_, at)| at)
            .max()
            .unwrap()
    };
    assert!(
        last("alpha") < last("beta"),
        "after the live retune (alpha 6 vs beta 2), alpha's backlog must drain first"
    );
    // The retuned weight is what the stats report, too.
    let stats = parse(&client::get(addr, "/v1/stats").unwrap().body);
    let alpha_weight = stats
        .get("queue")
        .and_then(|q| q.get("tenants"))
        .and_then(|t| t.get("alpha"))
        .and_then(|a| a.get("weight"))
        .and_then(Value::as_f64);
    assert_eq!(alpha_weight, Some(6.0));
}

#[test]
fn batch_items_bill_their_own_tenants_with_partial_429s() {
    // Part 1 (no load): per-item routing and per-item failures under auth.
    let server = spawn_manifest_server(|_| {});
    let addr = server.addr();
    let (alpha_query, alpha_year) = tenant_query(&server, "alpha");
    let (beta_query, beta_year) = tenant_query(&server, "beta");
    let batch = format!(
        r#"{{"requests": [
            {{"query": {alpha_query:?}, "max_year": {alpha_year}, "top_k": 5, "corpus": "alpha"}},
            {{"query": {beta_query:?}, "max_year": {beta_year}, "top_k": 5, "corpus": "beta"}},
            {{"query": "x", "corpus": "ghost"}},
            {{"query": "x", "variant": "bogus"}}
        ]}}"#
    );
    // Admin: mixed-corpus batch runs each item against its own tenant.
    let response = post_json_with_key(addr, "/v1/batch", &batch, ADMIN_KEY).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let results = parse(&response.body);
    let results = results.get("results").and_then(Value::as_array).unwrap();
    assert_eq!(results.len(), 4);
    assert_eq!(
        results[0].get("corpus").and_then(Value::as_str),
        Some("alpha")
    );
    assert_eq!(
        results[1].get("corpus").and_then(Value::as_str),
        Some("beta")
    );
    assert_eq!(
        results[2].get("status").and_then(Value::as_f64),
        Some(404.0)
    );
    assert_eq!(
        results[3].get("status").and_then(Value::as_f64),
        Some(400.0)
    );
    // A tenant key: items naming other tenants fail per-item with 403, its
    // own items still run.
    let response = post_json_with_key(addr, "/v1/batch", &batch, ALPHA_KEY).unwrap();
    assert_eq!(response.status, 200);
    let results = parse(&response.body);
    let results = results.get("results").and_then(Value::as_array).unwrap();
    assert_eq!(
        results[0].get("corpus").and_then(Value::as_str),
        Some("alpha")
    );
    assert_eq!(
        results[1].get("status").and_then(Value::as_f64),
        Some(403.0)
    );

    // Part 2 (under load): a tenant at its queue bound loses exactly the
    // overflow items to per-item 429s — the batch itself still answers 200.
    let server = spawn_with(demo_registry_without_cache(), |config| {
        config.workers = 1;
        config.tenant_queue_capacity = 1;
        config.queue_capacity = 32;
    });
    let addr = server.addr();
    let queries = common::demo_queries(2);
    let hold = server.hold_replies();
    let (plug_query, _) = queries[0].clone();
    let plug = std::thread::spawn(move || {
        let response = client::post_json(addr, "/v1/generate", &plug_body(&plug_query, "default"));
        assert_eq!(response.unwrap().status, 200);
    });
    wait_worker_busy(&server, "default");
    // Four same-tenant items against a bound of 1, admitted in one loop
    // while the worker is provably busy: exactly one fits, three throttle.
    let (query, year) = queries[1].clone();
    let item = gen_body(&query, year, None);
    let burst = format!(r#"{{"requests": [{item}, {item}, {item}, {item}]}}"#);
    let batch = std::thread::spawn(move || client::post_json(addr, "/v1/batch", &burst).unwrap());
    // The batch answers once its queued item has run, so the plug ends
    // after the loop has queued that item and throttled the other three.
    wait_until("the batch was never admitted", || {
        server.request_depth() == 1 && server.stats().throttled == 3
    });
    // A single generate refused by the same full lane is a request-level
    // 429 that says when to come back.
    let (query, year) = queries[0].clone();
    let single = client::post_json(addr, "/v1/generate", &gen_body(&query, year, None)).unwrap();
    assert_eq!(single.status, 429, "{}", single.body);
    assert_eq!(single.header("retry-after"), Some("1"));
    assert_eq!(
        single.body,
        r#"{"error":"tenant \"default\" is at capacity, retry shortly"}"#
    );
    drop(hold);
    let response = batch.join().unwrap();
    assert_eq!(
        response.status, 200,
        "partial throttling keeps the batch a 200"
    );
    let results = parse(&response.body);
    let results = results.get("results").and_then(Value::as_array).unwrap();
    let throttled: Vec<&Value> = results
        .iter()
        .filter(|r| r.get("status").and_then(Value::as_f64) == Some(429.0))
        .collect();
    let served = results
        .iter()
        .filter(|r| r.get("corpus").and_then(Value::as_str) == Some("default"))
        .count();
    assert_eq!(
        throttled.len(),
        3,
        "bound 1 admits exactly one of four items"
    );
    assert_eq!(served, 1);
    assert!(
        throttled[0]
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("capacity"),
        "throttled items say why"
    );
    let throttled_item =
        r#"{"error":"tenant \"default\" is at capacity, retry after 1s","status":429}"#;
    assert_eq!(
        response.body.matches(throttled_item).count(),
        3,
        "{}",
        response.body
    );
    plug.join().unwrap();
    let stats = server.stats();
    assert_eq!(
        stats.throttled, 4,
        "per-item 429s are counted per item, beside the single request's"
    );
}

#[test]
fn mid_compute_hangup_cancels_queued_work() {
    // PR 4 follow-up: a connection in `ComputeInFlight` stays in the poll
    // set watching for POLLHUP/POLLERR. A client that aborts mid-compute
    // (RST — here provoked by closing with the server's unread interim
    // `100 Continue` in its receive buffer) must have its queued work
    // cancelled before it runs, and the reply dropped without a write.
    let server = spawn_with(demo_registry_without_cache(), |config| {
        config.workers = 1;
    });
    let addr = server.addr();
    let queries = common::demo_queries(2);

    // Plug the single worker.
    let hold = server.hold_replies();
    let (plug_query, _) = queries[0].clone();
    let plug = std::thread::spawn(move || {
        let response = client::post_json(addr, "/v1/generate", &plug_body(&plug_query, "default"));
        assert_eq!(response.unwrap().status, 200);
    });
    wait_worker_busy(&server, "default");

    // A raw client sends a full request (asking for `100 Continue`), waits
    // until it is queued behind the plug, then vanishes.
    let (query, year) = queries[1].clone();
    let body = gen_body(&query, year, None);
    let mut stream = TcpStream::connect(addr).unwrap();
    let head = format!(
        "POST /v1/generate HTTP/1.1\r\nhost: t\r\nexpect: 100-continue\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.flush().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.request_depth() == 0 {
        assert!(Instant::now() < deadline, "request never queued");
        std::thread::yield_now();
    }
    // The loop queues the request a moment before it writes the interim
    // response; wait until the `100 Continue` is in the receive buffer, or
    // the close below could be a graceful FIN instead of a reset.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .peek(&mut [0u8; 1])
        .expect("the interim 100 Continue arrives");
    // Close without reading: the unread `100 Continue` turns the close
    // into an RST, which is what POLLHUP/POLLERR watching detects.
    drop(stream);
    // The loop flags the queued job when it sees the reset; the plug ends
    // only then.
    wait_until("the reset never cancelled the queued job", || {
        server.cancelled_depth() == 1
    });
    drop(hold);

    // The plug finishes; the abandoned job is skipped (not computed) and
    // its connection slot drains away.
    plug.join().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.open_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "abandoned connection never closed: {} open",
            server.open_connections()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.stats();
    assert_eq!(
        stats.pipeline_runs, 1,
        "only the plug ran the pipeline — the abandoned request was cancelled before compute"
    );
    assert_eq!(stats.server_errors, 0, "no doomed write, no 5xx");
    // The server is unharmed.
    assert_eq!(client::get(addr, "/v1/healthz").unwrap().status, 200);
}

#[test]
fn mid_compute_half_close_still_gets_its_reply() {
    // The other half of the hangup fix: a client that writes a complete
    // request and then `shutdown(SHUT_WR)`s is half-closing gracefully —
    // it is still reading. POLLRDHUP fires for that FIN exactly like for
    // an abort, so the server must probe the socket before deciding:
    // end-of-stream with the request already consumed means the reply is
    // still owed, not that the work should be cancelled.
    let server = spawn_with(demo_registry_without_cache(), |config| {
        config.workers = 1;
    });
    let addr = server.addr();
    let queries = common::demo_queries(2);

    // Plug the single worker so the half-closing request is provably in
    // `ComputeInFlight` when its FIN arrives.
    let hold = server.hold_replies();
    let (plug_query, _) = queries[0].clone();
    let plug = std::thread::spawn(move || {
        let response = client::post_json(addr, "/v1/generate", &plug_body(&plug_query, "default"));
        assert_eq!(response.unwrap().status, 200);
    });
    wait_worker_busy(&server, "default");

    let (query, year) = queries[1].clone();
    let body = gen_body(&query, year, None);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(
            format!(
                "POST /v1/generate HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.request_depth() == 0 {
        assert!(Instant::now() < deadline, "request never queued");
        std::thread::yield_now();
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    // Give the event loop time to see the FIN while the worker is still
    // plugged — the regression this guards against flipped the cancel flag
    // right here and the reply never came.
    std::thread::sleep(Duration::from_millis(50));
    drop(hold);
    let response = client::read_response(&mut stream, &mut Vec::new()).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    plug.join().unwrap();

    let stats = server.stats();
    assert_eq!(stats.pipeline_runs, 2, "both requests computed");
    let tenants = parse(&client::get(addr, "/v1/stats").unwrap().body);
    let row = tenants
        .get("tenants")
        .and_then(|t| t.get("default"))
        .expect("default tenant metrics row");
    assert_eq!(row.get("cancelled").and_then(Value::as_f64), Some(0.0));
    assert_eq!(row.get("shed").and_then(Value::as_f64), Some(0.0));
}

#[test]
fn expired_deadlines_shed_queued_work_with_a_503() {
    let server = spawn_with(demo_registry_without_cache(), |config| {
        config.workers = 1;
    });
    let addr = server.addr();
    let queries = common::demo_queries(2);
    let hold = server.hold_replies();
    let (plug_query, _) = queries[0].clone();
    let plug = std::thread::spawn(move || {
        let response = client::post_json(addr, "/v1/generate", &plug_body(&plug_query, "default"));
        assert_eq!(response.unwrap().status, 200);
    });
    wait_worker_busy(&server, "default");

    // A 1 ms budget behind a plug held past it: by the time the worker
    // reaches this request its deadline is blown, so the worker sheds it —
    // 503 plus retry-after — instead of computing a result the client has
    // already given up on.
    let (query, year) = queries[1].clone();
    let item = gen_body(&query, year, None);
    let shed = std::thread::spawn(move || {
        client::request_with(
            addr,
            "POST",
            "/v1/generate",
            Some(&item),
            &[("x-rpg-deadline-ms", "1")],
        )
        .unwrap()
    });
    wait_until("the 1 ms request never queued", || {
        server.request_depth() == 1
    });
    // A two-item batch under the same 1 ms budget queues behind it: each
    // item is shed on its own, inside a batch that still answers 200.
    let item = gen_body(&query, year, None);
    let batch = std::thread::spawn(move || {
        client::request_with(
            addr,
            "POST",
            "/v1/batch",
            Some(&format!(r#"{{"requests": [{item}, {item}]}}"#)),
            &[("x-rpg-deadline-ms", "1")],
        )
        .unwrap()
    });
    wait_until("the 1 ms batch never queued", || {
        server.request_depth() == 3
    });
    // Their budgets run out while the plug is still held.
    std::thread::sleep(Duration::from_millis(5));
    drop(hold);
    let response = shed.join().unwrap();
    assert_eq!(response.status, 503, "{}", response.body);
    assert_eq!(
        response.body,
        r#"{"error":"deadline exceeded before compute, retry shortly"}"#
    );
    assert_eq!(
        response.header("retry-after"),
        Some("1"),
        "sheds tell the client when to come back"
    );
    let response = batch.join().unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let shed_item = r#"{"error":"deadline exceeded before compute, retry shortly","status":503}"#;
    assert_eq!(
        response.body,
        format!(r#"{{"results":[{shed_item},{shed_item}]}}"#)
    );
    plug.join().unwrap();

    let stats = server.stats();
    assert_eq!(
        stats.pipeline_runs, 1,
        "the shed requests never reached the pipeline"
    );
    // The tenant metrics expose the three sheds and the plug's recorded
    // latency, its only sample: a shed records none (the plug's sample
    // lands just before its reply is queued; the poll tolerates either).
    let deadline = Instant::now() + Duration::from_secs(5);
    let row = loop {
        let tenants = parse(&client::get(addr, "/v1/stats").unwrap().body);
        let row = tenants
            .get("tenants")
            .and_then(|t| t.get("default"))
            .cloned()
            .expect("default tenant metrics row");
        let count = row
            .get("latency")
            .and_then(|l| l.get("count"))
            .and_then(Value::as_f64);
        if count.is_some_and(|count| count >= 1.0) {
            break row;
        }
        assert!(Instant::now() < deadline, "latency sample never recorded");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(row.get("shed").and_then(Value::as_f64), Some(3.0));
    assert_eq!(row.get("cancelled").and_then(Value::as_f64), Some(0.0));
    let latency = row.get("latency").expect("latency object");
    assert_eq!(latency.get("count").and_then(Value::as_f64), Some(1.0));
    for quantile in ["p50", "p99", "p999"] {
        let value = latency
            .get(quantile)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{quantile} missing: {latency:?}"));
        assert!(value > 0.0, "{quantile} = {value}");
    }
}

#[test]
fn tenant_patch_retunes_inflight_and_deadline_live() {
    let server = spawn_manifest_server(|config| {
        config.workers = 2;
    });
    let addr = server.addr();

    let response = request_with_key(
        addr,
        "PATCH",
        "/v1/admin/tenants/alpha",
        Some(r#"{"inflight": 1, "deadline_ms": 750}"#),
        Some(ADMIN_KEY),
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let body = parse(&response.body);
    assert_eq!(body.get("inflight").and_then(Value::as_f64), Some(1.0));
    assert_eq!(body.get("deadline_ms").and_then(Value::as_f64), Some(750.0));

    // One served request creates alpha's lane; the queue stats then
    // reflect the new cap (and an idle lane).
    let (query, year) = tenant_query(&server, "alpha");
    let served = post_json_with_key(
        addr,
        "/v1/generate",
        &gen_body(&query, year, Some("alpha")),
        ALPHA_KEY,
    )
    .unwrap();
    assert_eq!(served.status, 200, "{}", served.body);
    // The worker releases its in-flight charge just after queueing the
    // reply, so the idle-lane view can trail the response by a beat.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = parse(&get_with_key(addr, "/v1/stats", ADMIN_KEY).unwrap().body);
        let alpha = stats
            .get("queue")
            .and_then(|q| q.get("tenants"))
            .and_then(|t| t.get("alpha"))
            .expect("alpha queue row")
            .clone();
        assert_eq!(alpha.get("inflight").and_then(Value::as_f64), Some(1.0));
        if alpha.get("in_flight").and_then(Value::as_f64) == Some(0.0) {
            break;
        }
        assert!(Instant::now() < deadline, "in-flight charge never released");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Zero caps and empty patches are rejected wholesale.
    for bad in [r#"{"inflight": 0}"#, r#"{"deadline_ms": 0}"#, r#"{}"#] {
        let response = request_with_key(
            addr,
            "PATCH",
            "/v1/admin/tenants/alpha",
            Some(bad),
            Some(ADMIN_KEY),
        )
        .unwrap();
        assert_eq!(response.status, 400, "{bad}: {}", response.body);
    }
}

#[test]
fn reload_applies_the_manifest_live_and_atomically() {
    // A server whose manifest lives in a file: reload is a no-op until the
    // file changes, then applies exactly the diff — created tenants start
    // serving with their keys, removed tenants 404 and their keys die.
    let path = std::env::temp_dir().join(format!(
        "rpg-control-plane-manifest-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, demo_manifest_json()).unwrap();
    let manifest = Manifest::from_json(&demo_manifest_json()).unwrap();
    let registry = Arc::new(CorpusRegistry::new());
    registry.apply_manifest(&manifest).unwrap();
    let manifest_path = path.to_string_lossy().into_owned();
    let server = spawn_with(registry, move |config| {
        *config = config.clone().with_manifest(&manifest);
        config.auth_enabled = true;
        config.manifest_path = Some(manifest_path);
    });
    let addr = server.addr();

    // Unchanged file → no-op diff.
    let noop = request_with_key(addr, "POST", "/v1/admin/reload", None, Some(ADMIN_KEY)).unwrap();
    assert_eq!(noop.status, 200, "{}", noop.body);
    let diff = parse(&noop.body);
    assert_eq!(diff.get("created").and_then(Value::as_array), Some(&[][..]));
    assert_eq!(diff.get("removed").and_then(Value::as_array), Some(&[][..]));
    assert_eq!(
        diff.get("unchanged")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(2)
    );

    // Rewrite: alpha reseeded, beta gone, gamma new.
    let [admin, alpha, gamma] = [ADMIN_KEY, ALPHA_KEY, "gamma-key"].map(hashed_key);
    std::fs::write(
        &path,
        format!(
            r#"{{
            "admin_key_hashes": [{admin:?}],
            "tenants": {{
                "alpha": {{
                    "corpus": {{"seed": 9161, "scale": "small"}},
                    "key_hashes": [{alpha:?}]
                }},
                "gamma": {{
                    "corpus": {{"seed": 193, "scale": "small"}},
                    "key_hashes": [{gamma:?}]
                }}
            }}
        }}"#
        ),
    )
    .unwrap();
    let reloaded =
        request_with_key(addr, "POST", "/v1/admin/reload", None, Some(ADMIN_KEY)).unwrap();
    assert_eq!(reloaded.status, 200, "{}", reloaded.body);
    let diff = parse(&reloaded.body);
    let names = |key: &str| -> Vec<String> {
        diff.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(Value::as_str)
            .map(str::to_string)
            .collect()
    };
    assert_eq!(names("created"), ["gamma"]);
    assert_eq!(names("replaced"), ["alpha"]);
    assert_eq!(names("removed"), ["beta"]);

    // The new tenant serves with its manifest key; the removed one is gone
    // and its key is dead.
    let (query, year) = tenant_query(&server, "gamma");
    assert_eq!(
        post_json_with_key(
            addr,
            "/v1/generate",
            &gen_body(&query, year, Some("gamma")),
            "gamma-key"
        )
        .unwrap()
        .status,
        200
    );
    assert_eq!(
        post_json_with_key(
            addr,
            "/v1/generate",
            &gen_body(&query, year, Some("beta")),
            ADMIN_KEY
        )
        .unwrap()
        .status,
        404
    );
    assert_eq!(
        post_json_with_key(
            addr,
            "/v1/generate",
            &gen_body(&query, year, Some("beta")),
            BETA_KEY
        )
        .unwrap()
        .status,
        401,
        "a removed tenant's key no longer authenticates"
    );

    // A broken manifest file fails the reload and changes nothing. So does
    // one that still names plaintext keys, or a malformed key hash: it is
    // refused by name rather than loaded with those keys gone.
    let malformed = format!(
        r#"{{"admin_key_hashes": [{admin:?}], "tenants": {{"gamma": {{
            "corpus": {{"seed": 193, "scale": "small"}}, "key_hashes": ["0a:a0"]}}}}}}"#
    );
    for (broken, names) in [
        ("{ not json", None),
        (malformed.as_str(), Some("key_hashes")),
        (
            r#"{"admin_keys": ["root-key"], "tenants": {}}"#,
            Some("admin_key_hashes"),
        ),
        (
            r#"{"tenants": {"gamma": {"corpus": {"seed": 193, "scale": "small"},
                "api_keys": ["gamma-key"]}}}"#,
            Some("key_hashes"),
        ),
    ] {
        std::fs::write(&path, broken).unwrap();
        let reload =
            request_with_key(addr, "POST", "/v1/admin/reload", None, Some(ADMIN_KEY)).unwrap();
        assert_eq!(reload.status, 400, "{broken}");
        if let Some(hashed) = names {
            let message = parse(&reload.body);
            let message = message.get("error").and_then(Value::as_str).unwrap();
            assert!(
                message.contains(&format!("\"{hashed}\"")) && message.contains("rpg hash-key"),
                "{message}"
            );
        }
        assert_eq!(
            post_json_with_key(
                addr,
                "/v1/generate",
                &gen_body(&query, year, Some("gamma")),
                "gamma-key"
            )
            .unwrap()
            .status,
            200,
            "a failed reload leaves the tenant set serving: {broken}"
        );
        assert_eq!(
            post_json_with_key(addr, "/v1/corpora/gamma/refresh", "", ADMIN_KEY)
                .unwrap()
                .status,
            200,
            "a failed reload leaves the admin key in place: {broken}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn reload_without_a_manifest_is_a_409() {
    // An auth-off server spawned without a manifest path has nothing to
    // reload; the endpoint says so instead of guessing.
    let server = spawn_with(common::demo_registry(), |config| {
        config.workers = 1;
    });
    let response = client::request(server.addr(), "POST", "/v1/admin/reload", None).unwrap();
    assert_eq!(response.status, 409);
}

#[test]
fn cache_hits_are_answered_past_a_full_queue_while_misses_get_429() {
    let registry = demo_registry();
    let server = spawn_with(registry.clone(), |config| {
        config.workers = 1;
        config.tenant_queue_capacity = 1;
    });
    let addr = server.addr();
    let queries = common::demo_queries(4);
    let body = |index: usize| {
        let (query, year) = &queries[index];
        gen_body(query, *year, None)
    };

    // Warm one key in-process through the registry the server shares.
    let warm = body(1);
    let dto: GenerateRequest = serde_json::from_str(&warm).unwrap();
    let resolved = ResolvedRequest::resolve(&dto).unwrap();
    registry
        .generate("default", &resolved.as_path_request())
        .unwrap();

    // The three requests that follow the plug ride connections opened up
    // front and are written back to back, without waiting on each other's
    // responses.
    let send = |stream: &mut TcpStream, body: &str| {
        let request = format!(
            "POST /v1/generate HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
    };
    let [mut fill, mut hit, mut miss, mut refresh] =
        [(); 4].map(|()| TcpStream::connect(addr).unwrap());

    // Plug the worker, then fill the tenant's one queue slot.
    let hold = server.hold_replies();
    let (plug_query, _) = queries[0].clone();
    let plug = std::thread::spawn(move || {
        let response = client::post_json(addr, "/v1/generate", &plug_body(&plug_query, "default"));
        assert_eq!(response.unwrap().status, 200);
    });
    wait_worker_busy(&server, "default");
    send(&mut fill, &body(2));
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.request_depth() == 0 {
        assert!(Instant::now() < deadline, "the filler never queued");
        std::thread::yield_now();
    }

    // A hit does no compute, so the full queue does not apply to it,
    // while a request that needs compute is throttled.
    send(&mut hit, &warm);
    send(&mut miss, &body(3));
    let hit = client::read_response(&mut hit, &mut Vec::new()).unwrap();
    let miss = client::read_response(&mut miss, &mut Vec::new()).unwrap();
    assert_eq!(hit.status, 200, "{}", hit.body);
    assert_eq!(
        parse(&hit.body).get("cached").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(miss.status, 429, "{}", miss.body);

    // A refresh costs no compute either: with the worker still plugged and
    // the lane still full, it starts a new epoch and sweeps the cache
    // instead of queueing behind the filler.
    refresh
        .write_all(
            b"POST /v1/corpora/default/refresh HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n",
        )
        .unwrap();
    let refreshed = client::read_response(&mut refresh, &mut Vec::new()).unwrap();
    assert_eq!(refreshed.status, 200, "{}", refreshed.body);
    assert_eq!(
        parse(&refreshed.body).get("epoch").and_then(Value::as_f64),
        Some(1.0)
    );
    assert_eq!(registry.cached_entries_for("default"), 0);

    drop(hold);
    let fill = client::read_response(&mut fill, &mut Vec::new()).unwrap();
    assert_eq!(fill.status, 200, "{}", fill.body);
    plug.join().unwrap();
    let stats = server.stats();
    assert_eq!(stats.throttled, 1);
    assert_eq!(stats.pipeline_runs, 2, "only the plug and the filler ran");
}

#[test]
fn put_rejects_what_the_manifest_rejects() {
    // The per-tenant rows of the manifest validator's rejection table, as
    // PUT bodies: one validation serves both paths.
    let rows = [
        (r#"{}"#, "missing corpus spec"),
        (
            r#"{"corpus": {"seed": 1, "scale": "huge"}}"#,
            "unknown scale",
        ),
        (
            r#"{"corpus": {"seed": 1, "papers_per_topic": 0}}"#,
            "zero papers per topic",
        ),
        (r#"{"corpus": {"seed": 1}, "weight": 0}"#, "zero weight"),
        (r#"{"corpus": {"seed": 1}, "queue": 0}"#, "zero queue bound"),
        (
            r#"{"corpus": {"seed": 1}, "inflight": 0}"#,
            "zero inflight cap",
        ),
        (
            r#"{"corpus": {"seed": 1}, "deadline_ms": 0}"#,
            "zero deadline",
        ),
        (
            r#"{"corpus": {"seed": 1}, "cache_share": 0}"#,
            "zero cache share",
        ),
        (
            r#"{"corpus": {"seed": 1}, "variant": "bogus"}"#,
            "unknown variant",
        ),
        (
            r#"{"corpus": {"seed": 1}, "api_keys": ["k"]}"#,
            "plaintext api keys",
        ),
        (
            r#"{"corpus": {"seed": 1}, "key_hashes": [""]}"#,
            "empty key hash",
        ),
        (
            r#"{"corpus": {"seed": 1}, "key_hashes": ["0a:a0"]}"#,
            "malformed key hash",
        ),
    ];
    for (body, what) in rows {
        let manifest = format!(r#"{{"tenants": {{"x": {body}}}}}"#);
        assert!(Manifest::from_json(&manifest).is_err(), "manifest: {what}");
    }
    let manifest = Manifest::from_json(&small_manifest(None)).unwrap();
    for auth in [true, false] {
        let registry = Arc::new(CorpusRegistry::new());
        registry.apply_manifest(&manifest).unwrap();
        let server = spawn_with(registry, |config| {
            config.auth_enabled = auth;
            *config = config.clone().with_manifest(&manifest);
        });
        let key = auth.then_some(ADMIN_KEY);
        for (body, what) in rows {
            let put =
                request_with_key(server.addr(), "PUT", "/v1/corpora/x", Some(body), key).unwrap();
            assert_eq!(put.status, 400, "{what} (key {key:?}): {}", put.body);
            assert!(!server.registry().contains("x"), "{what} built a tenant");
        }
    }
}

/// A light manifest: the hashed admin key and one weight-1 tenant,
/// `alpha`, on a cut-down corpus, plus tenant `t` when its entry is given.
fn small_manifest(t: Option<&str>) -> String {
    let t = t.map_or(String::new(), |entry| format!(r#", "t": {entry}"#));
    let admin = hashed_key(ADMIN_KEY);
    format!(
        r#"{{"admin_key_hashes": [{admin:?}], "tenants": {{
            "alpha": {{"corpus": {{"seed": 161, "scale": "small", "papers_per_topic": 20}}}}{t}
        }}}}"#
    )
}

/// Spawns an authenticated server over `manifest`, written to a file that
/// `POST /v1/admin/reload` re-reads; returns the server and the file.
fn spawn_reloadable(
    manifest: &str,
    name: &str,
    configure: impl FnOnce(&mut rpg_server::ServerConfig),
) -> (TestServer, std::path::PathBuf) {
    let path = std::env::temp_dir().join(format!(
        "rpg-control-plane-{name}-{}-{:?}.json",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, manifest).unwrap();
    let manifest = Manifest::from_json(manifest).unwrap();
    let registry = Arc::new(CorpusRegistry::new());
    registry.apply_manifest(&manifest).unwrap();
    let manifest_path = path.to_string_lossy().into_owned();
    let server = spawn_with(registry, move |config| {
        config.auth_enabled = true;
        config.manifest_path = Some(manifest_path);
        configure(config);
        *config = config.clone().with_manifest(&manifest);
    });
    (server, path)
}

/// A tenant's tuning read back through the `PATCH` response (re-sending
/// `weight`, which leaves the tuning as it is), checked against its
/// `/v1/corpora` row: weight, queue, inflight, deadline_ms, trace_slow_ms.
fn read_tuning(addr: std::net::SocketAddr, tenant: &str, weight: u64) -> [Option<f64>; 5] {
    let patch = request_with_key(
        addr,
        "PATCH",
        &format!("/v1/admin/tenants/{tenant}"),
        Some(&format!(r#"{{"weight": {weight}}}"#)),
        Some(ADMIN_KEY),
    )
    .unwrap();
    assert_eq!(patch.status, 200, "{}", patch.body);
    let patch = parse(&patch.body);
    let tuning = [
        "weight",
        "queue",
        "inflight",
        "deadline_ms",
        "trace_slow_ms",
    ]
    .map(|field| patch.get(field).and_then(Value::as_f64));
    let listing = parse(&get_with_key(addr, "/v1/corpora", ADMIN_KEY).unwrap().body);
    let row = listing
        .get("corpora")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .find(|row| row.get("name").and_then(Value::as_str) == Some(tenant))
        .expect("the tenant is listed")
        .clone();
    let listed = ["weight", "queue"].map(|field| row.get(field).and_then(Value::as_f64));
    assert_eq!(listed, [tuning[0], tuning[1]], "/v1/corpora vs PATCH");
    tuning
}

#[test]
fn every_path_that_sets_tuning_agrees() {
    const WORKERS: usize = 8;
    const QUEUE: usize = 6;
    let spec = r#""corpus": {"seed": 193, "scale": "small", "papers_per_topic": 20}"#;
    let fields =
        r#""weight": 3, "queue": 5, "inflight": 2, "deadline_ms": 700, "trace_slow_ms": 40"#;
    let tuned = format!("{{{spec}, {fields}}}");
    let untuned = format!("{{{spec}}}");
    let configure = |config: &mut rpg_server::ServerConfig| {
        config.workers = WORKERS;
        config.tenant_queue_capacity = QUEUE;
    };
    let admin = |addr, method, path: &str, body: Option<&str>| {
        let response = request_with_key(addr, method, path, body, Some(ADMIN_KEY)).unwrap();
        assert_eq!(response.status, 200, "{method} {path}: {}", response.body);
    };

    let expected = [Some(3.0), Some(5.0), Some(2.0), Some(700.0), Some(40.0)];

    // Each way boots with `t` tuned, untuned or absent, then takes its step.
    for (how, boot) in [
        ("manifest boot", Some(&tuned)),
        ("PUT", None),
        ("PATCH", Some(&untuned)),
        ("reload", None),
    ] {
        let boot = small_manifest(boot.map(String::as_str));
        let (server, path) = spawn_reloadable(&boot, "tuning", configure);
        let addr = server.addr();
        match how {
            "PUT" => admin(addr, "PUT", "/v1/corpora/t", Some(&tuned)),
            "PATCH" => {
                let patch = format!("{{{fields}}}");
                admin(addr, "PATCH", "/v1/admin/tenants/t", Some(&patch));
            }
            "reload" => {
                std::fs::write(&path, small_manifest(Some(&tuned))).unwrap();
                admin(addr, "POST", "/v1/admin/reload", None);
            }
            _ => {}
        }
        assert_eq!(read_tuning(addr, "t", 3), expected, "tuning set by {how}");
        let _ = std::fs::remove_file(&path);
    }

    // A reload that drops the tenant drops its tuning with it: PUT back
    // without tuning fields, it reads the defaults, with an in-flight cap
    // of its weighted share of the pool beside alpha's weight 1.
    let (server, path) = spawn_reloadable(&small_manifest(Some(&tuned)), "tuning", configure);
    let addr = server.addr();
    std::fs::write(&path, small_manifest(None)).unwrap();
    admin(addr, "POST", "/v1/admin/reload", None);
    admin(addr, "PUT", "/v1/corpora/t", Some(&untuned));
    let derived = (WORKERS / (1 + 1)) as f64;
    let defaults = [Some(1.0), Some(QUEUE as f64), Some(derived), None, None];
    assert_eq!(
        read_tuning(addr, "t", 1),
        defaults,
        "defaults after a drop and a bare PUT"
    );
    let _ = std::fs::remove_file(&path);

    // So does a DELETE.
    let (server, path) = spawn_reloadable(&small_manifest(Some(&tuned)), "tuning", configure);
    let addr = server.addr();
    admin(addr, "DELETE", "/v1/corpora/t", None);
    admin(addr, "PUT", "/v1/corpora/t", Some(&untuned));
    assert_eq!(
        read_tuning(addr, "t", 1),
        defaults,
        "defaults after a DELETE and a bare PUT"
    );
    let _ = std::fs::remove_file(&path);

    // A config that names `t` in some per-tenant columns only (auth off,
    // no manifest folded in) leaves the other fields at their defaults.
    let registry = Arc::new(CorpusRegistry::new());
    let manifest = Manifest::from_json(&small_manifest(Some(&untuned))).unwrap();
    registry.apply_manifest(&manifest).unwrap();
    let server = spawn_with(registry, |config| {
        configure(config);
        config.tenant_bounds = vec![("t".to_string(), 4)];
        config.tenant_trace_slow = vec![("t".to_string(), 25)];
    });
    assert_eq!(
        read_tuning(server.addr(), "t", 1),
        [Some(1.0), Some(4.0), None, None, Some(25.0)],
        "tuning set by two config columns"
    );
}

/// What a tenant key may do with auth on, checked over the wire: generate
/// against its own corpus (`200`) but not reload the manifest (`403`),
/// while the same generate without a key is a `401`.
fn assert_key_serves(server: &TestServer, key: &str, how: &str) {
    let addr = server.addr();
    let (query, year) = tenant_query(server, "t");
    let body = gen_body(&query, year, None);
    let keyed = post_json_with_key(addr, "/v1/generate", &body, key).unwrap();
    assert_eq!(keyed.status, 200, "{how}: {}", keyed.body);
    let anonymous = request_with_key(addr, "POST", "/v1/generate", Some(&body), None).unwrap();
    assert_eq!(anonymous.status, 401, "{how}: no key");
    let reload = request_with_key(addr, "POST", "/v1/admin/reload", None, Some(key)).unwrap();
    assert_eq!(reload.status, 403, "{how}: tenant key on reload");
}

/// A generate with `key` is a `401`: the key authenticates as no one.
fn assert_key_revoked(server: &TestServer, key: &str, how: &str) {
    let body = gen_body("graph neural networks", 2020, None);
    let response = post_json_with_key(server.addr(), "/v1/generate", &body, key).unwrap();
    assert_eq!(response.status, 401, "{how}: {}", response.body);
}

#[test]
fn every_path_that_grants_keys_agrees() {
    let spec = r#""corpus": {"seed": 193, "scale": "small", "papers_per_topic": 20}"#;
    let entry = |key: &str| format!(r#"{{{spec}, "key_hashes": [{:?}]}}"#, hashed_key(key));
    let admin = |addr, method, path: &str, body: Option<&str>| {
        let response = request_with_key(addr, method, path, body, Some(ADMIN_KEY)).unwrap();
        assert_eq!(response.status, 200, "{method} {path}: {}", response.body);
    };

    // Each way boots with `t` holding `t-key`, `t-old` or absent, then
    // takes its step; `t-key` then serves `t`.
    for (how, boot) in [
        ("manifest boot", Some(entry("t-key"))),
        ("PUT", None),
        ("PUT replace", Some(entry("t-old"))),
        ("reload", None),
    ] {
        let boot = small_manifest(boot.as_deref());
        let (server, path) = spawn_reloadable(&boot, "keys", |_| {});
        let addr = server.addr();
        match how {
            "PUT" | "PUT replace" => admin(addr, "PUT", "/v1/corpora/t", Some(&entry("t-key"))),
            "reload" => {
                std::fs::write(&path, small_manifest(Some(&entry("t-key")))).unwrap();
                admin(addr, "POST", "/v1/admin/reload", None);
            }
            _ => {}
        }
        assert_key_serves(&server, "t-key", how);
        if how == "PUT replace" {
            assert_key_revoked(&server, "t-old", how);
        }
        let _ = std::fs::remove_file(&path);
    }

    let (server, path) = spawn_reloadable(&small_manifest(Some(&entry("t-key"))), "keys", |_| {});
    let addr = server.addr();
    // A PUT naming a hash the admin set or another tenant already holds
    // is a 400, and builds nothing.
    for held in [hashed_key(ADMIN_KEY), hashed_key("t-key")] {
        let body = format!(r#"{{{spec}, "key_hashes": [{held:?}]}}"#);
        let put =
            request_with_key(addr, "PUT", "/v1/corpora/u", Some(&body), Some(ADMIN_KEY)).unwrap();
        assert_eq!(put.status, 400, "{held}: {}", put.body);
        assert!(!server.registry().contains("u"), "{held} built a tenant");
    }
    assert_key_serves(&server, "t-key", "rejected PUTs");
    // A DELETE revokes the tenant's key.
    admin(addr, "DELETE", "/v1/corpora/t", None);
    assert_key_revoked(&server, "t-key", "DELETE");
    let _ = std::fs::remove_file(&path);
}
