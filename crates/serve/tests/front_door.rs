//! End-to-end exercises of the HTTP/1.1 front door with raw TCP
//! clients: round-trips must be byte-identical to in-process compiles,
//! concurrent skewed traffic must keep the service counters exact, and
//! overload must shed with typed, parseable rejections.

#[path = "support/client.rs"]
mod client;

use client::{Client, Response};
use htvm::{Compiler, DeployConfig, DispatchHook};
use htvm_ir::{DType, Graph, GraphBuilder, Tensor};
use htvm_serve::http::wire::{WireBatch, WireBatchResult, WireJob, WireResult};
use htvm_serve::http::{HttpConfig, HttpServer};
use htvm_serve::{estimate_cost, CompileService, SchedPolicy, ServeConfig, ServiceStats};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn conv_graph(channels: usize) -> Graph {
    let mut b = GraphBuilder::new();
    let x = b.input("x", &[channels, 8, 8], DType::I8);
    let w = b.constant("w", Tensor::zeros(DType::I8, &[channels, channels, 3, 3]));
    let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
    let y = b.requantize(c, 7, true).unwrap();
    b.finish(&[y]).unwrap()
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        cache_budget_bytes: 16 << 20,
        tracer: htvm::Tracer::disabled(),
        ..ServeConfig::default()
    }
}

fn spawn_server(serve: ServeConfig, http: HttpConfig) -> (Arc<CompileService>, HttpServer) {
    let service = Arc::new(CompileService::new(serve));
    let server =
        HttpServer::spawn(Arc::clone(&service), "127.0.0.1:0", http).expect("ephemeral port binds");
    (service, server)
}

/// The HTF model-file bytes of `graph`.
fn htf(graph: &Graph) -> Vec<u8> {
    htvm_frontend::emit(graph).expect("graph emits")
}

/// A `/v1/compile` job carrying `model` (HTF bytes, well-formed or not)
/// as `model_hex`.
fn wire_job(name: &str, model: &[u8], include_artifact: bool) -> WireJob {
    WireJob {
        name: name.to_owned(),
        tenant: None,
        model_hex: htvm_serve::http::wire::encode_hex(model),
        deploy: DeployConfig::Both,
        include_artifact,
    }
}

impl Client {
    fn request(&mut self, method: &str, path: &str, body: Option<&str>) -> Response {
        self.request_bytes(method, path, body.unwrap_or("").as_bytes())
    }
}

/// One-shot convenience: fresh connection, one exchange.
fn once(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Response {
    Client::connect(addr).request(method, path, body)
}

fn service_stats(addr: SocketAddr) -> ServiceStats {
    let response = once(addr, "GET", "/v1/stats", None);
    assert_eq!(response.status, 200);
    serde_json::from_str(&response.body).expect("stats parse as ServiceStats")
}

#[test]
fn http_compile_round_trip_is_byte_identical_to_in_process() {
    let (_service, server) = spawn_server(serve_config(), HttpConfig::default());
    let addr = server.addr();

    // Health and an empty stats snapshot, on one keep-alive connection.
    let mut client = Client::connect(addr);
    let health = client.request("GET", "/v1/healthz", None);
    assert_eq!(health.status, 200);
    assert_eq!(
        serde_json::from_str::<serde_json::Value>(&health.body).unwrap()["ok"],
        true
    );
    let stats = client.request("GET", "/v1/stats", None);
    assert_eq!(stats.status, 200, "keep-alive serves a second request");

    // Compile over the wire, artifact included.
    let graph = conv_graph(8);
    let model = htf(&graph);
    let body = serde_json::to_string(&wire_job("wire", &model, true)).unwrap();
    let response = client.request("POST", "/v1/compile", Some(&body));
    assert_eq!(response.status, 200);
    let result: WireResult = serde_json::from_str(&response.body).expect("WireResult parses");
    assert_eq!(result.job, "wire");
    assert!(!result.cache_hit);
    let wire_artifact = result.artifact.expect("include_artifact attaches it");

    // The same compile in-process, no service at all.
    let direct = Compiler::new()
        .with_deploy(DeployConfig::Both)
        .compile(&graph)
        .expect("conv graph compiles");
    assert_eq!(
        serde_json::to_string(&wire_artifact).unwrap(),
        serde_json::to_string(&direct).unwrap(),
        "the front door must not perturb compilation"
    );

    // A repeat omitting the artifact is a cache hit with no payload.
    let body = serde_json::to_string(&wire_job("wire-again", &model, false)).unwrap();
    let response = client.request("POST", "/v1/compile", Some(&body));
    assert_eq!(response.status, 200);
    let result: WireResult = serde_json::from_str(&response.body).unwrap();
    assert!(result.cache_hit);
    assert!(result.artifact.is_none(), "metadata-only by default");

    let stats = service_stats(addr);
    assert_eq!(stats.jobs, 2);
    assert_eq!(stats.artifact_cache.misses, 1);
    assert_eq!(stats.artifact_cache.hits, 1);
    server.shutdown();
}

#[test]
fn concurrent_clients_with_skewed_mix_keep_counters_exact() {
    let (_service, server) = spawn_server(serve_config(), HttpConfig::default());
    let addr = server.addr();

    // 6 clients × 4 requests, skewed: three quarters of the traffic
    // wants the same hot graph; two colder graphs make up the rest.
    let models = [
        htf(&conv_graph(4)),
        htf(&conv_graph(6)),
        htf(&conv_graph(10)),
    ];
    let n_clients = 6;
    let per_client = 4;
    std::thread::scope(|scope| {
        for t in 0..n_clients {
            let models = &models;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                for i in 0..per_client {
                    // Requests 0..2 hit the hot graph; request 3 takes
                    // a cold one, a different one per client parity.
                    let model = if i < 3 {
                        &models[0]
                    } else {
                        &models[1 + t % 2]
                    };
                    let body = serde_json::to_string(&wire_job(&format!("c{t}#{i}"), model, false))
                        .unwrap();
                    let response = client.request("POST", "/v1/compile", Some(&body));
                    assert_eq!(response.status, 200, "body: {}", response.body);
                    let result: WireResult = serde_json::from_str(&response.body).unwrap();
                    assert_eq!(result.job, format!("c{t}#{i}"));
                }
            });
        }
    });

    let stats = service_stats(addr);
    let jobs = (n_clients * per_client) as u64;
    assert_eq!(stats.jobs, jobs);
    assert_eq!(
        stats.artifact_cache.misses, 3,
        "exactly one cold compile per distinct graph, racing clients included"
    );
    assert_eq!(
        stats.artifact_cache.hits + stats.artifact_cache.misses + stats.coalesced,
        jobs,
        "every HTTP job lands in exactly one bucket"
    );
    assert_eq!(stats.shed, 0, "an unmetered front door sheds nothing");
    server.shutdown();
}

#[test]
fn batch_coalesces_and_saturation_sheds_typed_429s() {
    // Budget = exactly one cold compile of the first job: the rest of
    // the batch must shed deterministically at admission.
    let cold_costs: Vec<u64> = [12usize, 16, 20, 24]
        .iter()
        .map(|&c| estimate_cost(&conv_graph(c), false))
        .collect();
    let (_service, server) = spawn_server(
        ServeConfig {
            workers: 1,
            queue_cost_budget: cold_costs[0],
            policy: SchedPolicy::CostAware,
            ..serve_config()
        },
        HttpConfig::default(),
    );
    let addr = server.addr();

    let batch = WireBatch {
        jobs: [12usize, 16, 20, 24]
            .iter()
            .map(|&c| wire_job(&format!("cold{c}"), &htf(&conv_graph(c)), false))
            .collect(),
    };
    let body = serde_json::to_string(&batch).unwrap();
    let response = once(addr, "POST", "/v1/batch", Some(&body));
    assert_eq!(response.status, 200, "batch responses are per-entry typed");
    let parsed: WireBatchResult = serde_json::from_str(&response.body).unwrap();
    assert_eq!(parsed.results.len(), 4);

    let first = parsed.results[0]
        .result
        .as_ref()
        .expect("an idle service always admits the first job");
    assert_eq!(first.job, "cold12");
    for (entry, &cost) in parsed.results[1..].iter().zip(&cold_costs[1..]) {
        assert!(entry.result.is_none());
        let error = entry.error.as_ref().expect("shed entries carry the error");
        assert_eq!(error.status, 429);
        assert_eq!(error.kind, "rejected");
        let rejection = error.rejection.as_ref().expect("sheds are structured");
        assert!(rejection.retry_after_ms > 0);
        match &rejection.reason {
            htvm_serve::RejectReason::QueueBudget {
                estimated_cost,
                budget,
                ..
            } => {
                assert_eq!(*estimated_cost, cost);
                assert_eq!(*budget, cold_costs[0]);
            }
            other => panic!("expected a QueueBudget rejection, got {other:?}"),
        }
    }
    let stats = service_stats(addr);
    assert_eq!(stats.jobs, 1);
    assert_eq!(stats.shed, 3);
    assert_eq!(stats.shed_budget, 3);

    // Once the queue drains, a resubmitted batch coalesces repeats and
    // counts them exactly.
    let hot = htf(&conv_graph(12));
    let batch = WireBatch {
        jobs: (0..4)
            .map(|i| wire_job(&format!("hot{i}"), &hot, false))
            .collect(),
    };
    let body = serde_json::to_string(&batch).unwrap();
    let response = once(addr, "POST", "/v1/batch", Some(&body));
    let parsed: WireBatchResult = serde_json::from_str(&response.body).unwrap();
    let results: Vec<&WireResult> = parsed
        .results
        .iter()
        .map(|e| e.result.as_ref().expect("drained service admits the batch"))
        .collect();
    let coalesced = results.iter().filter(|r| r.coalesced).count();
    let hits = results.iter().filter(|r| r.cache_hit).count();
    assert_eq!(hits, 1, "the leader hits the warmed cache");
    assert_eq!(
        coalesced, 3,
        "every repeat of the warm key coalesces onto the leader"
    );
    server.shutdown();
}

#[test]
fn malformed_requests_get_typed_errors_not_hangups() {
    let (_service, server) = spawn_server(
        serve_config(),
        HttpConfig {
            max_body_bytes: 1 << 10,
            ..HttpConfig::default()
        },
    );
    let addr = server.addr();

    let garbage = once(addr, "POST", "/v1/compile", Some("{not json"));
    assert_eq!(garbage.status, 400);
    assert_eq!(garbage.error().kind, "bad_request");

    let missing = once(addr, "POST", "/v1/compile", Some("{\"name\": \"x\"}"));
    assert_eq!(missing.status, 400, "well-formed JSON, wrong schema");

    let lost = once(addr, "GET", "/v1/nope", None);
    assert_eq!(lost.status, 404);
    assert_eq!(lost.error().kind, "not_found");

    let wrong_method = once(addr, "DELETE", "/v1/stats", None);
    assert_eq!(wrong_method.status, 405);
    assert_eq!(wrong_method.error().kind, "method_not_allowed");

    let huge = Client::connect(addr)
        .send_raw(b"POST /v1/compile HTTP/1.1\r\nHost: t\r\nContent-Length: 999999\r\n\r\n");
    assert_eq!(huge.status, 413);
    assert_eq!(huge.error().kind, "payload_too_large");

    let ancient = Client::connect(addr).send_raw(b"GET /v1/healthz HTTP/3\r\n\r\n");
    assert_eq!(ancient.status, 505);

    let chunked = Client::connect(addr)
        .send_raw(b"POST /v1/compile HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
    assert_eq!(chunked.status, 501);

    let stats = service_stats(addr);
    assert_eq!(stats.jobs, 0, "none of the garbage reached the service");
    server.shutdown();
}

#[test]
fn unknown_members_get_400_on_compile_and_batch() {
    let (_service, server) = spawn_server(serve_config(), HttpConfig::default());
    let addr = server.addr();
    let job = serde_json::to_string(&wire_job("j", &htf(&conv_graph(8)), false)).unwrap();
    // A service serves one platform, so a job that names one is refused
    // rather than compiled for whatever the service serves.
    let with_platform = job.replacen('{', r#"{"platform":"gap9","#, 1);
    for (path, body, member) in [
        ("/v1/compile", with_platform.clone(), "platform"),
        (
            "/v1/batch",
            format!(r#"{{"jobs":[{with_platform}]}}"#),
            "platform",
        ),
        (
            "/v1/batch",
            format!(r#"{{"jobs":[{job}],"priority":1}}"#),
            "priority",
        ),
    ] {
        let refused = once(addr, "POST", path, Some(&body));
        assert_eq!(refused.status, 400, "{path}: {}", refused.body);
        let error = refused.error();
        assert_eq!(error.kind, "bad_request", "{path}");
        assert!(error.detail.contains(member), "{path}: {}", error.detail);
    }
    for (path, body) in [
        ("/v1/compile", job.clone()),
        ("/v1/batch", format!(r#"{{"jobs":[{job}]}}"#)),
    ] {
        let accepted = once(addr, "POST", path, Some(&body));
        assert_eq!(accepted.status, 200, "{path}: {}", accepted.body);
    }
    assert_eq!(
        service_stats(addr).jobs,
        2,
        "only the clean bodies became jobs"
    );
    server.shutdown();
}

#[test]
fn import_round_trip_is_byte_identical_and_shares_cache_keys() {
    let (_service, server) = spawn_server(serve_config(), HttpConfig::default());
    let addr = server.addr();

    // Upload the model file; the compiled artifact must be
    // byte-identical (under serde) to an in-process compile of the same
    // graph, because the importer reproduces the graph exactly.
    let graph = conv_graph(8);
    let model = htf(&graph);
    let mut client = Client::connect(addr);
    let response = client.request_bytes(
        "POST",
        "/v1/import?name=filed&artifact=true&deploy=both",
        &model,
    );
    assert_eq!(response.status, 200, "body: {}", response.body);
    let result: WireResult = serde_json::from_str(&response.body).unwrap();
    assert_eq!(result.job, "filed");
    assert!(!result.cache_hit);
    let imported_artifact = result.artifact.expect("artifact=true attaches it");
    let direct = Compiler::new()
        .with_deploy(DeployConfig::Both)
        .compile(&graph)
        .expect("conv graph compiles");
    assert_eq!(
        serde_json::to_string(&imported_artifact).unwrap(),
        serde_json::to_string(&direct).unwrap(),
        "imported model must compile to the identical artifact"
    );

    // The same bytes as model_hex in a JSON envelope, the other
    // spelling, hit the cache entry the file upload created: both paths
    // resolve to the same ArtifactKey.
    let body = serde_json::to_string(&wire_job("hexed", &model, false)).unwrap();
    let response = client.request("POST", "/v1/compile", Some(&body));
    assert_eq!(response.status, 200, "body: {}", response.body);
    let result: WireResult = serde_json::from_str(&response.body).unwrap();
    assert!(
        result.cache_hit,
        "raw uploads and model_hex jobs share cache keys"
    );

    let stats = service_stats(addr);
    assert_eq!(stats.jobs, 2);
    assert_eq!(stats.rejected_import, 0);
    assert_eq!(stats.artifact_cache.misses, 1);
    assert_eq!(stats.artifact_cache.hits, 1);
    server.shutdown();
}

#[test]
fn a_cast_not_proven_in_range_gets_422_before_any_compile() {
    let (_service, server) = spawn_server(serve_config(), HttpConfig::default());
    let addr = server.addr();
    let narrowing = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../frontend/tests/fixtures/unproven_narrowing.htf"
    ))
    .expect("fixture is committed");
    let response = Client::connect(addr).request_bytes("POST", "/v1/import", &narrowing);
    assert_eq!(response.status, 422);
    let error = response.error();
    assert_eq!(error.kind, "import_error");
    assert!(
        error.detail.contains("Graph") && error.detail.contains("not proven to fit i8"),
        "{:?}",
        error.detail
    );
    let stats = service_stats(addr);
    assert_eq!((stats.rejected_import, stats.jobs), (1, 0));
    server.shutdown();
}

#[test]
fn malformed_imports_get_422_with_the_variant_name() {
    let (_service, server) = spawn_server(serve_config(), HttpConfig::default());
    let addr = server.addr();
    let mut client = Client::connect(addr);
    let model = htf(&conv_graph(4));

    // Corrupt magic: exact variant in the detail.
    let mut bad_magic = model.clone();
    bad_magic[4..8].copy_from_slice(b"NOPE");
    let response = client.request_bytes("POST", "/v1/import?name=bad", &bad_magic);
    assert_eq!(response.status, 422);
    let error = response.error();
    assert_eq!(error.kind, "import_error");
    assert!(
        error.detail.contains("BadMagic"),
        "detail must carry the ImportError variant name, got {:?}",
        error.detail
    );

    // An empty body is a truncation.
    let response = client.request_bytes("POST", "/v1/import", b"");
    assert_eq!(response.status, 422);
    assert!(response.error().detail.contains("Truncated"));

    // Unknown deploy value is a 400 before the importer runs.
    let response = client.request_bytes("POST", "/v1/import?deploy=gpu", &model);
    assert_eq!(response.status, 400);
    assert_eq!(response.error().kind, "bad_request");

    // A batch with one poisoned model_hex entry: the poisoned entry
    // carries the import error, the healthy entries still compile.
    let batch = WireBatch {
        jobs: vec![
            wire_job("ok", &model, false),
            wire_job("poisoned", &bad_magic, false),
        ],
    };
    let body = serde_json::to_string(&batch).unwrap();
    let response = client.request("POST", "/v1/batch", Some(&body));
    assert_eq!(response.status, 200);
    let parsed: WireBatchResult = serde_json::from_str(&response.body).unwrap();
    assert!(parsed.results[0].result.is_some(), "healthy entry compiles");
    let entry_error = parsed.results[1]
        .error
        .as_ref()
        .expect("poisoned entry errors");
    assert_eq!(entry_error.status, 422);
    assert_eq!(entry_error.kind, "import_error");
    assert!(entry_error.detail.contains("BadMagic"));

    // Counters are exact: three importer rejections (two uploads + one
    // batch entry), and only the healthy batch entry became a job.
    let stats = service_stats(addr);
    assert_eq!(stats.rejected_import, 3);
    assert_eq!(stats.jobs, 1);
    assert_eq!(stats.shed, 0);
    server.shutdown();
}

#[test]
fn oversized_imports_hit_the_existing_413_path() {
    let (_service, server) = spawn_server(
        serve_config(),
        HttpConfig {
            max_body_bytes: 1 << 10,
            ..HttpConfig::default()
        },
    );
    let addr = server.addr();
    // A model comfortably over the 1 KiB cap is refused at framing,
    // before the importer (or the service counters) ever see it.
    let model = htvm_frontend::emit(&conv_graph(16)).expect("graph emits");
    assert!(model.len() > 1 << 10, "test model must exceed the cap");
    let response = Client::connect(addr).request_bytes("POST", "/v1/import", &model);
    assert_eq!(response.status, 413);
    assert_eq!(response.error().kind, "payload_too_large");
    let stats = service_stats(addr);
    assert_eq!(stats.rejected_import, 0, "the importer never saw the body");
    assert_eq!(stats.jobs, 0);
    server.shutdown();
}

#[test]
fn connection_cap_refuses_with_503_and_retry_after() {
    let (_service, server) = spawn_server(
        serve_config(),
        HttpConfig {
            max_connections: 0,
            ..HttpConfig::default()
        },
    );
    let addr = server.addr();
    // With a zero cap every connection is refused before parsing.
    let response = Client::connect(addr).read_response();
    assert_eq!(response.status, 503);
    assert_eq!(response.error().kind, "overloaded");
    assert_eq!(response.header("retry-after"), Some("1"));
    server.shutdown();
}

#[test]
fn deeply_nested_bodies_get_400_and_the_server_lives_on() {
    let (_service, server) = spawn_server(serve_config(), HttpConfig::default());
    let addr = server.addr();
    // 20 KB of `[` used to recurse the connection thread off its stack,
    // which aborts the whole process, not just the connection.
    let bomb = "[".repeat(20_000);
    for path in ["/v1/compile", "/v1/batch"] {
        let refused = once(addr, "POST", path, Some(&bomb));
        assert_eq!(refused.status, 400, "{path}");
        let error = refused.error();
        assert_eq!(error.kind, "bad_request");
        assert!(
            error
                .detail
                .contains("recursion limit exceeded at byte 128"),
            "{}",
            error.detail
        );
    }
    // A new connection is served, and a real job still compiles.
    assert_eq!(once(addr, "GET", "/v1/healthz", None).status, 200);
    let job = serde_json::to_string(&wire_job("after", &htf(&conv_graph(4)), false)).unwrap();
    let compiled = once(addr, "POST", "/v1/compile", Some(&job));
    assert_eq!(compiled.status, 200, "{}", compiled.body);
    let stats = service_stats(addr);
    assert_eq!(stats.jobs, 1, "the bombs never reached the service");
    server.shutdown();
}

/// An 8-node dense layer: input, weights, dense, bias, bias add and the
/// right-shift / clip / cast requantization tail, in that id order.
fn dense_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let x = b.input("x", &[16], DType::I8);
    let w = b.constant("w", Tensor::zeros(DType::I8, &[8, 16]));
    let d = b.dense(x, w).unwrap();
    let bias = b.constant("b", Tensor::zeros(DType::I32, &[8]));
    let d = b.bias_add(d, bias).unwrap();
    let y = b.requantize(d, 7, false).unwrap();
    let graph = b.finish(&[y]).unwrap();
    assert_eq!(graph.len(), 8);
    graph
}

#[test]
fn json_graph_bodies_get_400_and_the_server_lives_on() {
    let (_service, server) = spawn_server(serve_config(), HttpConfig::default());
    let addr = server.addr();
    let graph = dense_graph();
    let json = serde_json::to_string(&graph).unwrap();
    let edit = |from: &str, to: &str| {
        assert!(json.contains(from), "{from} not in {json}");
        json.replacen(from, to, 1)
    };
    // A model in the old `graph` field, one field edited. Each of these
    // once killed its connection thread (the first two by panicking in
    // the cache key and the cost estimate) or the whole process (the
    // cycle, by an unbounded walk). A job is HTF bytes only now, so none
    // is ever read as a graph.
    let probes = [
        (
            "dangling output",
            edit(r#""outputs":[7]"#, r#""outputs":[99]"#),
        ),
        (
            "one-operand dense",
            edit(r#""inputs":[0,1]"#, r#""inputs":[0]"#),
        ),
        ("two-node cycle", edit(r#""inputs":[4]"#, r#""inputs":[6]"#)),
    ];
    let healthy = serde_json::to_string(&wire_job("healthy", &htf(&graph), false)).unwrap();
    for (probe, graph_json) in &probes {
        let job = format!(r#"{{"name":"probe","graph":{graph_json},"deploy":"Both"}}"#);
        for (path, body) in [
            ("/v1/compile", job.clone()),
            ("/v1/batch", format!(r#"{{"jobs":[{job}]}}"#)),
        ] {
            let refused = once(addr, "POST", path, Some(&body));
            assert_eq!(refused.status, 400, "{probe} on {path}: {}", refused.body);
            assert_eq!(refused.error().kind, "bad_request", "{probe} on {path}");
            let compiled = once(addr, "POST", "/v1/compile", Some(&healthy));
            assert_eq!(
                compiled.status, 200,
                "after {probe} on {path}: {}",
                compiled.body
            );
        }
    }
    let stats = service_stats(addr);
    assert_eq!(stats.jobs, 6, "only the healthy jobs reached the service");
    server.shutdown();
}

/// The status code of one `GET /v1/healthz` on a fresh connection, or
/// `None` when the exchange fails (a refused connection may be reset
/// before its `503` is read).
fn healthz_status(addr: SocketAddr) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .ok()?;
    let mut status_line = String::new();
    BufReader::new(stream).read_line(&mut status_line).ok()?;
    status_line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn a_panicking_request_gives_its_connection_slot_back() {
    // The dispatch hook panics on its first call, inside the compile the
    // connection thread runs.
    let first = AtomicBool::new(true);
    let hook: DispatchHook = Arc::new(move |_, base| {
        assert!(!first.swap(false, Ordering::SeqCst), "the hook panics");
        base
    });
    let service = Arc::new(CompileService::with_compiler(
        serve_config(),
        Compiler::new().with_dispatch_hook(hook),
    ));
    let server = HttpServer::spawn(
        service,
        "127.0.0.1:0",
        HttpConfig {
            max_connections: 1,
            ..HttpConfig::default()
        },
    )
    .expect("ephemeral port binds");
    let addr = server.addr();

    let job = serde_json::to_string(&wire_job("boom", &htf(&conv_graph(4)), false)).unwrap();
    let mut doomed = Client::connect(addr);
    let request = format!(
        "POST /v1/compile HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{job}",
        job.len()
    );
    let reply = doomed.send_raw(request.as_bytes());
    assert_eq!(reply.status, 500);
    let error = reply.error();
    assert_eq!((error.status, error.kind.as_str()), (500, "internal"));
    assert_eq!(reply.header("connection"), Some("close"));
    let mut rest = Vec::new();
    drop(doomed.stream.read_to_end(&mut rest));
    assert!(rest.is_empty(), "the connection closes after the 500");
    assert_eq!(server.stats().errors, 1, "the 500 counts as an error");

    // With a cap of one, the panicked connection's slot is the only
    // one: fresh connections are served again once it comes back.
    let deadline = Instant::now() + Duration::from_secs(10);
    while healthz_status(addr) != Some(200) {
        assert!(
            Instant::now() < deadline,
            "the panicked connection never gave its slot back"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}
