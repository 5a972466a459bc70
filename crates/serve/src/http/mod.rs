//! The network front door: a vendored, dependency-free HTTP/1.1 server
//! over a [`CompileService`].
//!
//! Routes:
//!
//! | Method | Path          | Body             | Response                      |
//! |--------|---------------|------------------|-------------------------------|
//! | GET    | `/v1/healthz` | —                | [`wire::WireHealth`]          |
//! | GET    | `/v1/stats`   | —                | `ServiceStats` JSON           |
//! | POST   | `/v1/compile` | [`wire::WireJob`]| [`wire::WireResult`]          |
//! | POST   | `/v1/batch`   | [`wire::WireBatch`] | [`wire::WireBatchResult`]  |
//! | POST   | `/v1/import`  | raw HTF model bytes | [`wire::WireResult`]       |
//!
//! Every route that compiles takes the model as HTF bytes:
//! `/v1/compile` and `/v1/batch` hex-encoded in a JSON envelope
//! (`model_hex`), `/v1/import` as the raw body with job parameters as
//! query parameters:
//! `?name=<label>&tenant=<tenant>&deploy=cpu_tvm|digital|analog|both&artifact=true`
//! (all optional; deploy defaults to `both`). Malformed model bytes are
//! a `422` [`wire::WireError`] of kind `import_error` whose `detail`
//! leads with the `htvm_frontend::ImportError` variant name.
//!
//! Every non-2xx response is a typed [`wire::WireError`] JSON body with
//! `status` matching the status line; admission sheds are `429` with
//! the structured [`Rejection`](crate::Rejection) attached and a
//! `Retry-After` header. A request whose handler panics gets a `500` of
//! kind `internal`, and its connection is closed. Connections are
//! keep-alive per HTTP/1.1 semantics
//! ([`framing::Request::keep_alive`]); one thread serves each
//! connection, capped at [`HttpConfig::max_connections`] (excess
//! connections get one `503` and are closed).

pub mod framing;
pub mod wire;

use crate::service::{CompileService, JobError, JobRequest, JobResult};
use framing::{read_request, write_response, FrameError, Request};
use htvm::DeployConfig;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wire::{
    WireBatch, WireBatchEntry, WireBatchResult, WireError, WireHealth, WireJob, WireResult,
};

/// Construction parameters for an [`HttpServer`].
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Maximum accepted request body, in bytes; larger uploads get a
    /// typed `413`.
    pub max_body_bytes: usize,
    /// Maximum concurrently served connections; excess connections get
    /// one `503` and are closed (connection-level shedding, before any
    /// request parsing).
    pub max_connections: usize,
    /// Per-read socket timeout. An idle keep-alive connection is closed
    /// after this long, so shutdown never waits on a silent peer.
    pub read_timeout: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            max_body_bytes: 32 << 20,
            max_connections: 64,
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// Counters of the front door itself (the service keeps its own).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HttpStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections refused with `503` at the connection cap.
    pub refused: u64,
    /// Requests answered (any status).
    pub requests: u64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: u64,
}

#[derive(Default)]
struct HttpCounters {
    connections: AtomicU64,
    refused: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
}

/// A running front door. Dropping the handle leaks the listener thread;
/// call [`HttpServer::shutdown`] for an orderly stop.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<HttpCounters>,
    accept_thread: std::thread::JoinHandle<()>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections against `service`.
    pub fn spawn(
        service: Arc<CompileService>,
        addr: impl ToSocketAddrs,
        config: HttpConfig,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(HttpCounters::default());
        let active = Arc::new(AtomicUsize::new(0));
        let accept_thread = std::thread::spawn({
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    counters.connections.fetch_add(1, Ordering::Relaxed);
                    if active.load(Ordering::SeqCst) >= config.max_connections {
                        counters.refused.fetch_add(1, Ordering::Relaxed);
                        refuse_connection(stream);
                        continue;
                    }
                    active.fetch_add(1, Ordering::SeqCst);
                    let slot = Slot(Arc::clone(&active));
                    std::thread::spawn({
                        let service = Arc::clone(&service);
                        let counters = Arc::clone(&counters);
                        let stop = Arc::clone(&stop);
                        let config = config.clone();
                        move || {
                            let _slot = slot;
                            serve_connection(&service, stream, &config, &counters, &stop);
                        }
                    });
                }
            }
        });
        Ok(HttpServer {
            addr,
            stop,
            counters,
            accept_thread,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the front-door counters.
    #[must_use]
    pub fn stats(&self) -> HttpStats {
        HttpStats {
            connections: self.counters.connections.load(Ordering::Relaxed),
            refused: self.counters.refused.load(Ordering::Relaxed),
            requests: self.counters.requests.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, unblocks the accept loop, and joins it. Live
    /// connections finish their current exchange and then close (the
    /// stop flag is checked between requests; idle peers time out after
    /// [`HttpConfig::read_timeout`]).
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        drop(TcpStream::connect(self.addr));
        drop(self.accept_thread.join());
    }
}

/// One taken connection slot, given back on drop — on every exit from
/// the connection thread, including an unwind out of a panicking
/// handler, so a panic costs its connection and never the capacity.
struct Slot(Arc<AtomicUsize>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One 503 and close, for connections over the cap.
fn refuse_connection(stream: TcpStream) {
    let body = json(&WireError::new(
        503,
        "overloaded",
        String::from("connection limit reached; retry shortly"),
    ));
    let mut writer = BufWriter::new(stream);
    drop(write_response(
        &mut writer,
        503,
        &body,
        &[("Retry-After", String::from("1"))],
        false,
    ));
}

/// Serves one connection: read request, dispatch, write response,
/// repeat while keep-alive holds.
fn serve_connection(
    service: &CompileService,
    stream: TcpStream,
    config: &HttpConfig,
    counters: &HttpCounters,
    stop: &AtomicBool,
) {
    drop(stream.set_read_timeout(Some(config.read_timeout)));
    drop(stream.set_nodelay(true));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let request = match read_request(&mut reader, config.max_body_bytes) {
            Ok(Some(request)) => request,
            Ok(None) => break, // clean close between requests
            Err(FrameError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break; // idle keep-alive connection timed out
            }
            Err(error) => {
                // Framing failed: answer once, typed, then close — the
                // stream position is unreliable after a bad frame.
                counters.requests.fetch_add(1, Ordering::Relaxed);
                counters.errors.fetch_add(1, Ordering::Relaxed);
                let status = error.status();
                let kind = match status {
                    413 => "payload_too_large",
                    501 => "not_implemented",
                    505 => "http_version",
                    _ => "bad_request",
                };
                let body = json(&WireError::new(status, kind, error.to_string()));
                drop(write_response(&mut writer, status, &body, &[], false));
                break;
            }
        };
        let keep_alive = request.keep_alive();
        // The service's locks and drop guards keep its state whole across
        // an unwind (see `crate::lock`), so a panicking handler costs only
        // its own request: it is answered with a 500 and its connection
        // is closed.
        let handled = catch_unwind(AssertUnwindSafe(|| dispatch(service, request)));
        let keep_alive = keep_alive && handled.is_ok();
        let (status, body, extra) = handled.unwrap_or_else(|_| {
            let error = WireError::new(
                500,
                "internal",
                String::from("the request handler panicked"),
            );
            (500, json(&error), Vec::new())
        });
        counters.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        if write_response(&mut writer, status, &body, &extra, keep_alive).is_err() || !keep_alive {
            break;
        }
    }
}

/// Routes one request to a handler, returning status, JSON body and
/// extra headers.
fn dispatch(
    service: &CompileService,
    request: Request,
) -> (u16, Vec<u8>, Vec<(&'static str, String)>) {
    match (request.method.as_str(), request.path()) {
        ("GET", "/v1/healthz") => (200, json(&WireHealth { ok: true }), Vec::new()),
        ("GET", "/v1/stats") => (200, json(&service.stats()), Vec::new()),
        ("POST", "/v1/compile") => match parse_body::<WireJob>(&request.body) {
            Err(detail) => bad_body(detail),
            Ok(job) => {
                let include_artifact = job.include_artifact;
                match job.into_request(service) {
                    Err(wire) => wire_failure(wire),
                    Ok(request) => job_response(service.submit(request), include_artifact),
                }
            }
        },
        ("POST", "/v1/import") => match import_params(&request) {
            Err(detail) => {
                let error = WireError::new(400, "bad_request", detail);
                (400, json(&error), Vec::new())
            }
            Ok((name, tenant, deploy, include_artifact)) => job_response(
                service.submit_model(&name, tenant.as_deref(), deploy, &request.body),
                include_artifact,
            ),
        },
        ("POST", "/v1/batch") => match parse_body::<WireBatch>(&request.body) {
            Err(detail) => bad_body(detail),
            Ok(batch) => {
                let include: Vec<bool> = batch.jobs.iter().map(|j| j.include_artifact).collect();
                // Convert jobs up front; conversion failures (bad
                // envelope, failed import) become their entry's error
                // without ever reaching admission, while the rest move
                // into one batch and are scheduled together.
                let mut admitted: Vec<JobRequest> = Vec::new();
                let failed: Vec<Option<WireError>> = batch
                    .jobs
                    .into_iter()
                    .map(|job| match job.into_request(service) {
                        Ok(request) => {
                            admitted.push(request);
                            None
                        }
                        Err(wire) => Some(wire),
                    })
                    .collect();
                let mut outcomes = service.submit_batch(admitted).into_iter();
                let results = failed
                    .into_iter()
                    .zip(include)
                    .map(|(failed, include_artifact)| {
                        WireBatchEntry::from_outcome(match failed {
                            Some(wire) => Err(wire),
                            None => match outcomes.next().expect("one outcome per admitted job") {
                                Ok(r) => Ok(WireResult::from_result(r, include_artifact)),
                                Err(e) => Err(WireError::from_job_error(&e)),
                            },
                        })
                    })
                    .collect();
                (200, json(&WireBatchResult { results }), Vec::new())
            }
        },
        (_, "/v1/healthz" | "/v1/stats" | "/v1/compile" | "/v1/batch" | "/v1/import") => {
            let error = WireError::new(
                405,
                "method_not_allowed",
                format!("{} not allowed here", request.method),
            );
            (405, json(&error), Vec::new())
        }
        (_, path) => {
            let error = WireError::new(404, "not_found", format!("no route for {path}"));
            (404, json(&error), Vec::new())
        }
    }
}

/// Decodes a UTF-8 JSON body into `T`, with a human-readable error.
fn parse_body<T: serde::Deserialize>(body: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn bad_body(detail: String) -> (u16, Vec<u8>, Vec<(&'static str, String)>) {
    let error = WireError::new(400, "bad_request", format!("malformed job body: {detail}"));
    (400, json(&error), Vec::new())
}

/// Renders a [`WireError`] produced during request conversion (its
/// `status` is authoritative).
fn wire_failure(error: WireError) -> (u16, Vec<u8>, Vec<(&'static str, String)>) {
    (error.status, json(&error), Vec::new())
}

/// Parses `/v1/import` query parameters:
/// `(name, tenant, deploy, include_artifact)`.
fn import_params(
    request: &Request,
) -> Result<(String, Option<String>, DeployConfig, bool), String> {
    let mut name = String::from("import");
    let mut tenant = None;
    let mut deploy = DeployConfig::Both;
    let mut include_artifact = false;
    let query = request.target.split_once('?').map_or("", |(_, q)| q);
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "name" => name = value.to_owned(),
            "tenant" => tenant = Some(value.to_owned()),
            "deploy" => deploy = value.parse()?,
            "artifact" => include_artifact = matches!(value, "true" | "1"),
            other => return Err(format!("unknown import parameter '{other}'")),
        }
    }
    Ok((name, tenant, deploy, include_artifact))
}

/// Renders one job's outcome: the [`WireResult`], or the typed error
/// (with `Retry-After` when it is a shed).
fn job_response(
    outcome: Result<JobResult, JobError>,
    include_artifact: bool,
) -> (u16, Vec<u8>, Vec<(&'static str, String)>) {
    let error = match outcome {
        Ok(result) => {
            let body = json(&WireResult::from_result(result, include_artifact));
            return (200, body, Vec::new());
        }
        Err(error) => error,
    };
    let wire = WireError::from_job_error(&error);
    let mut extra = Vec::new();
    if let Some(rejection) = &wire.rejection {
        let secs = rejection.retry_after_ms.div_ceil(1000).max(1);
        extra.push(("Retry-After", secs.to_string()));
    }
    (wire.status, json(&wire), extra)
}

fn json<T: serde::Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_string(value)
        .expect("wire types serialize infallibly")
        .into_bytes()
}
