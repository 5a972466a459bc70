//! `serve_hot_http`: the read side of the same cache, through the real
//! front door. Set-up cold-fills the ten keys with persistence on,
//! drops the service and boots a new one from the same directory (warm
//! start). Each round is a seeded permutation of 100 `POST /v1/import`
//! requests carrying raw HTF bytes over two keep-alive connections: per
//! key nine metadata-only (`meta`) and one `artifact=1` (`fetch`).
//! Framing, import, canonical key, the cache's deep clone under its
//! mutex and wire encoding are on the clock; nothing compiles.

use super::{clock, closed_loop, probe, Layer, Round, Tally, Workload};
use crate::matrix::{build_cells, deploy_id, input_for, quality, serialized_hash};
use crate::matrix::{Cell, Quality, SERVE_DEPLOYS};
use crate::scratch;
use crate::spans::{stage_dur_by_round, stage_self_by_round, Recorder, NO_ROUND};
use crate::stats::{fnv64, median, Rng};
use htvm_serve::http::wire::WireResult;
use htvm_serve::http::{HttpConfig, HttpServer};
use htvm_serve::{ArtifactCache, ArtifactKey, CompileService, JobRequest, PersistStore};
use htvm_serve::{ServeConfig, ServiceStats};
use htvm_soc::DEFAULT_PLATFORM;
use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

const REQUESTS_PER_KEY: usize = 10;
const ARTIFACT_FIELD: &[u8] = b",\"artifact\":";

/// One keep-alive connection. The buffered reader lives as long as the
/// connection, so bytes read ahead are never lost between requests.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    body: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            stream,
            reader,
            body: Vec::new(),
        })
    }

    /// Sends one pre-built request and reads the whole response into
    /// `self.body`; returns the status code.
    pub fn exchange(&mut self, request: &[u8]) -> std::io::Result<u16> {
        self.stream.write_all(request)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_data(format!("malformed status line {line:?}")))?;
        let mut length = None;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| bad_data("response without Content-Length".into()))?;
        self.body.resize(length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(status)
    }
}

fn bad_data(why: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, why)
}

/// A whole `POST /v1/import` request, head and HTF body, as bytes.
fn import_request(cell: &Cell, fetch: bool) -> Vec<u8> {
    let mut request = format!(
        "POST /v1/import?name={}&deploy={}{} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        cell.model.name,
        deploy_id(cell.deploy),
        if fetch { "&artifact=1" } else { "" },
        cell.htf.len()
    )
    .into_bytes();
    request.extend_from_slice(&cell.htf);
    request
}

/// What a correct answer to one request looks like.
pub struct Expected<'a> {
    pub key_id: &'a str,
    /// FNV-1a of the in-process serialisation of the key's artifact.
    pub artifact_hash: u64,
    pub fetch: bool,
}

/// Checks one response: 200, served from the cache, under the expected
/// key, and — for a fetch — carrying the artifact byte for byte. The
/// artifact is hashed where it lies in the body, never parsed.
pub fn check_response(status: u16, body: &[u8], expected: &Expected<'_>) -> Result<(), String> {
    if status != 200 {
        return Err(format!(
            "status {status}: {}",
            String::from_utf8_lossy(&body[..body.len().min(200)])
        ));
    }
    // `artifact` is the last field of a `WireResult`, so the head up to
    // it, closed with a brace, is the metadata object.
    let split = body
        .windows(ARTIFACT_FIELD.len())
        .take(1024)
        .position(|w| w == ARTIFACT_FIELD)
        // The vendored serde writes an absent artifact as `null`.
        .filter(|at| &body[at + ARTIFACT_FIELD.len()..] != b"null}");
    let head = match split {
        Some(at) => [&body[..at], b"}"].concat(),
        None => body.to_vec(),
    };
    let head: Value = std::str::from_utf8(&head)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
        .map_err(|e| format!("metadata does not parse: {e}"))?;
    if head["cache_hit"].as_bool() != Some(true) {
        return Err("a hot request missed the cache".into());
    }
    if head["key_id"].as_str() != Some(expected.key_id) {
        return Err(format!(
            "key_id {:?}, expected {}",
            head["key_id"].as_str(),
            expected.key_id
        ));
    }
    match (expected.fetch, split) {
        (false, None) => Ok(()),
        (false, Some(_)) => Err("a metadata-only response carried an artifact".into()),
        (true, None) => Err("a fetch response carried no artifact".into()),
        (true, Some(at)) => {
            let artifact = &body[at + ARTIFACT_FIELD.len()..body.len() - 1];
            if fnv64(artifact) == expected.artifact_hash {
                Ok(())
            } else {
                Err("fetched artifact bytes differ from the in-process serialisation".into())
            }
        }
    }
}

pub struct ServeHotHttp {
    cells: Vec<Cell>,
    key_ids: Vec<String>,
    artifact_hash: Vec<u64>,
    /// Per key: the `meta` request and the `fetch` request.
    requests: Vec<[Vec<u8>; 2]>,
    dir: PathBuf,
    service: Arc<CompileService>,
    server: Option<HttpServer>,
    clients: Vec<Client>,
    quality: Quality,
    build_us: f64,
    rounds_done: usize,
    /// Service (hits, misses) counted over the last round, and over the
    /// last untraced one: a traced round's in-process re-submissions
    /// are hits too, and are not the workload's.
    last_delta: (u64, u64),
    measured_delta: (u64, u64),
    response_bytes: u64,
    /// Traced runs: a standalone cache holding the same ten artifacts,
    /// for clocking `ArtifactCache::get` alone.
    probe_cache: Option<(ArtifactCache, Vec<ArtifactKey>)>,
}

/// Slot `0..100` of the round's request list → (key, is it the fetch).
fn slot(slot: usize) -> (usize, bool) {
    (
        slot / REQUESTS_PER_KEY,
        slot % REQUESTS_PER_KEY == REQUESTS_PER_KEY - 1,
    )
}

fn hits_misses(stats: &ServiceStats) -> (u64, u64) {
    (stats.artifact_cache.hits, stats.artifact_cache.misses)
}

impl ServeHotHttp {
    fn expected(&self, key: usize, fetch: bool) -> Expected<'_> {
        Expected {
            key_id: &self.key_ids[key],
            artifact_hash: self.artifact_hash[key],
            fetch,
        }
    }

    /// Boots a service over `dir` and a front door over the service.
    fn boot(dir: &std::path::Path) -> (Arc<CompileService>, HttpServer) {
        let service = Arc::new(CompileService::new(ServeConfig {
            persist_root: Some(dir.to_path_buf()),
            ..ServeConfig::default()
        }));
        let server = HttpServer::spawn(Arc::clone(&service), "127.0.0.1:0", HttpConfig::default())
            .expect("the front door binds an ephemeral loopback port");
        (service, server)
    }

    /// Re-runs, in process and on the calling thread, what the server
    /// just did for one request, and lays the stages under its span.
    fn split_request(&self, rec: &mut Recorder, span: usize, key: usize, fetch: bool) {
        let cell = &self.cells[key];
        let (result, submit_ns) = clock(|| {
            self.service
                .submit_model(cell.model.name, None, cell.deploy, &cell.htf)
        });
        let (graph, import_ns) = clock(|| htvm_frontend::import(&cell.htf));
        let (Ok(result), Ok(graph)) = (result, graph) else {
            return;
        };
        let job = JobRequest::compile_only(cell.model.name, graph, cell.deploy);
        let (_, key_ns) = clock(|| self.service.key_of(&job));
        let get_ns = self.probe_cache.as_ref().map_or(0, |(cache, keys)| {
            clock(|| std::hint::black_box(cache.get(&keys[key]))).1
        });
        let (_, encode_ns) = clock(|| {
            std::hint::black_box(serde_json::to_string(&WireResult::from_result(
                result, fetch,
            )))
        });
        let parts = rec.derive_children(
            span,
            &[
                ("serve.submit_hit", submit_ns),
                ("serve.wire_encode", encode_ns),
            ],
        );
        rec.derive_children(
            parts[0],
            &[
                ("frontend.import", import_ns),
                ("ir.canonical", key_ns),
                ("serve.cache_get", get_ns),
            ],
        );
    }
}

impl Workload for ServeHotHttp {
    const NAME: &'static str = "serve_hot_http";
    const WARMUP_ROUNDS: usize = 2;
    const THREADS: usize = 2;

    fn setup(seed: u64, traced: bool, tally: &mut Tally) -> Self {
        let (cells, build_us) = build_cells(&SERVE_DEPLOYS);
        let dir = scratch::fresh_dir(Self::NAME);

        // Cold fill, then a warm start from what the fill persisted.
        let filler = CompileService::new(ServeConfig {
            persist_root: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let mut artifacts = Vec::with_capacity(cells.len());
        let mut key_ids = Vec::with_capacity(cells.len());
        for cell in &cells {
            let served = filler
                .submit_model(cell.model.name, None, cell.deploy, &cell.htf)
                .unwrap_or_else(|e| panic!("{}: the cold fill failed: {e}", cell.name()));
            // The reference is a direct compile, not what the service
            // handed back.
            let direct = cell
                .compile()
                .unwrap_or_else(|e| panic!("{}: compile failed: {e}", cell.name()));
            tally.check(served.artifact == direct, || {
                format!(
                    "{}: cold-fill artifact differs from a direct compile",
                    cell.name()
                )
            });
            key_ids.push(served.key_id);
            artifacts.push(direct);
        }
        drop(filler);
        let (service, server) = Self::boot(&dir);
        let booted = service.stats();
        tally.check(booted.persist_load_ok == cells.len() as u64, || {
            format!(
                "warm start re-admitted {} of {} persisted artifacts",
                booted.persist_load_ok,
                cells.len()
            )
        });
        let clients = (0..Self::THREADS)
            .map(|_| Client::connect(server.addr()).expect("the front door accepts the clients"))
            .collect();

        let artifact_hash = artifacts.iter().map(serialized_hash).collect();
        let inputs: Vec<_> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| input_for(c, seed, i))
            .collect();
        let items: Vec<_> = artifacts.iter().zip(&inputs).collect();
        let (quality, _) = quality(&items);
        let probe_cache = traced.then(|| {
            let cache = ArtifactCache::new(64 << 20);
            let keys: Vec<ArtifactKey> = cells
                .iter()
                .zip(&artifacts)
                .map(|(cell, artifact)| {
                    let job = JobRequest::compile_only(
                        cell.model.name,
                        cell.model.graph.clone(),
                        cell.deploy,
                    );
                    let key = service.key_of(&job).expect("soak-mix jobs route");
                    cache.insert(key.clone(), artifact);
                    key
                })
                .collect();
            (cache, keys)
        });
        let requests = cells
            .iter()
            .map(|c| [import_request(c, false), import_request(c, true)])
            .collect();
        ServeHotHttp {
            cells,
            key_ids,
            artifact_hash,
            requests,
            dir,
            service,
            server: Some(server),
            clients,
            quality,
            build_us,
            rounds_done: 0,
            last_delta: (0, 0),
            measured_delta: (0, 0),
            response_bytes: 0,
            probe_cache,
        }
    }

    fn classes(&self) -> Vec<String> {
        self.cells
            .iter()
            .flat_map(|c| [format!("{}:meta", c.name()), format!("{}:fetch", c.name())])
            .collect()
    }

    fn round(&mut self, rng: &mut Rng, tally: &mut Tally, trace: Option<&mut [Recorder]>) -> Round {
        let total = self.cells.len() * REQUESTS_PER_KEY;
        let order = rng.permutation(total);
        let base = (self.rounds_done * total) as u64;
        let before = hits_misses(&self.service.stats());
        let mut clients = std::mem::take(&mut self.clients);
        let recorders: Vec<Option<&mut Recorder>> = match trace {
            Some(recorders) => recorders.iter_mut().map(Some).collect(),
            None => (0..Self::THREADS).map(|_| None).collect(),
        };
        let this = &*self;

        // Per request: (class, latency, response bytes, verdict).
        type Sample = (usize, u64, usize, Result<(), String>);
        let per_thread: Vec<Vec<Sample>> = closed_loop(
            clients.iter_mut().zip(recorders).collect(),
            total,
            |(client, rec), at| {
                let (key, fetch) = slot(order[at]);
                let request = &this.requests[key][usize::from(fetch)];
                let id = base + order[at] as u64;
                let spans = rec
                    .as_deref_mut()
                    .map(|rec| (rec.open("round.job", id), rec.open("http.request", id)));
                let (status, ns) = clock(|| client.exchange(request));
                if let (Some(rec), Some((job, http))) = (rec.as_deref_mut(), spans) {
                    rec.close(http);
                    rec.close(job);
                    this.split_request(rec, http, key, fetch);
                }
                let verdict = match status {
                    Err(e) => Err(format!("transport: {e}")),
                    Ok(status) => check_response(status, &client.body, &this.expected(key, fetch)),
                };
                (key * 2 + usize::from(fetch), ns, client.body.len(), verdict)
            },
        );
        self.clients = clients;

        let after = hits_misses(&self.service.stats());
        self.last_delta = (after.0 - before.0, after.1 - before.1);
        tally.check(self.last_delta.1 == 0, || {
            format!(
                "serve_hot_http: {} cache misses in a hot round",
                after.1 - before.1
            )
        });
        let mut round = Round::default();
        self.response_bytes = 0;
        for thread in per_thread {
            // A round lasts as long as its busier client was on the clock.
            round.wall_ns = round
                .wall_ns
                .max(thread.iter().map(|(_, ns, _, _)| ns).sum());
            for (class, ns, bytes, verdict) in thread {
                round.jobs.push((class, ns));
                self.response_bytes += bytes as u64;
                tally.check(verdict.is_ok(), || {
                    format!("{}: {}", self.classes()[class], verdict.unwrap_err())
                });
            }
        }
        self.rounds_done += 1;
        round
    }

    fn quality(&self) -> &Quality {
        &self.quality
    }

    fn finish(&mut self, tally: &mut Tally) {
        self.measured_delta = self.last_delta;
        // Since its warm start the service has only ever been asked for
        // what it loaded: not one compile.
        let misses = self.service.stats().artifact_cache.misses;
        tally.check(misses == 0, || {
            format!("serve_hot_http: {misses} cache misses since the warm start")
        });
    }

    fn layer_metrics(
        &mut self,
        recorders: &mut [Recorder],
        rounds: usize,
        reps: usize,
        layer: &mut Layer,
    ) {
        layer.set("models.build_us", self.build_us);
        let durs = stage_dur_by_round(recorders, rounds);
        let dur_us = |name: &str| durs.get(name).map_or(0.0, |v| median(v) / 1e3);
        let selfs = stage_self_by_round(recorders, rounds);
        let self_us = |name: &str| selfs.get(name).map_or(0.0, |v| median(v) / 1e3);
        let http_us = dur_us("http.request");
        layer.set("serve.submit_hit_us", dur_us("serve.submit_hit"));
        layer.set(
            "serve.http_overhead_us",
            http_us - dur_us("serve.submit_hit"),
        );
        layer.set(
            "serve.unattributed_share",
            (self_us("http.request") + self_us("serve.submit_hit")) / http_us,
        );

        // Per-request (not per-round) client latency of each class.
        let total = (self.cells.len() * REQUESTS_PER_KEY) as u64;
        let class_us = |want_fetch: bool| {
            let samples: Vec<f64> = recorders
                .iter()
                .flat_map(|rec| rec.spans.iter())
                .filter(|s| s.name == "http.request" && s.round != NO_ROUND)
                .filter(|s| slot((s.request % total) as usize).1 == want_fetch)
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect();
            median(&samples)
        };
        layer.set("serve.http_meta_us", class_us(false));
        layer.set("serve.http_fetch_us", class_us(true));
        layer.set("serve.response_bytes", self.response_bytes as f64);
        layer.set(
            "frontend.bytes_in",
            self.cells
                .iter()
                .map(|c| c.htf.len() * REQUESTS_PER_KEY)
                .sum::<usize>() as f64,
        );

        let stats = self.service.stats();
        let (hits, misses) = self.measured_delta;
        layer.set("serve.hits", hits as f64);
        layer.set("serve.misses", misses as f64);
        layer.set("serve.coalesced", stats.coalesced as f64);
        layer.set("serve.shed", stats.shed as f64);
        layer.set("serve.persist_writes", stats.persist_writes as f64);
        layer.set(
            "serve.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        layer.set("codegen.artifact_bytes", stats.artifact_cache.bytes as f64);

        let store = PersistStore::open(&self.dir, DEFAULT_PLATFORM)
            .expect("the persisted directory reopens");
        layer.set(
            "serve.persist_load_us",
            probe(&mut recorders[0], "serve.persist_load", reps, || {
                store.load_into(&ArtifactCache::new(64 << 20));
            }),
        );
    }

    fn teardown(mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        drop(self.service);
        scratch::remove(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm::DeployConfig;

    fn one_cell() -> Cell {
        let (cells, _) = build_cells(&[DeployConfig::Digital]);
        cells
            .into_iter()
            .find(|c| c.model.name == "toyadmos_dae")
            .unwrap()
    }

    fn serialized(cell: &Cell) -> String {
        serde_json::to_string(&cell.compile().unwrap()).unwrap()
    }

    #[test]
    fn slots_are_nine_meta_and_one_fetch_per_key() {
        let fetches: Vec<usize> = (0..100).filter(|&s| slot(s).1).collect();
        assert_eq!(fetches.len(), 10);
        assert_eq!(slot(0), (0, false));
        assert_eq!(slot(9), (0, true));
        assert_eq!(slot(99), (9, true));
    }

    /// The checks bite: against a service that was never filled, the
    /// first request compiles — a miss — and the response check fails;
    /// asked again, the same request is a hit and passes.
    #[test]
    fn a_request_that_misses_the_cache_fails_its_check() {
        let cell = one_cell();
        let dir = scratch::fresh_dir("hot-test");
        let (service, server) = ServeHotHttp::boot(&dir);
        let job = JobRequest::compile_only("k", cell.model.graph.clone(), cell.deploy);
        let key_id = service.key_of(&job).unwrap().id();
        let expected = Expected {
            key_id: &key_id,
            artifact_hash: fnv64(serialized(&cell).as_bytes()),
            fetch: true,
        };
        let mut client = Client::connect(server.addr()).unwrap();
        let request = import_request(&cell, true);

        let status = client.exchange(&request).unwrap();
        let miss = check_response(status, &client.body, &expected);
        assert_eq!(miss, Err("a hot request missed the cache".to_owned()));

        let status = client.exchange(&request).unwrap();
        assert_eq!(check_response(status, &client.body, &expected), Ok(()));
        assert_eq!(service.stats().artifact_cache.misses, 1);

        // A wrong artifact hash, a wrong key and a stray artifact on a
        // metadata request are each caught.
        let wrong_hash = Expected {
            artifact_hash: 1,
            ..Expected {
                key_id: &key_id,
                ..expected
            }
        };
        assert!(check_response(200, &client.body, &wrong_hash).is_err());
        let wrong_key = Expected {
            key_id: "00",
            artifact_hash: wrong_hash.artifact_hash,
            fetch: true,
        };
        assert!(check_response(200, &client.body, &wrong_key).is_err());
        let meta = Expected {
            key_id: &key_id,
            artifact_hash: 0,
            fetch: false,
        };
        assert!(check_response(200, &client.body, &meta).is_err());
        assert!(check_response(503, b"{}", &meta).is_err());

        drop(client);
        server.shutdown();
        scratch::remove(&dir);
    }
}
