//! Property/fuzz harness for the front door's JSON and query surfaces:
//! every request body the wire schema reads, sent through a real
//! loopback [`HttpServer`], gets a typed answer.
//!
//! The corpus is `POST /v1/compile` bodies ([`WireJob`]), a
//! `POST /v1/batch` body ([`WireBatch`]) and `POST /v1/import` query
//! strings. Every body carries `ds_cnn` as `model_hex` and together they
//! cover the tenant and `include_artifact` variants. Each is
//! mutated with seeded edits from the shared driver
//! (`tests/support/fuzz.rs`), half of them at its field boundaries and
//! the head of `model_hex` (the HTF header). Mutants go out one after
//! another on one keep-alive connection, as a client's requests would.
//! Each must be answered with either
//!
//! * a `200` whose body parses as [`WireResult`] (or, for a batch,
//!   [`WireBatchResult`], whose failed entries are typed as below), or
//! * a [`WireError`] whose `status` is the status line's: `400`
//!   `bad_request`, `422` `compile_error` / `import_error`, or `429`
//!   `rejected`.
//!
//! A `500`, any other status or kind, or a connection that stops
//! answering fails the harness; the driver minimises the mutant and
//! writes it to `CARGO_TARGET_TMPDIR`.

#[path = "support/client.rs"]
mod client;
#[path = "../../../tests/support/fuzz.rs"]
mod fuzz;

use client::{Client, Response};
use fuzz::{check, mutate, seeded, Alphabet};
use htvm::DeployConfig;
use htvm_models::{ds_cnn, QuantScheme};
use htvm_serve::http::wire::{
    encode_hex, WireBatch, WireBatchResult, WireError, WireJob, WireResult,
};
use htvm_serve::http::{HttpConfig, HttpServer};
use htvm_serve::{CompileService, ServeConfig};
use std::cell::RefCell;
use std::sync::Arc;

/// Bytes an edit plants: JSON structure and escapes, hex digits, and the
/// query string's delimiters. ASCII, so a body stays UTF-8.
const EDGES: Alphabet = Alphabet {
    edges: b"\"\\{}[],:0123456789abcdefABCDEF-. &=?%",
    ascii: true,
};

/// The route a corpus entry is sent to.
#[derive(Clone, Copy)]
enum Route {
    Compile,
    Batch,
    /// The mutated text is the query string; the body is the model.
    Import,
}

/// One corpus entry: where it goes, its clean text, and its marks.
struct Entry {
    route: Route,
    text: Vec<u8>,
    marks: Vec<usize>,
}

fn job(name: &str, model_hex: &str, variant: usize) -> WireJob {
    WireJob {
        name: name.to_owned(),
        tenant: (variant % 2 == 1).then(|| String::from("acme")),
        model_hex: model_hex.to_owned(),
        deploy: [DeployConfig::Both, DeployConfig::Digital][variant % 2],
        include_artifact: variant == 2,
    }
}

/// The clean corpus and the model the import route uploads.
fn corpus() -> (Vec<Entry>, Vec<u8>) {
    let model = htvm_frontend::emit(&ds_cnn(QuantScheme::Mixed).graph).expect("ds_cnn emits");
    let hex = encode_hex(&model);
    let json = |text: String| {
        // Field boundaries, then the first 16 bytes of the model's HTF
        // header as hex.
        let mut marks: Vec<usize> = (text.bytes().enumerate())
            .filter(|(_, b)| b"\"{}[],:".contains(b))
            .map(|(at, _)| at)
            .collect();
        let hex_at = text.find(&hex[..32]).expect("model_hex present");
        marks.extend(hex_at..hex_at + 32);
        (text.into_bytes(), marks)
    };
    let mut entries: Vec<Entry> = (0..3)
        .map(|variant| {
            let (text, marks) = json(serde_json::to_string(&job("fuzz", &hex, variant)).unwrap());
            Entry {
                route: Route::Compile,
                text,
                marks,
            }
        })
        .collect();
    let batch = WireBatch {
        jobs: vec![job("first", &hex, 1), job("second", &hex, 2)],
    };
    let (text, marks) = json(serde_json::to_string(&batch).unwrap());
    entries.push(Entry {
        route: Route::Batch,
        text,
        marks,
    });
    for query in [
        "name=fuzz&tenant=acme&deploy=digital&artifact=true",
        "deploy=both",
    ] {
        entries.push(Entry {
            route: Route::Import,
            text: query.as_bytes().to_vec(),
            marks: (query.bytes().enumerate())
                .filter(|(_, b)| b"=&".contains(b))
                .map(|(at, _)| at)
                .collect(),
        });
    }
    (entries, model)
}

/// A loopback front door and one keep-alive client connection to it,
/// reopened after the server closes it.
struct FrontDoor {
    server: HttpServer,
    client: RefCell<Option<Client>>,
    model: Vec<u8>,
}

impl FrontDoor {
    fn spawn(model: Vec<u8>) -> FrontDoor {
        let service = Arc::new(CompileService::new(ServeConfig {
            workers: 1,
            cache_budget_bytes: 64 << 20,
            tracer: htvm::Tracer::disabled(),
            ..ServeConfig::default()
        }));
        FrontDoor {
            server: HttpServer::spawn(service, "127.0.0.1:0", HttpConfig::default())
                .expect("ephemeral port binds"),
            client: RefCell::new(None),
            model,
        }
    }

    /// Sends `text` on `route`. A connection that stops answering
    /// panics here.
    fn exchange(&self, route: Route, text: &[u8]) -> Response {
        let (target, body) = match route {
            Route::Compile => ("/v1/compile".to_owned(), text),
            Route::Batch => ("/v1/batch".to_owned(), text),
            Route::Import => {
                let query = std::str::from_utf8(text).expect("mutants stay ASCII");
                (format!("/v1/import?{query}"), &self.model[..])
            }
        };
        let mut client =
            (self.client.take()).unwrap_or_else(|| Client::connect(self.server.addr()));
        let response = client.request_bytes("POST", &target, body);
        if !response
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            self.client.replace(Some(client));
        }
        response
    }
}

/// A typed error: its status and a documented kind for that status.
fn assert_typed(error: &WireError) {
    let kinds: &[&str] = match error.status {
        400 => &["bad_request"],
        422 => &["compile_error", "import_error"],
        429 => &["rejected"],
        status => panic!("status {status} for {error:?}"),
    };
    assert!(kinds.contains(&error.kind.as_str()), "{error:?}");
}

/// Sends one mutant and checks its answer; returns the status.
fn answer(door: &FrontDoor, route: Route, mutant: &[u8]) -> u16 {
    let response = door.exchange(route, mutant);
    let (status, body) = (response.status, &response.body);
    match (status, route) {
        (200, Route::Batch) => {
            let batch: WireBatchResult = serde_json::from_str(body).expect("a batch result");
            for entry in &batch.results {
                match (&entry.result, &entry.error) {
                    (Some(_), None) => {}
                    (None, Some(error)) => assert_typed(error),
                    _ => panic!("a batch entry is a result or an error: {body}"),
                }
            }
        }
        (200, _) => drop(serde_json::from_str::<WireResult>(body).expect("a result")),
        _ => {
            let error = response.error();
            assert_eq!(
                error.status, status,
                "the body's status is the status line's"
            );
            assert_typed(&error);
        }
    }
    status
}

fn label(route: Route) -> &'static str {
    match route {
        Route::Compile => "compile",
        Route::Batch => "batch",
        Route::Import => "import",
    }
}

#[test]
fn the_corpus_is_served() {
    let (entries, model) = corpus();
    let door = FrontDoor::spawn(model);
    for (i, entry) in entries.iter().enumerate() {
        let status = check(
            label(entry.route),
            &format!("e{i}-none"),
            &entry.text,
            |b| answer(&door, entry.route, b),
        );
        assert_eq!(status, 200, "corpus entry {i}");
    }
    door.server.shutdown();
}

#[test]
fn random_edits_get_a_result_or_a_typed_error() {
    let (entries, model) = corpus();
    let door = FrontDoor::spawn(model);
    let mut statuses = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let edit = |rng: &mut _, b: &mut _| mutate(rng, b, &EDGES, &entry.marks);
        for (name, mutant) in seeded(i as u64 * 1000, 64, &entry.text, 4, edit) {
            let mutation = format!("e{i}-{name}");
            let answer = |b: &[u8]| answer(&door, entry.route, b);
            statuses.push(check(label(entry.route), &mutation, &mutant, answer));
        }
    }
    // Both kinds of answer occur, so neither half of the check is vacuous.
    assert!(
        statuses.contains(&200) && statuses.contains(&400),
        "{statuses:?}"
    );
    door.server.shutdown();
}
