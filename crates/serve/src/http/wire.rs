//! The JSON wire schema of the front door.
//!
//! Requests and responses reuse the crate's existing serde types
//! (`DeployConfig`, `Artifact`, `ServiceStats`, `Rejection`) so a
//! compile driven over HTTP is byte-identical to one driven in-process.
//! A model enters only as HTF bytes, through the same importer as
//! `POST /v1/import`. Errors are a single typed envelope
//! ([`WireError`]) whose `status` always matches the HTTP status line,
//! so clients can switch on either.

use crate::service::{CompileService, JobError, JobRequest, JobResult, Rejection};
use crate::stored::StoredArtifact;
use htvm::DeployConfig;
use serde::{Deserialize, Serialize};

/// `POST /v1/compile` body: one compile job.
///
/// The model arrives as a hex-encoded HTF model file (`model_hex`, the
/// `htvm-frontend` format). Raw (non-hex) model bytes go to
/// `POST /v1/import` instead.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WireJob {
    /// Client-chosen label, echoed in the response and trace spans.
    pub name: String,
    /// Tenant for admission accounting; defaults to `"anon"`.
    #[serde(default)]
    pub tenant: Option<String>,
    /// Hex-encoded HTF model-file bytes, imported server-side.
    pub model_hex: String,
    /// Deploy target.
    pub deploy: DeployConfig,
    /// Include the full serialized artifact in the response (they can
    /// be large; default is metadata only).
    #[serde(default)]
    pub include_artifact: bool,
}

impl WireJob {
    /// Converts the wire job into a service request, importing
    /// `model_hex` through `service`.
    ///
    /// # Errors
    ///
    /// `400` when the hex is malformed; `422 import_error` when the
    /// decoded model bytes fail to import (counted in the service's
    /// `rejected_import`).
    pub fn into_request(self, service: &CompileService) -> Result<JobRequest, WireError> {
        let bytes = crate::hexfmt::decode(self.model_hex.trim()).map_err(|detail| {
            WireError::new(
                400,
                "bad_request",
                format!("job '{}': malformed model_hex: {detail}", self.name),
            )
        })?;
        let graph = service
            .import_model(&self.name, &bytes)
            .map_err(|e| WireError::from_job_error(&e))?;
        let mut request = JobRequest::compile_only(&self.name, graph, self.deploy);
        if let Some(tenant) = self.tenant {
            request = request.with_tenant(&tenant);
        }
        Ok(request)
    }
}

/// Hex-encodes model bytes for [`WireJob::model_hex`].
#[must_use]
pub fn encode_hex(bytes: &[u8]) -> String {
    crate::hexfmt::encode(bytes)
}

/// `POST /v1/batch` body: jobs scheduled together, so in-batch
/// coalescing and cost-aware ordering apply across them.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WireBatch {
    /// The jobs, in request order; results come back in the same order.
    pub jobs: Vec<WireJob>,
}

/// One completed job on the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireResult {
    /// The job's label, echoed from the request.
    pub job: String,
    /// Display digest of the job's cache key.
    pub key_id: String,
    /// Whether the artifact came from the cache.
    pub cache_hit: bool,
    /// Whether the job was coalesced onto another job's compile.
    pub coalesced: bool,
    /// Microseconds queued before a worker picked the job up.
    pub queue_us: u64,
    /// Microseconds of service time.
    pub service_us: u64,
    /// The artifact, when the request asked for it: the service's
    /// stored bytes, emitted verbatim. Must stay the last field —
    /// clients hash it in place.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub artifact: Option<StoredArtifact>,
}

impl WireResult {
    /// Converts a service result, optionally attaching the artifact.
    #[must_use]
    pub fn from_result(result: JobResult, include_artifact: bool) -> Self {
        WireResult {
            job: result.job,
            key_id: result.key_id,
            cache_hit: result.cache_hit,
            coalesced: result.coalesced,
            queue_us: result.queue_us,
            service_us: result.service_us,
            artifact: include_artifact.then_some(result.artifact),
        }
    }
}

/// One per-job outcome in a batch response: exactly one of `result`
/// and `error` is set (an `Ok`/`Err` pair spelled with two `Option`s,
/// which keeps the wire shape a plain object in every JSON client).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireBatchEntry {
    /// The completed job, when it succeeded.
    #[serde(default)]
    pub result: Option<WireResult>,
    /// The typed error, when it failed or was shed.
    #[serde(default)]
    pub error: Option<WireError>,
}

impl WireBatchEntry {
    /// Wraps one service outcome.
    #[must_use]
    pub fn from_outcome(outcome: Result<WireResult, WireError>) -> Self {
        match outcome {
            Ok(result) => WireBatchEntry {
                result: Some(result),
                error: None,
            },
            Err(error) => WireBatchEntry {
                result: None,
                error: Some(error),
            },
        }
    }
}

/// `POST /v1/batch` response: per-job outcomes in request order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireBatchResult {
    /// One entry per submitted job, in request order.
    pub results: Vec<WireBatchEntry>,
}

/// The typed error envelope every non-2xx response carries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireError {
    /// HTTP status (also on the status line for top-level errors).
    pub status: u16,
    /// Machine-readable kind: `bad_request`, `not_found`,
    /// `method_not_allowed`, `payload_too_large`, `not_implemented`,
    /// `http_version`, `overloaded`, `internal`, `rejected`,
    /// `compile_error`, `import_error`. `internal` is a
    /// `500` for a request whose handler panicked.
    /// For `import_error`, `detail` leads with the
    /// `htvm_frontend::ImportError` variant name (`Truncated`,
    /// `OutOfBounds`, `BadMagic`, …).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
    /// The structured rejection, for `kind == "rejected"` (HTTP 429).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rejection: Option<Rejection>,
}

impl WireError {
    /// A plain error with no rejection payload.
    #[must_use]
    pub fn new(status: u16, kind: &str, detail: String) -> Self {
        WireError {
            status,
            kind: kind.to_owned(),
            detail,
            rejection: None,
        }
    }

    /// Maps a service-layer job error onto the wire: shed jobs are
    /// `429` with the structured rejection attached; compile and import
    /// failures are `422` (the request was well-formed; the payload
    /// cannot be processed).
    #[must_use]
    pub fn from_job_error(error: &JobError) -> Self {
        match error {
            JobError::Rejected { rejection, .. } => WireError {
                status: 429,
                kind: String::from("rejected"),
                detail: error.to_string(),
                rejection: Some(rejection.clone()),
            },
            JobError::Compile { .. } => WireError::new(422, "compile_error", error.to_string()),
            JobError::Import { .. } => WireError::new(422, "import_error", error.to_string()),
        }
    }
}

/// `GET /v1/healthz` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireHealth {
    /// Always `true` when the service answers.
    pub ok: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm::Compiler;
    use htvm_ir::{DType, GraphBuilder};

    #[test]
    fn the_artifact_rides_last_and_verbatim() {
        // A name that needs JSON escaping: embedding the stored bytes
        // as a string (or re-rendering them) would double the escapes.
        let mut b = GraphBuilder::new();
        let x = b.input("in \"quoted\" \\ name", &[4, 4, 4], DType::I8);
        let y = b.relu(x).unwrap();
        let artifact = Compiler::new().compile(&b.finish(&[y]).unwrap()).unwrap();
        let direct = serde_json::to_string(&artifact).unwrap();
        assert!(direct.contains(r#"in \"quoted\" \\ name"#));

        let mut wire = WireResult {
            job: String::from("j"),
            key_id: String::from("k"),
            cache_hit: true,
            coalesced: false,
            queue_us: 1,
            service_us: 2,
            artifact: Some(StoredArtifact::new(artifact)),
        };
        let head = r#"{"job":"j","key_id":"k","cache_hit":true,"coalesced":false,"queue_us":1,"service_us":2"#;
        assert_eq!(
            serde_json::to_string(&wire).unwrap(),
            format!(r#"{head},"artifact":{direct}}}"#)
        );
        let back: WireResult =
            serde_json::from_str(&serde_json::to_string(&wire).unwrap()).unwrap();
        assert_eq!(back.artifact, wire.artifact);
        assert_eq!(back.artifact.unwrap().json(), direct);

        // Metadata-only responses keep the field (the vendored derive
        // ignores `skip_serializing_if`), still last.
        wire.artifact = None;
        assert_eq!(
            serde_json::to_string(&wire).unwrap(),
            format!(r#"{head},"artifact":null}}"#)
        );
    }
}
