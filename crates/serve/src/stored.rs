//! One owner for an artifact's bytes.
//!
//! An artifact is 42–371 KB of JSON that the service hands to the cache
//! (whose budget counts serialized length), to hits and coalesced
//! followers, to the disk envelope and to the HTTP body. A
//! [`StoredArtifact`] pairs it with its `serde_json::to_string`
//! rendering, made once in [`StoredArtifact::new`] — the only place
//! this crate serializes an [`Artifact`]. Every later hand-off is two
//! `Arc` bumps and every writer emits the same buffer verbatim, so wire
//! and restart byte-identity hold by construction.

use htvm::Artifact;
use serde::{DeError, Deserialize, Serialize, Sink, Value};
use std::sync::Arc;

/// A compiled artifact and its canonical serialized bytes, shared by
/// reference count. Dereferences to the [`Artifact`]; serializes as the
/// stored bytes, verbatim.
#[derive(Debug, Clone)]
pub struct StoredArtifact {
    artifact: Arc<Artifact>,
    json: Arc<str>,
}

impl StoredArtifact {
    /// Takes ownership of a compiled artifact and serializes it — once,
    /// here, for every later consumer.
    #[must_use]
    pub fn new(artifact: Artifact) -> Self {
        let json = serde_json::to_string(&artifact).expect("artifacts serialize infallibly");
        StoredArtifact {
            artifact: Arc::new(artifact),
            json: json.into(),
        }
    }

    /// The canonical bytes: compact `serde_json::to_string` of the
    /// artifact. Their length is what the cache budget counts.
    #[must_use]
    pub fn json(&self) -> &str {
        &self.json
    }
}

impl From<&Artifact> for StoredArtifact {
    fn from(artifact: &Artifact) -> Self {
        StoredArtifact::new(artifact.clone())
    }
}

impl std::ops::Deref for StoredArtifact {
    type Target = Artifact;
    fn deref(&self) -> &Artifact {
        &self.artifact
    }
}

impl PartialEq for StoredArtifact {
    fn eq(&self, other: &Self) -> bool {
        *self.artifact == *other.artifact
    }
}

impl PartialEq<Artifact> for StoredArtifact {
    fn eq(&self, other: &Artifact) -> bool {
        *self.artifact == *other
    }
}

impl Serialize for StoredArtifact {
    fn emit<S: Sink>(&self, sink: &mut S) {
        sink.raw(&self.json);
    }
}

impl Deserialize for StoredArtifact {
    fn from_content(v: &Value) -> Result<Self, DeError> {
        Artifact::from_content(v).map(StoredArtifact::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm::{Compiler, DeployConfig};
    use htvm_ir::{DType, GraphBuilder, Tensor};

    fn artifact() -> Artifact {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[4, 8, 8], DType::I8);
        let w = b.constant("w", Tensor::zeros(DType::I8, &[4, 4, 3, 3]));
        let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
        let y = b.requantize(c, 7, true).unwrap();
        Compiler::new()
            .with_deploy(DeployConfig::Both)
            .compile(&b.finish(&[y]).unwrap())
            .unwrap()
    }

    #[test]
    fn serializes_as_the_artifact_and_round_trips() {
        let plain = artifact();
        let stored = StoredArtifact::from(&plain);
        let direct = serde_json::to_string(&plain).unwrap();
        assert_eq!(stored.json(), direct);
        assert_eq!(serde_json::to_string(&stored).unwrap(), direct);
        assert_eq!(serde_json::to_string(&*stored).unwrap(), direct);
        let back: StoredArtifact = serde_json::from_str(&direct).unwrap();
        assert_eq!(back, plain);
        assert_eq!(back.json(), direct);
        // Clones share both allocations; a rebuilt handle owns its own.
        let twin = stored.clone();
        assert!(std::ptr::eq(&*twin, &*stored) && std::ptr::eq(twin.json(), stored.json()));
        assert!(!std::ptr::eq(&*back, &*stored) && !std::ptr::eq(back.json(), stored.json()));
    }
}
