//! Tiling errors.

use crate::LayerGeometry;
use std::error::Error;
use std::fmt;

/// Errors from the tiling solver.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TilingError {
    /// Even the minimal 1×1×1×1 tile exceeds the memory budget — the layer
    /// cannot be executed on this engine at all.
    DoesNotFit {
        /// The offending layer.
        geom: Box<LayerGeometry>,
    },
}

impl fmt::Display for TilingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TilingError::DoesNotFit { geom } => write!(
                f,
                "no tile of the {:?} layer (c={}, k={}, {}x{}) fits the memory budget",
                geom.kind, geom.c, geom.k, geom.iy, geom.ix
            ),
        }
    }
}

impl Error for TilingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_geometry() {
        let e = TilingError::DoesNotFit {
            geom: Box::new(LayerGeometry::dense(640, 128)),
        };
        let s = e.to_string();
        assert!(s.contains("c=640"));
        assert!(s.contains("k=128"));
    }
}
