//! Where the benchmark writes: `benchmark/out/` in its own checkout
//! (listed in the root `.gitignore`), nowhere else.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// `benchmark/out/`, created on first use.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out is creatable");
    dir
}

/// A fresh, empty directory under `benchmark/out/tmp/`, unique to this
/// process and call.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = out_dir()
        .join("tmp")
        .join(format!("{tag}-{}-{n}", std::process::id()));
    // Left over only if an earlier process with this id was killed.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directories are creatable");
    dir
}

pub fn remove(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
}
