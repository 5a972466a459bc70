//! The thread-local arena the packed kernels narrow their operands into.
//!
//! Packed `i16` operands are working memory, not results — allocating
//! them per call would put a `malloc`/`free` pair inside every DORY tile.
//! Each thread keeps two buffers that only ever grow; every user clears
//! and refills what it reads, so back-to-back kernel calls (the SoC
//! simulator's tile loop, the reference interpreter's layers) reuse one
//! allocation.

use std::cell::RefCell;

thread_local! {
    static PACKED: RefCell<(Vec<i16>, Vec<i16>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Runs `f` with this thread's two packing buffers.
pub(crate) fn with_packed<R>(f: impl FnOnce(&mut Vec<i16>, &mut Vec<i16>) -> R) -> R {
    PACKED.with(|p| {
        let (a, b) = &mut *p.borrow_mut();
        f(a, b)
    })
}
