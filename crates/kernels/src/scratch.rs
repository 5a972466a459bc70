//! Reusable kernel scratch memory.
//!
//! The im2col patch matrix and the dense partial accumulator the fast
//! conv body needs are working memory, not results — allocating them per
//! call puts a `malloc`/`free` pair inside every DORY tile. Callers that
//! execute many tiles (the SoC simulator's tile loop) create one
//! [`KernelScratch`], size it once from the program's largest tile, and
//! thread it through every kernel call; one-shot callers (the reference
//! interpreter) fall back to a thread-local arena so repeated layer
//! evaluations also stop churning the heap.

use std::cell::RefCell;

/// Scratch buffers shared across kernel invocations.
///
/// Buffers only ever grow; `clear`ing between calls is unnecessary
/// because every user fully initializes the prefix it reads.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// im2col patch-matrix storage (`rows × cols` i32 elements).
    pub(crate) im2col: Vec<i32>,
    /// Dense partial-output accumulator for strided destinations.
    pub(crate) acc: Vec<i32>,
}

impl KernelScratch {
    /// An empty arena; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        KernelScratch::default()
    }

    /// Pre-sizes the arena: `im2col_elems` patch-matrix elements and
    /// `acc_elems` accumulator elements. Growth-only; smaller requests
    /// keep the existing capacity.
    pub fn reserve(&mut self, im2col_elems: usize, acc_elems: usize) {
        if self.im2col.len() < im2col_elems {
            self.im2col.resize(im2col_elems, 0);
        }
        if self.acc.len() < acc_elems {
            self.acc.resize(acc_elems, 0);
        }
    }

    /// The patch matrix (uninitialized content: callers overwrite every
    /// element they hand to the GEMM) and a zeroed accumulator, at once —
    /// the strided-destination scatter needs both simultaneously.
    pub(crate) fn pair(&mut self, im2col_len: usize, acc_len: usize) -> (&mut [i32], &mut [i32]) {
        if self.im2col.len() < im2col_len {
            self.im2col.resize(im2col_len, 0);
        }
        if self.acc.len() < acc_len {
            self.acc.resize(acc_len, 0);
        }
        let acc = &mut self.acc[..acc_len];
        acc.fill(0);
        (&mut self.im2col[..im2col_len], acc)
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::new());
}

/// Runs `f` with this thread's shared scratch arena — the no-arena entry
/// points borrow it so back-to-back kernel calls reuse one allocation.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut KernelScratch) -> R) -> R {
    THREAD_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_grows_monotonically() {
        let mut s = KernelScratch::new();
        s.reserve(100, 50);
        assert!(s.im2col.len() >= 100 && s.acc.len() >= 50);
        s.reserve(10, 10);
        assert!(s.im2col.len() >= 100, "reserve never shrinks");
    }

    #[test]
    fn acc_view_is_zeroed_between_uses() {
        let mut s = KernelScratch::new();
        let (_, acc) = s.pair(2, 4);
        acc.copy_from_slice(&[1, 2, 3, 4]);
        let (_, acc) = s.pair(2, 4);
        assert_eq!(acc, &[0, 0, 0, 0]);
    }
}
