//! Reusable scratch workspaces for the allocation-free query path.
//!
//! The steady-state serving story (ROADMAP: cut-query serving) needs
//! `cut_batch_into`/`cov_batch_into` and the per-tree solve stages to
//! stop paying the allocator on every call. A [`Scratch`] bundles every transient
//! buffer those kernels need — packed sort keys, run boundaries, rect
//! batches, range-tree cover items, Euler-tour sweep state — as plain
//! `Vec`s that are `clear()`ed (capacity retained) instead of dropped.
//! After the first call at a given batch size every buffer is warm and
//! the kernels run with **zero heap allocations** (gated by the
//! counting-allocator smoke in `pmc-bench`).
//!
//! Ownership rules (DESIGN.md §13):
//!
//! * A `Scratch` is exclusively borrowed for the duration of one kernel
//!   call; kernels never stash pointers into it across calls.
//! * Buffers carry no meaning between calls — every kernel `clear()`s
//!   what it uses before writing. Reuse is an optimization, never a
//!   behavioral input, so results are bit-identical whichever `Scratch`
//!   (fresh or warm) serves a call.
//! * Callers that own no workspace go through [`with_scratch`], a
//!   per-worker thread-local pool that recycles workspaces
//!   pop/push-style so the steady state touches no allocator.

use crate::sort::SortScratch;
use std::cell::RefCell;

/// The transient buffers of the batched query kernels, named after
/// their primary role. All fields are public: the kernels split borrows
/// field-by-field (`&scratch.rects` next to `&mut scratch.cover`), which
/// accessor methods cannot express.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Packed `(key, slot)` pairs — batch dedup sorts.
    pub keys: Vec<(u64, u32)>,
    /// `[start, end)` run boundaries over `keys`.
    pub runs: Vec<(u32, u32)>,
    /// Per-run primary accumulators (e.g. `cov(e) + cov(f)`).
    pub vals: Vec<u64>,
    /// Per-run secondary accumulators (e.g. the fused `cov(e, f)`).
    pub acc: Vec<u64>,
    /// Tagged rectangles `(x1, x2, y1, y2, tag)` for the fused
    /// range-tree pass.
    pub rects: Vec<(u32, u32, u32, u32, u32)>,
    /// Range-tree cover items `(packed level/node, packed y-range, tag)`.
    pub cover: Vec<(u64, u64, u32)>,
    /// Packed `(position, query)` orderings for offline sweeps.
    pub order: Vec<u64>,
    /// Monotone-stack positions for offline sweeps.
    pub stack: Vec<u32>,
    /// Radix-sort workspace for `(u64, u32, u32)` items (symmetric join).
    pub sort3: SortScratch<(u64, u32, u32)>,
}

impl Scratch {
    pub fn new() -> Self {
        Scratch::default()
    }
}

thread_local! {
    /// Per-worker workspace pool. A pool (rather than a single slot)
    /// keeps [`with_scratch`] reentrancy-safe: a kernel that calls
    /// another kernel on the same thread pops a second workspace instead
    /// of aliasing the first.
    static WORKER_SCRATCH: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with this worker's pooled [`Scratch`]. The workspace is
/// popped before and pushed back after, so nested calls compose and the
/// steady state performs no allocation (the pool `Vec` and every buffer
/// inside the recycled workspaces keep their capacity).
pub fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut s = WORKER_SCRATCH
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    let r = f(&mut s);
    WORKER_SCRATCH.with(|pool| pool.borrow_mut().push(s));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_scratch_recycles_capacity() {
        let cap0 = with_scratch(|s| {
            s.keys.clear();
            s.keys.extend((0..1000u32).map(|i| (i as u64, i)));
            s.keys.capacity()
        });
        // The same thread gets the same (warm) workspace back.
        let cap1 = with_scratch(|s| s.keys.capacity());
        assert!(cap1 >= cap0);
        assert!(cap1 >= 1000);
    }

    #[test]
    fn with_scratch_is_reentrant() {
        let (a, b) = with_scratch(|outer| {
            outer.stack.clear();
            outer.stack.push(7);
            let inner_val = with_scratch(|inner| {
                // The nested workspace is a different object.
                inner.stack.clear();
                inner.stack.push(9);
                inner.stack[0]
            });
            (outer.stack[0], inner_val)
        });
        assert_eq!((a, b), (7, 9));
    }
}
