// Fixture: hotpath-reachability, helper half. NOT in `hot_modules` — a
// file-path check never looks here, which is exactly the loophole: hot
// code in `hotpath_reachability_hot.rs` calls into these helpers, so
// their per-call allocations still land on the hot path.

// POSITIVE: reachable from the hot entry `step_epoch`, allocates per
// call. The diagnostic must carry the hot-entry chain.
pub fn refresh_buffers(state: &mut Vec<f64>) {
    let mut staged = Vec::with_capacity(state.len());
    staged.extend_from_slice(state);
    state.clear();
    state.extend_from_slice(&staged);
}

// NEGATIVE: allocates, but no hot entry reaches it.
pub fn debug_dump(state: &[f64]) -> Vec<f64> {
    state.to_vec()
}

// NEGATIVE (suppressed): reachable, but the allocation is warm-up only.
pub fn reserve_scratch(cap: usize) -> Vec<f64> {
    // detlint: allow(hotpath-reachability, "warm-up allocation: runs once before the steady-state loop, not per step")
    Vec::with_capacity(cap)
}
