// Fixture: hotpath-reachability, hot half. The test config lists THIS
// file in `hot_modules`; its fns are the reachability entry points and
// report their own allocations. `step_epoch`'s allocations live one file
// over, in `hotpath_reachability.rs` — the loophole the call graph closes.

pub fn step_epoch(state: &mut Vec<f64>) {
    let scratch = reserve_scratch(state.len());
    refresh_buffers(state);
    drop(scratch);
}

pub fn new() -> Vec<f64> {
    // Constructors are exempt: setup-time allocation is fine.
    Vec::with_capacity(8)
}

// POSITIVE: allocation inside the hot module itself.
pub fn positive(n: usize) -> Vec<f64> {
    let mut buf = Vec::new();
    buf.extend(vec![0.0; n]);
    buf
}

// NEGATIVE (suppressed): audited allocation inside the hot module.
pub fn suppressed(xs: &[f64]) -> Vec<f64> {
    // detlint: allow(hotpath-reachability, "fixture: one-time export copy outside the steady-state step loop")
    xs.to_vec()
}
