//! Per-rank kernel thread budget, shared by every launcher.
//!
//! Multi-rank worlds on one machine oversubscribe the cores if every rank
//! keeps the full kernel worker pool: `ranks × workers` threads contend
//! for `cores`. Unless the worker count is explicitly pinned
//! (`CGNN_NUM_THREADS` / `RAYON_NUM_THREADS`), every launcher in this
//! crate budgets each rank to `max(1, cores / world_size)` workers
//! ([`budget_for`]), which the process launchers export to children as an
//! explicit `CGNN_NUM_THREADS` pin. `CGNN_THREAD_BUDGET=off` disables the
//! clamp, `CGNN_THREAD_BUDGET=<n>` forces a per-rank worker count.
//!
//! Kernel results are bit-identical at every worker count (chunk
//! boundaries never depend on it), so the budget is purely a scheduling
//! decision — it cannot change a trajectory.

/// The per-rank kernel worker budget for a world of `world` ranks, or
/// `None` when the worker count is explicitly pinned (the pin wins) or
/// budgeting is disabled (`CGNN_THREAD_BUDGET=off`).
///
/// Default policy: `max(1, cores / world)`, so
/// `ranks × workers ≤ cores` — kernel parallelism and rank parallelism
/// compose instead of contending. `CGNN_THREAD_BUDGET=<n>` forces a
/// per-rank count.
///
/// # Panics
///
/// Panics when `CGNN_THREAD_BUDGET` is set to something other than
/// `auto`, `off`, or a worker count — a configuration error at launch,
/// surfaced loudly rather than silently mis-budgeting the kernel pool.
pub(crate) fn budget_for(world: usize) -> Option<usize> {
    for var in ["CGNN_NUM_THREADS", "RAYON_NUM_THREADS"] {
        // detlint: allow(env-var-registry, "both names are registered knobs; the loop only probes whether either pin is present")
        if std::env::var(var).map(|v| !v.is_empty()).unwrap_or(false) {
            return None;
        }
    }
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    match std::env::var("CGNN_THREAD_BUDGET") {
        Ok(v) if v.eq_ignore_ascii_case("off") => None,
        Ok(v) if !v.is_empty() && !v.eq_ignore_ascii_case("auto") => match v.parse::<usize>() {
            Ok(n) => Some(n.max(1)),
            Err(_) => {
                // detlint: allow(unwrap-in-lib, "config error at startup: fail loudly rather than silently mis-budgeting the kernel pool")
                panic!("CGNN_THREAD_BUDGET must be `auto`, `off`, or a per-rank worker count, got `{v}`")
            }
        },
        _ => Some((cores / world.max(1)).max(1)),
    }
}

/// RAII application of a worker budget to the current thread's kernel
/// pool; restores the previous budget on drop.
pub(crate) struct BudgetGuard(Option<usize>);

impl BudgetGuard {
    pub(crate) fn arm(budget: Option<usize>) -> Option<BudgetGuard> {
        budget.map(|b| BudgetGuard(rayon::set_thread_budget(Some(b))))
    }
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        rayon::set_thread_budget(self.0);
    }
}
