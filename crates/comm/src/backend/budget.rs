//! Per-rank kernel thread budget, shared by every launcher.
//!
//! Multi-rank worlds on one machine oversubscribe the cores if every rank
//! keeps the full kernel worker pool: `ranks × workers` threads contend
//! for `cores`. Unless the worker count is explicitly pinned
//! (`CGNN_NUM_THREADS`), every launcher in this crate budgets each rank to
//! `max(1, cores / world_size)` workers ([`budget_for`]), which the process
//! launchers export to children as an explicit `CGNN_NUM_THREADS` pin.
//!
//! Kernel results are bit-identical at every worker count (chunk
//! boundaries never depend on it), so the budget is purely a scheduling
//! decision — it cannot change a trajectory.

/// The per-rank kernel worker budget for a world of `world` ranks, or
/// `None` when the worker count is explicitly pinned (the pin wins).
///
/// `max(1, cores / world)`, so `ranks × workers ≤ cores` — kernel
/// parallelism and rank parallelism compose instead of contending.
///
/// # Panics
///
/// Panics when `CGNN_NUM_THREADS` is set to something that is not a
/// worker count ([`rayon::env_num_threads`], the one reader of that
/// variable) — a configuration error, surfaced at launch rather than
/// running every rank on all cores.
pub(crate) fn budget_for(world: usize) -> Option<usize> {
    if rayon::env_num_threads().is_some() {
        return None;
    }
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    Some(auto_budget(cores, world))
}

fn auto_budget(cores: usize, world: usize) -> usize {
    (cores / world.max(1)).max(1)
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

#[cfg(test)]
mod tests {
    use super::auto_budget;

    #[test]
    fn thread_budget_formula() {
        assert_eq!(auto_budget(8, 4), 2);
        assert_eq!(auto_budget(8, 8), 1);
        assert_eq!(auto_budget(1, 8), 1, "never below one worker");
        assert_eq!(auto_budget(7, 2), 3, "floor division");
        assert_eq!(auto_budget(4, 0), 4, "degenerate world");
        // The headline constraint: ranks x workers never exceeds cores.
        for cores in 1..=16 {
            for world in 1..=16 {
                assert!(world * auto_budget(cores, world) <= cores.max(world));
            }
        }
    }
}
