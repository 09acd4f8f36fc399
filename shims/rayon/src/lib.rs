//! Offline stand-in for `rayon`: the small adaptor surface this workspace
//! uses, executed with real data parallelism on `std::thread::scope`.
//!
//! Two families are implemented:
//!
//! * `into_par_iter().map(f).collect()` — items are split into contiguous
//!   chunks, one per worker, and results are reassembled in order, so
//!   output ordering matches rayon's.
//! * `par_chunks_mut(n)` / `.enumerate().for_each(f)` — the chunked +
//!   indexed slice adaptors the deterministic tensor kernels are built on:
//!   disjoint `&mut` chunks of one slice are processed concurrently, and
//!   the chunk *boundaries* are chosen by the caller (never by the worker
//!   count), which is what keeps chunk-local arithmetic bit-identical at
//!   every thread count.
//!
//! Worker count resolution (cached): `CGNN_NUM_THREADS`
//! ([`env_num_threads`]), then `std::thread::available_parallelism()`
//! capped by the thread-local *budget* ([`set_thread_budget`]) if one is
//! armed — an explicit environment pin always wins over the budget. Tests
//! can pin a count for one closure with [`with_num_threads`], which wins
//! over everything on the current thread.
//!
//! The budget is how multi-rank launchers stop in-process ranks from
//! oversubscribing the machine: each rank thread gets
//! `max(1, cores / world_size)` workers instead of all of them, so kernel
//! parallelism and rank parallelism compose instead of contending.
//!
//! Vendored because the build environment has no reachable crates registry;
//! only the adaptor surface the workspace exercises is implemented.

use std::cell::Cell;
use std::sync::OnceLock;

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

/// The explicit worker-count pin `CGNN_NUM_THREADS`, if set (cached; an
/// empty value counts as unset). The one resolver of that variable: the
/// adaptors here and `cgnn-comm`'s per-rank budget both ask it, so a value
/// is a pin to both or to neither.
///
/// # Panics
///
/// When the variable holds something that is not a worker count.
pub fn env_num_threads() -> Option<usize> {
    static PIN: OnceLock<Option<usize>> = OnceLock::new();
    *PIN.get_or_init(|| parse_pin(std::env::var("CGNN_NUM_THREADS").ok().as_deref()))
}

fn parse_pin(raw: Option<&str>) -> Option<usize> {
    let raw = raw.filter(|v| !v.is_empty())?;
    match raw.parse::<usize>() {
        Ok(n) => Some(n.max(1)),
        Err(_) => panic!("CGNN_NUM_THREADS must be a worker count, got `{raw}`"),
    }
}

/// Cached hardware parallelism.
fn available() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static THREAD_BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Worker count used by every adaptor on this thread: the
/// [`with_num_threads`] override, else the explicit `CGNN_NUM_THREADS`
/// pin, else hardware parallelism capped by the thread-local budget.
pub fn current_num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n;
    }
    if let Some(n) = env_num_threads() {
        return n;
    }
    match THREAD_BUDGET.with(Cell::get) {
        Some(budget) => available().min(budget).max(1),
        None => available(),
    }
}

/// Arm (or clear, with `None`) this thread's worker-count budget,
/// returning the previous value so callers can restore it. The budget
/// caps the *default* worker count only; an explicit environment pin or
/// [`with_num_threads`] override still wins.
pub fn set_thread_budget(budget: Option<usize>) -> Option<usize> {
    THREAD_BUDGET.with(|cell| cell.replace(budget.map(|b| b.max(1))))
}

/// Run `f` with the worker count pinned to `n` on the current thread —
/// the hook the serial-vs-parallel bit-identity tests use to force both
/// execution paths inside one process regardless of the environment.
pub fn with_num_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    THREAD_OVERRIDE.with(|cell| {
        let prev = cell.replace(Some(n.max(1)));
        let out = f();
        cell.set(prev);
        out
    })
}

/// Conversion into a "parallel iterator" (shim: an eager item vector).
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// Eagerly materialized parallel iterator.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub fn map<U, F>(self, f: F) -> ParMap<T, F>
    where
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    pub fn collect<C: From<Vec<T>>>(self) -> C {
        C::from(self.items)
    }
}

/// A mapped parallel iterator; `collect` runs the map across threads.
pub struct ParMap<T: Send, F> {
    items: Vec<T>,
    f: F,
}

impl<T, U, F> ParMap<T, F>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    pub fn collect<C: From<Vec<U>>>(self) -> C {
        C::from(par_map_vec(self.items, &self.f))
    }
}

/// Chunked fork-join map preserving input order.
fn par_map_vec<T, U, F>(items: Vec<T>, f: &F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = current_num_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut source = items;
    let mut chunks: Vec<Vec<T>> = Vec::new();
    while !source.is_empty() {
        let rest = source.split_off(chunk.min(source.len()));
        chunks.push(std::mem::replace(&mut source, rest));
    }
    let mut out: Vec<U> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| scope.spawn(move || c.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        for h in handles {
            out.extend(h.join().expect("rayon-shim worker panicked"));
        }
    });
    out
}

/// Chunked mutable-slice adaptor (`rayon::slice::ParallelSliceMut`).
pub trait ParallelSliceMut<T: Send> {
    /// Split into disjoint `&mut` chunks of `chunk_size` elements (the last
    /// chunk may be shorter). Chunk boundaries are a pure function of the
    /// arguments — worker count only affects which thread runs which chunk.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            chunks: self.chunks_mut(chunk_size).collect(),
        }
    }
}

/// Parallel iterator over disjoint mutable chunks of one slice.
pub struct ParChunksMut<'a, T: Send> {
    chunks: Vec<&'a mut [T]>,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pair every chunk with its index (chunk `i` starts at element
    /// `i * chunk_size` of the original slice).
    pub fn enumerate(self) -> ParEnumerateChunksMut<'a, T> {
        ParEnumerateChunksMut {
            chunks: self.chunks,
        }
    }

    /// Run `f` on every chunk, concurrently.
    pub fn for_each(self, f: impl Fn(&mut [T]) + Sync) {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// Indexed variant of [`ParChunksMut`].
pub struct ParEnumerateChunksMut<'a, T: Send> {
    chunks: Vec<&'a mut [T]>,
}

impl<T: Send> ParEnumerateChunksMut<'_, T> {
    /// Run `f` on every `(chunk_index, chunk)`, concurrently. Workers take
    /// contiguous runs of chunks; because the chunks are disjoint writes,
    /// scheduling cannot influence the result.
    pub fn for_each(self, f: impl Fn((usize, &mut [T])) + Sync) {
        let n = self.chunks.len();
        let threads = current_num_threads().min(n.max(1));
        if threads <= 1 || n <= 1 {
            for (i, chunk) in self.chunks.into_iter().enumerate() {
                f((i, chunk));
            }
            return;
        }
        let per_worker = n.div_ceil(threads);
        let mut work: Vec<Vec<(usize, &mut [T])>> = Vec::new();
        let mut current = Vec::with_capacity(per_worker);
        for (i, chunk) in self.chunks.into_iter().enumerate() {
            current.push((i, chunk));
            if current.len() == per_worker {
                work.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            work.push(current);
        }
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = work
                .into_iter()
                .map(|batch| {
                    scope.spawn(move || {
                        for item in batch {
                            f(item);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("rayon-shim worker panicked");
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::with_num_threads;

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == 2 * i));
    }

    #[test]
    fn vec_collect_identity() {
        let v: Vec<u8> = vec![3, 1, 2].into_par_iter().collect();
        assert_eq!(v, vec![3, 1, 2]);
    }

    #[test]
    fn par_chunks_mut_visits_every_chunk_once() {
        for threads in [1, 2, 5] {
            let mut data = vec![0u64; 103];
            with_num_threads(threads, || {
                data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = (i * 10 + k) as u64;
                    }
                });
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
        }
    }

    #[test]
    fn thread_budget_caps_default_but_not_overrides() {
        let prev = super::set_thread_budget(Some(1));
        // The budget caps the hardware default on this thread...
        if super::env_num_threads().is_none() {
            assert_eq!(super::current_num_threads(), 1);
        }
        // ...but an explicit per-closure override still wins.
        with_num_threads(3, || assert_eq!(super::current_num_threads(), 3));
        // Restoring the previous budget round-trips.
        assert_eq!(super::set_thread_budget(prev), Some(1));
        assert_eq!(super::set_thread_budget(None), prev);
    }

    #[test]
    #[should_panic(expected = "CGNN_NUM_THREADS must be a worker count, got `abc`")]
    fn pin_is_a_count_or_unset_and_anything_else_is_rejected_by_name() {
        assert_eq!(super::parse_pin(None), None);
        assert_eq!(super::parse_pin(Some("")), None);
        assert_eq!(super::parse_pin(Some("3")), Some(3));
        assert_eq!(super::parse_pin(Some("0")), Some(1));
        super::parse_pin(Some("abc"));
    }

    #[test]
    fn with_num_threads_restores_previous() {
        let outer = super::current_num_threads();
        with_num_threads(7, || {
            assert_eq!(super::current_num_threads(), 7);
            with_num_threads(2, || assert_eq!(super::current_num_threads(), 2));
            assert_eq!(super::current_num_threads(), 7);
        });
        assert_eq!(super::current_num_threads(), outer);
    }
}
