//! Deterministic row-chunk parallelism for the dense kernels.
//!
//! Every hot kernel in this crate parallelizes over **row chunks** of its
//! output with two invariants that together make the parallel result
//! bit-identical to the serial one at any worker count:
//!
//! 1. **Chunk-local writes** — each output row is written by exactly one
//!    chunk, and the arithmetic producing a row never reads another chunk's
//!    output, so the per-row instruction sequence is the serial one.
//! 2. **Per-chunk sequential accumulation** — reductions (scatter-add,
//!    `matmul_tn`'s inner-dimension sum) accumulate in the serial input
//!    order within the chunk that owns the destination row; no atomics, no
//!    arrival-order reductions.
//!
//! Chunk boundaries are a pure function of the matrix shape (see
//! [`row_chunk`]) — worker count only decides which thread runs which
//! chunk. `CGNN_NUM_THREADS` pins the worker count; see
//! `docs/PERFORMANCE.md`.

use rayon::ParallelSliceMut;

/// Rows per chunk for a `cols`-wide output: targets roughly 8 KiB of
/// output per chunk, floored so tiny matrices stay in one chunk. Purely a
/// function of the shape — never of the worker count.
pub(crate) fn row_chunk(cols: usize) -> usize {
    (1024 / cols.max(1)).clamp(16, 1024)
}

/// Run `f(first_row, rows_in_chunk, chunk_data)` over fixed row chunks of
/// `data` (a `rows x cols` row-major buffer), concurrently when worker
/// threads are available and serially (same chunk order) otherwise.
pub(crate) fn for_row_chunks(
    data: &mut [f64],
    cols: usize,
    f: impl Fn(usize, usize, &mut [f64]) + Sync,
) {
    if cols == 0 || data.is_empty() {
        return;
    }
    debug_assert_eq!(data.len() % cols, 0);
    let chunk_rows = row_chunk(cols);
    data.par_chunks_mut(chunk_rows * cols)
        .enumerate()
        .for_each(|(ci, chunk)| {
            let first_row = ci * chunk_rows;
            f(first_row, chunk.len() / cols, chunk);
        });
}

/// Elementwise `out[i] = f(src[i])` over row chunks (`src`/`out` are
/// `rows x cols` row-major buffers of equal length).
pub(crate) fn ew_map(src: &[f64], cols: usize, out: &mut [f64], f: impl Fn(f64) -> f64 + Sync) {
    debug_assert_eq!(src.len(), out.len());
    for_row_chunks(out, cols, |first_row, _nrows, chunk| {
        let base = first_row * cols;
        let s = &src[base..base + chunk.len()];
        for (o, &x) in chunk.iter_mut().zip(s.iter()) {
            *o = f(x);
        }
    });
}

/// Elementwise `out[i] = f(a[i], b[i])` over row chunks.
pub(crate) fn ew_zip(
    a: &[f64],
    b: &[f64],
    cols: usize,
    out: &mut [f64],
    f: impl Fn(f64, f64) -> f64 + Sync,
) {
    debug_assert_eq!(a.len(), out.len());
    debug_assert_eq!(b.len(), out.len());
    for_row_chunks(out, cols, |first_row, _nrows, chunk| {
        let base = first_row * cols;
        let sa = &a[base..base + chunk.len()];
        let sb = &b[base..base + chunk.len()];
        for ((o, &x), &y) in chunk.iter_mut().zip(sa.iter()).zip(sb.iter()) {
            *o = f(x, y);
        }
    });
}
