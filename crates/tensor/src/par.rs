//! Fixed row chunks for the dense kernels.
//!
//! Every hot kernel in this crate walks its output in **row chunks** whose
//! boundaries are a pure function of the matrix shape (see [`row_chunk`]),
//! on the calling rank's thread. Two rules keep each output row's bits
//! independent of how rows are partitioned — into chunks here, or by a
//! row mask on the tape:
//!
//! 1. **Row-local writes** — each output row is written by exactly one
//!    chunk, and the arithmetic producing a row never reads another row's
//!    output.
//! 2. **Serial-order accumulation** — reductions (scatter-add,
//!    `matmul_tn`'s inner-dimension sum) accumulate in input order; no
//!    arrival-order reductions.
//!
//! See `docs/PERFORMANCE.md`.

/// Rows per chunk for a `cols`-wide output: targets roughly 8 KiB of
/// output per chunk, floored so tiny matrices stay in one chunk. Purely a
/// function of the shape.
pub(crate) fn row_chunk(cols: usize) -> usize {
    (1024 / cols.max(1)).clamp(16, 1024)
}

/// Run `f(first_row, rows_in_chunk, chunk_data)` over the fixed row chunks
/// of `data` (a `rows x cols` row-major buffer), in row order.
pub(crate) fn for_row_chunks(
    data: &mut [f64],
    cols: usize,
    mut f: impl FnMut(usize, usize, &mut [f64]),
) {
    if cols == 0 || data.is_empty() {
        return;
    }
    debug_assert_eq!(data.len() % cols, 0);
    let chunk_rows = row_chunk(cols);
    for (ci, chunk) in data.chunks_mut(chunk_rows * cols).enumerate() {
        f(ci * chunk_rows, chunk.len() / cols, chunk);
    }
}

/// Elementwise `out[i] = f(src[i])` over row chunks (`src`/`out` are
/// `rows x cols` row-major buffers of equal length).
pub(crate) fn ew_map(src: &[f64], cols: usize, out: &mut [f64], f: impl Fn(f64) -> f64) {
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
    f: impl Fn(f64, f64) -> f64,
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
