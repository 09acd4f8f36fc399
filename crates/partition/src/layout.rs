//! Process-grid layouts: how R ranks tile the element grid.
//!
//! NekRS's partitioner (per the paper's Table II discussion) switches from
//! "vertical rectangular chunks" at small rank counts to sub-cubes at larger
//! ones. We expose slab (1D), pencil (2D), and block (3D) layouts plus an
//! automatic chooser that minimizes the communicated surface area.

/// A 3D process grid `rx * ry * rz = R`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    pub rx: usize,
    pub ry: usize,
    pub rz: usize,
}

impl Layout {
    /// The `rx x ry x rz` grid.
    ///
    /// # Panics
    /// If a dimension is zero.
    pub fn new(rx: usize, ry: usize, rz: usize) -> Self {
        assert!(rx > 0 && ry > 0 && rz > 0, "layout dims must be positive");
        Layout { rx, ry, rz }
    }

    /// 1D slab decomposition along x.
    pub fn slab(r: usize) -> Self {
        Layout::new(r, 1, 1)
    }

    /// 2D pencil decomposition in x-y, as square as possible.
    pub fn pencil(r: usize) -> Self {
        let (a, b) = two_factor(r);
        Layout::new(a, b, 1)
    }

    /// 3D block decomposition, as cubic as possible (like
    /// `MPI_Dims_create`): factorization of `r` minimizing the sum of
    /// per-rank block surface areas for an `ex x ey x ez` element grid.
    ///
    /// # Panics
    /// If `r` is zero.
    #[expect(
        clippy::expect_used,
        reason = "`divisors(r)` holds 1 for every `r > 0`; `# Panics` covers `r == 0`"
    )]
    pub fn block(r: usize, (ex, ey, ez): (usize, usize, usize)) -> Self {
        let mut best: Option<(f64, Layout)> = None;
        for rx in divisors(r) {
            for ry in divisors(r / rx) {
                let rz = r / rx / ry;
                // Per-rank block extents (fractional is fine for scoring).
                let bx = ex as f64 / rx as f64;
                let by = ey as f64 / ry as f64;
                let bz = ez as f64 / rz as f64;
                // Communicated faces per rank (ignore domain boundary).
                let surf = bx * by + by * bz + bx * bz;
                if best.is_none_or(|(s, _)| surf < s) {
                    best = Some((surf, Layout::new(rx, ry, rz)));
                }
            }
        }
        best.expect("r has at least the trivial factorization").1
    }

    pub fn num_ranks(&self) -> usize {
        self.rx * self.ry * self.rz
    }

    /// Rank id of grid cell `(cx, cy, cz)`.
    pub fn rank_of_cell(&self, (cx, cy, cz): (usize, usize, usize)) -> usize {
        debug_assert!(cx < self.rx && cy < self.ry && cz < self.rz);
        cx + self.rx * (cy + self.ry * cz)
    }

    /// Grid cell of rank `r`.
    pub fn cell_of_rank(&self, r: usize) -> (usize, usize, usize) {
        debug_assert!(r < self.num_ranks());
        (
            r % self.rx,
            (r / self.rx) % self.ry,
            r / (self.rx * self.ry),
        )
    }
}

/// Quasi-uniform split of `n` items into `parts` contiguous ranges; the
/// first `n % parts` ranges get one extra item. Returns range starts with a
/// final sentinel (`len == parts + 1`).
///
/// # Panics
/// If `parts` is zero.
pub fn uniform_ranges(n: usize, parts: usize) -> Vec<usize> {
    assert!(parts > 0);
    let base = n / parts;
    let extra = n % parts;
    let mut starts = Vec::with_capacity(parts + 1);
    let mut acc = 0;
    for i in 0..parts {
        starts.push(acc);
        acc += base + usize::from(i < extra);
    }
    starts.push(acc);
    debug_assert_eq!(acc, n);
    starts
}

/// Which part of a `uniform_ranges(n, parts)` split contains index `i`.
pub fn range_of(starts: &[usize], i: usize) -> usize {
    debug_assert!(starts.last().is_some_and(|&end| i < end));
    // Binary search for the last start <= i.
    match starts.binary_search(&i) {
        Ok(k) => k.min(starts.len() - 2),
        Err(k) => k - 1,
    }
}

fn two_factor(r: usize) -> (usize, usize) {
    let mut a = (r as f64).sqrt() as usize;
    while a > 1 && !r.is_multiple_of(a) {
        a -= 1;
    }
    (a.max(1), r / a.max(1))
}

fn divisors(n: usize) -> Vec<usize> {
    (1..=n).filter(|d| n.is_multiple_of(*d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_layout_of_cube_is_cubic() {
        let l = Layout::block(64, (16, 16, 16));
        assert_eq!((l.rx, l.ry, l.rz), (4, 4, 4));
        let l = Layout::block(8, (16, 16, 16));
        assert_eq!((l.rx, l.ry, l.rz), (2, 2, 2));
    }

    #[test]
    fn block_layout_follows_anisotropy() {
        // A long thin domain should be cut along its long axis.
        let l = Layout::block(4, (64, 4, 4));
        assert_eq!((l.rx, l.ry, l.rz), (4, 1, 1));
    }

    #[test]
    fn layout_rank_cell_roundtrip() {
        let l = Layout::new(3, 4, 5);
        for r in 0..l.num_ranks() {
            assert_eq!(l.rank_of_cell(l.cell_of_rank(r)), r);
        }
    }

    #[test]
    fn uniform_ranges_cover_exactly() {
        for n in [1usize, 7, 16, 100] {
            for parts in [1usize, 2, 3, 7] {
                let s = uniform_ranges(n, parts);
                assert_eq!(s[0], 0);
                assert_eq!(*s.last().unwrap(), n);
                let sizes: Vec<usize> = s.windows(2).map(|w| w[1] - w[0]).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "n={n} parts={parts} sizes={sizes:?}");
            }
        }
    }

    #[test]
    fn range_of_finds_owner() {
        let s = uniform_ranges(10, 3); // [0,4,7,10]
        assert_eq!(range_of(&s, 0), 0);
        assert_eq!(range_of(&s, 3), 0);
        assert_eq!(range_of(&s, 4), 1);
        assert_eq!(range_of(&s, 9), 2);
    }

    #[test]
    fn pencil_is_two_dimensional() {
        let l = Layout::pencil(12);
        assert_eq!(l.rz, 1);
        assert_eq!(l.rx * l.ry, 12);
    }
}
