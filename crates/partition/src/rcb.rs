//! Recursive coordinate bisection (RCB) on element centroids.
//!
//! RCB handles rank counts that are not friendly factorizations of the
//! element grid, at the cost of less regular sub-domain shapes. It mirrors
//! the geometric partitioners shipped with spectral-element solvers.

use cgnn_mesh::BoxMesh;

/// Partition `mesh` elements into `n_ranks` parts by recursive coordinate
/// bisection. Returns the element-to-rank owner map.
pub fn rcb_partition(mesh: &BoxMesh, n_ranks: usize) -> Vec<u32> {
    let centroids: Vec<[f64; 3]> = (0..mesh.num_elements())
        .map(|e| {
            let (ei, ej, ek) = mesh.elem_coords(e);
            // Element-grid coordinates are enough; RCB only compares.
            [ei as f64, ej as f64, ek as f64]
        })
        .collect();
    let mut owner = vec![0u32; centroids.len()];
    let mut ids: Vec<usize> = (0..centroids.len()).collect();
    bisect(&centroids, &mut ids, 0, n_ranks, &mut owner);
    owner
}

/// Recursively split `ids` into `parts` groups, assigning ranks starting at
/// `rank0`. Splits are proportional (`floor(parts/2) : ceil(parts/2)`) so
/// odd rank counts stay balanced.
#[expect(
    clippy::expect_used,
    reason = "centroids and their extents are finite, and `0..3` is not empty"
)]
fn bisect(
    centroids: &[[f64; 3]],
    ids: &mut [usize],
    rank0: usize,
    parts: usize,
    owner: &mut [u32],
) {
    if parts == 1 {
        for &e in ids.iter() {
            owner[e] = rank0 as u32;
        }
        return;
    }
    // Longest extent axis of the current id set.
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for &e in ids.iter() {
        for d in 0..3 {
            lo[d] = lo[d].min(centroids[e][d]);
            hi[d] = hi[d].max(centroids[e][d]);
        }
    }
    let axis = (0..3)
        .max_by(|&a, &b| {
            (hi[a] - lo[a])
                .partial_cmp(&(hi[b] - lo[b]))
                .expect("finite extents")
        })
        .expect("three axes");

    let left_parts = parts / 2;
    let right_parts = parts - left_parts;
    // Weighted split point: left gets left_parts/parts of the elements.
    let split = ids.len() * left_parts / parts;
    // Tie-break on the other axes, then element id for determinism.
    ids.select_nth_unstable_by(split.max(1) - 1, |&a, &b| {
        let ca = centroids[a];
        let cb = centroids[b];
        ca[axis]
            .partial_cmp(&cb[axis])
            .expect("finite centroid")
            .then_with(|| a.cmp(&b))
    });
    // select_nth puts the k-th element in place with smaller elements before
    // it; we want exactly `split` elements on the left.
    let (left, right) = ids.split_at_mut(split);
    bisect(centroids, left, rank0, left_parts, owner);
    bisect(centroids, right, rank0 + left_parts, right_parts, owner);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rcb_part_sizes_are_proportional() {
        let mesh = BoxMesh::unit_cube(4, 1); // 64 elements
        for r in [2usize, 3, 4, 5, 8, 16] {
            let owner = rcb_partition(&mesh, r);
            let mut counts = vec![0usize; r];
            for &o in &owner {
                counts[o as usize] += 1;
            }
            let min = *counts.iter().min().unwrap();
            let max = *counts.iter().max().unwrap();
            assert!(min > 0, "r={r}: empty part");
            assert!(max - min <= (64 / r).max(1), "r={r} counts={counts:?}");
        }
    }

    #[test]
    fn rcb_two_parts_split_longest_axis() {
        let mesh = BoxMesh::new((8, 2, 2), 1, (8.0, 1.0, 1.0), false);
        let owner = rcb_partition(&mesh, 2);
        for e in 0..mesh.num_elements() {
            let (ei, _, _) = mesh.elem_coords(e);
            let expect = usize::from(ei >= 4);
            assert_eq!(owner[e] as usize, expect, "element {e}");
        }
    }

    #[test]
    fn rcb_is_deterministic() {
        let mesh = BoxMesh::unit_cube(3, 2);
        let a = rcb_partition(&mesh, 5);
        let b = rcb_partition(&mesh, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn rcb_parts_are_spatially_contiguous_boxes_for_powers_of_two() {
        // For a cube split into 8, RCB should recover the octant structure.
        let mesh = BoxMesh::unit_cube(4, 1);
        let owner = rcb_partition(&mesh, 8);
        // Each octant (2x2x2 block of elements) must be single-owner.
        for ok in 0..2 {
            for oj in 0..2 {
                for oi in 0..2 {
                    let mut owners = std::collections::BTreeSet::new();
                    for dk in 0..2 {
                        for dj in 0..2 {
                            for di in 0..2 {
                                let e = mesh.elem_id((oi * 2 + di, oj * 2 + dj, ok * 2 + dk));
                                owners.insert(owner[e]);
                            }
                        }
                    }
                    assert_eq!(
                        owners.len(),
                        1,
                        "octant ({oi},{oj},{ok}) split across ranks"
                    );
                }
            }
        }
    }
}
