//! One line that names the bits the kernels produce, for CI to compare
//! across instruction sets.
//!
//! `.cargo/config.toml` builds for `x86-64-v3` and promises that removing
//! the flag changes speed only. That holds because the kernels use plain
//! IEEE multiplies and adds in a fixed order (no FMA contraction, no
//! reassociation) and because nothing on the path calls libm: ELU's `exp`
//! is in-crate and layer norm's `sqrt` is correctly rounded by IEEE-754.
//! This test runs forward and backward through two chained MLPs (fused
//! linear+ELU, layer norm, ragged `4 x 8` tiles), and through an edge MLP
//! whose first layer is `gather_linear`, on inputs derived from integers
//! and prints an FNV-1a hash of every value and gradient bit, one line per
//! shape. CI runs it under the default flags, under `-C target-cpu=x86-64`
//! and in a debug build, and diffs the lines. The test itself asserts the
//! hashes too, so a kernel change that moves a single bit fails here on
//! any machine, not only in the cross-build diff.

use std::sync::Arc;

use cgnn_tensor::{Mlp, ParamSet, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `count` values in `(-scale / 2, scale / 2)` from integer arithmetic and
/// one exact conversion — no transcendental.
fn lattice(salt: u64, count: usize, scale: f64) -> Vec<f64> {
    (0..count as u64)
        .map(|i| {
            let bits = (i + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
            (bits as f64 / (1u64 << 53) as f64 - 0.5) * scale
        })
        .collect()
}

fn fnv1a(hash: &mut u64, values: &[f64]) {
    for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// FNV-1a of every value and gradient bit of a forward + backward pass
/// through two chained MLPs on `rows` rows: the first has layer norm at
/// width `hidden`, the second at width 3.
fn fingerprint(rows: usize, in_dim: usize, hidden: usize) -> u64 {
    let out_dim = 3;
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(0);
    let first = Mlp::new(
        &mut params,
        "first",
        in_dim,
        hidden,
        hidden,
        2,
        true,
        &mut rng,
    );
    let second = Mlp::new(
        &mut params,
        "second",
        hidden,
        hidden,
        out_dim,
        1,
        true,
        &mut rng,
    );
    for (salt, t) in params.tensors_mut().iter_mut().enumerate() {
        let values = lattice(1000 * salt as u64, t.len(), 1.5);
        t.data_mut().copy_from_slice(&values);
    }

    let mut tape = Tape::new();
    let bound = params.bind(&mut tape);
    let x = tape.leaf(Tensor::from_vec(
        rows,
        in_dim,
        lattice(7, rows * in_dim, 4.0),
    ));
    let h = first.forward(&mut tape, &bound, x);
    let y = second.forward(&mut tape, &bound, h);
    let weights = lattice(11, rows, 1.0).iter().map(|w| w + 1.0).collect();
    let loss = tape.weighted_sq_sum(y, Arc::new(weights));
    let grads = tape.backward(loss);

    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    fnv1a(&mut hash, tape.value(y).data());
    fnv1a(&mut hash, tape.value(loss).data());
    for &var in bound.vars().iter().chain([&x]) {
        let grad = grads.get(var).expect("every leaf takes part").data();
        assert!(grad.iter().all(|g| g.is_finite()));
        fnv1a(&mut hash, grad);
    }
    assert!(tape.value(loss).item() > 0.0);
    hash
}

/// FNV-1a of every value and gradient bit of the edge update's MLP on
/// `edges` edges of `nodes` nodes: `Mlp::forward_gathered` over
/// `[x[src] | x[dst] | e]` (the `gather_linear` kernel and its adjoint:
/// node-row products, gathered adds, scatter-added adjoints), layer norm.
fn gather_fingerprint(nodes: usize, edges: usize, hidden: usize) -> u64 {
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(0);
    let mlp = Mlp::new(
        &mut params,
        "edge",
        3 * hidden,
        hidden,
        hidden,
        1,
        true,
        &mut rng,
    );
    for (salt, t) in params.tensors_mut().iter_mut().enumerate() {
        let values = lattice(1000 * salt as u64, t.len(), 1.5);
        t.data_mut().copy_from_slice(&values);
    }
    let mut tape = Tape::new();
    let bound = params.bind(&mut tape);
    let x = tape.leaf(Tensor::from_vec(
        nodes,
        hidden,
        lattice(7, nodes * hidden, 4.0),
    ));
    let e = tape.leaf(Tensor::from_vec(
        edges,
        hidden,
        lattice(9, edges * hidden, 4.0),
    ));
    let src = Arc::new((0..edges).map(|i| (i * 5 + 1) % nodes).collect());
    let dst = Arc::new((0..edges).map(|i| (edges - i) * 3 % nodes).collect());
    let y = mlp.forward_gathered(
        &mut tape,
        &bound,
        &[(x, Some(src)), (x, Some(dst)), (e, None)],
    );
    let loss = tape.weighted_sq_sum(y, Arc::new(lattice(11, edges, 1.0)));
    let grads = tape.backward(loss);

    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    fnv1a(&mut hash, tape.value(y).data());
    for &var in bound.vars().iter().chain([&x, &e]) {
        let grad = grads.get(var).expect("every leaf takes part").data();
        assert!(grad.iter().all(|g| g.is_finite()));
        fnv1a(&mut hash, grad);
    }
    hash
}

/// One line per shape. Width 12 takes layer norm's one-row path; 8 and 32
/// take its four-row lockstep, and an odd row count leaves a remainder row
/// to the one-row path as well. The gather line's width 12 leaves a ragged
/// column strip beside the `4 x 8` tiles of every product. Each hash must
/// equal the pinned one: these are the bits training produces, and a
/// change that moves them changes every loss and parameter downstream.
#[test]
fn isa_fingerprint() {
    let mut lines = Vec::new();
    for (rows, in_dim, hidden, pinned) in [
        (37, 5, 12, 0xe2f8_4400_ee9e_c909),
        (37, 5, 8, 0x2225_4a67_9dd1_d916),
        (21, 7, 32, 0x06eb_619a_c199_d172),
    ] {
        let hash = fingerprint(rows, in_dim, hidden);
        lines.push((format!("rows={rows} hidden={hidden}"), hash, pinned));
    }
    let (nodes, edges, hidden) = (13, 43, 12);
    let hash = gather_fingerprint(nodes, edges, hidden);
    let shape = format!("gather_linear nodes={nodes} edges={edges} hidden={hidden}");
    lines.push((shape, hash, 0x5c8c_a9c8_c435_78f7));
    for (shape, hash, _) in &lines {
        println!("isa-fingerprint {shape} {hash:016x}");
    }
    for (shape, hash, pinned) in lines {
        assert_eq!(hash, pinned, "{shape}: {hash:016x}, pinned {pinned:016x}");
    }
}
