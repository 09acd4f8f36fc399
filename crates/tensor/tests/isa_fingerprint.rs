//! One line that names the bits the kernels produce, for CI to compare
//! across instruction sets.
//!
//! `.cargo/config.toml` builds for `x86-64-v3` and promises that removing
//! the flag changes speed only. That holds because the kernels use plain
//! IEEE multiplies and adds in a fixed order (no FMA contraction, no
//! reassociation) and because nothing on the path calls libm: ELU's `exp`
//! is in-crate and layer norm's `sqrt` is correctly rounded by IEEE-754.
//! This test runs forward and backward through two chained MLPs (fused
//! linear+ELU, layer norm, ragged `4 x 8` tiles), through an edge MLP
//! whose first layer is `gather_linear`, and through that edge MLP's
//! output aggregated onto the nodes (`scatter_add_rows_scaled`), and
//! through one message-passing layer's residual MLPs (`layer_norm_add`,
//! the node MLP's input layer over column blocks),
//! on inputs derived from integers and prints an FNV-1a hash of every
//! value and gradient bit, one line per shape. CI runs it under the default flags, under `-C target-cpu=x86-64`
//! and in a debug build, and diffs the lines. The test itself asserts the
//! hashes too, so a kernel change that moves a single bit fails here on
//! any machine, not only in the cross-build diff.

#![expect(
    clippy::expect_used,
    reason = "a failed setup step fails the test, and its message names the step"
)]

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

/// Overwrite every parameter with lattice values, salted by its index.
fn set_lattice(params: &mut ParamSet) {
    for (salt, t) in params.tensors_mut().iter_mut().enumerate() {
        let values = lattice(1000 * salt as u64, t.len(), 1.5);
        t.data_mut().copy_from_slice(&values);
    }
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
    set_lattice(&mut params);

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
/// With `aggregate`, the loss is taken after the degree-weighted
/// aggregation of the MLP's output onto the nodes (paper Eq. 4b,
/// `scatter_add_rows_scaled` and its adjoint), whose value is hashed too.
fn gather_fingerprint(nodes: usize, edges: usize, hidden: usize, aggregate: bool) -> u64 {
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
    set_lattice(&mut params);
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
    let dst: Arc<Vec<usize>> = Arc::new((0..edges).map(|i| (edges - i) * 3 % nodes).collect());
    let y = mlp.forward_gathered(
        &mut tape,
        &bound,
        &[(x, Some(src)), (x, Some(Arc::clone(&dst))), (e, None)],
        None,
    );
    let a = aggregate.then(|| {
        let inv_degree = lattice(13, edges, 1.0).iter().map(|w| w + 1.0).collect();
        tape.scatter_add_rows_scaled(y, Arc::new(inv_degree), dst, nodes)
    });
    let loss = match a {
        Some(a) => tape.weighted_sq_sum(a, Arc::new(lattice(11, nodes, 1.0))),
        None => tape.weighted_sq_sum(y, Arc::new(lattice(11, edges, 1.0))),
    };
    let grads = tape.backward(loss);

    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    fnv1a(&mut hash, tape.value(y).data());
    if let Some(a) = a {
        fnv1a(&mut hash, tape.value(a).data());
    }
    for &var in bound.vars().iter().chain([&x, &e]) {
        let grad = grads.get(var).expect("every leaf takes part").data();
        assert!(grad.iter().all(|g| g.is_finite()));
        fnv1a(&mut hash, grad);
    }
    hash
}

/// FNV-1a of every value and gradient bit of one message-passing layer's
/// two residual MLPs on `edges` edges of `nodes` nodes, as the model
/// records them: the edge MLP over `[x[src] | x[dst] | e]` plus `e`, the
/// degree-weighted aggregation onto the nodes, and the node MLP over the
/// column blocks `[a | x]` (`linear_elu_blocks`, no concatenation) plus
/// `x` — each residual folded into its layer norm (`layer_norm_add`).
fn residual_fingerprint(nodes: usize, edges: usize, hidden: usize) -> u64 {
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(0);
    let edge = Mlp::new(
        &mut params,
        "edge",
        3 * hidden,
        hidden,
        hidden,
        1,
        true,
        &mut rng,
    );
    let node = Mlp::new(
        &mut params,
        "node",
        2 * hidden,
        hidden,
        hidden,
        1,
        true,
        &mut rng,
    );
    set_lattice(&mut params);
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
    let dst: Arc<Vec<usize>> = Arc::new((0..edges).map(|i| (edges - i) * 3 % nodes).collect());
    let parts = [(x, Some(src)), (x, Some(Arc::clone(&dst))), (e, None)];
    let e_new = edge.forward_gathered(&mut tape, &bound, &parts, Some(e));
    let inv_degree = lattice(13, edges, 1.0).iter().map(|w| w + 1.0).collect();
    let a = tape.scatter_add_rows_scaled(e_new, Arc::new(inv_degree), dst, nodes);
    let x_new = node.forward_blocks(&mut tape, &bound, &[a, x], Some(x));
    let loss = tape.weighted_sq_sum(x_new, Arc::new(lattice(11, nodes, 1.0)));
    let grads = tape.backward(loss);

    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    fnv1a(&mut hash, tape.value(e_new).data());
    fnv1a(&mut hash, tape.value(x_new).data());
    for &var in bound.vars().iter().chain([&x, &e]) {
        let grad = grads.get(var).expect("every leaf takes part").data();
        assert!(grad.iter().all(|g| g.is_finite()));
        fnv1a(&mut hash, grad);
    }
    hash
}

/// One line per shape. Width 12 takes layer norm's one-row path; 8 and 32
/// take its four-row lockstep, and an odd row count leaves a remainder row
/// to the one-row path as well. The gather lines' width 12 leaves a ragged
/// column strip beside the `4 x 8` tiles of every product; the residual
/// line's width 8 takes layer norm's lockstep with remainder rows on both
/// the edge and the node side. Each hash must
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
    let hash = gather_fingerprint(nodes, edges, hidden, false);
    let shape = format!("gather_linear nodes={nodes} edges={edges} hidden={hidden}");
    lines.push((shape, hash, 0x5c8c_a9c8_c435_78f7));
    let hash = gather_fingerprint(nodes, edges, hidden, true);
    let shape = format!("scatter_add_rows_scaled nodes={nodes} edges={edges} hidden={hidden}");
    lines.push((shape, hash, 0x573e_eb78_0fc4_0c8d));
    let hidden = 8;
    let hash = residual_fingerprint(nodes, edges, hidden);
    let shape = format!("layer_norm_add nodes={nodes} edges={edges} hidden={hidden}");
    lines.push((shape, hash, 0x4c93_f161_0f4d_579d));
    for (shape, hash, _) in &lines {
        println!("isa-fingerprint {shape} {hash:016x}");
    }
    for (shape, hash, pinned) in lines {
        assert_eq!(hash, pinned, "{shape}: {hash:016x}, pinned {pinned:016x}");
    }
}
