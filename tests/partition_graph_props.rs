//! Property-based tests (proptest) of the structural invariants the
//! consistency proofs rest on, across randomized meshes, orders, rank
//! counts, and partition strategies.

use proptest::prelude::*;

use cgnn::graph::{analytic_block_stats, build_distributed_graph, build_global_graph, exact_stats};
use cgnn::mesh::BoxMesh;
use cgnn::partition::{Layout, Partition, Strategy};
use cgnn::session::Session;

fn strategy_from(i: u8) -> Strategy {
    match i % 4 {
        0 => Strategy::Slab,
        1 => Strategy::Pencil,
        2 => Strategy::Block,
        _ => Strategy::Rcb,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every element is owned by exactly one rank, every owner is a real
    /// rank, and no rank is left empty — for every strategy at world sizes
    /// 1..=8 (RCB included, the strategy elastic recovery replays at
    /// arbitrary survivor counts).
    #[test]
    fn every_element_owned_exactly_once(
        ex in 2usize..5, ey in 2usize..5, ez in 2usize..4,
        p in 1usize..3,
        ranks in 1usize..9,
        strat in 0u8..4,
    ) {
        let mesh = BoxMesh::new((ex, ey, ez), p, (1.0, 1.0, 1.0), false);
        prop_assume!(mesh.num_elements() >= ranks);
        let part = Partition::new(&mesh, ranks, strategy_from(strat));
        prop_assert_eq!(part.n_ranks(), ranks);
        prop_assert_eq!(part.owners().len(), mesh.num_elements());

        // Exactly-once coverage: rank element lists are a disjoint
        // partition of 0..num_elements consistent with the owner map.
        let mut seen = vec![false; mesh.num_elements()];
        for r in 0..ranks {
            let elems = part.elements_of(r);
            prop_assert!(!elems.is_empty(), "rank {} owns nothing", r);
            for &e in elems {
                prop_assert!(e < mesh.num_elements());
                prop_assert!(!seen[e], "element {} owned twice", e);
                seen[e] = true;
                prop_assert_eq!(part.owner_of(e), r);
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some element is owned by no rank");
    }

    /// A session keeps the `Strategy` it is built with and decomposes with
    /// `Partition::new`, both at build time and when `resized` replays the
    /// strategy for another world size (the elastic-recovery path).
    #[test]
    fn sessions_decompose_like_partition_new(
        ex in 2usize..5, ey in 2usize..5, ez in 2usize..4,
        p in 1usize..3,
        ranks in 2usize..9,
        resized_to in 2usize..9,
        strat in 0u8..4,
    ) {
        let mesh = BoxMesh::new((ex, ey, ez), p, (1.0, 1.0, 1.0), false);
        prop_assume!(mesh.num_elements() >= ranks.max(resized_to));
        let strategy = strategy_from(strat);
        let built = Session::builder()
            .mesh(mesh.clone())
            .partition(strategy)
            .ranks(ranks)
            .build()
            .unwrap();
        let resized = built.resized(resized_to).unwrap();
        for s in [&built, &resized] {
            prop_assert_eq!(s.partition_strategy(), strategy);
            let expected = Partition::new(&mesh, s.ranks(), strategy);
            prop_assert_eq!(
                s.partition().expect("R > 1 is partitioned").owners(),
                expected.owners(),
                "{:?} at R = {}", strategy, s.ranks()
            );
        }
    }

    /// sum over ranks of sum_i 1/d_i == number of unique global nodes
    /// (the identity that makes N_eff in Eq. 6c equal the R=1 node count).
    #[test]
    fn effective_node_count_is_exact(
        ex in 2usize..5, ey in 2usize..5, ez in 2usize..4,
        p in 1usize..4,
        ranks in 1usize..9,
        strat in 0u8..4,
        periodic in proptest::bool::ANY,
    ) {
        prop_assume!(!periodic || (p * ex >= 3 && p * ey >= 3 && p * ez >= 3));
        let mesh = BoxMesh::new((ex, ey, ez), p, (1.0, 1.0, 1.0), periodic);
        prop_assume!(mesh.num_elements() >= ranks);
        let part = Partition::new(&mesh, ranks, strategy_from(strat));
        let graphs = build_distributed_graph(&mesh, &part);
        let neff: f64 = graphs.iter().flat_map(|g| g.node_inv_degree.iter()).sum();
        let n = mesh.num_global_nodes() as f64;
        prop_assert!((neff - n).abs() < 1e-6 * n.max(1.0), "neff={neff} n={n}");
    }

    /// sum over ranks of sum_e 1/d_ij == directed edge count of the R=1
    /// graph (the identity behind the consistent aggregation Eq. 4b).
    #[test]
    fn effective_edge_count_is_exact(
        e in 2usize..5,
        p in 1usize..4,
        ranks in 2usize..9,
        strat in 0u8..4,
    ) {
        let mesh = BoxMesh::new((e, e, e), p, (1.0, 1.0, 1.0), false);
        prop_assume!(mesh.num_elements() >= ranks);
        let global = build_global_graph(&mesh);
        let part = Partition::new(&mesh, ranks, strategy_from(strat));
        let graphs = build_distributed_graph(&mesh, &part);
        let eff: f64 = graphs.iter().flat_map(|g| g.edge_inv_degree.iter()).sum();
        prop_assert!((eff - global.n_edges() as f64).abs() < 1e-6);
    }

    /// Halo plans are pairwise symmetric: the shared-gid list rank r keeps
    /// for neighbour s equals the one s keeps for r.
    #[test]
    fn halo_plans_symmetric(
        e in 2usize..5,
        p in 1usize..3,
        ranks in 2usize..9,
        strat in 0u8..4,
        periodic in proptest::bool::ANY,
    ) {
        prop_assume!(!periodic || p * e >= 3);
        let mesh = BoxMesh::new((e, e, e), p, (1.0, 1.0, 1.0), periodic);
        prop_assume!(mesh.num_elements() >= ranks);
        let part = Partition::new(&mesh, ranks, strategy_from(strat));
        let graphs = build_distributed_graph(&mesh, &part);
        for g in &graphs {
            for (ni, &s) in g.halo.neighbors.iter().enumerate() {
                let other = &graphs[s];
                let back = other.halo.neighbors.iter().position(|&x| x == g.rank);
                prop_assert!(back.is_some(), "asymmetric neighbour {} -> {s}", g.rank);
                let mine: Vec<u64> =
                    g.halo.send_ids[ni].iter().map(|&l| g.gids[l]).collect();
                let theirs: Vec<u64> = other.halo.send_ids[back.unwrap()]
                    .iter()
                    .map(|&l| other.gids[l])
                    .collect();
                prop_assert_eq!(mine, theirs);
            }
        }
    }

    /// The closed-form Table II statistics agree with the built graphs for
    /// every structured layout that fits.
    #[test]
    fn analytic_stats_match_exact(
        ex in 2usize..5, ey in 2usize..5, ez in 2usize..4,
        p in 1usize..4,
        rx in 1usize..4, ry in 1usize..3, rz in 1usize..3,
        periodic in proptest::bool::ANY,
    ) {
        prop_assume!(rx <= ex && ry <= ey && rz <= ez);
        prop_assume!(!periodic || (p * ex >= 3 && p * ey >= 3 && p * ez >= 3));
        let mesh = BoxMesh::new((ex, ey, ez), p, (1.0, 1.0, 1.0), periodic);
        let layout = Layout::new(rx, ry, rz);
        let part = Partition::structured(&mesh, layout);
        let graphs = build_distributed_graph(&mesh, &part);
        let exact: Vec<_> = graphs.iter().map(exact_stats).collect();
        let analytic = analytic_block_stats(&mesh, &layout);
        prop_assert_eq!(exact, analytic);
    }

    /// Every node's 1/d_i matches the number of ranks actually holding it,
    /// and shared nodes appear in halo plans.
    #[test]
    fn node_degrees_count_actual_copies(
        e in 2usize..4,
        p in 1usize..3,
        ranks in 2usize..7,
        strat in 0u8..4,
    ) {
        let mesh = BoxMesh::new((e, e, e), p, (1.0, 1.0, 1.0), false);
        prop_assume!(mesh.num_elements() >= ranks);
        let part = Partition::new(&mesh, ranks, strategy_from(strat));
        let graphs = build_distributed_graph(&mesh, &part);
        for g in &graphs {
            for (lid, &gid) in g.gids.iter().enumerate() {
                let copies =
                    graphs.iter().filter(|h| h.local_of_gid(gid).is_some()).count();
                let d = (1.0 / g.node_inv_degree[lid]).round() as usize;
                prop_assert_eq!(d, copies, "gid {} on rank {}", gid, g.rank);
                if copies > 1 {
                    let in_plan = g
                        .halo
                        .send_ids
                        .iter()
                        .any(|ids| ids.contains(&lid));
                    prop_assert!(in_plan, "shared gid {} missing from halo plan", gid);
                }
            }
        }
    }
}
