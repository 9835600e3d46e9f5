//! Parallel-vs-sequential equivalence suite.
//!
//! For every graph family the ISSUE names — sparse gnm, unit-weight grid,
//! power-law, and a small paper `H_{b,ℓ}` gadget — the parallel pipeline
//! must produce labels **byte-identical** to sequential PLL at every
//! thread count, and those labels must answer every queried pair with the
//! exact BFS/Dijkstra distance.

use hl_build::{build_with_order, BuildConfig};
use hl_core::pll::PrunedLandmarkLabeling;
use hl_core::FlatLabeling;
use hl_graph::rng::Xorshift64;
use hl_graph::{generators, Graph, NodeId};
use hl_lowerbound::{GadgetParams, HGraph};

fn sequential_flat(g: &Graph, order: &[NodeId]) -> FlatLabeling {
    FlatLabeling::from_labeling(PrunedLandmarkLabeling::with_order(g, order.to_vec()).labeling())
}

/// Asserts byte-identity across threads ∈ {1, 2, 4} and spot-checks the
/// labels against ground-truth single-source distances from a few seeded
/// sources.
fn assert_equivalent_and_exact(g: &Graph, name: &str) {
    let order = hl_core::order::by_degree(g);
    let reference = sequential_flat(g, &order);
    for threads in [1usize, 2, 4] {
        let out = build_with_order(g, order.clone(), BuildConfig::with_threads(threads))
            .unwrap_or_else(|e| panic!("{name}: build failed at {threads} threads: {e}"));
        assert_eq!(
            out.labeling, reference,
            "{name}: labels diverge from sequential PLL at {threads} threads"
        );
        assert_eq!(out.stats.threads, threads);
    }
    // Ground truth: full single-source distances from seeded sources.
    let n = g.num_nodes();
    let mut rng = Xorshift64::seed_from_u64(0xE0_11AB);
    for _ in 0..4 {
        let s = rng.gen_index(n) as NodeId;
        let truth = hl_graph::dijkstra::shortest_path_distances(g, s);
        for _ in 0..200 {
            let v = rng.gen_index(n) as NodeId;
            assert_eq!(
                reference.query(s, v),
                truth[v as usize],
                "{name}: wrong distance for ({s}, {v})"
            );
        }
    }
}

#[test]
fn gnm_equivalence() {
    let g = generators::connected_gnm(400, 500, 11);
    assert_equivalent_and_exact(&g, "connected_gnm(400, 500)");
}

#[test]
fn grid_equivalence() {
    let g = generators::grid(17, 19);
    assert_equivalent_and_exact(&g, "grid(17, 19)");
}

#[test]
fn power_law_equivalence() {
    let g = generators::power_law_configuration(600, 25, 13);
    assert_equivalent_and_exact(&g, "power_law_configuration(600)");
}

#[test]
fn rmat_equivalence() {
    let g = generators::rmat(9, 2048, 5);
    assert_equivalent_and_exact(&g, "rmat(9, 2048)");
}

#[test]
fn weighted_road_style_equivalence() {
    let g = generators::grid_with_shortcuts(12, 14, 30, 7);
    assert_equivalent_and_exact(&g, "grid_with_shortcuts(12, 14, 30)");
}

#[test]
fn paper_gadget_equivalence() {
    // A small H_{b,ℓ} hard instance from Theorem 2.1 — adversarial
    // structure for hub labelings, so a good equivalence probe.
    let params = GadgetParams::new(3, 2).unwrap();
    let h = HGraph::build(params);
    assert_equivalent_and_exact(h.graph(), "H_{3,2}");
}

#[test]
fn every_order_strategy_is_thread_invariant() {
    use hl_core::order::{BetweennessOrder, BfsLevelOrder, DegreeOrder, RandomOrder};
    let g = generators::connected_gnm(200, 260, 3);
    let strategies: Vec<Box<dyn hl_core::VertexOrder>> = vec![
        Box::new(DegreeOrder),
        Box::new(BfsLevelOrder),
        Box::new(BetweennessOrder {
            samples: 16,
            seed: 2,
        }),
        Box::new(RandomOrder { seed: 4 }),
    ];
    for strategy in &strategies {
        let one = hl_build::build_with_strategy(&g, strategy.as_ref(), BuildConfig::sequential())
            .unwrap();
        let four =
            hl_build::build_with_strategy(&g, strategy.as_ref(), BuildConfig::with_threads(4))
                .unwrap();
        assert_eq!(
            one.labeling,
            four.labeling,
            "strategy {} is not thread-invariant",
            strategy.name()
        );
    }
}

#[test]
fn adaptive_schedule_grows_and_shrinks_without_changing_labels() {
    // Large enough that the commit filter's discard share crosses both
    // thresholds: the per-batch root counts must rise and fall at least
    // once each (the last batch is cut short by the order, so it is left
    // out of the check).
    let g = generators::connected_gnm(800, 1601, 9);
    let order = hl_core::order::by_degree(&g);
    let reference = sequential_flat(&g, &order);
    for threads in [1usize, 2, 4] {
        let out = build_with_order(&g, order.clone(), BuildConfig::with_threads(threads)).unwrap();
        assert_eq!(out.labeling, reference, "threads = {threads}");
        if threads == 1 {
            continue;
        }
        let roots: Vec<usize> = out.stats.batches.iter().map(|b| b.roots).collect();
        let steps = &roots[..roots.len() - 1];
        assert!(
            steps.windows(2).any(|w| w[1] > w[0]) && steps.windows(2).any(|w| w[1] < w[0]),
            "threads = {threads}: schedule never both grew and shrank: {roots:?}"
        );
        assert!(steps
            .iter()
            .all(|&r| r >= threads && r <= out.stats.batch_cap));
    }
}

#[test]
fn near_saturation_weights_match_sequential_and_dijkstra() {
    // Weights near u64::MAX / 8 on a graph of hop diameter <= 6: every
    // true distance is finite, but two label distances can sum past
    // u64::MAX, so the prune scan and the commit filter both meet
    // saturated sums — and `INFINITY` root distances next to them.
    const N: usize = 150;
    let mut rng = Xorshift64::seed_from_u64(0x5A7_0001);
    let heavy = |rng: &mut Xorshift64| u64::MAX / 8 - rng.gen_u64_below(1 << 40);
    let mut depth = vec![0usize; N];
    let mut edges = Vec::new();
    for v in 1..N {
        // A tree of depth <= 3 keeps every hop distance <= 6.
        let parent = loop {
            let p = rng.gen_index(v);
            if depth[p] < 3 {
                break p;
            }
        };
        depth[v] = depth[parent] + 1;
        edges.push((parent as NodeId, v as NodeId, heavy(&mut rng)));
    }
    for _ in 0..N / 2 {
        let (a, b) = (rng.gen_index(N), rng.gen_index(N));
        if a != b {
            edges.push((a as NodeId, b as NodeId, heavy(&mut rng)));
        }
    }
    let g = hl_graph::builder::graph_from_weighted_edges(N, &edges).unwrap();
    assert!(!g.is_unit_weighted());

    let order = hl_core::order::by_degree(&g);
    let reference = sequential_flat(&g, &order);
    for threads in [1usize, 2, 4] {
        let out = build_with_order(&g, order.clone(), BuildConfig::with_threads(threads)).unwrap();
        assert_eq!(out.labeling, reference, "threads = {threads}");
    }
    let mut max_finite = 0;
    for s in 0..N as NodeId {
        let truth = hl_graph::dijkstra::shortest_path_distances(&g, s);
        for v in 0..N as NodeId {
            let d = truth[v as usize];
            assert_ne!(d, hl_graph::INFINITY, "({s}, {v}) must stay finite");
            assert_eq!(reference.query(s, v), d, "wrong distance for ({s}, {v})");
            max_finite = max_finite.max(d);
        }
    }
    assert!(
        max_finite > u64::MAX / 2,
        "no pair is far enough for a label sum to saturate"
    );
}
