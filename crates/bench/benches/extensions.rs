//! Benches for the extension modules: incremental view maintenance
//! (delete propagation vs full rematerialization) and pattern minimization.

use criterion::{criterion_group, criterion_main, Criterion};
use gpv_core::delta::EdgeDelta;
use gpv_core::maintenance::IncrementalView;
use gpv_core::minimize::minimize;
use gpv_generator::{random_graph, random_pattern, PatternShape, DEFAULT_ALPHABET};
use gpv_graph::NodeId;
use gpv_matching::simulation::match_pattern;

fn bench(c: &mut Criterion) {
    let g = random_graph(20_000, 40_000, &DEFAULT_ALPHABET, 42);
    let q = random_pattern(4, 6, &DEFAULT_ALPHABET, PatternShape::Any, 7);
    let edges: Vec<(NodeId, NodeId)> = g.edges().take(64).collect();
    let delta = EdgeDelta::new(vec![], edges);
    let after = delta.apply_to(&g);

    let mut grp = c.benchmark_group("extensions");
    grp.sample_size(10);
    // Incremental deletion repair vs recomputation from scratch: the
    // incremental engine propagates one 64-edge delete batch through its
    // support counters, versus re-running Match on the mutated graph. The
    // post-delta graph is built once outside the timed loop, as the store
    // builds it once per delta for every maintainer. The per-iteration
    // `clone()` copies only the relation and support counters: a
    // maintainer holds no copy of the graph.
    let base_view = IncrementalView::new(q.clone(), &g);
    grp.bench_function("maintenance/incremental-64-deletes", |b| {
        b.iter_batched(
            || base_view.clone(),
            |mut view| {
                view.apply(&delta, &g, &after);
                std::hint::black_box(view.result(&after).size())
            },
            criterion::BatchSize::LargeInput,
        )
    });
    grp.bench_function("maintenance/full-rematerialize", |b| {
        b.iter(|| std::hint::black_box(match_pattern(&q, &g).size()))
    });
    // Pattern minimization on a symmetric 10-node cyclic pattern.
    let sym = {
        let mut b = gpv_pattern::PatternBuilder::new();
        let hub = b.node_labeled("H");
        for _ in 0..4 {
            let x = b.node_labeled("X");
            let y = b.node_labeled("Y");
            b.edge(hub, x);
            b.edge(x, y);
            b.edge(y, x);
        }
        b.build().unwrap()
    };
    grp.bench_function("minimize/symmetric-13-node", |b| {
        b.iter(|| std::hint::black_box(minimize(&sym).pattern.size()))
    });
    grp.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
