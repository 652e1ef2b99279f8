//! Property tests for incremental view maintenance: after any script of
//! edge deletions and insertions, the incrementally maintained extension
//! equals recomputation from scratch — both on small random scripts and
//! on full delta streams sampled from [`gpv_generator::Scenario`]s.

use gpv_generator::{random_graph, random_pattern, PatternShape, Scenario};
use graph_views::prelude::*;
use graph_views::views::{EdgeDelta, IncrementalView};
use proptest::prelude::*;

const LABELS: [&str; 3] = ["A", "B", "C"];

/// Rebuilds a graph applying an edit script to the original edge set.
fn apply_script(g0: &DataGraph, script: &[(bool, u32, u32)]) -> DataGraph {
    use std::collections::BTreeSet;
    let mut edges: BTreeSet<(u32, u32)> = g0.edges().map(|(u, v)| (u.0, v.0)).collect();
    for &(insert, a, b) in script {
        if insert {
            edges.insert((a, b));
        } else {
            edges.remove(&(a, b));
        }
    }
    let mut b = GraphBuilder::new();
    for v in g0.nodes() {
        let labels: Vec<&str> = g0.labels_of(v).iter().map(|&l| g0.label_name(l)).collect();
        b.add_node(labels.iter().copied());
    }
    for (u, v) in edges {
        b.add_edge(NodeId(u), NodeId(v));
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_equals_recompute(
        gseed in any::<u64>(),
        qseed in any::<u64>(),
        raw_script in proptest::collection::vec((any::<bool>(), 0u32..20, 0u32..20), 0..25),
    ) {
        let g = random_graph(20, 40, &LABELS, gseed);
        let q = random_pattern(3, 3, &LABELS, PatternShape::Any, qseed);
        let mut inc = IncrementalView::new(q.clone(), &g);

        // Each step is a one-edge delta from the previous graph to the next.
        let mut before = g.clone();
        let mut applied: Vec<(bool, u32, u32)> = Vec::new();
        for (insert, a, b) in raw_script {
            let edge = vec![(NodeId(a), NodeId(b))];
            let delta = if insert {
                EdgeDelta::new(edge, vec![])
            } else {
                EdgeDelta::new(vec![], edge)
            };
            let after = delta.apply_to(&before);
            inc.apply(&delta, &before, &after);
            applied.push((insert, a, b));
            // Check after *every* step, not just at the end, so ordering
            // bugs can't cancel out. The oracle graph is rebuilt from the
            // script, independently of `EdgeDelta::apply_to`.
            let oracle_graph = apply_script(&g, &applied);
            let expect = match_pattern(&q, &oracle_graph);
            prop_assert_eq!(
                inc.result(&after),
                expect,
                "divergence after {} ops",
                applied.len()
            );
            before = after;
        }
    }

    /// Deleting every edge empties the view; re-inserting restores it.
    #[test]
    fn full_teardown_and_rebuild(gseed in any::<u64>(), qseed in any::<u64>()) {
        let g = random_graph(15, 30, &LABELS, gseed);
        let q = random_pattern(2, 2, &LABELS, PatternShape::Any, qseed);
        let mut inc = IncrementalView::new(q.clone(), &g);
        let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
        let teardown = EdgeDelta::new(vec![], edges.clone());
        let bare = teardown.apply_to(&g);
        inc.apply(&teardown, &g, &bare);
        prop_assert!(inc.result(&bare).is_empty() || q.edge_count() == 0);
        prop_assert_eq!(inc.result(&bare), match_pattern(&q, &bare));
        let rebuild = EdgeDelta::new(edges, vec![]);
        let rebuilt = rebuild.apply_to(&bare);
        inc.apply(&rebuild, &bare, &rebuilt);
        prop_assert_eq!(inc.result(&rebuilt), match_pattern(&q, &g));
    }

    /// Scenario-sampled maintenance sweep: sample a full [`Scenario`]
    /// (forced update-heavy — nonzero `delta_batch_len` and
    /// `delete_ratio`), keep one warm [`IncrementalView`] per registered
    /// view, and replay the scenario's generated insert/delete stream,
    /// checking after every batch that each maintainer equals the boxed
    /// from-scratch oracle on the evolving graph. Failures print the
    /// scenario's one-line JSON and the `gpv fuzz --repro` command (plus
    /// the shim's `GPV_TEST_SEED` replay line).
    #[test]
    fn scenario_delta_streams_keep_incremental_views_exact(
        master in any::<u64>(),
        idx in 0u64..40,
    ) {
        let mut sc = Scenario::sample(master, idx);
        sc.delta_batch_len = sc.delta_batch_len.max(3);
        if sc.delete_ratio == 0.0 {
            sc.delete_ratio = 0.5;
        }
        sc.rounds = sc.rounds.max(2);
        let inputs = sc.materialize();

        // The "boxed match_pattern" oracle — the same shape the
        // differential harness injects, so this pins maintainer ≡ oracle
        // rather than maintainer ≡ some inlined shortcut.
        type Oracle = Box<dyn Fn(&Pattern, &DataGraph) -> MatchResult>;
        let oracle: Oracle = Box::new(match_pattern);

        let mut incs: Vec<(Pattern, IncrementalView)> = inputs
            .views
            .iter()
            .map(|(_, def)| {
                (
                    def.pattern.clone(),
                    IncrementalView::new(def.pattern.clone(), &inputs.graph),
                )
            })
            .collect();
        let mut edges: std::collections::BTreeSet<(NodeId, NodeId)> =
            inputs.graph.edges().collect();
        let mut current = inputs.graph.clone();
        for (round, delta) in inputs.deltas.iter().enumerate() {
            // Each delta is one batch, exactly as the store applies it.
            let next = delta.apply_to(&current);
            for (_, inc) in &mut incs {
                inc.apply(delta, &current, &next);
            }
            // The truth graph is rebuilt independently of `apply_to`, with
            // EdgeDelta semantics: deletes land before inserts.
            for &(u, v) in &delta.deletes {
                edges.remove(&(u, v));
            }
            for &(u, v) in &delta.inserts {
                edges.insert((u, v));
            }
            let edge_list: Vec<(NodeId, NodeId)> = edges.iter().copied().collect();
            let truth_graph = inputs.graph.with_edges(&edge_list);
            for (vi, (q, inc)) in incs.iter().enumerate() {
                let want = oracle(q, &truth_graph);
                if inc.result(&next) != want {
                    return Err(TestCaseError::fail(format!(
                        "view {vi} diverged from the oracle after delta round {round}\n\
                         scenario: {}\nrepro: {}",
                        sc.to_json_line(),
                        sc.repro_command()
                    )));
                }
            }
            current = next;
        }
    }
}
