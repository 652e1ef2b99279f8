//! Answering **dual-simulation** pattern queries using views (the paper's
//! §VIII extension: "our techniques can be readily extended to revisions of
//! simulation such as dual and strong simulation \[28\], retaining the same
//! complexity").
//!
//! Everything mirrors the plain pipeline with backward edge-preservation
//! added at each level:
//!
//! * view matches come from [`simulate_pattern_dual`] — a view covers a
//!   query edge only when it dual-simulates into the query;
//! * extensions are materialized with `dual_match_pattern`;
//! * `dual_match_join` runs the fixpoint with *two* support counters per
//!   edge (forward witnesses for the source, backward witnesses for the
//!   target).
//!
//! Dual simulations compose exactly like plain ones, so the single-witness
//! merge narrowing and the Theorem-1-style equivalence
//! `DualMatchJoin(V(G)) == DualMatch(G)` both carry over (property-tested
//! in `tests/`).

use crate::containment::{ContainmentPlan, ViewEdgeRef};
use crate::matchjoin::{
    adjacency, assemble, build_edge_csr, compact_index, count_support, filter_surviving,
    merge_step, zero_support, EdgeCsr, JoinError,
};
use crate::view::{ViewExtensions, ViewSet};
use gpv_graph::{BitSet, NodeId};
use gpv_matching::dual::dual_match_pattern;
use gpv_matching::pattern_sim::simulate_pattern_dual;
use gpv_matching::result::MatchResult;
use gpv_pattern::{Pattern, PatternEdgeId, PatternNodeId};
use std::borrow::Cow;

/// `Dcontain`: decides whether `Qs` is contained in `V` under dual
/// simulation, returning the witnessing λ.
pub fn dual_contain(q: &Pattern, views: &ViewSet) -> Option<ContainmentPlan> {
    let ne = q.edge_count();
    let mut lambda: Vec<Vec<ViewEdgeRef>> = vec![Vec::new(); ne];
    let mut covered = vec![false; ne];
    for (vi, vdef) in views.iter() {
        let Some(sim) = simulate_pattern_dual(&vdef.pattern, q) else {
            continue;
        };
        for (vei, qedges) in sim.edge_matches.iter().enumerate() {
            for &qe in qedges {
                covered[qe.index()] = true;
                lambda[qe.index()].push(ViewEdgeRef {
                    view: vi,
                    edge: PatternEdgeId(vei as u32),
                });
            }
        }
    }
    if covered.iter().all(|&c| c) {
        let mut used: Vec<usize> = lambda
            .iter()
            .flat_map(|v| v.iter().map(|r| r.view))
            .collect();
        used.sort_unstable();
        used.dedup();
        Some(ContainmentPlan {
            lambda,
            used_views: used,
        })
    } else {
        None
    }
}

/// Materializes views with the dual-simulation engine, freezing each result
/// into its columnar arena region.
pub fn dual_materialize(views: &ViewSet, g: &gpv_graph::DataGraph) -> ViewExtensions {
    ViewExtensions {
        extensions: views
            .views()
            .iter()
            .map(|v| {
                std::sync::Arc::new(crate::compact::CompactView::freeze(&dual_match_pattern(
                    &v.pattern, g,
                )))
            })
            .collect(),
    }
}

/// `DualMatchJoin`: computes the dual-simulation result of `q` from dual
/// view extensions, without accessing `G`. The merge is `MatchJoin`'s
/// single-witness merge (dual simulations compose).
pub fn dual_match_join(
    q: &Pattern,
    plan: &ContainmentPlan,
    ext: &ViewExtensions,
) -> Result<MatchResult, JoinError> {
    let merged = merge_step(q, plan, ext)?;
    Ok(dual_fixpoint(q, &merged))
}

/// Two-directional support-counter fixpoint over merged candidate sets.
/// Compaction, the per-edge CSRs, support counting, the final filter and
/// assembly are `MatchJoin`'s; only the candidates (sources of every
/// out-edge *and* targets of every in-edge), the forward CSR and the
/// drain, which cascades both ways, are dual-specific.
fn dual_fixpoint(q: &Pattern, merged: &[Cow<'_, [(NodeId, NodeId)]>]) -> MatchResult {
    let dense = compact_index(merged);
    let m = dense.rev_index.len();
    let csrs: Vec<EdgeCsr> = dense.pairs.iter().map(|p| build_edge_csr(p, m)).collect();
    // The drain walks successors too, so the dual join alone needs a
    // forward CSR (offsets by source, target payloads).
    let fwd: Vec<(Vec<u32>, Vec<u32>)> = dense
        .pairs
        .iter()
        .map(|p| adjacency(p.iter().copied(), m))
        .collect();

    let mut cand: Vec<BitSet> = Vec::with_capacity(q.node_count());
    for u in q.nodes() {
        let mut sides = q
            .out_edges(u)
            .iter()
            .map(|&(_, e)| &csrs[e.index()].srcs)
            .chain(q.in_edges(u).iter().map(|&(_, e)| &csrs[e.index()].tgts));
        let mut set = sides.next().cloned().unwrap_or_else(|| BitSet::new(m));
        for side in sides {
            set.intersect_with(side);
        }
        if set.is_empty() {
            return MatchResult::empty();
        }
        cand.push(set);
    }

    // `support[0]`: forward support (source side); `support[1]`: backward
    // support (target side, over flipped pairs). Zero-support candidates
    // seed the drain.
    let mut support: [Vec<Vec<u32>>; 2] = [Vec::new(), Vec::new()];
    let mut worklist: Vec<(PatternNodeId, u32)> = Vec::new();
    let mut scheduled: Vec<BitSet> = vec![BitSet::new(m); q.node_count()];
    for (ei, pairs) in dense.pairs.iter().enumerate() {
        let (u, t) = q.edge(PatternEdgeId(ei as u32));
        let (cand_u, cand_t) = (&cand[u.index()], &cand[t.index()]);
        let f = count_support(pairs.iter().copied(), cand_t, m);
        let b = count_support(pairs.iter().map(|&(s, w)| (w, s)), cand_u, m);
        for (node, v) in zero_support(&f, cand_u)
            .map(|v| (u, v))
            .chain(zero_support(&b, cand_t).map(|v| (t, v)))
        {
            if scheduled[node.index()].insert(v as usize) {
                worklist.push((node, v));
            }
        }
        support[0].push(f);
        support[1].push(b);
    }

    let mut head = 0;
    while head < worklist.len() {
        let (u, v) = worklist[head];
        head += 1;
        if !cand[u.index()].remove(v as usize) {
            continue;
        }
        if cand[u.index()].is_empty() {
            return MatchResult::empty();
        }
        // A removal cascades to predecessors through `rev` (their forward
        // support drops) and to successors through `fwd` (their backward
        // support drops).
        let preds = q
            .in_edges(u)
            .iter()
            .map(|&(u0, e)| (u0, e, &csrs[e.index()].rev, 0));
        let succs = q
            .out_edges(u)
            .iter()
            .map(|&(t2, e)| (t2, e, &fwd[e.index()], 1));
        for (u2, e, (off, adj), dir) in preds.chain(succs) {
            let (a, b) = (off[v as usize] as usize, off[v as usize + 1] as usize);
            for &w in &adj[a..b] {
                if cand[u2.index()].contains(w as usize)
                    && !scheduled[u2.index()].contains(w as usize)
                {
                    let s = &mut support[dir][e.index()][w as usize];
                    *s = s.saturating_sub(1);
                    if *s == 0 {
                        scheduled[u2.index()].insert(w as usize);
                        worklist.push((u2, w));
                    }
                }
            }
        }
    }

    let mut out = Vec::with_capacity(csrs.len());
    for (ei, pairs) in dense.pairs.iter().enumerate() {
        let (u, t) = q.edge(PatternEdgeId(ei as u32));
        let set = filter_surviving(pairs, &cand[u.index()], &cand[t.index()], &dense.rev_index);
        if set.is_empty() {
            return MatchResult::empty();
        }
        out.push(set);
    }
    assemble(q, Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ViewDef;
    use gpv_graph::GraphBuilder;
    use gpv_pattern::PatternBuilder;

    /// G where dual prunes more than plain: A1 -> B1 (B1 lacks a C pred),
    /// A2 -> B2, C1 -> B2.
    fn setup() -> (gpv_graph::DataGraph, Pattern, ViewSet) {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(["A"]);
        let b1 = b.add_node(["B"]);
        let a2 = b.add_node(["A"]);
        let b2 = b.add_node(["B"]);
        let c1 = b.add_node(["C"]);
        b.add_edge(a1, b1);
        b.add_edge(a2, b2);
        b.add_edge(c1, b2);
        let g = b.build();

        let mut pb = PatternBuilder::new();
        let ua = pb.node_labeled("A");
        let ub = pb.node_labeled("B");
        let uc = pb.node_labeled("C");
        pb.edge(ua, ub);
        pb.edge(uc, ub);
        let q = pb.build().unwrap();

        // Views: the exact two edges.
        let mut v1 = PatternBuilder::new();
        let x = v1.node_labeled("A");
        let y = v1.node_labeled("B");
        v1.edge(x, y);
        let mut v2 = PatternBuilder::new();
        let x = v2.node_labeled("C");
        let y = v2.node_labeled("B");
        v2.edge(x, y);
        let views = ViewSet::new(vec![
            ViewDef::new("VA", v1.build().unwrap()),
            ViewDef::new("VC", v2.build().unwrap()),
        ]);
        (g, q, views)
    }

    #[test]
    fn dual_join_equals_dual_match() {
        let (g, q, views) = setup();
        let plan = dual_contain(&q, &views).expect("contained under dual sim");
        let ext = dual_materialize(&views, &g);
        let joined = dual_match_join(&q, &plan, &ext).unwrap();
        let direct = dual_match_pattern(&q, &g);
        assert_eq!(joined, direct);
        assert!(!direct.is_empty());
        // B1 must be gone from the (A,B) matches: only (A2,B2) remains.
        assert_eq!(direct.edge_matches[0], vec![(NodeId(2), NodeId(3))]);
    }

    #[test]
    fn dual_contain_stricter_than_plain() {
        use crate::containment::contain;
        // View with an in-edge requirement that the query lacks.
        let mut vb = PatternBuilder::new();
        let a = vb.node_labeled("A");
        let bb = vb.node_labeled("B");
        let c = vb.node_labeled("C");
        vb.edge(a, bb);
        vb.edge(c, bb);
        let v = vb.build().unwrap();

        let mut qb = PatternBuilder::new();
        let a = qb.node_labeled("A");
        let bb = qb.node_labeled("B");
        qb.edge(a, bb);
        let q = qb.build().unwrap();

        let views = ViewSet::new(vec![ViewDef::new("V", v)]);
        assert!(
            contain(&q, &views).is_none(),
            "plain also fails (C unmatched)"
        );
        assert!(dual_contain(&q, &views).is_none());
    }

    #[test]
    fn empty_when_views_empty() {
        let (_, q, views) = setup();
        let mut b = GraphBuilder::new();
        let x = b.add_node(["X"]);
        let y = b.add_node(["Y"]);
        b.add_edge(x, y);
        let g = b.build();
        let plan = dual_contain(&q, &views).unwrap();
        let ext = dual_materialize(&views, &g);
        let r = dual_match_join(&q, &plan, &ext).unwrap();
        assert!(r.is_empty());
        assert!(dual_match_pattern(&q, &g).is_empty());
    }
}
