//! Incremental maintenance of materialized simulation views (extension).
//!
//! The paper points out that "incremental methods are already in place to
//! efficiently maintain cached pattern views (e.g. \[15\])" — Fan et al.,
//! *Incremental Graph Pattern Matching* (SIGMOD 2011). This module provides
//! a working maintenance engine for plain-simulation views:
//!
//! * **edge deletions** are handled truly incrementally: deletion is
//!   downward-monotone for simulation, so the same support-counter /
//!   worklist machinery used by `Match` propagates exactly the invalidated
//!   candidates — cost proportional to the affected area, not `|G|`;
//! * **edge insertions** are upward-monotone (matches can only appear):
//!   insertion collects *revival candidates* — nodes outside the current
//!   relation that an inserted edge could newly support — by a backward
//!   closure seeded at the inserted edges' sources, recomputes supports
//!   only for that region, and lets the standard removal drain prune the
//!   over-approximation. Nodes already in the relation can never be
//!   removed by this (their supports only grow), so the cost is
//!   proportional to the revived region, not `|G|`. A view whose
//!   extension is currently empty has no warm state to extend and falls
//!   back to one refinement from the cached predicate-candidate sets.
//!
//! A maintainer owns no copy of the graph. It keeps the predicate base
//! sets, the current relation and its support counters, and each
//! [`apply`](IncrementalView::apply) borrows the immutable graphs before
//! and after the delta. The invariant is
//! `view.result(g) == match_pattern(pattern, g)`, where `g` is the graph
//! the view was built over or the `after` graph of its last `apply`. It is
//! enforced by the tests below and by property tests in `tests/`.

use crate::delta::EdgeDelta;
use gpv_graph::{BitSet, DataGraph, NodeId};
use gpv_matching::result::MatchResult;
use gpv_pattern::{Pattern, PatternNodeId};

/// A materialized simulation view that tracks a mutating edge set.
#[derive(Clone, Debug)]
pub struct IncrementalView {
    pattern: Pattern,
    /// Predicate-satisfying candidates (static: node labels/attrs are fixed).
    base: Vec<BitSet>,
    /// Current maximum simulation relation (empty vec when no match).
    cand: Vec<BitSet>,
    /// support[e][v] for v ∈ cand(src(e)).
    support: Vec<Vec<u32>>,
    /// Whether the view extension is currently empty.
    empty: bool,
    /// Whether a mutation changed the extension since the last
    /// [`take_dirty`](Self::take_dirty). Mutations track this exactly: a
    /// deletion marks it only when it removes a pair between current
    /// candidates (or cascades), an insertion only when it adds such a pair
    /// or a revival survives the drain.
    dirty: bool,
}

/// How many successors of `v` in `g` lie in `targets`.
fn support_in(g: &DataGraph, v: usize, targets: &BitSet) -> u32 {
    g.out_neighbors(NodeId(v as u32))
        .iter()
        .filter(|w| targets.contains(w.index()))
        .count() as u32
}

impl IncrementalView {
    /// Predicate base sets, with no relation yet.
    fn cold(pattern: Pattern, g: &DataGraph) -> Self {
        let n = g.node_count();
        let mut base = Vec::with_capacity(pattern.node_count());
        for u in pattern.nodes() {
            let resolved = pattern.pred(u).resolve(g);
            let mut set = BitSet::new(n);
            for v in g.nodes() {
                if resolved.satisfied_by(g, v) {
                    set.insert(v.index());
                }
            }
            base.push(set);
        }

        IncrementalView {
            pattern,
            base,
            cand: Vec::new(),
            support: Vec::new(),
            empty: true,
            dirty: false,
        }
    }

    /// Materializes `pattern` over `g` and prepares maintenance state.
    pub fn new(pattern: Pattern, g: &DataGraph) -> Self {
        let mut view = Self::cold(pattern, g);
        view.refine(g, view.base.clone());
        view
    }

    /// Promotes a maintainer from an already-materialized extension.
    ///
    /// `result` must be exactly `match_pattern(&pattern, g)` — e.g. a thawed
    /// stored extension for the store's current graph. The refinement
    /// starts from that relation rather than the base sets, so it only
    /// counts supports: no candidate is removed. This is how a store warms
    /// maintainers on the first delta without re-deriving what
    /// materialization already computed.
    pub fn from_result(pattern: Pattern, g: &DataGraph, result: &MatchResult) -> Self {
        let mut view = Self::cold(pattern, g);
        if result.is_empty() {
            return view;
        }
        let n = g.node_count();
        let cand = view
            .pattern
            .nodes()
            .map(|u| {
                let mut set = BitSet::new(n);
                for &v in result.node_set(u) {
                    set.insert(v.index());
                }
                set
            })
            .collect();
        view.refine(g, cand);
        view
    }

    /// Returns whether any mutation since the previous call changed the
    /// extension, and clears the flag. Freshly constructed views start
    /// clean. Callers holding a frozen copy of the extension can skip
    /// re-freezing when this returns `false`.
    pub fn take_dirty(&mut self) -> bool {
        std::mem::take(&mut self.dirty)
    }

    /// Drops the relation: the view extension is ∅.
    fn clear(&mut self) {
        self.cand = Vec::new();
        self.support = Vec::new();
        self.empty = true;
    }

    /// Refines `cand` — a superset of the maximum simulation relation over
    /// `g` — down to that relation: counts every candidate's supports, then
    /// drains the zero-support ones. The support initialisation shared by
    /// [`new`](Self::new), [`from_result`](Self::from_result) and the
    /// revival of an empty view.
    fn refine(&mut self, g: &DataGraph, cand: Vec<BitSet>) {
        if cand.iter().any(BitSet::is_empty) {
            self.clear();
            return;
        }
        let n = g.node_count();
        let mut support = vec![vec![0u32; n]; self.pattern.edge_count()];
        let mut scheduled = vec![BitSet::new(n); self.pattern.node_count()];
        let mut worklist: Vec<(PatternNodeId, NodeId)> = Vec::new();
        for (ei, &(u, t)) in self.pattern.edges().iter().enumerate() {
            for v in cand[u.index()].iter() {
                let cnt = support_in(g, v, &cand[t.index()]);
                support[ei][v] = cnt;
                if cnt == 0 && scheduled[u.index()].insert(v) {
                    worklist.push((u, NodeId(v as u32)));
                }
            }
        }
        self.cand = cand;
        self.support = support;
        self.empty = false;
        self.drain(g, &[], &mut scheduled, worklist);
    }

    /// Shared removal-propagation loop over `g` minus the edges in
    /// `deleted` (sorted). Returns false — leaving the view empty — if a
    /// candidate set empties.
    fn drain(
        &mut self,
        g: &DataGraph,
        deleted: &[(NodeId, NodeId)],
        scheduled: &mut [BitSet],
        mut worklist: Vec<(PatternNodeId, NodeId)>,
    ) -> bool {
        let mut head = 0;
        while head < worklist.len() {
            let (u, v) = worklist[head];
            head += 1;
            if !self.cand[u.index()].remove(v.index()) {
                continue;
            }
            if self.cand[u.index()].is_empty() {
                self.clear();
                return false;
            }
            for &(u0, e0) in self.pattern.in_edges(u) {
                for &w in g.in_neighbors(v) {
                    if self.cand[u0.index()].contains(w.index())
                        && !scheduled[u0.index()].contains(w.index())
                        && deleted.binary_search(&(w, v)).is_err()
                    {
                        let s = &mut self.support[e0.index()][w.index()];
                        *s = s.saturating_sub(1);
                        if *s == 0 {
                            scheduled[u0.index()].insert(w.index());
                            worklist.push((u0, w));
                        }
                    }
                }
            }
        }
        true
    }

    /// Applies one [`EdgeDelta`] — `deletes` first, then `inserts` —
    /// incrementally. `before` is the graph the view currently reflects and
    /// `after` is `delta.apply_to(before)`; both are borrowed, never copied.
    ///
    /// * The deletes run as one batch: each deleted edge of `before` between
    ///   current candidates decrements its source's support, and the drain
    ///   walks `before`'s in-neighbours minus the deleted edges — exactly the
    ///   post-delete graph, without building it.
    /// * The inserts then revive over `after`: sources of inserted edges
    ///   seed a backward closure of revival candidates, whose supports are
    ///   counted locally before the drain prunes them. An insert counts
    ///   only if the post-delete graph lacks it, so re-inserting a deleted
    ///   edge and inserting a present edge are neither lost nor
    ///   double-counted. A view that is empty at this point re-refines from
    ///   its base sets over `after`.
    ///
    /// Endpoints must be `< before.node_count()`; the store boundary
    /// validates untrusted deltas before calling this.
    pub fn apply(&mut self, delta: &EdgeDelta, before: &DataGraph, after: &DataGraph) {
        let mut deleted = delta.deletes.clone();
        deleted.sort_unstable();
        deleted.dedup();
        if !self.empty && !deleted.is_empty() {
            let n = before.node_count();
            let mut scheduled = vec![BitSet::new(n); self.pattern.node_count()];
            let mut worklist: Vec<(PatternNodeId, NodeId)> = Vec::new();
            for &(a, b) in deleted.iter().filter(|&&(a, b)| before.has_edge(a, b)) {
                for (ei, &(u, t)) in self.pattern.edges().iter().enumerate() {
                    if self.cand[u.index()].contains(a.index())
                        && self.cand[t.index()].contains(b.index())
                    {
                        // Pair (a, b) leaves edge ei's match set: the result
                        // changed.
                        self.dirty = true;
                        let s = &mut self.support[ei][a.index()];
                        *s = s.saturating_sub(1);
                        if *s == 0 && scheduled[u.index()].insert(a.index()) {
                            worklist.push((u, a));
                        }
                    }
                }
            }
            self.drain(before, &deleted, &mut scheduled, worklist);
        }

        let mut added: Vec<(NodeId, NodeId)> = delta
            .inserts
            .iter()
            .copied()
            .filter(|&(a, b)| !before.has_edge(a, b) || deleted.binary_search(&(a, b)).is_ok())
            .collect();
        added.sort_unstable();
        added.dedup();
        if added.is_empty() {
            return;
        }
        if self.empty {
            // No warm relation to extend — the view may revive wholesale.
            self.refine(after, self.base.clone());
            self.dirty |= !self.empty;
        } else {
            self.revive(&added, after);
        }
    }

    /// Inserts `added` (edges of `after` absent from the post-delete graph)
    /// into a non-empty view and revives exactly the affected region.
    ///
    /// Insertion is upward-monotone: the new maximum simulation relation is
    /// a superset of the current one, and every *newly* admitted node must
    /// justify itself through a chain of successors that bottoms out at an
    /// inserted edge. So:
    ///
    /// 1. candidates already in the relation that gain an inserted edge to
    ///    an in-relation target just bump their support counter;
    /// 2. **revival candidates** — nodes in a pattern node's base but
    ///    outside the relation — are collected by a backward closure: the
    ///    sources of inserted edges seed it, and any base-but-not-candidate
    ///    predecessor of a revival candidate joins it;
    /// 3. revived nodes enter the candidate sets, their supports are
    ///    recomputed locally (and pre-existing members gain support for
    ///    edges into revived targets), and the standard removal drain
    ///    prunes revivals that don't pan out. Pre-existing members'
    ///    supports only ever grow, so the drain can only remove revival
    ///    candidates — the relation never shrinks below its old value.
    fn revive(&mut self, added: &[(NodeId, NodeId)], after: &DataGraph) {
        let n = after.node_count();
        let np = self.pattern.node_count();

        // Seeds + direct support bumps.
        let mut revive = vec![BitSet::new(n); np];
        let mut queue: Vec<(PatternNodeId, NodeId)> = Vec::new();
        for &(a, b) in added {
            for (ei, &(u, t)) in self.pattern.edges().iter().enumerate() {
                if !self.base[u.index()].contains(a.index())
                    || !self.base[t.index()].contains(b.index())
                {
                    continue;
                }
                let a_in = self.cand[u.index()].contains(a.index());
                let b_in = self.cand[t.index()].contains(b.index());
                if a_in && b_in {
                    // Pair (a, b) joins edge ei's match set immediately.
                    self.dirty = true;
                    self.support[ei][a.index()] += 1;
                }
                if !a_in && revive[u.index()].insert(a.index()) {
                    queue.push((u, a));
                }
            }
        }

        // Backward closure over base-but-not-candidate predecessors.
        let mut head = 0;
        while head < queue.len() {
            let (t, x) = queue[head];
            head += 1;
            for &(u0, _) in self.pattern.in_edges(t) {
                for &w in after.in_neighbors(x) {
                    if self.base[u0.index()].contains(w.index())
                        && !self.cand[u0.index()].contains(w.index())
                        && revive[u0.index()].insert(w.index())
                    {
                        queue.push((u0, w));
                    }
                }
            }
        }
        if queue.is_empty() {
            return;
        }

        // Admit revivals, recompute their supports locally, credit
        // pre-existing members for edges into revived targets, then drain.
        for &(u, v) in &queue {
            self.cand[u.index()].insert(v.index());
        }
        let mut scheduled = vec![BitSet::new(n); np];
        let mut worklist: Vec<(PatternNodeId, NodeId)> = Vec::new();
        for (ei, &(u, t)) in self.pattern.edges().iter().enumerate() {
            for v in revive[u.index()].iter() {
                let cnt = support_in(after, v, &self.cand[t.index()]);
                self.support[ei][v] = cnt;
                if cnt == 0 && scheduled[u.index()].insert(v) {
                    worklist.push((u, NodeId(v as u32)));
                }
            }
            for x in revive[t.index()].iter() {
                for &w in after.in_neighbors(NodeId(x as u32)) {
                    if self.cand[u.index()].contains(w.index())
                        && !revive[u.index()].contains(w.index())
                    {
                        self.support[ei][w.index()] += 1;
                    }
                }
            }
        }
        if !self.drain(after, &[], &mut scheduled, worklist) {
            self.dirty = true;
            return;
        }
        // Any revival that survived the drain grew the relation.
        if queue
            .iter()
            .any(|&(u, v)| self.cand[u.index()].contains(v.index()))
        {
            self.dirty = true;
        }
    }

    /// The maintained pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The current view extension `V(g)`, where `g` is the graph the view
    /// reflects: the one it was built over, or the `after` graph of its
    /// last [`apply`](Self::apply).
    pub fn result(&self, g: &DataGraph) -> MatchResult {
        if self.empty {
            return MatchResult::empty();
        }
        let mut edge_matches = Vec::with_capacity(self.pattern.edge_count());
        for &(u, t) in self.pattern.edges() {
            let (cu, ct) = (&self.cand[u.index()], &self.cand[t.index()]);
            let mut set = Vec::new();
            for v in cu.iter() {
                let v = NodeId(v as u32);
                for &w in g.out_neighbors(v) {
                    if ct.contains(w.index()) {
                        set.push((v, w));
                    }
                }
            }
            if set.is_empty() {
                return MatchResult::empty();
            }
            edge_matches.push(set);
        }
        let node_matches = self
            .cand
            .iter()
            .map(|s| s.iter().map(|i| NodeId(i as u32)).collect())
            .collect();
        MatchResult::new(&self.pattern, node_matches, edge_matches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_graph::GraphBuilder;
    use gpv_matching::simulation::match_pattern;
    use gpv_pattern::PatternBuilder;

    fn pattern_abc() -> Pattern {
        let mut b = PatternBuilder::new();
        let a = b.node_labeled("A");
        let bb = b.node_labeled("B");
        let c = b.node_labeled("C");
        b.edge(a, bb);
        b.edge(bb, c);
        b.build().unwrap()
    }

    /// Two disjoint chains a1→b1→c1 (nodes 0–2) and a2→b2→c2 (nodes 3–5).
    fn graph() -> DataGraph {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(["A"]);
        let b1 = b.add_node(["B"]);
        let c1 = b.add_node(["C"]);
        let a2 = b.add_node(["A"]);
        let b2 = b.add_node(["B"]);
        let c2 = b.add_node(["C"]);
        b.add_edge(a1, b1);
        b.add_edge(b1, c1);
        b.add_edge(a2, b2);
        b.add_edge(b2, c2);
        b.build()
    }

    fn edges(es: &[(u32, u32)]) -> Vec<(NodeId, NodeId)> {
        es.iter().map(|&(a, b)| (NodeId(a), NodeId(b))).collect()
    }

    /// Applies one delta to `view` over `g` and checks the result against
    /// `match_pattern` on the post-delta graph, which it returns.
    fn step(
        view: &mut IncrementalView,
        g: &DataGraph,
        inserts: &[(u32, u32)],
        deletes: &[(u32, u32)],
    ) -> DataGraph {
        let delta = EdgeDelta::new(edges(inserts), edges(deletes));
        let after = delta.apply_to(g);
        view.apply(&delta, g, &after);
        assert_eq!(
            view.result(&after),
            match_pattern(view.pattern(), &after),
            "after inserts {inserts:?}, deletes {deletes:?}"
        );
        after
    }

    #[test]
    fn initial_matches_oracle() {
        let g = graph();
        let view = IncrementalView::new(pattern_abc(), &g);
        assert_eq!(view.result(&g), match_pattern(&pattern_abc(), &g));
    }

    #[test]
    fn delete_propagates() {
        let g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        // Deleting b1 -> c1 invalidates b1 (no C successor), then a1.
        let g = step(&mut view, &g, &[], &[(1, 2)]);
        assert!(view.take_dirty());
        let r = view.result(&g);
        assert_eq!(r.node_set(PatternNodeId(0)), &[NodeId(3)], "only a2 left");
    }

    #[test]
    fn delete_to_empty() {
        let g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        let g = step(&mut view, &g, &[], &[(1, 2), (4, 5)]);
        assert!(view.result(&g).is_empty());
        // Further deletions on an empty view are safe no-ops.
        step(&mut view, &g, &[], &[(0, 1)]);
    }

    #[test]
    fn delete_of_absent_edge_is_a_clean_no_op() {
        let g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        // a1 -> c2 is absent; a1 and c2 are both current candidates.
        step(&mut view, &g, &[], &[(0, 5)]);
        assert!(!view.take_dirty());
    }

    #[test]
    fn insert_adds_matches() {
        let g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        // Cross edge a1 -> b2 adds a new (A,B) match.
        step(&mut view, &g, &[(0, 4)], &[]);
        assert!(view.take_dirty());
    }

    #[test]
    fn insert_of_present_edge_is_not_double_counted() {
        let g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        let g = step(&mut view, &g, &[(1, 2)], &[]);
        assert!(!view.take_dirty());
        // Were b1's support for (B,C) counted twice, deleting the one
        // b1 -> c1 edge would leave it at 1 and keep b1 and a1 alive.
        step(&mut view, &g, &[], &[(1, 2)]);
        assert!(view.take_dirty());
    }

    #[test]
    fn delete_and_reinsert_in_one_delta_keeps_the_edge() {
        let g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        // Deletes land first, so b1 -> c1 ends up present: the answer is
        // unchanged, and the edge's support survives the round trip — a
        // later delete of it must still cascade.
        let g = step(&mut view, &g, &[(1, 2)], &[(1, 2)]);
        assert_eq!(view.result(&g), match_pattern(&pattern_abc(), &graph()));
        step(&mut view, &g, &[], &[(1, 2)]);
    }

    #[test]
    fn batch_delete_does_not_double_count_a_deleted_edge() {
        // a1 -> {b1, b2}, b1 -> c1, b2 -> c2. Deleting a1 -> b1 and b1 -> c1
        // together seeds a1's decrement once; when the drain then removes
        // b1 it must skip the deleted a1 -> b1, or a1 (still matched via
        // b2) would be decremented a second time and dropped.
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(["A"]);
        let b1 = b.add_node(["B"]);
        let c1 = b.add_node(["C"]);
        let b2 = b.add_node(["B"]);
        let c2 = b.add_node(["C"]);
        b.add_edge(a1, b1);
        b.add_edge(a1, b2);
        b.add_edge(b1, c1);
        b.add_edge(b2, c2);
        let g = b.build();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        let g = step(&mut view, &g, &[], &[(0, 1), (1, 2)]);
        assert_eq!(view.result(&g).node_set(PatternNodeId(0)), &[a1]);
    }

    #[test]
    fn repeated_edges_in_an_unnormalized_delta_count_once() {
        let mut g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        let b1c2 = (NodeId(1), NodeId(5));
        // Public fields bypass `EdgeDelta::new`'s sort + dedup.
        let steps = [
            // b1 gains a second C successor, listed twice.
            EdgeDelta {
                inserts: vec![b1c2, b1c2],
                deletes: vec![],
            },
            // b1 loses it again, listed twice: b1 -> c1 still holds b1.
            EdgeDelta {
                inserts: vec![],
                deletes: vec![b1c2, b1c2],
            },
            // Now b1 loses its last C successor and must drop out.
            EdgeDelta::new(vec![], vec![(NodeId(1), NodeId(2))]),
        ];
        for delta in steps {
            let after = delta.apply_to(&g);
            view.apply(&delta, &g, &after);
            assert_eq!(
                view.result(&after),
                match_pattern(&pattern_abc(), &after),
                "after {delta:?}"
            );
            g = after;
        }
    }

    #[test]
    fn one_delta_empties_and_another_revives() {
        let g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        let g = step(&mut view, &g, &[], &[(1, 2), (4, 5)]);
        assert!(view.result(&g).is_empty());
        assert!(view.take_dirty());
        let g = step(&mut view, &g, &[(1, 2)], &[]);
        assert!(!view.result(&g).is_empty());
        assert!(view.take_dirty());
    }

    #[test]
    fn one_delta_empties_and_revives_together() {
        let g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        // Both B→C edges go, and a new b2 -> c1 comes: the deletes empty
        // the view and the insert re-refines it over the post-delta graph.
        step(&mut view, &g, &[(4, 2)], &[(1, 2), (4, 5)]);
        assert!(view.take_dirty());
    }

    #[test]
    fn mixed_batch_matches_oracle() {
        let g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        step(&mut view, &g, &[(0, 4), (1, 2)], &[(1, 2), (3, 4)]);
    }

    #[test]
    fn interleaved_sequence_matches_oracle() {
        let mut g = graph();
        let mut view = IncrementalView::new(pattern_abc(), &g);
        let ops: &[(bool, u32, u32)] = &[
            (false, 0, 1),
            (true, 0, 4),
            (false, 3, 4),
            (true, 3, 1),
            (false, 1, 2),
            (true, 1, 2),
        ];
        for &(insert, a, b) in ops {
            g = if insert {
                step(&mut view, &g, &[(a, b)], &[])
            } else {
                step(&mut view, &g, &[], &[(a, b)])
            };
        }
    }
}
