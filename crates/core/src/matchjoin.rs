//! `MatchJoin` — answering a pattern query from materialized views
//! (paper Fig. 2, Theorem 1).
//!
//! Given `Qs ⊑ V` witnessed by a [`ContainmentPlan`] `λ`, `MatchJoin`
//! computes `Qs(G)` from the extensions `V(G)` **without accessing `G`**:
//!
//! 1. initialize each `Se` as `⋃_{e' ∈ λ(e)} S_e'` (merge);
//! 2. remove invalid matches until a fixpoint — exactly the matches whose
//!    endpoints lose all witnesses for some pattern edge.
//!
//! Two strategies are provided:
//!
//! * [`JoinStrategy::NaiveFixpoint`] — the literal Fig. 2 loop: rescan match
//!   sets until stable (`MatchJoin_nopt` in the experiments);
//! * [`JoinStrategy::RankedBottomUp`] — the Section III optimization: a
//!   support-counter worklist drained in ascending SCC-rank order, so match
//!   sets of edges below any non-singleton SCC are visited at most once
//!   (Lemma 2). This is the default, and `ranked_fixpoint` is its only
//!   executor: [`ExecStrategy::Parallel`] runs the same kernel with its
//!   per-edge stages fanned across workers ([`crate::parallel`]).
//!
//! Complexity: `O(|Qs||V(G)| + |V(G)|²)` — versus
//! `O(|Qs|² + |Qs||G| + |G|²)` for evaluating `Qs` on `G` directly.

use crate::containment::ContainmentPlan;
use crate::parallel::{auto_threads, par_map};
use crate::plan::ExecStrategy;
use crate::view::ViewExtensions;
use gpv_graph::NodeId;
use gpv_matching::result::MatchResult;
use gpv_pattern::{Pattern, PatternEdgeId, PatternNodeId};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{HashSet, VecDeque};

/// Merged per-edge match sets, the fixpoint's working input. Sets sourced
/// from a view borrow the extension arena's canonical flat slice
/// (`Cow::Borrowed` — zero per-pair work in the merge), while sets built by
/// a union or a graph scan own their pairs (`Cow::Owned`).
pub(crate) type MergedSets<'a> = Vec<Cow<'a, [(NodeId, NodeId)]>>;

/// Worklist discipline for the fixpoint phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinStrategy {
    /// The optimized bottom-up strategy (Section III): counter-based
    /// worklist drained in ascending pattern-node rank.
    RankedBottomUp,
    /// The unoptimized Fig. 2 fixpoint (`MatchJoin_nopt`): repeatedly rescan
    /// all match sets until nothing changes.
    NaiveFixpoint,
}

/// Instrumentation for the Lemma 2 / Fig. 8(f) experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinStats {
    /// Number of times a match set `Se` was scanned or updated.
    pub edge_visits: u64,
    /// Number of match pairs removed during refinement.
    pub removals: u64,
    /// Total pairs after the merge step (the working-set size).
    pub merged_pairs: u64,
}

/// Errors from [`match_join`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JoinError {
    /// The plan's λ has a different number of entries than the query has
    /// edges (plan built for another query).
    PlanMismatch,
    /// λ references a view index beyond the extensions.
    ViewOutOfRange(usize),
    /// The query has no edges; `Qs(G)` is defined via edge match sets.
    NoEdges,
    /// A plan source is [`EdgeSource::Graph`](crate::plan::EdgeSource) but
    /// no data graph was supplied to the executor.
    GraphRequired,
    /// A parallel worker panicked while processing the given pattern-edge
    /// index (caught and resurfaced instead of aborting the process).
    WorkerPanicked(usize),
    /// A parallel worker thread died outside the per-item panic catch, so
    /// no failing edge index is known. Distinct from
    /// [`WorkerPanicked`](Self::WorkerPanicked) — this used to be encoded
    /// as `WorkerPanicked(usize::MAX)`, which callers reported as a
    /// nonsense edge index.
    WorkerLost,
}

impl From<crate::parallel::ParError> for JoinError {
    fn from(e: crate::parallel::ParError) -> Self {
        match e {
            crate::parallel::ParError::Panicked(i) => JoinError::WorkerPanicked(i),
            crate::parallel::ParError::Lost => JoinError::WorkerLost,
        }
    }
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::PlanMismatch => write!(f, "containment plan does not match the query"),
            JoinError::ViewOutOfRange(i) => write!(f, "plan references missing view {i}"),
            JoinError::NoEdges => write!(f, "query has no edges"),
            JoinError::GraphRequired => {
                write!(f, "plan sources an edge from G but no graph was supplied")
            }
            JoinError::WorkerPanicked(e) => {
                write!(
                    f,
                    "parallel worker panicked while processing pattern edge {e}"
                )
            }
            JoinError::WorkerLost => {
                write!(f, "parallel worker lost (failing pattern edge unknown)")
            }
        }
    }
}

impl std::error::Error for JoinError {}

/// Answers `Qs` using views with the default (optimized) strategy.
pub fn match_join(
    q: &Pattern,
    plan: &ContainmentPlan,
    ext: &ViewExtensions,
) -> Result<MatchResult, JoinError> {
    match_join_with(q, plan, ext, JoinStrategy::RankedBottomUp).map(|(r, _)| r)
}

/// Answers `Qs` using views with an explicit strategy, returning stats.
pub fn match_join_with(
    q: &Pattern,
    plan: &ContainmentPlan,
    ext: &ViewExtensions,
    strategy: JoinStrategy,
) -> Result<(MatchResult, JoinStats), JoinError> {
    let merged = merge_step(q, plan, ext)?;
    run_fixpoint(q, merged, ExecStrategy::Sequential(strategy))
}

/// Like [`match_join_with`] but initializing with the *literal* Fig. 2 merge
/// `Se := ⋃_{e' ∈ λ(e)} S_e'` instead of the narrowed single-witness merge.
/// Used by the optimization ablation (Fig. 8(f)): the union leaves the
/// fixpoint real pruning work, which is where the bottom-up strategy earns
/// its keep.
pub fn match_join_union_with(
    q: &Pattern,
    plan: &ContainmentPlan,
    ext: &ViewExtensions,
    strategy: JoinStrategy,
) -> Result<(MatchResult, JoinStats), JoinError> {
    let merged = merge_step_union(q, plan, ext)?;
    run_fixpoint(q, merged, ExecStrategy::Sequential(strategy))
}

/// Runs the fixpoint phase over caller-supplied merged sets under `exec` —
/// the execution backend behind the λ-based entry points, the
/// [`EdgeSource`](crate::plan::EdgeSource)-honoring engine path (whose
/// merge is built by `partial::merged_from_sources`) and the hybrid
/// evaluator.
pub(crate) fn run_fixpoint(
    q: &Pattern,
    merged: MergedSets<'_>,
    exec: ExecStrategy,
) -> Result<(MatchResult, JoinStats), JoinError> {
    let mut stats = JoinStats {
        merged_pairs: merged.iter().map(|s| s.len() as u64).sum(),
        ..JoinStats::default()
    };
    let sets = refine(q, merged, exec, &mut stats)?;
    Ok((assemble(q, sets), stats))
}

/// Refines merged sets under `exec` (see [`run_fixpoint`]), returning the
/// per-edge sets before assembly — the bounded join re-attaches distances
/// to them.
pub(crate) fn refine(
    q: &Pattern,
    merged: MergedSets<'_>,
    exec: ExecStrategy,
    stats: &mut JoinStats,
) -> FixpointOutcome {
    let threads = match exec {
        ExecStrategy::Sequential(JoinStrategy::NaiveFixpoint) => {
            return Ok(naive_fixpoint(q, merged, stats));
        }
        ExecStrategy::Sequential(JoinStrategy::RankedBottomUp) => 1,
        ExecStrategy::Parallel { threads: 0 } => auto_threads(),
        ExecStrategy::Parallel { threads } => threads,
    };
    ranked_fixpoint(q, &compact_index(&merged), stats, threads)
}

/// Canonicalizes one edge's borrowed match set: sorted, duplicate-free.
///
/// Since the columnar-arena refactor, sets read from [`ViewExtensions`] are
/// canonical by construction ([`CompactView::freeze`](crate::compact::CompactView::freeze)
/// sorts + dedups defensively at freeze time), so the merge borrows them
/// verbatim and no production path re-normalizes. This survives as the test
/// oracle asserting that arena slices really are in canonical form —
/// duplicates there would inflate [`JoinStats::merged_pairs`], CSR sizes,
/// and the support counters.
#[cfg(test)]
pub(crate) fn canonical_pairs(set: &[(NodeId, NodeId)]) -> Vec<(NodeId, NodeId)> {
    let mut v = set.to_vec();
    if !v.windows(2).all(|w| w[0] < w[1]) {
        v.sort_unstable();
        v.dedup();
    }
    v
}

/// Lines 1-4 of Fig. 2, with a witness-narrowing optimization.
///
/// The paper initializes `Se := ⋃_{e' ∈ λ(e)} S_e'`. Any *single* entry of
/// `λ(e)` already suffices: if `e ∈ S_eV` (the view match of `V` into `Qs`
/// lists `e` for view edge `eV`), then for every `G`, `Se(G) ⊆ S_eV(G)` —
/// simulations compose, so a `G`-match of `e`'s endpoints also matches
/// `eV`'s endpoints, and the pair is a real edge either way. A singleton
/// `λ'(e) ⊆ λ(e)` is therefore also a containment witness, and we pick the
/// entry with the smallest materialized extension, minimizing the `|V(G)|`
/// that the join reads (the quantity Theorem 1's complexity is measured
/// in). The `union_lambda` escape hatch preserves the literal Fig. 2
/// behaviour for the ablation bench.
pub(crate) fn merge_step<'a>(
    q: &Pattern,
    plan: &ContainmentPlan,
    ext: &'a ViewExtensions,
) -> Result<MergedSets<'a>, JoinError> {
    if q.edge_count() == 0 {
        return Err(JoinError::NoEdges);
    }
    if plan.lambda.len() != q.edge_count() {
        return Err(JoinError::PlanMismatch);
    }
    let mut merged = Vec::with_capacity(q.edge_count());
    for entries in &plan.lambda {
        for r in entries {
            if r.view >= ext.extensions.len() {
                return Err(JoinError::ViewOutOfRange(r.view));
            }
        }
        let best = entries
            .iter()
            .min_by_key(|r| ext.edge_set(r.view, r.edge).len())
            .ok_or(JoinError::PlanMismatch)?;
        // Arena regions are canonical by freeze — borrow the flat slice
        // directly: the merge allocates nothing per pair.
        merged.push(Cow::Borrowed(ext.edge_set(best.view, best.edge)));
    }
    Ok(merged)
}

/// The literal Fig. 2 merge: `Se := ⋃_{e' ∈ λ(e)} S_e'`. Exposed for the
/// union-vs-narrowed ablation; produces the same final result as
/// `merge_step` (both initializations contain the true `Se`).
pub fn merge_step_union<'a>(
    q: &Pattern,
    plan: &ContainmentPlan,
    ext: &'a ViewExtensions,
) -> Result<MergedSets<'a>, JoinError> {
    if q.edge_count() == 0 {
        return Err(JoinError::NoEdges);
    }
    if plan.lambda.len() != q.edge_count() {
        return Err(JoinError::PlanMismatch);
    }
    let mut merged = Vec::with_capacity(q.edge_count());
    for entries in &plan.lambda {
        let mut set: Vec<(NodeId, NodeId)> = Vec::new();
        for r in entries {
            if r.view >= ext.extensions.len() {
                return Err(JoinError::ViewOutOfRange(r.view));
            }
            set.extend_from_slice(ext.edge_set(r.view, r.edge));
        }
        set.sort_unstable();
        set.dedup();
        merged.push(Cow::Owned(set));
    }
    Ok(merged)
}

/// Candidate node sets implied by merged edge sets: for a node with
/// out-edges, the intersection of the sources of every out-edge set (a match
/// must witness them all); for a sink, the union of targets of its in-edge
/// sets (the only way it can appear in the result).
pub(crate) fn initial_candidates<S: std::ops::Deref<Target = [(NodeId, NodeId)]>>(
    q: &Pattern,
    merged: &[S],
) -> Vec<HashSet<NodeId>> {
    q.nodes()
        .map(|u| {
            let outs = q.out_edges(u);
            if !outs.is_empty() {
                let mut iter = outs.iter();
                let &(_, e0) = iter.next().expect("nonempty");
                let mut set: HashSet<NodeId> = merged[e0.index()].iter().map(|&(s, _)| s).collect();
                for &(_, e) in iter {
                    let srcs: HashSet<NodeId> = merged[e.index()].iter().map(|&(s, _)| s).collect();
                    set.retain(|v| srcs.contains(v));
                }
                set
            } else {
                q.in_edges(u)
                    .iter()
                    .flat_map(|&(_, e)| merged[e.index()].iter().map(|&(_, t)| t))
                    .collect()
            }
        })
        .collect()
}

/// The merged sets after compaction: every pair endpoint mapped to a
/// dense id, and the dense → [`NodeId`] table.
#[derive(Debug)]
pub(crate) struct Compacted {
    /// Per edge: compacted `(src, tgt)` pairs, in merge order.
    pub pairs: Vec<Vec<(u32, u32)>>,
    /// Dense id → node, in first-occurrence order.
    pub rev_index: Vec<NodeId>,
}

/// Dense-id compaction over every node mentioned in the merged sets. Each
/// pair endpoint goes through a flat `Vec<u32>` remap exactly once; the
/// remap is sized by the largest id present, which a loaded store bounds
/// by its node count (`ViewStore::load_from_dir` rejects larger ids). Dense
/// ids follow first occurrence (source before target, pair by pair), so
/// the result is deterministic.
pub(crate) fn compact_index<S: std::ops::Deref<Target = [(NodeId, NodeId)]>>(
    merged: &[S],
) -> Compacted {
    let span = merged
        .iter()
        .flat_map(|set| set.iter())
        .map(|&(s, t)| s.index().max(t.index()) + 1)
        .max()
        .unwrap_or(0);
    // `remap[v]` is `v`'s dense id plus one; zero means not seen yet.
    let mut remap = vec![0u32; span];
    let mut rev_index = Vec::new();
    let mut dense = |v: NodeId| {
        let slot = &mut remap[v.index()];
        if *slot == 0 {
            rev_index.push(v);
            *slot = rev_index.len() as u32;
        }
        *slot - 1
    };
    let pairs = merged
        .iter()
        .map(|set| {
            set.iter()
                .map(|&(s, t)| {
                    let s = dense(s);
                    (s, dense(t))
                })
                .collect()
        })
        .collect();
    Compacted { pairs, rev_index }
}

/// One edge's compacted match set as the drain reads it: endpoint presence
/// bitsets and the reverse CSR. Pure per-edge data, built by
/// [`build_edge_csr`].
#[derive(Debug)]
pub(crate) struct EdgeCsr {
    /// Dense ids occurring as sources.
    pub srcs: gpv_graph::BitSet,
    /// Dense ids occurring as targets.
    pub tgts: gpv_graph::BitSet,
    /// Reverse CSR: offsets by target, source payloads.
    pub rev: (Vec<u32>, Vec<u32>),
}

/// Builds one edge's [`EdgeCsr`] from its compacted pairs.
pub(crate) fn build_edge_csr(pairs: &[(u32, u32)], m: usize) -> EdgeCsr {
    use gpv_graph::BitSet;
    let mut srcs = BitSet::new(m);
    let mut tgts = BitSet::new(m);
    for &(s, t) in pairs {
        srcs.insert(s as usize);
        tgts.insert(t as usize);
    }
    EdgeCsr {
        srcs,
        tgts,
        rev: adjacency(pairs.iter().map(|&(s, t)| (t, s)), m),
    }
}

/// CSR adjacency over the dense domain `0..m`: offsets by each pair's
/// first component, second components as payloads in input order.
pub(crate) fn adjacency<I>(pairs: I, m: usize) -> (Vec<u32>, Vec<u32>)
where
    I: Iterator<Item = (u32, u32)> + Clone,
{
    let mut off = vec![0u32; m + 1];
    for (k, _) in pairs.clone() {
        off[k as usize + 1] += 1;
    }
    for i in 0..m {
        off[i + 1] += off[i];
    }
    let mut cur = off[..m].to_vec();
    let mut vals = vec![0u32; off[m] as usize];
    for (k, v) in pairs {
        vals[cur[k as usize] as usize] = v;
        cur[k as usize] += 1;
    }
    (off, vals)
}

/// Candidate sets per pattern node: intersection of out-edge sources
/// (non-sinks) or union of in-edge targets (sinks). `None` when a node has
/// no candidates (`Qs(G) = ∅`).
pub(crate) fn build_candidates(
    q: &Pattern,
    csrs: &[EdgeCsr],
    m: usize,
) -> Option<Vec<gpv_graph::BitSet>> {
    use gpv_graph::BitSet;
    let mut cand: Vec<BitSet> = Vec::with_capacity(q.node_count());
    for u in q.nodes() {
        let outs = q.out_edges(u);
        let set = if !outs.is_empty() {
            let mut it = outs.iter();
            let mut set = csrs[it.next().expect("nonempty").1.index()].srcs.clone();
            for &(_, e) in it {
                set.intersect_with(&csrs[e.index()].srcs);
            }
            set
        } else {
            let mut set = BitSet::new(m);
            for &(_, e) in q.in_edges(u) {
                set.union_with(&csrs[e.index()].tgts);
            }
            set
        };
        if set.is_empty() {
            return None;
        }
        cand.push(set);
    }
    Some(cand)
}

/// Initial support counters for one pattern edge, in one linear pass over
/// its compacted pairs: `support[v]` counts the pairs `(v, w)` with `w` in
/// `cand_to`. Over `(s, t)` pairs with `cand_t` that is the forward
/// (successor) support `MatchJoin` drains; over flipped `(t, s)` pairs with
/// `cand_u` it is the backward (predecessor) support dual simulation adds.
/// Counters of non-candidates are never read.
pub(crate) fn count_support(
    pairs: impl Iterator<Item = (u32, u32)>,
    cand_to: &gpv_graph::BitSet,
    m: usize,
) -> Vec<u32> {
    let mut support = vec![0u32; m];
    for (v, w) in pairs {
        support[v as usize] += u32::from(cand_to.contains(w as usize));
    }
    support
}

/// The members of `cand_from` without support, in ascending dense order:
/// the drain's seeds for one edge.
pub(crate) fn zero_support<'a>(
    support: &'a [u32],
    cand_from: &'a gpv_graph::BitSet,
) -> impl Iterator<Item = u32> + 'a {
    cand_from
        .iter()
        .filter(|&v| support[v] == 0)
        .map(|v| v as u32)
}

/// The bottom-up drain (Lemma 2) plus the final per-edge filter: removes
/// zero-support candidates in ascending SCC rank, cascading through
/// in-edges, then maps surviving compact pairs back to [`NodeId`]s. The
/// drain always runs on the calling thread; only the filter, a pure
/// per-edge map, fans across `threads` workers.
#[allow(clippy::too_many_arguments)] // the kernel's stage outputs + threads
pub(crate) fn drain_and_extract(
    q: &Pattern,
    dense: &Compacted,
    csrs: &[EdgeCsr],
    mut cand: Vec<gpv_graph::BitSet>,
    mut support: Vec<Vec<u32>>,
    seeds: &[(PatternNodeId, Vec<u32>)],
    stats: &mut JoinStats,
    threads: usize,
) -> FixpointOutcome {
    use gpv_graph::BitSet;
    let np = q.node_count();
    let m = dense.rev_index.len();
    let cond = q.condensation();
    let max_rank = (0..np as u32).map(|u| cond.rank(u)).max().unwrap_or(0) as usize;

    let mut buckets: Vec<VecDeque<(PatternNodeId, u32)>> = vec![VecDeque::new(); max_rank + 1];
    let mut scheduled: Vec<BitSet> = vec![BitSet::new(m); np];
    // Seed in the given order: deterministic regardless of how the
    // per-edge seed lists were computed.
    for (u, vs) in seeds {
        for &v in vs {
            if scheduled[u.index()].insert(v as usize) {
                buckets[cond.rank(u.0) as usize].push_back((*u, v));
            }
        }
    }

    // Drain in ascending rank (bottom-up, Lemma 2).
    #[allow(clippy::while_let_loop)] // the else-break reads better with the bucket scan
    loop {
        let Some(rank) = (0..buckets.len()).find(|&r| !buckets[r].is_empty()) else {
            break;
        };
        let (u, v) = buckets[rank].pop_front().expect("nonempty bucket");
        if !cand[u.index()].remove(v as usize) {
            continue;
        }
        stats.removals += 1;
        if cand[u.index()].is_empty() {
            return Ok(None);
        }
        for &(u0, e0) in q.in_edges(u) {
            stats.edge_visits += 1;
            let (ro, rs) = &csrs[e0.index()].rev;
            let (a, b) = (ro[v as usize] as usize, ro[v as usize + 1] as usize);
            for &w in &rs[a..b] {
                if cand[u0.index()].contains(w as usize)
                    && !scheduled[u0.index()].contains(w as usize)
                {
                    let s = &mut support[e0.index()][w as usize];
                    *s = s.saturating_sub(1);
                    if *s == 0 {
                        scheduled[u0.index()].insert(w as usize);
                        buckets[cond.rank(u0.0) as usize].push_back((u0, w));
                    }
                }
            }
        }
    }

    // Final sets: pairs whose endpoints survived, mapped back to NodeIds.
    // Visits count up to the first emptied edge whatever the worker count.
    let out = par_map(csrs.len(), threads, |ei| {
        let (u, t) = q.edge(PatternEdgeId(ei as u32));
        filter_surviving(
            &dense.pairs[ei],
            &cand[u.index()],
            &cand[t.index()],
            &dense.rev_index,
        )
    })?;
    for set in &out {
        stats.edge_visits += 1;
        if set.is_empty() {
            return Ok(None);
        }
    }
    Ok(Some(out))
}

/// One edge's surviving pairs mapped back to [`NodeId`]s (pure per-edge).
pub(crate) fn filter_surviving(
    pairs: &[(u32, u32)],
    cand_u: &gpv_graph::BitSet,
    cand_t: &gpv_graph::BitSet,
    rev_index: &[NodeId],
) -> Vec<(NodeId, NodeId)> {
    pairs
        .iter()
        .filter(|&&(s, w)| cand_u.contains(s as usize) && cand_t.contains(w as usize))
        .map(|&(s, w)| (rev_index[s as usize], rev_index[w as usize]))
        .collect()
}

/// Refined per-edge match sets (`None` = empty result), or a caught worker
/// panic.
pub(crate) type FixpointOutcome = Result<Option<Vec<Vec<(NodeId, NodeId)>>>, JoinError>;

/// The optimized fixpoint, and the only ranked `MatchJoin` executor:
/// support counters + rank-bucketed worklist over a *compacted* node
/// domain — only the `m` nodes occurring in the merged sets get dense ids,
/// so the hot-path structures are flat vectors and bitsets, and no stage
/// hashes. Stages and their cost, for `P` merged pairs:
///
/// 1. compact ([`compact_index`], run by [`refine`] to build `dense`): one
///    pass through a dense remap sized by the largest node id, mapping
///    each endpoint once — O(P) plus the remap;
/// 2. CSR build ([`build_edge_csr`]): endpoint bitsets plus the reverse CSR
///    the drain walks — O(P) plus O(|Eq|·m) for the per-edge offsets (no
///    forward CSR: nothing walks successors);
/// 3. candidates ([`build_candidates`]): bitset intersections, O(|Eq|·m/64);
/// 4. support ([`count_support`], then [`zero_support`] for the seeds): one
///    pass over each edge's pairs, O(P);
/// 5. [`drain_and_extract`]: the drain, then a filter pass, O(P).
///
/// The per-edge stages (CSR build, support, final filter) are each one
/// [`par_map`] over the pattern edges: inline with `threads == 1`, whole
/// edges fanned across workers otherwise ([`crate::parallel`]).
/// Compaction, candidates and the drain stay on the calling thread, so the
/// answer and the [`JoinStats`] are identical for every `threads`. `Err`
/// only on a caught worker panic, carrying the failing edge's index.
pub(crate) fn ranked_fixpoint(
    q: &Pattern,
    dense: &Compacted,
    stats: &mut JoinStats,
    threads: usize,
) -> FixpointOutcome {
    let ne = q.edge_count();
    let m = dense.rev_index.len();

    stats.edge_visits += ne as u64;
    let csrs = par_map(ne, threads, |ei| build_edge_csr(&dense.pairs[ei], m))?;

    let Some(cand) = build_candidates(q, &csrs, m) else {
        return Ok(None);
    };

    stats.edge_visits += ne as u64;
    let (support, mut zero): (Vec<Vec<u32>>, Vec<Vec<u32>>) = par_map(ne, threads, |ei| {
        let (u, t) = q.edge(PatternEdgeId(ei as u32));
        let sup = count_support(dense.pairs[ei].iter().copied(), &cand[t.index()], m);
        let seeds = zero_support(&sup, &cand[u.index()]).collect();
        (sup, seeds)
    })?
    .into_iter()
    .unzip();
    // Seed by source node, then out-edge: the drain's pop order.
    let mut seeds: Vec<(PatternNodeId, Vec<u32>)> = Vec::with_capacity(ne);
    for u in q.nodes() {
        for &(_, e) in q.out_edges(u) {
            seeds.push((u, std::mem::take(&mut zero[e.index()])));
        }
    }

    drain_and_extract(q, dense, &csrs, cand, support, &seeds, stats, threads)
}

/// The literal Fig. 2 fixpoint: rescan every match set until stable.
///
/// Works over [`MergedSets`]: a borrowed (arena-backed) set is counted
/// first and only copied-on-write when the rescan actually prunes it, so a
/// pass that removes nothing allocates nothing.
pub(crate) fn naive_fixpoint(
    q: &Pattern,
    mut merged: MergedSets<'_>,
    stats: &mut JoinStats,
) -> Option<Vec<Vec<(NodeId, NodeId)>>> {
    loop {
        // Recompute candidate sets from the current match sets.
        let cand = initial_candidates(q, &merged);
        if cand.iter().any(HashSet::is_empty) {
            return None;
        }
        let mut changed = false;
        #[allow(clippy::needless_range_loop)] // ei doubles as the PatternEdgeId
        for ei in 0..merged.len() {
            stats.edge_visits += 1;
            let (u, t) = q.edge(gpv_pattern::PatternEdgeId(ei as u32));
            let before = merged[ei].len();
            let surviving = merged[ei]
                .iter()
                .filter(|(s, w)| cand[u.index()].contains(s) && cand[t.index()].contains(w))
                .count();
            if surviving == 0 {
                return None;
            }
            if surviving != before {
                merged[ei]
                    .to_mut()
                    .retain(|(s, w)| cand[u.index()].contains(s) && cand[t.index()].contains(w));
                stats.removals += (before - surviving) as u64;
                changed = true;
            }
        }
        if !changed {
            return Some(merged.into_iter().map(Cow::into_owned).collect());
        }
    }
}

/// Builds the final [`MatchResult`] (or empty) from refined sets.
pub(crate) fn assemble(q: &Pattern, sets: Option<Vec<Vec<(NodeId, NodeId)>>>) -> MatchResult {
    let Some(sets) = sets else {
        return MatchResult::empty();
    };
    // Node matches = nodes appearing in surviving sets in the role dictated
    // by the pattern (sources of out-edges / targets of in-edges).
    // `MatchResult::new` sorts and dedups them.
    let mut node_sets: Vec<Vec<NodeId>> = vec![Vec::new(); q.node_count()];
    for (ei, set) in sets.iter().enumerate() {
        let (u, t) = q.edge(gpv_pattern::PatternEdgeId(ei as u32));
        node_sets[u.index()].extend(set.iter().map(|&(s, _)| s));
        node_sets[t.index()].extend(set.iter().map(|&(_, w)| w));
    }
    if node_sets.iter().any(Vec::is_empty) {
        return MatchResult::empty();
    }
    MatchResult::new(q, node_sets, sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::contain;
    use crate::view::{materialize, ViewDef, ViewSet};
    use gpv_graph::{DataGraph, GraphBuilder};
    use gpv_matching::simulation::match_pattern;
    use gpv_pattern::PatternBuilder;

    /// Paper Fig. 1(a).
    fn fig1a() -> DataGraph {
        let mut b = GraphBuilder::new();
        let bob = b.add_node(["PM"]);
        let walt = b.add_node(["PM"]);
        let mat = b.add_node(["DBA"]);
        let fred = b.add_node(["DBA"]);
        let mary = b.add_node(["DBA"]);
        let dan = b.add_node(["PRG"]);
        let pat = b.add_node(["PRG"]);
        let bill = b.add_node(["PRG"]);
        let jean = b.add_node(["BA"]);
        let emmy = b.add_node(["ST"]);
        b.add_edge(bob, mat);
        b.add_edge(walt, mat);
        b.add_edge(bob, dan);
        b.add_edge(walt, bill);
        b.add_edge(fred, pat);
        b.add_edge(mat, pat);
        b.add_edge(mary, bill);
        b.add_edge(dan, fred);
        b.add_edge(pat, mary);
        b.add_edge(pat, mat);
        b.add_edge(bill, mat);
        b.add_edge(bob, jean);
        b.add_edge(jean, emmy);
        b.build()
    }

    fn fig1c() -> Pattern {
        let mut b = PatternBuilder::new();
        let pm = b.node_labeled("PM");
        let dba1 = b.node_labeled("DBA");
        let prg1 = b.node_labeled("PRG");
        let dba2 = b.node_labeled("DBA");
        let prg2 = b.node_labeled("PRG");
        b.edge(pm, dba1);
        b.edge(pm, prg2);
        b.edge(dba1, prg1);
        b.edge(prg1, dba2);
        b.edge(dba2, prg2);
        b.edge(prg2, dba1);
        b.build().unwrap()
    }

    fn fig1_views() -> ViewSet {
        let mut b = PatternBuilder::new();
        let pm = b.node_labeled("PM");
        let dba = b.node_labeled("DBA");
        let prg = b.node_labeled("PRG");
        b.edge(pm, dba);
        b.edge(pm, prg);
        let v1 = b.build().unwrap();
        let mut b = PatternBuilder::new();
        let dba = b.node_labeled("DBA");
        let prg = b.node_labeled("PRG");
        b.edge(dba, prg);
        b.edge(prg, dba);
        let v2 = b.build().unwrap();
        ViewSet::new(vec![ViewDef::new("V1", v1), ViewDef::new("V2", v2)])
    }

    /// Paper Fig. 3(a) graph and Fig. 3(b) views.
    fn fig3() -> (DataGraph, ViewSet, Pattern) {
        let mut b = GraphBuilder::new();
        let pm1 = b.add_node(["PM"]);
        let ai1 = b.add_node(["AI"]);
        let ai2 = b.add_node(["AI"]);
        let bio1 = b.add_node(["Bio"]);
        let se1 = b.add_node(["SE"]);
        let se2 = b.add_node(["SE"]);
        let db1 = b.add_node(["DB"]);
        let db2 = b.add_node(["DB"]);
        b.add_edge(pm1, ai1);
        b.add_edge(pm1, ai2);
        b.add_edge(ai2, bio1);
        b.add_edge(db1, ai2);
        b.add_edge(db2, ai1);
        b.add_edge(ai1, se1);
        b.add_edge(ai2, se2);
        b.add_edge(se1, db2);
        b.add_edge(se2, db1);
        b.add_edge(se1, bio1);
        let g = b.build();

        // V1: AI -> Bio, PM -> AI.
        let mut pb = PatternBuilder::new();
        let ai = pb.node_labeled("AI");
        let bio = pb.node_labeled("Bio");
        let pm = pb.node_labeled("PM");
        pb.edge(ai, bio);
        pb.edge(pm, ai);
        let v1 = pb.build().unwrap();
        // V2: DB -> AI, AI -> SE, SE -> DB.
        let mut pb = PatternBuilder::new();
        let db = pb.node_labeled("DB");
        let ai = pb.node_labeled("AI");
        let se = pb.node_labeled("SE");
        pb.edge(db, ai);
        pb.edge(ai, se);
        pb.edge(se, db);
        let v2 = pb.build().unwrap();
        let views = ViewSet::new(vec![ViewDef::new("V1", v1), ViewDef::new("V2", v2)]);

        // Qs (Fig. 3(c)): PM -> AI, AI -> Bio, DB -> AI, AI -> SE, SE -> DB.
        let mut pb = PatternBuilder::new();
        let pm = pb.node_labeled("PM");
        let ai = pb.node_labeled("AI");
        let bio = pb.node_labeled("Bio");
        let db = pb.node_labeled("DB");
        let se = pb.node_labeled("SE");
        pb.edge(pm, ai);
        pb.edge(ai, bio);
        pb.edge(db, ai);
        pb.edge(ai, se);
        pb.edge(se, db);
        let q = pb.build().unwrap();
        (g, views, q)
    }

    #[test]
    fn theorem_1_equivalence_fig1() {
        let g = fig1a();
        let q = fig1c();
        let views = fig1_views();
        let plan = contain(&q, &views).expect("Example 3: Qs ⊑ V");
        let ext = materialize(&views, &g);
        let via_views = match_join(&q, &plan, &ext).unwrap();
        let direct = match_pattern(&q, &g);
        assert_eq!(via_views, direct, "MatchJoin(V(G)) == Match(G)");
        assert!(!direct.is_empty());
    }

    #[test]
    fn example_4_fig3_with_invalid_match_removal() {
        // The paper walks through MatchJoin removing (AI1,SE1) from
        // S(AI,SE), then (SE1,DB2) and (DB2,AI2) cascade out.
        let (g, views, q) = fig3();
        let plan = contain(&q, &views).expect("Qs ⊑ V");
        let ext = materialize(&views, &g);
        let (r, stats) = match_join_with(&q, &plan, &ext, JoinStrategy::RankedBottomUp).unwrap();
        assert!(!r.is_empty());
        // The paper counts three removed pairs: (AI1,SE1), (SE1,DB2),
        // (DB2,AI1). Our node-centric refinement excludes AI1 already at
        // candidate initialization (source intersection), so it counts the
        // two cascaded node removals (DB2 from DB, SE1 from SE).
        assert!(stats.removals >= 2, "cascade: {stats:?}");

        let direct = match_pattern(&q, &g);
        assert_eq!(r, direct);

        // Expected final table (Example 4): single pairs per edge.
        let e = |a: u32, b: u32| q.edge_id(PatternNodeId(a), PatternNodeId(b)).unwrap();
        let names = |pairs: &[(NodeId, NodeId)]| -> Vec<(u32, u32)> {
            pairs.iter().map(|&(x, y)| (x.0, y.0)).collect()
        };
        assert_eq!(
            names(r.edge_set(e(0, 1))),
            vec![(0, 2)],
            "(PM,AI)=(PM1,AI2)"
        );
        assert_eq!(
            names(r.edge_set(e(1, 2))),
            vec![(2, 3)],
            "(AI,Bio)=(AI2,Bio1)"
        );
        assert_eq!(
            names(r.edge_set(e(3, 1))),
            vec![(6, 2)],
            "(DB,AI)=(DB1,AI2)"
        );
        assert_eq!(
            names(r.edge_set(e(1, 4))),
            vec![(2, 5)],
            "(AI,SE)=(AI2,SE2)"
        );
        assert_eq!(
            names(r.edge_set(e(4, 3))),
            vec![(5, 6)],
            "(SE,DB)=(SE2,DB1)"
        );
    }

    #[test]
    fn strategies_agree() {
        let (g, views, q) = fig3();
        let plan = contain(&q, &views).unwrap();
        let ext = materialize(&views, &g);
        let (a, _) = match_join_with(&q, &plan, &ext, JoinStrategy::RankedBottomUp).unwrap();
        let (b, _) = match_join_with(&q, &plan, &ext, JoinStrategy::NaiveFixpoint).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_when_views_empty_on_g() {
        // Views match nothing in G: MatchJoin returns ∅.
        let mut b = GraphBuilder::new();
        let x = b.add_node(["X"]);
        let y = b.add_node(["Y"]);
        b.add_edge(x, y);
        let g = b.build();
        let q = fig1c();
        let views = fig1_views();
        let plan = contain(&q, &views).unwrap();
        let ext = materialize(&views, &g);
        let r = match_join(&q, &plan, &ext).unwrap();
        assert!(r.is_empty());
        assert_eq!(match_pattern(&q, &g), r);
    }

    #[test]
    fn plan_mismatch_detected() {
        let (g, views, q) = fig3();
        let plan = contain(&q, &views).unwrap();
        let ext = materialize(&views, &g);
        let other_q = fig1c();
        assert_eq!(
            match_join(&other_q, &plan, &ext).unwrap_err(),
            JoinError::PlanMismatch
        );
    }

    #[test]
    fn view_out_of_range_detected() {
        let (g, views, q) = fig3();
        let plan = contain(&q, &views).unwrap();
        let ext = ViewExtensions {
            extensions: vec![materialize(&views, &g).extensions[0].clone()],
        };
        assert_eq!(
            match_join(&q, &plan, &ext).unwrap_err(),
            JoinError::ViewOutOfRange(1)
        );
    }

    #[test]
    fn dag_pattern_single_visit_lemma2() {
        // Lemma 2: for a DAG pattern, the bottom-up strategy visits each
        // match set O(1) times — bounded here by 3 bookkeeping passes
        // (build, init, final) plus in-edge propagation only on removal.
        let mut b = GraphBuilder::new();
        let a1 = b.add_node(["A"]);
        let b1 = b.add_node(["B"]);
        let c1 = b.add_node(["C"]);
        let b2 = b.add_node(["B"]);
        b.add_edge(a1, b1);
        b.add_edge(b1, c1);
        b.add_edge(a1, b2); // b2 has no C successor
        let g = b.build();

        let mut pb = PatternBuilder::new();
        let ua = pb.node_labeled("A");
        let ub = pb.node_labeled("B");
        let uc = pb.node_labeled("C");
        pb.edge(ua, ub);
        pb.edge(ub, uc);
        let q = pb.build().unwrap();
        let views = ViewSet::new(vec![
            ViewDef::new("Vab", {
                let mut pb = PatternBuilder::new();
                let x = pb.node_labeled("A");
                let y = pb.node_labeled("B");
                pb.edge(x, y);
                pb.build().unwrap()
            }),
            ViewDef::new("Vbc", {
                let mut pb = PatternBuilder::new();
                let x = pb.node_labeled("B");
                let y = pb.node_labeled("C");
                pb.edge(x, y);
                pb.build().unwrap()
            }),
        ]);
        let plan = contain(&q, &views).unwrap();
        let ext = materialize(&views, &g);
        let (r, stats) = match_join_with(&q, &plan, &ext, JoinStrategy::RankedBottomUp).unwrap();
        assert_eq!(r, match_pattern(&q, &g));
        // 2 edges × 3 passes + at most |removals| propagation visits.
        assert!(
            stats.edge_visits <= 2 * 3 + stats.removals + 2,
            "visits {} removals {}",
            stats.edge_visits,
            stats.removals
        );
    }

    /// Regression (canonicalization): a stored extension containing
    /// duplicate pairs — possible for caches or external producers, since
    /// nothing re-validates the `MatchResult` invariant on the way in —
    /// used to inflate `merged_pairs`, CSR sizes, and support counters.
    /// Since the arena refactor the choke point is `CompactView::freeze`:
    /// every set entering a `ViewExtensions` is sorted + deduplicated at
    /// freeze time, so the join sees identical stats and answers whether
    /// the producer's sets carried duplicates or not.
    #[test]
    fn duplicated_extension_pairs_do_not_inflate_the_join() {
        let (g, views, q) = fig3();
        let plan = contain(&q, &views).unwrap();
        let clean = materialize(&views, &g);
        let (r_clean, s_clean) =
            match_join_with(&q, &plan, &clean, JoinStrategy::RankedBottomUp).unwrap();

        // Corrupt every stored edge set with duplicates (tripled pairs, out
        // of order), then re-freeze — the arena entry point.
        let dirty = ViewExtensions {
            extensions: clean
                .extensions
                .iter()
                .map(|ext| {
                    let mut m = ext.thaw();
                    for set in &mut m.edge_matches {
                        let orig = set.clone();
                        set.extend(orig.iter().rev().copied());
                        set.extend(orig);
                    }
                    std::sync::Arc::new(crate::compact::CompactView::freeze(&m))
                })
                .collect(),
        };
        let (r_dirty, s_dirty) =
            match_join_with(&q, &plan, &dirty, JoinStrategy::RankedBottomUp).unwrap();
        assert_eq!(r_dirty, r_clean, "answers unchanged");
        assert_eq!(
            s_dirty, s_clean,
            "duplicates must not inflate merged_pairs / visits / removals"
        );
        // And the canonical helper is a plain copy on already-canonical
        // input (the hot path pays one linear scan, no sort).
        let set = clean.edge_set(0, gpv_pattern::PatternEdgeId(0));
        assert_eq!(canonical_pairs(set), set.to_vec());
    }

    /// Compaction maps each endpoint once, in first-occurrence order, and
    /// the dense ids round-trip through `rev_index`.
    #[test]
    fn compaction_is_first_occurrence_and_round_trips() {
        let sets = vec![
            vec![(NodeId(90), NodeId(7)), (NodeId(7), NodeId(90))],
            vec![(NodeId(3), NodeId(90))],
        ];
        let dense = compact_index(&sets);
        assert_eq!(dense.rev_index, vec![NodeId(90), NodeId(7), NodeId(3)]);
        assert_eq!(dense.pairs, vec![vec![(0, 1), (1, 0)], vec![(2, 0)]]);
    }

    use crate::view::ViewExtensions;
    use gpv_pattern::PatternNodeId;
}
