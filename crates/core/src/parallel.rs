//! The fan-out half of the ranked `MatchJoin` kernel
//! (`matchjoin::ranked_fixpoint`).
//!
//! Three kernel stages are pure per-edge work over the compacted pairs:
//! building each edge's reverse CSR, counting initial support, and the
//! final filter. With more than one worker they run as *(edge, chunk)*
//! work units across OS threads (`std::thread::scope` — the build
//! environment vendors no `rayon`). `chunk_units` splits each edge's pair
//! list into chunks of at most `chunk` pairs:
//!
//! * an edge that is **one unit** is built by
//!   `matchjoin::build_edge_csr` and counted by
//!   `matchjoin::count_support`, exactly as the inline path does, so it
//!   pays for no count/stitch/atomic passes. When every edge is one unit
//!   this is plain per-edge fan-out, with a speedup ceiling of `|Eq|`;
//! * a **split** edge runs a two-pass chunked CSR build (per-chunk counts →
//!   sequential prefix stitch → parallel scatter), and its per-chunk
//!   support counters are summed in chunk order.
//!
//! The chunk size is derived at execution from the merged set sizes
//! ([`CostModel::parallel_chunk_pairs`](crate::cost::CostModel::parallel_chunk_pairs))
//! unless [`EngineConfig::chunk_pairs`](crate::engine::EngineConfig::chunk_pairs)
//! pins it. Compaction, candidates and the drain stay sequential.
//!
//! Determinism: work-unit boundaries are fixed by index — never by timing —
//! workers write results into slots owned by their unit, and every merge of
//! per-unit results runs in unit order, so the output is bit-for-bit
//! identical to the inline kernel regardless of thread interleaving, thread
//! count, or chunk size (the seeded proptests in `tests/engine.rs` sweep
//! all three).

use crate::containment::ContainmentPlan;
use crate::engine::EngineConfig;
use crate::matchjoin::{self, merge_step, EdgeCsr, JoinError, JoinStats};
use crate::plan::ExecStrategy;
use crate::view::ViewExtensions;
use gpv_graph::BitSet;
use gpv_matching::result::MatchResult;
use gpv_pattern::{Pattern, PatternEdgeId};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default worker count: the machine's available parallelism, probed once
/// and cached. `available_parallelism` is a syscall, and this sits on the
/// per-execution hot path (`QueryEngine::exec_for`, `matchjoin::refine`), so
/// paying it per query would tax every single plan/join for a value that
/// never changes over the process lifetime.
pub fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How a [`par_map`] worker failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ParError {
    /// A work item panicked; the payload is the failing index.
    Panicked(usize),
    /// A worker thread died outside the per-item catch (its `join` failed),
    /// so no item index is known. Callers must *not* invent one — this used
    /// to surface as the sentinel `usize::MAX`, which
    /// [`JoinError::WorkerPanicked`] then reported as a nonsense edge index.
    Lost,
}

/// Runs `f(0..n)` across `threads` workers (atomic work-stealing counter),
/// returning results in index order. Inline when `threads <= 1` or the job
/// is trivially small (where a panic propagates normally, exactly like the
/// sequential executor). In the threaded path a panicking worker no longer
/// takes the whole process down through a context-free `expect`: the panic
/// is caught per work item and resurfaced as [`ParError::Panicked`] with
/// the failing index, so callers can attach executor context
/// ([`JoinError::WorkerPanicked`]); a worker lost outside the per-item
/// catch resurfaces as [`ParError::Lost`] ([`JoinError::WorkerLost`]).
pub(crate) fn par_map<T, F>(n: usize, threads: usize, f: F) -> Result<Vec<T>, ParError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return Ok((0..n).map(f).collect());
    }
    let counter = AtomicUsize::new(0);
    let workers = threads.min(n);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut failed: Option<ParError> = None;
    // Prefer the lowest panicked index as the reported failure; a lost
    // worker only wins when no indexed panic was observed.
    let mut note = |e: ParError| {
        failed = Some(match (failed, e) {
            (Some(ParError::Panicked(p)), ParError::Panicked(i)) => ParError::Panicked(p.min(i)),
            (Some(ParError::Panicked(p)), ParError::Lost) => ParError::Panicked(p),
            (_, e) => e,
        });
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let counter = &counter;
                let f = &f;
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break Ok(local);
                        }
                        // `f` is a pure per-index computation shared by all
                        // workers; observing it mid-panic is safe because a
                        // failed index aborts the whole map.
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                            Ok(v) => local.push((i, v)),
                            Err(_) => break Err(i),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(Ok(local)) => {
                    for (i, v) in local {
                        slots[i] = Some(v);
                    }
                }
                Ok(Err(i)) => note(ParError::Panicked(i)),
                // Unreachable in practice (worker bodies catch panics), but
                // keep the process alive if it ever happens — and say "a
                // worker was lost" instead of fabricating an edge index.
                Err(_) => note(ParError::Lost),
            }
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    Ok(slots.into_iter().map(|s| s.expect("slot filled")).collect())
}

/// Answers `Qs` from views with the ranked kernel fanned across `threads`
/// workers (`0` = auto) and a derived chunk size. Output is identical to
/// [`matchjoin::match_join`]; only wall-clock differs.
pub fn par_match_join(
    q: &Pattern,
    plan: &ContainmentPlan,
    ext: &ViewExtensions,
    threads: usize,
) -> Result<(MatchResult, JoinStats), JoinError> {
    let merged = merge_step(q, plan, ext)?;
    matchjoin::run_fixpoint(
        q,
        merged,
        ExecStrategy::Parallel { threads },
        &EngineConfig::default(),
    )
}

/// One *(edge, start, end)* work unit: a slice of an edge's compacted
/// pairs.
pub(crate) type Unit = (usize, usize, usize);

/// How many work units per edge the chunked build will produce at most,
/// as a multiple of the worker count. Bounds the stitch's memory and time
/// (both O(units × m)) against absurd pinned chunk sizes: every per-unit
/// structure costs O(m), so unit count — not chunk size — is what must
/// stay proportional to the machine.
const MAX_UNITS_PER_EDGE_FACTOR: usize = 8;

/// The fixed *(edge, chunk)* work-unit list for the compacted sets,
/// edge-major. With one worker every edge is a single unit. Chunk
/// boundaries are pure functions of each set's length, `chunk_pairs`, and
/// `threads` — never of timing. The requested chunk size is floored so no
/// edge produces more than `threads × MAX_UNITS_PER_EDGE_FACTOR` units: a
/// pinned chunk of 1 pair over a huge set must not allocate
/// O(pairs × m) of per-chunk counters (each unit carries dense O(m)
/// state), and unit counts beyond a small multiple of the worker count
/// add stitch work without adding parallelism. An empty set still gets
/// one (empty) unit so every edge produces a CSR.
pub(crate) fn chunk_units(
    pairs: &[Vec<(u32, u32)>],
    chunk_pairs: usize,
    threads: usize,
) -> Vec<Unit> {
    let max_units = threads.max(1) * MAX_UNITS_PER_EDGE_FACTOR;
    let mut units = Vec::with_capacity(pairs.len());
    for (ei, set) in pairs.iter().enumerate() {
        if set.is_empty() || threads <= 1 {
            units.push((ei, 0, set.len()));
            continue;
        }
        let chunk = chunk_pairs.max(1).max(set.len().div_ceil(max_units));
        let mut start = 0;
        while start < set.len() {
            let end = (start + chunk).min(set.len());
            units.push((ei, start, end));
            start = end;
        }
    }
    units
}

/// Converts a unit-indexed [`ParError`] into a [`JoinError`] carrying the
/// *edge* index of the failing unit (callers report pattern edges, not
/// internal chunk numbers).
fn unit_error(e: ParError, units: &[Unit]) -> JoinError {
    match e {
        ParError::Panicked(i) => JoinError::WorkerPanicked(units[i].0),
        ParError::Lost => JoinError::WorkerLost,
    }
}

/// One chunk's contribution to a split edge's CSR, computed independently
/// in pass 1 of the two-pass chunked build.
struct CsrChunk {
    /// The chunk's slice of the edge's compacted pairs.
    range: Range<usize>,
    /// Per-target pair counts over the dense domain.
    rcnt: Vec<u32>,
    /// Dense ids occurring as sources in this chunk.
    srcs: BitSet,
    /// Dense ids occurring as targets in this chunk.
    tgts: BitSet,
}

impl CsrChunk {
    fn count(pairs: &[(u32, u32)], range: Range<usize>, m: usize) -> Self {
        let mut c = CsrChunk {
            range: range.clone(),
            rcnt: vec![0u32; m],
            srcs: BitSet::new(m),
            tgts: BitSet::new(m),
        };
        for &(s, t) in &pairs[range] {
            c.rcnt[t as usize] += 1;
            c.srcs.insert(s as usize);
            c.tgts.insert(t as usize);
        }
        c
    }
}

/// Pass 1 output of one unit: a whole edge's CSR, or a split edge's chunk.
enum Built {
    Whole(EdgeCsr),
    Part(CsrChunk),
}

/// A split edge after the prefix stitch: its reverse offsets and endpoint
/// sets, the per-chunk base cursors, and the payload buffer pass 2
/// scatters into.
struct Stitched {
    ro: Vec<u32>,
    srcs: BitSet,
    tgts: BitSet,
    /// Per chunk: where each target slot starts for that chunk.
    bases: Vec<Vec<u32>>,
    rs: Vec<AtomicU32>,
}

impl Stitched {
    /// Sums the chunk counts into CSR offsets and hands each chunk the
    /// cursors its predecessors left, in fixed chunk order.
    fn new(chunks: &[CsrChunk], m: usize) -> Self {
        let mut ro = vec![0u32; m + 1];
        let mut srcs = BitSet::new(m);
        let mut tgts = BitSet::new(m);
        for c in chunks {
            for (o, &cnt) in ro[1..].iter_mut().zip(&c.rcnt) {
                *o += cnt;
            }
            srcs.union_with(&c.srcs);
            tgts.union_with(&c.tgts);
        }
        for v in 0..m {
            ro[v + 1] += ro[v];
        }
        let mut cur = ro[..m].to_vec();
        let mut bases = Vec::with_capacity(chunks.len());
        for c in chunks {
            bases.push(cur.clone());
            for (cur, &cnt) in cur.iter_mut().zip(&c.rcnt) {
                *cur += cnt;
            }
        }
        let n = ro[m] as usize;
        Stitched {
            ro,
            srcs,
            tgts,
            bases,
            rs: (0..n).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Pass 2 for one chunk: writes its payloads at the slots its base
    /// dictates. Slots are disjoint by construction (every (target,
    /// occurrence) pair maps to exactly one chunk), so relaxed stores are
    /// race-free on *values* regardless of interleaving.
    fn scatter(&self, k: usize, chunk: &CsrChunk, pairs: &[(u32, u32)]) {
        let mut cur = self.bases[k].clone();
        for &(s, t) in &pairs[chunk.range.clone()] {
            self.rs[cur[t as usize] as usize].store(s, Ordering::Relaxed);
            cur[t as usize] += 1;
        }
    }

    /// The finished CSR: chunks scatter in input order within each target
    /// row, so the result is field-for-field identical to
    /// [`matchjoin::build_edge_csr`] on the whole edge.
    fn finish(self) -> EdgeCsr {
        EdgeCsr {
            srcs: self.srcs,
            tgts: self.tgts,
            rev: (
                self.ro,
                self.rs.into_iter().map(AtomicU32::into_inner).collect(),
            ),
        }
    }
}

/// The kernel's CSR-build stage over `units` ([`chunk_units`]). Pass 1
/// fans every unit across the workers: a whole edge runs
/// [`matchjoin::build_edge_csr`], a split edge's chunk counts
/// per-target occurrences and endpoint sets. Split edges then take a
/// sequential prefix stitch ([`Stitched::new`]) and a parallel scatter of
/// their chunks (pass 2).
pub(crate) fn build_csrs(
    pairs: &[Vec<(u32, u32)>],
    units: &[Unit],
    m: usize,
    threads: usize,
) -> Result<Vec<EdgeCsr>, JoinError> {
    let ne = pairs.len();
    let mut parts = vec![0usize; ne];
    for &(ei, ..) in units {
        parts[ei] += 1;
    }
    let built = par_map(units.len(), threads, |i| {
        let (ei, start, end) = units[i];
        if parts[ei] == 1 {
            Built::Whole(matchjoin::build_edge_csr(&pairs[ei], m))
        } else {
            Built::Part(CsrChunk::count(&pairs[ei], start..end, m))
        }
    })
    .map_err(|e| unit_error(e, units))?;

    let mut whole: Vec<Option<EdgeCsr>> = (0..ne).map(|_| None).collect();
    let mut chunks: Vec<Vec<CsrChunk>> = (0..ne).map(|_| Vec::new()).collect();
    for (&(ei, ..), b) in units.iter().zip(built) {
        match b {
            Built::Whole(csr) => whole[ei] = Some(csr),
            Built::Part(c) => chunks[ei].push(c),
        }
    }

    let stitched: Vec<Option<Stitched>> = chunks
        .iter()
        .map(|cs| (!cs.is_empty()).then(|| Stitched::new(cs, m)))
        .collect();
    let split: Vec<(usize, usize)> = (0..ne)
        .flat_map(|ei| (0..chunks[ei].len()).map(move |k| (ei, k)))
        .collect();
    par_map(split.len(), threads, |i| {
        let (ei, k) = split[i];
        stitched[ei]
            .as_ref()
            .expect("split edge")
            .scatter(k, &chunks[ei][k], &pairs[ei]);
    })
    .map_err(|e| match e {
        ParError::Panicked(i) => JoinError::WorkerPanicked(split[i].0),
        ParError::Lost => JoinError::WorkerLost,
    })?;

    Ok(whole
        .into_iter()
        .zip(stitched)
        .map(|(w, st)| match st {
            Some(st) => st.finish(),
            None => w.expect("whole edge"),
        })
        .collect())
}

/// One edge's support counters plus its zero-support seed list.
pub(crate) type SupportSeeds = (Vec<u32>, Vec<u32>);

/// The kernel's support stage over `units`: each unit counts
/// [`matchjoin::count_support`] over its slice of the edge's compacted
/// pairs. A split edge sums its chunk counters in chunk order, so the
/// counters are identical to one pass over the whole edge. The seeds are
/// each edge's zero-support source candidates in ascending dense order
/// ([`matchjoin::zero_support`]).
pub(crate) fn supports(
    q: &Pattern,
    pairs: &[Vec<(u32, u32)>],
    cand: &[BitSet],
    m: usize,
    units: &[Unit],
    threads: usize,
) -> Result<Vec<SupportSeeds>, JoinError> {
    let counted = par_map(units.len(), threads, |i| {
        let (ei, start, end) = units[i];
        let (_, t) = q.edge(PatternEdgeId(ei as u32));
        matchjoin::count_support(pairs[ei][start..end].iter().copied(), &cand[t.index()], m)
    })
    .map_err(|e| unit_error(e, units))?;

    // Units are edge-major and every edge's first unit starts at 0.
    let mut support: Vec<Vec<u32>> = Vec::with_capacity(pairs.len());
    for (&(_, start, _), c) in units.iter().zip(counted) {
        match support.last_mut() {
            Some(sum) if start > 0 => sum.iter_mut().zip(c).for_each(|(a, b)| *a += b),
            _ => support.push(c),
        }
    }
    Ok(support
        .into_iter()
        .enumerate()
        .map(|(ei, sup)| {
            let (u, _) = q.edge(PatternEdgeId(ei as u32));
            let seeds = matchjoin::zero_support(&sup, &cand[u.index()]).collect();
            (sup, seeds)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_graph::NodeId;

    #[test]
    fn par_map_preserves_order() {
        for threads in [1, 2, 4] {
            let out = par_map(100, threads, |i| i * i).unwrap();
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_empty() {
        assert_eq!(par_map(0, 4, |i| i), Ok(Vec::<usize>::new()));
    }

    #[test]
    fn par_map_catches_worker_panic() {
        // Silence the default panic hook for the intentional panics below
        // (the worker catches them; the hook would still print backtraces).
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = par_map(16, 4, |i| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
        std::panic::set_hook(hook);
        assert_eq!(
            out,
            Err(ParError::Panicked(3)),
            "failing index resurfaces, process survives"
        );
    }

    /// Regression: a worker lost outside the per-item catch used to be
    /// reported as `WorkerPanicked(usize::MAX)` — a nonsense edge index
    /// that callers would happily print. The conversion must produce the
    /// distinct `WorkerLost` variant instead, and `Panicked` must never
    /// carry the old sentinel.
    #[test]
    fn lost_worker_maps_to_worker_lost_not_a_fake_index() {
        assert_eq!(JoinError::from(ParError::Lost), JoinError::WorkerLost);
        assert_eq!(
            JoinError::from(ParError::Panicked(3)),
            JoinError::WorkerPanicked(3)
        );
        let msg = JoinError::WorkerLost.to_string();
        assert!(
            !msg.contains(&usize::MAX.to_string()),
            "no fabricated edge index in: {msg}"
        );
    }

    #[test]
    fn auto_threads_is_cached_and_stable() {
        let first = auto_threads();
        assert!(first >= 1);
        for _ in 0..3 {
            assert_eq!(auto_threads(), first);
        }
    }

    /// A deterministic pseudo-random pair set with repeated sources and
    /// targets (so CSR rows have real fan-out) in arbitrary order.
    fn scrambled_pairs(n: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (NodeId((x % 23) as u32), NodeId(((x >> 8) % 17 + 23) as u32))
            })
            .collect()
    }

    /// One worker never splits an edge, whatever the chunk size.
    #[test]
    fn one_worker_keeps_every_edge_whole() {
        let sets = vec![scrambled_pairs(97, 3), Vec::new(), scrambled_pairs(10, 5)];
        let dense = matchjoin::compact_index(&sets);
        assert_eq!(
            chunk_units(&dense.pairs, 1, 1),
            vec![(0, 0, 97), (1, 0, 0), (2, 0, 10)]
        );
    }

    /// Compaction maps each endpoint once, in first-occurrence order, and
    /// the dense ids round-trip through `rev_index`.
    #[test]
    fn compaction_is_first_occurrence_and_round_trips() {
        let sets = vec![
            vec![(NodeId(90), NodeId(7)), (NodeId(7), NodeId(90))],
            vec![(NodeId(3), NodeId(90))],
        ];
        let dense = matchjoin::compact_index(&sets);
        assert_eq!(dense.rev_index, vec![NodeId(90), NodeId(7), NodeId(3)]);
        assert_eq!(dense.pairs, vec![vec![(0, 1), (1, 0)], vec![(2, 0)]]);
    }

    /// The CSR stage must be field-for-field identical to the per-edge
    /// build, for every chunk size — including 1 (every pair its own unit)
    /// and larger than the set (one unit per edge), with split and whole
    /// edges mixed in one merge.
    #[test]
    fn chunked_csr_build_matches_sequential() {
        let sets = vec![
            scrambled_pairs(97, 3),
            scrambled_pairs(10, 5),
            Vec::new(),
            scrambled_pairs(1, 7),
        ];
        let dense = matchjoin::compact_index(&sets);
        let m = dense.rev_index.len();
        let baseline: Vec<EdgeCsr> = dense
            .pairs
            .iter()
            .map(|p| matchjoin::build_edge_csr(p, m))
            .collect();
        for chunk in [1usize, 3, 16, 64, 1000] {
            for threads in [1usize, 2, 4, 8] {
                let units = chunk_units(&dense.pairs, chunk, threads);
                let built = build_csrs(&dense.pairs, &units, m, threads).unwrap();
                for (ei, (a, b)) in baseline.iter().zip(&built).enumerate() {
                    assert_eq!(a.srcs, b.srcs, "srcs e{ei}");
                    assert_eq!(a.tgts, b.tgts, "tgts e{ei}");
                    assert_eq!(a.rev, b.rev, "rev e{ei} chunk={chunk} t={threads}");
                }
            }
        }
    }

    /// Chunked support must sum to exactly the one-pass counters and seed
    /// lists (ascending dense order), for every chunk size.
    #[test]
    fn chunked_support_matches_sequential() {
        use gpv_pattern::PatternBuilder;
        let mut b = PatternBuilder::new();
        let u = b.node_labeled("A");
        let v = b.node_labeled("B");
        b.edge(u, v);
        let q = b.build().unwrap();
        let sets = vec![scrambled_pairs(80, 11)];
        let dense = matchjoin::compact_index(&sets);
        let m = dense.rev_index.len();
        let csrs = vec![matchjoin::build_edge_csr(&dense.pairs[0], m)];
        let mut cand = matchjoin::build_candidates(&q, &csrs, m).expect("nonempty");
        // Drop some targets so support counts are partial and some
        // sources lose all their support.
        for w in (0..m).filter(|w| w % 4 != 0) {
            cand[1].remove(w);
        }
        let pairs = dense.pairs[0].iter().copied();
        let sup = matchjoin::count_support(pairs, &cand[1], m);
        let seeds: Vec<u32> = matchjoin::zero_support(&sup, &cand[0]).collect();
        assert!(!seeds.is_empty(), "fixture needs a zero-support source");
        for chunk in [1usize, 2, 7, 64, 1000] {
            let units = chunk_units(&dense.pairs, chunk, 4);
            let chunked = supports(&q, &dense.pairs, &cand, m, &units, 4).unwrap();
            assert_eq!(chunked[0], (sup.clone(), seeds.clone()), "chunk={chunk}");
        }
    }

    /// A panic inside a chunked work unit surfaces as `WorkerPanicked` with
    /// the *edge* index (not an internal unit number), and the process
    /// survives.
    #[test]
    fn chunked_worker_panic_reports_edge_index() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // Edge 1's ids are offset so they share nothing with edge 0 — the
        // missing node below can only fail units of edge 1.
        let offset = |v: Vec<(NodeId, NodeId)>| {
            v.into_iter()
                .map(|(a, b)| (NodeId(a.0 + 100), NodeId(b.0 + 100)))
                .collect::<Vec<_>>()
        };
        let sets = vec![scrambled_pairs(10, 3), offset(scrambled_pairs(40, 5))];
        let mut dense = matchjoin::compact_index(&sets);
        let m = dense.rev_index.len();
        // A remap missing one of edge 1's nodes: every occurrence of it
        // comes out as the unmapped sentinel, outside the dense domain, so
        // the CSR build panics on it.
        let lost = dense.pairs[1][37].0;
        for p in &mut dense.pairs[1] {
            for v in [&mut p.0, &mut p.1] {
                if *v == lost {
                    *v = u32::MAX;
                }
            }
        }
        let units = chunk_units(&dense.pairs, 8, 4);
        let err = build_csrs(&dense.pairs, &units, m, 4).unwrap_err();
        std::panic::set_hook(hook);
        assert_eq!(err, JoinError::WorkerPanicked(1), "edge index, not unit");
    }
}
