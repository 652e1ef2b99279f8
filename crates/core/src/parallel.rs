//! The fan-out half of the ranked `MatchJoin` kernel
//! (`matchjoin::ranked_fixpoint`).
//!
//! Three kernel stages are pure per-edge work over the compacted pairs:
//! building each edge's reverse CSR, counting initial support, and the
//! final filter. With more than one worker each stage is one `par_map`
//! over the pattern edges across OS threads (`std::thread::scope` — the
//! build environment vendors no `rayon`): a work item is a whole edge, and
//! it runs the same function the inline path does
//! (`matchjoin::build_edge_csr`, `matchjoin::count_support`,
//! `matchjoin::filter_surviving`), so a `par_map` index is the edge index
//! and the speedup ceiling is `|Eq|`. Compaction, candidates and the drain
//! stay sequential.
//!
//! Determinism: work items are fixed by edge index — never by timing —
//! each worker's result lands in the slot its item owns, and `par_map`
//! returns the slots in index order, so the output is bit-for-bit
//! identical to the inline kernel regardless of thread interleaving or
//! thread count (the seeded proptests in `tests/engine.rs` sweep both).

use crate::containment::ContainmentPlan;
use crate::matchjoin::{self, merge_step, JoinError, JoinStats};
use crate::plan::ExecStrategy;
use crate::view::ViewExtensions;
use gpv_matching::result::MatchResult;
use gpv_pattern::Pattern;
use std::sync::atomic::{AtomicUsize, Ordering};
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
/// workers (`0` = auto), one pattern edge per work item. Output is
/// identical to [`matchjoin::match_join`]; only wall-clock differs.
pub fn par_match_join(
    q: &Pattern,
    plan: &ContainmentPlan,
    ext: &ViewExtensions,
    threads: usize,
) -> Result<(MatchResult, JoinStats), JoinError> {
    let merged = merge_step(q, plan, ext)?;
    matchjoin::run_fixpoint(q, merged, ExecStrategy::Parallel { threads })
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

    /// A panic while a worker builds or counts one edge surfaces as
    /// `WorkerPanicked` with that edge's index, and the process survives.
    #[test]
    fn per_edge_worker_panic_reports_edge_index() {
        use gpv_pattern::PatternBuilder;
        let mut b = PatternBuilder::new();
        let (x, y, z) = (
            b.node_labeled("A"),
            b.node_labeled("B"),
            b.node_labeled("C"),
        );
        b.edge(x, y);
        b.edge(y, z);
        let q = b.build().unwrap();
        // Edge 1's ids are offset so they share nothing with edge 0 — the
        // missing node below can only fail edge 1.
        let offset = |v: Vec<(NodeId, NodeId)>| {
            v.into_iter()
                .map(|(a, b)| (NodeId(a.0 + 100), NodeId(b.0 + 100)))
                .collect::<Vec<_>>()
        };
        let sets = vec![scrambled_pairs(10, 3), offset(scrambled_pairs(40, 5))];
        let mut dense = matchjoin::compact_index(&sets);
        // A remap missing one of edge 1's nodes: every occurrence of it
        // comes out as the unmapped sentinel, outside the dense domain, so
        // the kernel panics on it.
        let lost = dense.pairs[1][37].0;
        for p in &mut dense.pairs[1] {
            for v in [&mut p.0, &mut p.1] {
                if *v == lost {
                    *v = u32::MAX;
                }
            }
        }
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let results: Vec<_> = [2, 4, 8]
            .into_iter()
            .map(|threads| {
                let mut stats = JoinStats::default();
                matchjoin::ranked_fixpoint(&q, &dense, &mut stats, threads)
            })
            .collect();
        std::panic::set_hook(hook);
        for r in results {
            assert_eq!(r.unwrap_err(), JoinError::WorkerPanicked(1));
        }
    }
}
