//! Registry consistency under mixed mutation. A `ViewStore` keeps its views
//! in one place — the published snapshot — so after every `insert`,
//! `remove` and `apply_delta`, for any shard count, each accessor (`len`,
//! `occupancy`, `get`, `version`, graph fingerprint and epoch) must agree
//! with that snapshot, `check_snapshot` must accept it against the current
//! graph, and every extension must equal a fresh `match_pattern`. A save →
//! load round trip then reproduces the snapshot's ids, definitions and
//! extensions, and `occupancy` describes the saved shard files.

use gpv_generator::{random_graph, random_pattern, PatternShape};
use graph_views::prelude::*;
use graph_views::views::store::ViewStore;
use graph_views::views::{check_snapshot, decode_shard, errors_only, CompactView, EdgeDelta};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const LABELS: [&str; 3] = ["A", "B", "C"];

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch directory per test case.
fn scratch_dir() -> std::path::PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("gpv-registry-{}-{n}", std::process::id()))
}

/// A small delta derived from `seed`: two inserted edges between random
/// nodes and two deletions of existing edges.
fn delta_from(g: &DataGraph, seed: u64) -> EdgeDelta {
    let mut s = seed;
    let mut next = move |bound: usize| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) % bound as u64) as usize
    };
    let n = g.node_count();
    let inserts = (0..2)
        .map(|_| (NodeId(next(n) as u32), NodeId(next(n) as u32)))
        .collect();
    let edges: Vec<(NodeId, NodeId)> = g
        .nodes()
        .flat_map(|v| g.out_neighbors(v).iter().map(move |&w| (v, w)))
        .collect();
    let deletes = if edges.is_empty() {
        Vec::new()
    } else {
        (0..2).map(|_| edges[next(edges.len())]).collect()
    };
    EdgeDelta::new(inserts, deletes)
}

fn view(name: String, seed: u64) -> ViewDef {
    ViewDef::new(name, random_pattern(2, 2, &LABELS, PatternShape::Any, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mixed_mutations_keep_accessors_on_the_snapshot(
        shards in 1usize..9,
        (n, m, gseed) in (6usize..30, 10usize..60, any::<u64>()),
        ops in proptest::collection::vec((0u8..3, any::<u64>()), 1..12),
    ) {
        let mut g = random_graph(n, m, &LABELS, gseed);
        let initial = ViewSet::new((0..3).map(|i| view(format!("v{i}"), gseed ^ i)).collect());
        let store = ViewStore::materialize(initial, &g, shards);
        prop_assert_eq!(store.shard_count(), shards);

        for (step, &(op, seed)) in ops.iter().enumerate() {
            let before = store.snapshot();
            let ids = before.ids();
            let mutated = match op {
                0 => {
                    let id = store.insert(view(format!("x{step}"), seed), &g).unwrap();
                    prop_assert!(!ids.contains(&id), "id {} reused", id);
                    true
                }
                1 => {
                    // A resident id when there is one, else an id that was
                    // never issued.
                    let id = match ids.len() {
                        0 => u64::MAX,
                        k => ids[(seed % k as u64) as usize],
                    };
                    let removed = store.remove(id);
                    prop_assert_eq!(removed.is_some(), ids.contains(&id));
                    prop_assert!(store.get(id).is_none());
                    removed.is_some()
                }
                _ => {
                    let report = store.apply_delta(&delta_from(&g, seed), &g).unwrap();
                    g = report.graph;
                    prop_assert_eq!(store.graph_epoch(), report.version);
                    true
                }
            };

            let snap = store.snapshot();
            prop_assert_eq!(snap.version, before.version + u64::from(mutated));
            prop_assert_eq!(store.version(), snap.version);
            prop_assert_eq!(store.len(), snap.views().len());
            prop_assert_eq!(store.is_empty(), snap.views().is_empty());
            prop_assert_eq!(store.graph_fingerprint(), snap.graph_fingerprint);
            prop_assert_eq!(store.graph_epoch(), snap.graph_epoch);

            let occ = store.occupancy();
            prop_assert_eq!(occ.len(), shards);
            prop_assert!(occ.iter().enumerate().all(|(i, o)| o.shard == i));
            prop_assert_eq!(occ.iter().map(|o| o.views).sum::<usize>(), snap.views().len());
            prop_assert_eq!(
                occ.iter().map(|o| o.pairs).sum::<u64>(),
                snap.extensions().size() as u64
            );

            let errors = errors_only(check_snapshot(&snap, Some(&g)));
            prop_assert!(errors.is_empty(), "step {}: {:?}", step, errors);
            for v in snap.views() {
                let got = store.get(v.id).expect("resident view");
                prop_assert!(Arc::ptr_eq(&got, v));
                let want = CompactView::freeze(&match_pattern(&v.def.pattern, &g));
                prop_assert!(v.ext.content_eq(&want), "view {} diverged at step {}", v.id, step);
            }
        }

        let dir = scratch_dir();
        store.save_to_dir(&dir).unwrap();
        for o in store.occupancy() {
            let bytes = std::fs::read(dir.join(format!("shard-{:04}.bin", o.shard))).unwrap();
            let contents = decode_shard(&bytes).unwrap();
            prop_assert_eq!(contents.views.len(), o.views);
        }
        let loaded = ViewStore::load_from_dir(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let (a, b) = (store.snapshot(), loaded.snapshot());
        prop_assert_eq!(a.ids(), b.ids());
        prop_assert_eq!(a.view_set().views(), b.view_set().views());
        prop_assert!(a.views().iter().zip(b.views()).all(|(x, y)| x.ext.content_eq(&y.ext)));
        prop_assert_eq!(loaded.graph_fingerprint(), store.graph_fingerprint());
        prop_assert_eq!(loaded.occupancy(), store.occupancy());
        prop_assert!(errors_only(check_snapshot(&b, Some(&g))).is_empty());
    }
}
