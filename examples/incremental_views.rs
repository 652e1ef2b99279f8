//! Incremental maintenance of a materialized view under edge churn
//! (the extension following the paper's pointer to Fan et al., SIGMOD 2011):
//! deletions repair the view incrementally; insertions revive only the
//! affected region. Each change is an [`EdgeDelta`] applied to the graph
//! before it; the maintainer borrows both graphs and copies neither.
//!
//! ```sh
//! cargo run --example incremental_views
//! ```

use graph_views::prelude::*;
use graph_views::views::{EdgeDelta, IncrementalView};

fn main() {
    // A small supply-chain-ish graph: suppliers -> factories -> stores.
    let mut b = GraphBuilder::new();
    let s1 = b.add_node(["Supplier"]);
    let s2 = b.add_node(["Supplier"]);
    let f1 = b.add_node(["Factory"]);
    let f2 = b.add_node(["Factory"]);
    let t1 = b.add_node(["Store"]);
    let t2 = b.add_node(["Store"]);
    b.add_edge(s1, f1);
    b.add_edge(s2, f2);
    b.add_edge(f1, t1);
    b.add_edge(f2, t2);
    let g = b.build();

    // View: Supplier -> Factory -> Store chains.
    let mut p = PatternBuilder::new();
    let sup = p.node_labeled("Supplier");
    let fac = p.node_labeled("Factory");
    let sto = p.node_labeled("Store");
    p.edge(sup, fac);
    p.edge(fac, sto);
    let view = p.build().unwrap();

    let mut inc = IncrementalView::new(view.clone(), &g);
    let show = |label: &str, inc: &IncrementalView, g: &DataGraph| {
        let r = inc.result(g);
        if r.is_empty() {
            println!("{label}: view extension is EMPTY");
        } else {
            println!(
                "{label}: {} match pairs; suppliers matched: {:?}",
                r.size(),
                r.node_matches[0]
            );
        }
    };
    show("initial", &inc, &g);

    // Applies one delta to the view and returns the post-delta graph.
    let step = |inc: &mut IncrementalView, g: &DataGraph, delta: EdgeDelta| {
        let after = delta.apply_to(g);
        inc.apply(&delta, g, &after);
        after
    };

    // Factory f1 loses its store link: the s1-chain dies, incrementally.
    let g = step(&mut inc, &g, EdgeDelta::new(vec![], vec![(f1, t1)]));
    show("after delete f1->t1", &inc, &g);

    // The other chain also breaks: extension empties.
    let g = step(&mut inc, &g, EdgeDelta::new(vec![], vec![(f2, t2)]));
    show("after delete f2->t2", &inc, &g);

    // A new route revives matches (an empty view re-refines).
    let g = step(&mut inc, &g, EdgeDelta::new(vec![(f1, t2)], vec![]));
    show("after insert f1->t2", &inc, &g);

    // Cross-check against recomputation from scratch at the final state.
    let mut b = GraphBuilder::new();
    let s1 = b.add_node(["Supplier"]);
    let s2 = b.add_node(["Supplier"]);
    let f1 = b.add_node(["Factory"]);
    let f2 = b.add_node(["Factory"]);
    let _t1 = b.add_node(["Store"]);
    let t2 = b.add_node(["Store"]);
    b.add_edge(s1, f1);
    b.add_edge(s2, f2);
    b.add_edge(f1, t2);
    let g_final = b.build();
    assert_eq!(inc.result(&g), match_pattern(&view, &g_final));
    println!("\nincremental result == recompute-from-scratch ✓");
}
