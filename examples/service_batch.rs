//! Batch serving through the `ViewService` layer: shard materialized views
//! into a `ViewStore`, stand up one shared service, and let several client
//! threads fire overlapping query batches at it — deduplicated, plan-cached,
//! result-cached across batches, and answered identically to the sequential
//! `QueryEngine`.
//!
//! Run with: `cargo run --example service_batch`

use gpv_generator::{covering_views, random_graph, random_pattern, PatternShape};
use graph_views::prelude::*;
use graph_views::views::store::ViewStore;
use graph_views::views::ViewService;
use std::sync::Arc;

fn main() {
    const LABELS: [&str; 4] = ["A", "B", "C", "D"];

    // A synthetic graph and a small query workload it can serve.
    let g = random_graph(2_000, 6_000, &LABELS, 42);
    let queries: Vec<Pattern> = (0..4)
        .map(|i| random_pattern(3, 4, &LABELS, PatternShape::Any, 100 + i))
        .collect();
    let views = covering_views(&queries, 2, 7);

    // Register the materialized views; 8 on-disk shards, one published
    // snapshot that every batch reads lock-free.
    let store = Arc::new(ViewStore::materialize(views, &g, 8));
    let service = ViewService::new(store);

    // Each client submits the whole workload twice per batch (duplicates
    // exercise dedup + the plan cache), four clients concurrently.
    let batch: Vec<Pattern> = queries.iter().chain(queries.iter()).cloned().collect();
    std::thread::scope(|s| {
        for c in 0..4 {
            let service = &service;
            let batch = &batch;
            let g = &g;
            s.spawn(move || {
                for (i, r) in service.serve_batch(batch, Some(g)).iter().enumerate() {
                    let a = r.as_ref().expect("fallback permitted");
                    if c == 0 {
                        println!(
                            "client {c} query {i}: {} pairs ({})",
                            a.result.size(),
                            a.disposition()
                        );
                    }
                }
            });
        }
    });

    // The SAME workload again: every answer now comes straight from the
    // cross-batch result cache — no planning, no execution, one shared
    // Arc<MatchResult> per query.
    for (i, r) in service.serve_batch(&queries, Some(&g)).iter().enumerate() {
        let a = r.as_ref().expect("fallback permitted");
        assert!(a.result_cached, "warm repeat is served from the cache");
        println!(
            "warm query {i}: {} pairs ({})",
            a.result.size(),
            a.disposition()
        );
    }

    // Every answer above is byte-identical to QueryEngine::answer — the
    // service only changes how fast repeated traffic is served:
    let stats = service.stats();
    println!("--- service stats ---");
    println!(
        "{} queries in {} batches; plan cache {:.0}% hits ({} plans), {} deduped",
        stats.queries,
        stats.batches,
        stats.plan_cache_hit_rate * 100.0,
        stats.plan_cache_size,
        stats.dedup_saved
    );
    println!(
        "result cache: {} hits / {} misses ({:.0}%), {} answers / {} KiB resident",
        stats.result_cache_hits,
        stats.result_cache_misses,
        stats.result_cache_hit_rate * 100.0,
        stats.result_cache_size,
        stats.result_cache_bytes / 1024
    );
    println!(
        "p50 {}, p99 {}, max queue depth {}",
        stats.latency.quantile_label(0.5),
        stats.latency.quantile_label(0.99),
        stats.max_in_flight
    );
    for o in &stats.shard_occupancy {
        println!("shard {}: {} views, {} pairs", o.shard, o.views, o.pairs);
    }

    // EXPLAIN any query against the current view set:
    println!("--- explain ---\n{}", service.explain(&queries[0]));
}
