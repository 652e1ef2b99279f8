//! The three workloads: seeded inputs, set-up, the timed phase, the
//! correctness gate and (traced runs only) the per-layer profile.
//!
//! Every call into the program goes through `gpv-core`'s public API from
//! this one process. Timed phases never clone `Pattern` schedules: a
//! schedule is a list of indices into the query pool, and each batch is
//! assembled just before its `serve_batch` call.

use crate::trace::{self, timed, Trace};
use gpv_core::{
    check_snapshot, has_errors, EdgeDelta, EngineConfig, QueryEngine, QueryPlan, ServiceConfig,
    ServiceStats, ViewFootprintIndex, ViewService, ViewStore,
};
use gpv_generator::{
    ExecKnob, GraphSource, PatternShape, QueryMode, Scenario, ScenarioInputs, WeightsKnob,
};
use gpv_graph::{DataGraph, NodeId};
use gpv_matching::match_pattern;
use gpv_matching::result::MatchResult;
use gpv_pattern::Pattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries per `serve_batch` call.
const BATCH: usize = 16;
/// Store shards.
const SHARDS: usize = 8;
/// Set-ups (materialize + save + construct) per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Restarts (load + construct) before the timed phase; the last one serves.
const RESTARTS: usize = 3;
/// Restarts timed again after the correctness gate, half a minute later, so
/// that one seconds-long host slowdown cannot decide `restart_s` (the
/// median of all restarts).
const LATE_RESTARTS: usize = 4;
/// `churn` deltas applied back to back before the timed phase: the first
/// promotes the cold maintainers, the second settles the rest.
const WARMUP_WRITES: usize = 2;
/// `churn` writer period: one delta is due every this often.
const WRITE_INTERVAL: Duration = Duration::from_millis(250);
/// `churn` deltas generated: enough for a 60 s timed phase.
const DELTAS: usize = WARMUP_WRITES + 60 * 4 + 14;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Zipfian reads over a small pool: served from the result cache.
    HotRead,
    /// Round-robin reads over a large pool with both caches off: every
    /// request plans and executes.
    ColdRead,
    /// Views-only reads beside an open-loop writer applying edge deltas.
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotRead, Workload::ColdRead, Workload::Churn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot-read",
            Workload::ColdRead => "cold-read",
            Workload::Churn => "churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Closed-loop reader threads.
    fn clients(self) -> usize {
        match self {
            Workload::HotRead => 2,
            Workload::ColdRead | Workload::Churn => 1,
        }
    }
}

/// Data-graph size of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// 100k nodes: the measured configuration.
    Full,
    /// 2k nodes: the smoke check, seconds per workload.
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        [Scale::Full, Scale::Smoke]
            .into_iter()
            .find(|x| x.name() == s)
    }

    pub fn nodes(self) -> usize {
        match self {
            Scale::Full => 100_000,
            Scale::Smoke => 2_000,
        }
    }
}

/// The workload's inputs and configuration as one replayable descriptor.
///
/// `mode: Partial` with `coverage: 1.0` is the scenario spelling of
/// cost-based view selection (no pinned selection mode) over a fully
/// covering view set. Engine workers are pinned to one (sequential
/// executor), so reader and writer threads are the only busy threads.
pub fn scenario(w: Workload, seed: u64, nodes: usize) -> Scenario {
    let default = ServiceConfig::default();
    let (queries, zipf_s, rounds, delta_batch_len, result_cache_bytes, plan_cache_capacity) =
        match w {
            Workload::HotRead => (
                64,
                1.0,
                4096,
                0,
                default.result_cache_bytes,
                default.plan_cache_capacity,
            ),
            // Shuffled round-robin passes (built by `schedule`), caches off.
            Workload::ColdRead => (256, 0.0, 1, 0, 0, 0),
            Workload::Churn => (
                32,
                1.0,
                DELTAS,
                8,
                default.result_cache_bytes,
                default.plan_cache_capacity,
            ),
        };
    Scenario {
        seed,
        graph: GraphSource::Synthetic {
            nodes,
            edges: 2 * nodes,
            labels: 10,
        },
        queries,
        query_nodes: 4,
        query_edges: 4,
        shape: PatternShape::Any,
        max_bound: 1,
        zipf_s,
        batch_len: BATCH,
        rounds,
        updates_per_round: 0,
        delta_batch_len,
        delete_ratio: 0.5,
        coverage: 1.0,
        max_fragment: 2,
        mode: QueryMode::Partial,
        exec: ExecKnob::Sequential,
        threads: 1,
        chunk_pairs: 1,
        weights: WeightsKnob::Default,
        recalibrate_every: 0,
        result_cache_bytes,
        plan_cache_capacity,
        shards: SHARDS,
    }
}

/// Batches per block when traced runs alternate traced and untraced blocks:
/// one `cold-read` pass over its 256-query pool.
const TRACE_BLOCK: usize = 16;
/// Passes over the pool in the `cold-read` schedule.
const COLD_PASSES: usize = 64;

/// Batches as index lists into the pool: the scenario's zipfian rounds, or
/// for `cold-read` round-robin passes that each serve every pool query
/// once, in an order shuffled from the seed (so batches mix differently
/// from pass to pass and no batch repeats a query).
fn schedule(w: Workload, seed: u64, pool: usize, rounds: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    match w {
        Workload::ColdRead => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut batches = Vec::with_capacity(COLD_PASSES * pool.div_ceil(BATCH));
            for _ in 0..COLD_PASSES {
                let mut order: Vec<usize> = (0..pool).collect();
                for i in (1..pool).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                batches.extend(order.chunks(BATCH).map(<[usize]>::to_vec));
            }
            batches
        }
        Workload::HotRead | Workload::Churn => rounds,
    }
}

/// What one run is asked to do.
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Corrupt one served answer before the gate compares it (the gate
    /// must then fail the run).
    pub perturb: bool,
}

/// A finished run: the gate's verdict, operation counts and metrics.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (always measured).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Why the gate failed, one line each.
    pub mismatches: Vec<String>,
    /// Pool queries the gate checked, and how many have nonempty answers.
    pub checked: (u64, u64),
    /// Views in the store.
    pub views: usize,
    /// The run's spans (traced runs only).
    pub trace: Option<Trace>,
}

/// One reader thread's log of the timed phase.
struct ReadLog {
    untraced_ns: Vec<u64>,
    traced_ns: Vec<u64>,
    queries: u64,
    failed: u64,
    /// Traced batches' serve time minus their estimated plan and execute
    /// time, summed.
    self_ms: f64,
    elapsed: Duration,
}

/// The `churn` writer's log of the timed phase.
#[derive(Default)]
struct WriteLog {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    affected: u64,
    changed: u64,
    resident: u64,
}

/// Closed-loop reader: serves batches back to back until `deadline`.
/// With tracing, every other block of `TRACE_BLOCK` batches is traced, so
/// traced and untraced latencies are measured over the same query mix. Right
/// after a traced batch, the queries the service planned or executed are
/// planned and executed again on an engine built from the same snapshot and
/// configuration (at the same host speed as the batch); the batch's service
/// self time is its serve time minus those estimates.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    service: &ViewService,
    pool: &[Pattern],
    schedule: &[Vec<usize>],
    first: usize,
    g: Option<&DataGraph>,
    deadline: Instant,
    tr: Option<&Trace>,
    config: &EngineConfig,
) -> ReadLog {
    let mut log = ReadLog {
        untraced_ns: Vec::new(),
        traced_ns: Vec::new(),
        queries: 0,
        failed: 0,
        self_ms: 0.0,
        elapsed: Duration::ZERO,
    };
    let start = Instant::now();
    let mut batch: Vec<Pattern> = Vec::with_capacity(BATCH);
    let mut side: Option<(u64, QueryEngine)> = None;
    let mut k = first;
    while Instant::now() < deadline {
        let idx = &schedule[k % schedule.len()];
        batch.clear();
        batch.extend(idx.iter().map(|&i| pool[i].clone()));
        let traced = tr.filter(|_| (k / TRACE_BLOCK) % 2 == 1);
        let req = traced.map_or(0, Trace::request);
        let root = traced.map(|t| t.open("service.serve_batch", None, req));
        let t0 = Instant::now();
        let answers = service.serve_batch(&batch, g);
        let took = t0.elapsed();
        log.queries += answers.len() as u64;
        log.failed += answers.iter().filter(|a| a.is_err()).count() as u64;
        k += 1;
        let (Some(t), Some(root)) = (traced, root) else {
            log.untraced_ns.push(took.as_nanos() as u64);
            continue;
        };
        t.close(root);
        log.traced_ns.push(took.as_nanos() as u64);
        let snap = service.store().snapshot();
        if side
            .as_ref()
            .is_none_or(|(version, _)| *version != snap.version)
        {
            let engine = QueryEngine::from_snapshot(&snap).with_config(config.clone());
            side = Some((snap.version, engine));
        }
        let engine = &side.as_ref().expect("side engine built above").1;
        let mut inner = Duration::ZERO;
        for (q, a) in batch.iter().zip(&answers) {
            let Ok(a) = a else { continue };
            if a.result_cached || a.deduplicated {
                continue;
            }
            if !a.plan_cached {
                inner += timed(traced, "engine.plan", Some(root), req, || engine.plan(q)).1;
            }
            inner += timed(traced, "engine.execute", Some(root), req, || {
                black_box(engine.execute(q, &a.plan, g))
            })
            .1;
        }
        log.self_ms += (took.as_secs_f64() - inner.as_secs_f64()) * 1e3;
    }
    log.elapsed = start.elapsed();
    log
}

/// Open-loop writer: delta `k` is due at `start + k · WRITE_INTERVAL`, and
/// its latency runs from when it was due to when `apply_delta` returned.
/// With tracing, every other write first times the successor graph and the
/// footprint lookup on the same inputs (that estimation cost lands in the
/// traced writes' latency and is reported as overhead).
fn write_loop(
    service: &ViewService,
    deltas: &[EdgeDelta],
    mut g: DataGraph,
    start: Instant,
    deadline: Instant,
    tr: Option<&Trace>,
) -> (WriteLog, DataGraph) {
    let mut log = WriteLog::default();
    for (k, d) in deltas.iter().enumerate() {
        let due = start + WRITE_INTERVAL * k as u32;
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        log.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let traced = tr.filter(|_| k % 2 == 1);
        let req = traced.map_or(0, Trace::request);
        let root = traced.map(|t| t.open("write", None, req));
        if traced.is_some() {
            timed(traced, "delta.apply_to", root, req, || {
                black_box(d.apply_to(&g))
            });
            let snap = service.store().snapshot();
            timed(traced, "delta.footprint", root, req, || {
                let index =
                    ViewFootprintIndex::build(snap.views().iter().map(|v| (v.id, &v.def)), &g);
                black_box(index.affected(d, &g))
            });
        }
        let (res, _) = timed(traced, "service.apply_delta", root, req, || {
            service.apply_delta(d, &g)
        });
        let latency = due.elapsed().as_secs_f64() * 1e3;
        if let (Some(t), Some(i)) = (traced, root) {
            t.close(i);
        }
        log.attempted += 1;
        match res {
            Ok(report) => {
                log.affected += report.affected.len() as u64;
                log.changed += report.changed.len() as u64;
                log.resident += (report.affected.len() + report.unaffected) as u64;
                g = report.graph;
            }
            Err(_) => log.failed += 1,
        }
        if traced.is_some() {
            log.traced_ms.push(latency);
        } else {
            log.untraced_ms.push(latency);
        }
    }
    (log, g)
}

/// The correctness gate's findings.
struct Gate {
    attempted: u64,
    /// Pool queries whose expected answer is nonempty.
    nonempty: u64,
    failed: u64,
    mismatches: Vec<String>,
    direct_ms: Vec<f64>,
}

/// Changes `r` so it no longer equals the answer it was served as.
pub fn perturb(r: &mut MatchResult) {
    match r.edge_matches.iter_mut().find(|s| !s.is_empty()) {
        Some(set) => {
            set.pop();
        }
        None => r.edge_matches.push(vec![(NodeId(0), NodeId(0))]),
    }
}

/// Serves every pool query once more and compares each answer with
/// `match_pattern` on `oracle_g` (timed as the baseline layer).
fn gate(
    service: &ViewService,
    pool: &[Pattern],
    serve_g: Option<&DataGraph>,
    oracle_g: &DataGraph,
    tr: Option<&Trace>,
    corrupt: bool,
) -> Gate {
    let mut out = Gate {
        attempted: 0,
        nonempty: 0,
        failed: 0,
        mismatches: Vec::new(),
        direct_ms: Vec::new(),
    };
    for (c, chunk) in pool.chunks(BATCH).enumerate() {
        let answers = service.serve_batch(chunk, serve_g);
        for (j, (q, answer)) in chunk.iter().zip(answers).enumerate() {
            let i = c * BATCH + j;
            out.attempted += 1;
            let req = tr.map_or(0, Trace::request);
            let (expected, took) = timed(tr, "matching.match_pattern", None, req, || {
                match_pattern(q, oracle_g)
            });
            out.direct_ms.push(took.as_secs_f64() * 1e3);
            out.nonempty += u64::from(!expected.is_empty());
            match answer {
                Err(e) => {
                    out.failed += 1;
                    out.mismatches
                        .push(format!("pool query {i}: served an error: {e}"));
                }
                Ok(a) => {
                    let equal = if corrupt && i == 0 {
                        let mut got = (*a.result).clone();
                        perturb(&mut got);
                        got == expected
                    } else {
                        *a.result == expected
                    };
                    if !equal {
                        out.mismatches.push(format!(
                            "pool query {i}: served answer differs from match_pattern"
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Plan and execute calls per pool query in the profile; the query's cost
/// is the median of its calls.
const PROFILE_REPS: usize = 3;

/// Per-query planner and executor costs, measured on an engine built from
/// the service's current snapshot and configuration.
struct Profile {
    plan_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    views_only: usize,
    hybrid: usize,
    direct: usize,
    merged_pairs: u64,
    edge_visits: u64,
    removals: u64,
    answer_pairs: u64,
    failed: u64,
    est_err: f64,
}

fn profile(
    service: &ViewService,
    pool: &[Pattern],
    serve_g: Option<&DataGraph>,
    config: &ServiceConfig,
    tr: &Trace,
) -> Profile {
    let snap = service.store().snapshot();
    let engine = QueryEngine::from_snapshot(&snap).with_config(config.engine.clone());
    let mut p = Profile {
        plan_ms: Vec::new(),
        exec_ms: Vec::new(),
        views_only: 0,
        hybrid: 0,
        direct: 0,
        merged_pairs: 0,
        edge_visits: 0,
        removals: 0,
        answer_pairs: 0,
        failed: 0,
        est_err: 0.0,
    };
    for q in pool {
        let (mut plan_ms, mut exec_ms) = (Vec::new(), Vec::new());
        for rep in 0..PROFILE_REPS {
            let req = tr.request();
            let root = tr.open("profile", None, req);
            let (plan, took) = timed(Some(tr), "engine.plan", Some(root), req, || engine.plan(q));
            plan_ms.push(took.as_secs_f64() * 1e3);
            let (res, took) = timed(Some(tr), "engine.execute", Some(root), req, || {
                engine.execute(q, &plan, serve_g)
            });
            exec_ms.push(took.as_secs_f64() * 1e3);
            tr.close(root);
            if rep > 0 {
                continue;
            }
            match plan {
                QueryPlan::ViewsOnly(_) => p.views_only += 1,
                QueryPlan::Hybrid { .. } => p.hybrid += 1,
                QueryPlan::Direct { .. } => p.direct += 1,
            }
            match res {
                Ok((r, js)) => {
                    p.merged_pairs += js.merged_pairs;
                    p.edge_visits += js.edge_visits;
                    p.removals += js.removals;
                    p.answer_pairs += r.size() as u64;
                }
                Err(_) => p.failed += 1,
            }
        }
        p.plan_ms.push(median(&plan_ms));
        p.exec_ms.push(median(&exec_ms));
    }
    p.est_err = engine.estimate_error().unwrap_or(0.0);
    p
}

fn dir_mb(dir: &Path) -> Result<f64, String> {
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        bytes += meta.len();
    }
    Ok(bytes as f64 / 1e6)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile (0 for no samples).
fn quantile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// Loads the saved store and builds a service on it, as a restarted server
/// boots. Returns the service and the seconds that took.
fn restart(
    store_dir: &Path,
    config: &ServiceConfig,
    tr: Option<&Trace>,
) -> Result<(ViewService, f64), String> {
    let req = tr.map_or(0, Trace::request);
    let root = tr.map(|t| t.open("restart", None, req));
    let t0 = Instant::now();
    let (store, _) = timed(tr, "shard.load", root, req, || {
        ViewStore::load_from_dir(store_dir)
    });
    let store = store.map_err(|e| format!("load_from_dir: {e}"))?;
    let (service, _) = timed(tr, "service.new", root, req, || {
        ViewService::with_config(Arc::new(store), config.clone())
    });
    let took = t0.elapsed().as_secs_f64();
    if let (Some(t), Some(i)) = (tr, root) {
        t.close(i);
    }
    Ok((service, took))
}

/// Runs one workload end to end. `store_dir` receives the saved store and
/// is the caller's to remove.
pub fn run(opt: &Options, store_dir: &Path) -> Result<Outcome, String> {
    let w = opt.workload;
    let sc = scenario(w, opt.seed, opt.scale.nodes());
    let config = sc.service_config();
    let tracer = opt.trace.then(Trace::new);
    let tr = tracer.as_ref();

    let ScenarioInputs {
        graph,
        queries: pool,
        views,
        rounds,
        deltas,
        ..
    } = sc.materialize();
    let schedule = schedule(w, opt.seed, pool.len(), rounds);
    let harness_rss_mb = trace::peak_rss_mb()?;

    // Set-up: inputs in memory -> first servable service.
    let mut setup_s = Vec::new();
    for _ in 0..SETUPS {
        let views = views.clone();
        let req = tr.map_or(0, Trace::request);
        let root = tr.map(|t| t.open("setup", None, req));
        let t0 = Instant::now();
        let (store, _) = timed(tr, "store.materialize", root, req, || {
            ViewStore::materialize(views, &graph, sc.shards)
        });
        let (saved, _) = timed(tr, "shard.save", root, req, || store.save_to_dir(store_dir));
        saved.map_err(|e| format!("save_to_dir: {e}"))?;
        let (service, _) = timed(tr, "service.new", root, req, || {
            ViewService::with_config(Arc::new(store), config.clone())
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        if let (Some(t), Some(i)) = (tr, root) {
            t.close(i);
        }
        drop(service);
    }
    drop(views);

    // Restart: saved store -> servable service. The last one serves.
    let mut restart_s = Vec::new();
    let mut service = None;
    for _ in 0..RESTARTS {
        let (svc, took) = restart(store_dir, &config, tr)?;
        restart_s.push(took);
        service = Some(svc);
    }
    let service = service.expect("at least one restart");
    let disk_mb = dir_mb(store_dir)?;
    let resident_mb = service.store().snapshot().extensions().resident_bytes() as f64 / 1e6;

    // Reads beside the writer are strict views-only; the read-only
    // workloads pass the graph (hybrid and direct plans may read it).
    let serve_g = match w {
        Workload::Churn => None,
        Workload::HotRead | Workload::ColdRead => Some(&graph),
    };
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for chunk in pool.chunks(BATCH) {
        for a in service.serve_batch(chunk, serve_g) {
            attempted += 1;
            failed += u64::from(a.is_err());
        }
    }

    // Churn warm-up writes: cold maintainer promotion, outside the timed
    // phase and reported through `first_write_s` / `rss_growth_mb`.
    let mut first_write_s = 0.0;
    let mut rss_growth_mb = 0.0;
    let mut current = None;
    if w == Workload::Churn {
        let rss_before = trace::rss_mb()?;
        let mut g = graph.clone();
        for (k, d) in deltas.iter().take(WARMUP_WRITES).enumerate() {
            let t0 = Instant::now();
            attempted += 1;
            match service.apply_delta(d, &g) {
                Ok(report) => g = report.graph,
                Err(_) => failed += 1,
            }
            if k == 0 {
                first_write_s = t0.elapsed().as_secs_f64();
            }
        }
        rss_growth_mb = trace::rss_mb()? - rss_before;
        current = Some(g);
    }

    // Timed phase.
    let before: ServiceStats = service.stats();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opt.seconds);
    let (reads, writes) = std::thread::scope(|s| {
        let service = &service;
        let readers: Vec<_> = (0..w.clients())
            .map(|c| {
                let (pool, schedule) = (&pool, &schedule);
                let first = c * schedule.len() / w.clients();
                let engine = &config.engine;
                s.spawn(move || {
                    read_loop(
                        service, pool, schedule, first, serve_g, deadline, tr, engine,
                    )
                })
            })
            .collect();
        let writer = current.take().map(|g| {
            let deltas = &deltas[WARMUP_WRITES.min(deltas.len())..];
            s.spawn(move || write_loop(service, deltas, g, start, deadline, tr))
        });
        let reads: Vec<ReadLog> = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        let writes = writer.map(|h| h.join().expect("writer thread panicked"));
        (reads, writes)
    });
    let after = service.stats();
    let peak_rss_mb = trace::peak_rss_mb()?;

    let queries: u64 = reads.iter().map(|r| r.queries).sum();
    attempted += queries;
    failed += reads.iter().map(|r| r.failed).sum::<u64>();
    let wall = reads
        .iter()
        .map(|r| r.elapsed)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    let untraced: Vec<f64> = reads.iter().flat_map(|r| to_ms(&r.untraced_ns)).collect();
    let traced: Vec<f64> = reads.iter().flat_map(|r| to_ms(&r.traced_ns)).collect();

    // Correctness gate, outside the timed phase.
    let oracle_g = writes.as_ref().map_or(&graph, |(_, g)| g);
    let mut check = gate(&service, &pool, serve_g, oracle_g, tr, opt.perturb);
    if w == Workload::Churn {
        let diags = check_snapshot(&service.store().snapshot(), Some(oracle_g));
        if has_errors(&diags) {
            check
                .mismatches
                .push(format!("check_snapshot reported errors: {diags:?}"));
        }
    }
    attempted += check.attempted;
    failed += check.failed;
    for _ in 0..LATE_RESTARTS {
        restart_s.push(restart(store_dir, &config, tr)?.1);
    }
    if let Some((wl, _)) = &writes {
        attempted += wl.attempted;
        failed += wl.failed;
    }

    let end_to_end = vec![
        ("setup_s", median(&setup_s)),
        ("restart_s", median(&restart_s)),
        ("peak_rss_mb", peak_rss_mb),
        ("read_qps", ratio(queries as f64, wall)),
        ("read_p90_ms", quantile(&untraced, 0.9)),
    ];

    let per_layer = match tr {
        None => Vec::new(),
        Some(t) => {
            let p = profile(&service, &pool, serve_g, &config, t);
            failed += p.failed;
            attempted += (PROFILE_REPS * pool.len()) as u64;
            let secs = |name| median(&t.durations_ms(name)) / 1e3;
            let plans = pool.len() as f64;

            let traced_batches: usize = reads.iter().map(|r| r.traced_ns.len()).sum();
            let self_ms: f64 = reads.iter().map(|r| r.self_ms).sum();
            let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
            let hit_rate = |hits: u64, misses: u64| ratio(hits as f64, (hits + misses) as f64);
            let successor_ms = mean(&t.durations_ms("delta.apply_to"));
            let footprint_ms = mean(&t.durations_ms("delta.footprint"));
            let apply_ms = mean(&t.durations_ms("service.apply_delta"));
            let none = WriteLog::default();
            let wl = writes.as_ref().map_or(&none, |(wl, _)| wl);
            let direct_total: f64 = check.direct_ms.iter().sum();
            let views_total: f64 = p.plan_ms.iter().sum::<f64>() + p.exec_ms.iter().sum::<f64>();
            vec![
                ("harness.rss_mb", harness_rss_mb),
                ("store.materialize_s", secs("store.materialize")),
                ("store.resident_mb", resident_mb),
                ("shard.save_s", secs("shard.save")),
                ("shard.load_s", secs("shard.load")),
                ("shard.disk_mb", disk_mb),
                ("planner.plan_ms", mean(&p.plan_ms)),
                ("planner.views_only_frac", p.views_only as f64 / plans),
                ("planner.hybrid_frac", p.hybrid as f64 / plans),
                ("planner.direct_frac", p.direct as f64 / plans),
                ("planner.est_err", p.est_err),
                ("executor.exec_ms", mean(&p.exec_ms)),
                ("executor.merged_pairs", p.merged_pairs as f64),
                ("executor.edge_visits", p.edge_visits as f64),
                ("executor.removals", p.removals as f64),
                (
                    "executor.survivor_ratio",
                    ratio(p.answer_pairs as f64, p.merged_pairs as f64),
                ),
                ("matching.direct_ms", mean(&check.direct_ms)),
                ("views_speedup", ratio(direct_total, views_total)),
                ("service.self_ms", ratio(self_ms, traced_batches as f64)),
                (
                    "service.result_hit_rate",
                    hit_rate(
                        after.result_cache_hits - before.result_cache_hits,
                        after.result_cache_misses - before.result_cache_misses,
                    ),
                ),
                (
                    "service.plan_hit_rate",
                    hit_rate(
                        after.plan_cache_hits - before.plan_cache_hits,
                        after.plan_cache_misses - before.plan_cache_misses,
                    ),
                ),
                (
                    "service.dedup_saved",
                    d(after.dedup_saved, before.dedup_saved),
                ),
                (
                    "service.result_evictions",
                    d(after.result_cache_evictions, before.result_cache_evictions),
                ),
                (
                    "service.engine_rebuilds",
                    d(after.engine_rebuilds, before.engine_rebuilds),
                ),
                (
                    "service.executed_queries",
                    d(after.executed_queries, before.executed_queries),
                ),
                ("delta.successor_ms", successor_ms),
                ("delta.footprint_ms", footprint_ms),
                (
                    "delta.affected_frac",
                    ratio(wl.affected as f64, wl.resident as f64),
                ),
                ("store.apply_delta_ms", apply_ms),
                (
                    "maintenance.self_ms",
                    if wl.traced_ms.is_empty() {
                        0.0
                    } else {
                        apply_ms - successor_ms - footprint_ms
                    },
                ),
                (
                    "maintenance.changed_per_affected",
                    ratio(wl.changed as f64, wl.affected as f64),
                ),
                ("maintenance.rss_growth_mb", rss_growth_mb),
                ("writer.late_ms", mean(&wl.late_ms)),
                ("write_p50_ms", median(&wl.untraced_ms)),
                ("write_p90_ms", quantile(&wl.untraced_ms, 0.9)),
                ("first_write_s", first_write_s),
                (
                    "trace.read_overhead",
                    ratio(median(&traced), median(&untraced)) - 1.0,
                ),
                (
                    "trace.write_overhead",
                    if wl.traced_ms.is_empty() {
                        0.0
                    } else {
                        ratio(median(&wl.traced_ms), median(&wl.untraced_ms)) - 1.0
                    },
                ),
                ("error_rate", ratio(failed as f64, attempted as f64)),
                ("read_p50_ms", median(&untraced)),
                ("read_p99_ms", quantile(&untraced, 0.99)),
            ]
        }
    };

    Ok(Outcome {
        correct: check.mismatches.is_empty(),
        attempted,
        failed,
        end_to_end,
        per_layer,
        mismatches: check.mismatches,
        checked: (pool.len() as u64, check.nonempty),
        views: service.store().len(),
        trace: tracer,
    })
}
