//! perfbench: the serving stack's benchmark.
//!
//! One seeded command per workload builds its inputs with
//! `Scenario::materialize`, drives `gpv-core`'s public API from this
//! process, checks every answer against `match_pattern`, and prints its
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, holding the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//!
//! ```text
//! perfbench --workload <hot-read|cold-read|churn> --seed N --seconds S --trace <0|1>
//!           [--scale <full|smoke>] [--perturb]
//! perfbench --smoke
//! ```
//!
//! `--smoke` runs every workload at 2k nodes, each in its own process, and
//! checks that every metric is printed with its unit and that the
//! correctness gate fails a run whose answer was perturbed (`--perturb`).

mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::{Options, Scale, Workload};

/// End-to-end metrics: `(name, unit)`, printed by untraced runs.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("restart_s", "s"),
    ("peak_rss_mb", "MB"),
    ("read_qps", "1/s"),
    ("read_p90_ms", "ms"),
];

/// Per-layer metrics: `(name, unit)`, printed by traced runs.
const PER_LAYER: [(&str, &str); 41] = [
    ("harness.rss_mb", "MB"),
    ("store.materialize_s", "s"),
    ("store.resident_mb", "MB"),
    ("shard.save_s", "s"),
    ("shard.load_s", "s"),
    ("shard.disk_mb", "MB"),
    ("planner.plan_ms", "ms"),
    ("planner.views_only_frac", "ratio"),
    ("planner.hybrid_frac", "ratio"),
    ("planner.direct_frac", "ratio"),
    ("planner.est_err", "ratio"),
    ("executor.exec_ms", "ms"),
    ("executor.merged_pairs", "count"),
    ("executor.edge_visits", "count"),
    ("executor.removals", "count"),
    ("executor.survivor_ratio", "ratio"),
    ("matching.direct_ms", "ms"),
    ("views_speedup", "x"),
    ("service.self_ms", "ms"),
    ("service.result_hit_rate", "ratio"),
    ("service.plan_hit_rate", "ratio"),
    ("service.dedup_saved", "count"),
    ("service.result_evictions", "count"),
    ("service.engine_rebuilds", "count"),
    ("service.executed_queries", "count"),
    ("delta.successor_ms", "ms"),
    ("delta.footprint_ms", "ms"),
    ("delta.affected_frac", "ratio"),
    ("store.apply_delta_ms", "ms"),
    ("maintenance.self_ms", "ms"),
    ("maintenance.changed_per_affected", "ratio"),
    ("maintenance.rss_growth_mb", "MB"),
    ("writer.late_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("first_write_s", "s"),
    ("trace.read_overhead", "ratio"),
    ("trace.write_overhead", "ratio"),
    ("error_rate", "ratio"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
];

const USAGE: &str = "usage: perfbench --workload <hot-read|cold-read|churn> --seed N --seconds S \
                     --trace <0|1> [--scale <full|smoke>] [--perturb]\n       perfbench --smoke";

enum Cmd {
    Run(Options),
    Smoke,
}

fn parse_args(args: &[String]) -> Result<Cmd, String> {
    if args == ["--smoke"] {
        return Ok(Cmd::Smoke);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut scale, mut perturb) = (Scale::Full, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--perturb" {
            perturb = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--scale" => scale = Scale::parse(value).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Cmd::Run(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        perturb,
    }))
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    read(name)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Renders the result line. Every value must be finite.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(opt: &Options) -> Result<bool, String> {
    let w = opt.workload;
    let sc = workload::scenario(w, opt.seed, opt.scale.nodes());
    println!(
        "host {{\"nproc\": {}, \"auto_threads\": {}, \"commit\": \"{}\", \"scale\": \"{}\", \
         \"nodes\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        nproc(),
        gpv_core::parallel::auto_threads(),
        commit(),
        opt.scale.name(),
        opt.scale.nodes(),
        w.name(),
        opt.seed,
        opt.seconds,
        u8::from(opt.trace)
    );
    println!("scenario {}", sc.to_json_line());
    println!("repro {}", sc.repro_command());

    let store_dir =
        PathBuf::from(".bench_store").join(format!("{}-{}", w.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let result = workload::run(opt, &store_dir);
    let _ = std::fs::remove_dir_all(&store_dir);
    // Only succeeds once no other run is using the parent.
    let _ = std::fs::remove_dir(".bench_store");
    let out = result?;

    println!(
        "gate {} pool answers over {} views checked against match_pattern, {} nonempty, {} mismatches",
        out.checked.0,
        out.views,
        out.checked.1,
        out.mismatches.len()
    );
    for m in &out.mismatches {
        eprintln!("gate: {m}");
    }
    if let Some(t) = &out.trace {
        let path =
            PathBuf::from(".bench_trace").join(format!("{}-seed{}.jsonl", w.name(), opt.seed));
        t.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans {}", path.display());
    }

    let (names, measured) = if opt.trace {
        (&PER_LAYER[..], out.per_layer)
    } else {
        (&END_TO_END[..], out.end_to_end)
    };
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = measured
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        println!("metric {name:<34} {value:>16.6} {unit}");
        metrics.push((name, value, unit));
    }
    println!(
        "{}",
        result_json(out.correct, out.attempted, out.failed, &metrics)
    );
    Ok(out.correct)
}

/// Checks one child run's result line against the metric list.
fn check_result(line: &str, names: &[(&str, &str)]) -> Result<bool, String> {
    let v = serde_json::parse(line).map_err(|e| format!("result line is not JSON: {e:?}"))?;
    let metrics = v
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or("result has no metrics object")?;
    if metrics.len() != names.len() {
        return Err(format!(
            "{} metrics, expected {}",
            metrics.len(),
            names.len()
        ));
    }
    for &(name, unit) in names {
        let m = v["metrics"]
            .get(name)
            .ok_or_else(|| format!("metric {name} missing"))?;
        if m.get("unit").and_then(|u| u.as_str()) != Some(unit) {
            return Err(format!("metric {name} lacks unit {unit}"));
        }
        if !m
            .get("value")
            .and_then(|x| x.as_f64())
            .is_some_and(f64::is_finite)
        {
            return Err(format!("metric {name} has no finite value"));
        }
    }
    v.get("correct")
        .and_then(|c| match c {
            serde_json::Value::Bool(b) => Some(*b),
            _ => None,
        })
        .ok_or_else(|| "result has no correct flag".into())
}

/// Runs every workload at smoke scale in its own process, traced and
/// untraced, then once more with a perturbed answer that the gate must
/// catch.
fn smoke() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = |w: Workload, trace: &str, perturb: bool| -> Result<(bool, String), String> {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", "1", "--seconds", "1"])
            .args(["--trace", trace, "--scale", "smoke"]);
        if perturb {
            cmd.arg("--perturb");
        }
        let out = cmd.output().map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default().to_string();
        Ok((out.status.success(), last))
    };
    for w in Workload::ALL {
        for (trace, names) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let (ok, last) = child(w, trace, false)?;
            let correct = check_result(&last, names)
                .map_err(|e| format!("{} --trace {trace}: {e}", w.name()))?;
            if !ok || !correct {
                return Err(format!("{} --trace {trace} failed: {last}", w.name()));
            }
            println!("smoke {} --trace {trace}: ok", w.name());
        }
        let (ok, last) = child(w, "0", true)?;
        if ok || check_result(&last, &END_TO_END)? {
            return Err(format!("{}: the gate passed a perturbed answer", w.name()));
        }
        println!(
            "smoke {} --perturb: gate failed the run, as it must",
            w.name()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Cmd::Smoke) => match smoke() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("smoke: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(Cmd::Run(opt)) => match run(&opt) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpv_generator::check_scenario;

    #[test]
    fn workload_scenarios_pass_the_differential_check_at_tiny_scale() {
        for w in Workload::ALL {
            let mut sc = workload::scenario(w, 7, 60);
            sc.rounds = sc.rounds.min(3);
            if let Err(d) = check_scenario(&sc) {
                panic!("{}: {d}\nrepro: {}", w.name(), sc.repro_command());
            }
        }
    }

    #[test]
    fn perturbed_answers_differ() {
        let mut empty = gpv_matching::result::MatchResult::empty();
        let before = empty.clone();
        workload::perturb(&mut empty);
        assert_ne!(empty, before);
        let mut one = gpv_matching::result::MatchResult {
            node_matches: vec![vec![gpv_graph::NodeId(0)], vec![gpv_graph::NodeId(1)]],
            edge_matches: vec![vec![(gpv_graph::NodeId(0), gpv_graph::NodeId(1))]],
        };
        let before = one.clone();
        workload::perturb(&mut one);
        assert_ne!(one, before);
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside perfbench/");
        let v = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            v[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m[k].as_str().expect("string field").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |xs: &[(&str, &str)]| -> Vec<(String, String)> {
            xs.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = v["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
