//! Campaign-throughput comparison of the two execution engines,
//! emitting `BENCH_interp.json`.
//!
//! For each of the five SciL workloads this harness runs the *same*
//! fault-injection campaign (same seed, same plans) on the tree-walking
//! reference engine and on the pre-decoded compiled engine, on one
//! worker thread so the numbers measure engine throughput rather than
//! scheduling. It verifies the two campaigns produced byte-identical
//! records — a benchmark that silently diverged would be measuring two
//! different computations — then reports wall-clock time, runs/second,
//! and the compiled/reference speedup per workload plus the geometric
//! mean. Compiled campaigns start each run from the campaign's
//! golden-run checkpoint ladder (see `docs/interpreter.md`), so the
//! compiled column measures the engine *with* fast-forward; the
//! reference engine always runs from the entry.
//!
//! Provenance: the report records the commit (`git describe --always
//! --dirty`: a `-dirty` suffix marks uncommitted changes on top of it;
//! `unknown` outside a git checkout), the host's core count (`nproc`),
//! and the reference engine's runs/s (geometric mean over the
//! workloads) as the same-run normalizer: dividing a compiled runs/s
//! figure by it compares reports taken on different hosts.
//!
//! ```text
//! cargo run --release -p ipas-bench --bin bench_interp [-- out.json]
//! ```
//!
//! Environment:
//! * `IPAS_BENCH_RUNS` — campaign size per engine (default 200).
//! * `IPAS_BENCH_REPS` — repetitions per engine; the fastest is
//!   reported (default 3, standard practice against scheduler noise —
//!   the minimum estimates the code's cost, not the machine's jitter).
//! * output path defaults to `BENCH_interp.json` in the current
//!   directory; pass a path argument to override.

use std::fmt::Write as _;
use std::time::Instant;

use ipas_faultsim::{run_campaign, CampaignConfig, CampaignResult, Engine};
use ipas_workloads::Kind;

struct Row {
    name: &'static str,
    runs: usize,
    nominal_insts: u64,
    reference_s: f64,
    compiled_s: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.reference_s / self.compiled_s
    }
}

fn one_campaign(
    workload: &ipas_faultsim::Workload,
    runs: usize,
    engine: Engine,
) -> (CampaignResult, f64) {
    let config = CampaignConfig {
        runs,
        seed: 2016,
        threads: 1,
        engine,
        ..CampaignConfig::default()
    };
    let start = Instant::now();
    let result = run_campaign(workload, &config).expect("campaign completes");
    (result, start.elapsed().as_secs_f64())
}

/// Runs `reps` interleaved (reference, compiled) campaign pairs and
/// returns the per-engine results with best-of-reps times. Interleaving
/// plus taking the minimum estimates the code's cost rather than the
/// machine's jitter, and keeps transient load from biasing one engine's
/// measurement window.
fn timed_pair(kind: Kind, runs: usize, reps: usize) -> (CampaignResult, f64, CampaignResult, f64) {
    let workload = kind.build(kind.base_input()).expect("workload builds");
    let mut best: Option<(CampaignResult, f64, CampaignResult, f64)> = None;
    for _ in 0..reps.max(1) {
        let (ref_result, ref_s) = one_campaign(&workload, runs, Engine::Reference);
        let (cmp_result, cmp_s) = one_campaign(&workload, runs, Engine::Compiled);
        match &mut best {
            Some((prev_ref, best_ref_s, prev_cmp, best_cmp_s)) => {
                assert_eq!(
                    prev_ref.records,
                    ref_result.records,
                    "{}: reference campaign is not deterministic across repetitions",
                    kind.name()
                );
                assert_eq!(
                    prev_cmp.records,
                    cmp_result.records,
                    "{}: compiled campaign is not deterministic across repetitions",
                    kind.name()
                );
                *best_ref_s = best_ref_s.min(ref_s);
                *best_cmp_s = best_cmp_s.min(cmp_s);
            }
            None => best = Some((ref_result, ref_s, cmp_result, cmp_s)),
        }
    }
    best.expect("at least one repetition")
}

fn main() {
    let runs: usize = std::env::var("IPAS_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let reps: usize = std::env::var("IPAS_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_interp.json".to_string());

    let mut rows = Vec::new();
    for kind in Kind::ALL {
        eprintln!(
            "[bench_interp] {} ({runs} runs x {reps} reps per engine)",
            kind.name()
        );
        let (ref_result, reference_s, fast_result, compiled_s) = timed_pair(kind, runs, reps);
        assert_eq!(
            ref_result.records,
            fast_result.records,
            "{}: engines diverged — benchmark numbers would be meaningless",
            kind.name()
        );
        rows.push(Row {
            name: kind.name(),
            runs,
            nominal_insts: ref_result.nominal_insts,
            reference_s,
            compiled_s,
        });
    }

    let geomean_of = |f: &dyn Fn(&Row) -> f64| {
        (rows.iter().map(|r| f(r).ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    let geomean = geomean_of(&Row::speedup);
    let normalizer = geomean_of(&|r| r.runs as f64 / r.reference_s);
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"benchmark\": \"interp-engine-campaign-throughput\","
    );
    let _ = writeln!(
        json,
        "  \"note\": \"compiled_s includes golden-run checkpoint fast-forward \
         (one ladder capture per campaign, each run resumed from its last rung); \
         reference_s runs every plan from the entry\","
    );
    let _ = writeln!(json, "  \"runs_per_engine\": {runs},");
    let _ = writeln!(json, "  \"reps_per_engine\": {reps},");
    let _ = writeln!(json, "  \"threads\": 1,");
    let _ = writeln!(json, "  \"seed\": 2016,");
    let _ = writeln!(json, "  \"commit\": \"{commit}\",");
    let _ = writeln!(json, "  \"nproc\": {nproc},");
    let _ = writeln!(json, "  \"normalizer\": \"reference_runs_per_s_geomean\",");
    let _ = writeln!(json, "  \"reference_runs_per_s_geomean\": {normalizer:.2},");
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"runs\": {}, \"nominal_insts\": {}, \
             \"reference_s\": {:.4}, \"compiled_s\": {:.4}, \
             \"reference_runs_per_s\": {:.2}, \"compiled_runs_per_s\": {:.2}, \
             \"speedup\": {:.3}}}{}",
            r.name,
            r.runs,
            r.nominal_insts,
            r.reference_s,
            r.compiled_s,
            r.runs as f64 / r.reference_s,
            r.runs as f64 / r.compiled_s,
            r.speedup(),
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"geomean_speedup\": {geomean:.3}");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write benchmark output");
    eprintln!("[bench_interp] wrote {out_path}");
    println!(
        "{:<8} {:>12} {:>12} {:>9}",
        "code", "reference_s", "compiled_s", "speedup"
    );
    for r in &rows {
        println!(
            "{:<8} {:>12.3} {:>12.3} {:>8.2}x",
            r.name,
            r.reference_s,
            r.compiled_s,
            r.speedup()
        );
    }
    println!("geomean speedup: {geomean:.2}x");
    println!("normalizer: {normalizer:.2} reference runs/s (geomean), {nproc} cores, {commit}");
}
