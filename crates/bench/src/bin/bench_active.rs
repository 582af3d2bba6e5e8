//! Runs-to-equal-F-score comparison of adaptive (margin-weighted) vs
//! uniform (static-site) injection sampling, emitting
//! `BENCH_active.json`.
//!
//! The question active learning must answer is not "does the F-score go
//! up" but "how many injection runs does it take to get there". For each
//! of the five SciL workloads this harness:
//!
//! 1. Runs one large *held-out* uniform campaign (its own seed) and
//!    turns it into an evaluation set — every model below is scored
//!    against the same held-out labels, so adaptive sampling cannot
//!    flatter itself by skewing its own cross-validation folds.
//! 2. Sets the target: the held-out F-score of a classifier trained on
//!    a full-budget uniform campaign.
//! 3. Sweeps a ladder of budgets (budget/8, 2·budget/8, …, budget) for
//!    both strategies, training a quick-grid classifier at each rung and
//!    scoring it on the held-out set.
//! 4. Reports the smallest number of *executed* runs at which each
//!    strategy meets the target (adaptive may stop early on the entropy
//!    rule, so its executed count can undershoot the rung). A strategy
//!    that never meets the target within the budget reports `null` —
//!    the comparison is only useful if it is honest.
//!
//! ```text
//! cargo run --release -p ipas-bench --bin bench_active [-- out.json]
//! ```
//!
//! Environment:
//! * `IPAS_BENCH_RUNS` — full campaign budget per strategy (default 160).
//! * `IPAS_BENCH_REPS` — training seeds averaged per rung (default 1).
//! * output path defaults to `BENCH_active.json` in the current
//!   directory; pass a path argument to override.

use std::fmt::Write as _;

use ipas_core::{
    build_training_set, run_campaign_adaptive, train_top_configs, AdaptiveParams, LabelKind,
};
use ipas_faultsim::{
    run_campaign_sampled, CampaignConfig, CampaignOptions, InjectionRecord, SamplingMode, Workload,
};
use ipas_svm::{f_score, per_class_accuracy, GridOptions};
use ipas_workloads::Kind;

const EVAL_SEED: u64 = 9090;
const TRAIN_SEED: u64 = 2016;
const THREADS: usize = 4;
const RUNGS: usize = 8;

/// One rung of the budget ladder for one strategy.
struct Rung {
    /// Budget requested at this rung.
    requested: usize,
    /// Injection runs actually executed (adaptive can stop early).
    executed: usize,
    /// Mean held-out F-score across reps.
    f: f64,
    /// Adaptive only: rounds drawn / early-stop flag, averaged-or'd
    /// across reps.
    rounds: Option<usize>,
    stopped_early: bool,
    /// Any rep produced a single-class training set (F forced to 0).
    degenerate: bool,
}

/// Held-out evaluation set: one feature row + label per record of a
/// campaign that no model ever trains on.
struct EvalSet {
    x: Vec<Vec<f64>>,
    y: Vec<bool>,
}

fn eval_set(workload: &Workload, runs: usize) -> EvalSet {
    let config = CampaignConfig {
        runs,
        seed: EVAL_SEED,
        threads: THREADS,
        ..CampaignConfig::default()
    };
    let result = run_campaign_sampled(workload, &config, SamplingMode::StaticUniform)
        .expect("evaluation campaign completes");
    let data = build_training_set(workload, &result.records, LabelKind::SocGenerating);
    EvalSet {
        x: data.features().to_vec(),
        y: data.labels().to_vec(),
    }
}

/// Trains a quick-grid classifier on `records` and scores it on the
/// held-out set. Returns `(f, degenerate)`; a single-class (or empty)
/// training set scores 0 — no usable model exists at that budget.
fn held_out_f(workload: &Workload, records: &[InjectionRecord], eval: &EvalSet) -> (f64, bool) {
    if records.is_empty() {
        return (0.0, true);
    }
    let data = build_training_set(workload, records, LabelKind::SocGenerating);
    let positives = data.num_positive();
    if positives == 0 || positives == data.len() {
        return (0.0, true);
    }
    let Some(model) = train_top_configs(&data, &GridOptions::quick(), 1).pop() else {
        return (0.0, true);
    };
    let predicted: Vec<bool> = eval.x.iter().map(|f| model.predict_raw(f)).collect();
    (f_score(per_class_accuracy(&predicted, &eval.y)), false)
}

fn uniform_records(workload: &Workload, runs: usize, seed: u64) -> Vec<InjectionRecord> {
    let config = CampaignConfig {
        runs,
        seed,
        threads: THREADS,
        ..CampaignConfig::default()
    };
    run_campaign_sampled(workload, &config, SamplingMode::StaticUniform)
        .expect("uniform campaign completes")
        .records
}

fn rung_budgets(budget: usize) -> Vec<usize> {
    (1..=RUNGS)
        .map(|k| (budget * k / RUNGS).max(16).min(budget))
        .collect()
}

fn sweep(
    workload: &Workload,
    budget: usize,
    reps: usize,
    eval: &EvalSet,
) -> (Vec<Rung>, Vec<Rung>) {
    let mut uniform = Vec::new();
    let mut adaptive = Vec::new();
    for requested in rung_budgets(budget) {
        let mut uni = Rung {
            requested,
            executed: requested,
            f: 0.0,
            rounds: None,
            stopped_early: false,
            degenerate: false,
        };
        let mut ada = Rung {
            requested,
            executed: 0,
            f: 0.0,
            rounds: Some(0),
            stopped_early: false,
            degenerate: false,
        };
        for rep in 0..reps.max(1) {
            let seed = TRAIN_SEED + rep as u64;
            let records = uniform_records(workload, requested, seed);
            let (f, degenerate) = held_out_f(workload, &records, eval);
            uni.f += f;
            uni.degenerate |= degenerate;

            let config = CampaignConfig {
                runs: requested,
                seed,
                threads: THREADS,
                ..CampaignConfig::default()
            };
            let out = run_campaign_adaptive(
                workload,
                &config,
                &CampaignOptions::default(),
                &AdaptiveParams::for_budget(requested),
            )
            .expect("adaptive campaign completes");
            let (f, degenerate) = held_out_f(workload, &out.result.records, eval);
            ada.f += f;
            ada.degenerate |= degenerate;
            ada.executed += out.result.records.len() + out.result.harness_failures.len();
            ada.rounds = Some(ada.rounds.unwrap_or(0) + out.rounds.len());
            ada.stopped_early |= out.stopped_early;
        }
        let n = reps.max(1) as f64;
        uni.f /= n;
        ada.f /= n;
        ada.executed = (ada.executed as f64 / n).round() as usize;
        ada.rounds = ada.rounds.map(|r| ((r as f64) / n).round() as usize);
        uniform.push(uni);
        adaptive.push(ada);
    }
    (uniform, adaptive)
}

/// Smallest executed-run count whose rung meets `target` (first hit on
/// the ladder). `None` if the strategy never gets there in budget.
fn runs_to_target(rungs: &[Rung], target: f64) -> Option<usize> {
    rungs
        .iter()
        .find(|r| r.f >= target - 1e-9)
        .map(|r| r.executed)
}

fn rung_json(r: &Rung) -> String {
    let mut s = format!(
        "{{\"requested\": {}, \"executed\": {}, \"f\": {:.4}",
        r.requested, r.executed, r.f
    );
    if let Some(rounds) = r.rounds {
        let _ = write!(
            s,
            ", \"rounds\": {rounds}, \"stopped_early\": {}",
            r.stopped_early
        );
    }
    if r.degenerate {
        s.push_str(", \"degenerate\": true");
    }
    s.push('}');
    s
}

fn opt_json(v: Option<usize>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

fn main() {
    let budget: usize = std::env::var("IPAS_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(160);
    let reps: usize = std::env::var("IPAS_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_active.json".to_string());

    let mut blocks = Vec::new();
    let mut table = Vec::new();
    for kind in Kind::ALL {
        eprintln!(
            "[bench_active] {} (budget {budget}, {reps} rep(s))",
            kind.name()
        );
        let workload = kind.build(kind.base_input()).expect("workload builds");
        let eval = eval_set(&workload, budget);
        let (uniform, adaptive) = sweep(&workload, budget, reps, &eval);
        // The target is what full-budget uniform sampling achieves; by
        // construction uniform reaches it at its last rung or earlier.
        let target = uniform.last().expect("ladder is non-empty").f;
        let uni_runs = runs_to_target(&uniform, target);
        let ada_runs = runs_to_target(&adaptive, target);
        let savings = match (uni_runs, ada_runs) {
            (Some(u), Some(a)) if u > 0 => Some(100.0 * (u as f64 - a as f64) / u as f64),
            _ => None,
        };

        let mut b = String::new();
        let _ = writeln!(b, "    {{\"name\": \"{}\",", kind.name());
        let _ = writeln!(b, "     \"target_f\": {target:.4},");
        let _ = writeln!(
            b,
            "     \"uniform\": [{}],",
            uniform.iter().map(rung_json).collect::<Vec<_>>().join(", ")
        );
        let _ = writeln!(
            b,
            "     \"adaptive\": [{}],",
            adaptive
                .iter()
                .map(rung_json)
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            b,
            "     \"uniform_runs_to_target\": {},",
            opt_json(uni_runs)
        );
        let _ = writeln!(
            b,
            "     \"adaptive_runs_to_target\": {},",
            opt_json(ada_runs)
        );
        let _ = write!(
            b,
            "     \"savings_pct\": {}}}",
            savings.map_or_else(|| "null".to_string(), |s| format!("{s:.1}"))
        );
        blocks.push(b);
        table.push((kind.name(), target, uni_runs, ada_runs, savings));
    }

    let wins = table
        .iter()
        .filter(|(_, _, u, a, _)| match (u, a) {
            (Some(u), Some(a)) => a < u,
            (Some(_), None) => false,
            _ => false,
        })
        .count();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"benchmark\": \"active-learning-runs-to-f-score\","
    );
    let _ = writeln!(json, "  \"budget\": {budget},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"threads\": {THREADS},");
    let _ = writeln!(json, "  \"label\": \"soc-generating\",");
    let _ = writeln!(json, "  \"eval_seed\": {EVAL_SEED},");
    let _ = writeln!(json, "  \"train_seed\": {TRAIN_SEED},");
    json.push_str("  \"workloads\": [\n");
    json.push_str(&blocks.join(",\n"));
    json.push_str("\n  ],\n");
    let _ = writeln!(json, "  \"adaptive_wins\": {wins},");
    let _ = writeln!(json, "  \"workload_count\": {}", table.len());
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write benchmark output");
    eprintln!("[bench_active] wrote {out_path}");

    println!(
        "{:<8} {:>9} {:>13} {:>14} {:>9}",
        "code", "target F", "uniform runs", "adaptive runs", "savings"
    );
    for (name, target, uni, ada, savings) in &table {
        println!(
            "{:<8} {:>9.3} {:>13} {:>14} {:>9}",
            name,
            target,
            uni.map_or_else(|| "-".into(), |n| n.to_string()),
            ada.map_or_else(|| "-".into(), |n| n.to_string()),
            savings.map_or_else(|| "-".into(), |s| format!("{s:+.1}%")),
        );
    }
    println!(
        "adaptive met the full-budget uniform F-score with fewer runs on {wins}/{} workloads",
        table.len()
    );
}
