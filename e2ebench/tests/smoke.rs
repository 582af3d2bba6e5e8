//! Smoke-size runs of every workload: output shape, correctness checks,
//! and seed determinism of the per-layer counts. Run with
//! `cargo test --release --manifest-path e2ebench/Cargo.toml`.

use std::path::PathBuf;

use ipas_e2ebench::{run, Options, Report, Scale, Workload, END_TO_END, EXACT_COUNTS, PER_LAYER};

fn options(workload: Workload, trace: bool, seed: u64) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.5,
        trace,
        scale: Scale::smoke(),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "{}-{}-{seed}",
            workload.name(),
            trace as u8
        )),
    }
}

fn names(report: &Report) -> Vec<&str> {
    report.metrics.iter().map(|(n, _, _)| n.as_str()).collect()
}

fn assert_clean(report: &Report) {
    assert!(report.correct, "correctness checks failed");
    assert!(report.attempted >= 1);
    assert_eq!(report.failed, 0);
    let line = report.json_line();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
}

fn untraced(workload: Workload) {
    let report = run(&options(workload, false, 7)).expect("smoke run");
    assert_clean(&report);
    let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(&report), expected);
    for (name, value, _) in &report.metrics {
        assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
    }
}

fn traced(workload: Workload, seed: u64) -> Report {
    let report = run(&options(workload, true, seed)).expect("smoke run");
    assert_clean(&report);
    let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(&report), expected);
    let coverage = report.metric("trace.coverage").unwrap();
    assert!(coverage > 0.5 && coverage <= 1.0, "coverage {coverage}");
    assert!(report.metric("host.spin_per_s").unwrap() > 0.0);
    assert!(!report.spans.is_empty());
    report
}

#[test]
fn protect_untraced() {
    untraced(Workload::Protect);
}

#[test]
fn train_paper_untraced() {
    untraced(Workload::TrainPaper);
}

#[test]
fn daemon_mixed_untraced() {
    untraced(Workload::DaemonMixed);
}

#[test]
fn traced_runs_enter_their_own_layers() {
    let protect = traced(Workload::Protect, 3);
    assert!(protect.metric("faultsim.runs").unwrap() > 0.0);
    assert!(protect.metric("svm.configs").unwrap() > 0.0);
    // One miss per memoized stage of each cold request; every warm
    // request hits all five.
    let misses = protect.metric("store.misses").unwrap();
    assert_eq!(misses, 5.0 * ipas_e2ebench::PROGRAMS.len() as f64);
    assert_eq!(
        protect.metric("store.hits").unwrap(),
        misses * Scale::smoke().warm_trace_cycles as f64
    );
    assert!(protect.metric("core.soc_reduction_pct").unwrap() != 0.0);
    assert!(protect.metric("core.slowdown_x").unwrap() > 1.0);
    assert!(protect.metric("request.warm_ms").unwrap() > 0.0);

    let train = traced(Workload::TrainPaper, 3);
    assert_eq!(train.metric("faultsim.runs"), Some(0.0));
    assert_eq!(train.metric("store.hits"), Some(0.0));
    assert!(train.metric("svm.cv_f_score").unwrap() > 0.0);

    let daemon = traced(Workload::DaemonMixed, 3);
    assert!(daemon.metric("serve.executed_runs").unwrap() > 0.0);
    assert!(daemon.metric("serve.coalesced").unwrap() > 0.0);
    assert_eq!(daemon.metric("serve.jobs_failed"), Some(0.0));
}

#[test]
fn a_seed_fixes_the_counts_and_another_seed_changes_them() {
    let exact = |r: &Report| -> Vec<(String, f64)> {
        r.metrics
            .iter()
            .filter(|(n, _, u)| {
                !["s", "ms", "1/s"].contains(&u.as_str())
                    && !n.starts_with("trace.")
                    && !n.starts_with("host.")
            })
            .map(|(n, v, _)| (n.clone(), *v))
            .collect()
    };
    for workload in [Workload::Protect, Workload::DaemonMixed] {
        let a = traced(workload, 5);
        let b = traced(workload, 5);
        assert_eq!(exact(&a), exact(&b), "{}", workload.name());
        let c = traced(workload, 6);
        assert_ne!(exact(&a), exact(&c), "{}", workload.name());
    }
    assert!(EXACT_COUNTS.contains(&"faultsim.insts"));
}
