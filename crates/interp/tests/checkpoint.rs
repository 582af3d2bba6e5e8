//! Golden-run checkpoint identity.
//!
//! A compiled run resumed from a [`Ladder`] rung must be
//! indistinguishable from the reference engine's run from the entry:
//! same status, dynamic and per-class counters, outputs, console,
//! injection site and injection instant. The sweeps below aim targets at
//! every rung boundary — each rung's class counter minus one (the last
//! event the rung already executed, so the run starts one rung earlier),
//! equal to it and one past it — plus the first and the last event, for
//! all five paper workloads under all six fault models, a recursive
//! program whose rungs are captured deep inside a callee, and runs that
//! end on the hang budget.

use ipas_interp::{
    CompiledMachine, CompiledProgram, FaultModel, Injection, Ladder, Machine, RtVal, RunConfig,
    RunOutput, RunStatus, SiteClass,
};
use ipas_ir::parser::parse_module;
use ipas_ir::Module;
use ipas_workloads::Kind;

/// Asserts every observable field of two runs is identical (floats
/// bitwise, so NaN payloads and signed zeros count).
fn assert_identical(label: &str, reference: &RunOutput, resumed: &RunOutput) {
    assert_eq!(reference.status, resumed.status, "{label}: status");
    assert_eq!(
        reference.dynamic_insts, resumed.dynamic_insts,
        "{label}: dynamic_insts"
    );
    assert_eq!(
        reference.eligible_results, resumed.eligible_results,
        "{label}: eligible_results"
    );
    assert_eq!(reference.loads, resumed.loads, "{label}: loads");
    assert_eq!(reference.stores, resumed.stores, "{label}: stores");
    assert_eq!(
        reference.cond_branches, resumed.cond_branches,
        "{label}: cond_branches"
    );
    assert_eq!(
        reference.outputs.as_ints(),
        resumed.outputs.as_ints(),
        "{label}: integer outputs"
    );
    let bits =
        |o: &RunOutput| -> Vec<u64> { o.outputs.as_floats().iter().map(|f| f.to_bits()).collect() };
    assert_eq!(bits(reference), bits(resumed), "{label}: float outputs");
    assert_eq!(reference.console, resumed.console, "{label}: console");
    assert_eq!(
        reference.injected_site, resumed.injected_site,
        "{label}: injected_site"
    );
    assert_eq!(
        reference.injected_at_inst, resumed.injected_at_inst,
        "{label}: injected_at_inst"
    );
}

fn class_space(out: &RunOutput, class: SiteClass) -> u64 {
    match class {
        SiteClass::Value => out.eligible_results,
        SiteClass::Load => out.loads,
        SiteClass::Store => out.stores,
        SiteClass::Branch => out.cond_branches,
    }
}

/// Targets at 0, the last event, and each rung's counter −1/=/+1.
fn boundary_targets(ladder: &Ladder, class: SiteClass, space: u64) -> Vec<u64> {
    let mut targets = vec![0, space - 1];
    for rung in ladder.rungs() {
        let c = rung.events(class);
        targets.extend([c.saturating_sub(1), c, c + 1]);
    }
    targets.retain(|&t| t < space);
    targets.sort_unstable();
    targets.dedup();
    targets
}

/// Captures a ladder with `spacing`, checks the capture run is the
/// reference golden run, then sweeps every fault model's boundary
/// targets, asserting each ladder-resumed compiled run equals the
/// reference run. Returns the ladder's deepest rung and the number of
/// runs that ended in a hang.
fn sweep(label: &str, module: &Module, args: Vec<RtVal>, spacing: u64) -> (usize, usize) {
    let base = RunConfig {
        args,
        ..RunConfig::default()
    };
    let golden = Machine::new(module).run(&base).expect("reference runs");
    let program = CompiledProgram::compile(module);
    let (ladder, captured) = Ladder::capture(&program, &base, spacing).expect("capture runs");
    assert_identical(&format!("{label}/capture"), &golden, &captured);
    assert!(
        ladder.rungs().len() >= 2,
        "{label}: only {} rungs",
        ladder.rungs().len()
    );
    let max_insts = RunConfig::budget_from_nominal(golden.dynamic_insts);
    let mut machine = CompiledMachine::new(&program);
    let (mut resumed_from_rung, mut hangs) = (0, 0);
    for model in FaultModel::ALL {
        let class = model.site_class();
        let space = class_space(&golden, class);
        if space == 0 {
            assert_ne!(class, SiteClass::Value, "{label}: no eligible results");
            continue;
        }
        for (k, target) in boundary_targets(&ladder, class, space)
            .into_iter()
            .enumerate()
        {
            let bit = [0u32, 7, 33, 52, 63, 97][k % 6] % model.bit_domain();
            let config = RunConfig {
                injection: Some(Injection::for_model(model, target, bit)),
                max_insts,
                ..base.clone()
            };
            let reference = Machine::new(module).run(&config).expect("reference runs");
            let resumed = machine
                .run_from(&config, Some(&ladder))
                .expect("compiled runs");
            resumed_from_rung += usize::from(ladder.rung_for(&config).is_some());
            hangs += usize::from(reference.status == RunStatus::Hang);
            assert_identical(
                &format!("{label}/{model} t={target} b={bit}"),
                &reference,
                &resumed,
            );
        }
    }
    assert!(resumed_from_rung > 0, "{label}: no run started from a rung");
    let depth = ladder.rungs().iter().map(|r| r.depth()).max().unwrap_or(0);
    (depth, hangs)
}

/// Sweeps one paper workload at its base input. Eight rungs keep the
/// reference sweep affordable in debug builds (campaigns use
/// `Ladder::RUNGS`). `nested` says whether the workload's hot loops
/// live in callees, where its rungs must then be taken.
fn workload_sweep(kind: Kind, nested: bool) {
    let w = kind.build(kind.base_input()).expect("workload builds");
    let (depth, _) = sweep(kind.name(), &w.module, w.args.clone(), w.nominal_insts / 8);
    assert_eq!(
        depth >= 2,
        nested,
        "{}: deepest rung at depth {depth}",
        kind.name()
    );
}

#[test]
fn rung_boundaries_match_reference_on_comd() {
    workload_sweep(Kind::Comd, true);
}

#[test]
fn rung_boundaries_match_reference_on_hpccg() {
    workload_sweep(Kind::Hpccg, true);
}

#[test]
fn rung_boundaries_match_reference_on_amg() {
    workload_sweep(Kind::Amg, true);
}

#[test]
fn rung_boundaries_match_reference_on_fft() {
    workload_sweep(Kind::Fft, true);
}

#[test]
fn rung_boundaries_match_reference_on_is() {
    workload_sweep(Kind::Is, false);
}

/// A recursion 40 deep with a loop at every level: rungs are captured
/// inside nested activations of `@rec`, and resuming one rebuilds the
/// whole chain (each caller finishes its pending call with the callee's
/// return value, an injectable result).
const REC_SRC: &str = r#"
fn @main() -> i64 {
bb0:
  %v0 = call @rec(40) -> i64
  %v1 = call output_i64(%v0) -> void
  ret %v0
}
fn @rec(i64) -> i64 {
bb0:
  %v0 = alloca i64, 1
  store i64 %arg0, %v0
  %v1 = icmp sgt %arg0, 0
  condbr %v1, bb1, bb4
bb1:
  %v2 = sub i64 %arg0, 1
  %v3 = call @rec(%v2) -> i64
  br bb2
bb2:
  %v4 = phi i64 [bb1: 0, bb3: %v7]
  %v5 = phi i64 [bb1: %v3, bb3: %v8]
  %v6 = icmp slt %v4, 5
  condbr %v6, bb3, bb4
bb3:
  %v9 = load i64, %v0
  %v8 = add i64 %v5, %v9
  %v7 = add i64 %v4, 1
  br bb2
bb4:
  %v10 = phi i64 [bb0: 1, bb2: %v5]
  ret %v10
}
"#;

#[test]
fn rungs_inside_a_recursive_callee_resume_the_whole_chain() {
    let module = parse_module(REC_SRC).unwrap();
    ipas_ir::verify::verify_module(&module).unwrap();
    let (depth, _) = sweep("rec", &module, Vec::new(), 37);
    assert!(
        depth > 10,
        "rungs should be captured deep in the recursion, max depth {depth}"
    );
}

/// A countdown whose corrupted counter spins until the budget stops it.
const HANG_SRC: &str = r#"
fn @main() -> i64 {
bb0:
  br bb1
bb1:
  %v0 = phi i64 [bb0: 3000, bb2: %v2]
  %v1 = icmp sgt %v0, 0
  condbr %v1, bb2, bb3
bb2:
  %v2 = sub i64 %v0, 1
  br bb1
bb3:
  %v3 = call output_i64(%v0) -> void
  ret %v0
}
"#;

#[test]
fn runs_ending_on_the_hang_budget_match_reference() {
    let module = parse_module(HANG_SRC).unwrap();
    let golden = Machine::new(&module).run(&RunConfig::default()).unwrap();
    // Campaign budget: corrupted counters run into it.
    let (_, hangs) = sweep("hang", &module, Vec::new(), 500);
    assert!(hangs > 0, "no corrupted countdown hit the budget");
    // A budget below the golden run's length: rungs past it must not
    // be resumed from, and a run whose target lies past it hangs.
    let tight = golden.dynamic_insts / 2;
    let program = CompiledProgram::compile(&module);
    let (ladder, _) = Ladder::capture(&program, &RunConfig::default(), 500).unwrap();
    let mut machine = CompiledMachine::new(&program);
    let last = golden.eligible_results - 1;
    for target in [0, golden.eligible_results / 3, last] {
        for max_insts in [tight - 1, tight, tight + 1, golden.dynamic_insts - 1] {
            let config = RunConfig {
                injection: Some(Injection::at_global_index(target, 0)),
                max_insts,
                ..RunConfig::default()
            };
            if let Some(rung) = ladder.rung_for(&config) {
                assert!(rung.dynamic_insts() <= max_insts);
            }
            let reference = Machine::new(&module).run(&config).unwrap();
            let resumed = machine.run_from(&config, Some(&ladder)).unwrap();
            if target == last {
                assert_eq!(reference.status, RunStatus::Hang, "max={max_insts}");
            }
            assert_identical(
                &format!("tight t={target} max={max_insts}"),
                &reference,
                &resumed,
            );
        }
    }
    let at = |max_insts| {
        let config = RunConfig {
            injection: Some(Injection::at_global_index(last, 0)),
            max_insts,
            ..RunConfig::default()
        };
        ladder.rung_for(&config).map(|r| r.dynamic_insts())
    };
    assert!(
        at(tight) < at(golden.dynamic_insts),
        "the budget must cap the rung"
    );
}

#[test]
fn site_plans_profiles_traces_and_watchdogs_start_at_the_entry() {
    let module = parse_module(HANG_SRC).unwrap();
    let program = CompiledProgram::compile(&module);
    let (ladder, golden) = Ladder::capture(&program, &RunConfig::default(), 500).unwrap();
    let late = golden.eligible_results - 1;
    let plain = RunConfig {
        injection: Some(Injection::at_global_index(late, 1)),
        ..RunConfig::default()
    };
    assert!(ladder.rung_for(&plain).is_some());
    let (fid, func) = module.functions().next().unwrap();
    let site = func.block(func.entry()).insts()[0];
    for config in [
        RunConfig {
            injection: Some(Injection::at_site((fid, site), 0, 1)),
            ..RunConfig::default()
        },
        RunConfig {
            profile_sites: true,
            ..plain.clone()
        },
        RunConfig {
            trace_eligible: true,
            ..plain.clone()
        },
        RunConfig {
            injection: None,
            ..plain.clone()
        },
        RunConfig {
            wall_limit: Some(std::time::Duration::from_secs(3600)),
            ..plain.clone()
        },
    ] {
        assert!(ladder.rung_for(&config).is_none(), "{config:?}");
    }
}

/// A program with a 4 MiB heap region: sixteen rungs fill
/// `Ladder::MAX_BYTES`, so a fine spacing forces the ladder to thin
/// (drop every second rung, double the spacing) while capturing.
const BIG_SRC: &str = r#"
fn @main() -> i64 {
bb0:
  %v0 = call malloc(4194304) -> ptr
  br bb1
bb1:
  %v1 = phi i64 [bb0: 0, bb2: %v4]
  %v2 = icmp slt %v1, 4000
  condbr %v2, bb2, bb3
bb2:
  %v3 = gep i64 %v0, %v1
  store i64 %v1, %v3
  %v4 = add i64 %v1, 1
  br bb1
bb3:
  %v5 = gep i64 %v0, 1234
  %v6 = load i64, %v5
  %v7 = call output_i64(%v6) -> void
  ret %v6
}
"#;

#[test]
fn large_memories_thin_the_ladder_under_its_byte_cap() {
    let module = parse_module(BIG_SRC).unwrap();
    let program = CompiledProgram::compile(&module);
    let spacing = 400;
    let (ladder, golden) = Ladder::capture(&program, &RunConfig::default(), spacing).unwrap();
    let rungs = ladder.rungs();
    let bytes: usize = rungs.iter().map(|r| r.bytes()).sum();
    assert!(bytes <= Ladder::MAX_BYTES, "{bytes} bytes");
    assert!(
        rungs.len() <= 16 && rungs.len() >= 4,
        "{} rungs",
        rungs.len()
    );
    // Unthinned, there would be one rung per 400 instructions.
    assert!(golden.dynamic_insts / spacing > 2 * rungs.len() as u64);
    for pair in rungs.windows(2) {
        let gap = pair[1].dynamic_insts() - pair[0].dynamic_insts();
        assert!(
            gap >= 2 * spacing,
            "thinned rungs are at least twice the spacing apart: {gap}"
        );
    }
    // Resuming from a thinned rung is still exact.
    let mut machine = CompiledMachine::new(&program);
    for target in [0, golden.eligible_results / 2, golden.eligible_results - 1] {
        let config = RunConfig {
            injection: Some(Injection::at_global_index(target, 9)),
            max_insts: RunConfig::budget_from_nominal(golden.dynamic_insts),
            ..RunConfig::default()
        };
        let reference = Machine::new(&module).run(&config).unwrap();
        let resumed = machine.run_from(&config, Some(&ladder)).unwrap();
        assert_identical(&format!("big t={target}"), &reference, &resumed);
    }
}

#[test]
fn a_ladder_only_resumes_machines_of_its_own_program() {
    let module = parse_module(HANG_SRC).unwrap();
    let program = CompiledProgram::compile(&module);
    let (ladder, golden) = Ladder::capture(&program, &RunConfig::default(), 500).unwrap();
    let config = RunConfig {
        injection: Some(Injection::at_global_index(golden.eligible_results - 1, 3)),
        ..RunConfig::default()
    };
    assert!(ladder.rung_for(&config).is_some());
    // Same entry and arguments, different program: its machines ignore
    // the ladder (resuming would run the other program's state) and
    // run from the entry.
    let shorter = parse_module(&HANG_SRC.replace("3000", "2000")).unwrap();
    let other = CompiledProgram::compile(&shorter);
    let foreign = CompiledMachine::new(&other)
        .run_from(&config, Some(&ladder))
        .unwrap();
    assert_identical(
        "other program",
        &Machine::new(&shorter).run(&config).unwrap(),
        &foreign,
    );
    let reference = Machine::new(&module).run(&config).unwrap();
    let empty = CompiledMachine::new(&program)
        .run_from(&config, Some(&Ladder::default()))
        .unwrap();
    assert_identical("empty ladder", &reference, &empty);
}
