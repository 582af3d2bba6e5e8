//! `protect`: `ipas protect` requests on the four
//! paper programs at their base inputs, with the CLI's defaults (400
//! training runs, quick grid, top 3, 192 evaluation runs per variant)
//! except for one campaign thread, and its artifact store.
//!
//! A request repeats the CLI's stage sequence through the library's
//! public functions: compile, golden run, memoized training campaign
//! and feature extraction, memoized grid search, memoized duplication,
//! and two memoized evaluation campaigns. Cold requests go to a fresh
//! store, so every stage computes; warm requests hit a filled store, so
//! only compile, golden run, key hashing and store reads remain.

use std::collections::BTreeMap;
use std::time::Instant;

use ipas_core::{
    campaign_fingerprint, dataset_from_artifact, eval_fingerprint, memoized_models,
    memoized_protect, train_top_configs, training_fingerprint, training_set_artifact, LabelKind,
    ProtectionPolicy,
};
use ipas_faultsim::{classify, run_campaign, CampaignConfig, CampaignResult, Outcome, Workload};
use ipas_interp::{Machine, RunConfig};
use ipas_ir::Module;
use ipas_store::{CacheOutcome, CampaignSummary, Key, Store};
use ipas_svm::GridOptions;
use ipas_workloads::Kind;

use crate::trace::{SpanId, Tracer};
use crate::{
    balanced_median, digest, median, traced_passes, Metrics, Options, Report, Rng, ScratchDir,
    Seeds, Tally,
};

/// What one protect request returned.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The protected module.
    pub module: Module,
    /// Its IR text, as `ipas protect` writes it.
    pub ir: String,
    /// Digests of the campaign records computed by this request (none
    /// when every campaign stage hit the store).
    pub records: Vec<u64>,
    /// Evaluation summary of the unprotected program.
    pub unprotected: CampaignSummary,
    /// Evaluation summary of the protected program.
    pub protected: CampaignSummary,
    /// Whether every memoized stage hit the store.
    pub all_hits: bool,
}

/// Builds a paper program's reference workload (compile + golden run).
fn build(tr: &mut Tracer, kind: Kind) -> Result<Workload, String> {
    let module = tr
        .leaf("lang.compile", || {
            ipas_lang::compile_named(ipas_workloads::sources::source(kind), kind.name())
        })
        .map_err(|e| format!("{}: compile failed: {e}", kind.name()))?;
    tr.leaf("faultsim.golden", || {
        ipas_workloads::rebuild_with_module(kind, module, kind.base_input())
    })
    .map_err(|e| format!("{}: golden run failed: {e}", kind.name()))
}

/// Runs a campaign inside a `faultsim.campaign` span and counts its
/// work on the span.
pub fn campaign(
    tr: &mut Tracer,
    wl: &Workload,
    config: &CampaignConfig,
) -> Result<CampaignResult, String> {
    let id = tr.enter("faultsim.campaign");
    let result = run_campaign(wl, config);
    tr.exit(id);
    let r = result.map_err(|e| format!("{}: campaign failed: {e}", wl.name))?;
    count_records(tr, id, wl, &r);
    Ok(r)
}

/// Counts a finished campaign's runs and instructions on span `id`.
pub fn count_records(tr: &mut Tracer, id: SpanId, wl: &Workload, r: &CampaignResult) {
    let budget = RunConfig::budget_from_nominal(wl.nominal_insts);
    let insts: u64 = r.records.iter().map(|x| x.dynamic_insts).sum();
    let prefix: u64 = r.records.iter().map(|x| x.dynamic_insts - x.latency).sum();
    let hang: u64 = r
        .records
        .iter()
        .filter(|x| x.dynamic_insts >= budget)
        .map(|x| x.dynamic_insts)
        .sum();
    let runs = r.records.len() + r.harness_failures.len();
    tr.count(id, "faultsim.runs", runs as f64);
    tr.count(id, "faultsim.insts", insts as f64);
    tr.count(id, "faultsim.prefix_insts", prefix as f64);
    tr.count(id, "faultsim.hang_insts", hang as f64);
    tr.count(
        id,
        "faultsim.harness_failures",
        r.harness_failures.len() as f64,
    );
}

fn count_cache(tr: &mut Tracer, id: SpanId, outcome: CacheOutcome) -> bool {
    let hit = outcome.is_hit();
    tr.count(id, if hit { "store.hits" } else { "store.misses" }, 1.0);
    hit
}

/// The CLI's campaign summary of a finished campaign.
fn summarize(name: &str, config: &CampaignConfig, r: &CampaignResult) -> CampaignSummary {
    CampaignSummary {
        workload: name.to_string(),
        runs: config.runs as u64,
        seed: config.seed,
        nominal_insts: r.nominal_insts,
        counts: Outcome::ALL.map(|o| r.count(o) as u64),
        harness_failures: r.harness_failures.len() as u64,
    }
}

/// One `ipas protect` request for `kind` against `store`.
pub fn request(
    tr: &mut Tracer,
    store: &Store,
    kind: Kind,
    seeds: &Seeds,
    opts: &Options,
) -> Result<Answer, String> {
    let scale = &opts.scale;
    let wl = build(tr, kind)?;
    let mut records = Vec::new();
    let mut all_hits = true;
    let store_err = |e: ipas_store::MemoError<String>| match e {
        ipas_store::MemoError::Store(e) => format!("artifact store failed: {e}"),
        ipas_store::MemoError::Compute(e) => e,
    };

    // Training campaign and features (memoized training set). One
    // campaign thread: two-thread campaigns speed up by a third or more
    // whenever the host's other tenants leave the second vCPU alone,
    // which made request times jump between runs of the same code.
    let config = CampaignConfig {
        runs: scale.protect_runs,
        seed: seeds.train,
        threads: 1,
        ..CampaignConfig::default()
    };
    let campaign_fp = tr.leaf("core.keys", || campaign_fingerprint(&wl.module, &config));
    let id = tr.enter("store.memoize");
    let memo = store.memoize(&Key::of(&campaign_fp), || {
        let r = campaign(tr, &wl, &config)?;
        records.push(digest(&r.records));
        Ok(tr.leaf("analysis.features", || training_set_artifact(&wl, &r)))
    });
    tr.exit(id);
    let (set, outcome) = memo.map_err(store_err)?;
    all_hits &= count_cache(tr, id, outcome);

    // Grid search (memoized top-N models).
    let data = dataset_from_artifact(&set, LabelKind::SocGenerating);
    if data.num_positive() == 0 || data.num_positive() == data.len() {
        return Err(format!("{}: degenerate training labels", kind.name()));
    }
    let grid = GridOptions::quick();
    let top = crate::PROTECT_TOP;
    let training_fp = tr.leaf("core.keys", || {
        training_fingerprint(&campaign_fp, LabelKind::SocGenerating, &grid, top)
    });
    let id = tr.enter("store.memoize");
    let memo = memoized_models(Some(store), &training_fp, top, || {
        let g = tr.enter("svm.grid");
        let models = train_top_configs(&data, &grid, top);
        tr.exit(g);
        tr.count(g, "svm.configs", (grid.num_c * grid.num_gamma) as f64);
        tr.count(g, "svm.train_samples", data.len() as f64);
        let svs: usize = models.iter().map(|m| m.svm().num_support_vectors()).sum();
        tr.count(g, "svm.support_vectors", svs as f64);
        models
    });
    tr.exit(id);
    let (models, outcome) = memo.map_err(|e| format!("artifact store failed: {e}"))?;
    all_hits &= count_cache(tr, id, outcome);
    let best = models
        .into_iter()
        .next()
        .ok_or_else(|| format!("{}: training produced no model", kind.name()))?;
    let policy = ProtectionPolicy::Ipas(best);

    // Duplication (memoized protected module).
    let model_key = Key::ranked(&training_fp, 0);
    let id = tr.enter("core.duplicate");
    let dup = memoized_protect(Some(store), &wl.module, &policy, Some(&model_key));
    tr.exit(id);
    let (protected, stats, outcome) = dup.map_err(|e| format!("duplication failed: {e}"))?;
    all_hits &= count_cache(tr, id, outcome);
    tr.count(id, "core.duplicated_insts", stats.duplicated as f64);
    tr.count(id, "core.checks", stats.checks as f64);

    // Evaluation campaigns (memoized summaries).
    let eval = CampaignConfig {
        runs: scale.protect_eval_runs,
        seed: seeds.eval,
        threads: 1,
        ..CampaignConfig::default()
    };
    let mut summaries = Vec::new();
    for (variant, label) in [(&wl.module, "unprotected"), (&protected, policy.label())] {
        let fp = tr.leaf("core.keys", || {
            eval_fingerprint(&wl.module, variant, label, &eval)
        });
        let id = tr.enter("store.memoize");
        let memo = store.memoize(&Key::of(&fp), || {
            let owned;
            let target = if std::ptr::eq(variant, &wl.module) {
                &wl
            } else {
                owned = tr
                    .leaf("faultsim.golden", || wl.with_module(label, variant.clone()))
                    .map_err(|e| format!("{label}: clean run failed: {e}"))?;
                &owned
            };
            let r = campaign(tr, target, &eval)?;
            records.push(digest(&r.records));
            Ok(summarize(label, &eval, &r))
        });
        tr.exit(id);
        let (summary, outcome) = memo.map_err(store_err)?;
        all_hits &= count_cache(tr, id, outcome);
        summaries.push(summary);
    }
    let protected_summary = summaries.pop().expect("two evaluations");
    let unprotected_summary = summaries.pop().expect("two evaluations");
    Ok(Answer {
        ir: protected.to_text(),
        module: protected,
        records,
        unprotected: unprotected_summary,
        protected: protected_summary,
        all_hits,
    })
}

/// Checks that `module`'s clean run passes the program's own verifier.
pub fn verify_clean(reference: &Workload, module: &Module) -> Result<(), String> {
    let out = Machine::new(module)
        .run(&RunConfig {
            entry: reference.entry.clone(),
            args: reference.args.clone(),
            ..RunConfig::default()
        })
        .map_err(|e| format!("{}: protected clean run failed: {e}", reference.name))?;
    match classify(&out, reference.verifier.as_ref()) {
        Outcome::Masked => Ok(()),
        other => Err(format!(
            "{}: protected clean run classified {other:?}",
            reference.name
        )),
    }
}

/// Pooled SOC reduction (Σ unprotected SOC vs Σ protected SOC) and
/// pooled slowdown (Σ protected vs Σ unprotected nominal instructions).
fn quality(answers: &BTreeMap<&'static str, Answer>) -> BTreeMap<&'static str, f64> {
    let sum = |f: &dyn Fn(&Answer) -> u64| answers.values().map(f).sum::<u64>() as f64;
    let u_soc = sum(&|a| a.unprotected.counts[3]);
    let p_soc = sum(&|a| a.protected.counts[3]);
    let u_nom = sum(&|a| a.unprotected.nominal_insts);
    let p_nom = sum(&|a| a.protected.nominal_insts);
    let mut q = BTreeMap::new();
    q.insert(
        "core.soc_reduction_pct",
        if u_soc > 0.0 {
            (u_soc - p_soc) / u_soc * 100.0
        } else {
            0.0
        },
    );
    q.insert(
        "core.slowdown_x",
        if u_nom > 0.0 { p_nom / u_nom } else { 0.0 },
    );
    q
}

/// Reference workloads of the protected programs, keyed by name.
struct Programs(BTreeMap<&'static str, (Kind, Workload)>);

impl Programs {
    fn build() -> Result<Programs, String> {
        let mut tr = Tracer::new(false, Instant::now());
        let mut map = BTreeMap::new();
        for kind in crate::PROGRAMS {
            map.insert(kind.name(), (kind, build(&mut tr, kind)?));
        }
        Ok(Programs(map))
    }

    fn kinds(&self) -> Vec<Kind> {
        self.0.values().map(|(k, _)| *k).collect()
    }

    fn reference(&self, kind: Kind) -> &Workload {
        &self.0[kind.name()].1
    }
}

/// One request per program, in `order`, against `store`: each
/// request's program, wall time and answer.
fn suite(
    tr: &mut Tracer,
    store: &Store,
    order: &[Kind],
    seeds: &Seeds,
    opts: &Options,
    next_request: &mut u64,
) -> Vec<(Kind, f64, Result<Answer, String>)> {
    let mut out = Vec::new();
    for &kind in order {
        *next_request += 1;
        let root = tr.request("request.protect", *next_request);
        let start = Instant::now();
        let answer = request(tr, store, kind, seeds, opts);
        let wall = start.elapsed().as_secs_f64();
        tr.exit(root);
        out.push((kind, wall, answer));
    }
    out
}

/// Closes `store` and deletes its directory.
fn remove_store(store: Store) {
    let root = store.root().to_path_buf();
    drop(store);
    let _ = std::fs::remove_dir_all(root);
}

fn open_store(dir: &ScratchDir, name: &str) -> Result<Store, String> {
    let path = dir.path().join(name);
    Store::open(&path).map_err(|e| format!("{}: cannot open store: {e}", path.display()))
}

/// Checks a cold answer: the protected module passes its verifier, and
/// the answer matches the first answer for the program (same seed, same
/// result).
fn check_cold(
    programs: &Programs,
    first: &mut BTreeMap<&'static str, Answer>,
    kind: Kind,
    answer: &Answer,
) -> Result<(), String> {
    verify_clean(programs.reference(kind), &answer.module)?;
    if answer.all_hits {
        return Err(format!("{}: a cold request hit the store", kind.name()));
    }
    match first.get(kind.name()) {
        None => {
            first.insert(kind.name(), answer.clone());
            Ok(())
        }
        Some(f) if f.ir == answer.ir && f.records == answer.records => Ok(()),
        Some(_) => Err(format!(
            "{}: two cold requests of one seed disagree",
            kind.name()
        )),
    }
}

/// Checks a warm answer against the cold answer for the program.
fn check_warm(
    cold: &BTreeMap<&'static str, Answer>,
    kind: Kind,
    answer: &Answer,
) -> Result<(), String> {
    let Some(c) = cold.get(kind.name()) else {
        return Err(format!("{}: no cold answer to compare with", kind.name()));
    };
    if !answer.all_hits {
        Err(format!("{}: a warm request missed the store", kind.name()))
    } else if answer.ir != c.ir {
        Err(format!("{}: warm IR differs from cold IR", kind.name()))
    } else if answer.protected != c.protected || answer.unprotected != c.unprotected {
        Err(format!("{}: warm summaries differ from cold", kind.name()))
    } else {
        Ok(())
    }
}

fn finish(
    tally: Tally,
    metrics: Metrics,
    info: Vec<(String, String)>,
    spans: Vec<crate::Span>,
) -> Report {
    Report {
        correct: tally.all_correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        info,
        spans,
    }
}

/// Runs `protect`: suites of cold requests, each suite into a fresh
/// store, in a seeded program order. The traced run's passes add warm
/// request cycles against the filled store, so the layers a warm request
/// enters (compile, golden run, key hashing, store reads) are traced.
///
/// # Errors
///
/// Set-up failures.
pub fn run(opts: &Options, seeds: &Seeds) -> Result<Report, String> {
    let dir = ScratchDir::create(opts.work_dir.clone())?;
    // A suite's set-up: the programs' reference workloads (compile and
    // golden run, for the verifiers) and a fresh store. One set-up is
    // short, so `set_up` sets up `PROTECT_SETUPS` times, timing each into
    // `setup_s`, and keeps the last.
    let mut stores = 0;
    let mut set_up = |setup_s: &mut Vec<f64>| -> Result<(Programs, Store), String> {
        let mut kept = None;
        for _ in 0..crate::PROTECT_SETUPS {
            if let Some((_, old)) = kept.take() {
                remove_store(old);
            }
            stores += 1;
            let start = Instant::now();
            let programs = Programs::build()?;
            let store = open_store(&dir, &format!("suite-{stores}"))?;
            setup_s.push(start.elapsed().as_secs_f64());
            kept = Some((programs, store));
        }
        Ok(kept.expect("at least one set-up"))
    };
    let mut tally = Tally::default();
    let mut first = BTreeMap::new();
    let mut next_request = 0;

    if opts.trace {
        let mut outcomes = Vec::new();
        let (metrics, spans) = traced_passes(&mut tally, |tr| {
            let (programs, store) = set_up(&mut Vec::new())?;
            let mut rng = Rng::new(seeds.order);
            let mut order = programs.kinds();
            rng.shuffle(&mut order);
            let mut cold = BTreeMap::new();
            for (kind, _, answer) in suite(tr, &store, &order, seeds, opts, &mut next_request) {
                outcomes.push(answer.and_then(|a| {
                    check_cold(&programs, &mut first, kind, &a)?;
                    cold.insert(kind.name(), a);
                    Ok(())
                }));
            }
            let bytes: u64 = store
                .list()
                .map_err(|e| e.to_string())?
                .iter()
                .map(|e| e.bytes)
                .sum();
            let mut warm_ms = Vec::new();
            for _ in 0..opts.scale.warm_trace_cycles {
                rng.shuffle(&mut order);
                for (kind, wall, answer) in
                    suite(tr, &store, &order, seeds, opts, &mut next_request)
                {
                    outcomes.push(answer.and_then(|a| check_warm(&cold, kind, &a)));
                    warm_ms.push(wall * 1e3);
                }
            }
            let mut q = quality(&cold);
            q.insert("store.bytes", bytes as f64);
            q.insert("request.warm_ms", median(&warm_ms));
            let d: Vec<(&String, &Vec<u64>)> = cold.values().map(|a| (&a.ir, &a.records)).collect();
            Ok((digest(&d), q))
        })?;
        for o in outcomes {
            tally.request(o);
        }
        return Ok(finish(tally, metrics, vec![], spans));
    }

    // Every suite sets up afresh; the set-ups stay outside the timed
    // window and sample the host across the whole run.
    let mut tr = Tracer::new(false, Instant::now());
    let mut rng = Rng::new(seeds.order);
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut setup_s = Vec::new();
    let mut setups = 0;
    let mut measured = 0.0;
    let mut suites = 0;
    while measured < opts.seconds {
        let mut suite_setups = Vec::new();
        let (programs, store) = set_up(&mut suite_setups)?;
        suites += 1;
        let mut order = programs.kinds();
        rng.shuffle(&mut order);
        for (i, &kind) in order.iter().enumerate() {
            if i > 0 {
                // More set-ups between the suite's requests, so that
                // the suite's set-up time spans the same stretch of host
                // time as its requests do; their stores are not used.
                remove_store(set_up(&mut suite_setups)?.1);
            }
            let start = Instant::now();
            let answers = suite(&mut tr, &store, &[kind], seeds, opts, &mut next_request);
            measured += start.elapsed().as_secs_f64();
            for (kind, wall, answer) in answers {
                let checked = answer.and_then(|a| check_cold(&programs, &mut first, kind, &a));
                if checked.is_ok() {
                    samples.entry(kind.name()).or_default().push(wall);
                }
                tally.request(checked);
            }
        }
        remove_store(store);
        // A 20 ms set-up runs wholly inside one of the host's fast or
        // slow phases, so single set-ups fall into two clusters and
        // their median jumps between them. The mean over a suite
        // averages the phases the way a 2 s request does.
        setups += suite_setups.len();
        setup_s.push(suite_setups.iter().sum::<f64>() / suite_setups.len() as f64);
    }
    let requests: usize = samples.values().map(Vec::len).sum();
    let metrics = crate::end_to_end(
        median(&setup_s),
        balanced_median(&samples),
        1.0 / crate::balanced_mean(&samples),
    );
    let info = vec![
        ("requests".into(), requests.to_string()),
        ("suites".into(), suites.to_string()),
        ("setups".into(), setups.to_string()),
    ];
    Ok(finish(tally, metrics, info, vec![]))
}
