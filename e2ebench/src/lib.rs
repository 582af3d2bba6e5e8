//! End-to-end and per-layer benchmark of the IPAS pipeline.
//!
//! The benchmark drives the library from outside, through the public
//! functions of the workspace crates, the way the `ipas` CLI and the
//! `ipas serve` daemon do. Three workloads each run only their own
//! traffic (see `README.md` beside this crate for why each exists and
//! which layer it stresses):
//!
//! - `protect`: `ipas protect` requests into fresh stores;
//! - `train_paper`: paper-grid (25×20, 5-fold) top-5 C-SVM training;
//! - `daemon_mixed`: a seeded job mix against `ipas serve` from
//!   closed-loop clients.
//!
//! Untraced runs give the end-to-end metrics as raw wall-clock medians.
//! `setup_s` is the median of set-ups repeated across the run (between
//! `protect` requests; before and after the timed loop of the other
//! workloads), so that it samples the host at more than one moment.
//! Traced runs repeat a fixed amount of the same traffic three times
//! (untraced, traced, traced) and derive per-layer self times and counts
//! from the benchmark's own spans.

pub mod daemon;
pub mod protect;
pub mod trace;
pub mod train;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ipas_svm::GridOptions;
use ipas_workloads::Kind;

pub use trace::{LayerFigures, Span, Tracer};

/// The paper programs a protect or training request may target: every
/// program whose training labels are not degenerate. AMG is left out:
/// its SOC rate is about 0.3%, so a 400-run training set often has no
/// SOC sample at all and `ipas protect` refuses it.
pub const PROGRAMS: [Kind; 4] = [Kind::Comd, Kind::Hpccg, Kind::Fft, Kind::Is];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ipas protect` of the paper programs into fresh stores.
    Protect,
    /// Paper-grid top-5 training on stored training sets.
    TrainPaper,
    /// A seeded job mix against the daemon from closed-loop clients.
    DaemonMixed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::Protect,
        Workload::TrainPaper,
        Workload::DaemonMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Protect => "protect",
            Workload::TrainPaper => "train_paper",
            Workload::DaemonMixed => "daemon_mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics: every workload reports each of them, measured on
/// its own traffic with tracing off.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("request_s", "s"),
    ("requests_per_s", "1/s"),
];

/// Per-layer metrics of a traced run: `(name, unit)`. A layer a
/// workload does not enter reports 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("faultsim.campaign_s", "s"),
    ("faultsim.runs", "count"),
    ("faultsim.insts", "count"),
    ("faultsim.insts_per_s", "1/s"),
    ("faultsim.prefix_insts_frac", "frac"),
    ("faultsim.hang_insts_frac", "frac"),
    ("faultsim.harness_failures", "count"),
    ("faultsim.golden_s", "s"),
    ("svm.grid_s", "s"),
    ("svm.configs", "count"),
    ("svm.configs_per_s", "1/s"),
    ("svm.train_samples", "count"),
    ("svm.support_vectors", "count"),
    ("svm.cv_f_score", "score"),
    ("store.memoize_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.hit_ratio", "frac"),
    ("store.bytes", "bytes"),
    ("lang.compile_s", "s"),
    ("core.keys_s", "s"),
    ("analysis.features_s", "s"),
    ("core.duplicate_s", "s"),
    ("core.duplicated_insts", "count"),
    ("core.checks", "count"),
    ("core.soc_reduction_pct", "%"),
    ("core.slowdown_x", "x"),
    ("request.warm_ms", "ms"),
    ("serve.submit_s", "s"),
    ("serve.accept_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.coalesced", "count"),
    ("serve.executed_runs", "count"),
    ("serve.jobs_failed", "count"),
    ("serve.job_p90_s", "s"),
    ("host.spin_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "frac"),
    ("trace.spans", "count"),
];

/// Counts that must repeat exactly between two traced passes of one
/// seed; a perf change may cite them as counts.
pub const EXACT_COUNTS: [&str; 12] = [
    "faultsim.runs",
    "faultsim.insts",
    "faultsim.prefix_insts",
    "faultsim.hang_insts",
    "svm.configs",
    "svm.support_vectors",
    "store.hits",
    "store.misses",
    "core.duplicated_insts",
    "serve.coalesced",
    "serve.executed_runs",
    "serve.jobs_failed",
];

/// Configurations kept by a protect request (CLI `--top`).
pub const PROTECT_TOP: usize = 3;

/// Configurations kept by a `train_paper` request.
pub const PAPER_TOP: usize = 5;

/// `train_paper` and `daemon_mixed` set up this many times before the
/// timed loop and again after it; `setup_s` is the median of all of
/// them.
pub const SETUP_REPEATS: usize = 2;

/// `protect` sets up this many times in a row before every request,
/// and a suite keeps the last set-up before its first request. One
/// set-up is about 20 ms; a suite's set-up time is the mean of its 24,
/// and `setup_s` is the median over the run's suites.
pub const PROTECT_SETUPS: usize = 6;

/// Closed-loop daemon clients, and daemon workers.
pub const CLIENTS: usize = 2;

/// Sizes of the traffic; [`Scale::full`] is the benchmark, and
/// [`Scale::smoke`] the seconds-long version its tests run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Training-campaign runs of a protect request (CLI `--runs`).
    pub protect_runs: usize,
    /// Evaluation-campaign runs per variant (CLI `--eval`).
    pub protect_eval_runs: usize,
    /// Runs of the campaigns that build `train_paper`'s training sets.
    pub paper_set_runs: usize,
    /// Training sets per program, each from its own campaign seed.
    pub paper_sets_per_program: usize,
    /// Grid of a `train_paper` request.
    pub paper_grid: GridOptions,
    /// Warm request cycles (over all programs) after the cold suite of a
    /// traced `protect` pass.
    pub warm_trace_cycles: usize,
    /// Injection runs of a daemon campaign or eval job.
    pub job_runs: usize,
    /// Budget of a daemon adaptive campaign job.
    pub adaptive_job_runs: usize,
    /// Training runs of a daemon protect job.
    pub protect_job_runs: usize,
    /// Jobs each client submits per traced pass.
    pub trace_jobs_per_client: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            protect_runs: 400,
            protect_eval_runs: 192,
            paper_set_runs: 120,
            paper_sets_per_program: 2,
            paper_grid: GridOptions::default(),
            warm_trace_cycles: 10,
            job_runs: 48,
            adaptive_job_runs: 64,
            protect_job_runs: 80,
            trace_jobs_per_client: 30,
        }
    }

    /// A version of every workload that finishes in seconds.
    pub fn smoke() -> Scale {
        Scale {
            protect_runs: 64,
            protect_eval_runs: 24,
            paper_set_runs: 64,
            paper_sets_per_program: 1,
            paper_grid: GridOptions::quick(),
            warm_trace_cycles: 2,
            job_runs: 12,
            adaptive_job_runs: 32,
            protect_job_runs: 64,
            trace_jobs_per_client: 6,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which traffic to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the untraced closed loop measures.
    pub seconds: f64,
    /// Run the traced passes (per-layer metrics) instead of the timed
    /// loop (end-to-end metrics).
    pub trace: bool,
    /// Traffic sizes.
    pub scale: Scale,
    /// Scratch directory for stores and daemon state (removed after).
    pub work_dir: PathBuf,
}

/// Seeds derived from `--seed`; every campaign seed, the job mix and
/// the request order come from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Training-campaign seed of protect requests and training sets.
    pub train: u64,
    /// Evaluation-campaign seed of protect requests.
    pub eval: u64,
    /// Program order of request cycles.
    pub order: u64,
    /// Daemon job mix.
    pub mix: u64,
}

impl Seeds {
    /// Derives the seeds from the run's `--seed`.
    pub fn derive(seed: u64) -> Seeds {
        Seeds {
            train: splitmix(seed ^ 0x7261_696e),
            eval: splitmix(seed ^ 0x6576_616c),
            order: splitmix(seed ^ 0x6f72_6465),
            mix: splitmix(seed ^ 0x6d69_7865),
        }
    }
}

/// One step of SplitMix64: a well-mixed 64-bit function of `x`.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for orders and job mixes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.0)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `(name, value, unit)` triples in reporting order.
pub type Metrics = Vec<(String, f64, String)>;

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Requests (or jobs) attempted.
    pub attempted: u64,
    /// Requests that failed or returned a wrong answer.
    pub failed: u64,
    /// `(name, value, unit)` in reporting order.
    pub metrics: Metrics,
    /// Derived inputs worth recording (seeds, sample counts).
    pub info: Vec<(String, String)>,
    /// The traced passes' spans.
    pub spans: Vec<Span>,
}

impl Report {
    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The final stdout line: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Pass/fail bookkeeping of one run: each request counts as attempted,
/// and as failed when it errors or returns a wrong answer. Checks that
/// span several requests (determinism, traced vs untraced) clear
/// `correct` on failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Records one request; `Err` carries why it failed.
    pub fn request(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.note(why);
        }
    }

    /// Records a cross-request check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.note(what());
        }
    }

    fn note(&mut self, why: String) {
        eprintln!("e2ebench: check failed: {why}");
        self.problems.push(why);
    }

    /// Whether every request and check passed.
    pub fn all_correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Median of `values` (mean of the middle two for even counts); 0 for
/// none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `p`-th percentile (`p` in 0..=100); 0 for none.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Mean over programs of each program's median: a request time that
/// does not depend on how many requests of each program the run
/// happened to finish.
pub fn balanced_median<K: Ord>(samples: &BTreeMap<K, Vec<f64>>) -> f64 {
    let medians: Vec<f64> = samples.values().map(|v| median(v)).collect();
    medians.iter().sum::<f64>() / medians.len().max(1) as f64
}

/// Mean over programs (or sets) of each one's mean request time.
pub fn balanced_mean<K: Ord>(samples: &BTreeMap<K, Vec<f64>>) -> f64 {
    let means: Vec<f64> = samples
        .values()
        .map(|v| v.iter().sum::<f64>() / v.len().max(1) as f64)
        .collect();
    means.iter().sum::<f64>() / means.len().max(1) as f64
}

/// A fixed pure-Rust loop that calls no repository code, timed as a
/// host-speed drift indicator: dependent loads around a random cycle
/// through a 16 MiB table, so it slows down with the memory latency
/// that the interpreter and the store parsers are sensitive to. Never
/// used to scale another metric.
pub fn spin_per_s() -> f64 {
    const LEN: usize = 1 << 22;
    const STEPS: usize = 1 << 22;
    // Sattolo's shuffle: one cycle through every slot.
    let mut next: Vec<u32> = (0..LEN as u32).collect();
    let mut rng = Rng::new(0x5EED);
    for i in (1..LEN).rev() {
        next.swap(i, rng.below(i));
    }
    let start = Instant::now();
    let mut at = 0usize;
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        at = next[at] as usize;
    }
    std::hint::black_box((x, at));
    STEPS as f64 / start.elapsed().as_secs_f64()
}

/// A scratch directory removed when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `path` afresh.
    pub fn create(path: PathBuf) -> Result<ScratchDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The end-to-end metric values of an untraced run, in [`END_TO_END`]
/// order.
pub fn end_to_end(setup_s: f64, request_s: f64, requests_per_s: f64) -> Metrics {
    [setup_s, request_s, requests_per_s]
        .iter()
        .zip(END_TO_END)
        .map(|(v, (n, u))| (n.to_string(), *v, u.to_string()))
        .collect()
}

/// Per-layer metrics from the spans of one traced pass, plus the
/// workload-computed `extra` values (quality, tails, overhead), in
/// [`PER_LAYER`] order.
pub fn per_layer(fig: &LayerFigures, extra: &BTreeMap<&str, f64>) -> Metrics {
    let t = |span: &str| fig.self_s.get(span).copied().unwrap_or(0.0);
    let c = |name: &str| fig.counts.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "faultsim.insts_per_s" => ratio(c("faultsim.insts"), t("faultsim.campaign")),
                "faultsim.prefix_insts_frac" => {
                    ratio(c("faultsim.prefix_insts"), c("faultsim.insts"))
                }
                "faultsim.hang_insts_frac" => ratio(c("faultsim.hang_insts"), c("faultsim.insts")),
                "svm.configs_per_s" => ratio(c("svm.configs"), t("svm.grid")),
                "store.hit_ratio" => ratio(c("store.hits"), c("store.hits") + c("store.misses")),
                "trace.coverage" => fig.coverage,
                _ if extra.contains_key(name) => extra[name],
                _ => match name.strip_suffix("_s") {
                    Some(span) if unit == "s" => t(span),
                    _ => c(name),
                },
            };
            (name.to_string(), value, unit.to_string())
        })
        .collect()
}

/// The counts of [`EXACT_COUNTS`] in `fig`.
pub fn exact_counts(fig: &LayerFigures) -> Vec<(&'static str, f64)> {
    EXACT_COUNTS
        .iter()
        .map(|&k| (k, fig.counts.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// A set-up failure (the run cannot measure anything). Request
/// failures and wrong answers are counted in the report instead.
pub fn run(opts: &Options) -> Result<Report, String> {
    let spin_start = spin_per_s();
    let seeds = Seeds::derive(opts.seed);
    let mut report = match opts.workload {
        Workload::Protect => protect::run(opts, &seeds)?,
        Workload::TrainPaper => train::run(opts, &seeds)?,
        Workload::DaemonMixed => daemon::run(opts, &seeds)?,
    };
    let spin_end = spin_per_s();
    if let Some(m) = report.metrics.iter_mut().find(|m| m.0 == "host.spin_per_s") {
        m.1 = (spin_start + spin_end) / 2.0;
    }
    report.info.push((
        "host_spin_per_s".into(),
        format!("start {spin_start:.0} end {spin_end:.0}"),
    ));
    report
        .info
        .insert(0, ("seed".into(), opts.seed.to_string()));
    report.info.insert(
        1,
        (
            "derived_seeds".into(),
            format!(
                "train={} eval={} order={} mix={}",
                seeds.train, seeds.eval, seeds.order, seeds.mix
            ),
        ),
    );
    Ok(report)
}

/// Runs three passes of fixed traffic — untraced, traced, traced — and
/// turns them into per-layer metrics. `pass(tracer)` returns a digest
/// of everything the pass computed (campaign records, module IR,
/// payloads) and the workload's quality figures; the digests must agree
/// across passes, and the exact counts across the two traced passes.
pub fn traced_passes(
    tally: &mut Tally,
    mut pass: impl FnMut(&mut Tracer) -> Result<(u64, BTreeMap<&'static str, f64>), String>,
) -> Result<(Metrics, Vec<Span>), String> {
    let epoch = Instant::now();
    let mut walls = Vec::new();
    let mut digests = Vec::new();
    let mut traced = Vec::new();
    let mut extra = BTreeMap::new();
    for on in [false, true, true] {
        let mut tracer = Tracer::new(on, epoch);
        let start = Instant::now();
        let (digest, quality) = pass(&mut tracer)?;
        walls.push(start.elapsed().as_secs_f64());
        digests.push(digest);
        if on {
            traced.push(tracer.into_spans());
        } else {
            extra = quality;
        }
    }
    tally.check(digests.iter().all(|d| *d == digests[0]), || {
        format!("traced and untraced passes computed different results: {digests:x?}")
    });
    let second = traced.pop().expect("two traced passes");
    let first = traced.pop().expect("two traced passes");
    let fig = trace::derive(&first);
    let (a, b) = (exact_counts(&fig), exact_counts(&trace::derive(&second)));
    tally.check(a == b, || {
        format!("per-layer counts differ between two traced passes: {a:?} vs {b:?}")
    });
    extra.insert(
        "trace.overhead_pct",
        ((walls[1] + walls[2]) / 2.0 / walls[0] - 1.0) * 100.0,
    );
    extra.insert("trace.spans", first.len() as f64);
    extra.insert("host.spin_per_s", 0.0);
    let metrics = per_layer(&fig, &extra);
    Ok((metrics, trace::merge(vec![first, second])))
}

/// A digest of anything `Debug`, for comparing results across passes.
pub fn digest(value: &impl std::fmt::Debug) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{value:?}").hash(&mut h);
    h.finish()
}
