//! `daemon_mixed`: `ipas serve` in-process, driven through
//! `ipas_serve::Client` by closed-loop client threads that each wait
//! for their job's result before submitting the next (as CI callers
//! do).
//!
//! Each client draws its jobs from a seeded, block-randomized mix: in
//! every block of 39 jobs, each program gets 2 plain campaigns, 1
//! sectional, 1 adaptive and 1 multi-bit-burst campaign, each program
//! with SOC samples gets 1 protect job and 1 eval job on the protected
//! module stored during set-up, and 6 jobs (15%) are exact
//! resubmissions of an earlier job. Fixed proportions keep the latency
//! distribution from drifting with the seed. Programs are the
//! five paper programs at their base inputs, wrapped in an argument-free
//! `main` because the daemon runs `main()`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use ipas_core::jobspec::{JobKind, JobSpec};
use ipas_faultsim::{FaultModel, Workload};
use ipas_serve::{run_daemon, Client, DaemonConfig, DaemonReport, ServeError};
use ipas_store::{ArtifactKind, Fields, Store};
use ipas_workloads::Kind;

use crate::protect::verify_clean;
use crate::{
    digest, median, percentile, traced_passes, Options, Report, Rng, ScratchDir, Seeds, Tally,
    Tracer, PROGRAMS,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Campaign,
    Sections,
    Adaptive,
    Burst,
    Protect,
    Eval,
    Resubmit,
}

/// One block of the mix: 39 jobs, with every program equally often in
/// each kind of job it can run.
fn block() -> Vec<(Slot, Kind)> {
    let mut jobs = Vec::new();
    for kind in Kind::ALL {
        jobs.extend(
            [
                Slot::Campaign,
                Slot::Campaign,
                Slot::Sections,
                Slot::Adaptive,
                Slot::Burst,
            ]
            .map(|s| (s, kind)),
        );
    }
    for kind in PROGRAMS {
        jobs.extend([Slot::Protect, Slot::Eval].map(|s| (s, kind)));
    }
    // Exact resubmissions: 6 of 39 jobs, about 15%.
    jobs.extend(std::iter::repeat_n((Slot::Resubmit, Kind::Comd), 6));
    jobs
}

/// A paper program as the daemon sees it.
fn wrapped_source(kind: Kind) -> String {
    format!(
        "{}\nfn main() -> int {{ return bench_main({}); }}\n",
        ipas_workloads::sources::source(kind).replacen("fn main(", "fn bench_main(", 1),
        kind.base_input()
    )
}

/// Everything the clients share: wrapped sources and the store keys of
/// the protected modules eval jobs evaluate.
struct Mix {
    sources: BTreeMap<&'static str, String>,
    modules: BTreeMap<&'static str, String>,
    prefill: Vec<JobSpec>,
}

impl Mix {
    fn spec(&self, job: JobKind, kind: Kind, tenant: &str, seed: u64) -> JobSpec {
        let mut spec = JobSpec::new(job, tenant, kind.name(), &self.sources[kind.name()]);
        spec.seed = seed;
        spec
    }

    /// The next job of a client's sequence.
    fn next(
        &self,
        rng: &mut Rng,
        (slot, kind): (Slot, Kind),
        tenant: &str,
        history: &[JobSpec],
        opts: &Options,
    ) -> JobSpec {
        let scale = &opts.scale;
        let seed = rng.next_u64() % 1_000_000_007;
        let mut spec = match slot {
            Slot::Campaign | Slot::Sections | Slot::Burst | Slot::Adaptive => {
                self.spec(JobKind::Campaign, kind, tenant, seed)
            }
            Slot::Protect => self.spec(JobKind::Protect, kind, tenant, seed),
            Slot::Eval => self.spec(JobKind::Eval, kind, tenant, seed),
            Slot::Resubmit => {
                let pool: Vec<&JobSpec> = self.prefill.iter().chain(history).collect();
                let mut again = pool[rng.below(pool.len())].clone();
                again.tenant = tenant.to_string();
                return again;
            }
        };
        spec.runs = scale.job_runs;
        match slot {
            Slot::Sections => spec.sections = true,
            Slot::Adaptive => {
                spec.adaptive = true;
                spec.runs = scale.adaptive_job_runs;
            }
            Slot::Burst => spec.fault_model = FaultModel::MultiBitBurst { width: 2 },
            Slot::Protect => spec.runs = scale.protect_job_runs,
            Slot::Eval => {
                spec.eval_runs = scale.job_runs;
                spec.module_key = Some(self.modules[kind.name()].clone());
            }
            Slot::Campaign | Slot::Resubmit => {}
        }
        spec
    }
}

/// One finished submission.
#[derive(Debug)]
struct Done {
    spec: JobSpec,
    resubmit: bool,
    latency: f64,
    finished: Instant,
    coalesced: bool,
    payload: Result<String, String>,
}

/// A log writer that remembers when the first event arrived.
struct FirstEvent(Option<Instant>);

impl Write for FirstEvent {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.get_or_insert_with(Instant::now);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Submits `spec` and waits for its result.
fn submit(tr: &mut Tracer, client: &Client, spec: JobSpec, resubmit: bool, request: u64) -> Done {
    let root = tr.request("request.job", request);
    let id = tr.enter("serve.submit");
    let start = Instant::now();
    let mut out = Vec::new();
    let mut log = FirstEvent(None);
    let result = client.submit(&spec, true, &mut out, &mut log);
    let finished = Instant::now();
    let coalesced = matches!(result, Ok(ref o) if o.coalesced);
    tr.record(
        if coalesced {
            "serve.accept"
        } else {
            "serve.queue_wait"
        },
        start,
        log.0.unwrap_or(finished),
    );
    tr.exit(id);
    tr.exit(root);
    tr.count(id, "serve.coalesced", coalesced as u8 as f64);
    tr.count(id, "serve.jobs_failed", result.is_err() as u8 as f64);
    let payload = result
        .map_err(|e: ServeError| format!("{} job {}: {e}", spec.kind.label(), spec.job_id()))
        .and_then(|_| String::from_utf8(out).map_err(|e| e.to_string()));
    Done {
        spec,
        resubmit,
        latency: (finished - start).as_secs_f64(),
        finished,
        coalesced,
        payload,
    }
}

/// A running daemon.
struct Daemon {
    handle: JoinHandle<Result<DaemonReport, ServeError>>,
    client: Client,
    store: PathBuf,
}

impl Daemon {
    fn start(dir: &Path, name: &str, workers: usize) -> Result<Daemon, String> {
        let config = DaemonConfig {
            socket: dir.join(format!("{name}.sock")),
            state_dir: dir.join(name),
            threads: workers,
            shards: 0,
            ..DaemonConfig::default()
        };
        let store = config.state_dir.join("store");
        let client = Client::new(&config.socket);
        let handle = std::thread::spawn(move || run_daemon(config));
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while client.stats().is_err() {
            if handle.is_finished() {
                let why = match handle.join() {
                    Ok(Err(e)) => e.to_string(),
                    Ok(Ok(_)) => "exited at once".to_string(),
                    Err(_) => "panicked".to_string(),
                };
                return Err(format!("daemon {name}: {why}"));
            }
            if Instant::now() > deadline {
                return Err(format!("daemon {name} did not answer within 30 s"));
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        Ok(Daemon {
            handle,
            client,
            store,
        })
    }

    /// Injection runs the daemon executed so far.
    fn executed_runs(&self) -> Result<u64, String> {
        let line = self.client.stats().map_err(|e| e.to_string())?;
        Fields::parse(line.trim_end())
            .and_then(|f| f.num("executed_runs"))
            .ok_or_else(|| format!("bad stats line {line:?}"))
    }

    fn stop(self) -> Result<DaemonReport, String> {
        self.client.shutdown().map_err(|e| e.to_string())?;
        match self.handle.join() {
            Ok(r) => r.map_err(|e| e.to_string()),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// Starts a daemon and fills its store with one protected module per
/// protectable program (the modules eval jobs evaluate).
fn set_up(dir: &Path, name: &str, seeds: &Seeds, opts: &Options) -> Result<(Daemon, Mix), String> {
    let daemon = Daemon::start(dir, name, crate::CLIENTS)?;
    let sources: BTreeMap<&'static str, String> = Kind::ALL
        .iter()
        .map(|k| (k.name(), wrapped_source(*k)))
        .collect();
    let mut mix = Mix {
        sources,
        modules: BTreeMap::new(),
        prefill: Vec::new(),
    };
    let store = Store::open(&daemon.store).map_err(|e| e.to_string())?;
    let protected_keys = || -> Result<Vec<String>, String> {
        Ok(store
            .list()
            .map_err(|e| e.to_string())?
            .into_iter()
            .filter(|e| e.kind == ArtifactKind::ProtectedModule)
            .map(|e| e.key.as_str().to_string())
            .collect())
    };
    let mut tr = Tracer::new(false, Instant::now());
    for (i, kind) in PROGRAMS.into_iter().enumerate() {
        let mut spec = mix.spec(JobKind::Protect, kind, "prefill", seeds.mix ^ i as u64);
        spec.runs = opts.scale.protect_job_runs;
        let before = protected_keys()?;
        let done = submit(&mut tr, &daemon.client, spec.clone(), false, 0);
        done.payload?;
        let new: Vec<String> = protected_keys()?
            .into_iter()
            .filter(|k| !before.contains(k))
            .collect();
        match new.as_slice() {
            [key] => mix.modules.insert(kind.name(), key.clone()),
            _ => {
                return Err(format!(
                    "{}: prefill stored {} modules",
                    kind.name(),
                    new.len()
                ))
            }
        };
        mix.prefill.push(spec);
    }
    Ok((daemon, mix))
}

/// One client's closed loop, until `stop(jobs done so far)`.
fn client_loop(
    tr: &mut Tracer,
    client: &Client,
    mix: &Mix,
    index: usize,
    seeds: &Seeds,
    opts: &Options,
    stop: impl Fn(usize) -> bool,
) -> Vec<Done> {
    let tenant = format!("client{index}");
    let mut rng = Rng::new(seeds.mix ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9));
    let mut history: Vec<JobSpec> = Vec::new();
    let mut done = Vec::new();
    let mut block: Vec<(Slot, Kind)> = Vec::new();
    while !stop(done.len()) {
        if block.is_empty() {
            block = self::block();
            rng.shuffle(&mut block);
        }
        let slot = block.pop().expect("refilled above");
        let spec = mix.next(&mut rng, slot, &tenant, &history, opts);
        let resubmit = slot.0 == Slot::Resubmit;
        if !resubmit {
            history.push(spec.clone());
        }
        let request = ((index as u64 + 1) << 32) | done.len() as u64;
        done.push(submit(tr, client, spec, resubmit, request));
    }
    done
}

/// Runs every client to completion; returns their submissions and spans.
fn run_clients(
    daemon: &Daemon,
    mix: &Mix,
    seeds: &Seeds,
    opts: &Options,
    traced: bool,
    epoch: Instant,
    stop: impl Fn(usize) -> bool + Sync,
) -> (Vec<Done>, Vec<Vec<crate::Span>>) {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..crate::CLIENTS)
            .map(|i| {
                let stop = &stop;
                s.spawn(move || {
                    let mut tr = Tracer::new(traced, epoch);
                    let done = client_loop(&mut tr, &daemon.client, mix, i, seeds, opts, stop);
                    (done, tr.into_spans())
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut spans = Vec::new();
        for h in handles {
            let (done, s) = h.join().expect("client threads do not panic");
            all.extend(done);
            spans.push(s);
        }
        (all, spans)
    })
}

/// Checks every submission: it succeeded; every submission of one job
/// id got the same payload; resubmissions coalesced; campaign summaries
/// add up; protected modules pass their program's verifier.
fn check(done: &[Done], mix: &Mix) -> Vec<Result<(), String>> {
    let mut payloads: BTreeMap<String, String> = BTreeMap::new();
    let mut outcomes = Vec::new();
    for d in done {
        let result = d.payload.clone().and_then(|payload| {
            let id = d.spec.job_id();
            if d.resubmit && !d.coalesced {
                return Err(format!("resubmitted job {id} did not coalesce"));
            }
            if let Some(first) = payloads.get(&id) {
                return if *first == payload {
                    Ok(())
                } else {
                    Err(format!(
                        "job {id}: duplicate submissions got different payloads"
                    ))
                };
            }
            payloads.insert(id.clone(), payload.clone());
            match d.spec.kind {
                JobKind::Protect => {
                    let source = &mix.sources[d.spec.name.as_str()];
                    let module = ipas_lang::compile(source).map_err(|e| e.to_string())?;
                    let reference = Workload::serial(&d.spec.name, module, d.spec.tolerance)
                        .map_err(|e| e.to_string())?;
                    let ir = payload.split_once('\n').map_or("", |(_, ir)| ir);
                    let module = ipas_ir::parser::parse_module(ir)
                        .map_err(|e| format!("job {id}: protected IR does not parse: {e}"))?;
                    verify_clean(&reference, &module)
                }
                JobKind::Campaign | JobKind::Eval => {
                    // `workload W runs N seed S ...`, then one `<outcome> <count> (...)`
                    // line per outcome and `harness_failures <count>`.
                    let field = |label: &str| -> u64 {
                        payload
                            .split_whitespace()
                            .skip_while(|w| *w != label)
                            .nth(1)
                            .and_then(|n| n.parse().ok())
                            .unwrap_or(0)
                    };
                    let runs = field("runs");
                    let classified: u64 =
                        ["symptom", "detected", "masked", "soc", "harness_failures"]
                            .iter()
                            .map(|l| field(l))
                            .sum();
                    if classified == 0 || classified > runs {
                        Err(format!(
                            "job {id}: summary counts {classified} of {runs} runs"
                        ))
                    } else {
                        Ok(())
                    }
                }
                JobKind::Train => Ok(()),
            }
        });
        outcomes.push(result);
    }
    outcomes
}

/// Runs `daemon_mixed`.
///
/// # Errors
///
/// Set-up failures (the daemon does not start, or the prefill fails).
pub fn run(opts: &Options, seeds: &Seeds) -> Result<Report, String> {
    let dir = ScratchDir::create(opts.work_dir.clone())?;
    let mut tally = Tally::default();

    if opts.trace {
        let mut passes = 0;
        let mut outcomes = Vec::new();
        let (metrics, spans) = traced_passes(&mut tally, |tr| {
            passes += 1;
            let (daemon, mix) = set_up(dir.path(), &format!("pass{passes}"), seeds, opts)?;
            let per_client = opts.scale.trace_jobs_per_client;
            let (done, client_spans) =
                run_clients(&daemon, &mix, seeds, opts, tr.is_on(), tr.epoch(), |n| {
                    n >= per_client
                });
            let root = tr.request("request.stats", 0);
            let id = tr.enter("serve.stats");
            let executed = daemon.executed_runs()?;
            tr.exit(id);
            tr.exit(root);
            tr.count(id, "serve.executed_runs", executed as f64);
            daemon.stop()?;
            tr.adopt(client_spans);
            let latencies: Vec<f64> = done.iter().map(|d| d.latency).collect();
            let mut d: Vec<(String, String)> = done
                .iter()
                .map(|x| (x.spec.job_id(), x.payload.clone().unwrap_or_default()))
                .collect();
            d.sort();
            let mut q = BTreeMap::new();
            q.insert("serve.job_p90_s", percentile(&latencies, 90.0));
            outcomes.extend(check(&done, &mix));
            Ok((digest(&d), q))
        })?;
        for o in outcomes {
            tally.request(o);
        }
        return Ok(Report {
            correct: tally.all_correct(),
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
            info: vec![],
            spans,
        });
    }

    let mut setups = Vec::new();
    let mut current = None;
    for i in 0..crate::SETUP_REPEATS {
        if let Some((old, _)) = current.take() {
            Daemon::stop(old)?;
        }
        let start = Instant::now();
        current = Some(set_up(dir.path(), &format!("setup{i}"), seeds, opts)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let (daemon, mix) = current.expect("at least one set-up");
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(opts.seconds);
    let (done, _) = run_clients(&daemon, &mix, seeds, opts, false, start, |_| {
        Instant::now() >= deadline
    });
    let executed = daemon.executed_runs()?;
    daemon.stop()?;
    for i in 0..crate::SETUP_REPEATS {
        let start = Instant::now();
        let (again, _) = set_up(dir.path(), &format!("resetup{i}"), seeds, opts)?;
        setups.push(start.elapsed().as_secs_f64());
        again.stop()?;
    }
    let latencies: Vec<f64> = done.iter().map(|d| d.latency).collect();
    let end = done.iter().map(|d| d.finished).max().unwrap_or(start);
    let jobs_per_s = done.len() as f64 / (end - start).as_secs_f64();
    for o in check(&done, &mix) {
        tally.request(o);
    }
    let p90 = percentile(&latencies, 90.0);
    let beyond = latencies.iter().filter(|&&l| l > p90).count();
    Ok(Report {
        correct: tally.all_correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: crate::end_to_end(median(&setups), median(&latencies), jobs_per_s),
        info: vec![
            ("jobs".into(), done.len().to_string()),
            (
                "job_p90_s".into(),
                format!("{p90:.6} ({beyond} jobs beyond)"),
            ),
            (
                "coalesced".into(),
                done.iter().filter(|d| d.coalesced).count().to_string(),
            ),
            ("executed_runs".into(), executed.to_string()),
        ],
        spans: vec![],
    })
}
