//! `train_paper`: the paper's C-SVM grid search (25 C × 20 γ values,
//! 5 folds, top 5 kept) on training sets built during set-up.
//!
//! Set-up runs seeded training campaigns (two per program) and keeps
//! their training-set artifacts, the `TrainingSet` the artifact store
//! holds. A request is the classifier stage on one such set: dataset
//! extraction and `train_top_configs` on the paper grid. No
//! campaign and no store access happen while timing, so `ipas-svm` does
//! nearly all of the work. AMG is left out: its training set has about
//! one SOC sample, so its labels are degenerate.

use std::collections::BTreeMap;
use std::time::Instant;

use ipas_core::{dataset_from_artifact, train_top_configs, training_set_artifact, LabelKind};
use ipas_faultsim::CampaignConfig;
use ipas_store::artifact::encode;
use ipas_store::TrainingSet;

use crate::protect::campaign;
use crate::{
    balanced_median, digest, median, traced_passes, Options, Report, Rng, Seeds, Tally, Tracer,
    PROGRAMS,
};

/// What one training request returned.
#[derive(Debug, Clone, PartialEq)]
struct Trained {
    /// Best cross-validated F-score.
    f_score: f64,
    /// Encoded top-N models, best first.
    models: Vec<String>,
}

/// Builds the training sets: `paper_sets_per_program` seeded campaigns
/// per program. Several sets per program average out how much one
/// sample of injection sites makes the grid search easier or harder.
fn training_sets(seeds: &Seeds, opts: &Options) -> Result<Vec<TrainingSet>, String> {
    let mut tr = Tracer::new(false, Instant::now());
    let mut sets = Vec::new();
    for kind in PROGRAMS {
        let wl = kind
            .build(kind.base_input())
            .map_err(|e| format!("{}: {e}", kind.name()))?;
        for replica in 0..opts.scale.paper_sets_per_program {
            // One campaign thread: small two-thread campaigns end on a
            // join that waits for the slower vCPU, which made this set-up
            // swing twice as much as one-thread set-ups on a shared
            // 2-vCPU host.
            let config = CampaignConfig {
                runs: opts.scale.paper_set_runs,
                seed: seeds.train.wrapping_add(replica as u64),
                threads: 1,
                ..CampaignConfig::default()
            };
            let r = campaign(&mut tr, &wl, &config)?;
            let mut set = training_set_artifact(&wl, &r);
            set.workload = format!("{}#{replica}", kind.name());
            sets.push(set);
        }
    }
    Ok(sets)
}

/// One paper-grid training request on a stored training set.
fn request(tr: &mut Tracer, set: &TrainingSet, opts: &Options) -> Result<Trained, String> {
    let data = dataset_from_artifact(set, LabelKind::SocGenerating);
    if data.num_positive() < 2 || data.len() - data.num_positive() < 2 {
        return Err(format!("{}: degenerate training labels", set.workload));
    }
    let grid = opts.scale.paper_grid;
    let g = tr.enter("svm.grid");
    let models = train_top_configs(&data, &grid, crate::PAPER_TOP);
    tr.exit(g);
    tr.count(g, "svm.configs", (grid.num_c * grid.num_gamma) as f64);
    tr.count(g, "svm.train_samples", data.len() as f64);
    let svs: usize = models.iter().map(|m| m.svm().num_support_vectors()).sum();
    tr.count(g, "svm.support_vectors", svs as f64);
    if models.len() != crate::PAPER_TOP {
        return Err(format!(
            "{}: grid returned {} models",
            set.workload,
            models.len()
        ));
    }
    let f_score = models[0].score().f_score;
    if !(0.0..=1.0).contains(&f_score) {
        return Err(format!("{}: F-score {f_score} out of range", set.workload));
    }
    Ok(Trained {
        f_score,
        models: models.iter().map(|m| encode(&m.export())).collect(),
    })
}

/// Runs `train_paper`.
///
/// # Errors
///
/// Set-up failures.
pub fn run(opts: &Options, seeds: &Seeds) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut sets = Vec::new();
    for _ in 0..crate::SETUP_REPEATS {
        let start = Instant::now();
        let built = training_sets(seeds, opts)?;
        setups.push(start.elapsed().as_secs_f64());
        if !sets.is_empty() {
            tally.check(built == sets, || {
                "two set-ups of one seed built different training sets".into()
            });
        }
        sets = built;
    }
    let mut first: BTreeMap<String, Trained> = BTreeMap::new();
    let mut check = |set: &str, t: Trained| -> Result<(), String> {
        match first.get(set) {
            None => {
                first.insert(set.to_string(), t);
                Ok(())
            }
            Some(f) if *f == t => Ok(()),
            Some(_) => Err(format!("{set}: two trainings of one set disagree")),
        }
    };
    let mut next_request = 0u64;
    let mut cycle = |tr: &mut Tracer,
                     order: &[usize],
                     out: &mut Vec<(String, f64, Result<Trained, String>)>| {
        for &i in order {
            let set = &sets[i];
            next_request += 1;
            let root = tr.request("request.train", next_request);
            let start = Instant::now();
            let trained = request(tr, set, opts);
            let wall = start.elapsed().as_secs_f64();
            tr.exit(root);
            out.push((set.workload.clone(), wall, trained));
        }
    };
    let mut order: Vec<usize> = (0..sets.len()).collect();
    let mut rng = Rng::new(seeds.order);

    if opts.trace {
        let mut results = Vec::new();
        let (metrics, spans) = traced_passes(&mut tally, |tr| {
            let mut pass = Vec::new();
            let mut pass_order = order.clone();
            Rng::new(seeds.order).shuffle(&mut pass_order);
            cycle(tr, &pass_order, &mut pass);
            let mut f_scores = Vec::new();
            let mut d = Vec::new();
            for (set, _, t) in pass {
                if let Ok(t) = &t {
                    f_scores.push(t.f_score);
                    d.push(digest(&t.models));
                }
                results.push((set, t));
            }
            let mut q = BTreeMap::new();
            q.insert(
                "svm.cv_f_score",
                f_scores.iter().sum::<f64>() / f_scores.len().max(1) as f64,
            );
            Ok((digest(&d), q))
        })?;
        for (set, t) in results {
            tally.request(t.and_then(|t| check(&set, t)));
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

    let mut tr = Tracer::new(false, Instant::now());
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    // Seeded cycles over the sets; the loop may stop mid-cycle once every
    // set has been trained at least once.
    let start = Instant::now();
    let mut attempts = 0;
    while attempts < sets.len() || start.elapsed().as_secs_f64() < opts.seconds {
        if attempts % sets.len() == 0 {
            rng.shuffle(&mut order);
        }
        let mut out = Vec::new();
        cycle(&mut tr, &[order[attempts % sets.len()]], &mut out);
        attempts += 1;
        for (set, wall, t) in out {
            if t.is_ok() {
                samples.entry(set.clone()).or_default().push(wall);
            }
            tally.request(t.and_then(|t| check(&set, t)));
        }
    }
    for _ in 0..crate::SETUP_REPEATS {
        let start = Instant::now();
        let built = training_sets(seeds, opts)?;
        setups.push(start.elapsed().as_secs_f64());
        tally.check(built == sets, || {
            "two set-ups of one seed built different training sets".into()
        });
    }
    let requests: usize = samples.values().map(Vec::len).sum();
    let f_mean = first.values().map(|t| t.f_score).sum::<f64>() / first.len().max(1) as f64;
    Ok(Report {
        correct: tally.all_correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: crate::end_to_end(
            median(&setups),
            balanced_median(&samples),
            1.0 / crate::balanced_mean(&samples),
        ),
        info: vec![
            ("requests".into(), requests.to_string()),
            ("cv_f_score".into(), format!("{f_mean:.6}")),
        ],
        spans: vec![],
    })
}
