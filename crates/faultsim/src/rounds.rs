//! Round-granular campaign execution for adaptive (active-learning)
//! campaigns.
//!
//! An adaptive campaign does not pre-draw its whole plan list: it draws
//! one *round* at a time, because the distribution of round `k+1`
//! depends on the labels of rounds `0..=k` (the margin-weighted site
//! distribution of `ipas-core`'s adaptive driver). This module supplies
//! the round draws that stay below the training loop:
//! [`draw_uniform_site_plans`] / [`draw_weighted_site_plans`] draw one
//! round's plans from an *externally owned* RNG, so every draw of the
//! campaign still flows from the single seeded plan RNG and the whole
//! campaign stays a pure function of `(workload, config, params)`. A
//! drawn round executes as one round-tagged [`crate::Slice`] of a
//! [`crate::CampaignRun`], so its fresh outcomes are journaled in one
//! ordered write whose bytes do not depend on the thread count.
//!
//! Determinism contract: the weighted draw rejects degenerate weights
//! *before* consuming any randomness ([`UniformFallback`]), so the
//! caller's uniform fallback draws from the identical RNG state — a
//! resumed campaign that recomputes the same weights takes the same
//! branch and draws the same plans.

use std::fmt;

use rand::Rng;

use crate::{FaultModel, Injection, SiteCount};

/// Why an adaptive round degraded to uniform site sampling instead of
/// the margin-weighted distribution. Falling back is not an error — a
/// uniform round is always sound — but the reason is surfaced so round
/// summaries can report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UniformFallback {
    /// The labels collected so far are all one class, so no classifier
    /// can be trained (the all-benign early-round case).
    SingleClassLabels,
    /// The quick grid search produced no usable model.
    NoModel,
    /// The margin weights were degenerate: non-finite, negative, or
    /// summing to zero.
    DegenerateWeights,
}

impl UniformFallback {
    /// Short label for round summaries.
    pub fn label(self) -> &'static str {
        match self {
            UniformFallback::SingleClassLabels => "single-class labels",
            UniformFallback::NoModel => "no model",
            UniformFallback::DegenerateWeights => "degenerate weights",
        }
    }
}

impl fmt::Display for UniformFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Draws one round of plans uniformly over the profiled static sites —
/// the same per-plan draw shape as [`crate::draw_plans`] under
/// [`crate::SamplingMode::StaticUniform`] (site, dynamic instance, bit),
/// but from a caller-owned RNG so rounds chain off one seeded stream.
pub fn draw_uniform_site_plans(
    profile: &[SiteCount],
    model: FaultModel,
    count: usize,
    rng: &mut impl Rng,
) -> Vec<Injection> {
    let domain = model.bit_domain();
    (0..count)
        .map(|_| {
            let (site, executions) = profile[rng.gen_range(0..profile.len())];
            Injection {
                target: rng.gen_range(0..executions),
                bit: rng.gen_range(0..domain),
                site: Some(site),
                model,
            }
        })
        .collect()
}

/// Draws one round of plans with per-site probability proportional to
/// `weights` (parallel to `profile`), then uniform over the chosen
/// site's dynamic instances and the model's bit domain.
///
/// # Errors
///
/// [`UniformFallback::DegenerateWeights`] when the weights cannot form
/// a distribution (wrong length, non-finite or negative entries, zero
/// sum). The check runs *before any RNG draw*, so on `Err` the RNG
/// state is untouched and the caller's uniform fallback is
/// deterministic.
pub fn draw_weighted_site_plans(
    profile: &[SiteCount],
    weights: &[f64],
    model: FaultModel,
    count: usize,
    rng: &mut impl Rng,
) -> Result<Vec<Injection>, UniformFallback> {
    if weights.len() != profile.len() || weights.is_empty() {
        return Err(UniformFallback::DegenerateWeights);
    }
    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
        return Err(UniformFallback::DegenerateWeights);
    }
    let total: f64 = weights.iter().sum();
    if !total.is_finite() || total <= 0.0 {
        return Err(UniformFallback::DegenerateWeights);
    }
    let domain = model.bit_domain();
    Ok((0..count)
        .map(|_| {
            // Inverse-CDF by cumulative scan: one f64 draw per plan,
            // deterministic for a given RNG state.
            let mut point = rng.gen_range(0.0..total);
            let mut chosen = profile.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if point < *w {
                    chosen = i;
                    break;
                }
                point -= *w;
            }
            let (site, executions) = profile[chosen];
            Injection {
                target: rng.gen_range(0..executions),
                bit: rng.gen_range(0..domain),
                site: Some(site),
                model,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        profile_sites, CampaignConfig, CampaignOptions, CampaignRun, GoldenToleranceVerifier,
        PlanOutcome, SamplingMode, Slice, Workload,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SRC: &str = "fn main() -> int {
        let s: int = 0;
        for (let i: int = 0; i < 24; i = i + 1) { s = s + i * i; }
        output_i(s);
        return 0;
    }";

    fn workload() -> Workload {
        let module = ipas_lang::compile(SRC).expect("compiles");
        Workload::serial("rounds", module, GoldenToleranceVerifier::EXACT).expect("prepares")
    }

    #[test]
    fn degenerate_weights_fail_before_consuming_randomness() {
        let w = workload();
        let profile = profile_sites(&w).expect("profile");
        let model = FaultModel::SingleBit;
        for bad in [
            vec![0.0; profile.len()],
            vec![f64::NAN; profile.len()],
            vec![-1.0; profile.len()],
            vec![],
        ] {
            let mut rng = StdRng::seed_from_u64(9);
            let err = draw_weighted_site_plans(&profile, &bad, model, 8, &mut rng)
                .expect_err("degenerate");
            assert_eq!(err, UniformFallback::DegenerateWeights);
            // The RNG was untouched: a uniform draw from it matches a
            // uniform draw from a fresh RNG with the same seed.
            let fallback = draw_uniform_site_plans(&profile, model, 8, &mut rng);
            let mut fresh = StdRng::seed_from_u64(9);
            let direct = draw_uniform_site_plans(&profile, model, 8, &mut fresh);
            assert_eq!(fallback, direct);
        }
    }

    #[test]
    fn weighted_draw_concentrates_on_heavy_sites() {
        let w = workload();
        let profile = profile_sites(&w).expect("profile");
        assert!(profile.len() >= 2, "need several sites");
        let mut weights = vec![0.0; profile.len()];
        weights[1] = 3.5;
        let mut rng = StdRng::seed_from_u64(3);
        let plans =
            draw_weighted_site_plans(&profile, &weights, FaultModel::SingleBit, 32, &mut rng)
                .expect("valid weights");
        assert_eq!(plans.len(), 32);
        for plan in &plans {
            assert_eq!(plan.site, Some(profile[1].0), "all mass on site 1");
            assert!(plan.target < profile[1].1);
        }
    }

    #[test]
    fn round_execution_is_thread_invariant_and_resumable() {
        let w = workload();
        let profile = profile_sites(&w).expect("profile");
        let mut rng = StdRng::seed_from_u64(5);
        let plans = draw_uniform_site_plans(&profile, FaultModel::SingleBit, 12, &mut rng);
        let base = 12; // pretend this is round 1 of a 12-plan round size
        let round = Slice {
            tag: Some(1),
            plans: (base..).zip(plans.iter().copied()).collect(),
        };
        let outcomes = |run: &CampaignRun<&Workload>| -> Vec<(usize, PlanOutcome)> {
            (base..base + 12)
                .map(|i| (i, run.outcome(i).expect("round plan done").clone()))
                .collect()
        };
        let mut results = Vec::new();
        for threads in [1usize, 4] {
            let config = CampaignConfig {
                runs: 24,
                seed: 5,
                threads,
                ..CampaignConfig::default()
            };
            let run = CampaignRun::open(&w, &config, &CampaignOptions::default(), Some(12))
                .expect("open");
            assert_eq!(
                run.execute(std::slice::from_ref(&round)).expect("round"),
                12
            );
            assert_eq!(run.resumed(), 0);
            assert!(
                (0..base).all(|i| run.outcome(i).is_none()),
                "only the round ran"
            );
            results.push(outcomes(&run));
        }
        assert_eq!(results[0], results[1], "thread count is invisible");

        // Journaled outcomes resume at global indices with round tags.
        let dir = std::env::temp_dir().join("ipas-rounds-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!(
            "resume-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let config = CampaignConfig {
            runs: 24,
            seed: 5,
            threads: 4,
            ..CampaignConfig::default()
        };
        let options = CampaignOptions {
            sampling: SamplingMode::StaticUniform,
            journal: Some(path.clone()),
            ..CampaignOptions::default()
        };
        let run = CampaignRun::open(&w, &config, &options, Some(12)).expect("fresh");
        assert_eq!(
            run.execute(std::slice::from_ref(&round))
                .expect("journaled"),
            12
        );
        drop(run);
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text
            .lines()
            .next()
            .expect("header")
            .contains("\"rounds\":12"));
        let records: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(records.len(), 12, "one line per plan");
        assert!(
            records.iter().all(|l| l.ends_with(",\"sec\":1}")),
            "round tags"
        );
        let plan_order: Vec<String> = (base..base + 12)
            .map(|i| format!("\"plan\":{i},"))
            .collect();
        assert!(
            records
                .iter()
                .zip(&plan_order)
                .all(|(l, p)| l.contains(p.as_str())),
            "the round is committed in plan order on any thread count"
        );

        let run = CampaignRun::open(&w, &config, &options, Some(12)).expect("reopen");
        assert_eq!(run.resumed(), 12);
        assert_eq!(
            run.execute(std::slice::from_ref(&round)).expect("resumed"),
            0
        );
        assert_eq!(outcomes(&run), results[0]);
        drop(run);
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            text,
            "nothing re-journaled"
        );
        std::fs::remove_file(&path).expect("cleanup");
    }
}
