//! The campaign executor: one run, many slices.
//!
//! Every campaign shape — plain, sectional, adaptive, and the serving
//! daemon's chunked jobs — executes through one [`CampaignRun`]:
//!
//! 1. [`CampaignRun::open`] is the one place a campaign builds its
//!    [`JournalHeader`], opens the journal and takes in its
//!    [`ResumeState`](crate::ResumeState), and lowers the module for the
//!    compiled engine (whose golden-run [`Ladder`] the first compiled
//!    run that needs it captures, once per campaign);
//! 2. the caller draws plans ([`crate::draw_plans`],
//!    [`crate::sections::assign_sections`], an adaptive round) and
//!    groups them into [`Slice`]s — drawing is the only thing the
//!    campaign shapes differ in;
//! 3. [`CampaignRun::execute`] runs slices on scoped worker threads,
//!    and [`CampaignRun::run_slice`] runs one slice on the calling
//!    thread (a daemon scheduler task). Plans the journal already holds
//!    are skipped;
//! 4. [`CampaignRun::finish`] splices the outcomes into a
//!    [`CampaignResult`].
//!
//! # The slice commit rule
//!
//! A slice is committed in **one plan-ordered journal append when its
//! last plan finishes**. That single rule reproduces every journal the
//! campaign shapes write: plain and sectional campaigns use one-plan
//! slices (one line per plan, sectional records tagged with their
//! section); an adaptive round is one slice (one ordered append at the
//! end of the round, so its journal bytes do not depend on the thread
//! count); a daemon chunk is one slice run by one worker (one append
//! per chunk).

use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::sections::splice_outcomes;
use crate::{
    CampaignConfig, CampaignError, CampaignJournal, CampaignOptions, CampaignResult,
    CompiledProgram, Engine, Injection, JournalError, JournalHeader, Ladder, PlanExecutor,
    PlanOutcome, Workload,
};

/// A set of plans committed to the journal together (see the module
/// docs' commit rule).
#[derive(Debug, Clone)]
pub struct Slice {
    /// Tag written on every record of the slice: the section id of a
    /// sectional campaign or the round id of an adaptive one.
    pub tag: Option<u32>,
    /// `(plan index, plan)` pairs, in plan order.
    pub plans: Vec<(usize, Injection)>,
}

/// One open campaign: the workload, its lowering, the checkpoint
/// journal, and one outcome slot per plan index (pre-filled from the
/// journal on resume).
///
/// `W` is `&Workload` for in-process campaigns and an owned
/// [`Workload`] where the run must outlive its creator (the serving
/// daemon shares it across scheduler tasks).
#[derive(Debug)]
pub struct CampaignRun<W: Borrow<Workload>> {
    workload: W,
    seed: u64,
    threads: usize,
    options: CampaignOptions,
    compiled: Option<CompiledProgram>,
    /// The golden-run checkpoints compiled workers start from, captured
    /// by the first run that needs them.
    ladder: OnceLock<Ladder>,
    journal: Option<CampaignJournal>,
    slots: Vec<OnceLock<PlanOutcome>>,
    resumed: usize,
}

impl<W: Borrow<Workload> + Sync> CampaignRun<W> {
    /// Opens a run of up to `config.runs` plans. With
    /// [`CampaignOptions::journal`] set, the journal at that path is
    /// opened (or created) under this campaign's header and every plan
    /// it already holds is recovered. `round_runs` is the adaptive
    /// round size pinned in the header (`None` for pre-drawn
    /// campaigns).
    ///
    /// # Errors
    ///
    /// [`CampaignError::Journal`] when the journal cannot be opened or
    /// belongs to a different campaign.
    pub fn open(
        workload: W,
        config: &CampaignConfig,
        options: &CampaignOptions,
        round_runs: Option<usize>,
    ) -> Result<Self, CampaignError> {
        let w = workload.borrow();
        let (journal, resume) = match &options.journal {
            Some(path) => {
                let header = JournalHeader {
                    workload: w.name.clone(),
                    entry: w.entry.clone(),
                    seed: config.seed,
                    runs: config.runs,
                    sampling: options.sampling,
                    fault_model: config.fault_model,
                    eligible_results: w.eligible_results,
                    nominal_insts: w.nominal_insts,
                    round_runs,
                };
                let (journal, resume) = CampaignJournal::open(path, &header)?;
                (Some(journal), resume)
            }
            None => (None, Default::default()),
        };
        let resumed = resume.len();
        let slots: Vec<OnceLock<PlanOutcome>> = (0..config.runs).map(|_| OnceLock::new()).collect();
        let records = (resume.records.into_iter()).map(|(i, r)| (i, PlanOutcome::Record(r)));
        let failures = (resume.failures.into_iter()).map(|(i, f)| (i, PlanOutcome::Failure(f)));
        // The journal parser keeps records and failures disjoint and
        // every index below `config.runs`.
        for (i, outcome) in records.chain(failures) {
            let _ = slots[i].set(outcome);
        }
        // One lowering per campaign; every worker runs a private
        // resettable machine against it.
        let compiled = match config.engine {
            Engine::Compiled => Some(CompiledProgram::compile(&w.module)),
            Engine::Reference => None,
        };
        let threads = match config.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        Ok(CampaignRun {
            workload,
            seed: config.seed,
            threads,
            options: options.clone(),
            compiled,
            ladder: OnceLock::new(),
            journal,
            slots,
            resumed,
        })
    }

    /// The workload under test.
    pub fn workload(&self) -> &Workload {
        self.workload.borrow()
    }

    /// Plans recovered from the journal when the run was opened.
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// The outcome of `plan`, once it was executed or recovered.
    pub fn outcome(&self, plan: usize) -> Option<&PlanOutcome> {
        self.slots.get(plan).and_then(OnceLock::get)
    }

    /// Executes `slices` on the campaign's worker threads, committing
    /// each slice as its last plan finishes. Returns the number of plans
    /// executed (plans already done are skipped). A failed commit stops
    /// the workers: further work would be unresumable.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Journal`] when a commit fails.
    pub fn execute(&self, slices: &[Slice]) -> Result<usize, CampaignError> {
        self.work(slices, self.threads)
    }

    /// Executes one slice on the calling thread and commits it: the
    /// unit of work of a scheduler task.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Journal`] when the commit fails.
    pub fn run_slice(&self, slice: &Slice) -> Result<usize, CampaignError> {
        self.work(std::slice::from_ref(slice), 1)
    }

    /// Splices the outcomes of plans `0..drawn` into a campaign result.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Incomplete`] when some plan has no outcome.
    pub fn finish(&self, drawn: usize) -> Result<CampaignResult, CampaignError> {
        let outcomes = (0..drawn).filter_map(|i| self.outcome(i).map(|o| (i, o.clone())));
        splice_outcomes(drawn, outcomes, self.resumed, self.workload().nominal_insts)
    }

    fn work(&self, slices: &[Slice], threads: usize) -> Result<usize, CampaignError> {
        let pending: Vec<Vec<(usize, Injection)>> = slices
            .iter()
            .map(|s| {
                let plans = s.plans.iter().copied();
                plans.filter(|&(i, _)| self.outcome(i).is_none()).collect()
            })
            .collect();
        // Work items are `(slice, position)` pairs, handed out in slice
        // order; a slice's count of unfinished plans tells the worker
        // that finishes it to commit it.
        let items: Vec<(usize, usize)> = (pending.iter().enumerate())
            .flat_map(|(s, plans)| (0..plans.len()).map(move |k| (s, k)))
            .collect();
        let left: Vec<AtomicUsize> = pending.iter().map(|p| AtomicUsize::new(p.len())).collect();
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let failure: Mutex<Option<JournalError>> = Mutex::new(None);
        let worker = || {
            let mut executor = PlanExecutor::new(
                self.workload(),
                self.seed,
                &self.options,
                self.compiled.as_ref().map(|p| (p, &self.ladder)),
            );
            while !abort.load(Ordering::Relaxed) {
                let Some(&(s, k)) = items.get(next.fetch_add(1, Ordering::Relaxed)) else {
                    break;
                };
                let (i, plan) = pending[s][k];
                let _ = self.slots[i].set(executor.execute(i, plan));
                // Release publishes this slot; the Acquire of the worker
                // that takes the count to zero sees every slot of the
                // slice before it commits.
                if left[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                    if let Err(e) = self.commit(&pending[s], slices[s].tag) {
                        let mut failure = failure.lock().unwrap_or_else(|e| e.into_inner());
                        failure.get_or_insert(e);
                        abort.store(true, Ordering::Relaxed);
                    }
                }
            }
        };
        match threads.min(items.len()) {
            0 => {}
            1 => worker(),
            n => std::thread::scope(|scope| {
                for _ in 0..n {
                    scope.spawn(worker);
                }
            }),
        }
        match failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(e) => Err(CampaignError::Journal(e)),
            None => Ok(items.len()),
        }
    }

    /// Appends a finished slice's outcomes to the journal in one write.
    fn commit(&self, plans: &[(usize, Injection)], tag: Option<u32>) -> Result<(), JournalError> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let outcomes: Vec<(usize, PlanOutcome)> = plans
            .iter()
            .filter_map(|&(i, _)| self.outcome(i).map(|o| (i, o.clone())))
            .collect();
        journal.append_outcomes_in_section(&outcomes, tag)
    }
}
