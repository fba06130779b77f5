//! The in-process sweep service: a worker pool fair-slicing N concurrent
//! sweeps over checkpoints.
//!
//! ## Scheduling model
//!
//! Each job runs in *slices*: a worker claims the runnable job with the
//! highest priority (ties broken by fewest slices consumed, then lowest
//! id), runs it under a wall-clock deadline [`Budget`], and — when the
//! deadline trips at a candidate boundary — suspends it back to an
//! in-memory [`SweepCheckpoint`].  Because the engine's checkpoint/resume
//! is byte-exact, slicing is invisible in the output: a job sliced any
//! number of times produces the same swept AIGER and the same committed
//! counters as one uninterrupted run.
//!
//! A slice that makes no progress (resume overhead can exceed a tiny
//! quantum) doubles that job's private quantum for its next slice, so
//! pathological quanta degrade to longer slices instead of livelock; any
//! progress resets the boost.
//!
//! Submitting a job with a higher priority than a currently running one
//! preempts the victim when all workers are busy: its cancel token trips,
//! it suspends at the next candidate boundary, and the worker picks up the
//! newcomer.
//!
//! ## Scripted jobs
//!
//! A submission may carry a pass script (the
//! [`stp_sweep::PassManager::parse`] grammar) instead of a plain sweep —
//! see [`SweepService::submit_with_passes`].  Scripted jobs run their
//! whole pipeline inside one slice and are *not* mid-script resumable:
//! when the quantum trips partway through, the job is re-queued with a
//! doubled quantum (the same no-progress escalation as above) until one
//! slice fits the entire script, and no checkpoint is ever kept or
//! spilled for it.  Crash recovery re-runs a scripted job from scratch.
//!
//! ## Durability
//!
//! With a spill directory configured, submissions and suspension
//! checkpoints are written through to disk (plus periodic within-slice
//! checkpoints on the wall-clock cadence of
//! [`SweepConfig::checkpoint_every_secs`]).  On restart the daemon
//! re-adopts every spilled job by canonical netlist fingerprint and
//! resumes it byte-exactly — see [`crate::spill`].

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::effective_config;
use crate::job::{JobCounters, JobId, JobInfo, JobState, Priority};
use crate::protocol::Preset;
use crate::spill::{SpillDir, SpilledJob};
use netlist::{canonical_fingerprint, read_aiger_bytes, write_aiger_string, Aig};
use stp_sweep::{
    Budget, CancelToken, Engine, Observer, PassManager, SweepCheckpoint, SweepError, Sweeper,
};

#[cfg(doc)]
use stp_sweep::SweepConfig;

/// Caps the zero-progress quantum doubling: `quantum << 12` of 1 ms is
/// already ~4 s, enough to resume and commit on any realistic netlist.
const MAX_BOOST: u32 = 12;

/// How the service is run.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads slicing jobs concurrently.
    pub workers: usize,
    /// Wall-clock time slice per job per turn.
    pub quantum: Duration,
    /// Directory for durable spilling; `None` keeps all state in memory
    /// (no crash recovery).
    pub spill_dir: Option<PathBuf>,
    /// Within-slice wall-clock checkpoint cadence in seconds (`0.0`
    /// disables).  Only meaningful with a spill directory: long slices
    /// then leave a resumable checkpoint on disk every so often even
    /// before their first suspension.
    pub checkpoint_every_secs: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            quantum: Duration::from_millis(50),
            spill_dir: None,
            checkpoint_every_secs: 0.0,
        }
    }
}

/// One job's full server-side record.
struct Job {
    id: JobId,
    fp: u64,
    priority: Priority,
    engine: Engine,
    preset: Preset,
    /// Pass script of a scripted job, empty for a plain sweep.  Scripted
    /// jobs run whole pipelines per slice and are never mid-script
    /// resumable, so they keep no checkpoint.
    passes: String,
    aig: Arc<Aig>,
    state: JobState,
    /// Latest suspension checkpoint, encoded.
    checkpoint: Option<Vec<u8>>,
    /// Swept AIGER text and counters, once `Done`.
    output: Option<(String, JobCounters)>,
    error: String,
    slices: u64,
    sat_calls: u64,
    committed: u64,
    /// Zero-progress quantum doublings (see module docs).
    boost: u32,
    cancel_requested: bool,
    /// Token of the in-flight slice, for cancellation and preemption.
    running_token: Option<CancelToken>,
}

impl Job {
    fn info(&self) -> JobInfo {
        JobInfo {
            id: self.id,
            canonical_fingerprint: self.fp,
            state: self.state,
            priority: self.priority,
            engine: self.engine,
            preset: self.preset,
            slices: self.slices,
            sat_calls: self.sat_calls,
            committed_candidates: self.committed,
            error: self.error.clone(),
        }
    }
}

#[derive(Default)]
struct State {
    jobs: BTreeMap<JobId, Job>,
    by_fp: HashMap<u64, JobId>,
    next_id: JobId,
}

struct Inner {
    state: Mutex<State>,
    /// Signalled when a job becomes runnable.
    work: Condvar,
    /// Signalled when a job reaches a terminal state.
    done: Condvar,
    quantum: Duration,
    checkpoint_every_secs: f64,
    workers: usize,
    spill: Option<SpillDir>,
    shutdown: AtomicBool,
    /// Test hook: when set, workers discard every write-back and stop
    /// touching the spill directory, simulating a hard crash whose
    /// in-memory state is lost (see [`SweepService::simulate_crash`]).
    crashed: AtomicBool,
}

/// Everything a worker needs to run one slice outside the state lock.
struct Claim {
    id: JobId,
    fp: u64,
    aig: Arc<Aig>,
    engine: Engine,
    preset: Preset,
    passes: String,
    checkpoint: Option<Vec<u8>>,
    token: CancelToken,
    quantum: Duration,
    cancel_requested: bool,
}

/// Spills within-slice wall-clock checkpoints straight to disk.
struct SpillSink<'a> {
    spill: Option<&'a SpillDir>,
    fp: u64,
    crashed: &'a AtomicBool,
}

impl Observer for SpillSink<'_> {
    fn on_checkpoint(&mut self, _checkpoint: &SweepCheckpoint, encoded: &[u8]) {
        if let Some(spill) = self.spill {
            if !self.crashed.load(Ordering::Relaxed) {
                // Best effort: a full disk must not fail the sweep itself.
                let _ = spill.write_checkpoint(self.fp, encoded);
            }
        }
    }
}

/// The multiplexing sweep service.  See the module docs for the model.
pub struct SweepService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl SweepService {
    /// Starts the service: re-adopts any jobs spilled by a previous
    /// instance, then spawns the worker pool (which immediately resumes
    /// the re-adopted jobs).
    pub fn start(config: ServiceConfig) -> io::Result<SweepService> {
        let workers = config.workers.max(1);
        let quantum = config.quantum.max(Duration::from_millis(1));
        let spill = match &config.spill_dir {
            Some(dir) => Some(SpillDir::open(dir)?),
            None => None,
        };

        let mut state = State {
            next_id: 1,
            ..State::default()
        };
        if let Some(spill) = &spill {
            for recovered in spill.scan()? {
                let Ok(aig) = read_aiger_bytes(&recovered.job.aiger) else {
                    continue;
                };
                let fp = canonical_fingerprint(&aig);
                let id = state.next_id;
                state.next_id += 1;
                // Only an intact, decodable checkpoint counts; anything
                // else re-runs the job from scratch.  Scripted jobs are
                // never mid-script resumable, so any stray checkpoint of
                // theirs is ignored outright.
                let decoded = if recovered.job.passes.is_empty() {
                    recovered.checkpoint.and_then(|bytes| {
                        SweepCheckpoint::decode(&bytes)
                            .ok()
                            .map(|ckpt| (bytes, ckpt.sat_calls(), ckpt.committed_candidates()))
                    })
                } else {
                    None
                };
                let (checkpoint, sat_calls, committed) = match decoded {
                    Some((bytes, sat_calls, committed)) => (Some(bytes), sat_calls, committed),
                    None => (None, 0, 0),
                };
                let has_checkpoint = checkpoint.is_some();
                state.by_fp.insert(fp, id);
                state.jobs.insert(
                    id,
                    Job {
                        id,
                        fp,
                        priority: recovered.job.priority,
                        engine: recovered.job.engine,
                        preset: recovered.job.preset,
                        passes: recovered.job.passes,
                        aig: Arc::new(aig),
                        state: if has_checkpoint {
                            JobState::Suspended
                        } else {
                            JobState::Queued
                        },
                        checkpoint,
                        output: None,
                        error: String::new(),
                        slices: 0,
                        sat_calls,
                        committed,
                        boost: 0,
                        cancel_requested: false,
                        running_token: None,
                    },
                );
            }
        }

        let inner = Arc::new(Inner {
            state: Mutex::new(state),
            work: Condvar::new(),
            done: Condvar::new(),
            quantum,
            checkpoint_every_secs: config.checkpoint_every_secs,
            workers,
            spill,
            shutdown: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("sweepd-worker-{index}"))
                    .spawn(move || worker_loop(&inner))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(SweepService {
            inner,
            workers: Mutex::new(handles),
        })
    }

    /// Submits a netlist for a plain sweep.  Returns the job id plus
    /// `adopted = true` when the canonical fingerprint matched an existing
    /// job (renumbered resubmissions land here); a cancelled or failed job
    /// is restarted by a matching resubmission.
    pub fn submit(
        &self,
        priority: Priority,
        engine: Engine,
        preset: Preset,
        aiger: &[u8],
    ) -> Result<(JobId, bool), String> {
        self.submit_with_passes(priority, engine, preset, "", aiger)
    }

    /// Submits a netlist with an optional pass script (the
    /// [`stp_sweep::PassManager::parse`] grammar; empty runs the engine's
    /// plain sweep).  The script is validated up-front, so a typo fails
    /// the submission instead of the job.  Scripted jobs run their whole
    /// pipeline per slice and carry no mid-script checkpoint: a slice
    /// whose quantum trips before the pipeline finishes is re-queued with
    /// a doubled quantum until one slice fits the entire script.
    pub fn submit_with_passes(
        &self,
        priority: Priority,
        engine: Engine,
        preset: Preset,
        passes: &str,
        aiger: &[u8],
    ) -> Result<(JobId, bool), String> {
        if self.inner.shutdown.load(Ordering::Relaxed) {
            return Err("the service is shutting down".into());
        }
        if !passes.is_empty() {
            stp_sweep::passes::parse_script(passes)
                .map_err(|err| format!("invalid pass script: {err}"))?;
        }
        let aig = read_aiger_bytes(aiger).map_err(|err| format!("invalid AIGER: {err}"))?;
        let fp = canonical_fingerprint(&aig);
        let mut state = self.lock();
        if let Some(&id) = state.by_fp.get(&fp) {
            let job = state.jobs.get_mut(&id).expect("by_fp is consistent");
            if job.engine != engine || job.preset != preset || job.passes != passes {
                return Err(format!(
                    "job {id} already sweeps this netlist under {}/{}{}; \
                     cancel it first to change settings",
                    job.engine,
                    job.preset,
                    if job.passes.is_empty() {
                        String::new()
                    } else {
                        format!(" with passes \"{}\"", job.passes)
                    }
                ));
            }
            if matches!(job.state, JobState::Cancelled | JobState::Failed) {
                job.state = JobState::Queued;
                job.checkpoint = None;
                job.output = None;
                job.error.clear();
                job.slices = 0;
                job.sat_calls = 0;
                job.committed = 0;
                job.boost = 0;
                job.cancel_requested = false;
                self.spill_job(job);
                self.inner.work.notify_all();
            }
            return Ok((id, true));
        }

        let id = state.next_id;
        state.next_id += 1;
        let job = Job {
            id,
            fp,
            priority,
            engine,
            preset,
            passes: passes.to_string(),
            aig: Arc::new(aig),
            state: JobState::Queued,
            checkpoint: None,
            output: None,
            error: String::new(),
            slices: 0,
            sat_calls: 0,
            committed: 0,
            boost: 0,
            cancel_requested: false,
            running_token: None,
        };
        self.spill_job(&job);
        state.by_fp.insert(fp, id);
        state.jobs.insert(id, job);
        self.preempt_for(&mut state, priority);
        self.inner.work.notify_all();
        Ok((id, false))
    }

    /// Trips the cancel token of one running lower-priority job when every
    /// worker is busy, freeing a worker for the newcomer at the victim's
    /// next candidate boundary.
    fn preempt_for(&self, state: &mut State, newcomer: Priority) {
        let running = state
            .jobs
            .values()
            .filter(|job| job.state == JobState::Running)
            .count();
        if running < self.inner.workers {
            return;
        }
        let victim = state
            .jobs
            .values()
            .filter(|job| job.state == JobState::Running && job.priority < newcomer)
            .min_by_key(|job| (job.priority, std::cmp::Reverse(job.id)));
        if let Some(victim) = victim {
            if let Some(token) = &victim.running_token {
                token.cancel();
            }
        }
    }

    fn spill_job(&self, job: &Job) {
        if let Some(spill) = &self.inner.spill {
            if !self.inner.crashed.load(Ordering::Relaxed) {
                let _ = spill.write_job(
                    job.fp,
                    &SpilledJob {
                        priority: job.priority,
                        engine: job.engine,
                        preset: job.preset,
                        aiger: write_aiger_string(&job.aig).into_bytes(),
                        passes: job.passes.clone(),
                    },
                );
            }
        }
    }

    /// The state of one job.
    pub fn status(&self, id: JobId) -> Option<JobInfo> {
        self.lock().jobs.get(&id).map(Job::info)
    }

    /// Every job, in submission order.
    pub fn list(&self) -> Vec<JobInfo> {
        self.lock().jobs.values().map(Job::info).collect()
    }

    /// Cancels a job.  A running job stops at its next candidate
    /// boundary; cancelling a terminal job is a no-op.
    pub fn cancel(&self, id: JobId) -> Result<(), String> {
        let mut state = self.lock();
        let job = state
            .jobs
            .get_mut(&id)
            .ok_or_else(|| format!("no such job {id}"))?;
        match job.state {
            JobState::Done | JobState::Failed | JobState::Cancelled => {}
            JobState::Running => {
                job.cancel_requested = true;
                if let Some(token) = &job.running_token {
                    token.cancel();
                }
            }
            JobState::Queued | JobState::Suspended => {
                job.state = JobState::Cancelled;
                job.checkpoint = None;
                self.remove_spill(job.fp);
                self.inner.done.notify_all();
            }
        }
        Ok(())
    }

    /// The swept AIGER bytes and counters of a `Done` job.
    pub fn fetch(&self, id: JobId) -> Result<(Vec<u8>, JobCounters), String> {
        let state = self.lock();
        let job = state
            .jobs
            .get(&id)
            .ok_or_else(|| format!("no such job {id}"))?;
        match (&job.output, job.state) {
            (Some((aiger, counters)), JobState::Done) => {
                Ok((aiger.clone().into_bytes(), *counters))
            }
            (_, JobState::Failed) => Err(format!("job {id} failed: {}", job.error)),
            (_, state) => Err(format!("job {id} is {state}, not done")),
        }
    }

    /// Blocks until `id` reaches a terminal state (or `timeout` passes —
    /// an error, with the job's last observed state in the message).
    pub fn wait(&self, id: JobId, timeout: Duration) -> Result<JobInfo, String> {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            let info = state
                .jobs
                .get(&id)
                .map(Job::info)
                .ok_or_else(|| format!("no such job {id}"))?;
            if info.state.is_terminal() {
                return Ok(info);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(format!("timed out waiting for job {id} ({})", info.state));
            }
            let (guard, _) = self
                .inner
                .done
                .wait_timeout(state, deadline - now)
                .expect("service state poisoned");
            state = guard;
        }
    }

    /// Stops cleanly: running slices suspend at their next candidate
    /// boundary and spill, then the workers exit.  Suspended jobs are
    /// re-adopted by the next [`SweepService::start`] on the same spill
    /// directory.
    pub fn shutdown(&self) {
        self.stop(false);
    }

    /// Test hook simulating a hard crash: workers are stopped and every
    /// pending write-back is *discarded* — whatever the spill directory
    /// holds at this instant is all a restarted service gets, exactly as
    /// after a power loss.
    pub fn simulate_crash(&self) {
        self.stop(true);
    }

    fn stop(&self, crash: bool) {
        if crash {
            self.inner.crashed.store(true, Ordering::Relaxed);
        }
        self.inner.shutdown.store(true, Ordering::Relaxed);
        {
            let state = self.lock();
            for job in state.jobs.values() {
                if let Some(token) = &job.running_token {
                    token.cancel();
                }
            }
            self.inner.work.notify_all();
        }
        let handles = std::mem::take(&mut *self.workers.lock().expect("worker list poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Whether [`SweepService::shutdown`] (or a simulated crash) happened.
    pub fn is_shut_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::Relaxed)
    }

    fn remove_spill(&self, fp: u64) {
        if let Some(spill) = &self.inner.spill {
            if !self.inner.crashed.load(Ordering::Relaxed) {
                let _ = spill.remove(fp);
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.inner.state.lock().expect("service state poisoned")
    }
}

impl Drop for SweepService {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        if let Ok(state) = self.inner.state.lock() {
            for job in state.jobs.values() {
                if let Some(token) = &job.running_token {
                    token.cancel();
                }
            }
            self.inner.work.notify_all();
        }
        if let Ok(mut handles) = self.workers.lock() {
            for handle in std::mem::take(&mut *handles) {
                let _ = handle.join();
            }
        }
    }
}

/// Picks the runnable job a freed worker should take: highest priority,
/// then fewest slices consumed (fairness), then lowest id (determinism).
fn pick_runnable(state: &State) -> Option<JobId> {
    state
        .jobs
        .values()
        .filter(|job| matches!(job.state, JobState::Queued | JobState::Suspended))
        .min_by_key(|job| (std::cmp::Reverse(job.priority), job.slices, job.id))
        .map(|job| job.id)
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let claim = {
            let mut state = inner.state.lock().expect("service state poisoned");
            loop {
                if inner.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(id) = pick_runnable(&state) {
                    let job = state.jobs.get_mut(&id).expect("picked job exists");
                    job.state = JobState::Running;
                    let token = CancelToken::new();
                    job.running_token = Some(token.clone());
                    if job.cancel_requested {
                        // A cancel raced the claim: make the slice a no-op.
                        token.cancel();
                    }
                    break Claim {
                        id,
                        fp: job.fp,
                        aig: Arc::clone(&job.aig),
                        engine: job.engine,
                        preset: job.preset,
                        passes: job.passes.clone(),
                        checkpoint: job.checkpoint.clone(),
                        token,
                        quantum: inner
                            .quantum
                            .saturating_mul(1u32 << job.boost.min(MAX_BOOST)),
                        cancel_requested: job.cancel_requested,
                    };
                }
                let (guard, _) = inner
                    .work
                    .wait_timeout(state, Duration::from_millis(20))
                    .expect("service state poisoned");
                state = guard;
            }
        };
        run_slice(inner, claim);
    }
}

/// Runs one time slice of one job and writes the outcome back.
fn run_slice(inner: &Arc<Inner>, claim: Claim) {
    let budget = Budget::unlimited()
        .with_deadline(claim.quantum)
        .with_cancel_token(claim.token.clone());
    let scripted = !claim.passes.is_empty();
    let mut config = effective_config(claim.preset);
    if !scripted && inner.spill.is_some() && inner.checkpoint_every_secs > 0.0 {
        config = config.checkpoint_every_secs(inner.checkpoint_every_secs);
    }
    let mut sink = SpillSink {
        spill: inner.spill.as_ref(),
        fp: claim.fp,
        crashed: &inner.crashed,
    };

    // A checkpoint that no longer decodes (e.g. spilled by an older build)
    // degrades to a fresh start — correct, just slower.  Scripted jobs
    // shed any stray checkpoint outright: a sweep checkpoint cannot
    // restart a pipeline at the right pass.
    let (decoded, drop_checkpoint) = if scripted {
        (None, claim.checkpoint.is_some())
    } else {
        match &claim.checkpoint {
            Some(bytes) => match SweepCheckpoint::decode(bytes) {
                Ok(checkpoint) => (Some(checkpoint), false),
                Err(_) => (None, true),
            },
            None => (None, false),
        }
    };
    let result = if scripted {
        // The script was validated at submission; a parse failure here
        // means the spill directory handed us something newer than this
        // build understands, which fails the job instead of looping.
        match PassManager::new(config).with_script(&claim.passes) {
            Ok(pipeline) => pipeline
                .budget(budget)
                .run(&claim.aig)
                .map(|finished| finished.into_sweep_result())
                .map_err(|err| match err {
                    // Mid-script budget trips requeue the whole script:
                    // drop the inner sweep's checkpoint so the write-back
                    // takes the no-checkpoint (boost + requeue) path.
                    SweepError::BudgetExhausted { cause, partial, .. } => {
                        SweepError::BudgetExhausted {
                            cause,
                            partial,
                            checkpoint: None,
                        }
                    }
                    other => other,
                }),
            Err(err) => Err(SweepError::Inconsistent(format!(
                "pass script no longer parses: {err}"
            ))),
        }
    } else {
        let sweeper = Sweeper::new(claim.engine)
            .config(config)
            .budget(budget)
            .observer(&mut sink);
        match &decoded {
            Some(checkpoint) => sweeper
                .resume_from(&claim.aig, checkpoint)
                .and_then(|session| session.run()),
            None => sweeper.begin(&claim.aig).and_then(|session| session.run()),
        }
    };

    // Write-back under the lock; a simulated crash discards everything.
    let mut state = inner.state.lock().expect("service state poisoned");
    if inner.crashed.load(Ordering::Relaxed) {
        return;
    }
    let Some(job) = state.jobs.get_mut(&claim.id) else {
        return;
    };
    job.running_token = None;
    job.slices += 1;
    if drop_checkpoint {
        job.checkpoint = None;
    }
    match result {
        Ok(result) => {
            job.state = JobState::Done;
            job.sat_calls = result.report.sat_calls_total;
            job.committed = (result.report.merges + result.report.constants) as u64;
            job.output = Some((
                write_aiger_string(&result.aig),
                JobCounters::from_report(&result.report),
            ));
            job.checkpoint = None;
            if let Some(spill) = &inner.spill {
                let _ = spill.remove(job.fp);
            }
            inner.done.notify_all();
        }
        Err(SweepError::BudgetExhausted { checkpoint, .. }) => {
            if job.cancel_requested || claim.cancel_requested {
                job.state = JobState::Cancelled;
                job.checkpoint = None;
                if let Some(spill) = &inner.spill {
                    let _ = spill.remove(job.fp);
                }
                inner.done.notify_all();
            } else {
                match checkpoint {
                    Some(checkpoint) => {
                        let progressed = checkpoint.committed_candidates() > job.committed
                            || checkpoint.sat_calls() > job.sat_calls;
                        job.boost = if progressed {
                            0
                        } else {
                            (job.boost + 1).min(MAX_BOOST)
                        };
                        job.sat_calls = checkpoint.sat_calls();
                        job.committed = checkpoint.committed_candidates();
                        let encoded = checkpoint.encode();
                        if let Some(spill) = &inner.spill {
                            let _ = spill.write_checkpoint(job.fp, &encoded);
                        }
                        job.checkpoint = Some(encoded);
                        job.state = JobState::Suspended;
                    }
                    None => {
                        // The deadline tripped before the session was even
                        // primed: keep the previous checkpoint (if any) and
                        // try again with a doubled quantum.
                        job.boost = (job.boost + 1).min(MAX_BOOST);
                        job.state = if job.checkpoint.is_some() {
                            JobState::Suspended
                        } else {
                            JobState::Queued
                        };
                    }
                }
                inner.work.notify_all();
            }
        }
        Err(err) => {
            job.state = JobState::Failed;
            job.error = err.to_string();
            job.checkpoint = None;
            if let Some(spill) = &inner.spill {
                let _ = spill.remove(job.fp);
            }
            inner.done.notify_all();
        }
    }
}
