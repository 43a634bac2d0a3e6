//! Multi-threaded refinement checking: a work-stealing product exploration.
//!
//! The paper (§VII-A) points at FDR's grid/cloud support as the route to
//! checking at automotive scale. This module is the single-machine
//! analogue. The engine is *model-parameterised*: one product walker
//! serves `[T=` (trace), `[F=` (stable-failures) and — composed with the
//! shared τ-divergence routine — `[FD=` checks. In failures mode each
//! worker additionally runs the same word-level refusal test as the serial
//! engine (`FailureProbe`) against the spec's bitset acceptance pool when
//! it expands a stable implementation state. It is built from three
//! pieces:
//!
//! * **Per-worker deques with stealing.** Every worker owns a LIFO deque
//!   ([`crossbeam::deque::Worker`]); when it runs dry it steals batches
//!   from the global injector or a sibling's deque, so stragglers never
//!   idle at a level barrier (the previous engine was level-synchronised
//!   and serialised the visited-set merge between levels).
//! * **An insert-once sharded visited set.** Discovered `(impl state,
//!   spec node)` pairs live in `N` lock-striped shards keyed by a hash of
//!   the pair, each padded to its own cache line. A worker touches exactly
//!   one shard per discovered edge, so contention falls off with the shard
//!   count. A pair is queued only by the insert that discovers it, so every
//!   pair is expanded at most once.
//! * **A canonical re-walk for counterexamples.** The pass ends at the
//!   first recorded violation and keeps only its visible depth `L`. The
//!   engine then re-walks the product *bounded to depth `L`* with the
//!   serial 0-1 BFS, which canonicalises the witness: verdicts **and**
//!   counterexample traces are identical to the serial engine's (and to
//!   [`crate::Checker::trace_refinement`] and its siblings) and
//!   deterministic across runs and thread counts. `L` is the depth of a
//!   real path to a violation, so a violation at depth ≤ `L` is known to
//!   exist and the bounded walk finds the minimal one. It touches only the
//!   ≤ `L` sphere of the product, so a shallow violation in a huge model
//!   costs a shallow walk, not a second full exploration.
//!
//! Termination uses a global pending-task counter: workers exit when every
//! deque is empty and no task is in flight, or as soon as a violation is
//! recorded. A worker panic is converted into [`CheckError::Internal`]
//! instead of aborting the process.
//!
//! A budget cut or a checkpoint captures the frontier format both engines
//! share ([`Frontier`]): the visited set, the outstanding tasks with their
//! visible depths and the recorded violation depth. Checkpoints are taken
//! in passing. When the discovered count reaches the next checkpoint, the
//! workers wind down as for a budget cut, the frontier is handed over, and
//! the leftover tasks are re-seeded for a fresh round of workers over the
//! same shards; nothing is restored or re-inserted within a run.
//!
//! One caveat is inherent to racing the product bound: when the product
//! has *more* reachable pairs than [`crate::Checker::max_product`] **and** also
//! contains a violation, the engine may deterministically report either
//! the violation or [`CheckError::ProductExceeded`] depending on discovery
//! order. Within the bound, results are exact and deterministic.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use crossbeam::utils::{Backoff, CachePadded};
use csp::{CsrEdges, Label, Lts, StateId};

use crate::checker::{refine_zero_one, Budget, Checkpoints, FailureProbe, RefinementModel};
use crate::counterexample::{BudgetReason, Inconclusive, Verdict};
use crate::error::CheckError;
use crate::normalise::{NormNodeId, NormalisedLts};
use crate::persist::{pair_at, Frontier};
use crate::stats::CheckStats;
use crate::store::CompiledModel;

type Pair = (StateId, NormNodeId);

/// Most workers the engine will spawn (worker ids are reported as a `u16`).
pub(crate) const MAX_THREADS: usize = 256;

/// Refine a compiled implementation against a normalised spec on `threads`
/// workers, in walk model `model` ([`RefinementModel::walk`]), under
/// `budget`, taking `checkpoints` in passing. Pass `resume` to continue
/// from a frontier either engine wrote; an `Inconclusive` verdict comes
/// back with the continuation frontier.
///
/// When the budget runs out mid-pass:
///
/// * with no violation recorded, the verdict is [`Verdict::Inconclusive`];
/// * with a violation recorded, the canonical re-walk runs under a *fresh*
///   instance of the same budget — if it completes, the conclusive
///   [`Verdict::Fail`] is returned (a found counterexample is sound
///   regardless of how much of the product was explored); if it too runs
///   out, the verdict degrades to [`Verdict::Inconclusive`].
///
/// The frontier keeps only the visited set, the outstanding tasks and the
/// recorded violation depth. The verdict and counterexample are
/// nevertheless exact, because every conclusive [`Verdict::Fail`] is
/// produced by the canonical bounded serial re-walk, never by the racing
/// pass itself. Callers must validate the frontier against these exact
/// models first ([`Frontier::validate`]). Determinism across runs and
/// thread counts holds for unbudgeted checks: a wall-clock budget observes
/// real time, and a state budget races discovery order between workers.
///
/// The returned stats leave `wall` to the caller.
///
/// # Errors
///
/// [`CheckError::ProductExceeded`] if the product grows past
/// `max_product`; [`CheckError::Internal`] if a worker panics.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine(
    norm: &NormalisedLts,
    compiled: &CompiledModel,
    model: RefinementModel,
    threads: usize,
    max_product: usize,
    budget: &Budget,
    resume: Option<&Frontier>,
    checkpoints: Option<Checkpoints<'_>>,
) -> Result<(Verdict, Option<Frontier>, CheckStats), CheckError> {
    let threads = threads.clamp(1, MAX_THREADS);
    let (violation, exhausted, frontier, mut stats) = explore(
        norm,
        compiled,
        model,
        threads,
        max_product,
        budget,
        resume,
        checkpoints,
    )?;
    if exhausted.is_some() {
        stats.wall_overshoot = budget.wall_overshoot();
    }

    let verdict = match violation {
        None => exhausted.map_or(Verdict::Pass, |reason| {
            Verdict::Inconclusive(Inconclusive::new(stats.pairs_discovered, reason))
        }),
        Some(depth) => {
            // On a budget-cut pass the re-walk runs under a fresh budget
            // of its own and may itself come back inconclusive.
            let rewalk_budget = exhausted.map_or_else(Budget::unbounded, |_| budget.restarted());
            let (bounded, _, rewalk) = refine_zero_one(
                norm,
                compiled.lts(),
                model,
                max_product,
                Some(depth),
                &rewalk_budget,
                None,
                None,
            )?;
            stats.rewalk_expansions = rewalk.expansions;
            match bounded {
                Verdict::Pass => Verdict::Inconclusive(Inconclusive::new(
                    stats.pairs_discovered,
                    exhausted.expect("bounded re-walk can only pass after a budget cut"),
                )),
                other => return Ok((other, None, stats)),
            }
        }
    };
    Ok((verdict, frontier, stats))
}

/// The visited-set shard count for `threads` workers.
pub(crate) fn shard_count(threads: usize) -> usize {
    (threads.clamp(1, MAX_THREADS).next_power_of_two() * 16).clamp(16, 512)
}

/// A unit of work: one product pair to expand, with the visible depth of
/// the path that discovered it.
#[derive(Clone, Copy)]
struct Task {
    s: StateId,
    n: NormNodeId,
    vlen: u32,
}

/// State shared by all workers.
struct Shared {
    shards: Vec<CachePadded<Mutex<HashSet<Pair>>>>,
    shard_mask: usize,
    injector: Injector<Task>,
    /// Tasks queued or in flight; 0 ⇔ exploration is complete.
    pending: AtomicUsize,
    /// Distinct pairs discovered (for the product bound).
    discovered: AtomicUsize,
    /// Visible depth of the recorded violation (`u32::MAX` while none).
    /// Once set, every worker winds down: the canonical re-walk takes over.
    violation: AtomicU32,
    /// Product bound tripped: abandon the run.
    overflow: AtomicBool,
    /// A resource budget ran out: wind down and report
    /// [`Verdict::Inconclusive`] (unless a violation was already found).
    budget_hit: AtomicBool,
    /// Which budget ran out first.
    budget_reason: Mutex<Option<BudgetReason>>,
    /// A checkpoint is due: wind down this round of workers, as for a
    /// budget cut, so the frontier can be captured and re-seeded.
    pause: AtomicBool,
    /// A sibling panicked: abandon the run instead of spinning forever on
    /// its undrained pending count.
    panicked: AtomicBool,
    max_product: usize,
    budget: Budget,
}

impl Shared {
    /// Record budget exhaustion (first reason wins) and signal wind-down.
    fn exhaust(&self, reason: BudgetReason) {
        let mut slot = self
            .budget_reason
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        slot.get_or_insert(reason);
        self.budget_hit.store(true, Ordering::Relaxed);
    }

    /// Insert `pair` into its shard; `true` when it was not there before.
    fn insert(&self, pair: Pair) -> bool {
        lock_shard(&self.shards[shard_of(pair, self.shard_mask)]).insert(pair)
    }

    /// Whether any worker should stop taking tasks.
    fn winding_down(&self) -> bool {
        self.violation.load(Ordering::Relaxed) != u32::MAX
            || self.overflow.load(Ordering::Relaxed)
            || self.budget_hit.load(Ordering::Relaxed)
            || self.pause.load(Ordering::Relaxed)
            || self.panicked.load(Ordering::Relaxed)
    }
}

fn shard_of(pair: Pair, mask: usize) -> usize {
    let x = pair.0.index() as u64;
    let y = pair.1.index() as u64;
    let h = (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ y.wrapping_mul(0xA24B_AED4_963E_E407))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) & mask
}

fn lock_shard(shard: &Mutex<HashSet<Pair>>) -> std::sync::MutexGuard<'_, HashSet<Pair>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-worker counters, merged into [`CheckStats`] after the join.
#[derive(Default)]
struct WorkerStats {
    expansions: u64,
    transitions: u64,
    steals: u64,
    frontier_peak: u64,
    busy: Duration,
}

/// Arms on entry; disarmed on orderly exit. If the worker unwinds instead,
/// `Drop` flips the shared flag so siblings stop waiting for its pending
/// tasks.
struct PanicGuard<'a> {
    shared: &'a Shared,
    armed: bool,
}

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.shared.panicked.store(true, Ordering::Relaxed);
        }
    }
}

/// What the parallel decision pass ended with: the visible depth of the
/// recorded violation (`None` when none was recorded), the budget that cut
/// the pass short and the continuation frontier (both `None` on a complete
/// pass), and the pass's statistics.
type Pass = (
    Option<u32>,
    Option<BudgetReason>,
    Option<Frontier>,
    CheckStats,
);

/// The parallel decision pass.
///
/// Workers run in rounds. A round ends with the pass, or when the
/// discovered count reaches the next checkpoint: the workers wind down as
/// for a budget cut, the frontier goes to `checkpoints`, and the leftover
/// tasks are re-seeded for a fresh round of workers over the same shards.
#[allow(clippy::too_many_arguments)]
fn explore(
    norm: &NormalisedLts,
    compiled: &CompiledModel,
    model: RefinementModel,
    threads: usize,
    max_product: usize,
    budget: &Budget,
    resume: Option<&Frontier>,
    mut checkpoints: Option<Checkpoints<'_>>,
) -> Result<Pass, CheckError> {
    let (impl_lts, csr) = (compiled.lts(), compiled.csr());
    let shard_count = shard_count(threads);
    let shards: Vec<CachePadded<Mutex<HashSet<Pair>>>> = (0..shard_count)
        .map(|_| CachePadded::new(Mutex::new(HashSet::new())))
        .collect();

    let shared = Shared {
        shards,
        shard_mask: shard_count - 1,
        injector: Injector::new(),
        pending: AtomicUsize::new(0),
        discovered: AtomicUsize::new(0),
        violation: AtomicU32::new(u32::MAX),
        overflow: AtomicBool::new(false),
        budget_hit: AtomicBool::new(false),
        budget_reason: Mutex::new(None),
        pause: AtomicBool::new(false),
        panicked: AtomicBool::new(false),
        max_product,
        budget: *budget,
    };
    // Counters accumulate across interrupt/resume so the final stats read
    // as if the run had never stopped.
    let mut stats = CheckStats {
        threads,
        shards: shard_count,
        ..CheckStats::default()
    };

    // Seed: the root pair on a fresh run; on a resumed run the frontier's
    // visited set, violation depth and outstanding tasks. Tasks go through
    // the injector so whichever worker starts first claims them.
    match resume {
        Some(f) => {
            for &(s, n) in &f.visited {
                shared.insert(pair_at(s, n));
            }
            shared
                .discovered
                .store(f.discovered as usize, Ordering::Relaxed);
            shared.violation.store(f.violation, Ordering::Relaxed);
            shared.pending.store(f.pending.len(), Ordering::Relaxed);
            for &(s, n, vlen) in &f.pending {
                let (s, n) = pair_at(s, n);
                shared.injector.push(Task { s, n, vlen });
            }
            stats.expansions = f.expansions;
            stats.transitions = f.transitions;
            stats.steals = f.steals;
            stats.frontier_peak = f.frontier_peak;
        }
        None => {
            let (s, n) = (impl_lts.initial(), norm.initial());
            shared.insert((s, n));
            shared.discovered.store(1, Ordering::Relaxed);
            shared.pending.store(1, Ordering::Relaxed);
            shared.injector.push(Task { s, n, vlen: 0 });
        }
    }

    // One round of workers, until the pass ends or `pause_at` pairs are
    // known. Their counters go to `stats`, and the tasks still queued in
    // their deques to `leftovers`.
    let round = |pause_at: u64,
                 stats: &mut CheckStats,
                 leftovers: &mut Vec<Task>|
     -> Result<(), CheckError> {
        let locals: Vec<Worker<Task>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<Task>> = locals.iter().map(Worker::stealer).collect();
        let mut panic_message: Option<(u16, String)> = None;
        crossbeam::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for (me, local) in locals.into_iter().enumerate() {
                let (shared, stealers) = (&shared, &stealers);
                handles.push(scope.spawn(move |_| {
                    let mut ctx = WorkerCtx {
                        me,
                        local,
                        shared,
                        stealers,
                        pause_at,
                        norm,
                        csr,
                        model,
                        impl_lts,
                        probe: FailureProbe::new(norm),
                        stats: WorkerStats::default(),
                    };
                    ctx.run();
                    // Drain what this worker never got to: after a wind-down
                    // the local deque still holds queued tasks that belong
                    // in the frontier.
                    let leftovers: Vec<Task> = std::iter::from_fn(|| ctx.local.pop()).collect();
                    (ctx.stats, leftovers)
                }));
            }
            for (me, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok((worker, tasks)) => {
                        stats.expansions += worker.expansions;
                        stats.transitions += worker.transitions;
                        stats.steals += worker.steals;
                        stats.frontier_peak = stats.frontier_peak.max(worker.frontier_peak);
                        stats.cpu_busy += worker.busy;
                        leftovers.extend(tasks);
                    }
                    Err(payload) => {
                        panic_message
                            .get_or_insert_with(|| (me as u16, panic_text(payload.as_ref())));
                    }
                }
            }
        })
        .map_err(|payload| CheckError::Internal {
            message: panic_text(payload.as_ref()),
            worker: None,
        })?;
        match panic_message {
            Some((worker, message)) => Err(CheckError::Internal {
                message,
                worker: Some(worker),
            }),
            None => Ok(()),
        }
    };

    let mut leftovers: Vec<Task> = Vec::new();
    loop {
        let discovered = shared.discovered.load(Ordering::Relaxed) as u64;
        let pause_at = checkpoints
            .as_ref()
            .map_or(u64::MAX, |c| c.due_after(discovered));
        round(pause_at, &mut stats, &mut leftovers)?;
        if shared.overflow.load(Ordering::Relaxed) {
            return Err(CheckError::ProductExceeded { limit: max_product });
        }
        if !shared.pause.swap(false, Ordering::Relaxed) || shared.winding_down() {
            break;
        }
        // A checkpoint in passing: hand over the frontier, then put every
        // leftover task back for the next round. Nothing is restored.
        drain_injector(&shared, &mut leftovers);
        if let Some(c) = checkpoints.as_mut() {
            (c.save)(capture(&shared, &leftovers, &stats));
        }
        for task in leftovers.drain(..) {
            shared.injector.push(task);
        }
    }

    let exhausted = *shared
        .budget_reason
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let violation = shared.violation.load(Ordering::Relaxed);
    stats.pairs_discovered = shared.discovered.load(Ordering::Relaxed) as u64;
    for shard in &shared.shards {
        stats.shard_peak = stats.shard_peak.max(lock_shard(shard).len() as u64);
    }
    let frontier = exhausted.is_some().then(|| {
        drain_injector(&shared, &mut leftovers);
        capture(&shared, &leftovers, &stats)
    });
    Ok((
        (violation != u32::MAX).then_some(violation),
        exhausted,
        frontier,
        stats,
    ))
}

/// Move every task still in the injector to `tasks`.
fn drain_injector(shared: &Shared, tasks: &mut Vec<Task>) {
    loop {
        match shared.injector.steal() {
            Steal::Success(task) => tasks.push(task),
            Steal::Retry => {}
            Steal::Empty => break,
        }
    }
}

/// The frontier of a wound-down pass: the visited set in shard order, the
/// outstanding `tasks` (sorted, so the pending list does not depend on
/// which worker held which task), the recorded violation and the counters.
fn capture(shared: &Shared, tasks: &[Task], stats: &CheckStats) -> Frontier {
    let mut pending: Vec<(u32, u32, u32)> = tasks
        .iter()
        .map(|t| (t.s.index() as u32, t.n.index() as u32, t.vlen))
        .collect();
    pending.sort_unstable();
    let discovered = shared.discovered.load(Ordering::Relaxed);
    let mut visited: Vec<(u32, u32)> = Vec::with_capacity(discovered);
    for shard in &shared.shards {
        visited.extend(
            lock_shard(shard)
                .iter()
                .map(|&(s, n)| (s.index() as u32, n.index() as u32)),
        );
    }
    Frontier {
        visited,
        pending,
        discovered: discovered as u64,
        violation: shared.violation.load(Ordering::Relaxed),
        expansions: stats.expansions,
        transitions: stats.transitions,
        steals: stats.steals,
        frontier_peak: stats.frontier_peak,
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker thread panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker thread panicked: {s}")
    } else {
        "worker thread panicked".to_owned()
    }
}

/// One worker's execution context.
struct WorkerCtx<'a> {
    me: usize,
    local: Worker<Task>,
    shared: &'a Shared,
    stealers: &'a [Stealer<Task>],
    /// Discovered-pair count at which this round winds down for a
    /// checkpoint (`u64::MAX` when none is due).
    pause_at: u64,
    norm: &'a NormalisedLts,
    csr: &'a CsrEdges,
    model: RefinementModel,
    /// The implementation, read only for its Ω bits: `csr` holds its edges.
    impl_lts: &'a Lts,
    /// Per-worker scratch row for the word-level refusal test.
    probe: FailureProbe,
    stats: WorkerStats,
}

impl WorkerCtx<'_> {
    fn run(&mut self) {
        let started = Instant::now();
        let mut idle = Duration::ZERO;
        let mut processed: u64 = 0;
        let backoff = Backoff::new();
        let mut guard = PanicGuard {
            shared: self.shared,
            armed: true,
        };
        loop {
            if self.shared.winding_down() {
                break;
            }
            // Wall-clock budget: sampled every 256th task to stay off the
            // hot path (each worker samples independently).
            if processed & 255 == 0 {
                if let Some(reason) = self.shared.budget.wall_exceeded() {
                    self.shared.exhaust(reason);
                    break;
                }
            }
            match self.find_task() {
                Some(task) => {
                    // State budget: checked between tasks, so an expansion
                    // is atomic — a task either fully expands (all its
                    // successors offered) or goes back in the deque for the
                    // checkpoint frontier. A mid-expansion cut would leave
                    // a half-offered task that no resume could finish.
                    let count = self.shared.discovered.load(Ordering::Relaxed) as u64;
                    if let Some(reason) = self.shared.budget.states_exceeded(count) {
                        self.shared.exhaust(reason);
                        self.local.push(task);
                        break;
                    }
                    if count >= self.pause_at {
                        self.shared.pause.store(true, Ordering::Relaxed);
                        self.local.push(task);
                        break;
                    }
                    backoff.reset();
                    processed += 1;
                    self.process(task);
                    self.shared.pending.fetch_sub(1, Ordering::Release);
                }
                None => {
                    if self.shared.pending.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    let waiting = Instant::now();
                    backoff.snooze();
                    idle += waiting.elapsed();
                }
            }
        }
        guard.armed = false;
        drop(guard);
        self.stats.busy = started.elapsed().saturating_sub(idle);
    }

    /// Pop local work, or steal a batch from the injector / a sibling.
    fn find_task(&mut self) -> Option<Task> {
        if let Some(task) = self.local.pop() {
            return Some(task);
        }
        loop {
            let mut retry = false;
            match self.shared.injector.steal_batch_and_pop(&self.local) {
                Steal::Success(task) => {
                    self.stats.steals += 1;
                    return Some(task);
                }
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
            let n = self.stealers.len();
            for k in 1..n {
                let victim = (self.me + k) % n;
                match self.stealers[victim].steal_batch_and_pop(&self.local) {
                    Steal::Success(task) => {
                        self.stats.steals += 1;
                        return Some(task);
                    }
                    Steal::Retry => retry = true,
                    Steal::Empty => {}
                }
            }
            if !retry {
                return None;
            }
        }
    }

    /// Expand one product pair: scan its implementation edges and offer the
    /// successors, or record a violation and stop.
    fn process(&mut self, task: Task) {
        self.stats.expansions += 1;
        // Failures mode: the same stability/refusal test the serial engine
        // runs when it dequeues a pair. A refusal violation's witness is
        // the path *to* the pair, so its depth is exactly `task.vlen`.
        if self.model == RefinementModel::Failures {
            let omega = self.impl_lts.is_omega(task.s);
            if self
                .probe
                .violation(self.norm, task.n, self.csr.edges(task.s), omega)
                .is_some()
            {
                return self.record_violation(task.vlen);
            }
        }
        for &(label, target) in self.csr.edges(task.s) {
            self.stats.transitions += 1;
            match label {
                Label::Tau => self.offer(target, task.n, task.vlen),
                Label::Event(e) => match self.norm.after(task.n, e) {
                    Some(n2) => self.offer(target, n2, task.vlen + 1),
                    None => return self.record_violation(task.vlen),
                },
                Label::Tick => {
                    if !self.norm.allows_tick(task.n) {
                        return self.record_violation(task.vlen);
                    }
                }
            }
        }
    }

    /// Offer a successor pair at visible depth `vlen`: the worker whose
    /// insert discovers it queues it; every later offer is a no-op.
    fn offer(&mut self, s: StateId, n: NormNodeId, vlen: u32) {
        if !self.shared.insert((s, n)) {
            return;
        }
        let count = self.shared.discovered.fetch_add(1, Ordering::Relaxed) + 1;
        if count > self.shared.max_product {
            self.shared.overflow.store(true, Ordering::Relaxed);
            return;
        }
        let pending = self.shared.pending.fetch_add(1, Ordering::Release) + 1;
        self.stats.frontier_peak = self.stats.frontier_peak.max(pending as u64);
        self.local.push(Task { s, n, vlen });
    }

    /// Record a violation at visible depth `vlen`, ending the pass.
    fn record_violation(&self, vlen: u32) {
        self.shared.violation.fetch_min(vlen, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{CheckOptions, Checker};
    use crate::counterexample::FailureKind;
    use csp::{Definitions, EventId, Process};

    fn e(n: u32) -> EventId {
        EventId::from_index(n as usize)
    }

    /// The work-stealing engine on `threads` workers, from scratch, under
    /// `options`' budgets.
    fn work_stealing(
        c: &Checker,
        model: RefinementModel,
        spec: &Process,
        impl_: &Process,
        defs: &Definitions,
        threads: usize,
        options: &CheckOptions,
    ) -> Result<(Verdict, CheckStats), CheckError> {
        let norm = c.normalise(&c.compile(spec, defs)?)?;
        let compiled = CompiledModel::from_lts(c.compile(impl_, defs)?);
        let budget = Budget::start(options);
        refine(
            &norm,
            &compiled,
            model,
            threads,
            c.max_product(),
            &budget,
            None,
            None,
        )
        .map(|(verdict, _, stats)| (verdict, stats))
    }

    fn traces(
        c: &Checker,
        spec: &Process,
        impl_: &Process,
        defs: &Definitions,
        threads: usize,
    ) -> Result<Verdict, CheckError> {
        let unbounded = CheckOptions::UNBOUNDED;
        work_stealing(
            c,
            RefinementModel::Traces,
            spec,
            impl_,
            defs,
            threads,
            &unbounded,
        )
        .map(|(verdict, _)| verdict)
    }

    #[test]
    fn parallel_agrees_with_serial_on_pass() {
        let defs = Definitions::new();
        let spec = Process::external_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        let impl_ = Process::prefix(e(0), Process::Stop);
        let c = Checker::new();
        let v = traces(&c, &spec, &impl_, &defs, 4).unwrap();
        assert!(v.is_pass());
    }

    #[test]
    fn parallel_agrees_with_serial_on_fail() {
        let defs = Definitions::new();
        let spec = Process::prefix(e(0), Process::Stop);
        let impl_ = Process::prefix(e(0), Process::prefix(e(1), Process::Stop));
        let c = Checker::new();
        let parallel = traces(&c, &spec, &impl_, &defs, 4).unwrap();
        let serial = c.trace_refinement(&spec, &impl_, &defs).unwrap();
        assert_eq!(parallel, serial);
        assert!(!parallel.is_pass());
    }

    #[test]
    fn large_interleaving_checked_in_parallel() {
        // n independent two-event components: state space 3^n.
        let n = 7;
        let components: Vec<Process> = (0..n)
            .map(|i| Process::prefix(e(2 * i), Process::prefix(e(2 * i + 1), Process::Stop)))
            .collect();
        let impl_ = Process::interleave_all(components);
        let mut specdefs = Definitions::new();
        let universe: csp::EventSet = (0..2 * n).map(e).collect();
        let spec = crate::properties::run(&mut specdefs, "RUN", &universe);
        let c = Checker::new();
        let (v, stats) = work_stealing(
            &c,
            RefinementModel::Traces,
            &spec,
            &impl_,
            &specdefs,
            4,
            &CheckOptions::UNBOUNDED,
        )
        .unwrap();
        assert!(v.is_pass());
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.pairs_discovered, 3u64.pow(7));
        assert_eq!(stats.expansions, stats.pairs_discovered);
        assert!(stats.rewalk_expansions == 0, "no re-walk on pass");
    }

    #[test]
    fn a_shorter_path_found_later_does_not_re_expand() {
        // Each subtree is reachable after two visible events, and after one
        // visible and one hidden event. The halves mirror each other, so
        // whatever the edge order, a depth-first worker reaches one subtree
        // by its longer path first; a visited set keyed on depth would then
        // expand that subtree twice.
        let subtree = |base: u32| {
            Process::interleave_all(
                (0..3)
                    .map(|i| {
                        Process::prefix_chain([e(base + 2 * i), e(base + 2 * i + 1)], Process::Stop)
                    })
                    .collect(),
            )
        };
        let (q1, q2) = (subtree(0), subtree(6));
        let hidden = e(30);
        let impl_ = Process::hide(
            Process::external_choice_all(vec![
                Process::prefix_chain([e(12), hidden], q1.clone()),
                Process::prefix_chain([e(13), e(16)], q1),
                Process::prefix_chain([e(14), e(17)], q2.clone()),
                Process::prefix_chain([e(15), hidden], q2),
            ]),
            csp::EventSet::singleton(hidden),
        );
        let mut specdefs = Definitions::new();
        let universe: csp::EventSet = (0..18).map(e).collect();
        let spec = crate::properties::run(&mut specdefs, "RUN", &universe);
        let c = Checker::new();
        let (serial, serial_stats) = crate::ModelStore::new()
            .check(
                &c,
                &crate::CheckRequest {
                    model: RefinementModel::Traces,
                    spec: &spec,
                    impl_: &impl_,
                    defs: &specdefs,
                    threads: 1,
                    options: CheckOptions::UNBOUNDED,
                },
            )
            .unwrap();
        assert!(serial.is_pass());
        assert_eq!(serial_stats.expansions, serial_stats.pairs_discovered);
        for threads in [1usize, 2, 4] {
            let (v, stats) = work_stealing(
                &c,
                RefinementModel::Traces,
                &spec,
                &impl_,
                &specdefs,
                threads,
                &CheckOptions::UNBOUNDED,
            )
            .unwrap();
            assert!(v.is_pass());
            assert_eq!(stats.pairs_discovered, serial_stats.pairs_discovered);
            assert_eq!(
                stats.expansions, stats.pairs_discovered,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn witness_is_canonical_across_thread_counts() {
        // An interleaving with a violation reachable along many schedules:
        // every thread count must report the identical counterexample.
        let honest: Vec<Process> = (0..4)
            .map(|i| Process::prefix(e(2 * i), Process::prefix(e(2 * i + 1), Process::Stop)))
            .collect();
        let rogue = Process::prefix(
            e(0),
            Process::prefix(e(2), Process::prefix(e(99), Process::Stop)),
        );
        let mut parts = honest;
        parts.push(rogue);
        let impl_ = Process::interleave_all(parts);
        let mut specdefs = Definitions::new();
        let universe: csp::EventSet = (0..8).map(e).collect();
        let spec = crate::properties::run(&mut specdefs, "RUN", &universe);

        let c = Checker::new();
        let serial = c.trace_refinement(&spec, &impl_, &specdefs).unwrap();
        let serial_cex = serial.counterexample().expect("violation expected");
        assert_eq!(
            serial_cex.kind(),
            &FailureKind::TraceViolation { event: Some(e(99)) }
        );
        for threads in [1usize, 2, 3, 4, 8] {
            let par = traces(&c, &spec, &impl_, &specdefs, threads).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn recorded_violation_depth_bounds_the_canonical_rewalk() {
        let defs = Definitions::new();
        let spec = Process::prefix(e(0), Process::prefix(e(1), Process::Stop));
        let impl_ = Process::prefix(
            e(0),
            Process::prefix(e(1), Process::prefix(e(2), Process::Stop)),
        );
        let c = Checker::new();
        let spec_lts = c.compile(&spec, &defs).unwrap();
        let norm = c.normalise(&spec_lts).unwrap();
        let compiled = CompiledModel::from_lts(c.compile(&impl_, &defs).unwrap());
        let (violation, exhausted, frontier, _) = explore(
            &norm,
            &compiled,
            RefinementModel::Traces,
            4,
            1_000_000,
            &Budget::unbounded(),
            None,
            None,
        )
        .unwrap();
        assert!(exhausted.is_none());
        assert!(frontier.is_none());
        assert_eq!(violation, Some(2));

        let (verdict, _, stats) = refine(
            &norm,
            &compiled,
            RefinementModel::Traces,
            4,
            c.max_product(),
            &Budget::unbounded(),
            None,
            None,
        )
        .unwrap();
        let cex = verdict.counterexample().expect("violation expected");
        assert_eq!(cex.trace().len(), 2);
        assert!(stats.rewalk_expansions > 0);
    }

    #[test]
    fn parallel_failures_agrees_with_serial_on_refusal() {
        // Internal choice refuses one branch in the implementation where
        // the spec's external choice accepts both: a pure `[F=` violation
        // that no trace check can see.
        let defs = Definitions::new();
        let spec = Process::external_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        let impl_ = Process::internal_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        let c = Checker::new();
        assert!(traces(&c, &spec, &impl_, &defs, 4).unwrap().is_pass());
        let serial = c.failures_refinement(&spec, &impl_, &defs).unwrap();
        assert!(!serial.is_pass());
        for threads in [1usize, 2, 4, 8] {
            let (par, _) = work_stealing(
                &c,
                RefinementModel::Failures,
                &spec,
                &impl_,
                &defs,
                threads,
                &CheckOptions::UNBOUNDED,
            )
            .unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn product_bound_is_enforced_in_parallel() {
        let defs = Definitions::new();
        let mut b = crate::checker::CheckerBuilder::new();
        b.max_product(4);
        let c = b.build();
        let spec = Process::prefix_chain((0..10).map(e), Process::Stop);
        let err = traces(&c, &spec, &spec, &defs, 4).unwrap_err();
        assert_eq!(err, CheckError::ProductExceeded { limit: 4 });
    }

    #[test]
    fn worker_panics_become_internal_errors() {
        // Exercise the same join-and-translate path the engine uses.
        let outcome: Result<(), CheckError> = crossbeam::scope(|scope| {
            let handle = scope.spawn(|_| -> () { panic!("injected fault") });
            match handle.join() {
                Ok(value) => Ok(value),
                Err(payload) => Err(CheckError::Internal {
                    message: panic_text(payload.as_ref()),
                    worker: Some(3),
                }),
            }
        })
        .expect("scope itself survives a joined worker panic");
        let err = outcome.unwrap_err();
        assert_eq!(
            err,
            CheckError::Internal {
                message: "worker thread panicked: injected fault".to_owned(),
                worker: Some(3),
            }
        );
        // The Display must preserve both the panic payload and the index of
        // the thread it came from — the CLI prints exactly this string.
        assert_eq!(
            err.to_string(),
            "internal checker error (worker 3): worker thread panicked: injected fault"
        );
    }

    #[test]
    fn state_budget_degrades_to_inconclusive() {
        // 3^9 product states against a budget of 100: the pass cannot
        // finish, and there is no violation to fall back on.
        let n = 9;
        let components: Vec<Process> = (0..n)
            .map(|i| Process::prefix(e(2 * i), Process::prefix(e(2 * i + 1), Process::Stop)))
            .collect();
        let impl_ = Process::interleave_all(components);
        let mut specdefs = Definitions::new();
        let universe: csp::EventSet = (0..2 * n).map(e).collect();
        let spec = crate::properties::run(&mut specdefs, "RUN", &universe);
        let c = Checker::new();
        let options = CheckOptions {
            max_states: Some(100),
            max_wall_ms: None,
        };
        let (v, stats) = work_stealing(
            &c,
            RefinementModel::Traces,
            &spec,
            &impl_,
            &specdefs,
            4,
            &options,
        )
        .unwrap();
        let inc = v.inconclusive().expect("must be inconclusive");
        assert_eq!(inc.reason, BudgetReason::States { limit: 100 });
        assert!(inc.states_explored >= 100);
        assert!(stats.pairs_discovered < 3u64.pow(9));
    }

    #[test]
    fn zero_wall_budget_degrades_to_inconclusive() {
        let n = 9;
        let components: Vec<Process> = (0..n)
            .map(|i| Process::prefix(e(2 * i), Process::prefix(e(2 * i + 1), Process::Stop)))
            .collect();
        let impl_ = Process::interleave_all(components);
        let mut specdefs = Definitions::new();
        let universe: csp::EventSet = (0..2 * n).map(e).collect();
        let spec = crate::properties::run(&mut specdefs, "RUN", &universe);
        let c = Checker::new();
        let options = CheckOptions {
            max_states: None,
            max_wall_ms: Some(0),
        };
        let (v, _) = work_stealing(
            &c,
            RefinementModel::Traces,
            &spec,
            &impl_,
            &specdefs,
            2,
            &options,
        )
        .unwrap();
        match v {
            Verdict::Inconclusive(inc) => {
                assert_eq!(inc.reason, BudgetReason::Wall { limit_ms: 0 });
            }
            other => panic!("expected inconclusive, got {other:?}"),
        }
    }

    #[test]
    fn violation_found_within_budget_stays_conclusive() {
        // The violation sits one event deep; even a tight state budget
        // leaves room to find and recover it.
        let defs = Definitions::new();
        let spec = Process::prefix(e(0), Process::Stop);
        let impl_ = Process::prefix(e(0), Process::prefix(e(1), Process::Stop));
        let c = Checker::new();
        let options = CheckOptions {
            max_states: Some(1_000),
            max_wall_ms: None,
        };
        let (v, _) = work_stealing(
            &c,
            RefinementModel::Traces,
            &spec,
            &impl_,
            &defs,
            4,
            &options,
        )
        .unwrap();
        let serial = c.trace_refinement(&spec, &impl_, &defs).unwrap();
        assert_eq!(v, serial);
        assert!(v.counterexample().is_some());
    }

    #[test]
    fn stats_json_round_trips_engine_fields() {
        let defs = Definitions::new();
        let spec = Process::prefix(e(0), Process::Stop);
        let c = Checker::new();
        let (_, stats) = work_stealing(
            &c,
            RefinementModel::Traces,
            &spec,
            &spec,
            &defs,
            2,
            &CheckOptions::UNBOUNDED,
        )
        .unwrap();
        let json = stats.to_json();
        assert!(json.contains("\"threads\":2"), "{json}");
        assert!(json.contains("\"shards\":"), "{json}");
    }
}
