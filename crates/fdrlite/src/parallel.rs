//! Multi-threaded refinement checking, where [`crate::ModelStore::check`]
//! moves a walk that outgrows the serial prefix: an owner-partitioned
//! product exploration, like FDR's parallel checker (Gibson-Robinson et
//! al., TACAS 2014), for `[T=`, `[F=` and (after its divergence phase)
//! `[FD=`. `docs/PARALLEL.md` has the design; in short:
//!
//! * Worker `i` owns the pairs a hash maps to `i`, in a private
//!   [`PairIndex`] and FIFO queue; only the insert that discovers a pair
//!   counts and queues it. A filter of recent offers drops repeats early.
//! * Successors owned elsewhere travel in batches: an outbox is handed
//!   over at [`BATCH`] tasks, every [`HAND_OVER_EVERY`] expansions and when
//!   the sender runs dry, into an inbox swapped with a spare on receipt.
//! * Discoveries reach the shared count in blocks of [`COUNT_BLOCK`], which
//!   the product bound and state budget are tested against. One atomic
//!   counts active workers plus batches in flight; zero ends the pass.
//! * The pass stops at the first violation it records. The serial 0-1 BFS
//!   bounded to that violation's depth then returns the canonical
//!   counterexample, equal to the serial explorer's at any owner count.
//!
//! A budget cut or checkpoint settles every offer in flight into its owner
//! and captures the owners as the shared [`Frontier`]; a checkpoint takes
//! each owner's pairs since the last one. A worker panic
//! becomes [`CheckError::Internal`]. A product that outgrows
//! [`crate::Checker::max_product`] *and* holds a violation may report
//! either, depending on discovery order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering::*};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use csp::{Label, Lts};

use crate::checker::{refine_zero_one, Budget, Checkpoints, FailureProbe, RefinementModel};
use crate::counterexample::{BudgetReason, Inconclusive, Verdict};
use crate::error::CheckError;
use crate::normalise::NormalisedLts;
use crate::pairs::{entry_of, key_at, pack, unpack, PairIndex};
use crate::persist::Frontier;
use crate::stats::CheckStats;
use crate::store::CompiledModel;

/// Most workers the engine will spawn (worker ids are reported as a `u16`).
pub(crate) const MAX_THREADS: usize = 256;
/// Tasks an outbox collects before it is handed over.
const BATCH: usize = 256;
/// Expansions between two hand-overs of every outbox; a worker also looks
/// at its inbox and at the stop flag this often.
const HAND_OVER_EVERY: u64 = 32;
/// A worker's filter of recent offers has `1 << RECENT_BITS` slots.
const RECENT_BITS: u32 = 12;
/// Discoveries an owner adds to the shared count at a time.
const COUNT_BLOCK: u64 = 64;

/// One product pair to expand, packed, with the visible depth of the path
/// to it.
#[derive(Clone, Copy)]
struct Task {
    key: u64,
    vlen: u32,
}

/// The owner of packed pair `key`: a hash unlike the [`PairIndex`]'s,
/// scaled to the owner count.
fn owner_of(key: u64, owners: usize) -> usize {
    let h = (key ^ (key >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 32;
    ((h * owners as u64) >> 32) as usize
}

/// The tasks handed over to one owner, on a cache line of its own.
#[derive(Default)]
#[repr(align(64))]
struct Inbox {
    tasks: Mutex<Vec<Task>>,
    /// Batches ever handed over; bumped under the lock.
    sent: AtomicU64,
}

/// State shared by all workers, and the walk's read-only inputs.
struct Shared<'a> {
    inboxes: Vec<Inbox>,
    /// Active workers plus batches in flight; zero ends the pass.
    active: AtomicUsize,
    /// Pairs discovered, short by up to a block per owner mid-round.
    discovered: AtomicU64,
    /// Visible depth of the recorded violation (`u32::MAX` while none).
    violation: AtomicU32,
    /// Wind the round down: a violation, the product bound, a budget, a
    /// due checkpoint or a panic.
    stop: AtomicBool,
    /// Which budget ran out first.
    exhausted: Mutex<Option<BudgetReason>>,
    /// The count at which this round winds down for a checkpoint.
    pause_at: AtomicU64,
    max_product: u64,
    budget: Budget,
    norm: &'a NormalisedLts,
    impl_lts: &'a Lts,
    model: RefinementModel,
}

impl Shared<'_> {
    /// Record budget exhaustion (first reason wins) and wind down.
    fn exhaust(&self, reason: BudgetReason) {
        lock(&self.exhausted).get_or_insert(reason);
        self.stop.store(true, Relaxed);
    }

    /// Record a violation at visible depth `vlen`, ending the pass.
    fn record_violation(&self, vlen: u32) {
        self.violation.fetch_min(vlen, Relaxed);
        self.stop.store(true, Relaxed);
    }

    /// Add `block` discoveries to the shared count, and wind down when it
    /// passes the product bound, the state budget or the next checkpoint.
    fn count(&self, block: u64) {
        let count = self.discovered.fetch_add(block, Relaxed) + block;
        if let Some(reason) = self.budget.states_exceeded(count) {
            self.exhaust(reason);
        }
        if count > self.max_product || count >= self.pause_at.load(Relaxed) {
            self.stop.store(true, Relaxed);
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One owner's partition and counters, kept across rounds of workers.
#[derive(Default)]
struct Owner {
    me: usize,
    index: PairIndex,
    queue: VecDeque<Task>,
    outboxes: Vec<Vec<Task>>,
    /// The last key offered in each slot, plus one (zero is free). An offer
    /// found here was made before: its owner has the pair or will get it.
    recent: Vec<u64>,
    /// Swapped with the inbox's buffer on receipt.
    spare: Vec<Task>,
    /// Batches taken from the inbox so far.
    received: u64,
    /// The leading pairs of `index` the checkpoint log holds.
    logged: usize,
    /// Discoveries not yet added to the shared count.
    uncounted: u64,
    probe: FailureProbe,
    expansions: u64,
    transitions: u64,
    queue_peak: u64,
    busy: Duration,
}

impl Owner {
    /// Insert an owned pair; a new one is counted and queued.
    fn adopt(&mut self, shared: &Shared<'_>, task: Task) {
        if !self.index.insert(task.key).1 {
            return;
        }
        self.queue.push_back(task);
        self.queue_peak = self.queue_peak.max(self.queue.len() as u64);
        self.uncounted += 1;
        if self.uncounted == COUNT_BLOCK {
            self.uncounted = 0;
            shared.count(COUNT_BLOCK);
        }
    }

    /// One round of work, until the pass ends or the round winds down.
    fn run(&mut self, shared: &Shared<'_>) {
        let (started, mut idle) = (Instant::now(), Duration::ZERO);
        let _guard = PanicGuard(shared);
        let mut expanded: u64 = 0;
        loop {
            let Some(task) = self.queue.pop_front() else {
                self.hand_over(shared, None);
                if self.receive(shared, false) {
                    continue;
                }
                let waiting = Instant::now();
                let over = self.wait(shared);
                idle += waiting.elapsed();
                if over {
                    break;
                }
                continue;
            };
            // An expansion is atomic: a task either offers every successor
            // or goes back to the queue for the frontier.
            if expanded.is_multiple_of(256) {
                if let Some(reason) = shared.budget.wall_exceeded() {
                    shared.exhaust(reason);
                    self.queue.push_front(task);
                    break;
                }
            }
            self.expand(shared, task);
            expanded += 1;
            if expanded.is_multiple_of(HAND_OVER_EVERY) {
                self.hand_over(shared, None);
                self.receive(shared, false);
                if shared.stop.load(Relaxed) {
                    break;
                }
            }
        }
        self.busy += started.elapsed().saturating_sub(idle);
    }

    /// Give up this worker's unit and idle until a batch arrives (`false`)
    /// or the pass ends or winds down (`true`).
    fn wait(&mut self, shared: &Shared<'_>) -> bool {
        shared.active.fetch_sub(1, SeqCst);
        let mut polls = 0u32;
        loop {
            if shared.stop.load(Relaxed) {
                return true;
            }
            if self.receive(shared, true) {
                return false;
            }
            if shared.active.load(SeqCst) == 0 {
                return true;
            }
            polls = polls.saturating_add(1);
            match polls {
                0..=63 => std::hint::spin_loop(),
                64..=127 => std::thread::yield_now(),
                _ => std::thread::sleep(Duration::from_micros(50)),
            }
        }
    }

    /// Expand one product pair: offer its successors, or record a
    /// violation (a refusal's witness is the path *to* the pair) and stop.
    fn expand(&mut self, shared: &Shared<'_>, task: Task) {
        self.expansions += 1;
        let (s, n) = unpack(task.key);
        let edges = shared.impl_lts.edges(s);
        if shared.model == RefinementModel::Failures {
            let omega = shared.impl_lts.is_omega(s);
            if self.probe.violation(shared.norm, n, edges, omega).is_some() {
                return shared.record_violation(task.vlen);
            }
        }
        for &(label, target) in edges {
            self.transitions += 1;
            let (n, vlen) = match label {
                Label::Tau => (n, task.vlen),
                Label::Event(e) => match shared.norm.after(n, e) {
                    Some(n2) => (n2, task.vlen + 1),
                    None => return shared.record_violation(task.vlen),
                },
                Label::Tick if shared.norm.allows_tick(n) => continue,
                Label::Tick => return shared.record_violation(task.vlen),
            };
            let key = pack(target, n);
            let seen = &mut self.recent
                [(key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - RECENT_BITS)) as usize];
            if std::mem::replace(seen, key.wrapping_add(1)) == key.wrapping_add(1) {
                continue;
            }
            let dest = owner_of(key, self.outboxes.len());
            if dest == self.me {
                self.adopt(shared, Task { key, vlen });
            } else {
                self.outboxes[dest].push(Task { key, vlen });
                if self.outboxes[dest].len() >= BATCH {
                    self.hand_over(shared, Some(dest));
                }
            }
        }
    }

    /// Hand outbox `dest`, or every outbox, over whole. Each batch holds a
    /// unit of the active count until its owner takes it.
    fn hand_over(&mut self, shared: &Shared<'_>, dest: Option<usize>) {
        let dests = dest.map_or(0..self.outboxes.len(), |d| d..d + 1);
        for (outbox, inbox) in self.outboxes[dests.clone()]
            .iter_mut()
            .zip(&shared.inboxes[dests])
        {
            if !outbox.is_empty() {
                shared.active.fetch_add(1, SeqCst);
                let mut tasks = lock(&inbox.tasks);
                tasks.append(outbox);
                inbox.sent.fetch_add(1, Release);
            }
        }
    }

    /// Adopt the tasks of every batch in the inbox, releasing the batches'
    /// units but one that an `idle` receiver keeps. Whether any came.
    fn receive(&mut self, shared: &Shared<'_>, idle: bool) -> bool {
        let inbox = &shared.inboxes[self.me];
        if inbox.sent.load(Acquire) == self.received {
            return false;
        }
        let mut tasks = std::mem::take(&mut self.spare);
        let sent = {
            let mut inboxed = lock(&inbox.tasks);
            std::mem::swap(&mut *inboxed, &mut tasks);
            inbox.sent.load(Relaxed)
        };
        let batches = sent - std::mem::replace(&mut self.received, sent);
        for task in tasks.drain(..) {
            self.adopt(shared, task);
        }
        self.spare = tasks;
        shared
            .active
            .fetch_sub((batches - u64::from(idle)) as usize, SeqCst);
        true
    }
}

/// Winds the round down if its worker unwinds, so siblings stop waiting
/// for its unit.
struct PanicGuard<'a, 'b>(&'a Shared<'b>);

impl Drop for PanicGuard<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop.store(true, Relaxed);
        }
    }
}

/// Refine a compiled implementation against a normalised spec on `threads`
/// owners, in walk model `model` ([`RefinementModel::walk`]), under
/// `budget`, taking `checkpoints` in passing, from the root or from a
/// `resume` frontier either engine wrote (validated by the caller). An
/// `Inconclusive` verdict comes back with the whole continuation frontier,
/// whose first `logged` pairs its checkpoint log already holds. A
/// violation recorded before a budget cut is settled by the re-walk under
/// a fresh instance of the budget, and is conclusive if that completes.
/// Unbudgeted verdicts are deterministic across runs and owner counts. The
/// returned stats leave `wall` to the caller.
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
    mut checkpoints: Option<&mut Checkpoints<'_>>,
) -> Result<(Verdict, Option<Frontier>, CheckStats), CheckError> {
    let threads = threads.clamp(1, MAX_THREADS);
    let shared = Shared {
        inboxes: (0..threads).map(|_| Inbox::default()).collect(),
        active: AtomicUsize::new(0),
        discovered: AtomicU64::new(1),
        violation: AtomicU32::new(u32::MAX),
        stop: AtomicBool::new(false),
        exhausted: Mutex::new(None),
        pause_at: AtomicU64::new(u64::MAX),
        max_product: max_product as u64,
        budget: *budget,
        norm,
        impl_lts: compiled.lts(),
        model,
    };
    let mut owners: Vec<Owner> = (0..threads)
        .map(|me| Owner {
            me,
            outboxes: vec![Vec::new(); threads],
            recent: vec![0; 1 << RECENT_BITS],
            probe: FailureProbe::new(norm),
            ..Owner::default()
        })
        .collect();
    // Counters carry on from the frontier's, as if the walk never stopped.
    let mut base = CheckStats::default();
    let pending: Vec<(u64, u32)> = match resume {
        Some(f) => {
            for &(s, n) in &f.visited {
                let key = key_at(s, n);
                owners[owner_of(key, threads)].index.insert(key);
            }
            shared.discovered.store(f.discovered, Relaxed);
            shared.violation.store(f.violation, Relaxed);
            (base.expansions, base.transitions) = (f.expansions, f.transitions);
            (base.batches, base.frontier_peak) = (f.batches, f.frontier_peak);
            f.pending
                .iter()
                .map(|&(s, n, vlen)| (key_at(s, n), vlen))
                .collect()
        }
        None => vec![(pack(compiled.lts().initial(), norm.initial()), 0)],
    };
    // A pending pair is visited, even one the frontier lists only as pending.
    for (key, vlen) in pending {
        let owner = &mut owners[owner_of(key, threads)];
        owner.index.insert(key);
        owner.queue.push_back(Task { key, vlen });
    }

    loop {
        let discovered = shared.discovered.load(Relaxed);
        if let Some(reason) = budget.states_exceeded(discovered) {
            shared.exhaust(reason);
        }
        if shared.violation.load(Relaxed) != u32::MAX || lock(&shared.exhausted).is_some() {
            break;
        }
        let pause_at = checkpoints
            .as_ref()
            .map_or(u64::MAX, |c| c.due_after(discovered));
        shared.pause_at.store(pause_at, Relaxed);
        round(&mut owners, &shared)?;
        settle(&mut owners, &shared);
        if shared.discovered.load(Relaxed) > shared.max_product {
            return Err(CheckError::ProductExceeded { limit: max_product });
        }
        // Unless the pass ended, the round wound down for a checkpoint.
        let ended = shared.violation.load(Relaxed) != u32::MAX || lock(&shared.exhausted).is_some();
        if ended || owners.iter().all(|o| o.queue.is_empty()) {
            break;
        }
        if let Some(c) = checkpoints.as_mut() {
            let follows = (c.save)(&capture(&owners, &shared, &totals(&owners, &base), true));
            for o in &mut owners {
                o.logged = if follows { o.index.keys().len() } else { 0 };
            }
        }
    }

    let exhausted = *lock(&shared.exhausted);
    let shard_peak = owners.iter().map(|o| o.index.keys().len()).max();
    let mut stats = CheckStats {
        threads,
        shards: threads,
        pairs_discovered: shared.discovered.load(Relaxed),
        shard_peak: shard_peak.unwrap_or(0) as u64,
        wall_overshoot: exhausted.map_or(Duration::ZERO, |_| budget.wall_overshoot()),
        ..totals(&owners, &base)
    };
    let frontier = exhausted.map(|_| capture(&owners, &shared, &stats, false));
    let explored = stats.pairs_discovered;
    let inconclusive = |reason| Verdict::Inconclusive(Inconclusive::new(explored, reason));
    let depth = shared.violation.load(Relaxed);
    if depth == u32::MAX {
        let verdict = exhausted.map_or(Verdict::Pass, inconclusive);
        return Ok((verdict, frontier, stats));
    }
    // After a budget cut the re-walk runs under a fresh instance of it.
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
        Verdict::Pass => {
            let reason = exhausted.expect("bounded re-walk can only pass after a budget cut");
            Ok((inconclusive(reason), frontier, stats))
        }
        conclusive => Ok((conclusive, None, stats)),
    }
}

/// One round: a scoped worker thread per owner, until the pass ends or
/// winds down.
fn round(owners: &mut [Owner], shared: &Shared<'_>) -> Result<(), CheckError> {
    shared.active.store(owners.len(), SeqCst);
    shared.stop.store(false, Relaxed);
    std::thread::scope(|scope| {
        let workers: Vec<_> = owners
            .iter_mut()
            .map(|owner| scope.spawn(move || owner.run(shared)))
            .collect();
        let mut joined = workers
            .into_iter()
            .map(std::thread::ScopedJoinHandle::join)
            .enumerate();
        match joined.find_map(|(me, joined)| joined.err().map(|payload| (me, payload))) {
            Some((me, payload)) => Err(CheckError::Internal {
                message: panic_text(payload.as_ref()),
                worker: Some(me as u16),
            }),
            None => Ok(()),
        }
    })
}

/// After a round: move every offer still in an outbox or inbox into its
/// owner, and make the shared count exact.
fn settle(owners: &mut [Owner], shared: &Shared<'_>) {
    let mut stray: Vec<Task> = Vec::new();
    for (owner, inbox) in owners.iter_mut().zip(&shared.inboxes) {
        owner
            .outboxes
            .iter_mut()
            .for_each(|outbox| stray.append(outbox));
        stray.append(&mut lock(&inbox.tasks));
        owner.received = inbox.sent.load(Relaxed);
    }
    for task in stray {
        owners[owner_of(task.key, owners.len())].adopt(shared, task);
    }
    let uncounted = owners.iter_mut().map(|o| std::mem::take(&mut o.uncounted));
    shared.discovered.fetch_add(uncounted.sum(), Relaxed);
}

/// `base` plus the owners' counters.
fn totals(owners: &[Owner], base: &CheckStats) -> CheckStats {
    let sum = |count: fn(&Owner) -> u64| owners.iter().map(count).sum::<u64>();
    CheckStats {
        expansions: base.expansions + sum(|o| o.expansions),
        transitions: base.transitions + sum(|o| o.transitions),
        batches: base.batches + sum(|o| o.received),
        frontier_peak: base.frontier_peak.max(sum(|o| o.queue_peak)),
        cpu_busy: owners.iter().map(|o| o.busy).sum(),
        ..CheckStats::default()
    }
}

/// The frontier of a settled round: the owners' visited pairs, those the
/// checkpoint log holds first (only the others when `tail`), and queues
/// (sorted, whoever held which task), the violation and the counters.
fn capture(owners: &[Owner], shared: &Shared<'_>, stats: &CheckStats, tail: bool) -> Frontier {
    let queued = owners.iter().flat_map(|o| &o.queue);
    let mut pending: Vec<(u32, u32, u32)> = queued
        .map(|t| {
            let (s, n) = entry_of(t.key);
            (s, n, t.vlen)
        })
        .collect();
    pending.sort_unstable();
    let logged: usize = owners.iter().map(|o| o.logged).sum();
    let old = owners
        .iter()
        .filter(|_| !tail)
        .flat_map(|o| &o.index.keys()[..o.logged]);
    let new = owners.iter().flat_map(|o| &o.index.keys()[o.logged..]);
    Frontier {
        base: if tail { logged as u64 } else { 0 },
        visited: old.chain(new).map(|&key| entry_of(key)).collect(),
        logged: if tail { 0 } else { logged as u64 },
        pending,
        discovered: shared.discovered.load(Relaxed),
        violation: shared.violation.load(Relaxed),
        expansions: stats.expansions,
        transitions: stats.transitions,
        batches: stats.batches,
        frontier_peak: stats.frontier_peak,
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    match text.or_else(|| payload.downcast_ref::<String>().map(String::as_str)) {
        Some(s) => format!("worker thread panicked: {s}"),
        None => "worker thread panicked".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{CheckOptions, Checker};
    use crate::counterexample::FailureKind;
    use csp::{Definitions, EventId, EventSet, Process};
    use proptest::prelude::*;

    fn e(n: u32) -> EventId {
        EventId::from_index(n as usize)
    }

    /// The partitioned engine on `threads` owners, from scratch, under
    /// `options`' budgets.
    fn partitioned(
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
            c.max_product,
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
        partitioned(
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
        let (v, stats) = partitioned(
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
            let (v, stats) = partitioned(
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
        let (verdict, frontier, stats) = refine(
            &norm,
            &compiled,
            RefinementModel::Traces,
            4,
            c.max_product,
            &Budget::unbounded(),
            None,
            None,
        )
        .unwrap();
        let cex = verdict.counterexample().expect("violation expected");
        assert_eq!(cex.trace().len(), 2);
        assert!(frontier.is_none());
        // The violation lies at visible depth 2: the re-walk expands the
        // three pairs of that sphere and nothing beyond.
        assert_eq!(stats.rewalk_expansions, 3);
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
            let (par, _) = partitioned(
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
        let c = Checker {
            max_product: 4,
            ..Checker::new()
        };
        let spec = Process::prefix_chain((0..10).map(e), Process::Stop);
        let err = traces(&c, &spec, &spec, &defs, 4).unwrap_err();
        assert_eq!(err, CheckError::ProductExceeded { limit: 4 });
    }

    #[test]
    fn worker_panics_become_internal_errors() {
        // Exercise the same join-and-translate path the engine uses.
        let outcome: Result<(), CheckError> = std::thread::scope(|scope| {
            let handle = scope.spawn(|| -> () { panic!("injected fault") });
            match handle.join() {
                Ok(value) => Ok(value),
                Err(payload) => Err(CheckError::Internal {
                    message: panic_text(payload.as_ref()),
                    worker: Some(3),
                }),
            }
        });
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
        let (v, stats) = partitioned(
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
        let (v, _) = partitioned(
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
        let (v, _) = partitioned(
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
        let (_, stats) = partitioned(
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

    /// `n` interleaved two-event components against `RUN` over their
    /// events: a passing product of `3^n` pairs. With `rogue`, one more
    /// component performs an event `RUN` forbids after two steps.
    fn interleaving(n: u32, rogue: bool) -> (Process, Process, Definitions) {
        let mut parts: Vec<Process> = (0..n)
            .map(|i| Process::prefix_chain([e(2 * i), e(2 * i + 1)], Process::Stop))
            .collect();
        if rogue {
            parts.push(Process::prefix_chain([e(0), e(2), e(99)], Process::Stop));
        }
        let mut defs = Definitions::new();
        let universe: EventSet = (0..2 * n).map(e).collect();
        let spec = crate::properties::run(&mut defs, "RUN", &universe);
        (spec, Process::interleave_all(parts), defs)
    }

    /// The same random processes `tests/parallel_models_prop.rs` draws:
    /// prefixing, both choices, sequencing, interleaving, synchronised
    /// parallel and hiding over a 4-event alphabet.
    fn arb_process(depth: u32) -> BoxedStrategy<Process> {
        let leaf = prop_oneof![
            Just(Process::Stop),
            Just(Process::Skip),
            (0u32..4).prop_map(|i| Process::prefix(e(i), Process::Stop)),
        ];
        leaf.prop_recursive(depth, 24, 2, |inner| {
            prop_oneof![
                ((0u32..4), inner.clone()).prop_map(|(i, p)| Process::prefix(e(i), p)),
                (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::external_choice(p, q)),
                (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::internal_choice(p, q)),
                (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::seq(p, q)),
                (inner.clone(), inner.clone()).prop_map(|(p, q)| Process::interleave(p, q)),
                (
                    inner.clone(),
                    inner.clone(),
                    proptest::collection::vec(0u32..4, 0..3)
                )
                    .prop_map(|(p, q, sync)| {
                        Process::parallel(sync.into_iter().map(e).collect(), p, q)
                    }),
                (inner, proptest::collection::vec(0u32..4, 1..3))
                    .prop_map(|(p, hide)| { Process::hide(p, hide.into_iter().map(e).collect()) }),
            ]
        })
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Store checks of small models never leave the serial explorer,
        /// so this drives the partitioned engine directly: at 1, 2, 3 and
        /// 8 owners, in each model, it gives the serial explorer's verdict
        /// and counterexample, and on a pass discovers the serial product
        /// and expands each pair once.
        #[test]
        fn owners_match_the_serial_explorer(spec in arb_process(3), impl_ in arb_process(4)) {
            let (c, defs) = (Checker::new(), Definitions::new());
            let norm = c.normalise(&c.compile(&spec, &defs).unwrap()).unwrap();
            let compiled = CompiledModel::from_lts(c.compile(&impl_, &defs).unwrap());
            let divergent = !c.divergence_free(&impl_, &defs).unwrap().is_pass();
            for model in [
                RefinementModel::Traces,
                RefinementModel::Failures,
                RefinementModel::FailuresDivergences,
            ] {
                if model == RefinementModel::FailuresDivergences && divergent {
                    continue; // refuted before any product exists
                }
                let walk = model.walk();
                let unbounded = Budget::unbounded();
                let (serial, _, serial_stats) = refine_zero_one(
                    &norm, compiled.lts(), walk, c.max_product, None, &unbounded, None, None,
                )
                .unwrap();
                for owners in [1usize, 2, 3, 8] {
                    let (verdict, _, stats) = refine(
                        &norm, &compiled, walk, owners, c.max_product, &unbounded, None, None,
                    )
                    .unwrap();
                    prop_assert!(
                        verdict == serial,
                        "{:?} at {} owners: {:?} vs serial {:?}",
                        model,
                        owners,
                        verdict,
                        serial
                    );
                    if serial.is_pass() {
                        prop_assert_eq!(stats.pairs_discovered, serial_stats.pairs_discovered);
                        prop_assert_eq!(stats.expansions, stats.pairs_discovered);
                    }
                }
            }
        }
    }

    #[test]
    fn a_cut_at_8_owners_resumes_at_1_and_8() {
        let c = Checker::new();
        for rogue in [false, true] {
            let (spec, impl_, defs) = interleaving(9, rogue);
            let norm = c.normalise(&c.compile(&spec, &defs).unwrap()).unwrap();
            let compiled = CompiledModel::from_lts(c.compile(&impl_, &defs).unwrap());
            let reference = c.trace_refinement(&spec, &impl_, &defs).unwrap();
            assert_eq!(reference.is_pass(), !rogue);
            let cut = Budget::start(&CheckOptions {
                max_states: Some(2_000),
                max_wall_ms: None,
            });
            let walk = RefinementModel::Traces;
            let (verdict, frontier, _) =
                refine(&norm, &compiled, walk, 8, c.max_product, &cut, None, None).unwrap();
            if rogue && !verdict.is_inconclusive() {
                // The violation lies two steps in: the cut may come after it.
                assert_eq!(verdict, reference);
                continue;
            }
            assert!(verdict.is_inconclusive(), "{verdict:?}");
            let frontier = frontier.expect("a cut returns its frontier");
            assert!(!frontier.pending.is_empty());
            assert_eq!(frontier.visited.len() as u64, frontier.discovered);
            for owners in [1usize, 8] {
                let (resumed, _, stats) = refine(
                    &norm,
                    &compiled,
                    walk,
                    owners,
                    c.max_product,
                    &Budget::unbounded(),
                    Some(&frontier),
                    None,
                )
                .unwrap();
                assert_eq!(resumed, reference, "rogue={rogue} owners={owners}");
                if !rogue {
                    assert_eq!(stats.pairs_discovered, 3u64.pow(9));
                    assert_eq!(stats.expansions, stats.pairs_discovered);
                }
            }
        }
    }

    #[test]
    fn five_hundred_small_checks_at_8_owners_all_finish() {
        let (spec, impl_, defs) = interleaving(4, false);
        let c = Checker::new();
        let norm = c.normalise(&c.compile(&spec, &defs).unwrap()).unwrap();
        let compiled = CompiledModel::from_lts(c.compile(&impl_, &defs).unwrap());
        for _ in 0..500 {
            let (verdict, _, stats) = refine(
                &norm,
                &compiled,
                RefinementModel::Traces,
                8,
                c.max_product,
                &Budget::unbounded(),
                None,
                None,
            )
            .unwrap();
            assert!(verdict.is_pass());
            assert_eq!(stats.pairs_discovered, 81);
        }
    }
}
