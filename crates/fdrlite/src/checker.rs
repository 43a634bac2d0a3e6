//! The checking engine: refinement by product exploration of the
//! implementation against the normalised specification.
//!
//! The product walk is a 0-1 breadth-first search: `τ` edges cost 0 and
//! visible edges cost 1, so states are expanded in order of *visible trace
//! length* and the first violation found carries a minimum-length
//! counterexample. The serial explorer numbers its pairs in a
//! [`PairIndex`]: a pair's number is its node in the walk's arena, so each
//! offered edge costs one probe and each expansion none. Large walks move
//! to the partitioned engine ([`crate::parallel`]), which settles every
//! violation with this walk bounded to the violation's depth; that is what
//! makes its verdicts and witnesses agree with the serial checker by
//! construction.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use csp::{Definitions, EventId, Label, Lts, Process, StateId, Trace, TraceEvent};

use crate::counterexample::{BudgetReason, Counterexample, FailureKind, Inconclusive, Verdict};
use crate::error::CheckError;
use crate::normalise::{NormNodeId, NormalisedLts};
use crate::pairs::{entry_of, key_at, pack, unpack, PairIndex};
use crate::persist::Frontier;
use crate::stats::CheckStats;

/// Resource budgets for a refinement exploration.
///
/// Unlike the hard caps of [`Checker`] (which abort with a
/// [`CheckError`]), budgets degrade gracefully: when one is exhausted the
/// check returns [`Verdict::Inconclusive`] with the exploration statistics
/// gathered so far. A violation found *before* the budget runs out is still
/// reported as a conclusive [`Verdict::Fail`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckOptions {
    /// Stop after discovering this many product states (`None` = unbounded).
    pub max_states: Option<u64>,
    /// Stop after this much wall-clock time (`None` = unbounded).
    pub max_wall_ms: Option<u64>,
}

impl CheckOptions {
    /// No budgets: explore until done or a hard cap aborts.
    pub const UNBOUNDED: CheckOptions = CheckOptions {
        max_states: None,
        max_wall_ms: None,
    };

    /// Is any budget configured?
    pub fn is_bounded(&self) -> bool {
        self.max_states.is_some() || self.max_wall_ms.is_some()
    }
}

/// A running budget: [`CheckOptions`] with the wall-clock deadline resolved
/// against a start instant. Shared by the serial and parallel engines.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Budget {
    max_states: Option<u64>,
    wall: Option<(Instant, u64)>,
}

impl Budget {
    /// Start the clock on `options` now.
    pub(crate) fn start(options: &CheckOptions) -> Budget {
        Budget {
            max_states: options.max_states,
            wall: options
                .max_wall_ms
                .map(|ms| (Instant::now() + Duration::from_millis(ms), ms)),
        }
    }

    pub(crate) fn unbounded() -> Budget {
        Budget {
            max_states: None,
            wall: None,
        }
    }

    /// A fresh instance of this budget: the same limits, with the wall
    /// clock restarted now.
    pub(crate) fn restarted(&self) -> Budget {
        Budget {
            max_states: self.max_states,
            wall: self
                .wall
                .map(|(_, ms)| (Instant::now() + Duration::from_millis(ms), ms)),
        }
    }

    /// This budget with its state limit lowered to `limit`, where it allows
    /// more.
    pub(crate) fn capped(&self, limit: u64) -> Budget {
        Budget {
            max_states: Some(self.max_states.map_or(limit, |own| own.min(limit))),
            wall: self.wall,
        }
    }

    /// Is the state budget exhausted with `discovered` states known?
    pub(crate) fn states_exceeded(&self, discovered: u64) -> Option<BudgetReason> {
        match self.max_states {
            Some(limit) if discovered >= limit => Some(BudgetReason::States { limit }),
            _ => None,
        }
    }

    /// Has the wall-clock deadline passed — or a process-wide interrupt
    /// been requested? Consults `Instant::now`; callers should rate-limit
    /// this off their hot path. The interrupt flag rides the same poll so
    /// a `SIGTERM` winds an exploration down exactly like an expiring wall
    /// budget (checkpoint written, resume token attached), even when no
    /// budget was configured.
    pub(crate) fn wall_exceeded(&self) -> Option<BudgetReason> {
        if crate::interrupt::interrupt_requested() {
            return Some(BudgetReason::Interrupted);
        }
        match self.wall {
            Some((deadline, limit_ms)) if Instant::now() >= deadline => {
                Some(BudgetReason::Wall { limit_ms })
            }
            _ => None,
        }
    }

    /// Which budget (if any) is exhausted with `discovered` states known?
    ///
    /// The wall clock is consulted on **every** call when a wall budget is
    /// configured (an `Instant::now` is ~25 ns — noise next to a state
    /// expansion), so wall-budget overshoot is bounded by a single state.
    /// Unbounded runs never touch the clock.
    pub(crate) fn exceeded(&self, discovered: u64) -> Option<BudgetReason> {
        if let Some(reason) = self.states_exceeded(discovered) {
            return Some(reason);
        }
        self.wall_exceeded()
    }

    /// How far past the wall deadline the clock is right now (zero when no
    /// wall budget is set or the deadline has not passed). Sampled at the
    /// moment a budget trips to surface the overshoot in [`CheckStats`].
    pub(crate) fn wall_overshoot(&self) -> Duration {
        match self.wall {
            Some((deadline, _)) => Instant::now().saturating_duration_since(deadline),
            None => Duration::ZERO,
        }
    }
}

/// Checkpoints in passing: each time an engine's discovered-pair count
/// reaches the next multiple of `every`, it hands `save` the next record of
/// its checkpoint log — its first a whole frontier, each later one the
/// pairs found since — then keeps exploring. `save` answers whether a
/// record may follow that one; after `false` the next must be whole.
pub(crate) struct Checkpoints<'a> {
    pub every: u64,
    pub save: &'a mut dyn FnMut(&Frontier) -> bool,
}

impl Checkpoints<'_> {
    /// The discovered-pair count at which the next checkpoint is due, with
    /// `discovered` pairs known now.
    pub(crate) fn due_after(&self, discovered: u64) -> u64 {
        let every = self.every.max(1);
        (discovered / every).saturating_add(1).saturating_mul(every)
    }
}

/// A refinement checker: three hard bounds on the state spaces it builds.
///
/// [`Checker::new`] gives the defaults; set a field to change one, as in
/// `Checker { max_states: 3, ..Checker::new() }`.
#[derive(Debug, Clone)]
pub struct Checker {
    /// Reachable states per compiled process (default 1,000,000); past it
    /// a compile fails with [`CheckError::Csp`] carrying
    /// `CspError::StateSpaceExceeded`.
    pub max_states: usize,
    /// Nodes of a specification's normal form (default 200,000); past it
    /// normalisation fails with [`CheckError::NormalisationExceeded`].
    pub max_norm_nodes: usize,
    /// Explored (implementation state, spec node) pairs (default
    /// 4,000,000); past it a check fails with
    /// [`CheckError::ProductExceeded`].
    pub max_product: usize,
}

impl Default for Checker {
    fn default() -> Self {
        Checker {
            max_states: 1_000_000,
            max_norm_nodes: 200_000,
            max_product: 4_000_000,
        }
    }
}

impl Checker {
    /// A checker with default bounds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compile a process to its explicit LTS (FDR's "explicate").
    ///
    /// # Errors
    ///
    /// Propagates state-space and recursion errors from the core semantics.
    pub fn compile(&self, p: &Process, defs: &Definitions) -> Result<Lts, CheckError> {
        Ok(Lts::build(p.clone(), defs, self.max_states)?)
    }

    /// Normalise an LTS for use as a specification.
    ///
    /// # Errors
    ///
    /// [`CheckError::NormalisationExceeded`] if the subset construction grows
    /// past the configured bound.
    pub fn normalise(&self, lts: &Lts) -> Result<NormalisedLts, CheckError> {
        NormalisedLts::build(lts, self.max_norm_nodes)
    }

    /// Check `spec ⊑T impl_` (trace refinement).
    ///
    /// A failing verdict carries a counterexample of minimum visible-trace
    /// length (states are explored in 0-1 BFS order).
    ///
    /// # Errors
    ///
    /// Compilation or exploration exceeded its bound.
    pub fn trace_refinement(
        &self,
        spec: &Process,
        impl_: &Process,
        defs: &Definitions,
    ) -> Result<Verdict, CheckError> {
        self.refinement(RefinementModel::Traces, spec, impl_, defs)
    }

    /// Check `spec ⊑F impl_` (stable-failures refinement).
    ///
    /// # Errors
    ///
    /// Compilation or exploration exceeded its bound.
    pub fn failures_refinement(
        &self,
        spec: &Process,
        impl_: &Process,
        defs: &Definitions,
    ) -> Result<Verdict, CheckError> {
        self.refinement(RefinementModel::Failures, spec, impl_, defs)
    }

    /// Check `spec ⊑FD impl_` (failures-divergences refinement).
    ///
    /// Implemented as divergence-freedom of the implementation followed by
    /// stable-failures refinement, which coincides with FD refinement
    /// whenever the specification is divergence-free (true of every
    /// specification built by [`crate::properties`]).
    ///
    /// # Errors
    ///
    /// Compilation or exploration exceeded its bound.
    pub fn failures_divergences_refinement(
        &self,
        spec: &Process,
        impl_: &Process,
        defs: &Definitions,
    ) -> Result<Verdict, CheckError> {
        self.refinement(RefinementModel::FailuresDivergences, spec, impl_, defs)
    }

    /// The store-free reference for [`crate::ModelStore::check`]: compile
    /// the implementation (an `[FD=` check refutes a divergent one here),
    /// then compile and normalise the spec, then walk the product serially
    /// without budgets.
    fn refinement(
        &self,
        model: RefinementModel,
        spec: &Process,
        impl_: &Process,
        defs: &Definitions,
    ) -> Result<Verdict, CheckError> {
        let impl_lts = self.compile(impl_, defs)?;
        if model == RefinementModel::FailuresDivergences {
            let divergence = self.divergence_free_compiled(&impl_lts);
            if !divergence.is_pass() {
                return Ok(divergence);
            }
        }
        let norm = self.normalise(&self.compile(spec, defs)?)?;
        refine_zero_one(
            &norm,
            &impl_lts,
            model.walk(),
            self.max_product,
            None,
            &Budget::unbounded(),
            None,
            None,
        )
        .map(|(verdict, ..)| verdict)
    }

    /// Is `p` deadlock free? A deadlock is a reachable state with no
    /// transitions at all, other than the terminated state `Ω`.
    ///
    /// # Errors
    ///
    /// Compilation exceeded its bound.
    pub fn deadlock_free(&self, p: &Process, defs: &Definitions) -> Result<Verdict, CheckError> {
        let lts = self.compile(p, defs)?;
        let deadlocked: Vec<bool> = lts
            .state_ids()
            .map(|s| lts.is_terminal(s) && !lts.is_omega(s))
            .collect();
        Ok(self.deadlock_free_with_flags(&lts, &deadlocked))
    }

    /// [`Checker::deadlock_free`] over a compiled LTS with the per-state
    /// deadlock flags precomputed (e.g. by a cached
    /// [`csp::analysis::GraphAnalysis`]). The witness search — and
    /// therefore the verdict and counterexample — is identical.
    pub(crate) fn deadlock_free_with_flags(&self, lts: &Lts, deadlocked: &[bool]) -> Verdict {
        first_flagged(lts, deadlocked, FailureKind::Deadlock)
    }

    /// Is `p` divergence free (no reachable τ-loop)?
    ///
    /// # Errors
    ///
    /// Compilation exceeded its bound.
    pub fn divergence_free(&self, p: &Process, defs: &Definitions) -> Result<Verdict, CheckError> {
        let lts = self.compile(p, defs)?;
        Ok(self.divergence_free_compiled(&lts))
    }

    /// [`Checker::divergence_free`] over an already-compiled LTS.
    fn divergence_free_compiled(&self, lts: &Lts) -> Verdict {
        let divergent = crate::normalise::divergent_states_of(lts);
        self.divergence_free_with_flags(lts, &divergent)
    }

    /// [`Checker::divergence_free_compiled`] with the per-state divergence
    /// flags precomputed (e.g. by a cached
    /// [`csp::analysis::GraphAnalysis`], which computes its divergent set
    /// with the *same* shared [`csp::analysis::tau_divergence`] routine).
    /// The witness search — and therefore the verdict and counterexample —
    /// is identical.
    pub(crate) fn divergence_free_with_flags(&self, lts: &Lts, divergent: &[bool]) -> Verdict {
        first_flagged(lts, divergent, FailureKind::Divergence)
    }

    /// Is `p` deterministic? After every trace, no event may be both
    /// acceptable and refusable; divergence also counts as nondeterminism
    /// (as in FDR's check).
    ///
    /// # Errors
    ///
    /// Compilation or normalisation exceeded its bound.
    pub fn deterministic(&self, p: &Process, defs: &Definitions) -> Result<Verdict, CheckError> {
        let lts = self.compile(p, defs)?;
        let norm = self.normalise(&lts)?;
        Ok(self.deterministic_compiled(&norm))
    }

    /// [`Checker::deterministic`] over an already-normalised LTS (e.g. one
    /// served by a [`crate::ModelStore`]). The check runs entirely on the
    /// normal form.
    pub(crate) fn deterministic_compiled(&self, norm: &NormalisedLts) -> Verdict {
        // BFS over the normal form with parent tracking for witness traces.
        let mut parents: Vec<(u32, Option<EventId>)> = vec![(0, None)];
        let mut order: Vec<NormNodeId> = vec![norm.initial()];
        let mut seen: HashMap<NormNodeId, u32> = HashMap::new();
        seen.insert(norm.initial(), 0);

        let mut frontier = 0usize;
        while frontier < order.len() {
            let node = order[frontier];
            let idx = frontier as u32;

            if norm.divergent(node) {
                return Verdict::Fail(Counterexample::new(
                    trace_back(idx, |i| parents[i as usize]),
                    FailureKind::Divergence,
                ));
            }
            for e in norm.enabled(node) {
                let refusable = norm.acceptances(node).any(|a| !a.contains(e));
                if refusable {
                    return Verdict::Fail(Counterexample::new(
                        trace_back(idx, |i| parents[i as usize]),
                        FailureKind::Nondeterminism { event: e },
                    ));
                }
            }

            for e in norm.enabled(node) {
                let next = norm.after(node, e).expect("enabled event has successor");
                if let std::collections::hash_map::Entry::Vacant(entry) = seen.entry(next) {
                    entry.insert(order.len() as u32);
                    order.push(next);
                    parents.push((idx, Some(e)));
                }
            }
            frontier += 1;
        }
        Verdict::Pass
    }
}

/// Which semantic model a refinement runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefinementModel {
    /// Finite traces (`⊑T`).
    Traces,
    /// Stable failures (`⊑F`).
    Failures,
    /// Failures-divergences (`⊑FD`): divergence-freedom of the
    /// implementation, then the stable-failures walk.
    FailuresDivergences,
}

impl RefinementModel {
    /// The model the product walk runs in. An `[FD=` check is refuted by
    /// a divergence before any product exists, so its walk, its check
    /// identity and its checkpoints are those of `[F=`.
    pub(crate) fn walk(self) -> RefinementModel {
        match self {
            RefinementModel::FailuresDivergences => RefinementModel::Failures,
            other => other,
        }
    }
}

/// The stable-failures violation test, shared verbatim by the serial and
/// parallel engines: one reusable bitset scratch row at the spec's
/// acceptance width, so each stable implementation state costs an edge scan
/// plus word-level subset tests against the spec node's minimal
/// acceptances. Only a violation allocates, for its witness.
#[derive(Default)]
pub(crate) struct FailureProbe {
    scratch: Vec<u64>,
}

impl FailureProbe {
    pub(crate) fn new(spec: &NormalisedLts) -> FailureProbe {
        FailureProbe {
            scratch: vec![0u64; spec.acceptance_words()],
        }
    }

    /// If an implementation state with outgoing `edges` (and Ω-ness
    /// `omega`) is stable, check its acceptance against spec node `n`'s
    /// minimal acceptances. Returns the violation, if any.
    ///
    /// Events past the spec's bitset width are dropped from the scratch
    /// row: no spec acceptance can contain them, so they never decide a
    /// subset test (extra offered events only ever help the
    /// implementation). They still appear in the reported violation.
    pub(crate) fn violation(
        &mut self,
        spec: &NormalisedLts,
        n: NormNodeId,
        edges: &[(Label, StateId)],
        omega: bool,
    ) -> Option<FailureKind> {
        // Terminated processes have no stable failures.
        if omega {
            return None;
        }
        let mut tick = false;
        self.scratch.fill(0);
        for &(label, _) in edges {
            match label {
                // An unstable state has no stable failures either.
                Label::Tau => return None,
                Label::Tick => tick = true,
                Label::Event(e) => {
                    let i = e.index();
                    if i / 64 < self.scratch.len() {
                        self.scratch[i / 64] |= 1 << (i % 64);
                    }
                }
            }
        }
        if spec
            .acceptances(n)
            .any(|spec_acc| spec_acc.is_subset_of_words(&self.scratch, tick))
        {
            return None;
        }
        Some(FailureKind::RefusalViolation {
            accepted: edges
                .iter()
                .filter_map(|&(label, _)| label.event())
                .collect(),
            accepts_tick: tick,
        })
    }
}

/// One discovered product pair in the 0-1 BFS arena, which holds one node
/// per pair in discovery order: node `i` belongs to the pair the explorer's
/// [`PairIndex`] numbers `i`. A shorter path to a pending pair rewrites its
/// node in place: a pending node is no node's parent yet, so parent chains
/// of expanded nodes never change. The default node is the root's.
#[derive(Default)]
struct ProductNode {
    vlen: u32,
    parent: u32,
    label: Option<EventId>,
    /// The pair has been expanded: its depth is settled, and no later offer
    /// may queue it again.
    expanded: bool,
}

/// What a serial walk stopped at.
enum Stop {
    Pass,
    /// The violation found on expanding arena node `idx`.
    Violation(u32, FailureKind),
    /// A violation at this visible depth that the arena cannot trace a
    /// witness for: it was restored from a frontier.
    Untraced(u32),
    /// A budget ran out between two expansions.
    Budget(BudgetReason),
}

/// The mutable state of a serial 0-1 BFS product exploration.
struct Explorer {
    /// The discovered pairs, numbered like their arena nodes.
    index: PairIndex,
    nodes: Vec<ProductNode>,
    deque: VecDeque<u32>,
    max_product: usize,
    /// Hard cap on visible trace length; children beyond it are not queued.
    bound: Option<u32>,
    /// Restored from a [`Frontier`]: nodes discovered before the cut have
    /// no parent pointers, so no witness can be traced from this arena.
    resumed: bool,
    /// The leading arena nodes whose pairs the checkpoint log holds.
    logged: usize,
}

impl Explorer {
    fn new(root: u64, max_product: usize, bound: Option<u32>) -> Explorer {
        let mut index = PairIndex::default();
        index.insert(root);
        Explorer {
            index,
            nodes: vec![ProductNode::default()],
            deque: VecDeque::from([0]),
            max_product,
            bound,
            resumed: false,
            logged: 0,
        }
    }

    /// Rebuild an exploration from a frontier written by either engine.
    /// Visited pairs that are not pending are expanded and are never
    /// queued again. Pending pairs are seeded in nondecreasing visible
    /// depth; the sort is stable, so a serial frontier keeps its own deque
    /// order and the walk continues exactly as if it had never stopped.
    fn restore(f: &Frontier, max_product: usize, bound: Option<u32>) -> Explorer {
        let mut ex = Explorer {
            index: PairIndex::default(),
            nodes: Vec::with_capacity(f.visited.len()),
            deque: VecDeque::with_capacity(f.pending.len()),
            max_product,
            bound,
            resumed: true,
            logged: 0,
        };
        // A pending pair is always visited; one listed only as pending is
        // taken as visited rather than lost.
        let visited = f.visited.iter().map(|&(s, n)| key_at(s, n));
        let orphans = f.pending.iter().map(|&(s, n, _)| key_at(s, n));
        for key in visited.chain(orphans) {
            if ex.index.insert(key).1 {
                ex.nodes.push(ProductNode {
                    expanded: true,
                    ..ProductNode::default()
                });
            }
        }
        // Each pending pair's visible depth and first position in the
        // frontier.
        let mut seeds: Vec<(u32, usize, u32)> = Vec::with_capacity(f.pending.len());
        for (pos, &(s, n, vlen)) in f.pending.iter().enumerate() {
            let (idx, _) = ex.index.insert(key_at(s, n));
            let node = &mut ex.nodes[idx as usize];
            if node.expanded {
                node.expanded = false;
                node.vlen = vlen;
                seeds.push((vlen, pos, idx));
            }
        }
        seeds.sort_unstable();
        ex.deque.extend(seeds.into_iter().map(|(_, _, idx)| idx));
        ex
    }

    /// Offer a child pair at visible depth `vlen`; queue it when it is new
    /// or improves on the depth of its pending node (τ edges go to the
    /// front of the deque, visible edges to the back — the 0-1 BFS
    /// discipline).
    fn relax(
        &mut self,
        child: u64,
        vlen: u32,
        parent: u32,
        label: Option<EventId>,
        stats: &mut CheckStats,
    ) -> Result<(), CheckError> {
        if self.bound.is_some_and(|b| vlen > b) {
            return Ok(());
        }
        let node = ProductNode {
            vlen,
            parent,
            label,
            expanded: false,
        };
        let (idx, new) = self.index.insert(child);
        if new {
            if self.index.keys().len() > self.max_product {
                return Err(CheckError::ProductExceeded {
                    limit: self.max_product,
                });
            }
            stats.pairs_discovered += 1;
            self.nodes.push(node);
        } else {
            let slot = &mut self.nodes[idx as usize];
            if slot.expanded || vlen >= slot.vlen {
                return Ok(());
            }
            *slot = node;
        }
        if label.is_none() {
            self.deque.push_front(idx);
        } else {
            self.deque.push_back(idx);
        }
        stats.frontier_peak = stats.frontier_peak.max(self.deque.len() as u64);
        Ok(())
    }

    /// Snapshot the exploration as a [`Frontier`]: visited pairs in
    /// discovery order — only those the checkpoint log lacks when `tail` —
    /// then the pending nodes in deque order, so a cut writes the same
    /// bytes on every run. The cumulative counters travel with the
    /// frontier so a resumed run reports totals as if it had never stopped.
    fn capture(&self, stats: &CheckStats, tail: bool) -> Frontier {
        // An improved pending node sits in the deque twice; keep the first.
        let mut listed = vec![false; self.nodes.len()];
        let pending = self
            .deque
            .iter()
            .filter(|&&idx| {
                !self.nodes[idx as usize].expanded
                    && !std::mem::replace(&mut listed[idx as usize], true)
            })
            .map(|&idx| {
                let (s, n) = entry_of(self.index.keys()[idx as usize]);
                (s, n, self.nodes[idx as usize].vlen)
            })
            .collect();
        let from = if tail { self.logged } else { 0 };
        Frontier {
            base: from as u64,
            visited: self.index.keys()[from..]
                .iter()
                .map(|&key| entry_of(key))
                .collect(),
            logged: (self.logged - from) as u64,
            pending,
            discovered: stats.pairs_discovered,
            violation: u32::MAX,
            expansions: stats.expansions,
            transitions: stats.transitions,
            batches: stats.batches,
            frontier_peak: stats.frontier_peak,
        }
    }

    /// Walk the product in 0-1 BFS order until it is exhausted, a
    /// violation turns up, or `budget` runs out. The budget is checked
    /// before each pop, so a cut leaves every pending node queued and the
    /// frontier a complete continuation; `checkpoints` are taken at the
    /// same point, and the walk goes on.
    fn walk(
        &mut self,
        spec: &NormalisedLts,
        impl_lts: &Lts,
        model: RefinementModel,
        budget: &Budget,
        stats: &mut CheckStats,
        mut checkpoints: Option<&mut Checkpoints<'_>>,
    ) -> Result<Stop, CheckError> {
        let mut probe = FailureProbe::new(spec);
        let mut due = checkpoints
            .as_ref()
            .map_or(u64::MAX, |c| c.due_after(stats.pairs_discovered));
        while !self.deque.is_empty() {
            if let Some(reason) = budget.exceeded(stats.pairs_discovered) {
                stats.wall_overshoot = budget.wall_overshoot();
                return Ok(Stop::Budget(reason));
            }
            if stats.pairs_discovered >= due {
                if let Some(c) = checkpoints.as_mut() {
                    let follows = (c.save)(&self.capture(stats, true));
                    self.logged = if follows { self.index.keys().len() } else { 0 };
                    due = c.due_after(stats.pairs_discovered);
                }
            }
            let idx = self.deque.pop_front().expect("deque checked non-empty");
            let node = &mut self.nodes[idx as usize];
            if node.expanded {
                continue; // expanded from an earlier deque entry
            }
            node.expanded = true;
            let vlen = node.vlen;
            stats.expansions += 1;
            let (s, n) = unpack(self.index.keys()[idx as usize]);

            if model == RefinementModel::Failures {
                if let Some(kind) =
                    probe.violation(spec, n, impl_lts.edges(s), impl_lts.is_omega(s))
                {
                    return Ok(self.violation(idx, kind));
                }
            }

            for &(label, target) in impl_lts.edges(s) {
                stats.transitions += 1;
                match label {
                    Label::Tau => {
                        self.relax(pack(target, n), vlen, idx, None, stats)?;
                    }
                    Label::Event(e) => match spec.after(n, e) {
                        Some(n2) => {
                            self.relax(pack(target, n2), vlen + 1, idx, Some(e), stats)?;
                        }
                        None => {
                            let kind = FailureKind::TraceViolation { event: Some(e) };
                            return Ok(self.violation(idx, kind));
                        }
                    },
                    Label::Tick => {
                        if !spec.allows_tick(n) {
                            let kind = FailureKind::TraceViolation { event: None };
                            return Ok(self.violation(idx, kind));
                        }
                        // Nothing to explore after successful termination.
                    }
                }
            }
        }
        Ok(Stop::Pass)
    }

    /// The stop at a violation found on expanding node `idx`: a restored
    /// arena has no parent pointers for the pairs it restored.
    fn violation(&self, idx: u32, kind: FailureKind) -> Stop {
        if self.resumed {
            Stop::Untraced(self.nodes[idx as usize].vlen)
        } else {
            Stop::Violation(idx, kind)
        }
    }

    /// The visible trace leading to arena node `idx`.
    fn trace_to(&self, idx: u32) -> Trace {
        trace_back(idx, |i| {
            let node = &self.nodes[i as usize];
            (node.parent, node.label)
        })
    }
}

/// The serial engine: product exploration in 0-1 BFS order (`τ` = 0,
/// visible = 1), so the first violation found has minimum visible-trace
/// length. `model` is a walk model ([`RefinementModel::walk`]).
///
/// The walk starts at the root, or continues from `resume`, a frontier
/// either engine wrote (validated against these models by the caller). It
/// runs under `budget` and takes `checkpoints` in passing; an
/// `Inconclusive` verdict comes back with the whole continuation frontier,
/// whose first `logged` pairs its checkpoint log already holds.
///
/// With `bound: Some(l)`, exploration never queues a pair beyond visible
/// depth `l`. When a violation at depth ≤ `l` is known to exist, this
/// bounds the walk to the ≤ `l` sphere of the product without changing
/// which violation is found first — the expansion order of in-bound nodes
/// is identical to the unbounded walk's. So the bounded walk from the root
/// is the *canonical re-walk*: it settles a violation whose witness cannot
/// be traced with the exact verdict and counterexample of an uninterrupted
/// serial run.
///
/// A resumed walk has no parent pointers for the pairs it restored, so a
/// violation it finds, or one its frontier already records, is settled by
/// the canonical re-walk. Resuming a frontier this engine wrote repeats no
/// work, and the counters end as an uninterrupted run's.
///
/// The returned stats leave `wall` to the caller.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_zero_one(
    spec: &NormalisedLts,
    impl_lts: &Lts,
    model: RefinementModel,
    max_product: usize,
    bound: Option<u32>,
    budget: &Budget,
    resume: Option<&Frontier>,
    checkpoints: Option<&mut Checkpoints<'_>>,
) -> Result<(Verdict, Option<Frontier>, CheckStats), CheckError> {
    let started = Instant::now();
    let mut stats = CheckStats {
        threads: 1,
        shards: 1,
        ..CheckStats::default()
    };
    let mut ex = match resume {
        Some(f) => {
            stats.pairs_discovered = f.discovered;
            stats.expansions = f.expansions;
            stats.transitions = f.transitions;
            stats.batches = f.batches;
            stats.frontier_peak = f.frontier_peak;
            Explorer::restore(f, max_product, bound)
        }
        None => {
            stats.pairs_discovered = 1;
            Explorer::new(pack(impl_lts.initial(), spec.initial()), max_product, bound)
        }
    };
    let stop = match resume {
        Some(f) if f.violation != u32::MAX => Stop::Untraced(f.violation),
        _ => ex.walk(spec, impl_lts, model, budget, &mut stats, checkpoints)?,
    };
    let (verdict, frontier) = match stop {
        Stop::Pass => (Verdict::Pass, None),
        Stop::Violation(idx, kind) => (
            Verdict::Fail(Counterexample::new(ex.trace_to(idx), kind)),
            None,
        ),
        Stop::Untraced(depth) => {
            // The canonical re-walk: bounded to `depth`, from the root.
            let (verdict, _, rewalk) = refine_zero_one(
                spec,
                impl_lts,
                model,
                max_product,
                Some(depth),
                &Budget::unbounded(),
                None,
                None,
            )?;
            stats.rewalk_expansions = rewalk.expansions;
            (verdict, None)
        }
        Stop::Budget(reason) => (
            Verdict::Inconclusive(Inconclusive::new(stats.pairs_discovered, reason)),
            // A bounded walk's frontier continues only the bounded walk.
            bound.is_none().then(|| ex.capture(&stats, false)),
        ),
    };
    stats.shard_peak = stats.pairs_discovered;
    stats.cpu_busy = started.elapsed();
    Ok((verdict, frontier, stats))
}

/// The visible trace to node `idx` of a parent-pointer table whose root is
/// node 0; `step` gives a node's parent and the label of the edge to it.
fn trace_back(mut idx: u32, step: impl Fn(u32) -> (u32, Option<EventId>)) -> Trace {
    let mut events: Vec<TraceEvent> = Vec::new();
    while idx != 0 {
        let (parent, label) = step(idx);
        if let Some(e) = label {
            events.push(TraceEvent::Event(e));
        }
        idx = parent;
    }
    events.reverse();
    events.into_iter().collect()
}

/// The first state of `lts` in breadth-first order whose flag is set, as a
/// counterexample of `kind`: the shortest witness trace to it.
fn first_flagged(lts: &Lts, flags: &[bool], kind: FailureKind) -> Verdict {
    let mut order = vec![lts.initial()];
    let mut parents: Vec<(u32, Option<EventId>)> = vec![(0, None)];
    let mut seen = vec![false; lts.state_count()];
    seen[lts.initial().index()] = true;
    let mut frontier = 0usize;
    while frontier < order.len() {
        let s = order[frontier];
        if flags[s.index()] {
            let trace = trace_back(frontier as u32, |i| parents[i as usize]);
            return Verdict::Fail(Counterexample::new(trace, kind));
        }
        for &(label, target) in lts.edges(s) {
            if !seen[target.index()] {
                seen[target.index()] = true;
                order.push(target);
                parents.push((frontier as u32, label.event()));
            }
        }
        frontier += 1;
    }
    Verdict::Pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp::EventSet;

    fn e(n: u32) -> EventId {
        EventId::from_index(n as usize)
    }

    fn checker() -> Checker {
        Checker::new()
    }

    /// A budgeted check at one thread: the serial engine under `options`.
    fn budgeted(
        model: RefinementModel,
        spec: &Process,
        impl_: &Process,
        options: CheckOptions,
    ) -> (Verdict, CheckStats) {
        crate::ModelStore::new()
            .check(
                &checker(),
                &crate::CheckRequest {
                    model,
                    spec,
                    impl_,
                    defs: &Definitions::new(),
                    threads: 1,
                    options,
                },
            )
            .unwrap()
    }

    #[test]
    fn reflexive_trace_refinement() {
        let defs = Definitions::new();
        let p = Process::prefix(e(0), Process::prefix(e(1), Process::Stop));
        let v = checker().trace_refinement(&p, &p, &defs).unwrap();
        assert!(v.is_pass());
    }

    #[test]
    fn trace_violation_found_with_shortest_trace() {
        let defs = Definitions::new();
        let spec = Process::prefix(e(0), Process::Stop);
        let impl_ = Process::prefix(e(0), Process::prefix(e(1), Process::Stop));
        let v = checker().trace_refinement(&spec, &impl_, &defs).unwrap();
        let cex = v.counterexample().expect("must fail");
        assert_eq!(cex.trace(), &Trace::from_events([e(0)]));
        assert_eq!(
            cex.kind(),
            &FailureKind::TraceViolation { event: Some(e(1)) }
        );
    }

    #[test]
    fn subset_behaviour_trace_refines() {
        let defs = Definitions::new();
        let spec = Process::external_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        let impl_ = Process::prefix(e(0), Process::Stop);
        assert!(checker()
            .trace_refinement(&spec, &impl_, &defs)
            .unwrap()
            .is_pass());
    }

    #[test]
    fn unexpected_termination_is_a_trace_violation() {
        let defs = Definitions::new();
        let spec = Process::prefix(e(0), Process::Stop);
        let v = checker()
            .trace_refinement(&spec, &Process::Skip, &defs)
            .unwrap();
        assert_eq!(
            v.counterexample().unwrap().kind(),
            &FailureKind::TraceViolation { event: None }
        );
    }

    #[test]
    fn internal_choice_fails_failures_refinement_of_external() {
        // SPEC = a -> STOP [] b -> STOP must offer both; the internal choice
        // may refuse one, so ⊑F fails while ⊑T passes.
        let defs = Definitions::new();
        let spec = Process::external_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        let impl_ = Process::internal_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        assert!(checker()
            .trace_refinement(&spec, &impl_, &defs)
            .unwrap()
            .is_pass());
        let v = checker().failures_refinement(&spec, &impl_, &defs).unwrap();
        let cex = v.counterexample().expect("⊑F must fail");
        assert!(matches!(cex.kind(), FailureKind::RefusalViolation { .. }));
        assert!(cex.trace().is_empty());
    }

    #[test]
    fn failures_refinement_reflexive_on_nondeterministic_process() {
        let defs = Definitions::new();
        let p = Process::internal_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        assert!(checker()
            .failures_refinement(&p, &p, &defs)
            .unwrap()
            .is_pass());
    }

    #[test]
    fn deadlocked_stop_fails_failures_refinement_of_prefix() {
        let defs = Definitions::new();
        let spec = Process::prefix(e(0), Process::Stop);
        let v = checker()
            .failures_refinement(&spec, &Process::Stop, &defs)
            .unwrap();
        assert!(matches!(
            v.counterexample().unwrap().kind(),
            FailureKind::RefusalViolation { .. }
        ));
    }

    #[test]
    fn deadlock_free_detects_stop() {
        let defs = Definitions::new();
        let p = Process::prefix(e(0), Process::Stop);
        let v = checker().deadlock_free(&p, &defs).unwrap();
        let cex = v.counterexample().unwrap();
        assert_eq!(cex.kind(), &FailureKind::Deadlock);
        assert_eq!(cex.trace(), &Trace::from_events([e(0)]));
    }

    #[test]
    fn skip_is_deadlock_free() {
        let defs = Definitions::new();
        assert!(checker()
            .deadlock_free(&Process::Skip, &defs)
            .unwrap()
            .is_pass());
    }

    #[test]
    fn recursive_process_is_deadlock_free() {
        let mut defs = Definitions::new();
        let d = defs.declare("P");
        defs.define(d, Process::prefix(e(0), Process::var(d)));
        assert!(checker()
            .deadlock_free(&Process::var(d), &defs)
            .unwrap()
            .is_pass());
    }

    #[test]
    fn divergence_detected_after_hiding() {
        let mut defs = Definitions::new();
        let d = defs.declare("P");
        defs.define(d, Process::prefix(e(0), Process::var(d)));
        let hidden = Process::hide(Process::var(d), EventSet::singleton(e(0)));
        let v = checker().divergence_free(&hidden, &defs).unwrap();
        assert_eq!(v.counterexample().unwrap().kind(), &FailureKind::Divergence);
    }

    #[test]
    fn deterministic_process_passes() {
        let defs = Definitions::new();
        let p = Process::external_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        assert!(checker().deterministic(&p, &defs).unwrap().is_pass());
    }

    #[test]
    fn internal_choice_is_nondeterministic() {
        let defs = Definitions::new();
        let p = Process::internal_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );
        let v = checker().deterministic(&p, &defs).unwrap();
        assert!(matches!(
            v.counterexample().unwrap().kind(),
            FailureKind::Nondeterminism { .. }
        ));
    }

    #[test]
    fn product_bound_is_enforced() {
        let defs = Definitions::new();
        let checker = Checker {
            max_product: 2,
            ..Checker::new()
        };
        let spec = Process::prefix_chain((0..5).map(e), Process::Stop);
        let err = checker
            .trace_refinement(&spec, &spec.clone(), &defs)
            .unwrap_err();
        assert!(matches!(err, CheckError::ProductExceeded { limit: 2 }));
    }

    #[test]
    fn serial_state_budget_degrades_to_inconclusive() {
        let spec = Process::prefix_chain((0..100).map(e), Process::Stop);
        let options = CheckOptions {
            max_states: Some(10),
            max_wall_ms: None,
        };
        let (v, stats) = budgeted(RefinementModel::Traces, &spec, &spec, options);
        let inc = v.inconclusive().expect("must be inconclusive");
        assert_eq!(
            inc.reason,
            crate::counterexample::BudgetReason::States { limit: 10 }
        );
        assert_eq!(inc.states_explored, stats.pairs_discovered);
        assert!(stats.pairs_discovered >= 10);
        assert!(stats.pairs_discovered < 101);
    }

    #[test]
    fn serial_zero_wall_budget_degrades_to_inconclusive() {
        let spec = Process::prefix_chain((0..100).map(e), Process::Stop);
        let options = CheckOptions {
            max_states: None,
            max_wall_ms: Some(0),
        };
        let (v, _) = budgeted(RefinementModel::Traces, &spec, &spec, options);
        assert!(
            matches!(
                v,
                Verdict::Inconclusive(Inconclusive {
                    reason: BudgetReason::Wall { limit_ms: 0 },
                    ..
                })
            ),
            "{v:?}"
        );
    }

    #[test]
    fn serial_violation_found_within_budget_stays_conclusive() {
        let spec = Process::prefix(e(0), Process::Stop);
        let impl_ = Process::prefix(e(0), Process::prefix(e(1), Process::Stop));
        let options = CheckOptions {
            max_states: Some(100),
            max_wall_ms: None,
        };
        let (v, _) = budgeted(RefinementModel::Traces, &spec, &impl_, options);
        assert!(v.counterexample().is_some(), "{v:?}");
    }

    #[test]
    fn unbounded_options_change_nothing() {
        let p = Process::prefix(e(0), Process::prefix(e(1), Process::Stop));
        assert!(!CheckOptions::UNBOUNDED.is_bounded());
        let (v, _) = budgeted(RefinementModel::Traces, &p, &p, CheckOptions::UNBOUNDED);
        assert!(v.is_pass());
        let opts = CheckOptions {
            max_states: Some(1),
            ..CheckOptions::default()
        };
        assert!(opts.is_bounded());
    }

    #[test]
    fn budgeted_failures_refinement_is_inconclusive_not_failing() {
        let spec = Process::prefix_chain((0..50).map(e), Process::Stop);
        let options = CheckOptions {
            max_states: Some(5),
            max_wall_ms: None,
        };
        for model in [
            RefinementModel::Failures,
            RefinementModel::FailuresDivergences,
        ] {
            let (v, _) = budgeted(model, &spec, &spec, options);
            assert!(v.is_inconclusive(), "{model:?}: {v:?}");
        }
    }

    #[test]
    fn refusal_counterexample_after_nonempty_trace() {
        // SPEC = a -> (b -> STOP [] c -> STOP)
        // IMPL = a -> (b -> STOP |~| c -> STOP): fails ⊑F after ⟨a⟩.
        let defs = Definitions::new();
        let spec = Process::prefix(
            e(0),
            Process::external_choice(
                Process::prefix(e(1), Process::Stop),
                Process::prefix(e(2), Process::Stop),
            ),
        );
        let impl_ = Process::prefix(
            e(0),
            Process::internal_choice(
                Process::prefix(e(1), Process::Stop),
                Process::prefix(e(2), Process::Stop),
            ),
        );
        let v = checker().failures_refinement(&spec, &impl_, &defs).unwrap();
        let cex = v.counterexample().unwrap();
        assert_eq!(cex.trace(), &Trace::from_events([e(0)]));
    }

    #[test]
    fn fd_refinement_rejects_divergent_implementations() {
        let mut defs = Definitions::new();
        let d = defs.declare("P");
        defs.define(d, Process::prefix(e(0), Process::var(d)));
        let divergent = Process::hide(Process::var(d), EventSet::singleton(e(0)));
        let spec = Process::Stop;
        let v = Checker::new()
            .failures_divergences_refinement(&spec, &divergent, &defs)
            .unwrap();
        assert_eq!(v.counterexample().unwrap().kind(), &FailureKind::Divergence);
    }

    #[test]
    fn fd_refinement_passes_where_failures_does() {
        let defs = Definitions::new();
        let p = Process::prefix(e(0), Process::Stop);
        let v = Checker::new()
            .failures_divergences_refinement(&p, &p, &defs)
            .unwrap();
        assert!(v.is_pass());
    }
}
