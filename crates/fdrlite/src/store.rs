//! A content-addressed store of compiled models, shared across the whole
//! checking stack.
//!
//! Every end-to-end check starts the same way: explicate the process tree
//! into an [`Lts`] and (for specifications) normalise it. Before this store existed each entry point
//! redid that work per call, so a script with five assertions over one
//! `SYSTEM` compiled `SYSTEM` five times. A [`ModelStore`] interns every
//! process into one hash-consed [`TermArena`] and caches the compiled
//! artifacts under their term id plus the [`Checker`] bounds that shaped
//! them, so structurally equal processes checked under equal bounds compile
//! exactly once.
//!
//! The store is also where refinement is asked: [`ModelStore::check`] is
//! the one entry point that runs the engines, under budgets, with
//! checkpoint/resume when persistence is attached (see
//! `ModelStore::engine_run`). Both engines write and read one frontier
//! format.
//!
//! The store is a pure cache: every verdict, counterexample and witness
//! trace produced through it is bit-identical to the corresponding direct
//! [`Checker`] call, at any thread count. What changes is only the
//! [`CheckStats`] cost split — warm runs report near-zero `compile_wall`
//! and nonzero `store_hits`.
//!
//! # Sharing one store across definitions tables
//!
//! A [`TermArena`] memoises definition bodies by [`csp::DefId`], so a
//! single arena is valid for exactly one [`Definitions`] table. The store
//! therefore fingerprints every table it sees and keeps **one arena per
//! table**: structurally identical terms from different scripts land in
//! different arenas and different cache entries, so a supervised batch
//! (`autocsp run`) can safely route every script through one shared store
//! without one script's recursion bodies leaking into another's models.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use csp::analysis::GraphAnalysis;
use csp::{Definitions, Lts, Process, TermArena, TermId};

use crate::checker::{
    refine_zero_one, Budget, CheckOptions, Checker, Checkpoints, RefinementModel,
};
use crate::counterexample::{BudgetReason, Verdict};
use crate::error::CheckError;
use crate::normalise::NormalisedLts;
use crate::parallel;
use crate::persist::{
    content_hash, CheckId, CheckIdParts, CheckpointLog, Frontier, ModelHash, ModelKey, NormDiskKey,
    PersistConfig, PersistentCache, ResumePolicy,
};
use crate::stats::CheckStats;

/// Pairs a check with `threads > 1` walks serially before it switches to
/// the partitioned engine: the smallest power of two from which two
/// threads beat one in every family measured (`EXPERIMENTS.md`).
pub(crate) const SERIAL_PAIRS: u64 = 16_384;

/// How the serial prefix stops at the switch: as on a budget cut.
const SWITCH: BudgetReason = BudgetReason::States {
    limit: SERIAL_PAIRS,
};

/// A compiled process: its explicit [`Lts`], the one table both engines,
/// the graph analysis and the disk cache read.
///
/// Produced (and cached) by [`ModelStore::compile`]; handed to the engines
/// behind an `Arc` so concurrent checks share one allocation.
#[derive(Debug)]
pub struct CompiledModel {
    lts: Lts,
}

impl CompiledModel {
    /// Wrap a built or deserialised [`Lts`].
    pub(crate) fn from_lts(lts: Lts) -> CompiledModel {
        CompiledModel { lts }
    }

    /// The explicit transition system.
    pub fn lts(&self) -> &Lts {
        &self.lts
    }
}

/// One refinement question for [`ModelStore::check`]: is `spec ⊑ impl_` in
/// `model`, with both processes built under `defs`?
#[derive(Debug, Clone, Copy)]
pub struct CheckRequest<'a> {
    /// The semantic model.
    pub model: RefinementModel,
    /// The specification.
    pub spec: &'a Process,
    /// The implementation.
    pub impl_: &'a Process,
    /// The definitions table both processes are built under.
    pub defs: &'a Definitions,
    /// Worker threads for the product walk: past a measured size, a walk
    /// with more than one moves from the serial 0-1 BFS to this many
    /// owners of the partitioned engine.
    pub threads: usize,
    /// Resource budgets for the whole walk.
    pub options: CheckOptions,
}

/// Cache key for a compiled model: the interned term plus every checker
/// bound that shapes the compiled artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CompileKey {
    term: TermId,
    /// Store-local id of the definitions table the term was built under.
    /// A `Var(i)` term denotes a different process under every table, so
    /// a store shared across scripts must never serve one script's
    /// compile for another's structurally identical term.
    defs: u32,
    max_states: usize,
}

impl CompileKey {
    fn new(term: TermId, defs: u32, checker: &Checker) -> CompileKey {
        CompileKey {
            term,
            defs,
            max_states: checker.max_states,
        }
    }
}

/// Cache key for a normalised specification: the compile key plus the
/// normalisation bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct NormKey {
    compile: CompileKey,
    max_norm_nodes: usize,
}

/// Everything behind the store's mutex: the shared arena, both in-memory
/// caches, and the content-hash memo that keys the on-disk cache.
#[derive(Default)]
struct StoreInner {
    /// One interning arena per registered definitions table (indexed by
    /// the table's store-local id). An arena memoises definition bodies
    /// by [`csp::DefId`], so sharing one across tables would let one
    /// script's recursion bodies leak into another's models.
    arenas: Vec<TermArena>,
    compiled: HashMap<CompileKey, Arc<CompiledModel>>,
    normalised: HashMap<NormKey, Arc<NormalisedLts>>,
    analysed: HashMap<CompileKey, Arc<GraphAnalysis>>,
    hashes: HashMap<(TermId, u32), ModelHash>,
    /// Table ids by content fingerprint, and by [`Definitions::stamp`].
    defs_ids: HashMap<u64, u32>,
    stamps: HashMap<u64, u32>,
    hits: u64,
    misses: u64,
    analysis_hits: u64,
    analysis_misses: u64,
}

impl StoreInner {
    /// The store-local id of a definitions table, registered by content
    /// fingerprint. The first table seen gets id 0, the next distinct one
    /// id 1, and so on; identical tables share an id. Only a stamp the
    /// store has not seen is fingerprinted: an edit in place draws a fresh
    /// one, and a stamp is never an address a later table could reuse.
    fn defs_id(&mut self, defs: &Definitions) -> u32 {
        if let Some(&id) = self.stamps.get(&defs.stamp()) {
            return id;
        }
        let fp = crate::persist::defs_fingerprint(defs);
        let fresh = u32::try_from(self.arenas.len()).unwrap_or(u32::MAX);
        let id = *self.defs_ids.entry(fp).or_insert(fresh);
        if id == fresh {
            self.arenas.push(TermArena::new());
        }
        self.stamps.insert(defs.stamp(), id);
        id
    }

    /// The structural content hash of `p`, memoised per interned term and
    /// definitions table (the same term hashes differently under
    /// different tables — recursion bodies are part of its meaning).
    fn model_hash(
        &mut self,
        term: TermId,
        defs_id: u32,
        p: &Process,
        defs: &Definitions,
    ) -> ModelHash {
        if let Some(&hash) = self.hashes.get(&(term, defs_id)) {
            return hash;
        }
        let hash = content_hash(p, defs);
        self.hashes.insert((term, defs_id), hash);
        hash
    }

    fn disk_model_key(
        &mut self,
        term: TermId,
        checker: &Checker,
        p: &Process,
        defs: &Definitions,
    ) -> ModelKey {
        let defs_id = self.defs_id(defs);
        ModelKey {
            hash: self.model_hash(term, defs_id, p, defs),
            max_states: checker.max_states as u64,
        }
    }

    fn check_id(
        &mut self,
        checker: &Checker,
        spec: &Process,
        impl_: &Process,
        defs: &Definitions,
        model: RefinementModel,
    ) -> CheckId {
        let defs_id = self.defs_id(defs);
        let spec_term = self.arenas[defs_id as usize].intern(spec);
        let spec_hash = self.model_hash(spec_term, defs_id, spec, defs);
        let impl_term = self.arenas[defs_id as usize].intern(impl_);
        let impl_hash = self.model_hash(impl_term, defs_id, impl_, defs);
        CheckIdParts {
            spec: spec_hash,
            impl_: impl_hash,
            model,
            max_states: checker.max_states as u64,
            max_norm_nodes: checker.max_norm_nodes as u64,
            max_product: checker.max_product as u64,
        }
        .id()
    }

    fn compile(
        &mut self,
        checker: &Checker,
        p: &Process,
        defs: &Definitions,
        disk: Option<&PersistentCache>,
    ) -> Result<Arc<CompiledModel>, CheckError> {
        let defs_id = self.defs_id(defs);
        let term = self.arenas[defs_id as usize].intern(p);
        let key = CompileKey::new(term, defs_id, checker);
        if let Some(model) = self.compiled.get(&key) {
            self.hits += 1;
            return Ok(Arc::clone(model));
        }
        if let Some(cache) = disk {
            let dkey = self.disk_model_key(term, checker, p, defs);
            if let Some(lts) = cache.load_model(&dkey) {
                self.hits += 1;
                let model = Arc::new(CompiledModel::from_lts(lts));
                self.compiled.insert(key, Arc::clone(&model));
                return Ok(model);
            }
        }
        self.misses += 1;
        let lts = Lts::build_in(
            &mut self.arenas[defs_id as usize],
            term,
            defs,
            checker.max_states,
        )?;
        if let Some(cache) = disk {
            let dkey = self.disk_model_key(term, checker, p, defs);
            cache.store_model(&dkey, &lts);
        }
        let model = Arc::new(CompiledModel::from_lts(lts));
        self.compiled.insert(key, Arc::clone(&model));
        Ok(model)
    }

    /// The second component is the wall time spent *building* the normal
    /// form — [`Duration::ZERO`] on any cache hit — so callers can report
    /// the subset construction's share of their compile wall.
    fn normalised(
        &mut self,
        checker: &Checker,
        p: &Process,
        defs: &Definitions,
        disk: Option<&PersistentCache>,
    ) -> Result<(Arc<NormalisedLts>, Duration), CheckError> {
        let defs_id = self.defs_id(defs);
        let term = self.arenas[defs_id as usize].intern(p);
        let key = NormKey {
            compile: CompileKey::new(term, defs_id, checker),
            max_norm_nodes: checker.max_norm_nodes,
        };
        if let Some(norm) = self.normalised.get(&key) {
            self.hits += 1;
            return Ok((Arc::clone(norm), Duration::ZERO));
        }
        if let Some(cache) = disk {
            // A disk-cached normal form skips the spec compile entirely.
            let dkey = NormDiskKey {
                model: self.disk_model_key(term, checker, p, defs),
                max_norm_nodes: checker.max_norm_nodes as u64,
            };
            if let Some(norm) = cache.load_norm(&dkey) {
                self.hits += 1;
                let norm = Arc::new(norm);
                self.normalised.insert(key, Arc::clone(&norm));
                return Ok((norm, Duration::ZERO));
            }
        }
        let model = self.compile(checker, p, defs, disk)?;
        self.misses += 1;
        let norm_start = Instant::now();
        let norm = Arc::new(NormalisedLts::build(model.lts(), checker.max_norm_nodes)?);
        let norm_wall = norm_start.elapsed();
        if let Some(cache) = disk {
            let dkey = NormDiskKey {
                model: self.disk_model_key(term, checker, p, defs),
                max_norm_nodes: checker.max_norm_nodes as u64,
            };
            cache.store_norm(&dkey, &norm);
        }
        self.normalised.insert(key, Arc::clone(&norm));
        Ok((norm, norm_wall))
    }

    /// The SCC/divergence/deadlock classification of `p`'s already-compiled
    /// `model`, cached per [`CompileKey`] so it is computed at most once per
    /// compiled artifact. The analysis is derived data (always recomputable
    /// from the compile), so it lives in memory only and keeps its own
    /// hit/miss counters — the `hits`/`misses` pair stays a pure measure of
    /// compile/normalise work.
    fn analysis(
        &mut self,
        checker: &Checker,
        p: &Process,
        defs: &Definitions,
        model: &CompiledModel,
    ) -> Arc<GraphAnalysis> {
        let defs_id = self.defs_id(defs);
        let term = self.arenas[defs_id as usize].intern(p);
        let key = CompileKey::new(term, defs_id, checker);
        if let Some(analysis) = self.analysed.get(&key) {
            self.analysis_hits += 1;
            return Arc::clone(analysis);
        }
        self.analysis_misses += 1;
        let analysis = Arc::new(GraphAnalysis::of_lts(model.lts()));
        self.analysed.insert(key, Arc::clone(&analysis));
        analysis
    }
}

/// A shared, content-addressed cache of compiled (and normalised) models.
///
/// See the module docs above for the caching contract. The store is
/// `Send + Sync`; a mutex guards the arena and both caches, but the engines
/// run outside the lock — only interning and cache lookups serialise.
pub struct ModelStore {
    inner: Mutex<StoreInner>,
    persist: Mutex<Option<PersistConfig>>,
}

impl Default for ModelStore {
    fn default() -> Self {
        ModelStore::new()
    }
}

impl ModelStore {
    /// An empty store.
    pub fn new() -> ModelStore {
        ModelStore {
            inner: Mutex::new(StoreInner::default()),
            persist: Mutex::new(None),
        }
    }

    /// An empty store backed by an on-disk cache (no checkpointing, no
    /// resume — configure those with [`ModelStore::set_persist`]).
    pub fn with_cache(cache: Arc<PersistentCache>) -> ModelStore {
        let store = ModelStore::new();
        store.set_persist(PersistConfig {
            cache,
            checkpoint_every: None,
            resume: ResumePolicy::Off,
        });
        store
    }

    /// Attach (or replace) the persistence configuration: the on-disk
    /// cache, the checkpoint cadence and the resume policy.
    pub fn set_persist(&self, cfg: PersistConfig) {
        *self.persist.lock().expect("persist lock poisoned") = Some(cfg);
    }

    fn persist_config(&self) -> Option<PersistConfig> {
        self.persist.lock().expect("persist lock poisoned").clone()
    }

    fn cache_handle(&self) -> Option<Arc<PersistentCache>> {
        self.persist_config().map(|cfg| cfg.cache)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().expect("model store poisoned")
    }

    /// Artifacts served from cache so far (compiled models and normal
    /// forms both count).
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Artifacts built fresh so far.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Store hits, store misses, analysis hits, analysis misses.
    fn counters(&self) -> [u64; 4] {
        let inner = self.lock();
        [
            inner.hits,
            inner.misses,
            inner.analysis_hits,
            inner.analysis_misses,
        ]
    }

    /// Graph analyses served from cache so far.
    pub fn analysis_hits(&self) -> u64 {
        self.lock().analysis_hits
    }

    /// Graph analyses computed fresh so far.
    pub fn analysis_misses(&self) -> u64 {
        self.lock().analysis_misses
    }

    /// The SCC/divergence/deadlock classification of `p`'s compiled LTS
    /// (see [`GraphAnalysis`]), compiled through the cache and itself
    /// cached per compiled model: one compiled artifact is analysed at
    /// most once, however many property checks, `[FD=` runs or `analyze`
    /// passes ask for it.
    ///
    /// # Errors
    ///
    /// Compilation exceeded its bound.
    pub fn graph_analysis(
        &self,
        checker: &Checker,
        p: &Process,
        defs: &Definitions,
    ) -> Result<Arc<GraphAnalysis>, CheckError> {
        self.compile_and_analyse(checker, p, defs)
            .map(|(_, analysis)| analysis)
    }

    /// Compile `p` (explicate), served from cache when an equal term was
    /// already compiled under equal bounds.
    ///
    /// # Errors
    ///
    /// Propagates state-space and recursion errors from the core semantics.
    pub fn compile(
        &self,
        checker: &Checker,
        p: &Process,
        defs: &Definitions,
    ) -> Result<Arc<CompiledModel>, CheckError> {
        let disk = self.cache_handle();
        self.lock().compile(checker, p, defs, disk.as_deref())
    }

    /// Normalise `p` for use as a specification, compiling it through the
    /// cache first.
    ///
    /// # Errors
    ///
    /// As for [`ModelStore::compile`], plus
    /// [`CheckError::NormalisationExceeded`].
    pub fn normalised(
        &self,
        checker: &Checker,
        p: &Process,
        defs: &Definitions,
    ) -> Result<Arc<NormalisedLts>, CheckError> {
        let disk = self.cache_handle();
        self.lock()
            .normalised(checker, p, defs, disk.as_deref())
            .map(|(norm, _)| norm)
    }

    /// Check `spec ⊑ impl_` in `request.model`: the one refinement entry
    /// point of the checking stack.
    ///
    /// The implementation is compiled first; an `[FD=` check then refutes
    /// a divergent implementation from the cached [`GraphAnalysis`]
    /// divergence bits before any product exists. Otherwise the spec's
    /// normal form is served from the cache and the product walk runs
    /// outside the store lock: the serial 0-1 BFS, and with `threads > 1`
    /// past 16,384 pairs the partitioned engine. The verdict and
    /// counterexample are bit-identical at every thread count, and to the
    /// store-free [`Checker::trace_refinement`] and its siblings.
    ///
    /// The budgets of `request.options` cover the whole walk; exhausting
    /// one yields [`Verdict::Inconclusive`]. With a [`PersistConfig`]
    /// attached, such a verdict writes a checkpoint and carries its resume
    /// token, and a conclusive one removes it; `checkpoint_every` makes the
    /// engine write checkpoints in passing as well. A checkpoint found
    /// under the resume policy continues on the engine the thread count
    /// selects, whichever engine wrote it.
    ///
    /// The returned [`CheckStats`] carry the compile/explore wall split and
    /// the store hit/miss deltas of this call.
    ///
    /// # Errors
    ///
    /// Compilation or exploration exceeded a hard bound; a worker panic
    /// surfaces as [`CheckError::Internal`].
    pub fn check(
        &self,
        checker: &Checker,
        request: &CheckRequest<'_>,
    ) -> Result<(Verdict, CheckStats), CheckError> {
        let CheckRequest {
            model,
            spec,
            impl_,
            defs,
            threads,
            options,
        } = *request;
        let persist = self.persist_config();
        let disk = persist.as_ref().map(|cfg| Arc::clone(&cfg.cache));
        let before = self.counters();
        let compile_start = Instant::now();
        let (impl_m, analysis) = {
            let mut inner = self.lock();
            let impl_m = inner.compile(checker, impl_, defs, disk.as_deref())?;
            let analysis = (model == RefinementModel::FailuresDivergences)
                .then(|| inner.analysis(checker, impl_, defs, &impl_m));
            (impl_m, analysis)
        };
        let divergence = analysis.map_or(Verdict::Pass, |analysis| {
            checker.divergence_free_with_flags(impl_m.lts(), analysis.divergent())
        });
        let (verdict, mut stats) = if divergence.is_pass() {
            let model = model.walk();
            let (norm, norm_wall, id) = {
                let mut inner = self.lock();
                let (norm, norm_wall) = inner.normalised(checker, spec, defs, disk.as_deref())?;
                let id = persist
                    .as_ref()
                    .map(|_| inner.check_id(checker, spec, impl_, defs, model));
                (norm, norm_wall, id)
            };
            let compile_wall = compile_start.elapsed();
            let (verdict, mut stats) = self.engine_run(
                checker,
                &norm,
                &impl_m,
                threads,
                model,
                &options,
                persist.as_ref().zip(id),
            )?;
            stats.compile_wall = compile_wall;
            stats.normalise_wall = norm_wall;
            // Sound a-priori bound on the product walk: every explored pair
            // is (impl state, spec normal-form node).
            stats.predicted_pairs =
                (norm.node_count() as u64).saturating_mul(impl_m.lts().state_count() as u64);
            (verdict, stats)
        } else {
            // Refuted before the product walk, by the serial engine every
            // walk starts on, with nothing explored.
            let stats = CheckStats {
                threads: 1,
                shards: 1,
                compile_wall: compile_start.elapsed(),
                ..CheckStats::default()
            };
            (divergence, stats)
        };
        let after = self.counters();
        stats.store_hits = after[0] - before[0];
        stats.store_misses = after[1] - before[1];
        stats.analysis_hits = after[2] - before[2];
        stats.analysis_misses = after[3] - before[3];
        Ok((verdict, stats))
    }

    /// Is `p` deadlock free? Compiles through the cache, reads the
    /// guaranteed-deadlock sinks off the cached [`GraphAnalysis`], then
    /// runs the checker's witness search over those flags.
    ///
    /// # Errors
    ///
    /// Compilation exceeded its bound.
    pub fn deadlock_free(
        &self,
        checker: &Checker,
        p: &Process,
        defs: &Definitions,
    ) -> Result<Verdict, CheckError> {
        let (model, analysis) = self.compile_and_analyse(checker, p, defs)?;
        Ok(checker.deadlock_free_with_flags(model.lts(), analysis.deadlocked()))
    }

    /// Is `p` divergence free? Compiles through the cache, reads the
    /// divergent-state set off the cached [`GraphAnalysis`] (the same set
    /// the direct checker's τ-peel computes), then runs the checker's
    /// witness search over those flags.
    ///
    /// # Errors
    ///
    /// Compilation exceeded its bound.
    pub fn divergence_free(
        &self,
        checker: &Checker,
        p: &Process,
        defs: &Definitions,
    ) -> Result<Verdict, CheckError> {
        let (model, analysis) = self.compile_and_analyse(checker, p, defs)?;
        Ok(checker.divergence_free_with_flags(model.lts(), analysis.divergent()))
    }

    /// One compile-counter touch, one analysis-counter touch: compile `p`
    /// through the cache and analyse the result, under a single lock.
    fn compile_and_analyse(
        &self,
        checker: &Checker,
        p: &Process,
        defs: &Definitions,
    ) -> Result<(Arc<CompiledModel>, Arc<GraphAnalysis>), CheckError> {
        let disk = self.cache_handle();
        let mut inner = self.lock();
        let model = inner.compile(checker, p, defs, disk.as_deref())?;
        let analysis = inner.analysis(checker, p, defs, &model);
        Ok((model, analysis))
    }

    /// Is `p` deterministic? Normalises through the cache, then runs the
    /// checker's determinism walk over the normal form.
    ///
    /// # Errors
    ///
    /// Compilation or normalisation exceeded its bound.
    pub fn deterministic(
        &self,
        checker: &Checker,
        p: &Process,
        defs: &Definitions,
    ) -> Result<Verdict, CheckError> {
        let norm = self.normalised(checker, p, defs)?;
        Ok(checker.deterministic_compiled(&norm))
    }

    /// Run the product walk of one check in walk model `model`
    /// ([`RefinementModel::walk`]) once, under one budget.
    ///
    /// The walk starts on the serial explorer. With `threads > 1` it stops
    /// at [`SERIAL_PAIRS`] pairs as on a budget cut, and its frontier seeds
    /// the partitioned engine in memory, under the same budget and
    /// checkpoints; a violation found before the switch keeps its serial
    /// counterexample.
    ///
    /// With persistence attached: a checkpoint found under the resume
    /// policy seeds the walk, whichever engine wrote it (one at or past
    /// [`SERIAL_PAIRS`] pairs goes straight to the partitioned engine when
    /// `threads > 1`); each engine run appends a record to the check's
    /// checkpoint log every `checkpoint_every` newly discovered pairs; an
    /// `Inconclusive` walk appends its final record and carries the resume
    /// token, and a conclusive one removes the log.
    #[allow(clippy::too_many_arguments)]
    fn engine_run(
        &self,
        checker: &Checker,
        norm: &NormalisedLts,
        impl_m: &CompiledModel,
        threads: usize,
        model: RefinementModel,
        options: &CheckOptions,
        persist: Option<(&PersistConfig, CheckId)>,
    ) -> Result<(Verdict, CheckStats), CheckError> {
        let budget = Budget::start(options);
        let wanted = |(cfg, id): &(&PersistConfig, CheckId)| match cfg.resume {
            ResumePolicy::Off => false,
            ResumePolicy::Auto => true,
            ResumePolicy::Token(token) => token == *id,
        };
        let mut log = persist.map(|(cfg, id)| cfg.cache.checkpoint_log(id, model));
        let resume = persist.filter(wanted).and_then(|_| {
            let log = log.as_ref()?;
            let frontier = log.load()?;
            if frontier.validate(impl_m.lts().state_count(), norm.node_count()) {
                Some(frontier)
            } else {
                log.discard("frontier does not fit the current models");
                None
            }
        });
        let mut save = |frontier: &Frontier| log.as_mut().is_some_and(|log| log.save(frontier));
        let every = persist.and_then(|(cfg, _)| cfg.checkpoint_every);
        let max_product = checker.max_product;

        let mut checkpoints = every.map(|every| Checkpoints {
            every,
            save: &mut save,
        });
        let explore_start = Instant::now();
        let (mut resume, mut walk, mut prefix_cpu) = (resume, None, Duration::ZERO);
        if threads == 1 || resume.as_ref().is_none_or(|f| f.discovered < SERIAL_PAIRS) {
            // With more than one thread, the switch is a state budget of
            // SERIAL_PAIRS on the serial prefix, where the check's own
            // budget allows more.
            let prefix = budget.capped(if threads > 1 { SERIAL_PAIRS } else { u64::MAX });
            match refine_zero_one(
                norm,
                impl_m.lts(),
                model,
                max_product,
                None,
                &prefix,
                resume.as_ref(),
                checkpoints.as_mut(),
            )? {
                (Verdict::Inconclusive(inc), Some(f), serial)
                    if inc.reason == SWITCH && budget.states_exceeded(SERIAL_PAIRS).is_none() =>
                {
                    (resume, prefix_cpu) = (Some(f), serial.cpu_busy);
                }
                done => walk = Some(done),
            }
        }
        let (verdict, frontier, mut stats) = match walk {
            Some(done) => done,
            None => parallel::refine(
                norm,
                impl_m,
                model,
                threads,
                max_product,
                &budget,
                resume.as_ref(),
                checkpoints.as_mut(),
            )?,
        };
        stats.cpu_busy += prefix_cpu;
        stats.wall = explore_start.elapsed();

        let Some((_, id)) = persist else {
            return Ok((verdict, stats));
        };
        match verdict {
            Verdict::Inconclusive(mut inc) => {
                if let Some(frontier) = frontier {
                    // A tail that cannot follow the log's last record goes
                    // in whole.
                    if !save(&frontier) && frontier.logged > 0 {
                        save(&Frontier {
                            logged: 0,
                            ..frontier
                        });
                    }
                    inc.resume = Some(id.token());
                }
                Ok((Verdict::Inconclusive(inc), stats))
            }
            conclusive => {
                log.iter_mut().for_each(CheckpointLog::remove);
                Ok((conclusive, stats))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counterexample::FailureKind;
    use csp::{EventId, EventSet};

    fn e(n: u32) -> EventId {
        EventId::from_index(n as usize)
    }

    /// An unbudgeted request.
    fn request<'a>(
        model: RefinementModel,
        spec: &'a Process,
        impl_: &'a Process,
        defs: &'a Definitions,
        threads: usize,
    ) -> CheckRequest<'a> {
        CheckRequest {
            model,
            spec,
            impl_,
            defs,
            threads,
            options: CheckOptions::UNBOUNDED,
        }
    }

    #[test]
    fn repeated_compiles_hit_the_cache() {
        let checker = Checker::new();
        let store = ModelStore::new();
        let defs = Definitions::new();
        let p = Process::prefix(e(0), Process::prefix(e(1), Process::Stop));

        let a = store.compile(&checker, &p, &defs).unwrap();
        assert_eq!(store.hits(), 0);
        assert_eq!(store.misses(), 1);

        let b = store.compile(&checker, &p.clone(), &defs).unwrap();
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
        assert!(Arc::ptr_eq(&a, &b), "cache must return the same allocation");
    }

    #[test]
    fn different_bounds_compile_separately() {
        let store = ModelStore::new();
        let defs = Definitions::new();
        let p = Process::prefix(e(0), Process::Stop);

        let loose = Checker::new();
        let tight = Checker {
            max_states: 10,
            ..Checker::new()
        };

        store.compile(&loose, &p, &defs).unwrap();
        store.compile(&tight, &p, &defs).unwrap();
        assert_eq!(store.misses(), 2, "distinct bounds must not share a slot");
        assert_eq!(store.hits(), 0);
    }

    #[test]
    fn shared_store_keeps_definitions_tables_apart() {
        // Two tables whose DefId(0) bodies differ: `P = a -> STOP` vs
        // `P = b -> STOP`. The term `Var(0)` is structurally identical in
        // both scripts, so a defs-blind cache would serve table A's model
        // for table B and flip its verdict.
        let checker = Checker::new();
        let store = ModelStore::new();
        let spec = Process::prefix(e(0), Process::Stop);

        let mut defs_a = Definitions::new();
        let pa = defs_a.declare("P");
        defs_a.define(pa, Process::prefix(e(0), Process::Stop));
        let mut defs_b = Definitions::new();
        let pb = defs_b.declare("P");
        defs_b.define(pb, Process::prefix(e(1), Process::Stop));

        let impl_a = Process::var(pa);
        let (a, _) = store
            .check(
                &checker,
                &request(RefinementModel::Traces, &spec, &impl_a, &defs_a, 1),
            )
            .unwrap();
        assert!(a.is_pass(), "P = a -> STOP refines a -> STOP");

        let impl_b = Process::var(pb);
        let (b, _) = store
            .check(
                &checker,
                &request(RefinementModel::Traces, &spec, &impl_b, &defs_b, 1),
            )
            .unwrap();
        assert!(
            !b.is_pass(),
            "P = b -> STOP must refute even though Var(0) was cached for table A"
        );
        assert_eq!(
            b.counterexample().unwrap().kind(),
            &FailureKind::TraceViolation { event: Some(e(1)) }
        );
    }

    #[test]
    fn a_table_edited_in_place_is_checked_afresh() {
        let checker = Checker::new();
        let store = ModelStore::new();
        let spec = Process::prefix(e(0), Process::Stop);
        let mut defs = Definitions::new();
        let p = defs.declare("P");
        defs.define(p, Process::prefix(e(0), Process::Stop));
        let impl_ = Process::var(p);
        let traces = |defs: &Definitions| {
            let request = request(RefinementModel::Traces, &spec, &impl_, defs, 1);
            store.check(&checker, &request).unwrap().0
        };
        assert!(traces(&defs).is_pass());
        defs.define(p, Process::prefix(e(1), Process::Stop));
        let edited = traces(&defs);
        assert_eq!(
            edited.counterexample().map(|cex| cex.kind().clone()),
            Some(FailureKind::TraceViolation { event: Some(e(1)) })
        );
    }

    #[test]
    fn only_a_walk_past_the_serial_prefix_switches_engines() {
        // 3^k pairs: k = 8 stays below SERIAL_PAIRS, k = 10 passes it.
        let checker = Checker::new();
        for (k, switched) in [(8u32, false), (10, true)] {
            let mut defs = Definitions::new();
            let parts =
                (0..k).map(|i| Process::prefix_chain([e(2 * i), e(2 * i + 1)], Process::Stop));
            let impl_ = Process::interleave_all(parts.collect());
            let universe: EventSet = (0..2 * k).map(e).collect();
            let spec = crate::properties::run(&mut defs, "RUN", &universe);
            let request = request(RefinementModel::Traces, &spec, &impl_, &defs, 2);
            let (verdict, stats) = ModelStore::new().check(&checker, &request).unwrap();
            assert!(verdict.is_pass());
            assert_eq!(stats.pairs_discovered, 3u64.pow(k));
            assert_eq!(stats.expansions, stats.pairs_discovered);
            let engine = if switched { (2, 2) } else { (1, 1) };
            assert_eq!((stats.threads, stats.shards), engine, "k={k}");
        }
    }

    #[test]
    fn store_verdicts_match_direct_checker() {
        let checker = Checker::new();
        let store = ModelStore::new();
        let defs = Definitions::new();
        let spec = Process::prefix(e(0), Process::Stop);
        let impl_ = Process::prefix(e(0), Process::prefix(e(1), Process::Stop));

        let direct = checker.trace_refinement(&spec, &impl_, &defs).unwrap();
        let traces = request(RefinementModel::Traces, &spec, &impl_, &defs, 1);
        let (via_store, stats) = store.check(&checker, &traces).unwrap();
        assert_eq!(direct, via_store);
        assert_eq!(
            via_store.counterexample().unwrap().kind(),
            &FailureKind::TraceViolation { event: Some(e(1)) }
        );
        assert_eq!(stats.store_misses, 3, "spec lts + spec norm + impl lts");
        assert_eq!(stats.store_hits, 0);

        // Warm re-check: same verdict, everything served from cache.
        let (spec2, impl2) = (spec.clone(), impl_.clone());
        let (warm, warm_stats) = store
            .check(
                &checker,
                &request(RefinementModel::Traces, &spec2, &impl2, &defs, 1),
            )
            .unwrap();
        assert_eq!(warm, via_store);
        assert_eq!(warm_stats.store_hits, 2, "norm + impl compile");
        assert_eq!(warm_stats.store_misses, 0);
    }

    #[test]
    fn parallel_path_matches_serial_through_the_store() {
        let checker = Checker::new();
        let store = ModelStore::new();
        let defs = Definitions::new();
        let spec = Process::prefix(e(0), Process::Stop);
        let impl_ = Process::prefix(e(0), Process::prefix(e(1), Process::Stop));

        let (serial, _) = store
            .check(
                &checker,
                &request(RefinementModel::Traces, &spec, &impl_, &defs, 1),
            )
            .unwrap();
        let (par, _) = store
            .check(
                &checker,
                &request(RefinementModel::Traces, &spec, &impl_, &defs, 4),
            )
            .unwrap();
        assert_eq!(serial, par);
    }

    #[test]
    fn fd_check_reuses_the_impl_compile() {
        let checker = Checker::new();
        let store = ModelStore::new();
        let defs = Definitions::new();
        let p = Process::prefix(e(0), Process::Stop);

        let direct = checker
            .failures_divergences_refinement(&p, &p, &defs)
            .unwrap();
        let (via_store, stats) = store
            .check(
                &checker,
                &request(RefinementModel::FailuresDivergences, &p, &p, &defs, 1),
            )
            .unwrap();
        assert_eq!(direct, via_store);
        // The impl compile is reused when the spec (equal term here) is
        // normalised: one lts miss, one norm miss, one compile hit.
        assert_eq!(stats.store_misses, 2);
        assert_eq!(stats.store_hits, 1);
    }

    #[test]
    fn fd_divergent_impl_fails_with_stats() {
        let checker = Checker::new();
        let mut defs = Definitions::new();
        let d = defs.declare("P");
        defs.define(d, Process::prefix(e(0), Process::var(d)));
        let divergent = Process::hide(Process::var(d), EventSet::singleton(e(0)));

        let direct = checker
            .failures_divergences_refinement(&Process::Stop, &divergent, &defs)
            .unwrap();
        assert_eq!(
            direct.counterexample().unwrap().kind(),
            &FailureKind::Divergence
        );
        for threads in [1, 4] {
            let store = ModelStore::new();
            let fd = request(
                RefinementModel::FailuresDivergences,
                &Process::Stop,
                &divergent,
                &defs,
                threads,
            );
            let (v, stats) = store.check(&checker, &fd).unwrap();
            assert_eq!(v, direct);
            assert_eq!(stats.store_misses, 1, "only the impl was compiled");
            // Refuted before the product walk, the check reports the
            // serial explorer every walk starts on.
            assert_eq!((stats.threads, stats.shards), (1, 1));
            assert_eq!(stats.pairs_discovered, 0);
        }
    }

    #[test]
    fn property_checks_match_direct_checker_and_cache() {
        let checker = Checker::new();
        let store = ModelStore::new();
        let defs = Definitions::new();
        let p = Process::external_choice(
            Process::prefix(e(0), Process::Stop),
            Process::prefix(e(1), Process::Stop),
        );

        assert_eq!(
            store.deadlock_free(&checker, &p, &defs).unwrap(),
            checker.deadlock_free(&p, &defs).unwrap()
        );
        assert_eq!(
            store.divergence_free(&checker, &p, &defs).unwrap(),
            checker.divergence_free(&p, &defs).unwrap()
        );
        assert_eq!(
            store.deterministic(&checker, &p, &defs).unwrap(),
            checker.deterministic(&p, &defs).unwrap()
        );
        // deadlock: 1 miss; divergence: 1 hit; deterministic: norm miss +
        // compile hit.
        assert_eq!(store.misses(), 2);
        assert_eq!(store.hits(), 2);
    }

    #[test]
    fn store_is_shareable_across_threads() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<ModelStore>();
        assert_sync_send::<CompiledModel>();
    }
}
