//! Observability for refinement runs: counters and timings collected by the
//! serial and partitioned engines, printable for humans (`autocsp check
//! --stats`) and serialisable as JSON for the benchmark harness.

use std::fmt;
use std::time::Duration;

/// Counters and timings from one product exploration.
///
/// Every field is filled by both engines; `threads` and `shards` name the
/// one that finished the walk (1 and 1 for the serial explorer). Counters
/// accumulate across the switch and across a resume. Counter semantics:
///
/// * `pairs_discovered` — distinct `(impl state, spec node)` pairs inserted
///   into the visited set (the memory-side cost);
/// * `expansions` — product pairs expanded (the CPU-side cost). Both
///   engines expand each pair at most once, so a passing check reports
///   `expansions == pairs_discovered`; a failing one stops early;
/// * `transitions` — product edges traversed;
/// * `frontier_peak` — maximum number of pending tasks observed;
/// * `batches` — batches of offers owners received from each other;
/// * `rewalk_expansions` — expansions spent by the bounded canonical
///   re-walk that recovers a deterministic shortest counterexample (zero
///   when the check passes).
///
/// [`crate::ModelStore::check`], which produces them, additionally times
/// `compile_wall` (explication + normalisation, near zero on a store hit)
/// apart from `wall` (the product walk, including witness recovery), so a
/// check took `compile_wall + wall` in all; `normalise_wall` carves the
/// subset construction's share out of `compile_wall` (`compile_wall` stays
/// inclusive), and it
/// reports how many compiled artifacts the store served from cache
/// (`store_hits`) versus built fresh (`store_misses`). An `[FD=` check
/// refuted by a divergence reports its thread count and compile wall and
/// leaves the exploration counters at zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Worker threads of the engine that finished the walk.
    pub threads: usize,
    /// Owner partitions of the visited set (1 for the serial explorer).
    pub shards: usize,
    /// Distinct product pairs discovered.
    pub pairs_discovered: u64,
    /// Product pairs expanded; each pair at most once.
    pub expansions: u64,
    /// Product transitions traversed.
    pub transitions: u64,
    /// Peak number of pending tasks.
    pub frontier_peak: u64,
    /// Batches of offers received from other owners.
    pub batches: u64,
    /// Largest owner partition of the visited set, in pairs.
    pub shard_peak: u64,
    /// Expansions spent recovering the canonical counterexample.
    pub rewalk_expansions: u64,
    /// Compiled artifacts served from the model store's cache.
    pub store_hits: u64,
    /// Compiled artifacts the model store had to build fresh.
    pub store_misses: u64,
    /// Graph analyses (SCC/divergence/deadlock classifications) served
    /// from the model store's analysis cache. Zero for checks that never
    /// consult the analysis (plain `[T=` / `[F=`).
    pub analysis_hits: u64,
    /// Graph analyses the store had to compute fresh.
    pub analysis_misses: u64,
    /// A-priori upper bound on `pairs_discovered`, predicted before the
    /// product walk from the compiled component sizes (spec normal-form
    /// nodes × implementation states). Always ≥ `pairs_discovered`; zero
    /// when the check never reached the product phase.
    pub predicted_pairs: u64,
    /// Wall-clock time of the product exploration (including witness
    /// recovery), not counting `compile_wall`.
    pub wall: Duration,
    /// Aggregate busy time across workers, the serial prefix included
    /// (≈ CPU time; excludes idle waiting for work).
    pub cpu_busy: Duration,
    /// Wall-clock time spent compiling and normalising (zero when every
    /// artifact came pre-compiled or from a warm store).
    pub compile_wall: Duration,
    /// Wall-clock time of the spec subset construction alone — a carve-out
    /// of `compile_wall`, not an addition to it (zero when the normal form
    /// came from a warm store).
    pub normalise_wall: Duration,
    /// How far past the wall-clock deadline the engine ran before stopping
    /// (zero unless a wall budget tripped). The serial explorer checks the
    /// clock before every expansion, so this is bounded by one state's work;
    /// the partitioned engine samples it every 256 tasks per worker.
    pub wall_overshoot: Duration,
}

impl CheckStats {
    /// Exploration throughput in expanded states per second of wall time.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.expansions as f64 / secs
        } else {
            0.0
        }
    }

    /// Mean shard occupancy (pairs per shard).
    pub fn shard_mean(&self) -> f64 {
        if self.shards == 0 {
            0.0
        } else {
            self.pairs_discovered as f64 / self.shards as f64
        }
    }

    /// Render as a single JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = diag::json::Writer::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Write these stats as one JSON object value into `w`. Times are in
    /// microseconds; `explore_us` repeats `wall_us`, the exploration wall.
    pub fn write_json(&self, w: &mut diag::json::Writer) {
        w.object(|w| {
            w.key("threads").number(self.threads);
            w.key("shards").number(self.shards);
            w.key("pairs_discovered").number(self.pairs_discovered);
            w.key("expansions").number(self.expansions);
            w.key("transitions").number(self.transitions);
            w.key("frontier_peak").number(self.frontier_peak);
            w.key("batches").number(self.batches);
            w.key("shard_peak").number(self.shard_peak);
            w.key("rewalk_expansions").number(self.rewalk_expansions);
            w.key("store_hits").number(self.store_hits);
            w.key("store_misses").number(self.store_misses);
            w.key("analysis_hits").number(self.analysis_hits);
            w.key("analysis_misses").number(self.analysis_misses);
            w.key("predicted_pairs").number(self.predicted_pairs);
            w.key("wall_us").number(self.wall.as_micros());
            w.key("cpu_busy_us").number(self.cpu_busy.as_micros());
            w.key("compile_us").number(self.compile_wall.as_micros());
            w.key("normalise_us")
                .number(self.normalise_wall.as_micros());
            w.key("explore_us").number(self.wall.as_micros());
            w.key("wall_overshoot_us")
                .number(self.wall_overshoot.as_micros());
            w.key("states_per_sec")
                .number(format_args!("{:.1}", self.states_per_sec()));
        });
    }
}

impl fmt::Display for CheckStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states ({:.0}/s), {} transitions, frontier peak {}, \
             {} batches, {} shards (peak {}), rewalk {}, \
             wall {:.3} ms (compile {:.3} [norm {:.3}] + explore {:.3}), cpu {:.3} ms, \
             store {}/{} hit, analysis {}/{} hit, predicted ≤ {} pairs, \
             {} thread(s)",
            self.expansions,
            self.states_per_sec(),
            self.transitions,
            self.frontier_peak,
            self.batches,
            self.shards,
            self.shard_peak,
            self.rewalk_expansions,
            (self.compile_wall + self.wall).as_secs_f64() * 1e3,
            self.compile_wall.as_secs_f64() * 1e3,
            self.normalise_wall.as_secs_f64() * 1e3,
            self.wall.as_secs_f64() * 1e3,
            self.cpu_busy.as_secs_f64() * 1e3,
            self.store_hits,
            self.store_hits + self.store_misses,
            self.analysis_hits,
            self.analysis_hits + self.analysis_misses,
            self.predicted_pairs,
            self.threads,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_complete() {
        let stats = CheckStats {
            threads: 4,
            shards: 64,
            pairs_discovered: 100,
            expansions: 120,
            transitions: 300,
            frontier_peak: 40,
            batches: 7,
            shard_peak: 5,
            rewalk_expansions: 3,
            store_hits: 2,
            store_misses: 1,
            analysis_hits: 1,
            analysis_misses: 1,
            predicted_pairs: 640,
            wall: Duration::from_micros(2_500),
            cpu_busy: Duration::from_micros(9_000),
            compile_wall: Duration::from_micros(400),
            normalise_wall: Duration::from_micros(150),
            wall_overshoot: Duration::from_micros(12),
        };
        let json = stats.to_json();
        for key in [
            "\"threads\":4",
            "\"shards\":64",
            "\"pairs_discovered\":100",
            "\"expansions\":120",
            "\"transitions\":300",
            "\"frontier_peak\":40",
            "\"batches\":7",
            "\"shard_peak\":5",
            "\"rewalk_expansions\":3",
            "\"store_hits\":2",
            "\"store_misses\":1",
            "\"analysis_hits\":1",
            "\"analysis_misses\":1",
            "\"predicted_pairs\":640",
            "\"wall_us\":2500",
            "\"cpu_busy_us\":9000",
            "\"compile_us\":400",
            "\"normalise_us\":150",
            "\"explore_us\":2500",
            "\"wall_overshoot_us\":12",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), 1);
    }

    #[test]
    fn throughput_handles_zero_wall() {
        let stats = CheckStats::default();
        assert_eq!(stats.states_per_sec(), 0.0);
        assert_eq!(stats.shard_mean(), 0.0);
        let display = format!(
            "{}",
            CheckStats {
                expansions: 10,
                wall: Duration::from_millis(1),
                ..CheckStats::default()
            }
        );
        assert!(display.contains("10 states"), "{display}");
    }
}
