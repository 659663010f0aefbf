//===- core/Checker.h - Public model-checking entry point ------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public API of the checker: describe a test program, configure the
/// search, run it, get a verdict.
///
/// The semi-algorithm of Section 2 has four outcomes, mapped here as:
///   1. terminates with a safety violation      -> SafetyViolation/Deadlock
///   2. diverges violating the good samaritan   -> GoodSamaritanViolation
///   3. diverges with an infinite fair execution-> Livelock
///   4. terminates without errors               -> Pass
/// Outcomes 2 and 3 are detected, as the paper prescribes, by a large
/// execution bound "orders of magnitude greater than the maximum number of
/// steps the user expects" plus classification of the diverging suffix.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_CHECKER_H
#define FSMC_CORE_CHECKER_H

#include "runtime/PendingOp.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace fsmc {

namespace obs {
class Observer;
struct SearchProfile;
struct WorkerCounters;
} // namespace obs

struct CheckpointState;

/// Final classification of a checker run.
enum class Verdict {
  Pass,                   ///< Search finished (or budget ran out) bug-free.
  SafetyViolation,        ///< A checkThat/fail assertion fired.
  Deadlock,               ///< A state with live but no enabled threads.
                          ///< Never false under fairness (Theorem 3).
  Livelock,               ///< Divergence on a fair execution (outcome 3).
  GoodSamaritanViolation, ///< A thread scheduled forever without yielding
                          ///< (outcome 2; Section 4.3.1's bug class).
  Divergence,             ///< The test program is nondeterministic beyond
                          ///< scheduling/chooseInt: a recorded schedule did
                          ///< not replay even after the configured retries.
                          ///< A checker limitation, never a workload bug.
  Crash,                  ///< An isolated execution died on a signal or
                          ///< unexpected exit (--isolate=batch, --fleet).
  Hang,                   ///< An isolated execution made no progress for
                          ///< the watchdog timeout and was killed.
  DataRace,               ///< Concurrent conflicting accesses to a plain
                          ///< shared variable with no happens-before edge
                          ///< (src/race/RaceDetector.h; --races=on|fatal).
};

const char *verdictName(Verdict V);

/// How the search enumerates scheduling choices. A depth bound (the
/// "without fairness" baseline of Section 4.2.1) is orthogonal and
/// composes with any kind via CheckerOptions::DepthBound, exactly as the
/// paper combines db=20..60 with cb=1..3 and dfs in Table 2.
enum class SearchKind {
  Dfs,            ///< Exhaustive depth-first search of all choices.
  ContextBounded, ///< DFS over executions with at most `ContextBound`
                  ///< preemptions (Musuvathi-Qadeer PLDI'07), combined with
                  ///< fairness per Section 4: fairness-induced switches are
                  ///< not counted.
  RandomWalk,     ///< Repeated uniformly random executions; no backtrack.
};

/// Detailed counterexample for a non-Pass verdict.
struct BugReport {
  Verdict Kind = Verdict::Pass;
  std::string Message;     ///< One-line description.
  std::string TraceText;   ///< Rendered suffix of the buggy execution.
  /// The buggy execution's serialized choice sequence; feed it to
  /// replaySchedule (core/Schedule.h) to re-run the exact schedule.
  std::string Schedule;
  uint64_t AtExecution = 0;///< 0-based index of the buggy execution.
  uint64_t AtStep = 0;     ///< Transition count when detected.
};

/// Aggregate statistics of a search; the benches derive every table and
/// figure from these.
struct SearchStats {
  uint64_t Executions = 0;
  uint64_t Transitions = 0;
  uint64_t Preemptions = 0;
  /// Executions abandoned at the depth bound / hard cap without
  /// terminating -- the wasted work metric of Figure 2.
  uint64_t NonterminatingExecutions = 0;
  /// Executions pruned by the stateful reference search.
  uint64_t PrunedExecutions = 0;
  /// Executions cut by sleep-set partial-order reduction: every
  /// schedulable move slept, so the subtree is covered by an equivalent
  /// interleaving explored elsewhere (docs/POR.md).
  uint64_t PorBranchesPruned = 0;
  /// Sleeping threads removed from candidate sets at scheduling points --
  /// the per-branch work POR saved.
  uint64_t PorSleepHits = 0;
  /// Sleeping threads woken because they were the only fairness-allowed
  /// choices left: under the fair scheduler a sleeping transition is
  /// woken, never dropped (docs/POR.md).
  uint64_t PorFairWakes = 0;
  uint64_t MaxDepth = 0;
  /// Distinct state signatures seen (when coverage tracking is on).
  uint64_t DistinctStates = 0;
  /// Revisits of already-seen signatures (when coverage tracking is on):
  /// every signature lookup is either a new DistinctStates entry or a
  /// StateHits increment, so DistinctStates + StateHits = lookups.
  uint64_t StateHits = 0;
  /// Priority edges the fair scheduler added across the whole search.
  uint64_t FairEdgeAdditions = 0;
  /// Total buggy executions seen (> 1 only with StopOnFirstBug = false).
  uint64_t BugsFound = 0;
  int MaxThreads = 0;        ///< Table 1 "Threads".
  uint64_t MaxSyncOps = 0;   ///< Table 1 "Synch Ops".
  double Seconds = 0;
  /// Schedule prefixes discarded because they would not replay even after
  /// the configured retries (robustness layer; see docs/ROBUSTNESS.md).
  uint64_t Divergences = 0;
  /// Re-executions spent trying to get a mismatching prefix to replay.
  uint64_t DivergenceRetries = 0;
  /// Isolated executions that died on a signal / unexpected exit.
  uint64_t Crashes = 0;
  /// Isolated executions killed by the hang watchdog.
  uint64_t Hangs = 0;
  /// Checkpoints written (periodic + on interrupt).
  uint64_t Checkpoints = 0;
  /// Plain-variable accesses race-checked (RaceCheckMode on/fatal).
  uint64_t RacesChecked = 0;
  /// Distinct data races found (deduplicated by race description).
  uint64_t RacesFound = 0;
  /// Fleet mode (--fleet=N; docs/FLEET.md); zero on healthy runs.
  /// Worker processes that died (signal or unexpected exit) mid-search.
  uint64_t FleetWorkerCrashes = 0;
  /// Work units re-issued to a surviving worker after their holder died
  /// or missed its heartbeat deadline.
  uint64_t FleetReissues = 0;
  /// Replacement workers forked after a death, within the restart budget.
  uint64_t FleetRespawns = 0;
  /// Work units quarantined after killing K consecutive workers; each
  /// becomes a Verdict::Crash incident.
  uint64_t FleetQuarantined = 0;
  /// Weak-memory exploration (--memory=tso|pso; docs/MEMORY.md); zero
  /// under --memory=sc. Stores enqueued into per-thread store buffers.
  uint64_t BufferedStores = 0;
  /// Buffered stores committed to memory (by flush agents, fences, or
  /// implicit drains at sync operations).
  uint64_t StoreFlushes = 0;
  /// Knuth weighted-backtrack estimator mass (CheckerOptions::Estimate):
  /// each counted execution contributes the product of 1/branch-factor
  /// over the backtrackable records on its path, so the masses partition
  /// the choice tree and sum to exactly 1.0 at exhaustion. The online
  /// tree-size estimate is Executions / EstimateMass (docs/
  /// OBSERVABILITY.md covers the early-run bias caveat).
  double EstimateMass = 0;
  bool TimedOut = false;        ///< Time budget exhausted.
  bool ExecutionCapHit = false; ///< MaxExecutions reached.
  bool SearchExhausted = false; ///< DFS enumerated every execution.
  bool Interrupted = false;     ///< Stopped by CheckerOptions::InterruptFlag.
};

/// The SearchStats schema: one row per field, driving mergeSearchStats,
/// foldStatsDeltaIntoCounters, the stats-json keys (obs/StatsJson.cpp)
/// and the checkpoint `stat` lines (core/Checkpoint.cpp). A new stat is
/// one field plus one row; StatsSchemaTest fails for a field without one.
///
///   X(Field, Merge, Key, Json, Ckpt, Counter)
///
/// Merge: Sum adds, Max keeps the larger, Keep leaves the field to the
/// aggregating engine (budget flags, wall time, the coverage count).
/// Json / Ckpt: Always writes the key, NonZero omits it at zero (so
/// reports and checkpoints of runs that never touch a feature keep their
/// earlier bytes), Never leaves it out. Rows are in stats-json key order;
/// a floating-point row is a checkpoint `statf` line. Counter: the live
/// obs::Counter the field folds into, or None.
#define FSMC_SEARCH_STATS(X)                                                  \
  X(Executions, Sum, "executions", Always, Always, Executions)                \
  X(Transitions, Sum, "transitions", Always, Always, Transitions)             \
  X(Preemptions, Sum, "preemptions", Always, Always, Preemptions)             \
  X(NonterminatingExecutions, Sum, "nonterminating_executions", Always,      \
    Always, NonterminatingExecutions)                                         \
  X(PrunedExecutions, Sum, "pruned_executions", Always, Always,              \
    StatefulPrunes)                                                           \
  X(PorSleepHits, Sum, "por_sleep_hits", NonZero, Always, PorSleepHits)       \
  X(PorBranchesPruned, Sum, "por_branches_pruned", NonZero, Always,          \
    PorBranchesPruned)                                                        \
  X(PorFairWakes, Sum, "por_fair_wakes", NonZero, Always, PorFairWakes)       \
  X(MaxDepth, Max, "max_depth", Always, Always, None)                         \
  X(DistinctStates, Keep, "distinct_states", Always, Never, None)             \
  X(FairEdgeAdditions, Sum, "fair_edge_additions", Always, Always,           \
    FairEdgeAdds)                                                             \
  X(BugsFound, Sum, "bugs_found", Always, Always, BugsFound)                  \
  X(MaxThreads, Max, "max_threads", Always, Always, None)                     \
  X(MaxSyncOps, Max, "max_sync_ops", Always, Always, None)                    \
  X(Divergences, Sum, "divergences", NonZero, Always, Divergences)            \
  X(DivergenceRetries, Sum, "divergence_retries", NonZero, Always,           \
    DivergenceRetries)                                                        \
  X(Crashes, Sum, "crashes", NonZero, Always, None)                           \
  X(Hangs, Sum, "hangs", NonZero, Always, None)                               \
  X(Checkpoints, Sum, "checkpoints", NonZero, Always, None)                   \
  X(RacesChecked, Sum, "races_checked", NonZero, Always, RacesChecked)        \
  X(RacesFound, Sum, "races_found", NonZero, Always, None)                    \
  X(StateHits, Sum, "state_hits", Never, NonZero, None)                       \
  X(FleetWorkerCrashes, Sum, "fleet_worker_crashes", NonZero, NonZero, None)  \
  X(FleetReissues, Sum, "fleet_reissues", NonZero, NonZero, None)             \
  X(FleetRespawns, Sum, "fleet_respawns", NonZero, NonZero, None)             \
  X(FleetQuarantined, Sum, "fleet_quarantined", NonZero, NonZero, None)       \
  X(BufferedStores, Sum, "buffered_stores", NonZero, NonZero, BufferedStores) \
  X(StoreFlushes, Sum, "store_flushes", NonZero, NonZero, StoreFlushes)       \
  X(EstimateMass, Sum, "estimate_mass", Never, NonZero, None)                 \
  X(Seconds, Keep, "seconds", Never, Never, None)                             \
  X(TimedOut, Keep, "timed_out", Never, Never, None)                          \
  X(ExecutionCapHit, Keep, "execution_cap_hit", Never, Never, None)           \
  X(SearchExhausted, Keep, "search_exhausted", Never, Never, None)            \
  X(Interrupted, Keep, "interrupted", Never, Never, None)

/// Column values of FSMC_SEARCH_STATS.
namespace stats {
enum Merge { Sum, Max, Keep };
enum Emit { Always, NonZero, Never };
} // namespace stats

/// Accumulates \p From into \p Into by each row's Merge rule.
void mergeSearchStats(SearchStats &Into, const SearchStats &From);

/// Happens-before data race detection over plain shared variables
/// (--races=). Detection is purely observational: On and Fatal explore
/// the same execution multiset as Off; only the reporting differs.
enum class RaceCheckMode {
  Off,   ///< No detection; zero overhead (the default).
  On,    ///< Detect and report races (Verdict::DataRace + Incidents) but
         ///< keep searching the full configured budget.
  Fatal, ///< A detected race ends the execution like a safety violation
         ///< and, with StopOnFirstBug, the search.
};

/// Where test-program code runs relative to the checker (--isolate=).
enum class IsolationMode {
  Off,   ///< In-process; a workload crash kills the checker (fast path).
  Batch, ///< Fork a child per batch of executions; crashes and hangs are
         ///< harvested as Verdict::Crash / Verdict::Hang with a repro
         ///< schedule, and the search continues (the fleet's isolated
         ///< rung, core/Fleet.h).
};

/// Knobs for one checker run. Defaults give the paper's configuration:
/// fair DFS with k = 1 and divergence detection.
struct CheckerOptions {
  /// Use the fair scheduler (Algorithm 1). When false the demonic
  /// scheduler is unconstrained -- the pre-CHESS-fairness baseline.
  bool Fair = true;
  /// Process every k-th yield (Section 3's parameterized algorithm).
  int YieldK = 1;

  SearchKind Kind = SearchKind::Dfs;
  /// Preemption bound for SearchKind::ContextBounded.
  int ContextBound = 2;
  /// 0 = no depth bound. Otherwise the search branches only on the first
  /// DepthBound transitions of each execution -- the termination crutch
  /// stateless checkers needed before fairness (Section 4.2.1).
  uint64_t DepthBound = 0;
  /// If false, executions are cut at DepthBound with no random tail
  /// (the Figure 2 configuration); if true, a random walk finishes the
  /// execution and its states still count toward coverage (Section 4.2.1).
  bool RandomTail = true;
  /// Hard cap on random-tail length; executions still alive count as
  /// nonterminating and are abandoned.
  uint64_t RandomTailCap = 20000;

  /// The "large bound on the execution depth" of Section 2. An execution
  /// exceeding it is classified as a liveness violation when
  /// DetectDivergence is set, else abandoned and counted.
  uint64_t ExecutionBound = 20000;
  /// Report divergence as Livelock / GoodSamaritanViolation. Defaults on;
  /// baseline (unfair) reproductions turn it off since their depth cut is
  /// expected.
  bool DetectDivergence = true;
  /// Eager good-samaritan detector: a thread scheduled this many times
  /// since its last yield, while some other thread was enabled, is
  /// reported without waiting for ExecutionBound. 0 disables.
  uint64_t GoodSamaritanBound = 4000;

  /// Stop at the first bug (Table 3 measures executions to first bug).
  bool StopOnFirstBug = true;

  uint64_t MaxExecutions = 0; ///< 0 = unlimited.
  double TimeBudgetSeconds = 0; ///< 0 = unlimited.
  uint64_t Seed = 12345;

  /// OS worker threads for the search. 1 = the serial explorer; > 1
  /// shards the DFS by schedule prefix across workers (see
  /// core/ParallelExplorer.h). Exhaustive searches visit the same
  /// executions and states as the serial run, and StopOnFirstBug reports
  /// the same (DFS-smallest) counterexample; random-walk search and
  /// StatefulPruning ignore this and run serially.
  int Jobs = 1;

  /// Recycle per-execution runtime state (thread records, pooled fiber
  /// stacks, object-name storage) across the executions of a search
  /// instead of destroying and re-creating it -- the hot-path fast path
  /// (docs/PERFORMANCE.md). Observationally invisible: traces, stats and
  /// the explored execution multiset are byte-identical either way; off
  /// exists for A/B measurement and as an escape hatch.
  bool ReuseExecutionState = true;

  /// Memory model to explore under (--memory=sc|tso|pso; docs/MEMORY.md).
  /// Sc is the historical sequentially-consistent search, byte-identical
  /// to builds without the feature. Tso gives every thread a FIFO store
  /// buffer: stores enqueue, loads forward from the own buffer, and a
  /// pseudo-thread-visible "flush oldest entry" action joins the enabled
  /// set, so the fair scheduler and DFS backtracking explore delayed
  /// propagation. Pso additionally relaxes inter-variable flush order.
  /// Caps the workload at 32 threads (tids 32..63 name flush agents).
  MemoryModel Memory = MemoryModel::Sc;

  /// Sleep-set partial-order reduction (--por=on; docs/POR.md). Prunes
  /// interleavings that only permute independent operations, as judged by
  /// the dependence oracle in core/Dependence.h. Sound for programs whose
  /// shared state lives entirely in modeled objects. Composed with the
  /// fair scheduler via wake rules -- a sleeping transition that is the
  /// only fairness-allowed choice is woken, never dropped -- but POR over
  /// fair schedules remains the paper's stated future work (Section 5),
  /// so the combination is pinned empirically by the differential parity
  /// suite (tests/core/PorParityTest.cpp) rather than by proof.
  bool Por = false;

  /// Record distinct state signatures (requires the test program to call
  /// Runtime::setStateExtractor, or relies on the built-in thread
  /// signature otherwise).
  bool TrackCoverage = false;
  /// Also return the signatures themselves, sorted, in
  /// CheckResult::StateSignatures (implies TrackCoverage). The
  /// serial-equivalence tests use this to assert a parallel run visits
  /// the same state *set* as the serial run, not merely as many states.
  bool ExportStateSignatures = false;
  /// Stateful reference search: prune an execution once it reaches an
  /// already-visited state. Used only to compute the "Total States" ground
  /// truth of Table 2; implies TrackCoverage.
  bool StatefulPruning = false;

  /// Online tree-size estimation (--estimate): accumulate the Knuth
  /// weighted-backtrack mass in SearchStats::EstimateMass so progress %
  /// and estimated_total_executions can be reported mid-run. One
  /// multiply-add per completed execution; off by default to keep default
  /// reports byte-identical.
  bool Estimate = false;
  /// Schedule-point hotspot profiling (--profile-search): record per-op-
  /// class / per-object branching histograms, depth and branch-factor
  /// distributions, and POR-pruning attribution into
  /// CheckResult::Profile (src/obs/SearchProfile.h).
  bool ProfileSearch = false;

  /// Observability hub (src/obs/): live sharded counters and, if its sink
  /// is set, a structured event trace. Not owned, may outlive the run.
  /// Null keeps every instrumentation hook down to one pointer test.
  obs::Observer *Obs = nullptr;

  /// Happens-before race detection over PlainVar accesses (src/race/).
  RaceCheckMode Races = RaceCheckMode::Off;

  //===--- Robustness layer (docs/ROBUSTNESS.md) -------------------------===//

  /// Run test-program code in forked child processes so workload crashes
  /// and hangs cannot kill the search. Forces serial exploration (like
  /// RandomWalk, Jobs is ignored); StatefulPruning falls back to the
  /// in-process path because prune keys cannot cross process boundaries.
  IsolationMode Isolate = IsolationMode::Off;
  /// Executions per forked batch child under IsolationMode::Batch, and the
  /// execution budget per issued fleet work unit (a worker that exhausts
  /// it commits the unit with its remainder prefixes). Batching amortizes
  /// the fork and protocol cost; small batches recover at finer grain.
  int BatchSize = 64;
  /// Watchdog: an isolated child that produces no progress records for
  /// this long is SIGKILLed and the execution recorded as Verdict::Hang;
  /// a fleet worker silent this long is declared hung. Must exceed the
  /// wall time of the slowest single execution.
  double HangTimeoutSeconds = 10.0;
  /// A recorded prefix that fails to replay (the workload is
  /// nondeterministic beyond scheduling/chooseInt) is re-executed this
  /// many times before being discarded under Verdict::Divergence.
  int DivergenceRetries = 3;
  /// Invoke CheckpointSink every this many executions (0 = never). The
  /// checkpoint captures the DFS frontier so the search can be resumed
  /// with resumeCheck (core/Checkpoint.h).
  uint64_t CheckpointEvery = 0;
  std::function<void(const CheckpointState &)> CheckpointSink;
  /// Cooperative interrupt: when non-null and set (e.g. from a SIGINT
  /// handler), the search stops at the next execution boundary, marks
  /// Stats.Interrupted, and returns a resume checkpoint in
  /// CheckResult::Resume.
  std::atomic<bool> *InterruptFlag = nullptr;

  //===--- Fleet mode (docs/FLEET.md) ------------------------------------===//

  /// > 1: supervised multi-process search (--fleet=N): a coordinator forks
  /// N long-lived workers and streams leased work units over pipes, with
  /// crash recovery, re-issue and graceful degradation (core/Fleet.h).
  /// Verdicts and incident sets match --jobs=N on exhaustive searches.
  /// RandomWalk and StatefulPruning fall back to the serial engine, as
  /// they do for Jobs; IsolationMode::Batch takes precedence.
  int FleetWorkers = 0;
  /// A unit whose attempt dies this many consecutive times is quarantined
  /// as a Verdict::Crash incident instead of being re-issued.
  int FleetQuarantine = 3;
  /// Replacement workers the coordinator may fork after deaths before
  /// degrading to reduced width. Negative = 2*FleetWorkers+2.
  int FleetRespawnBudget = -1;
};

/// A test program: a closure run as thread 0 of every execution. It may
/// spawn further threads, use the sync primitives, and must be
/// deterministic apart from scheduling and Runtime::chooseInt.
struct TestProgram {
  std::string Name;
  std::function<void()> Body;
};

/// Everything a checker run produced.
struct CheckResult {
  Verdict Kind = Verdict::Pass;
  std::optional<BugReport> Bug;
  SearchStats Stats;
  /// Sorted distinct state signatures; filled only when
  /// CheckerOptions::ExportStateSignatures is set.
  std::vector<uint64_t> StateSignatures;
  /// Every crash/hang harvested in isolation and every distinct data race
  /// the detector found (Bug holds the first workload bug, or the first
  /// incident when no real bug was found).
  std::vector<BugReport> Incidents;
  /// Set when the run stopped on InterruptFlag: everything needed to
  /// continue the search via resumeCheck (core/Checkpoint.h).
  std::shared_ptr<CheckpointState> Resume;
  /// Schedule-point hotspot profile; filled only when
  /// CheckerOptions::ProfileSearch is set (src/obs/SearchProfile.h).
  std::shared_ptr<obs::SearchProfile> Profile;

  /// True for workload bugs. Divergence is a checker limitation and Crash
  /// and Hang count: a workload that dies in isolation is buggy.
  bool foundBug() const {
    return Kind != Verdict::Pass && Kind != Verdict::Divergence;
  }
};

/// Runs the fair stateless model checker on \p Program under \p Opts.
/// This is the library's main entry point.
CheckResult check(const TestProgram &Program, const CheckerOptions &Opts);

/// Explores the unexplored region \p Frontier describes, on top of its
/// committed stats, coverage and first bug, and returns the cumulative
/// result. The one place an engine is chosen: check() passes the
/// one-unit root frontier, resumeCheck() a checkpoint, replaySchedule()
/// one fully frozen unit capped at one execution.
CheckResult runFrontier(const TestProgram &Program, const CheckerOptions &Opts,
                        const CheckpointState &Frontier);

/// Folds the delta between two cumulative SearchStats snapshots into a
/// live counter shard, so --stats-json counters and the progress line
/// keep working when executions happen in another process. Null \p Ctr is
/// a no-op. RacesFound has no counter row: child processes dedup races
/// only within themselves, so the result accumulator bumps that counter
/// per globally-novel race at commit time.
void foldStatsDeltaIntoCounters(obs::WorkerCounters *Ctr,
                                const SearchStats &Prev,
                                const SearchStats &Now);

/// Bumps the per-verdict-class bug counter (deadlocks, livelocks, good
/// samaritan violations) for a bug harvested from a child process.
void bumpBugClassCounter(obs::WorkerCounters *Ctr, Verdict V);

/// Top-level race promotion, applied by runFrontier(): when
/// race detection is on and \p R carries DataRace incidents, reconciles
/// Stats.RacesFound with them and -- if no workload bug outranks the
/// races -- promotes the verdict to Verdict::DataRace with the first race
/// as the bug report. Deliberately *not* done inside the engines, so a
/// racy execution never changes StopOnFirstBug behaviour mid-search
/// (RaceCheckMode::On must explore the same multiset as Off).
void finalizeRaces(CheckResult &R, const CheckerOptions &Opts);

} // namespace fsmc

#endif // FSMC_CORE_CHECKER_H
