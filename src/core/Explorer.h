//===- core/Explorer.h - Stateless state-space exploration -----*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stateless explorer: runs the test program over and over, each time
/// following a recorded choice sequence (replay) up to the deepest branch
/// with untried alternatives, then taking a fresh alternative -- the
/// standard Verisoft-style depth-first search, augmented with:
///
///   - the fair scheduler of Algorithm 1 restricting the choice set;
///   - preemption accounting for context-bounded search, with
///     fairness-induced preemptions uncounted (Section 4);
///   - depth bounding with a random tail (the no-fairness baseline);
///   - divergence detection: executions exceeding the execution bound are
///     classified as livelocks or good-samaritan violations;
///   - optional state-signature coverage, and a stateful pruning mode
///     that reproduces the paper's "Total States" ground truth.
///
/// The explorer captures no program state between executions (beyond the
/// optional signature hash table): it is a *stateless* model checker.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_EXPLORER_H
#define FSMC_CORE_EXPLORER_H

#include "core/Checker.h"
#include "core/Checkpoint.h"
#include "core/SearchStrategy.h"
#include "core/Trace.h"
#include "runtime/Runtime.h"
#include "support/U64Set.h"
#include "support/Xorshift.h"

#include <chrono>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

namespace fsmc {

namespace obs {
struct ObsEvent;
struct WorkerCounters;
struct SearchProfile;
struct ExplainLog;
} // namespace obs

struct CheckpointState;
class StackPool;

/// Drives the whole search for one checker run. Also serves as the
/// ChoiceSource that resolves Runtime::chooseInt data choices, so both
/// scheduling and data nondeterminism share one replayable choice stack.
class Explorer final : public ChoiceSource {
public:
  Explorer(const TestProgram &Program, const CheckerOptions &Opts);
  ~Explorer() override;

  /// Runs executions until the search is exhausted, a bug stops it, or a
  /// budget (time / execution count) runs out.
  CheckResult run();

  /// Seeds the first execution's choice stack with a recorded schedule
  /// (see core/Schedule.h). Must be called before run().
  ///
  /// With \p Frozen set, the preloaded records form an immutable prefix:
  /// the DFS never advances or pops them, so the search is confined to
  /// the subtree below the prefix. This is how ParallelExplorer shards
  /// the choice tree across workers.
  void preloadSchedule(const std::vector<struct ScheduleChoice> &Choices,
                       bool Frozen = false);

  /// preloadSchedule freezing only the first \p FrozenLen records: the
  /// rest of the preloaded stack stays advanceable. This is how a fleet
  /// or isolated attempt re-enters the middle of a frozen subtree.
  void preloadScheduleFrozenPrefix(
      const std::vector<struct ScheduleChoice> &Choices, size_t FrozenLen);

  /// Seeds the whole search from \p From: its stats, coverage, first bug
  /// and PRNG state carry over (so totals and budgets span the earlier
  /// run part), and its units run one after another, each confined below
  /// its frozen prefix -- the serial engine of runFrontier. Must precede
  /// run(); \p From must outlive the explorer.
  void preloadFrontier(const CheckpointState &From);

  /// Seeds the coverage table with signatures from an earlier run part,
  /// so DistinctStates and exported signatures stay cumulative.
  void preloadSeenStates(const std::vector<uint64_t> &States);

  /// Also record newly inserted state signatures in insertion order
  /// (stateLog); an isolated batch child streams coverage deltas from it.
  void enableStateLog() { LogStates = true; }
  const std::vector<uint64_t> &stateLog() const { return StateLog; }

  /// PRNG state accessors for checkpoint/resume and batch chaining.
  uint64_t rngState() const { return Rng.state(); }
  void setRngState(uint64_t S) { Rng.setState(S); }

  /// Live statistics; valid from the execution hook.
  const SearchStats &currentStats() const { return Result.Stats; }

  /// The DFS stack as schedule choices (Donated records excluded from
  /// nothing -- this is the raw stack). Valid from the execution hook or
  /// after run().
  std::vector<struct ScheduleChoice> currentStackSnapshot() const;

  /// Advances the stack past the last executed path and returns it -- the
  /// replay prefix of the next execution this explorer would have run.
  /// std::nullopt when the (sub)tree is exhausted. Call only after run()
  /// returned without itself advancing (hook stop, budget stop, bug
  /// stop); the isolated rung uses it to chain batches.
  std::optional<std::vector<struct ScheduleChoice>> nextFrontier();

  /// Streams every non-forced choice as it resolves (replayed or fresh):
  /// the isolated probe uses this to recover the exact stack of a crashing
  /// execution from outside the process. \p SleepMask is the POR sleep
  /// set at the choice point (0 when CheckerOptions::Por is off) and
  /// \p FlushMask the flush-agent bits of the candidate set (0 under
  /// --memory=sc), so recovered crash schedules replay mask-exactly
  /// under POR and weak memory too.
  void setChoiceStream(std::function<void(int Chosen, int Num, bool Backtrack,
                                          uint64_t SleepMask,
                                          uint64_t FlushMask)>
                           CB);

  /// Invoked after every execution (before the DFS stack advances).
  /// Returning false stops the search without marking it exhausted --
  /// the parallel driver's handle for global budgets, first-bug pruning
  /// and work donation.
  void setExecutionHook(std::function<bool(Explorer &)> Hook);

  /// Carves unexplored sibling alternatives off the DFS stack as frozen
  /// prefixes for other workers, shallowest (largest subtree) first, and
  /// marks the donated records so this explorer skips them. Only valid
  /// from within the execution hook. \returns the number of prefixes
  /// appended to \p Out (at most \p MaxItems).
  size_t splitWork(std::vector<std::vector<struct ScheduleChoice>> &Out,
                   size_t MaxItems);

  /// The Chosen values consumed by the execution that just finished --
  /// the path's position in DFS order. Two paths compare by the first
  /// differing choice index; this total order is what makes the parallel
  /// first-bug report deterministic.
  std::vector<int> consumedPathKey() const;

  /// State signatures this explorer inserted (TrackCoverage); the
  /// parallel driver unions the per-worker shards.
  const U64Set &seenStates() const { return SeenStates; }

  /// Binds this explorer to observability shard \p Worker of Opts.Obs
  /// (serial search and the replay path use shard 0; parallel workers get
  /// 1..Jobs). \p StartClock seeds the logical trace clock so a worker
  /// running many short-lived explorers keeps one monotonic time axis.
  /// No-op when no observer is attached.
  void setObsWorker(unsigned Worker, uint64_t StartClock = 0);

  /// Logical transitions this explorer has run; see setObsWorker.
  uint64_t obsClock() const { return ObsClock; }

  /// Uses \p P for fiber stacks instead of a private pool, letting a
  /// parallel worker share one pool across the many short-lived explorers
  /// it runs (one per work item). \p P must outlive the explorer; only
  /// meaningful with CheckerOptions::ReuseExecutionState. Call before
  /// run().
  void setStackPool(StackPool *P) { ExternalPool = P; }

  /// Incidents collected so far (data races under RaceCheckMode::On); an
  /// isolated batch child streams deltas of this list to its parent. Valid from
  /// the execution hook or after run().
  const std::vector<BugReport> &incidents() const { return Result.Incidents; }

  /// Records every executed transition (thread, op, object, enabled set,
  /// sleep mask, branch factor) plus the end classification into \p L --
  /// the incident explainer's data source (src/obs/Explain.h). \p L must
  /// outlive the explorer. Intended for single-execution replay runs; a
  /// full search would append every execution's steps.
  void setExplainLog(obs::ExplainLog *L) { Explain = L; }

  // ChoiceSource: data nondeterminism raised from inside a transition.
  int chooseInt(int N) override;

private:
  /// How one execution ended.
  enum class ExecEnd {
    Terminated,  ///< All threads finished.
    Bug,         ///< A violation was reported.
    Abandoned,   ///< Cut at a bound (counted as nonterminating) or timeout.
    Pruned,      ///< Stateful reference search reached a visited state.
    Diverged,    ///< Replay mismatch: the attempt does not count as an
                 ///< execution; the stack is untouched and retriable.
    Interrupted, ///< InterruptFlag observed mid-execution; not counted.
  };

  /// One entry of the DFS choice stack.
  struct ChoiceRec {
    int Chosen;
    int Num;
    bool Backtrack;
    /// Untried alternatives were handed to another worker via splitWork;
    /// advanceStack treats the record as exhausted. Kept separate from
    /// Backtrack so bug schedules serialize identically to a serial run.
    bool Donated = false;
    /// POR sleep set at this choice point (ScheduleChoice::SleepMask).
    uint64_t SleepMask = 0;
    /// Flush-agent candidate bits (ScheduleChoice::FlushMask); nonzero
    /// only under --memory=tso|pso.
    uint64_t FlushMask = 0;
  };

  ExecEnd runOneExecution();
  /// Folds one finished execution's detector results into the run:
  /// RacesChecked, and one deduplicated DataRace incident per novel race
  /// (keyed by the interleaving-independent report message).
  void harvestRaces(const RaceDetector &D, const Runtime &RT);
  /// Snapshot of the whole search state for CheckpointSink /
  /// CheckResult::Resume: stats, the current stack as one non-frozen
  /// frontier unit, RNG state, and sorted coverage signatures.
  std::shared_ptr<CheckpointState> makeCheckpointState() const;
  /// Sends \p E to the observer's sink with this worker's identity filled
  /// in. Call only when Obs && Obs->sink().
  void emitEvent(obs::ObsEvent E);
  /// Advances the deepest backtrackable choice, moving on to the next
  /// queued frontier unit when this one is exhausted; false when all are.
  bool advanceStack();
  /// Loads the next queued frontier unit as the stack; false when none.
  bool loadNextUnit();
  /// Resolves one choice among \p N options through the stack. Under POR
  /// \p SleepMask (the sleep set at the choice point) is recorded on
  /// fresh pushes and validated against the stack during replay;
  /// \p FlushMask (flush-agent candidate bits, --memory=tso|pso) is
  /// validated unconditionally -- it is always zero when weak memory is
  /// off, so sc replays of sc schedules are unaffected while a schedule
  /// replayed under the wrong memory model diverges deterministically.
  int pickIndex(int N, bool Backtrack, bool PickRandom,
                uint64_t SleepMask = 0, uint64_t FlushMask = 0);
  void reportBug(Verdict V, std::string Msg, const Runtime &RT,
                 uint64_t Step);
  /// Credits the just-completed path's Knuth leaf mass (the product of
  /// 1/branch-factor over its consumed backtrackable records) into the
  /// weighted-backtrack estimator. No-op unless CheckerOptions::Estimate.
  /// Pruned executions (POR and stateful) call this *at the prune site*,
  /// where the cursor still frames the pruned node, so the pruned
  /// subtree's mass is credited by construction and the estimator sums
  /// to 1.0 at exhaustion regardless of which exits prune; every other
  /// end credits from run().
  void creditEstimateMass();
  bool timeExceeded() const;
  static Tid nthMember(ThreadSet S, int Idx);

  const TestProgram &Program;
  CheckerOptions Opts;
  std::unique_ptr<SearchStrategy> Strategy;
  Xorshift Rng;

  std::vector<ChoiceRec> Stack;
  size_t Cursor = 0;
  size_t ReplayLen = 0; ///< Stack records present when the execution began.
  size_t FrozenLen = 0; ///< Leading records the DFS never advances past.
  /// The preloaded frontier's units; those from NextUnit on still run.
  const std::vector<CheckpointUnit> *Units = nullptr;
  size_t NextUnit = 0;
  bool ReplayMismatch = false;
  size_t MismatchIdx = 0; ///< Stack index where replay diverged.
  std::function<bool(Explorer &)> Hook;
  std::function<void(int, int, bool, uint64_t, uint64_t)> StreamCb;
  bool LogStates = false;
  std::vector<uint64_t> StateLog;
  obs::ExplainLog *Explain = nullptr;

  /// Knuth weighted-backtrack estimator (CheckerOptions::Estimate):
  /// Neumaier-compensated running sum of per-execution leaf masses;
  /// Result.Stats.EstimateMass always holds Sum + Comp so hooks and
  /// checkpoints see the compensated total.
  double EstMassSum = 0;
  double EstMassComp = 0;
  /// Borrowed view of Result.Profile (CheckerOptions::ProfileSearch);
  /// null when profiling is off, so hot-path hooks are one pointer test.
  obs::SearchProfile *Prof = nullptr;

  /// Observability (all null/zero when CheckerOptions::Obs is unset; every
  /// hot-path hook then reduces to one pointer test on Ctr).
  obs::Observer *Obs = nullptr;
  obs::WorkerCounters *Ctr = nullptr;
  unsigned ObsWorker = 0;
  /// Logical clock: transitions run by this explorer. Trace timestamps use
  /// it instead of wall time so serial traces are byte-reproducible.
  uint64_t ObsClock = 0;

  /// Execution-state recycling (CheckerOptions::ReuseExecutionState):
  /// one Runtime rewound via reset() per execution instead of a fresh
  /// object, with fiber stacks drawn from a pool. Declared before
  /// PersistentRT so the pool outlives the fibers that release into it.
  std::unique_ptr<StackPool> OwnPool;
  StackPool *ExternalPool = nullptr;
  std::unique_ptr<Runtime> PersistentRT;

  CheckResult Result;
  Trace CurTrace;
  /// Scratch for serializing Stack into ScheduleChoices (bug reports,
  /// race incidents); a member so repeated serialization reuses capacity.
  std::vector<struct ScheduleChoice> SchedScratch;
  /// Cross-execution race dedup: messages of every race already turned
  /// into an incident (the same race recurs in many interleavings).
  std::unordered_set<std::string> RaceKeys;
  /// Open-addressing flat tables (support/U64Set.h): one probe per
  /// signature on the hot path, pre-sized on resume by
  /// preloadSeenStates so long runs never rehash mid-search.
  U64Set SeenStates;
  U64Set PruneKeys;
  uint64_t CurExecution = 0;
  uint64_t CurSteps = 0;
  std::chrono::steady_clock::time_point StartTime;
};

} // namespace fsmc

#endif // FSMC_CORE_EXPLORER_H
