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
#include "core/ResultAccumulator.h"
#include "core/SearchStrategy.h"
#include "core/Trace.h"
#include "runtime/Runtime.h"
#include "runtime/StackPool.h"
#include "support/U64Set.h"
#include "support/Xorshift.h"

#include <chrono>
#include <memory>
#include <unordered_set>
#include <vector>

namespace fsmc {

namespace obs {
struct ObsEvent;
struct WorkerCounters;
struct SearchProfile;
struct ExplainLog;
} // namespace obs

/// One worker's explorer: runs frontier units, one after another, for the
/// whole search, and hands back what they produced as unit-local
/// Attempts for a ResultAccumulator to commit. Also serves as the
/// ChoiceSource that resolves Runtime::chooseInt data choices, so both
/// scheduling and data nondeterminism share one replayable choice stack.
class Explorer final : public ChoiceSource {
public:
  Explorer(const TestProgram &Program, const CheckerOptions &Opts);
  ~Explorer() override;

  /// Why runUnit returned.
  enum class UnitEnd {
    Exhausted,   ///< Every execution below the unit's frozen prefix ran.
    Bug,         ///< A bug stopped the unit (CheckerOptions::StopOnFirstBug).
    Budget,      ///< \p Budget executions ran.
    TimedOut,    ///< The unit's time budget ran out.
    Interrupted, ///< CheckerOptions::InterruptFlag was observed.
    Stopped,     ///< The execution hook returned false.
  };

  /// Runs DFS below \p U's frozen prefix (its first FrozenLen records are
  /// never advanced or popped), starting from the path \p U.Prefix. Stops
  /// after \p Budget executions (0 = no limit) or \p Seconds of wall time
  /// (0 = no limit). On a budget stop or an interrupt the unexplored rest
  /// of the unit becomes the pending attempt's remainder. Results
  /// accumulate in the pending attempt until take(); the PRNG, the
  /// coverage table and race dedup carry over from unit to unit.
  UnitEnd runUnit(const CheckpointUnit &U, uint64_t Budget = 0,
                  double Seconds = 0);

  /// Hands back everything accumulated since the last take() -- stats,
  /// first bug, race incidents, newly seen signatures, remainder, PRNG
  /// state, profile -- and starts a fresh pending attempt.
  Attempt take();
  /// Hands back only the pending first bug, so the next one can be kept.
  std::optional<BugReport> takeBug();
  /// The attempt accumulated so far; valid from the execution hook.
  const Attempt &pending() const { return Pending; }

  /// Seeds the coverage table with signatures committed earlier, so only
  /// new ones are handed back and lookups of old ones count as hits.
  void preloadSeenStates(const std::vector<uint64_t> &States);

  /// PRNG state accessors for checkpoint/resume and batch chaining.
  uint64_t rngState() const { return Rng.state(); }
  void setRngState(uint64_t S) { Rng.setState(S); }

  /// The DFS stack as schedule choices (Donated records included -- this
  /// is the raw stack). Valid from the execution hook.
  std::vector<struct ScheduleChoice> currentStackSnapshot() const;

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
                           CB) {
    StreamCb = std::move(CB);
  }

  /// Invoked after every execution (before the DFS stack advances).
  /// Returning false stops the unit without marking it exhausted -- the
  /// drivers' handle for global budgets, first-bug pruning and work
  /// donation.
  void setExecutionHook(std::function<bool(Explorer &)> H) {
    Hook = std::move(H);
  }

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

  /// Binds this explorer to observability shard \p Worker of Opts.Obs
  /// (serial search and the replay path use shard 0; parallel workers get
  /// 1..Jobs). No-op when no observer is attached.
  void setObsWorker(unsigned Worker);

  /// Logical transitions this explorer has run: the worker's trace clock.
  uint64_t obsClock() const { return ObsClock; }

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
  /// Sends \p E to the observer's sink with this worker's identity filled
  /// in. Call only when Obs && Obs->sink().
  void emitEvent(obs::ObsEvent E);
  /// Advances the deepest backtrackable choice above the frozen prefix;
  /// false when the unit is exhausted.
  bool advanceStack();
  /// Advances past the finished execution and records the rest of the
  /// unit, if any, as the pending remainder. \returns \p End.
  UnitEnd stopWithRemainder(UnitEnd End);
  /// Starts an empty pending attempt (with a fresh profile when
  /// profiling).
  void startAttempt();
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
  /// end credits from runUnit().
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
  bool ReplayMismatch = false;
  size_t MismatchIdx = 0; ///< Stack index where replay diverged.
  std::function<bool(Explorer &)> Hook;
  std::function<void(int, int, bool, uint64_t, uint64_t)> StreamCb;
  obs::ExplainLog *Explain = nullptr;

  /// Knuth weighted-backtrack estimator (CheckerOptions::Estimate):
  /// Neumaier-compensated running sum of per-execution leaf masses;
  /// Pending.Stats.EstimateMass always holds Sum + Comp so hooks see the
  /// compensated total. Restarts with each pending attempt.
  double EstMassSum = 0;
  double EstMassComp = 0;
  /// Borrowed view of Pending.Profile (CheckerOptions::ProfileSearch);
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

  /// Execution-state recycling: one Runtime, rewound via reset() before
  /// every execution but the first, with fiber stacks drawn from the
  /// pool. Pool is declared first so it outlives the fibers that release
  /// into it.
  StackPool Pool;
  std::unique_ptr<Runtime> PersistentRT;

  Attempt Pending;
  /// Executions handed back by earlier take()s: with the pending count,
  /// the execution index trace events carry.
  uint64_t ExecsTaken = 0;
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
  uint64_t CurSteps = 0;
  /// The running unit's start and time budget (0 = none).
  std::chrono::steady_clock::time_point StartTime;
  double TimeBudget = 0;
};

} // namespace fsmc

#endif // FSMC_CORE_EXPLORER_H
