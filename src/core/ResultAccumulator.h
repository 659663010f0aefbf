//===- core/ResultAccumulator.h - Committed results of a search -*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Committed-result logic, shared by every engine: explorers hand back
/// unit-local Attempts, and the accumulator is the only place they turn
/// into a CheckResult or a CheckpointState -- stats merge, coverage union
/// and lookup count, race dedup against a checkpoint's RacesFound base,
/// the DFS-smallest bug, crash incidents with the stand-in verdict,
/// checkpoint assembly. Not thread-safe.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_RESULTACCUMULATOR_H
#define FSMC_CORE_RESULTACCUMULATOR_H

#include "core/Checkpoint.h"
#include "support/U64Set.h"

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

namespace fsmc {

namespace obs {
struct SearchProfile;
struct WorkerCounters;
} // namespace obs

/// DFS order over choice paths: the first differing choice index decides;
/// an ancestor precedes its extensions. Two distinct complete executions
/// always differ at some consumed index, so this totally orders bugs.
bool dfsBefore(const std::vector<int> &A, const std::vector<int> &B);

/// The Chosen values of \p P: its position in DFS order.
std::vector<int> pathKey(const std::vector<ScheduleChoice> &P);

/// The best bug so far: the DFS-smallest one, which is what a serial DFS
/// finds first, so every engine reports the same counterexample.
struct BestBug {
  bool Has = false;
  std::vector<int> Key;
  BugReport Bug;
  /// Random walks do not visit in DFS order; their first bug sticks.
  bool FirstWins = false;

  /// \returns true when \p B became the best bug.
  bool offer(const BugReport &B);
  /// True when a path with key \p K is DFS-at-or-after the best bug, so
  /// nothing at or below it can improve on it.
  bool covers(const std::vector<int> &K) const {
    return Has && !dfsBefore(K, Key);
  }
};

/// What an explorer hands back (Explorer::take) and a fleet UnitDone
/// record carries. Unit-local: the stats start from zero, and execution
/// indices count from the attempt's first execution until commit, unless
/// SearchWide says they are stamped already.
struct Attempt {
  bool TimedOut = false; ///< The attempt's own time budget expired.
  /// Execution indices are search-wide already: a --jobs worker stamps
  /// them from the shared execution counter.
  bool SearchWide = false;
  uint64_t Rng = 0;      ///< PRNG state at hand-back (serial and isolated
                         ///< runs chain it).
  SearchStats Stats;
  std::optional<BugReport> Bug; ///< The attempt's first bug.
  std::vector<BugReport> Incidents; ///< Data races, deduplicated.
  /// Signatures new to the explorer's coverage table, in insertion order.
  /// Every other lookup is one of Stats.StateHits.
  std::vector<uint64_t> States;
  std::vector<CheckpointUnit> Rem; ///< Unexplored remainder of the unit.
  std::shared_ptr<obs::SearchProfile> Profile; ///< Stays in-process.
};

class ResultAccumulator {
public:
  /// Starts from \p Base's committed stats, coverage and bug. Committed
  /// work is counted live into \p Ctr when non-null.
  ResultAccumulator(const CheckerOptions &Opts, const CheckpointState &Base,
                    obs::WorkerCounters *Ctr = nullptr);

  /// Committed totals; budget flags stay clear until finish().
  SearchStats Stats;
  BestBug Best;

  /// Commits one attempt's stats, signatures, incidents (data races
  /// deduplicated by message), profile and bug; its execution indices
  /// become search-wide (offset by the executions committed before it,
  /// unless Attempt::SearchWide). Rem, Rng and TimedOut are the caller's.
  /// Touches Best only when \p A carries a bug. \returns true when that
  /// bug became the best.
  bool commit(Attempt &A);
  /// Records a crash or hang incident at the current execution count and
  /// bumps its stat. An incident whose schedule is not known to reproduce
  /// it (\p Replayable false) is listed after the others.
  void addCrash(BugReport I, bool Replayable = true);

  const U64Set &states() const { return Seen; }

  /// The committed search plus \p Frontier, as a resumable checkpoint.
  std::shared_ptr<CheckpointState>
  checkpoint(std::vector<CheckpointUnit> Frontier, uint64_t Rng) const;

  /// The final result. Crash incidents come first in arrival order
  /// (replayable ones before the rest), then races sorted by message
  /// (deterministic across widths); with no workload bug the first crash
  /// stands in as the verdict.
  CheckResult finish(bool CapHit, bool TimedOut, bool Interrupted,
                     double Seconds);

private:
  const CheckerOptions &Opts;
  obs::WorkerCounters *Ctr;
  const uint64_t RaceBase;
  U64Set Seen;
  /// Signature lookups, committed and base: StateHits = Lookups - |Seen|,
  /// whichever way the search was split into attempts.
  uint64_t Lookups;
  std::unordered_set<std::string> RaceKeys;
  std::vector<BugReport> Races;
  std::vector<BugReport> Crashes, Unreplayable;
  std::shared_ptr<obs::SearchProfile> Profile;
};

} // namespace fsmc

#endif // FSMC_CORE_RESULTACCUMULATOR_H
