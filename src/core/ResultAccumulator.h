//===- core/ResultAccumulator.h - Committed results of a search -*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Committed-result logic for the engines that split a search into
/// attempts (the parallel explorer's epoch merge, the fleet and its
/// isolated rung): stats merge, coverage union, race dedup against a
/// checkpoint's RacesFound base, the DFS-smallest bug, crash incidents
/// with the stand-in verdict, checkpoint assembly. Not thread-safe.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_RESULTACCUMULATOR_H
#define FSMC_CORE_RESULTACCUMULATOR_H

#include "core/Checkpoint.h"

#include <memory>
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

class ResultAccumulator {
public:
  /// Starts from \p Base's committed stats, coverage and bug. Committed
  /// work is counted live into \p Ctr when non-null.
  ResultAccumulator(const CheckerOptions &Opts, const CheckpointState &Base,
                    obs::WorkerCounters *Ctr = nullptr);

  /// Committed totals; budget flags stay clear until finish().
  SearchStats Stats;
  BestBug Best;

  /// Commits one attempt: its unit-local stats, the coverage signatures
  /// it saw, and its incidents, with data races deduplicated by message.
  template <typename StateRange>
  void commit(const SearchStats &S, const StateRange &States,
              const std::vector<BugReport> &Incidents) {
    Seen.insert(States.begin(), States.end());
    commitStatsAndIncidents(S, Incidents);
  }
  void mergeProfile(const std::shared_ptr<obs::SearchProfile> &P);
  /// Records a crash or hang incident at the current execution count and
  /// bumps its stat. An incident whose schedule is not known to reproduce
  /// it (\p Replayable false) is listed after the others.
  void addCrash(BugReport I, bool Replayable = true);

  const std::unordered_set<uint64_t> &states() const { return Seen; }

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
  void commitStatsAndIncidents(const SearchStats &S,
                               const std::vector<BugReport> &Incidents);

  const CheckerOptions &Opts;
  obs::WorkerCounters *Ctr;
  const uint64_t RaceBase;
  std::unordered_set<uint64_t> Seen;
  std::unordered_set<std::string> RaceKeys;
  std::vector<BugReport> Races;
  std::vector<BugReport> Crashes, Unreplayable;
  std::shared_ptr<obs::SearchProfile> Profile;
};

} // namespace fsmc

#endif // FSMC_CORE_RESULTACCUMULATOR_H
