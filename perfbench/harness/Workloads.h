//===- perfbench/harness/Workloads.h - Benchmark workloads -----*- C++ -*-===//
//
// Part of the fsmc benchmark harness (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four benchmark workloads and their known answers. A workload is a
/// list of entries; each entry is one checker invocation (a program plus
/// CheckerOptions) with the result it must produce. The exhaustive and
/// capped workloads have one entry; bug-hunt has one per seeded bug.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_PERFBENCH_WORKLOADS_H
#define FSMC_PERFBENCH_WORKLOADS_H

#include "core/Checker.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// What one check must report. Zero counts are not checked.
struct Expected {
  fsmc::Verdict Kind = fsmc::Verdict::Pass;
  bool Exhausted = false;
  bool CapHit = false;
  uint64_t Executions = 0;
  uint64_t Transitions = 0;
  uint64_t States = 0;
  uint64_t Quarantined = 0;
};

struct Entry {
  /// Metric-safe name, e.g. "channels-bug1". README.md lists the
  /// equivalent fsmc_run invocation of each entry.
  std::string Name;
  std::function<fsmc::TestProgram()> Make;
  fsmc::CheckerOptions Opts;
  Expected Want;
  /// The program kills the process that runs it in-process: only the
  /// sandbox or the fleet may execute it, so the probe skips it.
  bool KillsProcess = false;
  /// Options for replaying a found bug's schedule: the search options,
  /// except that fleet entries replay under the sandbox (replaySchedule
  /// has no fleet path, and an in-process replay of a crash would kill
  /// the caller).
  fsmc::CheckerOptions replayOptions() const;
};

struct Workload {
  std::string Name;
  std::vector<Entry> Entries;
  /// Every check runs in a forked child so a checker crash or hang costs
  /// only its own entry (bug-hunt).
  bool Forked = false;
  /// Wall time of one unit -- one check, or one pass over every entry --
  /// on the reference machine (README.md). A run of S seconds does
  /// S / UnitSeconds units, so both sides of a comparison do the same work.
  double UnitSeconds = 1;
};

/// \returns the workload called \p Name, or null.
const Workload *findWorkload(const std::string &Name);

/// The fleet entry of bug-hunt with FleetRespawnBudget=64, which keeps
/// the coordinator alive: traced bug-hunt runs check it once to measure
/// the fleet's recovery counters.
const Entry &fleetSurvivalEntry();

/// Compares \p R with \p E.Want. \returns an empty string on a match,
/// else what differed.
std::string checkAnswer(const Entry &E, const fsmc::CheckResult &R);

} // namespace perfbench

#endif // FSMC_PERFBENCH_WORKLOADS_H
