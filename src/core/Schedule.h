//===- core/Schedule.h - Serialized schedules for bug replay ---*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialized schedules: the choice sequence of one execution, printable
/// and replayable. CHESS's headline workflow is deterministic repro --
/// "CHESS executes this test repeatedly, while controlling the thread
/// schedule" -- and a found bug is only useful if the failing schedule
/// can be re-run under a debugger. A Schedule captures exactly the
/// explorer's non-forced choices; forced moves are recomputed during
/// replay, so schedules stay short and survive unrelated code edits that
/// do not change the choice structure.
///
/// Wire format (version 1):
///   fsmc1:c/n;c/n;...;c/n
/// where each `c/n` is the chosen index and the number of options of one
/// choice point (scheduling or data). Non-backtrackable (random-tail)
/// choices are marked with a trailing `r`. Under --memory=tso|pso a
/// scheduling choice whose candidates include store-buffer flush agents
/// (docs/MEMORY.md) carries their bits as a trailing `f<hex>` thread
/// mask; replay recomputes the flush-agent set and validates it against
/// the recorded mask, so a schedule replayed under the wrong memory
/// model surfaces as Verdict::Divergence instead of silently exploring a
/// different interleaving. Under sleep-set POR (CheckerOptions::Por) a
/// scheduling choice additionally carries the sleep set at the choice
/// point as a trailing `s<hex>` thread mask, validated the same way
/// against the wrong POR mode. Suffix order is `r`, `f<hex>`, `s<hex>`.
/// Schedules recorded with POR off and --memory=sc carry no masks and
/// are byte-identical to pre-POR, pre-weak-memory output.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_SCHEDULE_H
#define FSMC_CORE_SCHEDULE_H

#include "core/Checker.h"

#include <string>
#include <vector>

namespace fsmc {

/// One recorded choice: `Chosen` of `Num` options.
struct ScheduleChoice {
  int Chosen = 0;
  int Num = 1;
  bool Backtrack = true;
  /// Sleep set (ThreadSet::rawBits) at this choice point; nonzero only
  /// for scheduling choices recorded under CheckerOptions::Por. The mask
  /// is the set *before* this choice resolves, so every sibling at the
  /// same node shares it -- which is what lets splitWork donate siblings
  /// with the mask copied verbatim.
  uint64_t SleepMask = 0;
  /// Flush-agent bits (tids >= Runtime::FlushBase) of the candidate set
  /// at this choice point; nonzero only for scheduling choices recorded
  /// under --memory=tso|pso with at least one flush agent among the
  /// candidates. Shared by every sibling at the node, like SleepMask.
  uint64_t FlushMask = 0;
};

/// Renders choices in the `fsmc1:` wire format.
std::string encodeSchedule(const std::vector<ScheduleChoice> &Choices);

/// Parses the wire format strictly: every number must be the whole of
/// its field and fit its type. \returns false on malformed input, leaving
/// \p Out unspecified and, when \p Why is non-null, the reason in it.
bool decodeSchedule(const std::string &Text, std::vector<ScheduleChoice> &Out,
                    std::string *Why = nullptr);

/// The Chosen values of schedule \p Text -- its position in DFS order --
/// without materialising its records (a livelock schedule has as many as
/// the execution bound); empty when \p Text is malformed.
std::vector<int> schedulePathKey(const std::string &Text);

/// Re-executes \p Program once under the recorded \p Schedule (typically
/// BugReport::Schedule) and reports that single execution's outcome.
/// The options must match the original run's semantics-affecting knobs
/// (Fair, YieldK, bounds); scheduling decisions come from the schedule.
CheckResult replaySchedule(const TestProgram &Program,
                           const CheckerOptions &Opts,
                           const std::string &Schedule);

} // namespace fsmc

#endif // FSMC_CORE_SCHEDULE_H
