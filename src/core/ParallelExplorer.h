//===- core/ParallelExplorer.h - Prefix-sharded parallel search *- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel exploration engine: N OS worker threads cooperatively
/// enumerate the same DFS choice tree the serial Explorer walks, sharded
/// by schedule prefix.
///
/// Stateless search parallelizes on a simple observation: every execution
/// is a pure function of its choice sequence, so any subtree of the
/// choice tree can be explored by whoever holds the prefix that reaches
/// it. A work item is such a prefix; a worker replays it (the frozen
/// prefix of Explorer::runUnit), then runs the ordinary serial
/// DFS strictly below it. Workers whose queue runs hungry receive
/// donations: a busy worker carves the unexplored sibling alternatives
/// off the *shallowest* record of its DFS stack -- the largest subtrees
/// it owns -- and publishes them as new items (work stealing by
/// splitting).
///
/// The partition is exact -- every complete execution of the serial
/// search runs on exactly one worker -- so the aggregated execution,
/// transition and state-signature totals equal the serial run's, and the
/// per-worker signature shards merge by plain set union. Under
/// StopOnFirstBug the engine reports the *DFS-smallest* bug: candidate
/// bugs are ordered by their choice sequence (first differing choice
/// index decides), work that lies after the current best is pruned, and
/// work before it keeps running until no earlier bug can exist. That
/// tie-break makes `--jobs N` report the same counterexample as
/// `--jobs 1`.
///
/// Random-walk search and stateful pruning depend on a global visit
/// order, so they fall back to the serial explorer.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_PARALLELEXPLORER_H
#define FSMC_CORE_PARALLELEXPLORER_H

#include "core/Checker.h"

#include <memory>

namespace fsmc {

struct CheckpointState;

/// Drives one parallel checker run with Opts.Jobs workers.
class ParallelExplorer {
public:
  /// Explores \p Frontier (a fresh search is the one-unit root frontier):
  /// its units are sharded into fully frozen subtree prefixes
  /// (decomposeUnitToFrozenPrefixes), and its stats, coverage and first
  /// bug carry over so a resumed run reports cumulative totals. Random
  /// walks and stateful pruning do not shard; runFrontier runs them
  /// serially.
  ParallelExplorer(const TestProgram &Program, const CheckerOptions &Opts,
                   const CheckpointState &Frontier);
  ~ParallelExplorer();

  /// Runs the sharded search to completion (exhaustion, first bug, or a
  /// shared budget) and returns the aggregated result. Honors
  /// CheckerOptions::CheckpointEvery / InterruptFlag at epoch granularity:
  /// workers wind down at the next execution boundary, stash their
  /// unexplored remainders (splitWork over the whole stack), and the
  /// driver either writes a checkpoint and requeues the stash or returns
  /// with CheckResult::Resume.
  CheckResult run();

private:
  struct Shared;

  const TestProgram &Program;
  CheckerOptions Opts;
  const CheckpointState &Frontier;
};

} // namespace fsmc

#endif // FSMC_CORE_PARALLELEXPLORER_H
