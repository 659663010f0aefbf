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
/// prefix of Explorer::runUnit), then runs the ordinary serial DFS
/// strictly below it. The workers share one locked pool of prefixes. A
/// worker that finds the pool empty asks for a split, and the first busy
/// worker to see the request carves the unexplored sibling alternatives
/// off the *shallowest* records of its DFS stack -- the largest subtrees
/// it owns -- into the pool.
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

namespace fsmc {

struct CheckpointState;

/// Explores \p Frontier with Opts.Jobs worker threads, on top of its
/// committed stats, coverage and bug (a fresh search is the one-unit root
/// frontier). Its units are sharded into fully frozen subtree prefixes
/// (decomposeUnitToFrozenPrefixes). The search runs to exhaustion, first
/// bug or a shared budget; MaxExecutions is exact. Honors
/// CheckerOptions::CheckpointEvery / InterruptFlag at epoch granularity:
/// workers wind down at the next execution boundary and put their
/// unexplored remainders back into the pool, and the driver either writes
/// the pool out as a checkpoint and runs the next epoch or returns it as
/// CheckResult::Resume. Random walks and stateful pruning do not shard;
/// runFrontier runs them serially.
CheckResult runParallel(const TestProgram &Program, const CheckerOptions &Opts,
                        const CheckpointState &Frontier);

} // namespace fsmc

#endif // FSMC_CORE_PARALLELEXPLORER_H
