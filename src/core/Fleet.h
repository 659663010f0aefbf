//===- core/Fleet.h - Supervised multi-process exploration -----*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fleet mode (--fleet=N; docs/FLEET.md): a coordinator process forks N
/// long-lived worker processes and streams leased work units -- frozen
/// schedule prefixes with an execution budget -- over pipes, merging each
/// unit's stats, incidents and remainder prefixes back deterministically.
///
/// The robustness contract, and the difference from --jobs=N (threads: a
/// crashing workload kills the whole search):
///
///   - a worker that crashes, exits or goes silent past its heartbeat
///     deadline loses only its uncommitted attempt; the unit is re-issued
///     with exponential backoff (every commit is one atomic record, so an
///     attempt either merges completely or not at all);
///   - a unit that kills FleetQuarantine consecutive workers is
///     quarantined as a Verdict::Crash incident, attributed to the exact
///     crashing schedule when the crash reproduces in isolation;
///   - dead workers are replaced up to a respawn budget, then the fleet
///     degrades to reduced width and finally to the isolated rung;
///   - SIGINT/SIGTERM drains the outstanding leases into one checkpoint
///     whose frontier reproduces the uninterrupted multiset on --resume.
///
/// The isolated rung runs one unit at a time, a forked child per batch.
/// When a child dies, the executions it finished commit, a probe child
/// recovers the crashing execution's exact stack as a replayable
/// Verdict::Crash (or Verdict::Hang) incident, and the search skips that
/// subtree: one bad execution costs one execution. Its three callers are
/// --isolate=batch, the last degradation rung and quarantine attribution
/// (docs/ROBUSTNESS.md). No workload code runs in the coordinator.
///
/// Exhaustive verdicts, stats and incident sets equal --jobs=N, also
/// under FSMC_FLEET_CHAOS fault injection.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_CORE_FLEET_H
#define FSMC_CORE_FLEET_H

#include "core/Checker.h"

namespace fsmc {

struct CheckpointState;

/// Runs the supervised multi-process search over \p Frontier, on top of
/// its committed stats, coverage and bug: with Opts.FleetWorkers workers,
/// or in the isolated rung alone under IsolationMode::Batch. Random
/// walks reach it only under isolation (runFrontier routes them and
/// stateful pruning to the serial engine otherwise).
CheckResult runFleet(const TestProgram &Program, const CheckerOptions &Opts,
                     const CheckpointState &Frontier);

} // namespace fsmc

#endif // FSMC_CORE_FLEET_H
