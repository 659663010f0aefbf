//===- workloads/CrashFault.h - Fault-injection workload -------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small racy program that injects a process-level fault -- a null
/// dereference, std::abort, or a hard spin -- on one rare interleaving.
/// CHESS's production targets (Section 6) misbehaved exactly like this:
/// the bug is not an assertion the checker can catch in-process but a
/// death of the process itself. This workload exercises --isolate=batch:
/// isolation must harvest the fault as Verdict::Crash / Verdict::Hang
/// with a replayable schedule while the search of the remaining
/// interleavings completes.
///
/// The benign configuration (Fault::None) is an ordinary two-writer race
/// check and is safe to run in-process.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_WORKLOADS_CRASHFAULT_H
#define FSMC_WORKLOADS_CRASHFAULT_H

#include "core/Checker.h"

namespace fsmc {

struct CrashFaultConfig {
  /// What happens on the triggering interleaving.
  enum class Fault {
    None,     ///< Nothing: the benign race-reader configuration.
    NullDeref,///< Dereference null: SIGSEGV, isolation sees a crash.
    Abort,    ///< std::abort(): SIGABRT, isolation sees a crash.
    Hang,     ///< Spin inside one transition forever: the isolation
              ///< watchdog kills the child and reports a hang.
    Race,     ///< No process fault; the writers and the reader share a
              ///< plain (unsynchronized) variable instead, seeding the
              ///< data races --races=on must find.
  };
  Fault Kind = Fault::None;
};

/// Builds the fault-injection program. Two writers race a reader; the
/// fault fires only when the reader observes the first writer's value
/// after the second writer already started -- one specific interleaving
/// among dozens, so the search survives several executions before
/// tripping it.
TestProgram makeCrashFaultProgram(const CrashFaultConfig &Config);

} // namespace fsmc

#endif // FSMC_WORKLOADS_CRASHFAULT_H
