//===- perfbench/harness/Probe.h - Outside-in layer probe ------*- C++ -*-===//
//
// Part of the fsmc benchmark harness (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layer probe drives a workload's own program through the public
/// calls of src/runtime, src/core and src/state -- the loop the explorer
/// runs, written out by hand -- and takes the first fair candidate at each
/// step. Every call is timed and recorded as a span, so each layer's cost
/// per call is measured from outside the checker without changing it.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_PERFBENCH_PROBE_H
#define FSMC_PERFBENCH_PROBE_H

#include "Spans.h"
#include "Workloads.h"

#include <cstdint>

namespace perfbench {

/// The probed public calls.
enum class Call : unsigned {
  FiberRoundtrip, ///< Fiber::switchTo there and back.
  Reset,          ///< Runtime::reset + Runtime::start.
  EnabledSet,     ///< Runtime::enabledSet.
  Allowed,        ///< FairScheduler::allowed.
  Candidates,     ///< SearchStrategy::candidates.
  Step,           ///< Runtime::step (switch + workload body).
  OnTransition,   ///< FairScheduler::onTransition.
  Signature,      ///< Runtime::stateSignature.
  Record,         ///< CoverageTracker::record.
  Independent,    ///< independentTransitions.
  NumCalls
};

/// The per-layer metric name of \p C, e.g. "runtime.step_ns".
const char *callMetric(Call C);

struct ProbeResult {
  uint64_t Ns[unsigned(Call::NumCalls)] = {};
  uint64_t Calls[unsigned(Call::NumCalls)] = {};
  uint64_t Transitions = 0;
  /// Cost of one steady_clock::now() pair, subtracted from every call.
  double ClockNs = 0;

  void add(const ProbeResult &O);
  /// Mean ns per call of \p C with the clock cost removed; 0 if unseen.
  double meanNs(Call C) const;
  /// Calls of \p C per probed transition.
  double perTransition(Call C) const;
};

/// Measures the cost of the timing itself: one steady_clock::now() pair.
double clockOverheadNs();

/// Times \p Iterations bare fiber round trips.
void probeFiber(int Iterations, ProbeResult &Out, SpanLog &Log, int Parent);

/// Runs \p E's program from the start, taking the first candidate at each
/// step, until \p TransitionBudget transitions have run; an execution is
/// cut after \p StepCap transitions. Programs that kill their process are
/// never probed (Entry::KillsProcess).
void probeEntry(const Entry &E, uint64_t TransitionBudget, uint64_t StepCap,
                ProbeResult &Out, SpanLog &Log, int Parent);

} // namespace perfbench

#endif // FSMC_PERFBENCH_PROBE_H
