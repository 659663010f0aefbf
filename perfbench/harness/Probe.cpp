//===- perfbench/harness/Probe.cpp - Outside-in layer probe ---------------===//
//
// Part of the fsmc benchmark harness (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Probe.h"

#include "core/Dependence.h"
#include "core/FairScheduler.h"
#include "core/SearchStrategy.h"
#include "runtime/Fiber.h"
#include "runtime/Runtime.h"
#include "runtime/StackPool.h"
#include "state/CoverageTracker.h"

#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

using namespace fsmc;

namespace perfbench {

const char *callMetric(Call C) {
  switch (C) {
  case Call::FiberRoundtrip:
    return "runtime.fiber_roundtrip_ns";
  case Call::Reset:
    return "runtime.reset_ns";
  case Call::EnabledSet:
    return "runtime.enabled_set_ns";
  case Call::Allowed:
    return "fair.allowed_ns";
  case Call::Candidates:
    return "strategy.candidates_ns";
  case Call::Step:
    return "runtime.step_ns";
  case Call::OnTransition:
    return "fair.on_transition_ns";
  case Call::Signature:
    return "runtime.signature_ns";
  case Call::Record:
    return "state.record_ns";
  case Call::Independent:
    return "por.independent_ns";
  case Call::NumCalls:
    break;
  }
  return "?";
}

void ProbeResult::add(const ProbeResult &O) {
  for (unsigned C = 0; C < unsigned(Call::NumCalls); ++C) {
    Ns[C] += O.Ns[C];
    Calls[C] += O.Calls[C];
  }
  Transitions += O.Transitions;
}

double ProbeResult::meanNs(Call C) const {
  uint64_t N = Calls[unsigned(C)];
  if (!N)
    return 0;
  return std::max(0.0, double(Ns[unsigned(C)]) / double(N) - ClockNs);
}

double ProbeResult::perTransition(Call C) const {
  return Transitions ? double(Calls[unsigned(C)]) / double(Transitions) : 0;
}

double clockOverheadNs() {
  std::vector<int64_t> D(4000);
  for (int64_t &X : D) {
    int64_t T0 = nowNs();
    X = nowNs() - T0;
  }
  // The mean of the fastest 90%: preempted pairs are not timer cost.
  std::sort(D.begin(), D.end());
  D.resize(D.size() * 9 / 10);
  double Sum = 0;
  for (int64_t X : D)
    Sum += double(X);
  return Sum / double(D.size());
}

namespace {

/// Resolves every data choice to its first alternative, like the
/// first-candidate scheduling the probe uses.
class FirstChoice final : public ChoiceSource {
public:
  int chooseInt(int) override { return 0; }
};

/// Times calls and records one span per call.
class Timer {
public:
  Timer(ProbeResult &Out, SpanLog &Log) : Out(Out), Log(Log) {
    // Span names drop the metric's "_ns" unit suffix: "runtime.step".
    for (unsigned C = 0; C < unsigned(Call::NumCalls); ++C) {
      std::string M = callMetric(Call(C));
      Names[C] = Log.intern(M.substr(0, M.size() - 3));
    }
  }

  template <class Fn> auto operator()(Call C, int Parent, Fn &&F) {
    int64_t T0 = nowNs();
    if constexpr (std::is_void_v<decltype(F())>) {
      F();
      note(C, Parent, T0, nowNs());
    } else {
      auto R = F();
      note(C, Parent, T0, nowNs());
      return R;
    }
  }

private:
  void note(Call C, int Parent, int64_t T0, int64_t T1) {
    Out.Ns[unsigned(C)] += uint64_t(T1 - T0);
    ++Out.Calls[unsigned(C)];
    Log.add(Names[unsigned(C)], Parent, T0, T1);
  }

  ProbeResult &Out;
  SpanLog &Log;
  int Names[unsigned(Call::NumCalls)];
};

struct FiberPair {
  Fiber Host;
  Fiber Child;
};

void bounceBack(void *Arg) {
  auto *P = static_cast<FiberPair *>(Arg);
  for (;;)
    Fiber::switchTo(P->Child, P->Host);
}

} // namespace

void probeFiber(int Iterations, ProbeResult &Out, SpanLog &Log, int Parent) {
  StackPool Pool;
  FiberPair P;
  P.Host.initAsHost();
  if (!P.Child.initWithEntry(Fiber::DefaultStackBytes, bounceBack, &P, &Pool))
    return;
  Fiber::switchTo(P.Host, P.Child); // Warm: the first switch starts it.
  Timer Time(Out, Log);
  int Span = Log.open("probe.fiber", Parent);
  for (int I = 0; I < Iterations; ++I)
    Time(Call::FiberRoundtrip, Span, [&] { Fiber::switchTo(P.Host, P.Child); });
  Log.close(Span);
}

void probeEntry(const Entry &E, uint64_t TransitionBudget, uint64_t StepCap,
                ProbeResult &Out, SpanLog &Log, int Parent) {
  if (E.KillsProcess)
    return;
  const CheckerOptions &O = E.Opts;
  TestProgram Program = E.Make();
  StackPool Pool;
  FirstChoice Choices;
  Runtime::Options RO;
  RO.Pool = &Pool;
  RO.Memory = O.Memory;
  Runtime RT(Choices, RO);
  std::unique_ptr<SearchStrategy> Strategy = SearchStrategy::create(O);
  CoverageTracker Coverage;
  Timer Time(Out, Log);
  int Top = Log.open("probe." + E.Name, Parent);

  for (uint64_t Done = 0, Exec = 0; Done < TransitionBudget; ++Exec) {
    int Span = Log.open("probe.execution", Top);
    if (Exec == 0)
      RT.start(Program.Body);
    else
      Time(Call::Reset, Span, [&] {
        RT.reset(RO);
        RT.start(Program.Body);
      });
    FairScheduler FS(O.YieldK);
    Strategy->beginExecution();
    Tid Prev = -1;
    int Preemptions = 0;
    for (uint64_t Steps = 0; Steps < StepCap; ++Steps) {
      ThreadSet ES =
          Time(Call::EnabledSet, Span, [&] { return RT.enabledSet(); });
      if (ES.empty())
        break;
      ThreadSet Allowed =
          Time(Call::Allowed, Span, [&] { return FS.allowed(ES); });
      SchedContext C;
      C.Enabled = ES;
      C.Allowed = Allowed;
      C.Prev = Prev;
      C.PrevEnabled = Prev >= 0 && ES.contains(Prev);
      C.PrevAllowed = Prev >= 0 && Allowed.contains(Prev);
      C.PrevAtYield = Prev >= 0 && RT.yieldPending(Prev);
      C.Step = Steps;
      C.PreemptionsUsed = Preemptions;
      CandidateSet Cands =
          Time(Call::Candidates, Span, [&] { return Strategy->candidates(C); });
      Tid T = *Cands.Set.begin();
      const PendingOp Op = RT.pendingOf(T);
      for (Tid Other : Cands.Set)
        if (Other != T)
          Time(Call::Independent, Span, [&] {
            return independentTransitions(Other, RT.pendingOf(Other), T, Op);
          });
      if (T != Prev && C.PrevEnabled && C.PrevAllowed && !C.PrevAtYield)
        ++Preemptions;
      StepStatus St = Time(Call::Step, Span, [&] { return RT.step(T); });
      ++Out.Transitions;
      ++Done;
      if (St == StepStatus::Failed)
        break;
      ThreadSet After =
          Time(Call::EnabledSet, Span, [&] { return RT.enabledSet(); });
      Time(Call::OnTransition, Span,
           [&] { FS.onTransition(T, ES, After, Op.isYield()); });
      uint64_t Sig =
          Time(Call::Signature, Span, [&] { return RT.stateSignature(); });
      Time(Call::Record, Span, [&] { return Coverage.record(Sig); });
      Prev = St == StepStatus::Finished ? -1 : T;
    }
    Log.close(Span);
  }
  Log.close(Top);
}

} // namespace perfbench
