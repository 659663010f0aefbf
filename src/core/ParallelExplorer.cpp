//===- core/ParallelExplorer.cpp ------------------------------------------===//
//
// The parallel engine (docs/PERFORMANCE.md, "The parallel engine"). The
// workers share one pool: a mutex, a condition variable, a deque of
// frozen prefixes and a count of busy workers. A worker takes the oldest
// prefix -- splits are published shallowest-first, so that is the
// largest subtree -- and runs serial DFS below it. A worker that finds
// the pool empty raises SplitWanted and waits; the next busy worker to
// see the flag (one relaxed load per execution) publishes up to Jobs*2
// prefixes. The search is over when the pool is empty and no worker is
// busy, which is decided under the pool lock.
//
// The lock is taken per work item, never per execution. Each worker runs
// one Explorer for the whole search; its results (stats, coverage
// signatures, race dedup, search profile) stay pending in that explorer
// and commit once per worker per epoch, and the best bug is read through
// a version-stamped private copy. A steady-state execution touches only
// atomics: the execution counter, an execution slot under a cap, and
// relaxed flag loads.
//
//===----------------------------------------------------------------------===//

#include "core/ParallelExplorer.h"

#include "core/Checkpoint.h"
#include "core/Explorer.h"
#include "core/ResultAccumulator.h"
#include "obs/Observer.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

using namespace fsmc;

namespace {

using Prefix = std::vector<ScheduleChoice>;
constexpr auto Relaxed = std::memory_order_relaxed;

/// What the workers share. M guards Pool, Busy and Acc, and every rise
/// of a flag that a waiting worker acts on; the flags are read without it.
struct Shared {
  Shared(const CheckerOptions &Opts, const CheckpointState &Base)
      : MaxExecutions(Opts.MaxExecutions), Acc(Opts, Base) {}

  std::mutex M;
  /// Signalled when prefixes arrive, the search or epoch ends, or a stop
  /// is raised: waiting workers wake on events, not on a timer.
  std::condition_variable CV;
  std::deque<Prefix> Pool;
  /// Workers inside an item. An empty pool with no busy worker ends the
  /// search: only a busy worker can add prefixes.
  int Busy = 0;
  /// A worker waits on an empty pool. Cleared by the next publish; a busy
  /// worker with nothing to split leaves it standing.
  std::atomic<bool> SplitWanted{false};

  /// Executions run, search-wide.
  std::atomic<uint64_t> Executions{0};
  /// Execution slots handed out under MaxExecutions, never more than the
  /// cap. A worker holds a slot before its next execution runs, so
  /// Claimed == Executions + slots held, and the cap is exact.
  const uint64_t MaxExecutions;
  std::atomic<uint64_t> Claimed{0};

  std::atomic<bool> StopAll{false};
  std::atomic<bool> CapHit{false};
  std::atomic<bool> TimedOut{false};
  // Epoch control (checkpoint / interrupt): every worker stops at its next
  // execution boundary and puts its unexplored remainder into the pool,
  // which the driver then writes out.
  std::atomic<bool> EpochStop{false};
  std::atomic<bool> InterruptSeen{false};
  std::atomic<uint64_t> NextCheckpointAt{UINT64_MAX};

  /// Acc.Best (the DFS-smallest bug so far) is not read per execution:
  /// BugVersion bumps on every improvement, and workers keep a private
  /// copy refreshed only when the version moved. Pruning against a
  /// slightly stale best is sound -- a former best is DFS-after the
  /// current one.
  std::atomic<uint64_t> BugVersion{0};
  ResultAccumulator Acc;

  /// Takes an execution slot; false when the cap's slots are all out.
  bool claim() {
    if (!MaxExecutions)
      return true;
    uint64_t N = Claimed.load(Relaxed);
    do {
      if (N >= MaxExecutions)
        return false;
    } while (!Claimed.compare_exchange_weak(N, N + 1, Relaxed));
    return true;
  }
  void release() {
    if (MaxExecutions)
      Claimed.fetch_sub(1, Relaxed);
  }
};

} // namespace

CheckResult fsmc::runParallel(const TestProgram &Program,
                              const CheckerOptions &Opts,
                              const CheckpointState &Frontier) {
  const auto Start = std::chrono::steady_clock::now();
  const int Jobs = Opts.Jobs;
  Shared SH(Opts, Frontier);
  // A fresh search is one empty-prefix item that split requests fan out.
  for (const CheckpointUnit &U : Frontier.Frontier)
    for (Prefix &P : decomposeUnitToFrozenPrefixes(U))
      SH.Pool.push_back(std::move(P));
  SH.Executions.store(SH.Acc.Stats.Executions, Relaxed);

  const bool HasDeadline = Opts.TimeBudgetSeconds > 0;
  const auto Deadline =
      Start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(Opts.TimeBudgetSeconds));
  const bool StopOnFirstBug = Opts.StopOnFirstBug;
  const uint64_t Every = Opts.CheckpointSink ? Opts.CheckpointEvery : 0;
  auto scheduleCheckpoint = [&] {
    if (Every)
      SH.NextCheckpointAt.store(
          (SH.Executions.load(Relaxed) / Every + 1) * Every, Relaxed);
  };
  scheduleCheckpoint();

  // Budgets, interrupts and checkpoints belong to the driver, which
  // enforces them through the execution hook: a worker explorer must
  // never halt on its own.
  CheckerOptions WorkerOpts = Opts;
  WorkerOpts.InterruptFlag = nullptr;
  // One explorer per worker for the whole search, across items and
  // epochs. Worker ids 1..Jobs: observability shard 0 stays with the
  // driver, and the pool publishes its depth there.
  std::vector<std::unique_ptr<Explorer>> Explorers;
  for (int W = 1; W <= Jobs; ++W) {
    Explorers.push_back(std::make_unique<Explorer>(Program, WorkerOpts));
    Explorers.back()->setObsWorker(unsigned(W));
  }
  obs::WorkerCounters *DCtr = Opts.Obs ? &Opts.Obs->shard(0) : nullptr;

  auto WorkerMain = [&](int WorkerId) {
    Explorer &E = *Explorers[size_t(WorkerId) - 1];
    obs::WorkerCounters *WCtr =
        Opts.Obs ? &Opts.Obs->shard(unsigned(WorkerId)) : nullptr;
    obs::EventSink *Sink = Opts.Obs ? Opts.Obs->sink() : nullptr;

    // Every acquisition of the shared lock counts against the contention
    // budget.
    auto lock = [&] {
      if (WCtr)
        WCtr->add(obs::Counter::QueueLockAcquires);
      return std::unique_lock<std::mutex>(SH.M);
    };
    // Raised under the lock, so a worker about to wait cannot miss it.
    auto raise = [&](std::atomic<bool> &Flag) {
      if (Flag.load(Relaxed))
        return;
      {
        auto L = lock();
        Flag.store(true, Relaxed);
      }
      SH.CV.notify_all();
    };
    auto publish = [&](std::vector<Prefix> &Ps) {
      if (Ps.empty())
        return;
      {
        auto L = lock();
        for (Prefix &P : Ps)
          SH.Pool.push_back(std::move(P));
        SH.SplitWanted.store(false, Relaxed);
        if (DCtr)
          DCtr->setGauge(obs::Gauge::WorkQueueDepth, SH.Pool.size());
      }
      SH.CV.notify_all();
    };
    // Stops the item, putting every untried alternative into the pool.
    auto giveBack = [&](Explorer &Ex) {
      std::vector<Prefix> Rest;
      Ex.splitWork(Rest, SIZE_MAX);
      publish(Rest);
      return false;
    };

    // Version-stamped private copy of the best bug (see Shared).
    uint64_t LBugVer = 0;
    bool LHasBug = false;
    std::vector<int> LBestKey;
    auto RefreshBug = [&] {
      if (SH.BugVersion.load(std::memory_order_acquire) == LBugVer)
        return;
      auto L = lock();
      LBugVer = SH.BugVersion.load(Relaxed);
      LHasBug = SH.Acc.Best.Has;
      LBestKey = SH.Acc.Best.Key;
    };

    // The worker holds an execution slot for its next execution.
    bool Slot = false;
    // Search-wide index of the item's first buggy execution.
    std::optional<uint64_t> BugAt;
    // Search-wide index of each pending race incident, in order: the
    // explorer's own indices count only this worker's executions.
    std::vector<uint64_t> RaceAt;

    E.setExecutionHook([&](Explorer &Ex) {
      Slot = false; // This execution used it.
      const uint64_t N = SH.Executions.fetch_add(1, Relaxed) + 1;
      if (!BugAt && Ex.pending().Bug)
        BugAt = N - 1;
      RaceAt.resize(Ex.pending().Incidents.size(), N - 1);
      if (SH.MaxExecutions && N >= SH.MaxExecutions) {
        SH.CapHit.store(true, Relaxed);
        raise(SH.StopAll);
      }
      if (HasDeadline && std::chrono::steady_clock::now() >= Deadline) {
        SH.TimedOut.store(true, Relaxed);
        raise(SH.StopAll);
      }
      if (SH.StopAll.load(Relaxed))
        return false;
      // Epoch triggers: an interrupt or a crossed checkpoint boundary.
      if (Opts.InterruptFlag && Opts.InterruptFlag->load(Relaxed)) {
        SH.InterruptSeen.store(true, Relaxed);
        raise(SH.EpochStop);
      } else if (N >= SH.NextCheckpointAt.load(Relaxed)) {
        raise(SH.EpochStop);
      }
      if (SH.EpochStop.load(Relaxed))
        return giveBack(Ex);
      // First-bug pruning: everything this item would explore next is
      // DFS-after its current path, so once that path passes the best
      // bug the serial search would already have stopped.
      if (StopOnFirstBug) {
        RefreshBug();
        if (LHasBug && !dfsBefore(Ex.consumedPathKey(), LBestKey))
          return false;
      }
      // Every slot is out: the cap is reached once the holders run, or a
      // slot comes back unused and the remainder runs after all.
      if (!(Slot = SH.claim()))
        return giveBack(Ex);
      if (SH.SplitWanted.load(Relaxed)) {
        std::vector<Prefix> Split;
        if (size_t Donated = Ex.splitWork(Split, size_t(Jobs) * 2)) {
          if (WCtr) {
            WCtr->add(obs::Counter::Steals);
            WCtr->add(obs::Counter::PrefixesDonated, Donated);
          }
          if (Sink) {
            obs::ObsEvent Ev;
            Ev.Kind = obs::EventKind::Donation;
            Ev.Worker = unsigned(WorkerId);
            Ev.Ts = Ex.obsClock();
            Ev.ArgA = Donated;
            Sink->event(Ev);
          }
          publish(Split);
        }
      }
      return true;
    });

    // Ends the current item (if \p Finished) and takes the next prefix
    // with a slot to run it; nullopt once the search or the epoch is over.
    auto take = [&](bool Finished) -> std::optional<Prefix> {
      auto L = lock();
      if (Finished)
        --SH.Busy;
      for (;;) {
        if (SH.StopAll.load(Relaxed) || SH.EpochStop.load(Relaxed))
          break;
        if (!SH.Pool.empty()) {
          if (Slot || (Slot = SH.claim())) {
            Prefix P = std::move(SH.Pool.front());
            SH.Pool.pop_front();
            ++SH.Busy;
            if (DCtr)
              DCtr->setGauge(obs::Gauge::WorkQueueDepth, SH.Pool.size());
            return P;
          }
          if (SH.Busy == 0) {
            // No worker holds a slot, so every one was used before this
            // run part started: a resumed search already at the cap.
            SH.CapHit.store(true, Relaxed);
            SH.StopAll.store(true, Relaxed);
            break;
          }
        } else {
          if (SH.Busy == 0)
            break; // Exhausted.
          if (Slot) {
            SH.release();
            Slot = false;
          }
          SH.SplitWanted.store(true, Relaxed);
        }
        SH.CV.wait(L);
        if (WCtr) {
          WCtr->add(obs::Counter::QueueLockAcquires);
          if (SH.Pool.empty() && SH.Busy > 0 && !SH.StopAll.load(Relaxed) &&
              !SH.EpochStop.load(Relaxed))
            WCtr->add(obs::Counter::StealFails);
        }
      }
      L.unlock();
      SH.CV.notify_all();
      return std::nullopt;
    };

    bool Finished = false;
    while (std::optional<Prefix> P = take(Finished)) {
      Finished = true;
      // Serial semantics never reach subtrees past the first bug.
      if (StopOnFirstBug && !P->empty()) {
        RefreshBug();
        if (LHasBug && !dfsBefore(pathKey(*P), LBestKey))
          continue;
      }
      double Seconds = 0;
      if (HasDeadline) {
        // Re-derive the remaining budget so the explorer's mid-execution
        // time checks stay meaningful for this item.
        double Remaining = std::chrono::duration<double>(
                               Deadline - std::chrono::steady_clock::now())
                               .count();
        Seconds = Remaining > 0.001 ? Remaining : 0.001;
      }
      if (WCtr) {
        WCtr->add(obs::Counter::WorkItemsRun);
        WCtr->setGauge(obs::Gauge::ActiveWorkers, 1);
      }
      if (Sink) {
        obs::ObsEvent Ev;
        Ev.Kind = obs::EventKind::WorkItemStart;
        Ev.Worker = unsigned(WorkerId);
        Ev.Ts = E.obsClock();
        Ev.ArgA = P->size();
        Sink->event(Ev);
      }

      // Items start their PRNG from the seed, whoever runs them.
      E.setRngState(Opts.Seed);
      BugAt.reset();
      const size_t Len = P->size();
      if (E.runUnit({std::move(*P), Len}, /*Budget=*/0, Seconds) ==
          Explorer::UnitEnd::TimedOut) {
        // The item's remaining budget ran out mid-execution: the shared
        // deadline expired.
        SH.TimedOut.store(true, Relaxed);
        raise(SH.StopAll);
      }
      // Offered when the item ends, so first-bug pruning sees it at once;
      // everything else stays pending in the explorer.
      if (std::optional<BugReport> Bug = E.takeBug()) {
        if (BugAt)
          Bug->AtExecution = *BugAt;
        auto L = lock();
        if (SH.Acc.Best.offer(*Bug))
          SH.BugVersion.fetch_add(1, std::memory_order_release);
      }
      if (WCtr)
        WCtr->setGauge(obs::Gauge::ActiveWorkers, 0);
    }

    // One commit per worker per epoch, before the driver joins the
    // epoch's threads, so a checkpoint built between epochs sees complete
    // totals.
    auto MergeT0 = std::chrono::steady_clock::now();
    Attempt A = E.take();
    assert(RaceAt.size() == A.Incidents.size() && "race missed the hook");
    for (size_t I = 0; I < A.Incidents.size(); ++I)
      A.Incidents[I].AtExecution = RaceAt[I];
    A.SearchWide = true;
    {
      auto L = lock();
      SH.Acc.commit(A);
    }
    if (WCtr)
      WCtr->add(obs::Counter::MergeNs,
                uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - MergeT0)
                             .count()));
  };

  // The pool as a resumable checkpoint: only valid between epochs, when
  // every worker has joined and committed.
  auto checkpoint = [&] {
    std::vector<CheckpointUnit> Units;
    Units.reserve(SH.Pool.size());
    for (const Prefix &P : SH.Pool)
      Units.push_back({P, P.size()});
    return SH.Acc.checkpoint(std::move(Units), Opts.Seed);
  };

  bool Interrupted = false;
  std::shared_ptr<CheckpointState> Resume;
  for (;;) {
    SH.Claimed.store(SH.Executions.load(Relaxed), Relaxed);
    std::vector<std::thread> Workers;
    Workers.reserve(size_t(Jobs));
    for (int W = 1; W <= Jobs; ++W)
      Workers.emplace_back(WorkerMain, W);
    for (std::thread &W : Workers)
      W.join();

    // The search ended (exhausted, bug, cap, timeout), or a budget fired
    // while the epoch wound down, or the boundary met exhaustion.
    if (!SH.EpochStop.load(Relaxed) || SH.StopAll.load(Relaxed) ||
        (SH.Acc.Best.Has && StopOnFirstBug) || SH.Pool.empty())
      break;
    if (SH.InterruptSeen.load(Relaxed)) {
      Interrupted = true;
      Resume = checkpoint();
      break;
    }
    // Periodic checkpoint: write the pool out, then run the next epoch
    // from it.
    ++SH.Acc.Stats.Checkpoints;
    if (DCtr)
      DCtr->add(obs::Counter::Checkpoints);
    Opts.CheckpointSink(*checkpoint());
    scheduleCheckpoint();
    SH.EpochStop.store(false, Relaxed);
  }

  CheckResult Result = SH.Acc.finish(
      SH.CapHit.load(), SH.TimedOut.load(), Interrupted,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count());
  Result.Resume = std::move(Resume);
  return Result;
}
