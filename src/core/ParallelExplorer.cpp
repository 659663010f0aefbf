//===- core/ParallelExplorer.cpp ------------------------------------------===//
//
// The work-stealing parallel engine (docs/PERFORMANCE.md, "Parallel
// search"). Architecture in one paragraph: each worker owns a private
// WorkStealDeque of frozen-prefix items and runs serial DFS on whatever
// it pops; the shared WorkQueue survives only as a cold-path injector
// (seeding, epoch restarts, idle parking). A starving worker first
// sweeps the other deques (steal-half from the top, shallowest-first =
// largest subtrees), and only when every deque is empty posts a *steal
// request* on an active victim; the victim answers at its next execution
// boundary by splitting its shallowest unexplored siblings onto its own
// deque top, where thieves grab them. Each worker runs one Explorer for
// the whole search; its results (stats, coverage signatures, race dedup,
// search profile) accumulate in that explorer's pending attempt and
// commit once per worker per epoch, so the steady-state execution loop
// acquires no shared lock at all: its only shared traffic is a handful
// of relaxed atomic loads and one fetch_add on the execution counter.
// The best-bug check that used to take a mutex every execution is now a
// generation-stamped cache refreshed only when some worker actually
// lands a better bug.
//
//===----------------------------------------------------------------------===//

#include "core/ParallelExplorer.h"

#include "core/Checkpoint.h"
#include "core/Explorer.h"
#include "core/ResultAccumulator.h"
#include "core/WorkQueue.h"
#include "core/WorkStealDeque.h"
#include "obs/Observer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

using namespace fsmc;

namespace {

/// How long an idle worker parks on the injector between rescans. Also
/// bounds the window in which a lock-free notify can be missed.
constexpr std::chrono::microseconds ParkTimeout(500);

} // namespace

struct ParallelExplorer::Shared {
  Shared(size_t Jobs, const CheckerOptions &Opts, const CheckpointState &Base)
      : Deques(Jobs),
        StealReq(std::make_unique<std::atomic<bool>[]>(Jobs)),
        Active(std::make_unique<std::atomic<bool>[]>(Jobs)), Acc(Opts, Base) {
    for (size_t I = 0; I < Jobs; ++I) {
      StealReq[I].store(false, std::memory_order_relaxed);
      Active[I].store(false, std::memory_order_relaxed);
    }
  }

  /// Cold path only: seeding, epoch restarts, idle parking.
  WorkQueue Injector;
  /// Hot path: Deques[W] is worker W+1's private deque.
  std::vector<WorkStealDeque> Deques;
  /// StealReq[W]: a starving thief asks worker W+1 to split. Checked by
  /// the victim with one relaxed load per execution.
  std::unique_ptr<std::atomic<bool>[]> StealReq;
  /// Active[W]: worker W+1 is inside an item (a useful steal victim).
  std::unique_ptr<std::atomic<bool>[]> Active;

  /// Items created and not yet finished (injector + deques + in hand).
  /// The stash is *not* outstanding: the driver re-registers it when an
  /// epoch restarts. Outstanding==0 is stable -- new items are only
  /// created by a worker holding an outstanding item or by the driver
  /// between epochs -- so it is the termination signal.
  std::atomic<uint64_t> Outstanding{0};

  std::atomic<uint64_t> Executions{0};
  std::atomic<bool> StopAll{false};
  std::atomic<bool> CapHit{false};
  std::atomic<bool> GlobalTimeout{false};
  std::chrono::steady_clock::time_point Deadline;
  bool HasDeadline = false;

  // Epoch control (checkpoint / interrupt). When EpochStop rises, every
  // worker stops at its next execution boundary, stashing the unexplored
  // remainder of its current item; the driver decides between writing a
  // checkpoint and requeueing (periodic) or returning a resume state
  // (interrupt).
  std::atomic<bool> EpochStop{false};
  std::atomic<bool> InterruptSeen{false};
  std::atomic<uint64_t> NextCheckpointAt{UINT64_MAX};
  std::mutex StashM;
  std::vector<std::vector<ScheduleChoice>> Stash;

  // Committed results. Acc.Best (the DFS-smallest bug so far) is guarded
  // by BugM but *not* read per-execution: BugVersion bumps on every
  // improvement, and workers keep a private copy of (Has, Key) refreshed
  // only when the version moved. Pruning against a slightly stale best is
  // sound -- a former best is DFS-after the current best, so anything
  // pruned as DFS-after the former best is DFS-after the current best too.
  // Everything else in Acc is guarded by MergeM and merged deferred:
  // each worker's explorer accumulates stats, signatures and race
  // incidents, and the worker commits them once per epoch (before the
  // epoch's join), never per item.
  std::mutex BugM;
  std::atomic<uint64_t> BugVersion{0};
  std::mutex MergeM;
  ResultAccumulator Acc;

  void requestStop() {
    StopAll.store(true, std::memory_order_relaxed);
    Injector.stop();
  }

  /// Balances item creation (see Outstanding); call before the items
  /// become visible to any worker.
  void registerItems(size_t N) {
    Outstanding.fetch_add(N, std::memory_order_relaxed);
  }

  /// Balances \p N pops; reaching zero broadcasts termination to every
  /// parked worker.
  void finishItems(size_t N) {
    if (Outstanding.fetch_sub(N, std::memory_order_acq_rel) == N)
      Injector.notifyAll();
  }

  void stashPrefixes(std::vector<std::vector<ScheduleChoice>> &&Prefixes) {
    std::lock_guard<std::mutex> Lock(StashM);
    for (auto &P : Prefixes)
      Stash.push_back(std::move(P));
  }

  void offerBug(const BugReport &Bug) {
    std::lock_guard<std::mutex> Lock(BugM);
    if (Acc.Best.offer(Bug))
      BugVersion.fetch_add(1, std::memory_order_release);
  }
};

ParallelExplorer::ParallelExplorer(const TestProgram &Program,
                                   const CheckerOptions &Opts,
                                   const CheckpointState &Frontier)
    : Program(Program), Opts(Opts), Frontier(Frontier) {}

ParallelExplorer::~ParallelExplorer() = default;

CheckResult ParallelExplorer::run() {
  const int Jobs = Opts.Jobs;
  auto Start = std::chrono::steady_clock::now();
  Shared SH(size_t(Jobs), Opts, Frontier);
  if (Opts.Obs)
    SH.Injector.setObserver(&Opts.Obs->shard(0));
  if (Opts.TimeBudgetSeconds > 0) {
    SH.HasDeadline = true;
    SH.Deadline = Start + std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(
                                  Opts.TimeBudgetSeconds));
  }

  // Seed the frontier as fully frozen subtree prefixes. A fresh search
  // is one empty-prefix item that the other workers' steal requests fan
  // out from.
  SH.Executions.store(SH.Acc.Stats.Executions, std::memory_order_relaxed);
  std::vector<WorkItem> Seed;
  for (const CheckpointUnit &U : Frontier.Frontier)
    for (auto &P : decomposeUnitToFrozenPrefixes(U))
      Seed.push_back(WorkItem{std::move(P)});
  SH.registerItems(Seed.size());
  SH.Injector.pushAll(std::move(Seed));

  // Budgets, interrupts and checkpoints belong to the driver, which
  // enforces them through the execution hook: a worker explorer must
  // never halt on its own.
  CheckerOptions WorkerOpts = Opts;
  WorkerOpts.InterruptFlag = nullptr;

  const uint64_t MaxExecutions = Opts.MaxExecutions;
  const bool StopOnFirstBug = Opts.StopOnFirstBug;
  const uint64_t Every = Opts.CheckpointSink ? Opts.CheckpointEvery : 0;
  if (Every)
    SH.NextCheckpointAt.store(
        (SH.Executions.load(std::memory_order_relaxed) / Every + 1) * Every,
        std::memory_order_relaxed);

  // One explorer per worker for the whole search, across items and
  // epochs. Worker ids 1..Jobs: observability shard 0 stays with the
  // driver (the injector publishes its depth gauge there; each worker
  // publishes its own deque depth on its own shard, and the snapshot
  // sums them).
  std::vector<std::unique_ptr<Explorer>> Explorers;
  for (int W = 1; W <= Jobs; ++W) {
    Explorers.push_back(std::make_unique<Explorer>(Program, WorkerOpts));
    Explorers.back()->setObsWorker(unsigned(W));
  }
  auto WorkerMain = [&](int WorkerId) {
    const size_t Self = size_t(WorkerId) - 1;
    WorkStealDeque &MyDeque = SH.Deques[Self];
    std::atomic<bool> &MyStealReq = SH.StealReq[Self];
    obs::WorkerCounters *WCtr =
        Opts.Obs ? &Opts.Obs->shard(unsigned(WorkerId)) : nullptr;
    obs::EventSink *Sink = Opts.Obs ? Opts.Obs->sink() : nullptr;
    Explorer &E = *Explorers[Self];

    // Counts every shared-lock acquisition this worker performs --
    // injector, stash, bug and merge mutexes, plus steals into other
    // workers' deques. Own-deque operations are private (uncontended
    // unless a thief is mid-steal) and deliberately excluded: the budget
    // this counter enforces is cross-worker contention.
    auto CountLock = [&] {
      if (WCtr)
        WCtr->add(obs::Counter::QueueLockAcquires);
    };

    // Generation-stamped private copy of the best bug (see Shared::BugM).
    uint64_t LBugVer = 0;
    bool LHasBug = false;
    std::vector<int> LBestKey;
    auto RefreshBug = [&] {
      if (SH.BugVersion.load(std::memory_order_acquire) == LBugVer)
        return;
      CountLock();
      std::lock_guard<std::mutex> Lock(SH.BugM);
      LBugVer = SH.BugVersion.load(std::memory_order_relaxed);
      LHasBug = SH.Acc.Best.Has;
      LBestKey = SH.Acc.Best.Key;
    };

    /// Posts a steal request at the nearest active worker. One victim
    /// per starving rescan keeps split granularity close to the old
    /// donor-push behavior instead of shattering every worker's subtree.
    auto PostStealRequest = [&] {
      for (int K = 1; K < Jobs; ++K) {
        size_t V = (Self + size_t(K)) % size_t(Jobs);
        if (SH.Active[V].load(std::memory_order_relaxed)) {
          SH.StealReq[V].store(true, std::memory_order_relaxed);
          return;
        }
      }
    };

    E.setExecutionHook([&](Explorer &Ex) {
      uint64_t N = SH.Executions.fetch_add(1, std::memory_order_relaxed) + 1;
      if (MaxExecutions && N >= MaxExecutions) {
        SH.CapHit.store(true, std::memory_order_relaxed);
        SH.requestStop();
      }
      if (SH.HasDeadline &&
          std::chrono::steady_clock::now() >= SH.Deadline) {
        SH.GlobalTimeout.store(true, std::memory_order_relaxed);
        SH.requestStop();
      }
      if (SH.StopAll.load(std::memory_order_relaxed))
        return false;
      // Epoch triggers: an interrupt or a crossed checkpoint boundary
      // stops every worker at its next execution boundary.
      if (Opts.InterruptFlag &&
          Opts.InterruptFlag->load(std::memory_order_relaxed)) {
        SH.InterruptSeen.store(true, std::memory_order_relaxed);
        SH.EpochStop.store(true, std::memory_order_relaxed);
      } else if (N >= SH.NextCheckpointAt.load(std::memory_order_relaxed)) {
        SH.EpochStop.store(true, std::memory_order_relaxed);
      }
      if (SH.EpochStop.load(std::memory_order_relaxed)) {
        // Stash this item's entire unexplored remainder: splitWork over
        // the whole stack donates every untried alternative, so stopping
        // here loses nothing. (The item itself stays outstanding until
        // the post-run finishItems.)
        std::vector<std::vector<ScheduleChoice>> Rest;
        Ex.splitWork(Rest, SIZE_MAX);
        CountLock();
        SH.stashPrefixes(std::move(Rest));
        return false;
      }
      // First-bug pruning: everything this item would explore next is
      // DFS-after its current path, so once that path passes the best
      // bug the serial search would already have stopped. The common
      // no-bug case costs one relaxed version load -- no lock, no key
      // materialization.
      if (StopOnFirstBug) {
        RefreshBug();
        if (LHasBug && !dfsBefore(Ex.consumedPathKey(), LBestKey))
          return false;
      }
      // Steal response: a starving thief asked us to split. Publish the
      // shallowest unexplored siblings -- the largest subtrees we own --
      // on our own deque top, where the thief (and anyone else) can
      // take them without stopping us.
      if (MyStealReq.load(std::memory_order_relaxed)) {
        MyStealReq.store(false, std::memory_order_relaxed);
        std::vector<std::vector<ScheduleChoice>> Prefixes;
        Ex.splitWork(Prefixes, size_t(Jobs) * 2);
        if (!Prefixes.empty()) {
          size_t Donated = Prefixes.size();
          std::vector<WorkItem> Items;
          Items.reserve(Donated);
          for (auto &P : Prefixes)
            Items.push_back(WorkItem{std::move(P)});
          SH.registerItems(Donated);
          MyDeque.publishTop(std::move(Items));
          // Lock-free wake; a miss is bounded by the park timeout.
          SH.Injector.notifyAll();
          if (WCtr) {
            WCtr->add(obs::Counter::PrefixesDonated, Donated);
            WCtr->setGauge(obs::Gauge::WorkQueueDepth, MyDeque.size());
          }
          if (Sink) {
            obs::ObsEvent Ev;
            Ev.Kind = obs::EventKind::Donation;
            Ev.Worker = unsigned(WorkerId);
            Ev.Ts = Ex.obsClock();
            Ev.ArgA = Donated;
            Sink->event(Ev);
          }
        }
      }
      return true;
    });

    unsigned IdleSpins = 0;
    for (;;) {
      if (SH.StopAll.load(std::memory_order_relaxed))
        break;

      // Acquire work, cheapest source first: own deque (private lock),
      // then the injector, then stealing half of the fullest-looking
      // victim deque.
      std::optional<WorkItem> Item = MyDeque.popBottom();
      if (!Item && SH.Injector.approxSize() > 0) {
        CountLock();
        Item = SH.Injector.tryPop();
      }
      if (!Item) {
        for (int K = 1; K < Jobs && !Item; ++K) {
          size_t V = (Self + size_t(K)) % size_t(Jobs);
          if (SH.Deques[V].empty())
            continue;
          std::vector<WorkItem> Loot;
          CountLock();
          if (SH.Deques[V].stealTop(Loot)) {
            if (WCtr)
              WCtr->add(obs::Counter::Steals);
            // Keep the shallowest (largest) stolen subtree as the next
            // item; the rest go on our own deque where further thieves
            // can find them.
            Item = std::move(Loot.front());
            if (Loot.size() > 1) {
              std::vector<WorkItem> Rest;
              Rest.reserve(Loot.size() - 1);
              for (size_t I = 1; I < Loot.size(); ++I)
                Rest.push_back(std::move(Loot[I]));
              MyDeque.publishTop(std::move(Rest));
              SH.Injector.notifyAll();
            }
          } else if (WCtr) {
            WCtr->add(obs::Counter::StealFails);
          }
        }
      }
      if (!Item) {
        // Nothing visible anywhere. Either the search is over, or the
        // remaining work is implicit in some victim's DFS stack -- ask
        // for it and park until something becomes visible.
        if (SH.Outstanding.load(std::memory_order_acquire) == 0)
          break;
        PostStealRequest();
        if (++IdleSpins < 16) {
          std::this_thread::yield();
          continue;
        }
        CountLock();
        Item = SH.Injector.popWait(ParkTimeout);
        if (!Item)
          continue;
      }
      IdleSpins = 0;

      if (SH.StopAll.load(std::memory_order_relaxed)) {
        SH.finishItems(1);
        continue;
      }
      if (SH.EpochStop.load(std::memory_order_relaxed)) {
        // Wind-down: stash this item and everything on our deque
        // untouched. Stashed prefixes leave the outstanding count; the
        // driver re-registers them if the epoch restarts.
        std::vector<std::vector<ScheduleChoice>> Ps;
        Ps.push_back(std::move(Item->Prefix));
        std::vector<WorkItem> Drained;
        MyDeque.drainAll(Drained);
        for (WorkItem &D : Drained)
          Ps.push_back(std::move(D.Prefix));
        size_t N = Ps.size();
        CountLock();
        SH.stashPrefixes(std::move(Ps));
        SH.finishItems(N);
        continue;
      }
      // Serial semantics never reach subtrees past the first bug.
      if (StopOnFirstBug && !Item->Prefix.empty()) {
        RefreshBug();
        if (LHasBug && !dfsBefore(pathKey(Item->Prefix), LBestKey)) {
          SH.finishItems(1);
          continue;
        }
      }

      double Seconds = 0;
      if (SH.HasDeadline) {
        // Re-derive the remaining budget so the explorer's mid-execution
        // time checks stay meaningful for this item.
        double Remaining = std::chrono::duration<double>(
                               SH.Deadline - std::chrono::steady_clock::now())
                               .count();
        Seconds = Remaining > 0.001 ? Remaining : 0.001;
      }

      if (WCtr) {
        WCtr->add(obs::Counter::WorkItemsRun);
        WCtr->setGauge(obs::Gauge::ActiveWorkers, 1);
        WCtr->setGauge(obs::Gauge::WorkQueueDepth, MyDeque.size());
      }
      if (Sink) {
        obs::ObsEvent Ev;
        Ev.Kind = obs::EventKind::WorkItemStart;
        Ev.Worker = unsigned(WorkerId);
        Ev.Ts = E.obsClock();
        Ev.ArgA = Item->Prefix.size();
        Sink->event(Ev);
      }
      SH.Active[Self].store(true, std::memory_order_relaxed);


      // Items start their PRNG from the seed, whoever runs them.
      E.setRngState(Opts.Seed);
      const size_t Len = Item->Prefix.size();
      Explorer::UnitEnd End =
          E.runUnit({std::move(Item->Prefix), Len}, /*Budget=*/0, Seconds);
      SH.Active[Self].store(false, std::memory_order_relaxed);
      if (End == Explorer::UnitEnd::TimedOut) {
        // The per-item remaining budget ran out mid-execution; that is
        // the shared deadline expiring, so stop the whole search.
        SH.GlobalTimeout.store(true, std::memory_order_relaxed);
        SH.requestStop();
      }
      // Offered when the item ends, so first-bug pruning sees it at once;
      // everything else stays pending in the explorer.
      if (std::optional<BugReport> Bug = E.takeBug()) {
        CountLock();
        SH.offerBug(*Bug);
      }
      if (WCtr) {
        WCtr->setGauge(obs::Gauge::ActiveWorkers, 0);
        WCtr->setGauge(obs::Gauge::WorkQueueDepth, MyDeque.size());
      }
      SH.finishItems(1);
    }

    // Epoch-local reconciliation: one merge per worker per epoch. This
    // runs before the driver joins the epoch's threads, so checkpoints
    // built between epochs see complete totals.
    auto MergeT0 = std::chrono::steady_clock::now();
    {
      CountLock();
      std::lock_guard<std::mutex> Lock(SH.MergeM);
      Attempt A = E.take();
      SH.Acc.commit(A);
    }
    if (WCtr) {
      WCtr->add(obs::Counter::MergeNs,
                uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - MergeT0)
                             .count()));
      WCtr->setGauge(obs::Gauge::ActiveWorkers, 0);
      WCtr->setGauge(obs::Gauge::WorkQueueDepth, 0);
    }
  };

  // Snapshot of the whole search for the checkpoint sink / resume: only
  // valid between epochs, when every worker has joined (and therefore
  // merged its local buffers).
  auto buildCheckpoint = [&]() {
    std::vector<CheckpointUnit> Units;
    Units.reserve(SH.Stash.size());
    for (const auto &P : SH.Stash)
      Units.push_back({P, P.size()});
    return SH.Acc.checkpoint(std::move(Units), Opts.Seed);
  };

  bool Interrupted = false;
  std::shared_ptr<CheckpointState> ResumeOut;
  obs::WorkerCounters *DCtr = Opts.Obs ? &Opts.Obs->shard(0) : nullptr;

  for (;;) {
    std::vector<std::thread> Workers;
    Workers.reserve(Jobs);
    for (int I = 0; I < Jobs; ++I)
      Workers.emplace_back(WorkerMain, I + 1);
    for (std::thread &W : Workers)
      W.join();

    if (!SH.EpochStop.load(std::memory_order_relaxed))
      break; // Search ended for real (drained, bug, cap, timeout).
    if (SH.StopAll.load(std::memory_order_relaxed))
      break; // A budget fired while the epoch wound down; it wins.
    if (SH.Acc.Best.Has && StopOnFirstBug)
      break;

    if (SH.InterruptSeen.load(std::memory_order_relaxed)) {
      if (!SH.Stash.empty()) {
        Interrupted = true;
        ResumeOut = buildCheckpoint();
      }
      // Empty stash: the interrupt landed exactly on exhaustion.
      break;
    }

    // Periodic checkpoint: persist the stash as the frontier, then put it
    // back and run the next epoch.
    if (SH.Stash.empty())
      break; // Boundary coincided with exhaustion; nothing left to save.
    ++SH.Acc.Stats.Checkpoints;
    if (DCtr)
      DCtr->add(obs::Counter::Checkpoints);
    Opts.CheckpointSink(*buildCheckpoint());
    SH.NextCheckpointAt.store(
        (SH.Executions.load(std::memory_order_relaxed) / Every + 1) * Every,
        std::memory_order_relaxed);
    std::vector<WorkItem> Items;
    Items.reserve(SH.Stash.size());
    for (auto &P : SH.Stash)
      Items.push_back(WorkItem{std::move(P)});
    SH.Stash.clear();
    SH.EpochStop.store(false, std::memory_order_relaxed);
    SH.registerItems(Items.size());
    SH.Injector.pushAll(std::move(Items));
  }

  CheckResult Result = SH.Acc.finish(
      SH.CapHit.load(), SH.GlobalTimeout.load(), Interrupted,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count());
  if (Interrupted)
    Result.Resume = ResumeOut;
  return Result;
}
