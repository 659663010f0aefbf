//===- obs/Counters.h - Per-worker-sharded search metrics ------*- C++ -*-===//
//
// Part of the fsmc project: a reproduction of "Fair Stateless Model
// Checking" (Musuvathi & Qadeer, PLDI 2008).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Live counters for the search. The paper's whole evaluation is told
/// through search telemetry (executions, transitions, priority edges,
/// divergence classes); SearchStats reports those post hoc, while this
/// registry makes them observable *while the search runs* -- the substrate
/// for the progress reporter, the stats exporter, and any future perf work.
///
/// Layout: one cache-line-padded shard per OS worker (shard 0 is the
/// serial explorer / the parallel driver). Each shard has exactly one
/// writer -- the worker that owns it -- so increments are plain
/// load/add/store on relaxed atomics (no RMW, no contention); readers
/// (progress reporter, exporters) sum shards at their own pace and may
/// observe slightly stale values, which is fine for telemetry.
///
/// The disabled path costs nothing: code holds a WorkerCounters pointer
/// that is null when no Observer is attached, and every instrumentation
/// site is a single pointer test.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_OBS_COUNTERS_H
#define FSMC_OBS_COUNTERS_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace fsmc {
namespace obs {

/// The counter catalogue. Monotonic totals; see counterName() for the
/// stable wire names used in --stats-json and the progress line.
enum class Counter : unsigned {
  Executions,              ///< Executions finished (any end kind).
  Transitions,             ///< Transitions executed.
  Preemptions,             ///< Preemptive context switches (Section 4).
  ReplaySteps,             ///< Transitions spent re-running recorded
                           ///< prefixes -- the stateless method's tax.
  SchedulePoints,          ///< Visible operations published by test code.
  SyncContention,          ///< Blocking ops that parked on a busy object.
  FairEdgeAdds,            ///< Priority edges added (Algorithm 1 line 25).
  FairEdgeRemovals,        ///< Priority edges removed (line 13).
  StatefulPrunes,          ///< Executions cut by the reference search.
  NonterminatingExecutions,///< Executions abandoned at a bound.
  BugsFound,               ///< Buggy executions (all verdict classes).
  Deadlocks,               ///< ... of which deadlocks.
  Livelocks,               ///< ... of which fair divergences.
  GoodSamaritanViolations, ///< ... of which good-samaritan violations.
  WorkItemsRun,            ///< Parallel: prefixes popped and explored.
  PrefixesDonated,         ///< Parallel: prefixes split off for others.
  // Sleep-set POR (docs/POR.md). Zero whenever --por is off, and omitted
  // from --stats-json then, so non-POR output stays byte-identical.
  PorSleepHits,            ///< Sleeping threads filtered from candidates.
  PorBranchesPruned,       ///< Executions cut by sleep-set POR.
  PorFairWakes,            ///< Sleepers woken as the only fair choices.
  // Robustness layer (docs/ROBUSTNESS.md). These report as zero on every
  // healthy run, so --stats-json omits zero values to keep legacy output
  // byte-identical.
  Divergences,             ///< Prefixes discarded after failed replays.
  DivergenceRetries,       ///< Re-executions of mismatching prefixes.
  Crashes,                 ///< Isolated executions that died on a signal.
  Hangs,                   ///< Isolated executions killed by the watchdog.
  Checkpoints,             ///< Checkpoints written.
  RacesChecked,            ///< Plain accesses race-checked (--races=on).
  RacesFound,              ///< Distinct data races found.
  // Fleet mode (docs/FLEET.md). Zero off-fleet and on healthy fleet runs;
  // omitted from --stats-json at zero like the rest of the robustness
  // block.
  FleetWorkerCrashes,      ///< Fleet worker processes that died.
  FleetReissues,           ///< Leased units re-issued after a death.
  FleetRespawns,           ///< Replacement workers forked.
  FleetQuarantined,        ///< Units quarantined as crash incidents.
  // Weak-memory exploration (docs/MEMORY.md). Zero under --memory=sc and
  // omitted from --stats-json then, so sc output stays byte-identical.
  BufferedStores,          ///< Stores enqueued into a thread store buffer.
  StoreFlushes,            ///< Buffered stores committed to memory.
  // Work-stealing parallel engine (docs/PERFORMANCE.md). Zero at --jobs=1
  // and omitted from --stats-json then, so serial output stays
  // byte-identical.
  Steals,                  ///< Successful steal-half grabs from a victim.
  StealFails,              ///< Steal attempts that found the victim empty.
  QueueLockAcquires,       ///< Shared-lock acquisitions (injector, bug,
                           ///< merge, stash) -- the contention budget.
  MergeNs,                 ///< Nanoseconds spent in deferred cross-worker
                           ///< merges (stats/states/races/profile).
  DonationBytes,           ///< Prefix bytes materialized by splitWork.
  NumCounters
};

/// Point-in-time values; unlike counters they can go down. Gauges have
/// multiple writers (any worker may update), so they use plain relaxed
/// stores of the new absolute value.
enum class Gauge : unsigned {
  WorkQueueDepth, ///< Items currently queued (parallel search).
  MaxDepth,       ///< Deepest execution seen so far (monotonic max).
  ActiveWorkers,  ///< Workers currently inside an execution.
  NumGauges
};

/// Wall-time phase buckets (Observer::Config::PhaseTiming): where an
/// execution's time actually goes. Replay is the stateless method's tax;
/// snapshot is the coverage-signature cost; race-check is the detector
/// harvest at execution end; execute is everything else inside the run
/// loop.
enum class Phase : unsigned {
  Replay,    ///< Re-running the recorded prefix.
  Execute,   ///< Fresh transitions past the prefix.
  RaceCheck, ///< Race-detector harvest at execution end.
  Snapshot,  ///< State-signature hashing and lookup.
  NumPhases
};

const char *counterName(Counter C);
const char *gaugeName(Gauge G);
const char *phaseName(Phase P);

/// Number of power-of-two buckets in the scheduling-point latency
/// histogram: bucket i counts steps whose latency was in [2^i, 2^(i+1))
/// nanoseconds.
constexpr size_t LatencyBuckets = 32;

/// Number of distinct PendingOp kinds tracked per shard (must cover
/// OpKind; checked by a static_assert in Counters.cpp).
constexpr size_t OpKindSlots = 32;

/// One worker's shard. Padded to its own cache lines so workers never
/// false-share.
struct alignas(64) WorkerCounters {
  std::atomic<uint64_t> C[size_t(Counter::NumCounters)] = {};
  std::atomic<uint64_t> G[size_t(Gauge::NumGauges)] = {};
  /// Scheduling points by visible-operation kind (indexed by OpKind).
  std::atomic<uint64_t> Ops[OpKindSlots] = {};
  /// Contended blocking operations by kind.
  std::atomic<uint64_t> Contended[OpKindSlots] = {};
  /// log2-bucketed per-transition latency (only filled when step timing
  /// is enabled; clock reads are not free).
  std::atomic<uint64_t> Latency[LatencyBuckets] = {};
  /// Nanoseconds per phase (only filled when phase timing is enabled).
  std::atomic<uint64_t> PhaseNs[size_t(Phase::NumPhases)] = {};
  /// Knuth weighted-backtrack mass accumulated on this shard, stored as
  /// the bit pattern of a double (atomic<double> is not lock-free
  /// everywhere). Single writer, so load-bitcast-add-store never loses
  /// mass; readers sum shards for the live tree-size estimate.
  std::atomic<uint64_t> EstMassBits{0};

  /// Single-writer increment: load+store, no RMW. The owning worker is
  /// the only writer, so this never loses updates.
  void add(Counter Id, uint64_t N = 1) {
    auto &A = C[size_t(Id)];
    A.store(A.load(std::memory_order_relaxed) + N, std::memory_order_relaxed);
  }
  void addOp(unsigned Kind, uint64_t N = 1) {
    auto &A = Ops[Kind < OpKindSlots ? Kind : OpKindSlots - 1];
    A.store(A.load(std::memory_order_relaxed) + N, std::memory_order_relaxed);
  }
  void addContended(unsigned Kind) {
    auto &A = Contended[Kind < OpKindSlots ? Kind : OpKindSlots - 1];
    A.store(A.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  void addLatencyNs(uint64_t Ns);
  void addPhaseNs(Phase P, uint64_t Ns) {
    auto &A = PhaseNs[size_t(P)];
    A.store(A.load(std::memory_order_relaxed) + Ns,
            std::memory_order_relaxed);
  }
  /// Single-writer add of estimator mass (see EstMassBits).
  void addEstimateMass(double M);
  void setGauge(Gauge Id, uint64_t V) {
    G[size_t(Id)].store(V, std::memory_order_relaxed);
  }
  /// Raises a monotonic-max gauge (e.g. MaxDepth); single writer per shard
  /// so load+store suffices.
  void maxGauge(Gauge Id, uint64_t V) {
    auto &A = G[size_t(Id)];
    if (V > A.load(std::memory_order_relaxed))
      A.store(V, std::memory_order_relaxed);
  }
};

/// An aggregated, coherent-enough copy of every shard, taken by readers.
struct CounterSnapshot {
  uint64_t C[size_t(Counter::NumCounters)] = {};
  uint64_t G[size_t(Gauge::NumGauges)] = {};
  uint64_t Ops[OpKindSlots] = {};
  uint64_t Contended[OpKindSlots] = {};
  uint64_t Latency[LatencyBuckets] = {};
  uint64_t PhaseNs[size_t(Phase::NumPhases)] = {};
  /// Summed estimator mass across shards (0 when --estimate is off).
  double EstimateMass = 0;

  uint64_t counter(Counter Id) const { return C[size_t(Id)]; }
  uint64_t gauge(Gauge Id) const { return G[size_t(Id)]; }
  uint64_t phaseNs(Phase P) const { return PhaseNs[size_t(P)]; }
};

/// The sharded registry. Sized at construction for the maximum worker
/// count; shard(i) hands worker i its private shard.
class CounterRegistry {
public:
  explicit CounterRegistry(size_t MaxWorkers);

  WorkerCounters &shard(unsigned Worker);
  size_t shardCount() const { return NumShards; }

  /// Sums every shard. Gauges: WorkQueueDepth and ActiveWorkers sum
  /// (each worker contributes its own view), MaxDepth takes the max.
  CounterSnapshot snapshot() const;

private:
  std::unique_ptr<WorkerCounters[]> Shards;
  size_t NumShards;
};

} // namespace obs
} // namespace fsmc

#endif // FSMC_OBS_COUNTERS_H
