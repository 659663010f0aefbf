//===- perfbench/harness/Spans.h - In-memory span log ----------*- C++ -*-===//
//
// Part of the fsmc benchmark harness (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the harness around its calls into the checker: one
/// for the workload, one per check, one per execution (serial engines,
/// through Explorer::setExecutionHook) and one per probe call. Spans stay
/// in memory while the run measures and are written out once at the end.
/// A span's self time is its duration minus the time its children cover;
/// children of one parent never overlap because the harness is single
/// threaded.
///
//===----------------------------------------------------------------------===//

#ifndef FSMC_PERFBENCH_SPANS_H
#define FSMC_PERFBENCH_SPANS_H

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds: the same clock in every process, so a
/// forked child's timestamps land on the parent's axis.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
public:
  struct Span {
    int Name;   ///< Index into Names.
    int Parent; ///< Span index, or -1 for a root.
    int64_t Start;
    int64_t End;
  };

  /// Opens a span now under \p Parent and returns its index.
  int open(const std::string &Name, int Parent) {
    return add(Name, Parent, nowNs(), 0);
  }
  void close(int Id) { Spans[Id].End = nowNs(); }
  /// Records a finished span, e.g. one timed in a child process.
  int add(const std::string &Name, int Parent, int64_t Start, int64_t End) {
    return add(intern(Name), Parent, Start, End);
  }
  /// Hot-loop form: \p NameId comes from intern().
  int add(int NameId, int Parent, int64_t Start, int64_t End) {
    Spans.push_back({NameId, Parent, Start, End});
    return int(Spans.size() - 1);
  }
  int intern(const std::string &Name) {
    auto It = Index.find(Name);
    if (It != Index.end())
      return It->second;
    Names.push_back(Name);
    Index.emplace(Name, int(Names.size() - 1));
    return int(Names.size() - 1);
  }

  /// Per span name: count, total and self nanoseconds. Self time is the
  /// span's duration minus the union of its children's intervals, so the
  /// overlapping execution spans of parallel workers count once.
  struct SelfTime {
    uint64_t Count = 0;
    int64_t TotalNs = 0;
    int64_t SelfNs = 0;
  };
  std::map<std::string, SelfTime> selfTimes() const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> Children(
        Spans.size());
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Children[S.Parent].push_back({S.Start, S.End});
    std::map<std::string, SelfTime> Out;
    for (size_t I = 0; I < Spans.size(); ++I) {
      auto &C = Children[I];
      std::sort(C.begin(), C.end());
      int64_t Covered = 0, Reach = INT64_MIN;
      for (auto [Start, End] : C) {
        Start = std::max(Start, Reach);
        if (End > Start)
          Covered += End - Start;
        Reach = std::max(Reach, End);
      }
      SelfTime &T = Out[Names[Spans[I].Name]];
      int64_t Dur = Spans[I].End - Spans[I].Start;
      ++T.Count;
      T.TotalNs += Dur;
      T.SelfNs += Dur - Covered;
    }
    return Out;
  }

  /// Writes one JSON document: the name table, then one
  /// [name, parent, start_ns, end_ns] row per span, times relative to the
  /// first span's start. \returns false if the file cannot be written.
  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    int64_t Base = Spans.empty() ? 0 : Spans.front().Start;
    std::fprintf(F, "{\"names\": [");
    for (size_t I = 0; I < Names.size(); ++I)
      std::fprintf(F, "%s\"%s\"", I ? ", " : "", Names[I].c_str());
    std::fprintf(F, "],\n \"columns\": [\"name\", \"parent\", \"start_ns\", "
                    "\"end_ns\"],\n \"spans\": [\n");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F, "%s[%d,%d,%lld,%lld]", I ? ",\n" : "", S.Name, S.Parent,
                   (long long)(S.Start - Base), (long long)(S.End - Base));
    }
    std::fprintf(F, "\n]}\n");
    return std::fclose(F) == 0;
  }

private:
  std::vector<Span> Spans;
  std::vector<std::string> Names;
  std::map<std::string, int> Index;
};

} // namespace perfbench

#endif // FSMC_PERFBENCH_SPANS_H
