//===- obs/StatsJson.cpp --------------------------------------------------===//

#include "obs/StatsJson.h"

#include "obs/Observer.h"
#include "obs/SearchProfile.h"
#include "runtime/PendingOp.h"
#include "support/OutStream.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

using namespace fsmc;
using namespace fsmc::obs;

void fsmc::obs::appendJsonEscaped(std::string &Out, std::string_view S) {
  for (char Ch : S) {
    switch (Ch) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (uint8_t(Ch) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", Ch);
        Out += Buf;
      } else {
        Out += Ch;
      }
    }
  }
}

const char *fsmc::obs::stopReason(const CheckResult &R) {
  // Robustness outcomes first: an interrupted run stopped for the signal
  // regardless of what it had found, and crash/hang/divergence verdicts
  // are incident classes, not workload bugs (docs/ROBUSTNESS.md).
  if (R.Stats.Interrupted)
    return "interrupted";
  if (R.Kind == Verdict::Divergence)
    return "divergence";
  if (R.Kind == Verdict::Crash)
    return "workload_crash";
  if (R.Kind == Verdict::Hang)
    return "workload_hang";
  if (R.Kind == Verdict::DataRace)
    return "data_race";
  if (R.foundBug())
    return "bug_found";
  if (R.Stats.TimedOut)
    return "time_budget_exhausted";
  if (R.Stats.ExecutionCapHit)
    return "execution_cap_hit";
  if (R.Stats.SearchExhausted)
    return "search_exhausted";
  return "stopped";
}

std::string fsmc::obs::budgetNote(const CheckResult &R,
                                  const CheckerOptions &Opts) {
  char Buf[128];
  if (R.Stats.TimedOut) {
    std::snprintf(Buf, sizeof(Buf),
                  "time budget exhausted (%.1fs); verdict covers the "
                  "executions explored, not the full tree",
                  Opts.TimeBudgetSeconds);
    return Buf;
  }
  if (R.Stats.ExecutionCapHit) {
    std::snprintf(Buf, sizeof(Buf),
                  "execution cap hit (%" PRIu64 "); verdict covers the "
                  "executions explored, not the full tree",
                  Opts.MaxExecutions);
    return Buf;
  }
  return "";
}

namespace {

const char *searchKindName(SearchKind K) {
  switch (K) {
  case SearchKind::Dfs:
    return "dfs";
  case SearchKind::ContextBounded:
    return "context_bounded";
  case SearchKind::RandomWalk:
    return "random_walk";
  }
  return "?";
}

void appendKV(std::string &Out, const char *Key, uint64_t V, bool Comma,
              int Indent = 4) {
  Out.append(size_t(Indent), ' ');
  Out += '"';
  Out += Key;
  Out += "\": ";
  Out += std::to_string(V);
  if (Comma)
    Out += ',';
  Out += '\n';
}

void appendKVBool(std::string &Out, const char *Key, bool V, bool Comma) {
  Out += "    \"";
  Out += Key;
  Out += "\": ";
  Out += V ? "true" : "false";
  if (Comma)
    Out += ',';
  Out += '\n';
}

void appendKVStr(std::string &Out, const char *Key, std::string_view V,
                 bool Comma, int Indent = 4) {
  Out.append(size_t(Indent), ' ');
  Out += '"';
  Out += Key;
  Out += "\": \"";
  appendJsonEscaped(Out, V);
  Out += '"';
  if (Comma)
    Out += ',';
  Out += '\n';
}

/// One profile class row: { "branch_points": n, "alternatives": n[,
/// "por_sleep_hits": n] }, appended without a trailing comma.
void appendProfileClass(std::string &Out, std::string_view Key,
                        const SearchProfile::OpClassStats &C) {
  Out += "      \"";
  appendJsonEscaped(Out, Key);
  Out += "\": { \"branch_points\": " + std::to_string(C.BranchPoints) +
         ", \"alternatives\": " + std::to_string(C.Alternatives);
  if (C.PorSleepHits)
    Out += ", \"por_sleep_hits\": " + std::to_string(C.PorSleepHits);
  Out += " }";
}

/// The "profile" section (--profile-search): per-op-class and per-object
/// branch-point attribution plus branch-factor and depth histograms,
/// non-zero rows only.
void appendProfile(std::string &Out, const SearchProfile &P) {
  Out += "  \"profile\": {\n";
  appendKV(Out, "branch_points", P.totalBranchPoints(), true);

  std::string Rows;
  for (unsigned I = 0; I < OpKindSlots; ++I) {
    if (P.Ops[I].empty())
      continue;
    if (!Rows.empty())
      Rows += ",\n";
    appendProfileClass(Rows, opKindName(OpKind(I)), P.Ops[I]);
  }
  if (!P.Choose.empty()) {
    if (!Rows.empty())
      Rows += ",\n";
    appendProfileClass(Rows, "choose", P.Choose);
  }
  Out += "    \"ops\": {\n" + Rows + "\n    },\n";

  Rows.clear();
  for (const auto &[Name, C] : P.Objects) {
    if (!Rows.empty())
      Rows += ",\n";
    appendProfileClass(Rows, Name, C);
  }
  if (!Rows.empty())
    Out += "    \"objects\": {\n" + Rows + "\n    },\n";

  Rows.clear();
  for (unsigned I = 0; I < ProfileBranchBuckets; ++I) {
    if (!P.BranchFactor[I])
      continue;
    if (!Rows.empty())
      Rows += ",\n";
    Rows += "      \"" +
            (I + 1 == ProfileBranchBuckets ? ">=" + std::to_string(I + 2)
                                           : std::to_string(I + 2)) +
            "\": " + std::to_string(P.BranchFactor[I]);
  }
  Out += "    \"branch_factor_hist\": {\n" + Rows + "\n    },\n";

  Rows.clear();
  for (unsigned I = 0; I < ProfileDepthBuckets; ++I) {
    if (!P.Depth[I])
      continue;
    if (!Rows.empty())
      Rows += ",\n";
    uint64_t Lo = (uint64_t(1) << I) - 1;
    Rows += "      \"" + std::to_string(Lo) +
            "\": " + std::to_string(P.Depth[I]);
  }
  Out += "    \"depth_hist\": {\n" + Rows + "\n    }\n  },\n";
}

} // namespace

std::string fsmc::obs::renderStatsJson(const CheckResult &R,
                                       const StatsJsonInfo &Info) {
  const SearchStats &S = R.Stats;
  std::string Out;
  Out.reserve(2048);
  Out += "{\n";
  Out += "  \"schema\": 1,\n";
  appendKVStr(Out, "program", Info.Program, true, 2);
  appendKVStr(Out, "verdict", verdictName(R.Kind), true, 2);
  appendKVStr(Out, "stop_reason", stopReason(R), true, 2);
  Out += "  \"replay\": ";
  Out += Info.Replay ? "true" : "false";
  Out += ",\n";

  if (Info.Options) {
    const CheckerOptions &O = *Info.Options;
    Out += "  \"options\": {\n";
    appendKVStr(Out, "kind", searchKindName(O.Kind), true);
    appendKVBool(Out, "fair", O.Fair, true);
    appendKV(Out, "yield_k", uint64_t(O.YieldK), true);
    appendKV(Out, "context_bound", uint64_t(O.ContextBound), true);
    appendKV(Out, "depth_bound", O.DepthBound, true);
    appendKV(Out, "execution_bound", O.ExecutionBound, true);
    appendKV(Out, "max_executions", O.MaxExecutions, true);
    Out += "    \"time_budget_seconds\": " +
           std::to_string(O.TimeBudgetSeconds) + ",\n";
    appendKV(Out, "seed", O.Seed, true);
    appendKV(Out, "jobs", uint64_t(O.Jobs), true);
    appendKVBool(Out, "por", O.Por, true);
    // Robustness options appear only when set away from their defaults,
    // so pre-existing outputs stay byte-identical.
    if (O.Memory != MemoryModel::Sc)
      appendKVStr(Out, "memory", memoryModelName(O.Memory), true);
    if (O.Isolate != IsolationMode::Off) {
      appendKVStr(Out, "isolate", "batch", true);
      appendKV(Out, "sandbox_batch_size", uint64_t(O.BatchSize), true);
    }
    if (O.DivergenceRetries != 3)
      appendKV(Out, "divergence_retries", uint64_t(O.DivergenceRetries), true);
    if (O.Races != RaceCheckMode::Off)
      appendKVStr(Out, "races", O.Races == RaceCheckMode::Fatal ? "fatal" : "on",
                  true);
    if (O.CheckpointEvery != 0)
      appendKV(Out, "checkpoint_every", O.CheckpointEvery, true);
    if (O.FleetWorkers > 0) {
      appendKV(Out, "fleet_workers", uint64_t(O.FleetWorkers), true);
      appendKV(Out, "fleet_batch", uint64_t(O.BatchSize), true);
      appendKV(Out, "fleet_quarantine", uint64_t(O.FleetQuarantine), true);
    }
    appendKVBool(Out, "stop_on_first_bug", O.StopOnFirstBug, false);
    Out += "  },\n";
  }

  Out += "  \"stats\": {\n";
  // Keys follow the schema's rows; NonZero rows (POR, robustness, fleet
  // recovery, weak memory) are omitted at zero, so reports of runs that
  // never touch those features keep their legacy bytes.
#define FSMC_JSON_STAT(Field, M, Key, Json, Ckpt, C)                           \
  if (stats::Json == stats::Always ||                                          \
      (stats::Json == stats::NonZero && S.Field != 0))                         \
    appendKV(Out, Key, uint64_t(S.Field), true);
  FSMC_SEARCH_STATS(FSMC_JSON_STAT)
#undef FSMC_JSON_STAT
  if (S.Interrupted)
    appendKVBool(Out, "interrupted", true, true);
  char Secs[48];
  std::snprintf(Secs, sizeof(Secs), "    \"seconds\": %.6f,\n", S.Seconds);
  Out += Secs;
  appendKVBool(Out, "timed_out", S.TimedOut, true);
  appendKVBool(Out, "execution_cap_hit", S.ExecutionCapHit, true);
  appendKVBool(Out, "search_exhausted", S.SearchExhausted, false);
  Out += "  },\n";

  // The sections below are each gated on their own opt-in flag (or on the
  // data existing at all), so default reports keep their legacy bytes.
  if (Info.Options && Info.Options->Estimate) {
    uint64_t Est = 0;
    double Pct = 0;
    if (S.EstimateMass > 0 && S.Executions) {
      Est = uint64_t(std::llround(double(S.Executions) / S.EstimateMass));
      // Parallel merge order can push the float sum a hair past 1.0.
      double Mass = S.EstimateMass < 1.0 ? S.EstimateMass : 1.0;
      Pct = 100.0 * Mass;
    }
    char Buf[192];
    std::snprintf(Buf, sizeof(Buf),
                  "  \"estimate\": {\n    \"explored_mass\": %.9g,\n"
                  "    \"estimated_total_executions\": %" PRIu64 ",\n"
                  "    \"progress_pct\": %.3f\n  },\n",
                  S.EstimateMass, Est, Pct);
    Out += Buf;
  }

  if (Info.Options && Info.Options->TrackCoverage) {
    uint64_t Lookups = S.DistinctStates + S.StateHits;
    double HitRate = Lookups ? double(S.StateHits) / double(Lookups) : 0;
    Out += "  \"coverage\": {\n";
    appendKV(Out, "distinct_states", S.DistinctStates, true);
    appendKV(Out, "state_hits", S.StateHits, true);
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "    \"hit_rate\": %.4f\n", HitRate);
    Out += Buf;
    Out += "  },\n";
  }

  if (R.Profile)
    appendProfile(Out, *R.Profile);

  if (Info.Timing) {
    char Buf[160];
    double Rate = S.Seconds > 0 ? double(S.Executions) / S.Seconds : 0;
    std::snprintf(Buf, sizeof(Buf),
                  "  \"timing\": {\n    \"elapsed_ms\": %.3f,\n"
                  "    \"execs_per_sec\": %.1f",
                  S.Seconds * 1000.0, Rate);
    Out += Buf;
    // Phase split, present only when phase timing actually ran (the
    // counters stay zero otherwise), so plain --timing keeps its bytes.
    if (Info.Obs) {
      CounterSnapshot C = Info.Obs->snapshot();
      uint64_t Total = 0;
      for (unsigned I = 0; I < unsigned(Phase::NumPhases); ++I)
        Total += C.PhaseNs[I];
      if (Total) {
        Out += ",\n    \"phases_ms\": {\n";
        for (unsigned I = 0; I < unsigned(Phase::NumPhases); ++I) {
          std::snprintf(Buf, sizeof(Buf), "      \"%s\": %.3f%s\n",
                        phaseName(Phase(I)), double(C.PhaseNs[I]) / 1e6,
                        I + 1 < unsigned(Phase::NumPhases) ? "," : "");
          Out += Buf;
        }
        Out += "    }";
      }
    }
    Out += "\n  },\n";
  }

  if (Info.Obs) {
    CounterSnapshot C = Info.Obs->snapshot();
    Out += "  \"counters\": {\n";
    for (unsigned I = 0; I < unsigned(Counter::NumCounters); ++I) {
      // POR and robustness counters (PorSleepHits onward) are omitted at
      // zero; see Counters.h.
      if (I >= unsigned(Counter::PorSleepHits) && C.C[I] == 0)
        continue;
      appendKV(Out, counterName(Counter(I)), C.C[I], true);
    }
    for (unsigned I = 0; I < unsigned(Gauge::NumGauges); ++I)
      appendKV(Out, gaugeName(Gauge(I)), C.G[I],
               /*Comma=*/I + 1 < unsigned(Gauge::NumGauges));
    Out += "  },\n";

    // Per-op-kind scheduling points and contention, non-zero rows only.
    Out += "  \"ops\": {\n";
    std::string Rows;
    for (unsigned I = 0; I < OpKindSlots; ++I) {
      if (C.Ops[I] == 0 && C.Contended[I] == 0)
        continue;
      if (!Rows.empty())
        Rows += ",\n";
      Rows += "    \"";
      Rows += opKindName(OpKind(I));
      Rows += "\": { \"count\": " + std::to_string(C.Ops[I]) +
              ", \"contended\": " + std::to_string(C.Contended[I]) + " }";
    }
    Out += Rows;
    Out += "\n  },\n";

    // log2 step-latency histogram, present only when step timing ran.
    std::string Hist;
    for (unsigned I = 0; I < LatencyBuckets; ++I) {
      if (C.Latency[I] == 0)
        continue;
      if (!Hist.empty())
        Hist += ",\n";
      Hist += "    \"" + std::to_string(uint64_t(1) << I) +
              "\": " + std::to_string(C.Latency[I]);
    }
    if (!Hist.empty()) {
      Out += "  \"step_latency_ns\": {\n";
      Out += Hist;
      Out += "\n  },\n";
    }
  }

  if (R.Bug) {
    Out += "  \"bug\": {\n";
    appendKVStr(Out, "kind", verdictName(R.Bug->Kind), true);
    appendKVStr(Out, "message", R.Bug->Message, true);
    appendKVStr(Out, "schedule", R.Bug->Schedule, true);
    appendKV(Out, "at_execution", R.Bug->AtExecution, true);
    appendKV(Out, "at_step", R.Bug->AtStep, false);
    Out += "  }\n";
  } else {
    Out += "  \"bug\": null\n";
  }
  Out += "}\n";
  return Out;
}

void fsmc::obs::writeStatsJson(OutStream &OS, const CheckResult &R,
                               const StatsJsonInfo &Info) {
  std::string Text = renderStatsJson(R, Info);
  OS.write(Text.data(), Text.size());
  OS.flush();
}
