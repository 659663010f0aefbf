//===- core/Checkpoint.cpp ------------------------------------------------===//

#include "core/Checkpoint.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <utility>

using namespace fsmc;

// Version 3 adds the weak-memory stat keys and flush-mask suffixes inside
// unit schedules (core/Schedule.h); version 2 added the POR stat keys and
// sleep-mask suffixes. Version-1 and version-2 files are still read, and
// a checkpoint written without --por and with --memory=sc is parseable by
// older readers (unknown stat keys are skipped, masks never appear).
static const char *CheckpointMagic = "fsmc-ckpt 3";
static const char *CheckpointMagicV2 = "fsmc-ckpt 2";
static const char *CheckpointMagicV1 = "fsmc-ckpt 1";

namespace {

/// Stable wire tokens for Verdict in checkpoint files (independent of
/// verdictName, whose strings contain spaces).
constexpr std::pair<Verdict, const char *> VerdictWire[] = {
    {Verdict::Pass, "pass"},
    {Verdict::SafetyViolation, "safety"},
    {Verdict::Deadlock, "deadlock"},
    {Verdict::Livelock, "livelock"},
    {Verdict::GoodSamaritanViolation, "goodsam"},
    {Verdict::Divergence, "divergence"},
    {Verdict::Crash, "crash"},
    {Verdict::Hang, "hang"},
    {Verdict::DataRace, "datarace"},
};

const char *verdictWire(Verdict V) {
  for (const auto &[K, W] : VerdictWire)
    if (K == V)
      return W;
  return "pass";
}

bool parseVerdictWire(const std::string &S, Verdict &V) {
  for (const auto &[K, W] : VerdictWire)
    if (S == W) {
      V = K;
      return true;
    }
  return false;
}

/// One checkpoint stat line: `stat` for integer fields, `statf` with a
/// lossless hexfloat for floating-point ones.
template <typename T>
void writeStat(std::ostream &OS, const char *Key, T V) {
  if constexpr (std::is_floating_point_v<T>) {
    char Buf[48];
    snprintf(Buf, sizeof Buf, "%a", double(V));
    OS << "statf " << Key << " " << Buf << "\n";
  } else {
    OS << "stat " << Key << " " << uint64_t(V) << "\n";
  }
}

/// Parses a stat value: decimal for `stat`, any strtod form for `statf`.
bool parseStatValue(const std::string &Tok, bool Float, uint64_t &U,
                    double &D) {
  if (Tok.empty())
    return false;
  if (Float) {
    char *End = nullptr;
    D = std::strtod(Tok.c_str(), &End);
    return End != Tok.c_str() && *End == '\0';
  }
  const char *E = Tok.data() + Tok.size();
  auto [P, Ec] = std::from_chars(Tok.data(), E, U);
  return Ec == std::errc() && P == E;
}

template <typename T> void assignStat(T &Field, bool Float, uint64_t U,
                                      double D) {
  if constexpr (std::is_floating_point_v<T>) {
    if (Float)
      Field = D;
  } else if (!Float) {
    Field = T(U);
  }
}

/// Stores a parsed stat by its checkpoint key; unknown keys are skipped
/// for forward compatibility.
void setStat(SearchStats &S, const std::string &Name, bool Float, uint64_t U,
             double D) {
#define FSMC_CKPT_READ(Field, M, Key, Json, Ckpt, C)                           \
  if (stats::Ckpt != stats::Never && Name == Key) {                            \
    assignStat(S.Field, Float, U, D);                                          \
    return;                                                                    \
  }
  FSMC_SEARCH_STATS(FSMC_CKPT_READ)
#undef FSMC_CKPT_READ
}

} // namespace

std::vector<std::vector<ScheduleChoice>>
fsmc::decomposeUnitToFrozenPrefixes(const CheckpointUnit &U) {
  std::vector<std::vector<ScheduleChoice>> Out;
  if (U.FrozenLen >= U.Prefix.size()) {
    Out.push_back(U.Prefix);
    return Out;
  }
  // The unit's stack is the replay prefix of the next execution a serial
  // explorer would run. Its remainder is that complete path's subtree
  // (the stack itself, fully frozen) plus every untried larger sibling at
  // each advanceable record -- the splitWork carve-up, done statically.
  Out.push_back(U.Prefix);
  for (size_t I = U.FrozenLen; I < U.Prefix.size(); ++I) {
    const ScheduleChoice &C = U.Prefix[I];
    if (!C.Backtrack || C.Chosen + 1 >= C.Num)
      continue;
    for (int Alt = C.Chosen + 1; Alt < C.Num; ++Alt) {
      std::vector<ScheduleChoice> P;
      P.reserve(I + 1);
      P.assign(U.Prefix.begin(), U.Prefix.begin() + long(I));
      // Siblings share the choice point's sleep and flush masks
      // (core/Schedule.h).
      P.push_back({Alt, C.Num, C.Backtrack, C.SleepMask, C.FlushMask});
      Out.push_back(std::move(P));
    }
  }
  return Out;
}

std::string fsmc::encodeCheckpoint(const CheckpointState &CK,
                                   const std::string &Program,
                                   uint64_t Seed) {
  std::ostringstream OS;
  OS << CheckpointMagic << "\n";
  OS << "program " << Program << "\n";
  OS << "seed " << Seed << "\n";
  OS << "rng " << CK.Rng << "\n";
  // Stat lines follow the schema's rows. Readers skip unknown keys, and
  // NonZero rows (fleet recovery, weak memory, the estimator mass) keep
  // checkpoints of runs without those features byte-identical to earlier
  // revisions.
  const SearchStats &S = CK.Stats;
#define FSMC_CKPT_WRITE(Field, M, Key, Json, Ckpt, C)                          \
  if (stats::Ckpt == stats::Always ||                                          \
      (stats::Ckpt == stats::NonZero && S.Field != 0))                         \
    writeStat(OS, Key, S.Field);
  FSMC_SEARCH_STATS(FSMC_CKPT_WRITE)
#undef FSMC_CKPT_WRITE
  if (CK.Bug) {
    OS << "bug " << verdictWire(CK.Bug->Kind) << " " << CK.Bug->AtExecution
       << " " << CK.Bug->AtStep << " " << CK.Bug->Schedule << "\n";
    // The message is free text: keep it on one line.
    std::string Msg = CK.Bug->Message;
    std::replace(Msg.begin(), Msg.end(), '\n', ' ');
    OS << "bugmsg " << Msg << "\n";
  }
  OS << "states " << CK.States.size();
  OS << std::hex;
  for (uint64_t St : CK.States)
    OS << " " << St;
  OS << std::dec << "\n";
  for (const CheckpointUnit &U : CK.Frontier)
    OS << "unit " << U.FrozenLen << " " << encodeSchedule(U.Prefix) << "\n";
  OS << "end\n";
  return OS.str();
}

bool fsmc::decodeCheckpoint(const std::string &Text, CheckpointState &CK,
                            std::string &Program, uint64_t &Seed,
                            std::string &Err) {
  CK = CheckpointState();
  Program.clear();
  Seed = 0;
  std::istringstream IS(Text);
  std::string Line;
  if (!std::getline(IS, Line) ||
      (Line != CheckpointMagic && Line != CheckpointMagicV2 &&
       Line != CheckpointMagicV1)) {
    Err = "not a checkpoint file (missing '" + std::string(CheckpointMagic) +
          "' header)";
    return false;
  }
  bool SawEnd = false;
  while (std::getline(IS, Line)) {
    if (Line.empty())
      continue;
    if (Line == "end") {
      SawEnd = true;
      break;
    }
    std::istringstream LS(Line);
    std::string Key;
    LS >> Key;
    if (Key == "program") {
      LS >> std::ws;
      std::getline(LS, Program);
    } else if (Key == "seed") {
      if (!(LS >> Seed)) {
        Err = "corrupt checkpoint: bad seed value in '" + Line + "'";
        return false;
      }
    } else if (Key == "rng") {
      if (!(LS >> CK.Rng)) {
        Err = "corrupt checkpoint: bad rng value in '" + Line + "'";
        return false;
      }
    } else if (Key == "stat" || Key == "statf") {
      // Unknown NAMES are fine (forward compatibility) but a known line
      // shape with an unparseable VALUE means the file was damaged.
      std::string Name, Tok;
      bool Float = Key == "statf";
      uint64_t U = 0;
      double D = 0;
      if (!(LS >> Name >> Tok) || !parseStatValue(Tok, Float, U, D)) {
        Err = "corrupt checkpoint: bad " + Key + " line '" + Line + "'";
        return false;
      }
      if (Name == "sleep_set_prunes")
        Name = "por_branches_pruned"; // The v1 key.
      setStat(CK.Stats, Name, Float, U, D);
    } else if (Key == "bug") {
      std::string KindTok, Schedule;
      uint64_t AtExec = 0, AtStep = 0;
      if (!(LS >> KindTok >> AtExec >> AtStep >> Schedule)) {
        Err = "corrupt checkpoint: bad bug line '" + Line + "'";
        return false;
      }
      BugReport B;
      if (!parseVerdictWire(KindTok, B.Kind)) {
        Err = "corrupt checkpoint: bad bug verdict '" + KindTok + "'";
        return false;
      }
      B.AtExecution = AtExec;
      B.AtStep = AtStep;
      B.Schedule = Schedule;
      CK.Bug = std::move(B);
    } else if (Key == "bugmsg") {
      if (CK.Bug) {
        LS >> std::ws;
        std::getline(LS, CK.Bug->Message);
      }
    } else if (Key == "states") {
      size_t N = 0;
      if (!(LS >> N)) {
        Err = "corrupt checkpoint: bad states count in '" + Line + "'";
        return false;
      }
      // Bound the reserve by the line's actual capacity: a corrupted count
      // must not turn into a multi-gigabyte allocation before the per-value
      // reads below catch the truncation.
      CK.States.reserve(std::min(N, Line.size() / 2 + 1));
      LS >> std::hex;
      for (size_t I = 0; I < N; ++I) {
        uint64_t V = 0;
        if (!(LS >> V)) {
          Err = "corrupt checkpoint: truncated states line (" +
                std::to_string(I) + " of " + std::to_string(N) + " values)";
          return false;
        }
        CK.States.push_back(V);
      }
    } else if (Key == "unit") {
      CheckpointUnit U;
      std::string Sched;
      if (!(LS >> U.FrozenLen >> Sched)) {
        Err = "corrupt checkpoint: bad unit line '" + Line + "'";
        return false;
      }
      if (!decodeSchedule(Sched, U.Prefix)) {
        Err = "corrupt checkpoint: malformed unit schedule '" + Sched + "'";
        return false;
      }
      if (U.FrozenLen > U.Prefix.size()) {
        Err = "corrupt checkpoint: unit frozen length exceeds prefix";
        return false;
      }
      CK.Frontier.push_back(std::move(U));
    }
    // Unknown keys are skipped for forward compatibility.
  }
  if (!SawEnd) {
    Err = "corrupt checkpoint: truncated (missing 'end' marker)";
    return false;
  }
  CK.Stats.DistinctStates = CK.States.size();
  return true;
}

bool fsmc::writeCheckpointFile(const std::string &Path,
                               const CheckpointState &CK,
                               const std::string &Program, uint64_t Seed) {
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream OS(Tmp, std::ios::binary | std::ios::trunc);
    if (!OS)
      return false;
    OS << encodeCheckpoint(CK, Program, Seed);
    OS.flush();
    if (!OS)
      return false;
  }
  return std::rename(Tmp.c_str(), Path.c_str()) == 0;
}

bool fsmc::readCheckpointFile(const std::string &Path, CheckpointState &CK,
                              std::string &Program, uint64_t &Seed,
                              std::string &Err) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS) {
    Err = "cannot open checkpoint file '" + Path + "'";
    return false;
  }
  std::ostringstream Buf;
  Buf << IS.rdbuf();
  return decodeCheckpoint(Buf.str(), CK, Program, Seed, Err);
}

CheckResult fsmc::resumeCheck(const TestProgram &Program,
                              const CheckerOptions &Opts,
                              const CheckpointState &CK) {
  return runFrontier(Program, Opts, CK);
}
