//===- core/Schedule.cpp --------------------------------------------------===//

#include "core/Schedule.h"

#include "core/Checkpoint.h"

#include <charconv>
#include <cstdio>

using namespace fsmc;

static const char *SchedulePrefix = "fsmc1:";

/// Parses all of \p Tok as a number in \p Base: no sign, no blanks, no
/// trailing characters, no overflow of \p T.
template <typename T>
static bool parseWhole(std::string_view Tok, T &Out, int Base = 10) {
  const char *End = Tok.data() + Tok.size();
  auto [P, Ec] = std::from_chars(Tok.data(), End, Out, Base);
  return !Tok.empty() && Tok[0] != '-' && Ec == std::errc() && P == End;
}

/// Parses one `c/n[r][f<hex>][s<hex>]` record.
static bool decodeChoice(std::string_view Tok, ScheduleChoice &C) {
  size_t Slash = Tok.find('/');
  if (Slash == std::string_view::npos ||
      !parseWhole(Tok.substr(0, Slash), C.Chosen))
    return false;
  std::string_view NumTok = Tok.substr(Slash + 1);
  // Suffixes come off right-to-left: the `s` mask first (its hex digits
  // cannot contain 's'), then the `f` mask -- everything left of the `f`
  // marker is decimal digits plus an optional 'r', so the *first* 'f' in
  // what remains is always the marker, never a hex digit of the flush
  // mask -- then the trailing 'r'.
  size_t SleepAt = NumTok.find('s');
  if (SleepAt != std::string_view::npos) {
    if (!parseWhole(NumTok.substr(SleepAt + 1), C.SleepMask, 16))
      return false;
    NumTok = NumTok.substr(0, SleepAt);
  }
  size_t FlushAt = NumTok.find('f');
  if (FlushAt != std::string_view::npos) {
    if (!parseWhole(NumTok.substr(FlushAt + 1), C.FlushMask, 16))
      return false;
    NumTok = NumTok.substr(0, FlushAt);
  }
  if (!NumTok.empty() && NumTok.back() == 'r') {
    C.Backtrack = false;
    NumTok.remove_suffix(1);
  }
  return parseWhole(NumTok, C.Num) && C.Num >= 2 && C.Chosen < C.Num;
}

std::string fsmc::encodeSchedule(const std::vector<ScheduleChoice> &Choices) {
  std::string Out = SchedulePrefix;
  for (size_t I = 0; I < Choices.size(); ++I) {
    if (I)
      Out += ";";
    Out += std::to_string(Choices[I].Chosen);
    Out += "/";
    Out += std::to_string(Choices[I].Num);
    if (!Choices[I].Backtrack)
      Out += "r";
    if (Choices[I].FlushMask) {
      char Buf[24];
      std::snprintf(Buf, sizeof(Buf), "f%llx",
                    (unsigned long long)Choices[I].FlushMask);
      Out += Buf;
    }
    if (Choices[I].SleepMask) {
      char Buf[24];
      std::snprintf(Buf, sizeof(Buf), "s%llx",
                    (unsigned long long)Choices[I].SleepMask);
      Out += Buf;
    }
  }
  return Out;
}

/// Parses \p Text record by record, handing each to \p Each.
template <typename F>
static bool forEachChoice(const std::string &Text, std::string *Why,
                          F Each) {
  std::string_view S = Text;
  std::string_view Prefix = SchedulePrefix;
  if (S.substr(0, Prefix.size()) != Prefix) {
    if (Why)
      *Why = "missing '" + std::string(Prefix) + "' prefix";
    return false;
  }
  S.remove_prefix(Prefix.size());
  if (S.empty())
    return true;
  for (size_t Rec = 0;; ++Rec) {
    size_t Semi = S.find(';');
    std::string_view Tok = S.substr(0, Semi);
    ScheduleChoice C;
    if (!decodeChoice(Tok, C)) {
      if (Why)
        *Why = "record " + std::to_string(Rec) + " '" + std::string(Tok) +
               "' is not chosen/options with 0 <= chosen < options and "
               "options >= 2";
      return false;
    }
    Each(C);
    if (Semi == std::string_view::npos)
      return true;
    S.remove_prefix(Semi + 1);
  }
}

bool fsmc::decodeSchedule(const std::string &Text,
                          std::vector<ScheduleChoice> &Out,
                          std::string *Why) {
  Out.clear();
  return forEachChoice(Text, Why,
                       [&](const ScheduleChoice &C) { Out.push_back(C); });
}

std::vector<int> fsmc::schedulePathKey(const std::string &Text) {
  std::vector<int> Key;
  if (!forEachChoice(Text, nullptr,
                     [&](const ScheduleChoice &C) { Key.push_back(C.Chosen); }))
    Key.clear();
  return Key;
}

CheckResult fsmc::replaySchedule(const TestProgram &Program,
                                 const CheckerOptions &Opts,
                                 const std::string &Schedule) {
  CheckpointState One;
  One.Frontier.emplace_back();
  CheckpointUnit &U = One.Frontier.back();
  if (!decodeSchedule(Schedule, U.Prefix)) {
    CheckResult Bad;
    Bad.Kind = Verdict::SafetyViolation;
    BugReport B;
    B.Kind = Verdict::SafetyViolation;
    B.Message = "malformed schedule string";
    Bad.Bug = std::move(B);
    return Bad;
  }
  // Freeze the whole schedule: replay must stay on the recorded path. A
  // mismatch then surfaces as Verdict::Divergence (after the configured
  // retries) instead of wandering into sibling schedules. One execution
  // has nothing to shard, so replay runs serially -- in a forked child
  // under --isolate=batch, since replaying a crashing schedule in-process
  // would kill the caller.
  U.FrozenLen = U.Prefix.size();
  CheckerOptions Effective = Opts;
  Effective.MaxExecutions = 1;
  Effective.StopOnFirstBug = true;
  Effective.Jobs = 1;
  Effective.FleetWorkers = 0;
  return runFrontier(Program, Effective, One);
}
