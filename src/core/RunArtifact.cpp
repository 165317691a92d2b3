//===- core/RunArtifact.cpp - Replayable dumps of degraded runs -----------===//

#include "core/RunArtifact.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>

using namespace temos;

namespace {

constexpr const char *Header = "// temos-artifact:";
constexpr const char *OptionsPrefix = "// options:";

/// Shortest decimal text that reads back as exactly \p V.
std::string exactDouble(double V) {
  char Buf[32];
  return std::string(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

} // namespace

std::string temos::runArtifactText(const std::string &SpecName,
                                   const PipelineResult &Result,
                                   const PipelineOptions &Options,
                                   const std::string &Source) {
  std::string Out = std::string(Header) + " v1\n";
  Out += "// spec: " + SpecName + "\n";
  Out += std::string("// status: ") + realizabilityName(Result.Status) + "\n";
  for (const FailureRecord &F : Result.Stats.Failures)
    Out += "// failure: " + F.str() + "\n";
  Out += std::string(OptionsPrefix) +
         " jobs=" + std::to_string(Options.Parallelism.NumThreads) +
         " cache=" + (Options.Parallelism.CacheEnabled ? "on" : "off") +
         " lazy=" + (Options.Eager ? "off" : "on") +
         " time-budget=" + exactDouble(Options.Budget.TotalSeconds) +
         " sygus-budget=" + exactDouble(Options.Budget.SygusSeconds) +
         " inject-fault=" + (Options.InjectSpinHang ? "spin-hang" : "none") +
         "\n";
  Out += "// replay: temos-fuzz --replay <this-file>\n";
  Out += Source;
  if (!Source.empty() && Source.back() != '\n')
    Out += "\n";
  return Out;
}

std::optional<PipelineOptions>
temos::parseRunArtifact(const std::string &Text) {
  bool Found = false;
  PipelineOptions PO;
  for (const std::string &Line : split(Text, '\n')) {
    if (Line.rfind(Header, 0) == 0)
      Found = true;
    if (!Found || Line.rfind(OptionsPrefix, 0) != 0)
      continue;
    for (const std::string &Tok :
         split(Line.substr(std::string(OptionsPrefix).size()), ' ')) {
      std::string::size_type Eq = Tok.find('=');
      if (Eq == std::string::npos)
        continue;
      std::string Key = Tok.substr(0, Eq);
      std::string Val = Tok.substr(Eq + 1);
      if (Key == "jobs")
        PO.Parallelism.NumThreads = static_cast<unsigned>(
            std::max(1L, std::strtol(Val.c_str(), nullptr, 10)));
      else if (Key == "cache")
        PO.Parallelism.CacheEnabled = Val != "off";
      else if (Key == "lazy")
        PO.Eager = Val != "on";
      else if (Key == "time-budget")
        PO.Budget.TotalSeconds = std::strtod(Val.c_str(), nullptr);
      else if (Key == "sygus-budget")
        PO.Budget.SygusSeconds = std::strtod(Val.c_str(), nullptr);
      else if (Key == "inject-fault")
        PO.InjectSpinHang = Val == "spin-hang";
    }
    break;
  }
  if (!Found)
    return std::nullopt;
  return PO;
}
