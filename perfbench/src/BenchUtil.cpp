//===- perfbench/src/BenchUtil.cpp - Statistics, goldens, spans -----------===//

#include "BenchUtil.h"

#include "benchmarks/BenchJson.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory_resource>
#include <random>
#include <set>
#include <sstream>
#include <unordered_map>

#include <sys/resource.h>

using namespace perfbench;

double perfbench::median(std::vector<double> Values) {
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

std::array<double, 3> perfbench::quartiles(std::vector<double> Values) {
  std::sort(Values.begin(), Values.end());
  // Python's exclusive method: m = n + 1; the i-th cut point sits at
  // position i*m/4 (1-based), clamped to [1, n-1] and interpolated (or,
  // past the clamp, extrapolated) between its neighbours.
  const long N = long(Values.size());
  const long M = N + 1;
  std::array<double, 3> Q{};
  for (long I = 1; I <= 3; ++I) {
    long J = std::clamp<long>(I * M / 4, 1, N - 1);
    long Delta = I * M - J * 4;
    Q[size_t(I - 1)] = (Values[size_t(J - 1)] * double(4 - Delta) +
                        Values[size_t(J)] * double(Delta)) /
                       4;
  }
  return Q;
}

std::string perfbench::sanitizeName(const std::string &Name) {
  // "BENCH_<sanitized>.json": keep the library's rule, drop its framing.
  const std::string File = temos::benchJsonFileName(Name);
  const size_t Prefix = std::string("BENCH_").size();
  const size_t Suffix = std::string(".json").size();
  return File.substr(Prefix, File.size() - Prefix - Suffix);
}

std::string perfbench::goldenSlug(const std::string &Name) {
  std::string Slug;
  for (char C : Name) {
    unsigned char U = static_cast<unsigned char>(C);
    Slug += std::isalnum(U) ? char(std::tolower(U)) : '_';
  }
  return Slug;
}

std::optional<GoldenSummary>
perfbench::parseGoldenSummary(const std::string &Text, std::string &Err) {
  GoldenSummary G;
  bool HaveStates = false, HaveLoc = false;
  std::istringstream In(Text);
  std::string Line;
  // "<Name>: <verdict>" is the first line.
  if (std::getline(In, Line)) {
    size_t Colon = Line.rfind(": ");
    if (Colon != std::string::npos)
      G.Verdict = Line.substr(Colon + 2);
  }
  auto Field = [&](const std::string &Key, size_t &Out) {
    size_t At = Line.find(Key);
    if (At == std::string::npos)
      return false;
    std::string Rest = Line.substr(At + Key.size());
    size_t Used = 0;
    try {
      Out = std::stoul(Rest, &Used);
    } catch (const std::exception &) {
      return false;
    }
    return Used > 0;
  };
  while (std::getline(In, Line)) {
    HaveStates = HaveStates || Field("machine states:", G.MachineStates);
    HaveLoc = HaveLoc || Field("JavaScript LoC:", G.JsLoc);
  }
  if (G.Verdict.empty())
    Err = "no '<name>: <verdict>' first line";
  else if (!HaveStates)
    Err = "no 'machine states:' line";
  else if (!HaveLoc)
    Err = "no 'JavaScript LoC:' line";
  else
    return G;
  return std::nullopt;
}

double perfbench::wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double perfbench::cpuNow() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return double(Ts.tv_sec) + double(Ts.tv_nsec) * 1e-9;
}

double perfbench::peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

SliceTime perfbench::runReferenceSlice() {
  // Allocated and touched once, so no slice pays for page faults.
  static std::vector<std::byte> Buffer(4u << 20, std::byte{1});
  const double Wall0 = wallNow(), Cpu0 = cpuNow();
  size_t Size = 0;
  {
    std::pmr::monotonic_buffer_resource Pool(Buffer.data(), Buffer.size());
    std::mt19937_64 Rng(42);
    std::pmr::unordered_map<uint64_t, std::pmr::vector<uint32_t>> Map(&Pool);
    for (uint32_t I = 0; I < 20000; ++I)
      Map[Rng() % 40000].push_back(I);
    std::pmr::set<std::pmr::vector<int>> Set(&Pool);
    for (int I = 0; I < 6000; ++I) {
      std::pmr::vector<int> Key(1 + Rng() % 8, &Pool);
      for (int &X : Key)
        X = int(Rng() % 16);
      Set.insert(std::move(Key));
    }
    Size = Map.size() + Set.size();
  }
  // Keep the result live so the work cannot be optimized away.
  asm volatile("" : : "r"(Size) : "memory");
  return {wallNow() - Wall0, cpuNow() - Cpu0};
}

double perfbench::atNominalSpeed(double Seconds, double SliceSeconds,
                                 size_t Slices) {
  return Seconds * NominalSliceSeconds * double(Slices) / SliceSeconds;
}

int SpanLog::open(std::string Name, int Parent) {
  Spans.push_back({std::move(Name), Parent, wallNow(), 0});
  return int(Spans.size()) - 1;
}

void SpanLog::close(int Index) { Spans[size_t(Index)].End = wallNow(); }

std::map<std::string, double> SpanLog::selfSeconds(size_t From) const {
  std::vector<double> Self(Spans.size(), 0);
  for (size_t I = From; I < Spans.size(); ++I) {
    Self[I] += Spans[I].End - Spans[I].Start;
    int P = Spans[I].Parent;
    if (P >= int(From))
      Self[size_t(P)] -= Spans[I].End - Spans[I].Start;
  }
  std::map<std::string, double> ByName;
  for (size_t I = From; I < Spans.size(); ++I)
    ByName[Spans[I].Name] += Self[I];
  return ByName;
}

bool SpanLog::writeChromeTrace(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  const double Origin = Spans.empty() ? 0 : Spans.front().Start;
  Out << "{\"traceEvents\": [\n";
  char Buf[128];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf), "\"ts\": %.3f, \"dur\": %.3f",
                  (S.Start - Origin) * 1e6, (S.End - S.Start) * 1e6);
    Out << "  {\"name\": \"" << S.Name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": 1, " << Buf << ", \"args\": {\"parent\": \""
        << (S.Parent >= 0 ? Spans[size_t(S.Parent)].Name : "") << "\"}}"
        << (I + 1 < Spans.size() ? ",\n" : "\n");
  }
  Out << "], \"displayTimeUnit\": \"ms\"}\n";
  return bool(Out);
}
