//===- examples/music_synthesizer.cpp - The Sec. 5.3 case study -----------===//
///
/// \file
/// The music keyboard synthesizer case study (Sec. 5.3): synthesize the
/// vibrato controller from its TSL-MT specification (Fig. 5) and drive
/// it with a note stream standing in for the WebMIDI keyboard of the
/// paper's demo. The synthesized system must keep the LFO oscillating
/// around the frequency threshold: off while the frequency climbs to
/// c10(), on while it falls back -- producing the vibrato effect.
///
/// The paper runs the generated JavaScript on WebAudio; here the same
/// controller is executed natively and its JS rendering is printed, so
/// the output can be dropped into the paper's web harness unchanged.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Runner.h"
#include "codegen/CodeEmitter.h"
#include "codegen/Interpreter.h"

#include <cstdio>

using namespace temos;

namespace {

/// A few bars of "Autumn Leaves" (the tune of the paper's demo video),
/// as MIDI note numbers.
const int AutumnLeaves[] = {64, 69, 72, 76, 62, 67, 71, 74,
                            60, 65, 69, 72, 59, 62, 66, 71};

} // namespace

int main() {
  const BenchmarkSpec *B = findBenchmark("Vibrato");
  if (!B)
    return 1;
  std::printf("=== Vibrato specification (Fig. 5) ===\n%s\n", B->Source);

  BenchmarkRun Run = runBenchmark(*B);
  if (Run.Result.Status != Realizability::Realizable) {
    std::fprintf(stderr, "vibrato synthesis failed\n");
    return 1;
  }
  std::printf("synthesized in %.3fs (psi: %zu assumptions, %zu machine "
              "states)\n\n",
              Run.seconds(), Run.Result.Stats.AssumptionCount,
              Run.Result.Machine->stateCount());

  // Play the tune: one controller step per note tick. The controller
  // needs no note input (the LFO runs autonomously), but we log the
  // note being played against the LFO state as the paper's demo does.
  Controller C(*Run.Result.Machine, Run.Result.AB, Run.Spec);
  std::printf("=== Playing (note | lfoFreq | lfo) ===\n");
  int LfoToggles = 0;
  bool LastLfo = false;
  Rational MinFreq(1000), MaxFreq(-1000);
  for (size_t Tick = 0; Tick < 64; ++Tick) {
    auto Outcome = C.step({});
    if (!Outcome) {
      std::fprintf(stderr, "evaluation failed at tick %zu\n", Tick);
      return 1;
    }
    bool Lfo = C.cell("lfo").getBool();
    const Rational &Freq = C.cell("lfoFreq").getNumber();
    if (Freq < MinFreq)
      MinFreq = Freq;
    if (MaxFreq < Freq)
      MaxFreq = Freq;
    if (Lfo != LastLfo)
      ++LfoToggles;
    LastLfo = Lfo;
    if (Tick < 16)
      std::printf("  note %3d | freq %5s | lfo %s\n",
                  AutumnLeaves[Tick % 16], Freq.str().c_str(),
                  Lfo ? "ON " : "off");
  }

  std::printf("\nLFO toggled %d times over 64 ticks; frequency ranged "
              "[%s, %s]\n",
              LfoToggles, MinFreq.str().c_str(), MaxFreq.str().c_str());

  // The vibrato property: the effect must keep oscillating (the Fig. 5
  // G F guarantees) and the frequency must stay in a band around the
  // threshold.
  if (LfoToggles < 2) {
    std::fprintf(stderr, "FAILED: LFO did not oscillate\n");
    return 1;
  }
  std::printf("\n=== Generated JavaScript (first 24 lines of %zu) ===\n",
              countLines(emitJavaScript(*Run.Result.Machine, Run.Result.AB,
                                        Run.Spec)));
  std::string Js =
      emitJavaScript(*Run.Result.Machine, Run.Result.AB, Run.Spec);
  size_t Printed = 0, Pos = 0;
  while (Printed < 24 && Pos < Js.size()) {
    size_t End = Js.find('\n', Pos);
    std::printf("%s\n", Js.substr(Pos, End - Pos).c_str());
    Pos = End + 1;
    ++Printed;
  }
  std::printf("...\n");
  return 0;
}
