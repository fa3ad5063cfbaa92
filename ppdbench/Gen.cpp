//===- ppdbench/Gen.cpp ---------------------------------------------------===//
//
// Part of the PPD end-to-end benchmark. See Gen.h.
//
//===----------------------------------------------------------------------===//

#include "Gen.h"

#include <algorithm>
#include <random>

using namespace ppdbench;

GenProgram ppdbench::generateProgram(const GenSpec &Spec, uint64_t Seed) {
  // std::mt19937_64 is specified bit-for-bit by the standard, so a seed
  // names the same program on every host and library.
  std::mt19937_64 Rng(Seed * 0x9e3779b97f4a7c15ull + 0x243f6a8885a308d3ull);
  auto Below = [&Rng](unsigned Bound) { return unsigned(Rng() % Bound); };
  auto S = [](uint64_t V) { return std::to_string(V); };

  GenProgram Out;
  std::string &Src = Out.Source;
  Src += "shared int checkpoint;\n";
  Src += "shared int cells[" + S(Spec.Cells) + "];\n";
  for (unsigned K = 0; K != Spec.Races; ++K) {
    Src += "shared int race" + S(K) + ";\n";
    Out.PlantedRaces.push_back("race" + S(K));
  }
  std::sort(Out.PlantedRaces.begin(), Out.PlantedRaces.end());
  Src += "sem lock = 1;\nsem done;\n";

  // Helpers: a few straight-line statements each; every eighth calls its
  // predecessor, so the call depth stays at most two. No branch depends on
  // a constant, so the constants never change how many instructions a
  // process runs: every seed gives the same schedule and the same cuts.
  for (unsigned H = 0; H != Spec.Helpers; ++H) {
    Src += "func h" + S(H) + "(int x) {\n";
    Src += "  int y = x * " + S(3 + Below(29)) + " + " + S(Below(1000)) +
           ";\n";
    Src += "  y = y + y % " + S(2 + Below(5)) + " * " + S(1 + Below(9)) +
           ";\n";
    if (H % 8 == 7)
      Src += "  return h" + S(H - 1) + "(y % 1000003);\n";
    else
      Src += "  return y % 1000003;\n";
    Src += "}\n";
  }

  Src += "func step(int w, int r, int acc) {\n"
         "  int i = 0;\n"
         "  while (i < " + S(Spec.Grain) + ") {\n"
         "    acc = (acc * 31 + i + w) % 1000003;\n"
         "    i = i + 1;\n"
         "  }\n"
         "  P(lock);\n"
         "  checkpoint = checkpoint + acc % 101;\n"
         "  cells[(r + w) % " + S(Spec.Cells) + "] = cells[(r + w) % " +
         S(Spec.Cells) + "] + acc % 7;\n"
         "  V(lock);\n"
         "  return acc;\n"
         "}\n";

  // Helper H belongs to worker H mod Workers, and race variable K is
  // written by workers K and K + 1 (mod Workers), so every seed gives each
  // worker the same calls and the same amount of work.
  std::vector<std::vector<unsigned>> RacesOf(Spec.Workers);
  for (unsigned K = 0; K != Spec.Races; ++K) {
    RacesOf[K % Spec.Workers].push_back(K);
    RacesOf[(K + 1) % Spec.Workers].push_back(K);
  }

  for (unsigned W = 0; W != Spec.Workers; ++W) {
    Src += "func worker" + S(W) + "(int rounds) {\n";
    for (unsigned K : RacesOf[W])
      Src += "  race" + S(K) + " = " + S(W + 1) + ";\n";
    Src += "  int acc = " + S(1 + Below(1000)) + ";\n";
    for (unsigned H = W; H < Spec.Helpers; H += Spec.Workers)
      Src += "  acc = h" + S(H) + "(acc);\n";
    Src += "  int r = 0;\n"
           "  for (r = 0; r < rounds; r = r + 1) acc = step(" + S(W) +
           ", r, acc);\n"
           "  V(done);\n"
           "  int last = acc % 1000;\n"
           "}\n";
  }

  Src += "func main() {\n";
  for (unsigned W = 0; W != Spec.Workers; ++W)
    Src += "  spawn worker" + S(W) + "(" + S(Spec.Rounds) + ");\n";
  Src += "  int k = 0;\n"
         "  for (k = 0; k < " + S(Spec.Workers) + "; k = k + 1) P(done);\n"
         "  print(checkpoint);\n"
         "  int total = 0;\n"
         "  for (k = 0; k < " + S(Spec.Cells) + "; k = k + 1) total = "
         "total + cells[k];\n"
         "  print(total);\n"
         "}\n";
  return Out;
}
