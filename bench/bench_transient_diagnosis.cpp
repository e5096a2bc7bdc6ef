// E11 — time-domain (step-response) diagnosis: accuracy on reactive faults
// that leave the DC operating point untouched, plus solver timings. This is
// the complement of E9: together they cover the paper's "dynamic mode".
#include <benchmark/benchmark.h>

#include <iostream>

#include "circuit/fault.h"
#include "circuit/transient.h"
#include "diagnosis/transient_diagnosis.h"
#include "obs/obs.h"

namespace {

using namespace flames;
using circuit::Fault;
using circuit::Netlist;
using diagnosis::StepFeature;
using diagnosis::StepProbe;
using diagnosis::TransientDiagnosisEngine;
using diagnosis::TransientDiagnosisOptions;

Netlist twoStageRc() {
  Netlist n;
  n.addVSource("Vin", "in", "0", 0.0);
  n.addResistor("R1", "in", "m", 1.0, 0.02);
  n.addCapacitor("C1", "m", "0", 1.0, 0.05);
  n.addGain("buf", "m", "b", 1.0, 0.0);
  n.addResistor("R2", "b", "out", 2.0, 0.02);
  n.addCapacitor("C2", "out", "0", 0.1, 0.05);
  return n;
}

std::vector<StepProbe> probes() {
  return {{"m", StepFeature::kRiseTime},
          {"m", StepFeature::kFinalValue},
          {"out", StepFeature::kRiseTime},
          {"out", StepFeature::kFinalValue}};
}

TransientDiagnosisOptions options() {
  TransientDiagnosisOptions o;
  o.transient.timeStep = 0.02;
  o.duration = 40.0;
  return o;
}

void printAccuracyTable() {
  std::cout << "==== E11: step-response diagnosis of DC-invisible reactive "
               "faults ====\n";
  std::cout << "fault | detected | culprit in top-2 | top candidate\n";
  const Netlist net = twoStageRc();

  struct Row {
    const char* name;
    Fault fault;
  };
  const std::vector<Row> rows = {
      {"C1 open", Fault::open("C1")},
      {"C2 open", Fault::open("C2")},
      {"C1 x3 drift", Fault::paramScale("C1", 3.0)},
      {"C2 x4 drift", Fault::paramScale("C2", 4.0)},
      {"C1 x0.3 drift", Fault::paramScale("C1", 0.3)},
  };

  std::size_t detected = 0, isolated = 0;
  for (const Row& row : rows) {
    TransientDiagnosisEngine engine(net, "Vin", probes(), options());
    const Netlist board = circuit::applyFaults(net, {row.fault});
    for (const StepProbe& p : probes()) {
      const auto v = engine.simulateFeature(board, p);
      if (v) engine.measure(p, *v);
    }
    const auto report = engine.diagnose();
    const bool det = report.faultDetected();
    bool found = false;
    std::string top = "-";
    if (det) {
      ++detected;
      if (!report.candidates.empty()) {
        top = report.candidates.front().components.front();
      }
      for (std::size_t k = 0;
           k < std::min<std::size_t>(2, report.candidates.size()); ++k) {
        for (const auto& c : report.candidates[k].components) {
          if (c == row.fault.component) found = true;
        }
      }
      if (found) ++isolated;
    }
    std::cout << "  " << row.name << " | " << (det ? "yes" : "NO") << " | "
              << (found ? "yes" : "NO") << " | {" << top << "}\n";
  }
  std::cout << "summary: " << detected << "/" << rows.size() << " detected, "
            << isolated << "/" << rows.size() << " isolated\n";
  std::cout << "(every one of these faults leaves all DC node voltages "
               "unchanged — the static-mode engine cannot see them at all)\n\n";
}

void BM_TransientSolve(benchmark::State& state) {
  const auto steps = static_cast<double>(state.range(0));
  const Netlist net = twoStageRc();
  std::size_t factorizations = 0;
  for (auto _ : state) {
    circuit::TransientSolver solver(net, {0.02, 50});
    solver.setWaveform("Vin", [](double t) { return t > 0.0 ? 1.0 : 0.0; });
    const circuit::TransientResult r = solver.run(steps * 0.02);
    factorizations = r.factorizations;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  // LU factorizations per run, the DC point included.
  state.counters["factorizations"] = static_cast<double>(factorizations);
}
BENCHMARK(BM_TransientSolve)->Arg(100)->Arg(500)->Arg(2000);

void BM_TransientDiagnose(benchmark::State& state) {
  const Netlist net = twoStageRc();
  TransientDiagnosisEngine engine(net, "Vin", probes(), options());
  const Netlist board = circuit::applyFaults(net, {Fault::open("C2")});
  for (const StepProbe& p : probes()) {
    const auto v = engine.simulateFeature(board, p);
    if (v) engine.measure(p, *v);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.diagnose());
  }
  // Transient runs per diagnose(), counted on one extra call.
  const bool wasEnabled = obs::enabled();
  obs::setEnabled(true);
  obs::Counter& runs = obs::counter("diagnosis.transient_runs");
  const std::uint64_t before = runs.value();
  benchmark::DoNotOptimize(engine.diagnose());
  state.counters["transient_runs"] = static_cast<double>(runs.value() - before);
  obs::setEnabled(wasEnabled);
}
BENCHMARK(BM_TransientDiagnose);

}  // namespace

int main(int argc, char** argv) {
  printAccuracyTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
