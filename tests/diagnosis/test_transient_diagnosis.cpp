#include "diagnosis/transient_diagnosis.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "circuit/fault.h"
#include "obs/obs.h"
#include "workload/generators.h"

#ifndef FLAMES_TRANSIENT_GOLDEN_DIR
#error "FLAMES_TRANSIENT_GOLDEN_DIR must point at tests/diagnosis/golden"
#endif

namespace flames::diagnosis {
namespace {

using circuit::Fault;
using circuit::Netlist;

// Two-stage buffered RC with distinct time constants (tau1 = 1 ms,
// tau2 = 0.2 ms in V/kOhm/uF units).
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

std::vector<StepProbe> standardProbes() {
  return {{"m", StepFeature::kRiseTime},
          {"m", StepFeature::kFinalValue},
          {"out", StepFeature::kRiseTime},
          {"out", StepFeature::kFinalValue}};
}

TransientDiagnosisOptions fastOptions() {
  TransientDiagnosisOptions o;
  o.transient.timeStep = 0.02;
  o.duration = 40.0;  // long enough for 5 tau even under a 4x drift
  return o;
}

void measureBoard(TransientDiagnosisEngine& engine, const Netlist& nominal,
                  const std::vector<Fault>& faults) {
  const Netlist board = circuit::applyFaults(nominal, faults);
  for (const StepProbe& p : standardProbes()) {
    const auto v = engine.simulateFeature(board, p);
    ASSERT_TRUE(v.has_value()) << TransientDiagnosisEngine::quantityName(p);
    engine.measure(p, *v);
  }
}

TEST(TransientDiagnosis, QuantityNaming) {
  EXPECT_EQ(TransientDiagnosisEngine::quantityName(
                {"out", StepFeature::kRiseTime}),
            "rise(V(out))");
  EXPECT_EQ(TransientDiagnosisEngine::quantityName(
                {"m", StepFeature::kFinalValue}),
            "final(V(m))");
  EXPECT_EQ(stepFeatureName(StepFeature::kRiseTime), "rise");
  EXPECT_EQ(stepFeatureName(StepFeature::kFinalValue), "final");
}

TEST(TransientDiagnosis, HealthyBoardQuiet) {
  const Netlist net = twoStageRc();
  TransientDiagnosisEngine engine(net, "Vin", standardProbes(), fastOptions());
  measureBoard(engine, net, {});
  const auto report = engine.diagnose();
  EXPECT_TRUE(report.propagationCompleted);
  EXPECT_FALSE(report.faultDetected());
}

TEST(TransientDiagnosis, DriftedCapacitorCaughtByRiseTime) {
  // C1 drifted x3: DC levels unchanged (final values identical), only the
  // rise times move — the scenario DC diagnosis is blind to.
  const Netlist net = twoStageRc();
  TransientDiagnosisEngine engine(net, "Vin", standardProbes(), fastOptions());
  measureBoard(engine, net, {Fault::paramScale("C1", 3.0)});
  const auto report = engine.diagnose();
  ASSERT_TRUE(report.faultDetected());
  // The rise-time probes conflict; the final-value probes corroborate.
  bool riseConflict = false, finalConflict = false;
  for (const auto& m : report.measurements) {
    if (m.dc < 0.5 && m.quantity.rfind("rise", 0) == 0) riseConflict = true;
    if (m.dc < 0.5 && m.quantity.rfind("final", 0) == 0) finalConflict = true;
  }
  EXPECT_TRUE(riseConflict);
  EXPECT_FALSE(finalConflict);
  // C1 must be implicated.
  EXPECT_GE(report.suspicion.count("C1"), 1u);
}

TEST(TransientDiagnosis, OpenCapacitorIsolatedWithMode) {
  const Netlist net = twoStageRc();
  TransientDiagnosisEngine engine(net, "Vin", standardProbes(), fastOptions());
  measureBoard(engine, net, {Fault::open("C2")});
  const auto report = engine.diagnose();
  ASSERT_TRUE(report.faultDetected());
  ASSERT_FALSE(report.candidates.empty());
  EXPECT_EQ(report.bestCandidate(), std::vector<std::string>{"C2"});
  ASSERT_TRUE(report.candidates.front().modeMatch.has_value());
  EXPECT_EQ(report.candidates.front().modeMatch->mode, "open");
}

TEST(TransientDiagnosis, StageDiscrimination) {
  // C2 faults must not put stage-1-only candidates on top.
  const Netlist net = twoStageRc();
  TransientDiagnosisEngine engine(net, "Vin", standardProbes(), fastOptions());
  measureBoard(engine, net, {Fault::paramScale("C2", 4.0)});
  const auto report = engine.diagnose();
  ASSERT_TRUE(report.faultDetected());
  ASSERT_FALSE(report.candidates.empty());
  const auto& top = report.candidates.front().components;
  ASSERT_EQ(top.size(), 1u);
  EXPECT_TRUE(top.front() == "C2" || top.front() == "R2") << top.front();
}

TEST(TransientDiagnosis, MeasureValidatesProbe) {
  const Netlist net = twoStageRc();
  TransientDiagnosisEngine engine(net, "Vin", standardProbes(), fastOptions());
  EXPECT_THROW(engine.measure({"bogus", StepFeature::kRiseTime}, 1.0),
               std::out_of_range);
}

TEST(TransientDiagnosis, ConstructorNamesABadSourceOrProbe) {
  const Netlist net = twoStageRc();
  auto rejects = [&](const std::string& source,
                     const std::vector<StepProbe>& probes,
                     const std::string& culprit) {
    try {
      TransientDiagnosisEngine engine(net, source, probes, fastOptions());
      ADD_FAILURE() << "accepted source '" << source << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + culprit + "'"),
                std::string::npos)
          << e.what();
    }
  };
  rejects("Vbogus", standardProbes(), "Vbogus");  // no such component
  rejects("R1", standardProbes(), "R1");          // not a vsource
  std::vector<StepProbe> probes = standardProbes();
  probes.push_back({"nowhere", StepFeature::kFinalValue});
  rejects("Vin", probes, "nowhere");
}

bool sameBits(const std::optional<double>& a, const std::optional<double>& b) {
  if (!a || !b) return !a && !b;
  return std::bit_cast<std::uint64_t>(*a) == std::bit_cast<std::uint64_t>(*b);
}

// The per-board run must read every probe exactly as a per-probe run would,
// including which probes fail: all of them when the run throws, one alone
// when its node is missing from the board.
TEST(TransientDiagnosis, SimulateFeaturesMatchesPerProbeRuns) {
  const Netlist net = twoStageRc();
  TransientDiagnosisEngine engine(net, "Vin", standardProbes(), fastOptions());
  Netlist firstStageOnly;
  firstStageOnly.addVSource("Vin", "in", "0", 0.0);
  firstStageOnly.addResistor("R1", "in", "m", 1.0);
  firstStageOnly.addCapacitor("C1", "m", "0", 1.0);
  Netlist noSource;
  noSource.addResistor("R1", "m", "0", 1.0);
  noSource.addResistor("R2", "out", "0", 1.0);

  std::vector<Netlist> boards = {net, firstStageOnly, noSource};
  for (const Fault& f : {Fault::open("C1"), Fault::open("R2"),
                         Fault::paramScale("C2", 3.0),
                         Fault::paramScale("R1", 0.3)}) {
    boards.push_back(circuit::applyFaults(net, {f}));
  }
  for (std::size_t b = 0; b < boards.size(); ++b) {
    const auto features = engine.simulateFeatures(boards[b]);
    ASSERT_EQ(features.size(), standardProbes().size());
    for (std::size_t p = 0; p < features.size(); ++p) {
      EXPECT_TRUE(sameBits(features[p], engine.simulateFeature(
                                            boards[b], standardProbes()[p])))
          << "board " << b << " probe " << p;
    }
  }
  const auto partial = engine.simulateFeatures(firstStageOnly);
  EXPECT_TRUE(partial[0] && partial[1]);
  EXPECT_FALSE(partial[2] || partial[3]);
  for (const auto& v : engine.simulateFeatures(noSource)) EXPECT_FALSE(v);
}

// Construction simulates the nominal board and each toleranced component
// bumped both ways, once per board: 1 + 2 * 4 runs for all four probes.
TEST(TransientDiagnosis, ConstructionRunsOneTransientPerBoard) {
  obs::setEnabled(true);
  obs::Counter& runs = obs::counter("diagnosis.transient_runs");
  const auto before = runs.value();
  TransientDiagnosisEngine engine(twoStageRc(), "Vin", standardProbes(),
                                  fastOptions());
  EXPECT_EQ(runs.value() - before, 9u);
  obs::setEnabled(false);
}

TEST(TransientDiagnosis, ClearMeasurementsResets) {
  const Netlist net = twoStageRc();
  TransientDiagnosisEngine engine(net, "Vin", standardProbes(), fastOptions());
  measureBoard(engine, net, {Fault::open("C2")});
  engine.clearMeasurements();
  measureBoard(engine, net, {});
  EXPECT_FALSE(engine.diagnose().faultDetected());
}

// Renders every number of a report as a hex float, so the golden below pins
// the engine's arithmetic bit for bit.
void writeHexReport(std::ostream& os, const AcDiagnosisReport& r) {
  auto fuzzy = [&os](const fuzzy::FuzzyInterval& f) {
    os << '[' << f.m1() << ' ' << f.m2() << ' ' << f.alpha() << ' '
       << f.beta() << ']';
  };
  os << "completed " << r.propagationCompleted << '\n';
  for (const MeasurementSummary& m : r.measurements) {
    os << "  measurement " << m.quantity << " measured ";
    fuzzy(m.measured);
    os << " nominal ";
    fuzzy(m.nominal);
    os << " dc " << m.dc << " signed " << m.signedDc << '\n';
  }
  for (const RankedNogood& n : r.nogoods) {
    os << "  nogood " << n.degree << " {";
    for (const std::string& c : n.components) os << ' ' << c;
    os << " } " << n.note << '\n';
  }
  for (const auto& [name, s] : r.suspicion) {
    os << "  suspicion " << name << ' ' << s << '\n';
  }
  for (const RankedCandidate& c : r.candidates) {
    os << "  candidate {";
    for (const std::string& m : c.components) os << ' ' << m;
    os << " } suspicion " << c.suspicion << " plausibility "
       << c.plausibility;
    if (c.modeMatch) {
      os << " mode " << c.modeMatch->mode << ' ' << c.modeMatch->matchDegree;
      if (c.modeMatch->estimatedValue) {
        os << " estimate " << *c.modeMatch->estimatedValue;
      }
    }
    os << '\n';
  }
}

// rcFilterChain(2) under every R/C fault of the sweep, diagnosed by one
// engine: features, conflicts, nogoods, candidates, modes and estimates in
// hex floats. Refresh an intended change with FLAMES_UPDATE_GOLDEN=1 and
// review the diff.
TEST(TransientDiagnosis, GoldenFaultSweep) {
  const Netlist net = workload::rcFilterChain(2);
  const std::vector<StepProbe> probes = {{"t1", StepFeature::kRiseTime},
                                         {"t1", StepFeature::kFinalValue},
                                         {"t2", StepFeature::kRiseTime},
                                         {"t2", StepFeature::kFinalValue}};
  TransientDiagnosisOptions options;
  options.transient.timeStep = 0.05;
  options.duration = 8.0;
  TransientDiagnosisEngine engine(net, "Vin", probes, options);

  std::ostringstream actual;
  actual << std::hexfloat;
  for (const char* part : {"R1", "C1", "R2", "C2"}) {
    std::vector<std::pair<std::string, Fault>> faults = {
        {"open", Fault::open(part)}};
    for (double scale : {0.3, 0.5, 2.0, 3.0}) {
      faults.emplace_back("x" + std::to_string(scale),
                          Fault::paramScale(part, scale));
    }
    for (const auto& [label, fault] : faults) {
      actual << part << ' ' << label << '\n';
      const Netlist board = circuit::applyFaults(net, {fault});
      engine.clearMeasurements();
      for (const StepProbe& p : probes) {
        const auto v = engine.simulateFeature(board, p);
        actual << "  feature " << TransientDiagnosisEngine::quantityName(p);
        if (v) {
          actual << ' ' << *v << '\n';
          engine.measure(p, *v);
        } else {
          actual << " none\n";
        }
      }
      writeHexReport(actual, engine.diagnose());
    }
  }

  const std::string path =
      std::string(FLAMES_TRANSIENT_GOLDEN_DIR) + "/transient_sweep.txt";
  if (std::getenv("FLAMES_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual.str();
    GTEST_SKIP() << "updated golden " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << path << " missing - run with FLAMES_UPDATE_GOLDEN=1 to create it";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual.str())
      << "transient report drifted from " << path;
}

}  // namespace
}  // namespace flames::diagnosis
