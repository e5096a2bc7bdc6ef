// Time-domain (step-response) diagnosis — the second half of "dynamic
// mode": where the AC engine reads transfer magnitudes, this one reads
// step-response *features* (10-90% rise time and settled level) at probe
// nodes. Reactive faults that barely move the DC operating point (a drifted
// capacitor) move the rise time directly.
//
// Same FLAMES pipeline: fuzzy nominal predictions per feature via tolerance
// sensitivity, Dc conflicts against measurements, λ-cut candidates, and
// fault-mode refinement by transient simulation matching.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "circuit/fault.h"
#include "circuit/netlist.h"
#include "circuit/transient.h"
#include "constraints/propagator.h"
#include "diagnosis/ac_diagnosis.h"
#include "diagnosis/flames.h"

namespace flames::diagnosis {

/// Which scalar feature of the step response a probe reads.
enum class StepFeature { kRiseTime, kFinalValue };

[[nodiscard]] std::string_view stepFeatureName(StepFeature f);

/// One time-domain probe.
struct StepProbe {
  std::string node;
  StepFeature feature = StepFeature::kRiseTime;
};

struct TransientDiagnosisOptions {
  circuit::TransientOptions transient;
  /// Step source level and duration of the acquisition window.
  double stepLevel = 1.0;
  double duration = 10.0;
  /// Relative spread attached to crisp measured features.
  double measurementRelSpread = 0.03;
  double sensitivityThreshold = 1e-9;
  double spreadScale = 1.0;
  /// Floor on nominal prediction spreads, relative to the nominal value —
  /// absorbs integration/truncation noise of the feature extraction.
  double minRelSpread = 0.01;
  double minNogoodDegree = 0.05;
  std::size_t maxFaultCardinality = 3;
  double simulationRelSpread = 0.05;
  bool refineWithFaultModes = true;
};

/// The time-domain engine (mirrors AcDiagnosisEngine).
class TransientDiagnosisEngine {
 public:
  /// Throws std::invalid_argument if `stepSource` names no vsource of `net`
  /// or a probe names no node of it, and std::runtime_error if the nominal
  /// circuit cannot be simulated or a probe feature is undefined on the
  /// nominal response.
  TransientDiagnosisEngine(circuit::Netlist net, std::string stepSource,
                           std::vector<StepProbe> probes,
                           TransientDiagnosisOptions options = {});

  void measure(const StepProbe& probe, double value);
  void clearMeasurements();

  [[nodiscard]] AcDiagnosisReport diagnose();

  /// Quantity naming: "rise(V(<node>))" / "final(V(<node>))".
  [[nodiscard]] static std::string quantityName(const StepProbe& probe);

  /// Measures every configured probe on a (possibly faulted) copy of the
  /// netlist from one transient run — the bench side. A probe's entry is
  /// nullopt if its response never crosses the rise-time thresholds or its
  /// node is not on `board`; every entry is nullopt if the simulation fails.
  [[nodiscard]] std::vector<std::optional<double>> simulateFeatures(
      const circuit::Netlist& board) const;

  /// One probe's feature on `board`, as simulateFeatures reads it.
  [[nodiscard]] std::optional<double> simulateFeature(
      const circuit::Netlist& board, const StepProbe& probe) const;

 private:
  /// One transient run of `board`, read at `probes`.
  [[nodiscard]] std::vector<std::optional<double>> simulate(
      const circuit::Netlist& board, std::span<const StepProbe> probes) const;
  void buildModel();

  circuit::Netlist net_;
  std::string stepSource_;
  std::vector<StepProbe> probes_;
  TransientDiagnosisOptions options_;
  constraints::Model model_;
  std::map<std::string, atms::AssumptionId> assumptionOf_;
  struct Obs {
    std::size_t probe;  ///< index into probes_
    fuzzy::FuzzyInterval value;
  };
  std::vector<Obs> observations_;
};

}  // namespace flames::diagnosis
