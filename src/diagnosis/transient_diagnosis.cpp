#include "diagnosis/transient_diagnosis.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "atms/candidates.h"
#include "obs/obs.h"

namespace flames::diagnosis {

using atms::Environment;
using circuit::Component;
using circuit::ComponentKind;
using circuit::Netlist;
using circuit::TransientSolver;
using constraints::Propagator;
using constraints::PropagatorOptions;
using constraints::QuantityId;
using fuzzy::FuzzyInterval;

std::string_view stepFeatureName(StepFeature f) {
  return f == StepFeature::kRiseTime ? "rise" : "final";
}

std::string TransientDiagnosisEngine::quantityName(const StepProbe& probe) {
  return std::string(stepFeatureName(probe.feature)) + "(V(" + probe.node +
         "))";
}

TransientDiagnosisEngine::TransientDiagnosisEngine(
    Netlist net, std::string stepSource, std::vector<StepProbe> probes,
    TransientDiagnosisOptions options)
    : net_(std::move(net)),
      stepSource_(std::move(stepSource)),
      probes_(std::move(probes)),
      options_(options) {
  if (!net_.hasComponent(stepSource_) ||
      net_.component(stepSource_).kind != ComponentKind::kVSource) {
    throw std::invalid_argument("TransientDiagnosisEngine: step source '" +
                                stepSource_ + "' is not a vsource");
  }
  for (const StepProbe& p : probes_) {
    try {
      (void)net_.findNode(p.node);
    } catch (const std::out_of_range&) {
      throw std::invalid_argument(
          "TransientDiagnosisEngine: unknown probe node '" + p.node + "'");
    }
  }
  buildModel();
}

std::vector<std::optional<double>> TransientDiagnosisEngine::simulateFeatures(
    const Netlist& board) const {
  return simulate(board, probes_);
}

std::optional<double> TransientDiagnosisEngine::simulateFeature(
    const Netlist& board, const StepProbe& probe) const {
  return simulate(board, {&probe, 1}).front();
}

std::vector<std::optional<double>> TransientDiagnosisEngine::simulate(
    const Netlist& board, std::span<const StepProbe> probes) const {
  static obs::Counter& cRuns = obs::counter("diagnosis.transient_runs");
  cRuns.add();
  std::vector<std::optional<double>> features(probes.size());
  circuit::TransientResult result;
  try {
    TransientSolver solver(board, options_.transient);
    const double level = options_.stepLevel;
    solver.setWaveform(stepSource_,
                       [level](double t) { return t > 0.0 ? level : 0.0; });
    result = solver.run(options_.duration);
  } catch (const std::exception&) {
    return features;
  }
  for (std::size_t p = 0; p < probes.size(); ++p) {
    try {
      const auto& wave = result.waveform(board.findNode(probes[p].node));
      if (probes[p].feature == StepFeature::kFinalValue) {
        features[p] = wave.back();
      } else if (const double tr = circuit::riseTime(result.time, wave);
                 tr >= 0.0) {
        features[p] = tr;
      }
    } catch (const std::out_of_range&) {
      // The probe's node is not on this board.
    }
  }
  return features;
}

void TransientDiagnosisEngine::buildModel() {
  for (const Component& c : net_.components()) {
    if (c.kind == ComponentKind::kVSource) continue;
    assumptionOf_[c.name] = model_.addAssumption(c.name);
  }

  const auto nominalFeatures = simulateFeatures(net_);
  std::vector<double> nominal(probes_.size(), 0.0);
  for (std::size_t p = 0; p < probes_.size(); ++p) {
    if (!nominalFeatures[p]) {
      throw std::runtime_error(
          "TransientDiagnosisEngine: nominal feature undefined for " +
          quantityName(probes_[p]));
    }
    nominal[p] = *nominalFeatures[p];
    model_.addQuantity(quantityName(probes_[p]));
  }

  std::vector<double> spread(probes_.size(), 0.0);
  std::vector<Environment> envs(probes_.size());
  for (const Component& c : net_.components()) {
    if (c.kind == ComponentKind::kVSource || c.relTol <= 0.0) continue;
    const Environment env = Environment::of({assumptionOf_.at(c.name)});
    for (double factor : {1.0 + c.relTol, 1.0 - c.relTol}) {
      Netlist bumped = net_;
      bumped.component(c.name).value *= factor;
      const auto features = simulateFeatures(bumped);
      for (std::size_t p = 0; p < probes_.size(); ++p) {
        const auto& v = features[p];
        const double delta =
            v ? std::abs(*v - nominal[p])
              : std::abs(nominal[p]) * c.relTol;  // broken bias: blame fully
        if (delta > options_.sensitivityThreshold) {
          spread[p] += delta * 0.5;
          envs[p] = envs[p].unionWith(env);
        }
      }
    }
  }

  for (std::size_t p = 0; p < probes_.size(); ++p) {
    const QuantityId q = model_.quantity(quantityName(probes_[p]));
    const double s =
        std::max({spread[p] * options_.spreadScale,
                  std::abs(nominal[p]) * options_.minRelSpread, 1e-12});
    model_.addPrediction(q, FuzzyInterval::about(nominal[p], s), envs[p]);
  }
}

void TransientDiagnosisEngine::measure(const StepProbe& probe, double value) {
  const std::string name = quantityName(probe);
  (void)model_.quantity(name);  // validate: some configured probe has it
  std::size_t p = 0;
  while (quantityName(probes_[p]) != name) ++p;
  const double s =
      std::max(std::abs(value) * options_.measurementRelSpread, 1e-12);
  observations_.push_back({p, FuzzyInterval::about(value, s)});
}

void TransientDiagnosisEngine::clearMeasurements() { observations_.clear(); }

AcDiagnosisReport TransientDiagnosisEngine::diagnose() {
  AcDiagnosisReport report;

  PropagatorOptions popts;
  popts.minNogoodDegree = options_.minNogoodDegree;
  Propagator prop(model_, popts);
  for (const Obs& obs : observations_) {
    prop.addMeasurement(model_.quantity(quantityName(probes_[obs.probe])),
                        obs.value);
  }
  prop.run();
  report.propagationCompleted = prop.completed();

  for (const Obs& obs : observations_) {
    const QuantityId q = model_.quantity(quantityName(probes_[obs.probe]));
    MeasurementSummary ms;
    ms.quantity = model_.quantityInfo(q).name;
    ms.measured = obs.value;
    if (const auto worst = prop.worstCoincidence(q)) {
      ms.nominal = worst->nominalSide;
      ms.dc = worst->consistency.dc;
      ms.signedDc = worst->consistency.signedDc();
    }
    report.measurements.push_back(std::move(ms));
  }

  const auto& db = prop.nogoods();
  for (const atms::Nogood& n : db.minimalNogoods(options_.minNogoodDegree)) {
    RankedNogood rn;
    rn.degree = n.degree;
    rn.note = n.note;
    for (atms::AssumptionId id : n.env.ids()) {
      rn.components.push_back(model_.assumptionName(id));
    }
    report.nogoods.push_back(std::move(rn));
  }
  for (const auto& [id, s] : atms::componentSuspicion(db)) {
    report.suspicion[model_.assumptionName(id)] = s;
  }

  const auto candidates = atms::candidatesAt(db, options_.minNogoodDegree,
                                             options_.maxFaultCardinality);
  for (const atms::Candidate& c : candidates) {
    RankedCandidate rc;
    rc.suspicion = c.suspicion;
    for (atms::AssumptionId id : c.members) {
      rc.components.push_back(model_.assumptionName(id));
    }
    if (options_.refineWithFaultModes && rc.components.size() == 1) {
      const std::string& comp = rc.components.front();
      auto matchDegreeOf = [&](const circuit::Fault& fault) {
        const auto sims = simulateFeatures(circuit::applyFaults(net_, {fault}));
        double degree = 1.0;
        for (const Obs& obs : observations_) {
          const auto& sim = sims[obs.probe];
          if (!sim) return 0.0;
          const double s =
              std::max(std::abs(*sim) * options_.simulationRelSpread, 1e-9);
          degree = std::min(degree,
                            fuzzy::degreeOfConsistency(
                                obs.value, FuzzyInterval::about(*sim, s))
                                .dc);
          if (degree == 0.0) break;
        }
        return degree;
      };

      FaultModeMatch best;
      best.component = comp;
      best.mode = "none";
      for (const FaultMode& mode : standardModesFor(net_.component(comp))) {
        const double degree = matchDegreeOf(mode.fault);
        if (degree > best.matchDegree) {
          best.matchDegree = degree;
          best.mode = mode.name;
        }
      }
      // Continuous drift estimation. The Dc objective is flat-zero away
      // from the optimum, so the search minimises the summed squared
      // relative feature error (smooth), refines with golden section, and
      // only then scores the located value by Dc — discounted by how
      // abnormal it is relative to the tolerance (a nominal-valued
      // "estimate" is no fault explanation).
      const Component& comprec = net_.component(comp);
      if (comprec.kind != ComponentKind::kVSource) {
        auto error = [&](double logF) {
          const auto sims = simulateFeatures(circuit::applyFaults(
              net_, {circuit::Fault::paramScale(comp, std::exp(logF))}));
          double sum = 0.0;
          for (const Obs& obs : observations_) {
            const auto& sim = sims[obs.probe];
            if (!sim) return 1e18;
            const double m = obs.value.centroid();
            const double denom = std::max(std::abs(m), 1e-9);
            const double d = (*sim - m) / denom;
            sum += d * d;
          }
          return sum;
        };
        const double lo = std::log(0.05), hi = std::log(20.0);
        double bestLog = 0.0, bestErr = error(0.0);
        for (int i = 0; i <= 18; ++i) {
          const double x = lo + (hi - lo) * i / 18.0;
          const double e = error(x);
          if (e < bestErr) {
            bestErr = e;
            bestLog = x;
          }
        }
        double a = bestLog - (hi - lo) / 18.0, b = bestLog + (hi - lo) / 18.0;
        const double invPhi = 0.6180339887498949;
        double c1 = b - invPhi * (b - a), d1 = a + invPhi * (b - a);
        double fc = error(c1), fd = error(d1);
        for (int i = 0; i < 24; ++i) {
          if (fc <= fd) {
            b = d1;
            d1 = c1;
            fd = fc;
            c1 = b - invPhi * (b - a);
            fc = error(c1);
          } else {
            a = c1;
            c1 = d1;
            fc = fd;
            d1 = a + invPhi * (b - a);
            fd = error(d1);
          }
        }
        const double finalLog = fc <= fd ? c1 : d1;
        const double f = std::exp(std::min(fc, fd) <= bestErr ? finalLog
                                                              : bestLog);
        const double raw = matchDegreeOf(circuit::Fault::paramScale(comp, f));
        const double abnormality =
            1.0 - comprec.fuzzyValue().membership(comprec.value * f);
        const double degree = raw * abnormality;
        if (degree > best.matchDegree) {
          best.matchDegree = degree;
          best.mode = "estimated";
          best.estimatedValue = comprec.value * f;
        }
      }
      rc.modeMatch = best;
      rc.plausibility = best.matchDegree;
    } else {
      rc.plausibility = 0.5 * rc.suspicion;
    }
    report.candidates.push_back(std::move(rc));
  }
  std::sort(report.candidates.begin(), report.candidates.end(),
            [](const RankedCandidate& a, const RankedCandidate& b) {
              if (a.plausibility != b.plausibility) {
                return a.plausibility > b.plausibility;
              }
              if (a.components.size() != b.components.size()) {
                return a.components.size() < b.components.size();
              }
              return a.components < b.components;
            });
  return report;
}

}  // namespace flames::diagnosis
