#include "circuit/transient.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "circuit/stamp.h"

namespace flames::circuit {

TransientSolver::TransientSolver(Netlist net, TransientOptions options)
    : net_(std::move(net)),
      options_(options),
      waveforms_(net_.components().size()) {
  if (!(options_.timeStep > 0.0 && std::isfinite(options_.timeStep))) {
    throw std::invalid_argument(
        "TransientSolver: timeStep must be finite and > 0");
  }
}

void TransientSolver::setWaveform(const std::string& sourceName,
                                  SourceWaveform waveform) {
  const Component& c = net_.component(sourceName);
  if (c.kind != ComponentKind::kVSource) {
    throw std::invalid_argument("setWaveform: '" + sourceName +
                                "' is not a vsource");
  }
  waveforms_[static_cast<std::size_t>(&c - net_.components().data())] =
      std::move(waveform);
}

TransientResult TransientSolver::run(double duration) {
  const double h = options_.timeStep;
  const double stepCount = std::ceil(duration / h);
  if (!(duration >= 0.0 &&
        stepCount < static_cast<double>(
                        std::numeric_limits<std::size_t>::max()))) {
    throw std::invalid_argument(
        "TransientSolver::run: duration must be finite and >= 0");
  }
  const std::vector<Component>& comps = net_.components();
  MnaOptions mnaOpts;
  mnaOpts.maxStateIterations = options_.maxStateIterationsPerStep;

  // Initial condition: the DC point with waveforms evaluated at t = 0
  // (capacitors open, inductors short).
  std::vector<mna::Drive> drives = mna::dcDrives(net_);
  auto setSources = [&](double t) {
    for (std::size_t i = 0; i < comps.size(); ++i) {
      if (waveforms_[i]) drives[i].emf = waveforms_[i](t);
    }
  };
  setSources(0.0);
  mna::LargeSignal sol = mna::solveLargeSignal(net_, 0.0, drives, mnaOpts);
  if (!sol.converged) {
    throw std::runtime_error("TransientSolver: initial DC point diverged");
  }

  TransientResult result;
  result.waveforms.assign(net_.nodeCount(), {});
  result.factorizations = sol.factorizations;
  // Records the time point and moves each reactive element's history on:
  // capacitor voltage pin0 - pin1, inductor current pin0 -> pin1.
  auto record = [&](double t) {
    result.time.push_back(t);
    for (NodeId n = 0; n < net_.nodeCount(); ++n) {
      result.waveforms[n].push_back(mna::nodeVoltage(sol.x, n));
    }
    for (std::size_t i = 0; i < comps.size(); ++i) {
      if (comps[i].kind == ComponentKind::kCapacitor) {
        drives[i].history = mna::nodeVoltage(sol.x, comps[i].pins[0]) -
                            mna::nodeVoltage(sol.x, comps[i].pins[1]);
      } else if (comps[i].kind == ComponentKind::kInductor) {
        drives[i].history = sol.x[static_cast<std::size_t>(sol.branch[i])];
      }
    }
  };
  record(0.0);

  // Each step is the DC state iteration on the backward-Euler companions,
  // starting from every diode and BJT conducting. All steps share s = 1/h,
  // so they share one factor per state set.
  mna::FactorCache factors;
  const auto steps = static_cast<std::size_t>(stepCount);
  for (std::size_t k = 1; k <= steps; ++k) {
    const double t = static_cast<double>(k) * h;
    setSources(t);
    for (mna::Drive& d : drives) d.state = DeviceState::kOn;
    sol = mna::solveLargeSignal(net_, 1.0 / h, drives, mnaOpts, &factors);
    if (!sol.converged) {
      throw std::runtime_error("TransientSolver: step " + std::to_string(k) +
                               " did not converge");
    }
    result.factorizations += sol.factorizations;
    record(t);
  }
  return result;
}

std::vector<double> TransientSolver::stepResponse(
    const std::string& sourceName, double level, const std::string& node,
    double duration) {
  setWaveform(sourceName,
              [level](double t) { return t > 0.0 ? level : 0.0; });
  const TransientResult r = run(duration);
  return r.waveform(net_.findNode(node));
}

double riseTime(const std::vector<double>& time,
                const std::vector<double>& waveform) {
  if (time.size() != waveform.size() || waveform.empty()) return -1.0;
  const double v0 = waveform.front();
  const double v1 = waveform.back();
  const double lo = v0 + 0.1 * (v1 - v0);
  const double hi = v0 + 0.9 * (v1 - v0);
  double tLo = -1.0, tHi = -1.0;
  const bool rising = v1 >= v0;
  for (std::size_t i = 0; i < waveform.size(); ++i) {
    const double v = waveform[i];
    const bool pastLo = rising ? v >= lo : v <= lo;
    const bool pastHi = rising ? v >= hi : v <= hi;
    if (tLo < 0.0 && pastLo) tLo = time[i];
    if (tHi < 0.0 && pastHi) {
      tHi = time[i];
      break;
    }
  }
  if (tLo < 0.0 || tHi < 0.0) return -1.0;
  return tHi - tLo;
}

}  // namespace flames::circuit
