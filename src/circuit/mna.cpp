#include "circuit/mna.h"

#include <stdexcept>

#include "circuit/stamp.h"

namespace flames::circuit {

namespace mna {

std::vector<Drive> dcDrives(const Netlist& net) {
  std::vector<Drive> drives(net.components().size());
  for (std::size_t i = 0; i < drives.size(); ++i) {
    drives[i].emf = net.components()[i].value;
  }
  return drives;
}

LargeSignal solveLargeSignal(const Netlist& net, double s,
                             std::vector<Drive>& drives,
                             const MnaOptions& options, FactorCache* factors) {
  const std::vector<Component>& comps = net.components();
  LargeSignal out;
  std::vector<DeviceState> key;
  for (int iter = 1; iter <= options.maxStateIterations; ++iter) {
    System<double> system(net, s, drives);
    std::optional<std::vector<double>> x;
    if (factors == nullptr) {
      ++out.factorizations;
      x = system.solve();
    } else {
      key.resize(drives.size());
      for (std::size_t i = 0; i < drives.size(); ++i) key[i] = drives[i].state;
      auto it = factors->find(key);
      if (it == factors->end()) {
        ++out.factorizations;
        it = factors->emplace(key, system.factor()).first;
      }
      x = system.solve(it->second);
    }
    if (!x) throw std::runtime_error("DcSolver: singular MNA system");
    out.x = std::move(*x);
    out.branch = system.branches();
    out.iterations = iter;

    // Flip every device whose state contradicts the solution: a conducting
    // one carrying reverse current, or a blocking one forward-biased past
    // its drop (diode: anode-cathode vs Vf; BJT: base-emitter vs Vbe).
    bool consistent = true;
    for (std::size_t i = 0; i < comps.size(); ++i) {
      const Component& c = comps[i];
      if (c.kind != ComponentKind::kDiode && c.kind != ComponentKind::kNpn) {
        continue;
      }
      DeviceState& state = drives[i].state;
      if (state == DeviceState::kOn) {
        const auto j = static_cast<std::size_t>(out.branch[i]);
        if (out.x[j] < -options.currentTolerance) {
          state = DeviceState::kOff;
          consistent = false;
        }
      } else {
        const bool npn = c.kind == ComponentKind::kNpn;
        const double v = nodeVoltage(out.x, c.pins[npn ? 1 : 0]) -
                         nodeVoltage(out.x, c.pins[npn ? 2 : 1]);
        if (v > (npn ? c.vbe : c.value) + 1e-9) {
          state = DeviceState::kOn;
          consistent = false;
        }
      }
    }
    if (consistent) {
      out.converged = true;
      return out;
    }
  }
  return out;
}

}  // namespace mna

DcSolver::DcSolver(const Netlist& net, MnaOptions options)
    : net_(net), options_(options) {}

OperatingPoint DcSolver::solve() const {
  std::vector<mna::Drive> drives = mna::dcDrives(net_);
  const mna::LargeSignal sol =
      mna::solveLargeSignal(net_, 0.0, drives, options_);
  const std::vector<Component>& comps = net_.components();

  OperatingPoint op;
  op.converged = sol.converged;
  op.iterations = sol.iterations;
  if (!sol.x.empty()) {
    op.nodeVoltages.assign(net_.nodeCount(), 0.0);
    for (NodeId n = 1; n < net_.nodeCount(); ++n) {
      op.nodeVoltages[n] = mna::nodeVoltage(sol.x, n);
    }
    for (std::size_t i = 0; i < comps.size(); ++i) {
      if (sol.branch[i] >= 0) {
        op.branchCurrents[comps[i].name] =
            sol.x[static_cast<std::size_t>(sol.branch[i])];
      }
    }
  }
  for (std::size_t i = 0; i < comps.size(); ++i) {
    const Component& c = comps[i];
    if (c.kind != ComponentKind::kDiode && c.kind != ComponentKind::kNpn) {
      continue;
    }
    op.states[c.name] = drives[i].state;
    // Saturation check on active BJTs.
    if (op.converged && c.kind == ComponentKind::kNpn &&
        drives[i].state == DeviceState::kOn &&
        op.v(c.pins[0]) - op.v(c.pins[2]) < options_.vceSaturationMargin) {
      op.saturationWarning = true;
    }
  }
  return op;
}

double DcSolver::voltage(const OperatingPoint& op,
                         const std::string& nodeName) const {
  return op.v(net_.findNode(nodeName));
}

double DcSolver::current(const OperatingPoint& op,
                         const std::string& componentName) const {
  const Component& c = net_.component(componentName);
  switch (c.kind) {
    case ComponentKind::kResistor:
      return (op.v(c.pins[0]) - op.v(c.pins[1])) / c.value;
    case ComponentKind::kCapacitor:
      return 0.0;  // open at DC
    case ComponentKind::kVSource:
    case ComponentKind::kGain:
    case ComponentKind::kInductor:
      return op.branchCurrents.at(componentName);
    case ComponentKind::kDiode:
    case ComponentKind::kNpn: {
      const auto it = op.branchCurrents.find(componentName);
      return it == op.branchCurrents.end() ? 0.0 : it->second;
    }
  }
  throw std::logic_error("DcSolver::current: unhandled kind");
}

}  // namespace flames::circuit
