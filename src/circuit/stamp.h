// The one MNA stamping core behind the DC, AC and transient solvers.
//
// Every analysis assembles A x = b over the same unknowns: node voltages of
// nodes 1..N-1 in rows [0, N-2], then one branch current per component whose
// stamp needs one, in component order. What a component stamps comes from
// one device table, System::stamp, read at the Laplace variable s: 0 at DC,
// jw in AC, 1/h in a backward-Euler step (the table is DESIGN.md §3).
// Internal to the circuit library.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "circuit/ac.h"
#include "circuit/mna.h"
#include "circuit/netlist.h"
#include "linalg/lu.h"

namespace flames::circuit::mna {

/// Per-component inputs of the device table beyond the netlist's own
/// parameters. Callers hold one per component, by position.
struct Drive {
  DeviceState state = DeviceState::kOn;  ///< diode / BJT conduction
  double emf = 0.0;      ///< vsource EMF (AC: 1 on the driving source)
  double history = 0.0;  ///< transient: capacitor v_prev, inductor i_prev
  double bias = 0.0;     ///< AC: DC current of a diode, base current of a BJT
};

/// An assembled MNA system A x = b.
template <typename T>
class System {
 public:
  /// Plans the unknowns and stamps every component of `net` at Laplace
  /// variable `s`, with `drives` holding one Drive per component.
  /// `smallSignal` is set in AC, where diodes and BJTs are linearised around
  /// their DC bias.
  System(const Netlist& net, T s, const std::vector<Drive>& drives,
         const AcOptions* smallSignal = nullptr)
      : smallSignal_(smallSignal), branch_(drives.size(), -1) {
    const std::vector<Component>& comps = net.components();
    std::size_t next = net.nodeCount() - 1;
    for (std::size_t i = 0; i < comps.size(); ++i) {
      if (needsBranch(comps[i], drives[i])) {
        branch_[i] = static_cast<long>(next++);
      }
    }
    a_ = linalg::BasicMatrix<T>::square(next);
    b_.assign(next, T{});
    for (std::size_t i = 0; i < comps.size(); ++i) {
      stamp(comps[i], s, drives[i], branch_[i]);
    }
  }

  /// Branch-current index of each component, -1 for none.
  [[nodiscard]] const std::vector<long>& branches() const { return branch_; }

  /// Factors A, consuming it.
  [[nodiscard]] linalg::BasicLuDecomposition<T> factor() {
    return linalg::BasicLuDecomposition<T>(std::move(a_));
  }

  /// Solves A x = b with a factor of A; nullopt if A is singular.
  [[nodiscard]] std::optional<std::vector<T>> solve(
      const linalg::BasicLuDecomposition<T>& lu) const {
    if (lu.singular()) return std::nullopt;
    return lu.solve(b_);
  }

  /// Solves A x = b, consuming A.
  [[nodiscard]] std::optional<std::vector<T>> solve() { return solve(factor()); }

 private:
  // The device table: what each component kind stamps. DC and AC results
  // are bit-for-bit those of the per-analysis stamps this core replaced, so
  // the order of the primitive calls below, and inside them, is fixed.
  void stamp(const Component& c, T s, const Drive& d, long j) {
    const NodeId p = c.pins[0], q = c.pins[1];
    switch (c.kind) {
      case ComponentKind::kResistor:
        admittance(p, q, T{1.0 / c.value});
        break;
      case ComponentKind::kVSource:
        branch(j, p, q, T{d.emf}, T{});
        break;
      case ComponentKind::kCapacitor:  // open at DC
        if (s != T{}) admittance(p, q, s * c.value, s * c.value * d.history);
        break;
      case ComponentKind::kInductor:
        // Without history e stays +0: a -0 EMF could flip the sign of a
        // zero node voltage.
        branch(j, p, q, d.history == 0.0 ? T{} : -(s * c.value) * d.history,
               s * c.value);
        break;
      case ComponentKind::kGain:  // pins {in, out}: V(out) = A V(in)
        branch(j, q, kGround, T{}, T{});
        add(j, row(p), T{-c.value});
        break;
      case ComponentKind::kDiode:
        if (d.state != DeviceState::kOn) break;
        if (smallSignal_ == nullptr) {
          branch(j, p, q, T{c.value}, T{});
        } else if (d.bias > 0.0) {
          admittance(p, q,
                     T{1.0 / (smallSignal_->diodeIdeality *
                              smallSignal_->thermalVoltage / d.bias)});
        }
        break;
      case ComponentKind::kNpn: {  // pins {collector, base, emitter}
        if (d.state != DeviceState::kOn) break;
        const NodeId base = q, emitter = c.pins[2];
        if (smallSignal_ == nullptr) {  // Vbe branch carrying Ib
          branch(j, base, emitter, T{c.vbe}, T{});
          branchCurrent(p, emitter, j, T{c.value});  // Ic = beta Ib
          break;
        }
        const double ic = c.value * d.bias;
        if (ic <= 0.0) break;
        const double gm = ic / smallSignal_->thermalVoltage;
        admittance(base, emitter, T{1.0 / (c.value / gm)});  // r_pi
        vccs(p, emitter, base, emitter, T{gm});
        break;
      }
    }
  }

  [[nodiscard]] bool needsBranch(const Component& c, const Drive& d) const {
    switch (c.kind) {
      case ComponentKind::kVSource:
      case ComponentKind::kInductor:
      case ComponentKind::kGain:
        return true;
      case ComponentKind::kDiode:
      case ComponentKind::kNpn:
        return smallSignal_ == nullptr && d.state == DeviceState::kOn;
      default:
        return false;
    }
  }

  static long row(NodeId n) {
    return n == kGround ? -1 : static_cast<long>(n - 1);
  }

  void add(long r, long c, T v) {
    if (r >= 0 && c >= 0) {
      a_.addAt(static_cast<std::size_t>(r), static_cast<std::size_t>(c), v);
    }
  }

  // The four primitives.

  // Admittance y from p to q, in parallel with a Norton current j into p.
  void admittance(NodeId p, NodeId q, T y, T j = T{}) {
    add(row(p), row(p), y);
    add(row(q), row(q), y);
    add(row(p), row(q), -y);
    add(row(q), row(p), -y);
    if (j != T{}) {
      if (p != kGround) b_[p - 1] += j;
      if (q != kGround) b_[q - 1] -= j;
    }
  }

  // Couples branch current `col` into the KCL rows of p (leaving, +w) and
  // q (entering, -w).
  void branchCurrent(NodeId p, NodeId q, long col, T w) {
    add(row(p), col, w);
    add(row(q), col, -w);
  }

  // Branch row: V(p) - V(q) - z i = e.
  void branchVoltage(long j, NodeId p, NodeId q, T e, T z) {
    add(j, row(p), T{1.0});
    add(j, row(q), T{-1.0});
    if (z != T{}) add(j, j, -z);
    b_[static_cast<std::size_t>(j)] = e;
  }

  // Current g (V(cp) - V(cq)) from p to q.
  void vccs(NodeId p, NodeId q, NodeId cp, NodeId cq, T g) {
    add(row(p), row(cp), g);
    add(row(p), row(cq), -g);
    add(row(q), row(cp), -g);
    add(row(q), row(cq), g);
  }

  // A branch i from p to q with its row V(p) - V(q) - z i = e.
  void branch(long j, NodeId p, NodeId q, T e, T z) {
    branchCurrent(p, q, j, T{1.0});
    branchVoltage(j, p, q, e, z);
  }

  const AcOptions* smallSignal_;
  std::vector<long> branch_;
  linalg::BasicMatrix<T> a_;
  std::vector<T> b_;
};

/// Voltage of node `n` in a solution vector.
template <typename T>
[[nodiscard]] T nodeVoltage(const std::vector<T>& x, NodeId n) {
  return n == kGround ? T{} : x[n - 1];
}

/// One drive per component: vsources at their netlist EMF, diodes and BJTs
/// conducting.
[[nodiscard]] std::vector<Drive> dcDrives(const Netlist& net);

/// Outcome of the large-signal state iteration.
struct LargeSignal {
  std::vector<double> x;     ///< unknowns of the last iteration
  std::vector<long> branch;  ///< branch index per component, -1 for none
  int iterations = 0;
  std::size_t factorizations = 0;  ///< LU factorizations made
  bool converged = false;
};

/// LU factors of one netlist's matrices at one s, keyed by the per-component
/// conduction states. At a fixed s the device table puts nothing else into
/// A: source EMFs and capacitor/inductor history reach only b. So a cached
/// factor is the factor a fresh assembly would compute, bit for bit.
using FactorCache =
    std::map<std::vector<DeviceState>, linalg::LuDecomposition>;

/// Iterates the diode/BJT conduction states in `drives` to consistency over
/// the device table at s = 0 (DC) or 1/h (a transient step), flipping them
/// in place. With `factors`, each state set's matrix is factored once and
/// its factor reused (the cache must hold factors of `net` at this `s`
/// only). Throws std::runtime_error on a singular system.
[[nodiscard]] LargeSignal solveLargeSignal(const Netlist& net, double s,
                                           std::vector<Drive>& drives,
                                           const MnaOptions& options,
                                           FactorCache* factors = nullptr);

}  // namespace flames::circuit::mna
