// Transient (time-domain) simulation.
//
// Completes the "dynamic systems" substrate (paper §2.1 discusses dynamic
// circuits as the hard case for model-based diagnosis): the circuit is
// integrated with backward Euler, replacing each reactive element by its
// companion model at every step —
//
//   capacitor:  i = C/h * v(t) - C/h * v(t-h)   (conductance + current src)
//   inductor:   v = L/h * i(t) - L/h * i(t-h)   (branch with history EMF)
//
// and re-solving the nonlinear DC system (diode/BJT state iteration) at
// each time point. Sources can be stepped to produce step responses, whose
// time constants are the dynamic signatures a diagnoser can measure.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "circuit/mna.h"
#include "circuit/netlist.h"

namespace flames::circuit {

/// A source-value override as a function of time (seconds in the unit
/// system implied by the netlist: with kOhm/uF units, time is in ms).
using SourceWaveform = std::function<double(double time)>;

struct TransientOptions {
  double timeStep = 1e-2;
  int maxStateIterationsPerStep = 50;
};

/// Result of a transient run: node voltages per time point.
struct TransientResult {
  std::vector<double> time;
  /// waveforms[nodeId][k] = voltage of node at time[k].
  std::vector<std::vector<double>> waveforms;
  /// LU factorizations made, the initial DC point's included.
  std::size_t factorizations = 0;

  [[nodiscard]] const std::vector<double>& waveform(NodeId n) const {
    return waveforms.at(n);
  }
  [[nodiscard]] std::size_t steps() const { return time.size(); }
};

/// Backward-Euler transient solver. The initial condition is the DC
/// operating point of the netlist with all waveforms evaluated at t = 0.
/// Within a run, every step matrix is factored once per set of diode/BJT
/// states and the factor reused: a linear circuit factors twice per run
/// (the DC point and the step matrix).
class TransientSolver {
 public:
  explicit TransientSolver(Netlist net, TransientOptions options = {});

  /// Overrides a voltage source's value with a waveform.
  void setWaveform(const std::string& sourceName, SourceWaveform waveform);

  /// Integrates from 0 to `duration`. Throws std::runtime_error if any
  /// step's system is singular or fails to settle.
  [[nodiscard]] TransientResult run(double duration);

  /// Convenience: unit step on `sourceName` at t = 0 (from 0 to `level`),
  /// returning the waveform at `node`.
  [[nodiscard]] std::vector<double> stepResponse(const std::string& sourceName,
                                                 double level,
                                                 const std::string& node,
                                                 double duration);

  [[nodiscard]] const Netlist& netlist() const { return net_; }

 private:
  Netlist net_;
  TransientOptions options_;
  std::vector<SourceWaveform> waveforms_;  ///< per component, empty if none
};

/// Estimates the 10%-90% rise time of a step response; returns a negative
/// value if the waveform never crosses the thresholds.
[[nodiscard]] double riseTime(const std::vector<double>& time,
                              const std::vector<double>& waveform);

}  // namespace flames::circuit
