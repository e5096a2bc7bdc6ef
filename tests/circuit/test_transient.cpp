#include "circuit/transient.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "circuit/fault.h"
#include "circuit/stamp.h"
#include "workload/generators.h"

namespace flames::circuit {
namespace {

// Units: V / kOhm / mA / uF => time in ms.

Netlist rcCircuit() {
  Netlist n;
  n.addVSource("Vin", "in", "0", 0.0);
  n.addResistor("R1", "in", "out", 1.0);   // 1 kOhm
  n.addCapacitor("C1", "out", "0", 1.0);   // 1 uF => tau = 1 ms
  return n;
}

TEST(Transient, RcStepMatchesAnalyticCharge) {
  TransientOptions opts;
  opts.timeStep = 0.005;  // tau/200
  TransientSolver solver(rcCircuit(), opts);
  const auto v = solver.stepResponse("Vin", 5.0, "out", 5.0);
  const auto result = v;  // waveform at out
  // Compare against 5 (1 - e^{-t/tau}) at a few points.
  const double tau = 1.0;
  const double h = opts.timeStep;
  for (double t : {0.5, 1.0, 2.0, 4.0}) {
    const auto k = static_cast<std::size_t>(t / h);
    const double analytic = 5.0 * (1.0 - std::exp(-t / tau));
    EXPECT_NEAR(result.at(k), analytic, 0.05) << "t=" << t;
  }
  // Settles to the source level.
  EXPECT_NEAR(result.back(), 5.0, 0.05);
}

TEST(Transient, RcInitialConditionFromDc) {
  // Source held at 2 V: the capacitor starts charged and nothing moves.
  Netlist n = rcCircuit();
  n.component("Vin").value = 2.0;
  TransientSolver solver(n);
  const auto r = solver.run(2.0);
  for (double v : r.waveform(n.findNode("out"))) {
    EXPECT_NEAR(v, 2.0, 1e-9);
  }
}

TEST(Transient, RlStepCurrentRises) {
  // V -> R -> L to ground: i = V/R (1 - e^{-tR/L}); the node between R and
  // L starts at V (all drop across L) and decays to 0.
  Netlist n;
  n.addVSource("Vin", "in", "0", 0.0);
  n.addResistor("R1", "in", "mid", 1.0);
  n.addInductor("L1", "mid", "0", 1.0);  // tau = L/R = 1 ms
  TransientOptions opts;
  opts.timeStep = 0.005;
  TransientSolver solver(n, opts);
  const auto v = solver.stepResponse("Vin", 5.0, "mid", 5.0);
  // Just after the step the inductor blocks: v(mid) ~ 5 V.
  EXPECT_GT(v.at(2), 4.0);
  // Long after: inductor is a short: v(mid) ~ 0.
  EXPECT_NEAR(v.back(), 0.0, 0.05);
}

// Backward Euler on a single RC: v_k = (v_{k-1} + a V) / (1 + a) with
// a = h / (RC). The solver must reproduce the recurrence, not merely the
// continuous solution.
TEST(Transient, RcStepIsTheBackwardEulerRecurrence) {
  Netlist n;
  n.addVSource("Vin", "in", "0", 0.0);
  n.addResistor("R1", "in", "out", 2.0);
  n.addCapacitor("C1", "out", "0", 0.7);
  TransientOptions opts;
  opts.timeStep = 0.05;
  TransientSolver solver(n, opts);
  const double level = 3.0;
  const auto v = solver.stepResponse("Vin", level, "out", 6.0);
  ASSERT_EQ(v.size(), 121u);
  const double a = opts.timeStep / (2.0 * 0.7);
  double ref = 0.0;
  EXPECT_EQ(v[0], 0.0);
  for (std::size_t k = 1; k < v.size(); ++k) {
    ref = (ref + a * level) / (1.0 + a);
    EXPECT_NEAR(v[k], ref, 1e-12 * ref) << "step " << k;
  }
}

// Backward Euler on a single RL: i_k = (i_{k-1} + (h/L) V) / (1 + hR/L),
// and the node between R and L reads V - R i_k.
TEST(Transient, RlStepIsTheBackwardEulerRecurrence) {
  Netlist n;
  n.addVSource("Vin", "in", "0", 0.0);
  n.addResistor("R1", "in", "mid", 1.5);
  n.addInductor("L1", "mid", "0", 0.9);
  TransientOptions opts;
  opts.timeStep = 0.02;
  TransientSolver solver(n, opts);
  const double level = 2.0;
  const auto v = solver.stepResponse("Vin", level, "mid", 1.2);  // 2 tau
  ASSERT_EQ(v.size(), 61u);
  const double h = opts.timeStep;
  double i = 0.0;
  EXPECT_EQ(v[0], 0.0);
  for (std::size_t k = 1; k < v.size(); ++k) {
    i = (i + h / 0.9 * level) / (1.0 + h * 1.5 / 0.9);
    const double ref = level - 1.5 * i;
    EXPECT_NEAR(v[k], ref, 1e-12 * ref) << "step " << k;
  }
}

// An NPN stage with an inductive collector load and a bypassed emitter:
// once the step has settled, every node sits at the DC operating point of
// the netlist with the source at its stepped level.
TEST(Transient, NpnStageWithInductorSettlesToDcPoint) {
  Netlist n;
  n.addVSource("Vcc", "vcc", "0", 0.0);
  n.addResistor("Rb1", "vcc", "b", 47.0);
  n.addResistor("Rb2", "b", "0", 10.0);
  n.addResistor("Rc", "vcc", "x", 2.0);
  n.addInductor("L1", "x", "c", 0.5);
  n.addNpn("T1", "c", "b", "e", 120.0);
  n.addResistor("Re", "e", "0", 0.5);
  n.addCapacitor("Ce", "e", "0", 0.2);
  TransientOptions opts;
  opts.timeStep = 0.01;
  TransientSolver solver(n, opts);
  const double level = 12.0;
  solver.setWaveform("Vcc", [level](double t) { return t > 0.0 ? level : 0.0; });
  const TransientResult r = solver.run(8.0);

  Netlist stepped = n;
  stepped.component("Vcc").value = level;
  const OperatingPoint op = DcSolver(stepped).solve();
  ASSERT_TRUE(op.converged);
  ASSERT_EQ(op.states.at("T1"), DeviceState::kOn);
  for (NodeId node = 1; node < n.nodeCount(); ++node) {
    EXPECT_NEAR(r.waveform(node).back(), op.v(node), 1e-9)
        << n.nodeName(node);
  }
}

TEST(Transient, RiseTimeOfOnePoleIs2p2Tau) {
  TransientOptions opts;
  opts.timeStep = 0.002;
  TransientSolver solver(rcCircuit(), opts);
  solver.setWaveform("Vin", [](double t) { return t > 0.0 ? 1.0 : 0.0; });
  const auto r = solver.run(8.0);
  const double tr = riseTime(r.time, r.waveform(solver.netlist().findNode("out")));
  EXPECT_NEAR(tr, 2.2, 0.1);  // 2.197 tau for a single pole
}

TEST(Transient, FaultChangesTimeConstant) {
  // C1 drifted x2: the measured rise time doubles — the dynamic signature a
  // diagnoser can exploit.
  const Netlist nominal = rcCircuit();
  const Netlist faulted =
      applyFaults(nominal, {Fault::paramScale("C1", 2.0)});
  TransientOptions opts;
  opts.timeStep = 0.002;
  TransientSolver a(nominal, opts), b(faulted, opts);
  a.setWaveform("Vin", [](double t) { return t > 0.0 ? 1.0 : 0.0; });
  b.setWaveform("Vin", [](double t) { return t > 0.0 ? 1.0 : 0.0; });
  const auto ra = a.run(12.0);
  const auto rb = b.run(12.0);
  const double trA =
      riseTime(ra.time, ra.waveform(nominal.findNode("out")));
  const double trB = riseTime(rb.time, rb.waveform(faulted.findNode("out")));
  EXPECT_NEAR(trB / trA, 2.0, 0.1);
}

TEST(Transient, NonlinearCircuitDiodeClamp) {
  // Step into a diode clamp: the output follows the input but never exceeds
  // the clamp level Vf.
  Netlist n;
  n.addVSource("Vin", "in", "0", 0.0);
  n.addResistor("R1", "in", "out", 1.0);
  n.addDiode("D1", "out", "0", 0.7);
  n.addCapacitor("C1", "out", "0", 0.5);
  TransientSolver solver(n);
  const auto v = solver.stepResponse("Vin", 5.0, "out", 5.0);
  for (double x : v) EXPECT_LE(x, 0.7 + 1e-6);
  EXPECT_NEAR(v.back(), 0.7, 1e-6);
}

TEST(Transient, Validation) {
  TransientOptions bad;
  bad.timeStep = 0.0;
  EXPECT_THROW(TransientSolver(rcCircuit(), bad), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double step : {nan, inf, -1.0}) {
    bad.timeStep = step;
    EXPECT_THROW(TransientSolver(rcCircuit(), bad), std::invalid_argument);
  }
  TransientSolver solver(rcCircuit());
  for (double duration : {-1.0, nan, inf}) {
    EXPECT_THROW((void)solver.run(duration), std::invalid_argument);
  }
  EXPECT_THROW(solver.setWaveform("R1", [](double) { return 0.0; }),
               std::invalid_argument);
  EXPECT_THROW(solver.setWaveform("nope", [](double) { return 0.0; }),
               std::out_of_range);
}

TEST(Transient, RiseTimeDegenerateInputs) {
  EXPECT_LT(riseTime({0.0, 1.0}, {0.0}), 0.0);          // size mismatch
  EXPECT_LT(riseTime({}, {}), 0.0);                     // empty
}

TEST(Transient, StepCountAndTimeAxis) {
  TransientOptions opts;
  opts.timeStep = 0.1;
  TransientSolver solver(rcCircuit(), opts);
  const auto r = solver.run(1.0);
  EXPECT_EQ(r.steps(), 11u);  // t = 0 plus 10 steps
  EXPECT_DOUBLE_EQ(r.time.front(), 0.0);
  EXPECT_NEAR(r.time.back(), 1.0, 1e-12);
}

// --- Factor reuse ---------------------------------------------------------

// The reference the factor reuse is checked against: TransientSolver::run
// with a fresh LU factor at every state iteration of every step.
TransientResult freshFactorRun(const Netlist& net, const std::string& source,
                               const SourceWaveform& wave, double h,
                               double duration) {
  const std::vector<Component>& comps = net.components();
  const auto src = static_cast<std::size_t>(&net.component(source) -
                                            comps.data());
  MnaOptions opts;
  opts.maxStateIterations = TransientOptions{}.maxStateIterationsPerStep;
  std::vector<mna::Drive> drives = mna::dcDrives(net);
  drives[src].emf = wave(0.0);
  mna::LargeSignal sol = mna::solveLargeSignal(net, 0.0, drives, opts);
  EXPECT_TRUE(sol.converged);

  TransientResult r;
  r.waveforms.assign(net.nodeCount(), {});
  auto record = [&](double t) {
    r.factorizations += sol.factorizations;
    r.time.push_back(t);
    for (NodeId n = 0; n < net.nodeCount(); ++n) {
      r.waveforms[n].push_back(mna::nodeVoltage(sol.x, n));
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
  const auto steps = static_cast<std::size_t>(std::ceil(duration / h));
  for (std::size_t k = 1; k <= steps; ++k) {
    const double t = static_cast<double>(k) * h;
    drives[src].emf = wave(t);
    for (mna::Drive& d : drives) d.state = DeviceState::kOn;
    sol = mna::solveLargeSignal(net, 1.0 / h, drives, opts);
    EXPECT_TRUE(sol.converged) << "step " << k;
    record(t);
  }
  return r;
}

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

// Runs `net` both ways and requires every time point and node voltage to
// match bit for bit; returns {reused, fresh} factorization counts.
std::pair<std::size_t, std::size_t> expectReuseIsExact(
    const Netlist& net, const std::string& source, const SourceWaveform& wave,
    double h, double duration) {
  TransientOptions opts;
  opts.timeStep = h;
  TransientSolver solver(net, opts);
  solver.setWaveform(source, wave);
  const TransientResult reused = solver.run(duration);
  const TransientResult fresh = freshFactorRun(net, source, wave, h, duration);
  EXPECT_TRUE(sameBits(reused.time, fresh.time));
  EXPECT_EQ(reused.waveforms.size(), fresh.waveforms.size());
  for (NodeId n = 0; n < net.nodeCount(); ++n) {
    EXPECT_TRUE(sameBits(reused.waveform(n), fresh.waveform(n)))
        << net.nodeName(n);
  }
  return {reused.factorizations, fresh.factorizations};
}

const SourceWaveform kUnitStep = [](double t) { return t > 0.0 ? 1.0 : 0.0; };

TEST(TransientFactorReuse, RcFilterChainIsBitIdentical) {
  const auto [reused, fresh] = expectReuseIsExact(
      workload::rcFilterChain(2), "Vin", kUnitStep, 0.05, 8.0);
  EXPECT_EQ(reused, 2u);       // the DC point and the one step matrix
  EXPECT_EQ(fresh, 161u);      // the DC point and 160 steps
}

TEST(TransientFactorReuse, RlCircuitIsBitIdentical) {
  Netlist n;
  n.addVSource("Vin", "in", "0", 0.0);
  n.addResistor("R1", "in", "mid", 1.5);
  n.addInductor("L1", "mid", "0", 0.9);
  const auto [reused, fresh] = expectReuseIsExact(
      n, "Vin", [](double t) { return t > 0.0 ? 2.0 : 0.0; }, 0.02, 1.2);
  EXPECT_EQ(reused, 2u);
  EXPECT_EQ(fresh, 61u);
}

// An NPN switch with an inductive collector load and a flyback diode, its
// base driven by a square wave: the transistor and the diode change state
// across steps, and the state iteration visits several state sets within a
// step, so the cache key changes and factors are both made and reused.
TEST(TransientFactorReuse, SwitchedNpnAndFlybackDiodeIsBitIdentical) {
  Netlist n;
  n.addVSource("Vcc", "vcc", "0", 10.0);
  n.addVSource("Vin", "in", "0", 0.0);
  n.addResistor("Rb", "in", "b", 47.0);
  n.addCapacitor("Cb", "b", "0", 0.02);
  n.addNpn("T1", "c", "b", "e", 100.0);
  n.addResistor("Re", "e", "0", 0.1);
  n.addResistor("Rc", "vcc", "x", 1.0);
  n.addInductor("L1", "x", "c", 0.5);
  n.addDiode("D1", "c", "vcc", 0.7);
  const SourceWaveform square = [](double t) {
    return std::fmod(t, 2.0) < 1.0 ? 3.0 : 0.0;
  };
  const auto [reused, fresh] =
      expectReuseIsExact(n, "Vin", square, 0.01, 8.0);
  EXPECT_GT(reused, 2u);      // more than one state set was factored
  EXPECT_LT(reused, 20u);     // and each only once
  EXPECT_GT(fresh, 800u);     // at least one per step without reuse
}

TEST(TransientFactorReuse, LinearRunFactorsTwice) {
  TransientOptions opts;
  opts.timeStep = 0.1;
  for (double duration : {0.0, 1.0, 20.0}) {
    TransientSolver solver(rcCircuit(), opts);
    solver.setWaveform("Vin", kUnitStep);
    const TransientResult r = solver.run(duration);
    EXPECT_EQ(r.factorizations, duration == 0.0 ? 1u : 2u) << duration;
  }
}

}  // namespace
}  // namespace flames::circuit
