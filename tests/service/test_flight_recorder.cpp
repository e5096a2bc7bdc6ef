// Tests for the service flight recorder (service/flight_recorder.h): the
// bounded ring itself, job-id correlation, provenance sampling, and the
// auto-dump hook on anomalous job outcomes.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "circuit/catalog.h"
#include "service/flight_recorder.h"
#include "service/service.h"
#include "workload/generators.h"
#include "workload/scenarios.h"

namespace flames::service {
namespace {

FlightRecord record(std::uint64_t jobId, const std::string& event) {
  FlightRecord r;
  r.jobId = jobId;
  r.event = event;
  return r;
}

TEST(FlightRecorder, RingKeepsTheNewestRecords) {
  FlightRecorder rec(3);
  for (std::uint64_t id = 1; id <= 5; ++id) rec.record(record(id, "done"));
  EXPECT_EQ(rec.recorded(), 5u);
  const std::vector<FlightRecord> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // Oldest-first: 3, 4, 5 survive.
  EXPECT_EQ(snap[0].jobId, 3u);
  EXPECT_EQ(snap[1].jobId, 4u);
  EXPECT_EQ(snap[2].jobId, 5u);
}

TEST(FlightRecorder, PartialFillSnapshotsInOrder) {
  FlightRecorder rec(8);
  rec.record(record(1, "done"));
  rec.record(record(2, "failed"));
  const std::vector<FlightRecord> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].jobId, 1u);
  EXPECT_EQ(snap[1].jobId, 2u);
}

TEST(FlightRecorder, ZeroCapacityDisables) {
  FlightRecorder rec(0);
  rec.record(record(1, "done"));
  EXPECT_TRUE(rec.snapshot().empty());
  EXPECT_EQ(rec.recorded(), 0u);
}

TEST(FlightRecorder, RenderNamesJobsAndEvents) {
  FlightRecord r = record(7, "failed");
  r.error = "boom";
  r.provenanceSampled = true;
  r.provEntries = 12;
  r.provNogoods = 3;
  r.worstNogoodDegree = 0.75;
  r.candidates = {"{R1}", "{R2,R3}"};
  const std::string text = renderFlightRecords({r}, 9);
  EXPECT_NE(text.find("1 of 9 job(s) retained"), std::string::npos);
  EXPECT_NE(text.find("job 7 failed"), std::string::npos);
  EXPECT_NE(text.find("boom"), std::string::npos);
  EXPECT_NE(text.find("12 entries"), std::string::npos);
  EXPECT_NE(text.find("{R2,R3}"), std::string::npos);
}

// --- service integration -------------------------------------------------

struct LadderBench {
  std::shared_ptr<const circuit::Netlist> net;
  std::vector<workload::TrafficItem> traffic;
};

LadderBench ladderBench(std::size_t jobs) {
  LadderBench b;
  b.net = std::make_shared<const circuit::Netlist>(
      workload::resistorLadder(2));
  const auto probes = workload::tapsOf(*b.net, "t");
  b.traffic = workload::synthesizeTraffic(*b.net, probes, jobs, 7, 0.0);
  return b;
}

TEST(FlightRecorderService, RecordsEveryJobWithItsId) {
  const LadderBench b = ladderBench(4);
  ASSERT_FALSE(b.traffic.empty());
  ServiceOptions sopts;
  sopts.workers = 1;
  sopts.provenanceSampleEvery = 0;  // no sampling in this test
  DiagnosisService svc(sopts);

  std::vector<std::uint64_t> ids;
  for (const auto& item : b.traffic) {
    DiagnosisRequest req;
    req.netlist = b.net;
    for (const auto& r : item.readings) {
      req.measurements.push_back(crispMeasurement(r.node, r.volts));
    }
    const JobResult& jr = svc.submit(req)->wait();
    EXPECT_EQ(jr.status, JobStatus::kDone);
    EXPECT_NE(jr.jobId, 0u);
    ids.push_back(jr.jobId);
  }

  const auto records = svc.flightRecords();
  ASSERT_EQ(records.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(records[i].jobId, ids[i]);
    EXPECT_EQ(records[i].event, "done");
    EXPECT_FALSE(records[i].provenanceSampled);
  }
  // Ids are distinct and increasing (single worker, serial submission).
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_GT(ids[i], ids[i - 1]);
}

TEST(FlightRecorderService, SamplesProvenancePerPolicy) {
  const LadderBench b = ladderBench(4);
  ASSERT_GE(b.traffic.size(), 2u);
  ServiceOptions sopts;
  sopts.workers = 1;
  sopts.provenanceSampleEvery = 1;  // every job
  DiagnosisService svc(sopts);

  for (const auto& item : b.traffic) {
    DiagnosisRequest req;
    req.netlist = b.net;
    for (const auto& r : item.readings) {
      req.measurements.push_back(crispMeasurement(r.node, r.volts));
    }
    const JobResult& jr = svc.submit(req)->wait();
    ASSERT_EQ(jr.status, JobStatus::kDone);
    // The sampled run carries its provenance back on the report.
    EXPECT_TRUE(jr.report.provenance != nullptr);
  }
  for (const auto& r : svc.flightRecords()) {
    EXPECT_TRUE(r.provenanceSampled);
    EXPECT_GT(r.provEntries, 0u);
  }
}

TEST(FlightRecorderService, DumpsOnAnomalousOutcome) {
  const LadderBench b = ladderBench(1);
  ASSERT_FALSE(b.traffic.empty());
  std::mutex mu;
  std::vector<std::string> dumps;
  ServiceOptions sopts;
  sopts.workers = 1;
  sopts.flightDumpSink = [&](const std::string& dump) {
    const std::lock_guard<std::mutex> lock(mu);
    dumps.push_back(dump);
  };
  DiagnosisService svc(sopts);

  DiagnosisRequest req;
  req.netlist = b.net;
  for (const auto& r : b.traffic.front().readings) {
    req.measurements.push_back(crispMeasurement(r.node, r.volts));
  }
  req.deadline = std::chrono::nanoseconds(1);  // expires immediately (0 = none)
  const JobResult& jr = svc.submit(req)->wait();
  EXPECT_NE(jr.status, JobStatus::kDone);

  const std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(dumps.empty());
  EXPECT_NE(dumps.front().find("flames flight recorder"), std::string::npos);
}

TEST(FlightRecorderService, DumpIsDeliveredBeforeTheJobResolves) {
  // A slow sink makes the ordering deterministic: if the worker resolved the
  // job's future before invoking the sink, wait() would return while the
  // sink is still sleeping and the dump would not be there yet.
  const LadderBench b = ladderBench(1);
  ASSERT_FALSE(b.traffic.empty());
  std::mutex mu;
  std::vector<std::string> dumps;
  ServiceOptions sopts;
  sopts.workers = 1;
  sopts.flightDumpSink = [&](const std::string& dump) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::lock_guard<std::mutex> lock(mu);
    dumps.push_back(dump);
  };
  DiagnosisService svc(sopts);

  DiagnosisRequest req;
  req.netlist = b.net;
  for (const auto& r : b.traffic.front().readings) {
    req.measurements.push_back(crispMeasurement(r.node, r.volts));
  }
  req.deadline = std::chrono::nanoseconds(1);  // expires immediately
  const JobResult& jr = svc.submit(req)->wait();
  ASSERT_EQ(jr.status, JobStatus::kDeadlineExceeded);

  const std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(dumps.size(), 1u);
  EXPECT_NE(dumps.front().find("job 1 deadline_exceeded"), std::string::npos);
}

TEST(FlightRecorderService, OnDemandDumpRendersTheRing) {
  const LadderBench b = ladderBench(1);
  ASSERT_FALSE(b.traffic.empty());
  ServiceOptions sopts;
  sopts.workers = 1;
  DiagnosisService svc(sopts);
  DiagnosisRequest req;
  req.netlist = b.net;
  for (const auto& r : b.traffic.front().readings) {
    req.measurements.push_back(crispMeasurement(r.node, r.volts));
  }
  (void)svc.submit(req)->wait();
  const std::string dump = svc.dumpFlightRecorder();
  EXPECT_NE(dump.find("1 of 1 job(s) retained"), std::string::npos);
  EXPECT_NE(dump.find("job 1 done"), std::string::npos);
}

}  // namespace
}  // namespace flames::service
