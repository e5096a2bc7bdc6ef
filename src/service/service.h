// flames::service — concurrent batch-diagnosis engine.
//
// The ROADMAP workload is a *stream* of diagnosis requests against a shared
// knowledge base (one ATE bench feeding many units under test through the
// Fig. 3 pipeline). DiagnosisService runs that stream on a fixed worker
// pool:
//
//   * a bounded work queue with backpressure — submit() blocks while the
//     queue is full, trySubmit() refuses instead;
//   * per-job deadlines and cooperative cancellation, polled at
//     propagator-step granularity through PropagatorOptions::cancelCheck;
//   * the compiled-model cache (service/model_cache.h), so repeated
//     requests against one unit type skip the MNA solve and model build;
//   * a service-wide experience base shared by all workers: diagnoses read
//     it under a shared lock, confirm() writes under an exclusive lock, so
//     what one job learns is visible to every later job without races.
//
// Results come back through a shared_future on the JobHandle; every job
// also carries queue/run timings and whether it hit the model cache.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "diagnosis/flames.h"
#include "diagnosis/learning.h"
#include "kb/store.h"
#include "service/flight_recorder.h"
#include "service/model_cache.h"
#include "util/thread_safety.h"

namespace flames::service {

/// One unit of work: which board, what was measured, how to diagnose it.
struct DiagnosisRequest {
  std::shared_ptr<const circuit::Netlist> netlist;
  std::vector<diagnosis::Observation> measurements;
  /// Follow-up probes applied one at a time *after* the initial
  /// measurements, through the compiled-schedule incremental path
  /// (diagnosis::IncrementalSession): each probe extends the existing entry
  /// lists, ATMS labels and nogoods inside its impact cone instead of
  /// re-propagating from scratch. The job's report reflects the state after
  /// the last probe. Empty = the ordinary single-shot diagnosis.
  std::vector<diagnosis::Observation> probeSequence;
  diagnosis::FlamesOptions options;
  /// Wall-clock budget measured from submit; 0 = the service default (which
  /// itself defaults to "no deadline"). An expired job is abandoned at the
  /// next cancellation point — or before it starts, if it expired queued.
  std::chrono::nanoseconds deadline{0};
};

/// Fuzzifies a crisp meter reading exactly like FlamesEngine::measure().
[[nodiscard]] diagnosis::Observation crispMeasurement(std::string node,
                                                      double volts,
                                                      double spread = 0.05);

enum class JobStatus {
  kQueued,
  kRunning,
  kDone,
  kCancelled,
  kDeadlineExceeded,
  kFailed,
};

[[nodiscard]] std::string_view jobStatusName(JobStatus s);

struct JobResult {
  JobStatus status = JobStatus::kFailed;
  /// Service-assigned id, correlating this result with the flight recorder
  /// and with trace spans (Chrome trace "args.job").
  std::uint64_t jobId = 0;
  diagnosis::DiagnosisReport report;  ///< meaningful iff status == kDone
  std::string error;                  ///< iff status == kFailed
  bool modelCacheHit = false;
  /// The propagation entry cap the job actually ran with — the requested
  /// cap, lowered to the analysis-derived one when
  /// ServiceOptions::applyDerivedEntryCap is set.
  std::size_t entryCapUsed = 0;
  /// Probes from DiagnosisRequest::probeSequence that ran through the
  /// incremental session (0 for single-shot jobs).
  std::size_t incrementalProbes = 0;
  std::uint64_t queueNanos = 0;  ///< submit -> worker pickup
  std::uint64_t runNanos = 0;    ///< pickup -> completion
};

class DiagnosisService;

/// Handle to a submitted job. cancel() is cooperative: a queued job
/// resolves kCancelled without running; a running job stops at its next
/// cancellation check (every propagation step, every fault-mode screen).
class Job {
 public:
  [[nodiscard]] std::shared_future<JobResult> future() const {
    return future_;
  }
  /// Blocks until the job resolves. The reference is into the job's shared
  /// state: it stays valid only while a JobHandle (or a copy of future())
  /// is alive — keep the handle, don't call through a temporary.
  [[nodiscard]] const JobResult& wait() const { return future_.get(); }
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelRequested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  /// Service-assigned id (1, 2, ...), stable across the job's lifetime.
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  friend class DiagnosisService;
  std::uint64_t id_ = 0;
  DiagnosisRequest request_;
  std::promise<JobResult> promise_;
  std::shared_future<JobResult> future_;
  std::atomic<bool> cancelled_{false};
  std::chrono::steady_clock::time_point submitted_;
  std::chrono::steady_clock::time_point deadlineAt_{};  ///< epoch = none
};

using JobHandle = std::shared_ptr<Job>;

struct ServiceOptions {
  /// 0 = std::thread::hardware_concurrency().
  std::size_t workers = 0;
  /// Queue slots before submit() blocks (backpressure bound).
  std::size_t queueCapacity = 256;
  std::size_t modelCacheCapacity = 16;
  /// Applied to requests that carry no deadline of their own; 0 = none.
  std::chrono::nanoseconds defaultDeadline{0};
  diagnosis::LearningOptions learning;
  /// Configuration of the persistent experience store (src/kb) every
  /// worker shares: durability directory (empty = in-memory), this
  /// instance's origin id for cross-instance merges, fusion policy, decay
  /// policy, auto-snapshot cadence, crash-injection hooks. `kb.learning`
  /// is ignored — `learning` above is authoritative for both.
  kb::KbOptions kb;
  /// Run the cheap netlist-level lint rules at submit() and reject
  /// error-grade requests with lint::LintError before they ever reach the
  /// worker pool — a job against a broken netlist would only fail later,
  /// after occupying a queue slot and a worker. Findings are mirrored into
  /// the obs counters lint_errors_total / lint_warnings_total. The rule
  /// toggles come from each request's options.lint.
  bool lintOnSubmit = true;
  /// Gate submissions on the static cost analysis: a request whose unit
  /// type is already compiled and whose cost model is intractable even at
  /// the floor entry cap (the A2 error) is rejected with
  /// analyze::AnalysisError before it costs a queue slot or a worker.
  /// Only a non-blocking cache peek is consulted — the gate never compiles
  /// a model on the intake path, so the first job of a type always runs
  /// (bounded by maxSteps) and later submissions of a hopeless type are
  /// refused. Rejections count into
  /// "service.analyze.cost_rejections_total".
  bool analyzeOnSubmit = true;
  /// Gate submissions on static distinguishability (the A6/A7 signature
  /// pass): a request whose supplied probe set (measurement + probe
  /// nodes) separates zero fault pairs, while the full probe plan
  /// separates some, has a statically-indistinguishable hypothesis space —
  /// no measurement outcome at those nodes can implicate one component
  /// over another. Rejected with analyze::AnalysisError naming the plan's
  /// first probe. Same non-blocking cache-peek discipline as
  /// analyzeOnSubmit. Rejections count into
  /// "service.signature.indistinguishable_rejections_total".
  bool signatureOnSubmit = true;
  /// Cap each job's maxEntriesPerQuantity at the analysis-derived
  /// per-model cap (analyze::recommendedEntryCap, never below the floor):
  /// mesh-dense unit types run with a tighter cap so their propagation
  /// work fits the admission budget, tree-shaped ones keep the requested
  /// cap. Clamps count into "service.analyze.cap_clamped_total".
  bool applyDerivedEntryCap = true;
  /// Flight-recorder ring capacity (recent job records retained for
  /// postmortems); 0 disables the recorder.
  std::size_t flightRecorderCapacity = 64;
  /// Sample full derivation provenance on every Nth job (by job id) so the
  /// flight recorder carries derivation summaries without paying the
  /// recording cost on every job. 1 = every job, 0 = never. A request that
  /// itself sets options.recordProvenance is always recorded.
  std::uint64_t provenanceSampleEvery = 16;
  /// Sink for automatic flight-recorder dumps, invoked with the rendered
  /// buffer whenever a job resolves anomalously (failed, cancelled,
  /// deadline exceeded) or a submission is rejected by the cost or
  /// signature gate.
  /// Null (default) disables automatic dumps; dumpFlightRecorder() always
  /// works. Called from worker (or submitting) threads — keep it cheap and
  /// thread-safe. Ordering: the sink has returned before the job's future
  /// resolves, and for a gate rejection before submit() throws, so a
  /// caller that observes the anomaly finds its dump already delivered.
  /// The sink must not throw: an exception from it escapes the worker
  /// thread.
  std::function<void(const std::string&)> flightDumpSink;
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadlineExceeded = 0;
  /// Submissions refused by the static cost gate (analyzeOnSubmit).
  std::uint64_t costRejections = 0;
  /// Submissions refused by the static distinguishability gate
  /// (signatureOnSubmit).
  std::uint64_t signatureRejections = 0;
  std::size_t queueDepth = 0;
  std::size_t workers = 0;
  std::size_t experienceRules = 0;
  /// Persistent-store accounting (rules, tombstones, WAL depth,
  /// compactions, merges — see kb::KbStats).
  kb::KbStats kb;
  ModelCacheStats modelCache;
};

/// The batch-diagnosis engine. Thread-safe; one instance serves any number
/// of submitting threads. Destruction stops intake, drains queued jobs and
/// joins the workers.
class DiagnosisService {
 public:
  explicit DiagnosisService(ServiceOptions options = {});
  ~DiagnosisService();
  DiagnosisService(const DiagnosisService&) = delete;
  DiagnosisService& operator=(const DiagnosisService&) = delete;

  /// Enqueues a job, blocking while the queue is full (backpressure).
  /// Throws std::runtime_error after shutdown began, lint::LintError when
  /// ServiceOptions::lintOnSubmit finds error-grade netlist problems (the
  /// job is rejected without touching the queue or the worker pool).
  JobHandle submit(DiagnosisRequest request);

  /// Non-blocking variant: returns nullptr instead of waiting for a slot.
  JobHandle trySubmit(DiagnosisRequest request);

  /// Records a confirmed diagnosis into the shared experience store (§7
  /// learning; WAL-logged when the store is durable). Takes the exclusive
  /// lock; every job submitted afterwards sees the new rule.
  void confirm(const diagnosis::DiagnosisReport& report,
               const std::string& component, const std::string& mode);

  /// Records that a learned rule's suggestion proved wrong: every rule for
  /// this component/mode decays (and is evicted below the floor).
  void recordFailure(const std::string& component, const std::string& mode);

  /// Copy of the *fused* experience view (for persistence via
  /// experience_io): one rule per signature with certainties fused across
  /// origins per the store's FusionPolicy.
  [[nodiscard]] diagnosis::ExperienceBase snapshotExperience() const;

  /// Destructively replaces the experience store's content with `base`
  /// (for loading legacy persisted rules; kb-native flows use
  /// mergeExperienceFrom / the durability directory instead).
  void seedExperience(diagnosis::ExperienceBase base);

  /// Canonical serialization of the experience store — the merge payload
  /// and the convergence witness: two stores with equal state export
  /// byte-identical strings.
  [[nodiscard]] std::string exportExperienceState() const;

  /// Joins a peer instance's experience into this one (order-independent:
  /// a.mergeExperienceFrom(b) and b.mergeExperienceFrom(a) converge to the
  /// identical store). Durable stores compact immediately so the merge is
  /// atomic on disk.
  void mergeExperienceFrom(const DiagnosisService& other);
  void mergeExperienceState(const std::string& state);

  /// Forces a snapshot compaction of a durable experience store.
  void compactExperience();

  /// One age-based decay sweep over this instance's learned rules.
  void decayExperience();

  /// Blocks until every job submitted so far has resolved.
  void drain();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] std::size_t workerCount() const { return workers_.size(); }

  /// Renders the flight recorder's current contents (on-demand postmortem;
  /// the automatic path goes through ServiceOptions::flightDumpSink).
  [[nodiscard]] std::string dumpFlightRecorder() const;
  /// The raw retained records, oldest first.
  [[nodiscard]] std::vector<FlightRecord> flightRecords() const {
    return recorder_.snapshot();
  }

 private:
  void workerLoop();
  void runJob(Job& job);
  void finish(Job& job, JobResult result);

  ServiceOptions options_;
  ModelCache cache_;
  FlightRecorder recorder_;
  std::atomic<std::uint64_t> nextJobId_{1};

  mutable util::Mutex queueMutex_;
  util::CondVar notEmpty_;
  util::CondVar notFull_;
  util::CondVar idle_;
  std::deque<JobHandle> queue_ FLAMES_GUARDED_BY(queueMutex_);
  std::size_t activeJobs_ FLAMES_GUARDED_BY(queueMutex_) = 0;
  bool stopping_ FLAMES_GUARDED_BY(queueMutex_) = false;

  mutable util::SharedMutex experienceMutex_;
  kb::KbStore experience_ FLAMES_GUARDED_BY(experienceMutex_);

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> deadlineExceeded_{0};
  std::atomic<std::uint64_t> costRejections_{0};
  std::atomic<std::uint64_t> signatureRejections_{0};

  std::vector<std::thread> workers_;
};

}  // namespace flames::service
