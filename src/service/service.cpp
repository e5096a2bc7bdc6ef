#include "service/service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "analyze/analyze.h"
#include "lint/lint.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace flames::service {

namespace {

obs::Counter& cSubmitted() {
  static obs::Counter& c = obs::counter("service.jobs.submitted");
  return c;
}
obs::Counter& cCompleted() {
  static obs::Counter& c = obs::counter("service.jobs.completed");
  return c;
}
obs::Counter& cFailed() {
  static obs::Counter& c = obs::counter("service.jobs.failed");
  return c;
}
obs::Counter& cCancelled() {
  static obs::Counter& c = obs::counter("service.jobs.cancelled");
  return c;
}
obs::Counter& cDeadline() {
  static obs::Counter& c = obs::counter("service.jobs.deadline_exceeded");
  return c;
}
obs::Histogram& hQueueNs() {
  static obs::Histogram& h = obs::histogram("service.job.queue_ns");
  return h;
}
obs::Histogram& hRunNs() {
  static obs::Histogram& h = obs::histogram("service.job.run_ns");
  return h;
}
obs::Counter& cCostRejections() {
  static obs::Counter& c =
      obs::counter("service.analyze.cost_rejections_total");
  return c;
}
obs::Counter& cSignatureRejections() {
  static obs::Counter& c =
      obs::counter("service.signature.indistinguishable_rejections_total");
  return c;
}
obs::Counter& cCapClamped() {
  static obs::Counter& c = obs::counter("service.analyze.cap_clamped_total");
  return c;
}

std::uint64_t nanosBetween(std::chrono::steady_clock::time_point from,
                           std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

}  // namespace

diagnosis::Observation crispMeasurement(std::string node, double volts,
                                        double spread) {
  return {std::move(node),
          fuzzy::FuzzyInterval::about(volts, std::max(spread, 1e-12))};
}

std::string_view jobStatusName(JobStatus s) {
  switch (s) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kDeadlineExceeded: return "deadline_exceeded";
    case JobStatus::kFailed: return "failed";
  }
  return "?";
}

namespace {

kb::KbOptions mergedKbOptions(const ServiceOptions& options) {
  kb::KbOptions ko = options.kb;
  ko.learning = options.learning;  // ServiceOptions::learning is authoritative
  return ko;
}

}  // namespace

DiagnosisService::DiagnosisService(ServiceOptions options)
    : options_(options),
      cache_(options.modelCacheCapacity),
      recorder_(options.flightRecorderCapacity),
      experience_(mergedKbOptions(options)) {
  std::size_t n = options_.workers;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

DiagnosisService::~DiagnosisService() {
  {
    util::MutexLock lock(queueMutex_);
    stopping_ = true;
  }
  notEmpty_.notifyAll();
  notFull_.notifyAll();
  for (std::thread& w : workers_) w.join();
}

JobHandle DiagnosisService::submit(DiagnosisRequest request) {
  if (options_.lintOnSubmit && request.netlist != nullptr) {
    // Netlist-level rules only (L1/L3/L4): cheap enough for the intake
    // path, and the model-level rules run once per unit type inside the
    // compile cache anyway. Error-grade findings reject the job here,
    // before it costs a queue slot.
    const lint::LintReport report =
        lint::lintNetlist(*request.netlist, request.options.lint);
    lint::recordObsCounters(report);
    lint::enforce(report, request.options.lint.warningsAsErrors);
  }
  if (options_.analyzeOnSubmit && request.netlist != nullptr) {
    // Static cost gate. Consult only the non-blocking cache peek: the gate
    // must not compile on the intake path, so an uncached type passes (its
    // first job compiles in a worker, bounded by maxSteps) and every later
    // submission of a type known to be intractable is refused here.
    if (const std::shared_ptr<const CompiledModel> model =
            cache_.peek(*request.netlist, request.options)) {
      const analyze::AnalysisReport& analysis =
          model->analysis(request.options.propagation);
      if (analysis.cost.intractableAtFloor) {
        costRejections_.fetch_add(1, std::memory_order_relaxed);
        cCostRejections().add();
        std::string message =
            "DiagnosisService: model rejected by the static cost gate";
        for (const lint::Diagnostic& d : analysis.findings.diagnostics) {
          if (d.severity == lint::Severity::kError) {
            message += ": " + d.rule + " " + d.message;
            break;
          }
        }
        FlightRecord rec;
        rec.jobId = nextJobId_.fetch_add(1, std::memory_order_relaxed);
        rec.event = "cost_rejected";
        rec.error = message;
        recorder_.record(std::move(rec));
        if (options_.flightDumpSink) {
          options_.flightDumpSink(dumpFlightRecorder());
        }
        throw analyze::AnalysisError(message);
      }
      const analyze::SignatureAnalysis& sig = analysis.signature;
      if (options_.signatureOnSubmit && sig.available &&
          sig.plan.separablePairs > 0) {
        // Static distinguishability gate: if the request's own probe set
        // separates zero fault pairs while the full plan separates some,
        // no measurement outcome at the supplied nodes can implicate one
        // component over another — refuse before it costs a queue slot.
        std::vector<std::string> probeNodes;
        for (const diagnosis::Observation& o : request.measurements) {
          probeNodes.push_back(o.node);
        }
        for (const diagnosis::Observation& o : request.probeSequence) {
          probeNodes.push_back(o.node);
        }
        if (!probeNodes.empty() &&
            analyze::separablePairs(sig, probeNodes) == 0) {
          signatureRejections_.fetch_add(1, std::memory_order_relaxed);
          cSignatureRejections().add();
          std::string message =
              "DiagnosisService: request rejected by the static "
              "distinguishability gate: the supplied probe set separates no "
              "fault pair; probe V(" +
              sig.plan.steps.front().probe + ") to separate candidates";
          FlightRecord rec;
          rec.jobId = nextJobId_.fetch_add(1, std::memory_order_relaxed);
          rec.event = "signature_rejected";
          rec.error = message;
          recorder_.record(std::move(rec));
          if (options_.flightDumpSink) {
            options_.flightDumpSink(dumpFlightRecorder());
          }
          throw analyze::AnalysisError(message);
        }
      }
    }
  }
  auto job = std::make_shared<Job>();
  job->id_ = nextJobId_.fetch_add(1, std::memory_order_relaxed);
  job->request_ = std::move(request);
  job->future_ = job->promise_.get_future().share();
  {
    util::MutexLock lock(queueMutex_);
    while (!stopping_ && queue_.size() >= options_.queueCapacity) {
      notFull_.wait(queueMutex_);
    }
    if (stopping_) {
      throw std::runtime_error("DiagnosisService: submit after shutdown");
    }
    job->submitted_ = std::chrono::steady_clock::now();
    const auto deadline = job->request_.deadline.count() != 0
                              ? job->request_.deadline
                              : options_.defaultDeadline;
    if (deadline.count() != 0) job->deadlineAt_ = job->submitted_ + deadline;
    queue_.push_back(job);
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  cSubmitted().add();
  notEmpty_.notifyOne();
  return job;
}

JobHandle DiagnosisService::trySubmit(DiagnosisRequest request) {
  {
    util::MutexLock lock(queueMutex_);
    if (stopping_) {
      throw std::runtime_error("DiagnosisService: submit after shutdown");
    }
    if (queue_.size() >= options_.queueCapacity) return nullptr;
  }
  // The queue may have refilled between the check and submit(), in which
  // case submit blocks briefly; capacity races resolve towards blocking,
  // not towards unbounded growth.
  return submit(std::move(request));
}

void DiagnosisService::confirm(const diagnosis::DiagnosisReport& report,
                               const std::string& component,
                               const std::string& mode) {
  util::WriterLock lock(experienceMutex_);
  experience_.recordSuccess(report.signature, component, mode);
}

void DiagnosisService::recordFailure(const std::string& component,
                                     const std::string& mode) {
  util::WriterLock lock(experienceMutex_);
  experience_.recordFailure(component, mode);
}

diagnosis::ExperienceBase DiagnosisService::snapshotExperience() const {
  util::ReaderLock lock(experienceMutex_);
  return experience_.materialized();
}

void DiagnosisService::seedExperience(diagnosis::ExperienceBase base) {
  util::WriterLock lock(experienceMutex_);
  experience_.seed(base);
}

std::string DiagnosisService::exportExperienceState() const {
  util::ReaderLock lock(experienceMutex_);
  return experience_.serialize();
}

void DiagnosisService::mergeExperienceFrom(const DiagnosisService& other) {
  // Two-phase to keep lock acquisition strictly sequential: copy the peer
  // state under *its* reader lock, then join under *our* writer lock. Safe
  // for concurrent a.mergeExperienceFrom(b) / b.mergeExperienceFrom(a).
  mergeExperienceState(other.exportExperienceState());
}

void DiagnosisService::mergeExperienceState(const std::string& state) {
  util::WriterLock lock(experienceMutex_);
  experience_.mergeState(state);
}

void DiagnosisService::compactExperience() {
  util::WriterLock lock(experienceMutex_);
  experience_.compact();
}

void DiagnosisService::decayExperience() {
  util::WriterLock lock(experienceMutex_);
  experience_.decay();
}

void DiagnosisService::drain() {
  util::MutexLock lock(queueMutex_);
  while (!queue_.empty() || activeJobs_ != 0) idle_.wait(queueMutex_);
}

ServiceStats DiagnosisService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.deadlineExceeded = deadlineExceeded_.load(std::memory_order_relaxed);
  s.costRejections = costRejections_.load(std::memory_order_relaxed);
  s.signatureRejections =
      signatureRejections_.load(std::memory_order_relaxed);
  {
    util::MutexLock lock(queueMutex_);
    s.queueDepth = queue_.size();
  }
  s.workers = workers_.size();
  {
    util::ReaderLock lock(experienceMutex_);
    s.experienceRules = experience_.materialized().size();
    s.kb = experience_.stats();
  }
  s.modelCache = cache_.stats();
  return s;
}

void DiagnosisService::workerLoop() {
  for (;;) {
    JobHandle job;
    {
      util::MutexLock lock(queueMutex_);
      while (!stopping_ && queue_.empty()) notEmpty_.wait(queueMutex_);
      if (queue_.empty()) return;  // stopping and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++activeJobs_;
    }
    notFull_.notifyOne();
    runJob(*job);
    {
      util::MutexLock lock(queueMutex_);
      --activeJobs_;
      if (queue_.empty() && activeJobs_ == 0) idle_.notifyAll();
    }
  }
}

void DiagnosisService::runJob(Job& job) {
  // Every span the job produces (propagation stages, cache compiles, ...)
  // carries the job id, so a Chrome trace filters to one job's timeline.
  obs::JobScope jobScope(job.id_);
  obs::Span span("service.job", "service");
  const auto pickup = std::chrono::steady_clock::now();
  JobResult result;
  result.jobId = job.id_;
  result.queueNanos = nanosBetween(job.submitted_, pickup);

  const bool hasDeadline =
      job.deadlineAt_ != std::chrono::steady_clock::time_point{};
  const auto deadlineExpired = [&job, hasDeadline] {
    return hasDeadline && std::chrono::steady_clock::now() >= job.deadlineAt_;
  };

  if (job.cancelRequested()) {
    result.status = JobStatus::kCancelled;
    finish(job, std::move(result));
    return;
  }
  if (deadlineExpired()) {
    result.status = JobStatus::kDeadlineExceeded;
    finish(job, std::move(result));
    return;
  }

  try {
    bool hit = false;
    const std::shared_ptr<const CompiledModel> model =
        cache_.get(job.request_.netlist, job.request_.options, &hit);
    result.modelCacheHit = hit;

    // The job's options plus the cancellation hook the propagator polls.
    diagnosis::FlamesOptions opts = job.request_.options;
    if (options_.applyDerivedEntryCap) {
      const std::size_t requested = opts.propagation.maxEntriesPerQuantity;
      opts.propagation.maxEntriesPerQuantity = analyze::recommendedEntryCap(
          model->analysis(opts.propagation), requested);
      if (opts.propagation.maxEntriesPerQuantity < requested) {
        cCapClamped().add();
      }
      // Same discipline for candidate enumeration: the A5 derivation caps
      // the hitting-set cardinality a worker will attempt for this model.
      opts.candidates.maxCardinality = analyze::recommendedMaxCardinality(
          model->analysis(opts.propagation), opts.candidates.maxCardinality);
    }
    result.entryCapUsed = opts.propagation.maxEntriesPerQuantity;
    // Provenance sampling: every Nth job pays the recording cost so the
    // flight recorder carries derivation summaries under sustained load.
    if (options_.provenanceSampleEvery != 0 &&
        job.id_ % options_.provenanceSampleEvery == 0) {
      opts.recordProvenance = true;
    }
    Job* jobPtr = &job;
    opts.propagation.cancelCheck = [jobPtr, deadlineExpired] {
      return jobPtr->cancelRequested() || deadlineExpired();
    };

    diagnosis::DiagnosisContext ctx;
    ctx.net = &model->netlist();
    ctx.built = &model->built();
    ctx.kb = &model->knowledgeBase();
    ctx.options = &opts;
    ctx.hintSource = [this](const std::vector<diagnosis::Symptom>& signature) {
      util::ReaderLock lock(experienceMutex_);
      return experience_.match(signature);
    };
    const CompiledModel* modelPtr = model.get();
    const diagnosis::DeviationAnalysisOptions devOpts = opts.deviationAnalysis;
    ctx.signsProvider =
        [modelPtr, devOpts]() -> const diagnosis::SensitivitySigns& {
      return modelPtr->sensitivitySigns(devOpts);
    };

    if (job.request_.probeSequence.empty()) {
      result.report = diagnoseWith(ctx, job.request_.measurements);
    } else {
      // Probe-sequence jobs replay through the incremental session: one
      // from-scratch propagation over the initial measurements, then each
      // probe extends the state inside its impact cone. The compiled
      // schedule comes from the unit type's cached analysis (its plan
      // depends only on model shape, not on the entry cap).
      diagnosis::IncrementalSession session(
          ctx, model->analysis(opts.propagation).schedule.plan);
      result.report = session.begin(job.request_.measurements);
      for (const diagnosis::Observation& probe : job.request_.probeSequence) {
        result.report = session.addMeasurement(probe);
        ++result.incrementalProbes;
      }
    }
    result.status = JobStatus::kDone;
  } catch (const constraints::CancelledError&) {
    result.status = job.cancelRequested() ? JobStatus::kCancelled
                                          : JobStatus::kDeadlineExceeded;
  } catch (const std::exception& e) {
    result.status = JobStatus::kFailed;
    result.error = e.what();
  }
  result.runNanos = nanosBetween(pickup, std::chrono::steady_clock::now());
  finish(job, std::move(result));
}

void DiagnosisService::finish(Job& job, JobResult result) {
  switch (result.status) {
    case JobStatus::kDone:
      completed_.fetch_add(1, std::memory_order_relaxed);
      cCompleted().add();
      break;
    case JobStatus::kFailed:
      failed_.fetch_add(1, std::memory_order_relaxed);
      cFailed().add();
      break;
    case JobStatus::kCancelled:
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      cCancelled().add();
      break;
    case JobStatus::kDeadlineExceeded:
      deadlineExceeded_.fetch_add(1, std::memory_order_relaxed);
      cDeadline().add();
      break;
    case JobStatus::kQueued:
    case JobStatus::kRunning:
      break;  // never finished with an in-flight status
  }
  hQueueNs().record(result.queueNanos);
  hRunNs().record(result.runNanos);

  FlightRecord rec;
  rec.jobId = job.id_;
  rec.event = std::string(jobStatusName(result.status));
  rec.error = result.error;
  rec.queueNanos = result.queueNanos;
  rec.runNanos = result.runNanos;
  rec.modelCacheHit = result.modelCacheHit;
  rec.entryCapUsed = result.entryCapUsed;
  if (result.report.provenance) {
    const diagnosis::DiagnosisProvenance& p = *result.report.provenance;
    rec.provenanceSampled = true;
    rec.provEntries = p.log.entries().size();
    rec.provNogoods = p.log.nogoods().size();
    for (const constraints::ProvNogood& n : p.log.nogoods()) {
      rec.worstNogoodDegree = std::max(rec.worstNogoodDegree, n.degree);
    }
    for (const std::vector<std::string>& hs : p.hittingSets) {
      std::string rendered = "{";
      for (std::size_t i = 0; i < hs.size(); ++i) {
        rendered += (i ? "," : "") + hs[i];
      }
      rec.candidates.push_back(rendered + "}");
    }
  }
  const bool anomaly = result.status != JobStatus::kDone;
  recorder_.record(std::move(rec));

  // Dump before resolving: whoever wait()s on an anomalous job must find
  // the postmortem already delivered (as the submit-time gates do).
  if (anomaly && options_.flightDumpSink) {
    options_.flightDumpSink(dumpFlightRecorder());
  }
  job.promise_.set_value(std::move(result));
}

std::string DiagnosisService::dumpFlightRecorder() const {
  return renderFlightRecords(recorder_.snapshot(), recorder_.recorded());
}

}  // namespace flames::service
