// serve_mixed: one DebugService hosting 8 Holistic tenants over a shared
// Adult bundle. One client thread keeps one StepAsync turn in flight per
// tenant (a closed loop of 8 callers) and, after every second completed
// turn, sends an Update that corrects the labels of up to 4 just-deleted
// rows and reactivates them. A tenant whose explanation is complete is
// closed and reopened.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/session.h"
#include "perf.h"
#include "trace.h"

namespace perf {
namespace {

using rain::serve::DebugService;
using rain::serve::StepOutcome;

constexpr int kTenants = 8;
constexpr int kDrivers = 2;
constexpr int kTopK = 10;
constexpr int kTenantBudget = 60;
constexpr size_t kUpdateRows = 4;
constexpr int kSetupRepeats = 3;
constexpr double kWarmupSeconds = 1.0;
constexpr auto kPollInterval = std::chrono::microseconds(100);

/// One registered bundle: the reference explanation (from a standalone
/// replay) every tenant session on it must reproduce.
struct ServeInstance {
  const BenchInputs* in = nullptr;
  std::vector<int> clean_labels;
  std::vector<size_t> reference;
};

/// The write a tenant sends after every second turn: the first rows deleted
/// since its last update get their generator-clean label and are
/// reactivated.
rain::UpdateBatch CorrectionBatch(const std::vector<size_t>& recent,
                                  const std::vector<int>& clean_labels) {
  rain::UpdateBatch batch;
  for (size_t i = 0; i < recent.size() && i < kUpdateRows; ++i) {
    batch.label_edits.push_back({recent[i], clean_labels[recent[i]]});
    batch.reactivate_rows.push_back(recent[i]);
  }
  return batch;
}

bool TenantDone(const StepOutcome& outcome) {
  return outcome.finished ||
         outcome.total_deletions >= static_cast<size_t>(kTenantBudget);
}

/// Every tenant runs the full budget (no early stop on resolution), so each
/// tenant session does the same number of turns on every instance.
rain::serve::SessionSpec TenantSpec(const BenchInputs& in,
                                    rain::DebugObserver* observer) {
  rain::serve::SessionSpec spec;
  spec.dataset = in.hosted.name;
  spec.ranker = "holistic";
  spec.top_k_per_iter = kTopK;
  spec.max_deletions = kTenantBudget;
  spec.stop_when_resolved = false;
  spec.exec.set_parallelism(1);
  spec.workload = in.workload;
  if (observer != nullptr) spec.exec.add_observer(observer);
  return spec;
}

/// One tenant's standalone replay: the same spec and the same turn/update
/// sequence, through a session built directly on `MakeSessionPipeline`.
struct Replay {
  bool ok = true;
  std::string error;
  std::vector<size_t> deletions;
  std::vector<ProbeRecord> probes;
  std::vector<std::string> probe_errors;
  rain::BindCacheStats bind;
  size_t arena_nodes = 0;
  size_t encode_reuses = 0;
};

Replay RunReplay(const BenchInputs& in, const std::vector<int>& clean_labels,
                 bool traced) {
  Replay replay;
  auto pipeline = rain::serve::MakeSessionPipeline(in.hosted);
  std::unique_ptr<rain::Ranker> ranker = rain::MakeHolisticRanker();
  TracingRanker* tracer = nullptr;
  if (traced) {
    auto decorated = std::make_unique<TracingRanker>(std::move(ranker), pipeline.get());
    tracer = decorated.get();
    ranker = std::move(decorated);
  }
  const rain::serve::SessionSpec spec = TenantSpec(in, nullptr);
  auto built = rain::DebugSessionBuilder(pipeline.get())
                   .ranker(std::move(ranker))
                   .top_k_per_iter(spec.top_k_per_iter)
                   .max_deletions(spec.max_deletions)
                   .max_iterations(spec.max_iterations)
                   .stop_when_resolved(spec.stop_when_resolved)
                   .set_execution(spec.exec)
                   .workload(spec.workload)
                   .Build();
  if (!built.ok()) {
    replay.ok = false;
    replay.error = built.status().ToString();
    return replay;
  }
  rain::DebugSession& session = **built;
  std::vector<size_t> recent;
  for (int turn = 1;; ++turn) {
    auto step = session.Step();
    if (!step.ok()) {
      replay.ok = false;
      replay.error = step.status().ToString();
      break;
    }
    replay.deletions.insert(replay.deletions.end(), step->new_deletions.begin(),
                            step->new_deletions.end());
    recent.insert(recent.end(), step->new_deletions.begin(), step->new_deletions.end());
    if (session.finished() ||
        session.report().deletions.size() >= static_cast<size_t>(kTenantBudget)) {
      break;
    }
    if (turn % 2 == 0) {
      auto updated = session.ApplyUpdate(CorrectionBatch(recent, clean_labels));
      if (!updated.ok()) {
        replay.ok = false;
        replay.error = updated.status().ToString();
        break;
      }
      recent.clear();
    }
  }
  if (tracer != nullptr) {
    replay.probes = tracer->records();
    replay.probe_errors = tracer->errors();
  }
  replay.bind = session.bind_cache_stats();
  replay.arena_nodes = session.pipeline()->arena()->num_nodes();
  replay.encode_reuses = session.encode_reuses();
  return replay;
}

/// Everything one stretch of the closed loop measured.
struct LoopStats {
  double elapsed_s = 0.0;
  int64_t turns = 0;
  std::vector<double> turn_s, first_turn_s, session_s, open_s;
  std::vector<double> update_s, queue_wait_s, step_s;
  int64_t refusals = 0;
  std::vector<rain::UpdateReport> updates;
  CoreSplit core;
};

struct Tenant {
  size_t instance = 0;
  uint64_t sid = 0;
  bool open = false;
  bool in_flight = false;
  double opened_s = 0.0;
  double sent_s = 0.0;
  int turns = 0;
  std::vector<size_t> deletions;
  std::vector<size_t> recent;
  rain::Future<rain::Result<StepOutcome>> pending;
  std::unique_ptr<PhaseObserver> observer;
};

class ClosedLoop {
 public:
  ClosedLoop(DebugService* service, const std::vector<ServeInstance>& pool,
             bool traced, Outcome* out, std::vector<Span>* spans)
      : service_(service),
        pool_(pool),
        traced_(traced),
        out_(out),
        spans_(spans) {}

  LoopStats Run(double seconds) {
    const double start = NowSeconds();
    deadline_ = start + seconds;
    std::vector<Tenant> tenants(kTenants);
    for (Tenant& t : tenants) {
      if (traced_) t.observer = std::make_unique<PhaseObserver>();
      if (OpenTenant(&t)) Send(&t);
    }
    for (;;) {
      bool any_in_flight = false, progressed = false;
      for (Tenant& t : tenants) {
        if (!t.in_flight) continue;
        if (!t.pending.Ready()) {
          any_in_flight = true;
          continue;
        }
        progressed = true;
        Complete(&t);
        any_in_flight = any_in_flight || t.in_flight;
      }
      if (!any_in_flight) break;
      if (!progressed) std::this_thread::sleep_for(kPollInterval);
    }
    stats_.elapsed_s = NowSeconds() - start;
    for (Tenant& t : tenants) {
      if (!t.open) continue;
      ++out_->attempted;
      const rain::Status st = service_->Close(t.sid);
      if (!st.ok()) out_->Fail("close: " + st.ToString());
    }
    return std::move(stats_);
  }

 private:
  bool OpenTenant(Tenant* t) {
    ++out_->attempted;
    t->instance = next_instance_++ % pool_.size();
    const double t0 = NowSeconds();
    auto sid = service_->Open(TenantSpec(*pool_[t->instance].in, t->observer.get()));
    const double t1 = NowSeconds();
    if (!sid.ok()) {
      if (sid.status().code() == rain::StatusCode::kResourceExhausted) ++stats_.refusals;
      out_->Fail("open: " + sid.status().ToString());
      return false;
    }
    stats_.open_s.push_back(t1 - t0);
    if (traced_) spans_->push_back({"open", static_cast<int64_t>(*sid), t0, t1});
    t->sid = *sid;
    t->open = true;
    t->opened_s = t0;
    t->turns = 0;
    t->deletions.clear();
    t->recent.clear();
    return true;
  }

  void Send(Tenant* t) {
    t->sent_s = NowSeconds();
    t->pending = service_->StepAsync(t->sid, 1);
    t->in_flight = true;
  }

  void Complete(Tenant* t) {
    t->in_flight = false;
    ++out_->attempted;
    rain::Result<StepOutcome> outcome = t->pending.Get();
    const double now = NowSeconds();
    if (!outcome.ok()) {
      out_->Fail("turn: " + outcome.status().ToString());
      return;
    }
    const double latency = now - t->sent_s;
    ++stats_.turns;
    stats_.turn_s.push_back(latency);
    if (t->turns == 0) stats_.first_turn_s.push_back(latency);
    ++t->turns;
    if (traced_) RecordTurnTrace(t, latency, now);
    t->deletions.insert(t->deletions.end(), outcome->new_deletions.begin(),
                        outcome->new_deletions.end());
    t->recent.insert(t->recent.end(), outcome->new_deletions.begin(),
                     outcome->new_deletions.end());
    CheckPrefix(*t);

    if (TenantDone(*outcome)) {
      stats_.session_s.push_back(now - t->opened_s);
      const std::vector<size_t>& reference = pool_[t->instance].reference;
      if (t->deletions.size() != reference.size()) {
        out_->Fail("tenant session ended with " + std::to_string(t->deletions.size()) +
                   " deletions, replay has " + std::to_string(reference.size()));
      }
      ++out_->attempted;
      const rain::Status st = service_->Close(t->sid);
      t->open = false;
      if (!st.ok()) out_->Fail("close: " + st.ToString());
      if (now < deadline_ && OpenTenant(t)) Send(t);
      return;
    }
    if (t->turns % 2 == 0) SendUpdate(t);
    if (now < deadline_) Send(t);
  }

  void SendUpdate(Tenant* t) {
    ++out_->attempted;
    const double t0 = NowSeconds();
    auto report = service_->Update(
        t->sid, CorrectionBatch(t->recent, pool_[t->instance].clean_labels));
    const double t1 = NowSeconds();
    t->recent.clear();
    if (!report.ok()) {
      out_->Fail("update: " + report.status().ToString());
      return;
    }
    stats_.update_s.push_back(t1 - t0);
    stats_.updates.push_back(*report);
    if (traced_) spans_->push_back({"update", static_cast<int64_t>(t->sid), t0, t1});
  }

  void RecordTurnTrace(Tenant* t, double latency, double now) {
    double step = 0.0;
    for (const StepPhases& phases : t->observer->TakeSteps()) {
      const double span = phases.end_s - phases.start_s;
      stats_.core.Add(phases, span, 0.0);
      step += span;
      spans_->push_back({"step", static_cast<int64_t>(t->sid), phases.start_s,
                         phases.end_s});
    }
    stats_.step_s.push_back(step);
    stats_.queue_wait_s.push_back(latency - step);
    spans_->push_back({"turn", static_cast<int64_t>(t->sid), t->sent_s, now});
  }

  /// Every tenant session must follow its bundle's replay deletion sequence.
  void CheckPrefix(const Tenant& t) {
    const std::vector<size_t>& reference = pool_[t.instance].reference;
    const size_t n = t.deletions.size();
    if (n > reference.size() ||
        !std::equal(t.deletions.begin(), t.deletions.end(), reference.begin())) {
      out_->Fail("tenant " + std::to_string(t.sid) +
                 " diverged from the standalone replay after " + std::to_string(n) +
                 " deletions");
    }
  }

  DebugService* service_;
  const std::vector<ServeInstance>& pool_;
  const bool traced_;
  Outcome* out_;
  std::vector<Span>* spans_;
  double deadline_ = 0.0;
  /// Opens rotate over the pool, so every bundle is served by many tenants.
  size_t next_instance_ = 0;
  LoopStats stats_;
};

rain::serve::ServiceOptions MakeServiceOptions() {
  rain::serve::ServiceOptions options;
  options.num_drivers = kDrivers;
  options.max_sessions = 2 * kTenants;
  // One share per parallelism-1 tenant; the spare half covers a tenant
  // reopening before its closed session is reaped.
  options.admission_capacity = 2 * kTenants;
  return options;
}

}  // namespace

Outcome RunServeWorkload(const Options& opt) {
  Outcome out;
  // Set-up: generate + corrupt every bundle of the pool, derive complaint
  // targets from clean pipelines, start the service and register the
  // bundles. Repeated so its median is steady; the last service is used.
  std::vector<double> setup_s;
  std::vector<BenchInputs> inputs;
  std::unique_ptr<DebugService> service;
  for (int r = 0; r < kSetupRepeats; ++r) {
    service.reset();
    inputs.clear();  // one pool alive at a time
    rain::Timer timer;
    inputs = MakePool(opt.workload, opt.seed);
    service = std::make_unique<DebugService>(MakeServiceOptions());
    for (const BenchInputs& in : inputs) {
      const rain::Status st = service->RegisterDataset(in.hosted);
      if (!st.ok()) {
        out.Fail("register: " + st.ToString());
        return out;
      }
    }
    setup_s.push_back(timer.ElapsedSeconds());
  }

  // The references every hosted tenant must reproduce.
  std::vector<ServeInstance> pool(inputs.size());
  double precision = 0.0;
  for (size_t i = 0; i < pool.size(); ++i) {
    pool[i].in = &inputs[i];
    pool[i].clean_labels =
        CleanLabels(opt.workload, InstanceSeed(opt.seed, static_cast<int>(i)));
    ++out.attempted;
    const Replay replay = RunReplay(inputs[i], pool[i].clean_labels, /*traced=*/false);
    if (!replay.ok) out.Fail("replay " + std::to_string(i) + ": " + replay.error);
    if (replay.deletions.size() != static_cast<size_t>(kTenantBudget)) {
      out.Fail("replay " + std::to_string(i) + " deleted " +
               std::to_string(replay.deletions.size()) + " rows, expected " +
               std::to_string(kTenantBudget));
    }
    pool[i].reference = replay.deletions;
    precision += BugPrecision(
        replay.deletions, PlantedCorruptions(pool[i].clean_labels, inputs[i].hosted.train));
  }
  if (!out.errors.empty()) return out;
  precision /= static_cast<double>(pool.size());

  // Warm-up: an untimed stretch of the loop wakes the drivers and fills
  // caches; its turns are checked like every other turn.
  std::vector<Span> spans;
  ClosedLoop(service.get(), pool, false, &out, &spans).Run(kWarmupSeconds);
  if (!opt.trace) {
    ClosedLoop loop(service.get(), pool, false, &out, &spans);
    const LoopStats s = loop.Run(opt.seconds);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s seed %llu: %lld turns, %zu completed tenant sessions, %zu "
                  "updates, %.2f s measured",
                  opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                  static_cast<long long>(s.turns), s.session_s.size(), s.updates.size(),
                  s.elapsed_s);
    out.notes.push_back(buf);
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("session_s", Median(s.session_s), "s");
    out.Add("first_step_ms", Median(s.first_turn_s) * 1e3, "ms");
    out.Add("turns_per_s", static_cast<double>(s.turns) / s.elapsed_s, "1/s");
    out.Add("turn_p50_ms", Median(s.turn_s) * 1e3, "ms");
    out.Add("turn_p99_ms", Quantile(s.turn_s, 0.99) * 1e3, "ms");
    out.Add("bug_precision", precision, "fraction");
    out.Add("peak_rss_mb", PeakRssMb(), "MiB");
    return out;
  }

  // Traced run: half the time untraced, half with per-tenant observers, then
  // the first bundle's standalone replay again with the tracing ranker.
  ClosedLoop plain_loop(service.get(), pool, false, &out, &spans);
  const LoopStats plain = plain_loop.Run(opt.seconds / 2);
  ClosedLoop traced_loop(service.get(), pool, true, &out, &spans);
  const LoopStats traced = traced_loop.Run(opt.seconds / 2);
  ++out.attempted;
  const Replay probe = RunReplay(inputs[0], pool[0].clean_labels, /*traced=*/true);
  if (!probe.ok) out.Fail("traced replay: " + probe.error);
  if (probe.deletions != pool[0].reference) {
    out.Fail("traced replay deleted a different sequence than the untraced one");
  }
  for (const std::string& e : probe.probe_errors) out.Fail("traced replay: " + e);

  traced.core.Report(opt.workload, &out);
  ReportProbes(probe.probes, &out);
  out.Add("relax.encode_cache_reuses", static_cast<double>(probe.encode_reuses), "count");
  const double rebound = static_cast<double>(probe.bind.entries_rebound);
  const double reused = static_cast<double>(probe.bind.entries_reused);
  out.Add("bind.entries_rebound", rebound, "count");
  out.Add("bind.entries_reused", reused, "count");
  out.Add("bind.reuse_ratio", rebound + reused > 0 ? reused / (rebound + reused) : 0.0,
          "fraction");
  out.Add("bind.full_binds", static_cast<double>(probe.bind.full_binds), "count");
  out.Add("provenance.arena_nodes", static_cast<double>(probe.arena_nodes), "count");

  std::vector<double> touched, cached, patched;
  double incremental = 0;
  for (const rain::UpdateReport& u : traced.updates) {
    touched.push_back(static_cast<double>(u.touched_rows));
    cached.push_back(static_cast<double>(u.entries_cached));
    patched.push_back(static_cast<double>(u.patched_scores));
    incremental += u.incremental ? 1 : 0;
  }
  out.Add("incremental.update_ms", Median(traced.update_s) * 1e3, "ms");
  out.Add("incremental.touched_rows", Mean(touched), "count");
  out.Add("incremental.incremental_share",
          traced.updates.empty() ? 0.0 : incremental / static_cast<double>(traced.updates.size()),
          "fraction");
  out.Add("incremental.entries_cached", Mean(cached), "count");
  out.Add("incremental.patched_scores", Mean(patched), "count");
  out.Add("serve.queue_wait_p50_ms", Median(traced.queue_wait_s) * 1e3, "ms");
  out.Add("serve.queue_wait_p99_ms", Quantile(traced.queue_wait_s, 0.99) * 1e3, "ms");
  out.Add("serve.step_ms", Median(traced.step_s) * 1e3, "ms");
  out.Add("serve.open_ms", Median(traced.open_s) * 1e3, "ms");
  out.Add("serve.refusals", static_cast<double>(plain.refusals + traced.refusals), "count");
  const double plain_rate = static_cast<double>(plain.turns) / plain.elapsed_s;
  const double traced_rate = static_cast<double>(traced.turns) / traced.elapsed_s;
  out.Add("trace.overhead_pct",
          traced_rate > 0 ? (plain_rate / traced_rate - 1.0) * 100.0 : 0.0, "%");
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s seed %llu: %lld untraced + %lld traced turns, %zu updates traced",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                static_cast<long long>(plain.turns), static_cast<long long>(traced.turns),
                traced.updates.size());
  out.notes.push_back(buf);
  WriteSpans(opt, spans);
  return out;
}

}  // namespace perf
