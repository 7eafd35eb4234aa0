// dblp_train and adult_ilp: fresh standalone debugging sessions back to
// back (a closed loop of one caller), each driven with synchronous Step()
// until its explanation has every row of its deletion budget.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/session.h"
#include "perf.h"
#include "trace.h"

namespace perf {
namespace {

constexpr int kTopK = 10;
constexpr int kParallelism = 2;
constexpr int kSetupRepeats = 3;
constexpr double kWarmupSeconds = 1.0;

/// What a session of each workload runs.
struct Shape {
  std::unique_ptr<rain::Ranker> (*make_ranker)();
  /// adult_ilp stops at 30 deletions: once an input's complaints hold,
  /// TwoStep's later steps skip the ILP, and inputs reach that point after
  /// 2 to 10 steps, so longer sessions would mostly measure how soon an
  /// input resolves instead of the ILP.
  int max_deletions;
};

Shape ShapeOf(const std::string& workload) {
  if (workload == "dblp_train") return {&rain::MakeHolisticRanker, 100};
  return {&rain::MakeTwoStepRanker, 30};
}

/// Everything one session produced.
struct SessionRun {
  bool ok = true;
  std::string error;
  double total_s = 0.0;
  /// Wall time of every step that ran an iteration, in order.
  std::vector<double> step_s;
  std::vector<size_t> deletions;
  int64_t ilp_timeouts = 0;
  // Traced sessions only.
  CoreSplit core;
  std::vector<ProbeRecord> probes;
  std::vector<std::string> probe_errors;
  rain::BindCacheStats bind;
  size_t arena_nodes = 0;
  size_t encode_reuses = 0;
};

SessionRun RunSession(const BenchInputs& in, const Shape& shape, bool traced,
                      int64_t unit, std::vector<Span>* spans) {
  SessionRun run;
  const double t0 = NowSeconds();
  auto pipeline = rain::serve::MakeSessionPipeline(in.hosted);
  PhaseObserver observer;
  rain::ExecutionOptions exec;
  exec.set_parallelism(kParallelism);
  TracingRanker* tracer = nullptr;
  std::unique_ptr<rain::Ranker> ranker = shape.make_ranker();
  if (traced) {
    auto decorated = std::make_unique<TracingRanker>(std::move(ranker), pipeline.get());
    tracer = decorated.get();
    ranker = std::move(decorated);
    exec.add_observer(&observer);
  }
  auto built = rain::DebugSessionBuilder(pipeline.get())
                   .ranker(std::move(ranker))
                   .top_k_per_iter(kTopK)
                   .max_deletions(shape.max_deletions)
                   .stop_when_resolved(false)
                   .set_execution(exec)
                   .workload(in.workload)
                   .Build();
  if (!built.ok()) {
    run.ok = false;
    run.error = built.status().ToString();
    return run;
  }
  rain::DebugSession& session = **built;
  while (!session.finished()) {
    const size_t probes_before = tracer != nullptr ? tracer->records().size() : 0;
    const double s0 = NowSeconds();
    auto step = session.Step();
    const double s1 = NowSeconds();
    if (!step.ok()) {
      run.ok = false;
      run.error = step.status().ToString();
      break;
    }
    if (!step->advanced()) continue;  // the terminal no-op step
    run.step_s.push_back(s1 - s0);
    if (step->stats.note.find("ilp budget exhausted") != std::string::npos) {
      ++run.ilp_timeouts;
    }
    if (tracer != nullptr) {
      double probe_s = 0.0;
      for (size_t i = probes_before; i < tracer->records().size(); ++i) {
        probe_s += tracer->records()[i].probe_s;
      }
      for (const StepPhases& phases : observer.TakeSteps()) {
        run.core.Add(phases, s1 - s0, probe_s);
      }
      spans->push_back({"step", unit, s0, s1 - probe_s});
    }
  }
  run.total_s = NowSeconds() - t0;
  run.deletions = session.report().deletions;
  if (tracer != nullptr) {
    run.probes = tracer->records();
    run.probe_errors = tracer->errors();
    run.bind = session.bind_cache_stats();
    run.arena_nodes = session.pipeline()->arena()->num_nodes();
    run.encode_reuses = session.encode_reuses();
    double probe_total = 0.0;
    for (const ProbeRecord& r : run.probes) probe_total += r.probe_s;
    run.total_s -= probe_total;
    spans->push_back({"session", unit, t0, t0 + run.total_s});
  }
  return run;
}

/// One pool instance: its inputs, the reference explanation every session
/// on it must reproduce, and the sessions run on it.
struct Instance {
  const BenchInputs* in = nullptr;
  std::vector<uint8_t> planted;
  bool has_reference = false;
  std::vector<size_t> reference;
  std::vector<SessionRun> plain, traced;
};

/// The output checks every session passes: a complete explanation, the
/// same deletion sequence as the instance's first session, no ILP time-out,
/// and agreement of the traced run's probes with the session.
void CheckSession(const SessionRun& run, const Shape& shape, const std::string& who,
                  Instance* inst, Outcome* out) {
  out->attempted += 1 + static_cast<int64_t>(run.step_s.size());
  if (!run.ok) out->Fail(who + ": " + run.error);
  if (!inst->has_reference) {
    inst->has_reference = true;
    inst->reference = run.deletions;
    if (static_cast<int>(run.deletions.size()) != shape.max_deletions) {
      out->Fail(who + ": explanation has " + std::to_string(run.deletions.size()) +
                " deletions, expected " + std::to_string(shape.max_deletions));
    }
  } else if (run.deletions != inst->reference) {
    out->Fail(who + " deleted a different sequence than the instance's first session");
  }
  if (run.ilp_timeouts > 0) {
    out->Fail(who + ": " + std::to_string(run.ilp_timeouts) +
              " step(s) hit the ILP time limit");
  }
  for (const std::string& e : run.probe_errors) out->Fail(who + ": " + e);
}

/// Mean over instances of a per-instance median: the median filters host
/// noise within an instance, the mean averages over the drawn inputs.
template <typename Fn>
double MeanOfMedians(const std::vector<Instance>& pool, Fn&& samples) {
  std::vector<double> medians;
  for (const Instance& inst : pool) {
    std::vector<double> v = samples(inst);
    if (!v.empty()) medians.push_back(Median(std::move(v)));
  }
  return Mean(medians);
}

}  // namespace

Outcome RunSessionWorkload(const Options& opt) {
  Outcome out;
  const Shape shape = ShapeOf(opt.workload);

  // Set-up is repeated so its median is steady; the last pool is used.
  std::vector<double> setup_s;
  std::vector<BenchInputs> inputs;
  for (int r = 0; r < kSetupRepeats; ++r) {
    inputs.clear();  // one pool alive at a time
    rain::Timer timer;
    inputs = MakePool(opt.workload, opt.seed);
    setup_s.push_back(timer.ElapsedSeconds());
  }
  std::vector<Instance> pool(inputs.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    pool[i].in = &inputs[i];
    pool[i].planted = PlantedCorruptions(
        CleanLabels(opt.workload, InstanceSeed(opt.seed, static_cast<int>(i))),
        inputs[i].hosted.train);
  }

  // Warm-up: untimed sessions on the first instance wake every worker
  // thread and fill caches; they are checked like every other session.
  std::vector<Span> spans;
  const double warm_end = NowSeconds() + kWarmupSeconds;
  while (out.errors.empty() && NowSeconds() < warm_end) {
    CheckSession(RunSession(*pool[0].in, shape, false, -1, &spans), shape,
                 "warm-up session", &pool[0], &out);
  }

  // The timed run cycles untraced sessions over the pool until every
  // instance has run and the time is up. The traced run alternates an
  // untraced and a traced session per instance, so the tracing overhead is
  // measured under the same host conditions.
  const double start = NowSeconds();
  int64_t steps = 0;
  for (int64_t unit = 0; out.errors.empty(); ++unit) {
    const bool trace_this = opt.trace && unit % 2 == 1;
    const size_t index = static_cast<size_t>(opt.trace ? unit / 2 : unit) % pool.size();
    Instance& inst = pool[index];
    SessionRun run = RunSession(*inst.in, shape, trace_this, unit, &spans);
    CheckSession(run, shape, "instance " + std::to_string(index) + " session " +
                          std::to_string(unit), &inst, &out);
    if (!trace_this) steps += static_cast<int64_t>(run.step_s.size());
    (trace_this ? inst.traced : inst.plain).push_back(std::move(run));
    const bool covered = opt.trace ? unit >= 1 : unit + 1 >= static_cast<int64_t>(pool.size());
    if (covered && NowSeconds() - start >= opt.seconds) break;
  }
  const double elapsed = NowSeconds() - start;

  int64_t sessions = 0;
  double precision = 0.0;
  int64_t covered = 0;
  for (const Instance& inst : pool) {
    sessions += static_cast<int64_t>(inst.plain.size());
    if (inst.plain.empty()) continue;
    ++covered;
    precision += BugPrecision(inst.reference, inst.planted);
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s seed %llu: %lld untraced sessions over %lld of %zu instances, %lld "
                "steps, %.2f s measured",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                static_cast<long long>(sessions), static_cast<long long>(covered),
                pool.size(), static_cast<long long>(steps), elapsed);
  out.notes.push_back(buf);

  if (!opt.trace) {
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("session_s", MeanOfMedians(pool, [](const Instance& inst) {
              std::vector<double> v;
              for (const SessionRun& r : inst.plain) v.push_back(r.total_s);
              return v;
            }), "s");
    out.Add("first_step_ms", 1e3 * MeanOfMedians(pool, [](const Instance& inst) {
              std::vector<double> v;
              for (const SessionRun& r : inst.plain) {
                if (!r.step_s.empty()) v.push_back(r.step_s.front());
              }
              return v;
            }), "ms");
    out.Add("turns_per_s", static_cast<double>(steps) / elapsed, "1/s");
    // A step at a given position repeats the same work in every session on
    // an instance, so its median over the repeats filters host noise; each
    // instance's turn percentiles run over those per-position medians.
    const auto step_medians = [](const Instance& inst) {
      std::vector<double> medians;
      for (size_t pos = 0;; ++pos) {
        std::vector<double> repeats;
        for (const SessionRun& r : inst.plain) {
          if (pos < r.step_s.size()) repeats.push_back(r.step_s[pos]);
        }
        if (repeats.empty()) return medians;
        medians.push_back(Median(std::move(repeats)));
      }
    };
    const auto mean_quantile = [&](double q) {
      std::vector<double> per_instance;
      for (const Instance& inst : pool) {
        std::vector<double> medians = step_medians(inst);
        if (!medians.empty()) per_instance.push_back(Quantile(std::move(medians), q));
      }
      return Mean(per_instance);
    };
    out.Add("turn_p50_ms", 1e3 * mean_quantile(0.5), "ms");
    out.Add("turn_p99_ms", 1e3 * mean_quantile(0.99), "ms");
    out.Add("bug_precision", covered > 0 ? precision / static_cast<double>(covered) : 0.0,
            "fraction");
    out.Add("peak_rss_mb", PeakRssMb(), "MiB");
    return out;
  }

  CoreSplit core;
  std::vector<ProbeRecord> probes;
  double rebound = 0, reused = 0, full = 0, nodes = 0, reuses = 0, n = 0;
  for (const Instance& inst : pool) {
    for (const SessionRun& run : inst.traced) {
      core.Merge(run.core);
      probes.insert(probes.end(), run.probes.begin(), run.probes.end());
      rebound += static_cast<double>(run.bind.entries_rebound);
      reused += static_cast<double>(run.bind.entries_reused);
      full += static_cast<double>(run.bind.full_binds);
      nodes += static_cast<double>(run.arena_nodes);
      reuses += static_cast<double>(run.encode_reuses);
      ++n;
    }
  }
  n = n > 0 ? n : 1.0;
  core.Report(opt.workload, &out);
  ReportProbes(probes, &out);
  out.Add("relax.encode_cache_reuses", reuses / n, "count");
  out.Add("bind.entries_rebound", rebound / n, "count");
  out.Add("bind.entries_reused", reused / n, "count");
  out.Add("bind.reuse_ratio", rebound + reused > 0 ? reused / (rebound + reused) : 0.0,
          "fraction");
  out.Add("bind.full_binds", full / n, "count");
  out.Add("provenance.arena_nodes", nodes / n, "count");
  // Overhead of the traced sessions over their untraced twins (same
  // instances, interleaved), probe time excluded.
  double plain_sum = 0, traced_sum = 0;
  for (const Instance& inst : pool) {
    const size_t pairs = std::min(inst.plain.size(), inst.traced.size());
    for (size_t i = 0; i < pairs; ++i) {
      plain_sum += inst.plain[i].total_s;
      traced_sum += inst.traced[i].total_s;
    }
  }
  out.Add("trace.overhead_pct", plain_sum > 0 ? (traced_sum / plain_sum - 1.0) * 100.0 : 0.0,
          "%");
  WriteSpans(opt, spans);
  return out;
}

}  // namespace perf
