// rain_perf: the end-to-end benchmark program.
//
//   rain_perf --workload dblp_train|adult_ilp|serve_mixed --seed N
//             --seconds S --trace 0|1 [--source ID] [--trace-dir DIR]
//
// Prints a host stamp, one line per metric (name, value, unit), and as the
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when an output check failed, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "perf.h"
#include "tensor/vector_ops.h"

namespace perf {

namespace {

// Continued fraction of the incomplete beta function (modified Lentz).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  const auto guard = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 10000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    const double step = d * c;
    h *= step;
    if (std::fabs(step - 1.0) < 1e-15) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double IncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                                a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * BetaContinuedFraction(a, b, x) / a;
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

}  // namespace

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 1) return values[0];
  // Harrell-Davis: a Beta((n+1)q, (n+1)(1-q))-weighted mean of all order
  // statistics, which estimates tail quantiles with far less run-to-run
  // variance than a single order statistic.
  const double a = static_cast<double>(n + 1) * q;
  const double b = static_cast<double>(n + 1) * (1.0 - q);
  double estimate = 0.0, prev = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    const double cur = IncompleteBeta(a, b, static_cast<double>(i) / static_cast<double>(n));
    estimate += (cur - prev) * values[i - 1];
    prev = cur;
  }
  return estimate;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

void WriteSpans(const Options& options, const std::vector<Span>& spans) {
  if (options.trace_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(options.trace_dir, ec);
  const std::string path = options.trace_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "rain_perf: cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "  {\"name\": \"%s\", \"unit\": %lld, \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                 s.name.c_str(), static_cast<long long>(s.unit), s.start_s, s.end_s,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every timed run reports all of these, in this order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"session_s", "s"},     {"first_step_ms", "ms"},
    {"turns_per_s", "1/s"},    {"turn_p50_ms", "ms"},  {"turn_p99_ms", "ms"},
    {"bug_precision", "fraction"}, {"peak_rss_mb", "MiB"},
};

// Every traced run reports all of these; a layer the workload never calls
// reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"core.step_ms", "ms"},
    {"core.train_ms", "ms"},
    {"core.bind_ms", "ms"},
    {"core.rank_ms", "ms"},
    {"core.fix_ms", "ms"},
    {"core.unaccounted_ms", "ms"},
    {"core.unaccounted_pct", "%"},
    {"core.steps", "count"},
    {"ml.lbfgs_iters", "count"},
    {"ml.retrain_ms", "ms"},
    {"influence.cg_iters", "count"},
    {"influence.prepare_ms", "ms"},
    {"influence.score_all_ms", "ms"},
    {"relax.encode_ms", "ms"},
    {"relax.gradient_batch_ms", "ms"},
    {"relax.roots", "count"},
    {"relax.encode_cache_reuses", "count"},
    {"ilp.encode_ms", "ms"},
    {"ilp.solve_ms", "ms"},
    {"ilp.nodes_explored", "count"},
    {"ilp.warm_start_used", "fraction"},
    {"ilp.timeouts", "count"},
    {"bind.entries_rebound", "count"},
    {"bind.entries_reused", "count"},
    {"bind.reuse_ratio", "fraction"},
    {"bind.full_binds", "count"},
    {"provenance.arena_nodes", "count"},
    {"incremental.update_ms", "ms"},
    {"incremental.touched_rows", "count"},
    {"incremental.incremental_share", "fraction"},
    {"incremental.entries_cached", "count"},
    {"incremental.patched_scores", "count"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.step_ms", "ms"},
    {"serve.open_ms", "ms"},
    {"serve.refusals", "count"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "rain_perf: %s\nusage: rain_perf --workload dblp_train|adult_ilp|serve_mixed"
               " --seed N --seconds S --trace 0|1 [--source ID] [--trace-dir DIR]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed must be an unsigned integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (flag == "--source") {
      opt.source_id = value;
    } else if (flag == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload != "dblp_train" && opt.workload != "adult_ilp" &&
      opt.workload != "serve_mixed") {
    Usage("unknown --workload");
  }
  return opt;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  using namespace perf;
  const Options opt = ParseArgs(argc, argv);
  const char* simd_cap = std::getenv("RAIN_SIMD");
  std::printf(
      "host {\"nproc\": %u, \"simd\": \"%s\", \"rain_simd\": \"%s\", \"pool_threads\": %d, "
      "\"source\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d}\n",
      std::thread::hardware_concurrency(), rain::vec::simd::Backend(),
      simd_cap != nullptr ? simd_cap : "", rain::ThreadPool::Global().num_threads(),
      opt.source_id.c_str(), opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  Outcome out = opt.workload == "serve_mixed" ? RunServeWorkload(opt)
                                              : RunSessionWorkload(opt);
  for (const std::string& note : out.notes) std::printf("note %s\n", note.c_str());
  for (const std::string& error : out.errors) {
    std::fprintf(stderr, "rain_perf: CHECK FAILED: %s\n", error.c_str());
  }

  // Order the metrics by the declared list; a per-layer metric the workload
  // never produced belongs to a layer it does not call and reads 0.
  std::vector<Metric> metrics;
  bool complete = true;
  const auto emit = [&](const MetricSpec* begin, const MetricSpec* end, bool zero_fill) {
    for (const MetricSpec* spec = begin; spec != end; ++spec) {
      auto it = std::find_if(out.metrics.begin(), out.metrics.end(),
                             [&](const Metric& m) { return m.name == spec->name; });
      if (it != out.metrics.end()) {
        if (it->unit != spec->unit) {
          std::fprintf(stderr, "rain_perf: %s reported in %s, declared %s\n", spec->name,
                       it->unit.c_str(), spec->unit);
          complete = false;
        }
        metrics.push_back({spec->name, it->value, spec->unit});
      } else if (zero_fill) {
        metrics.push_back({spec->name, 0.0, spec->unit});
      } else {
        complete = false;
      }
    }
  };
  if (opt.trace) {
    emit(std::begin(kPerLayer), std::end(kPerLayer), true);
  } else {
    emit(std::begin(kEndToEnd), std::end(kEndToEnd), false);
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = out.failed == 0 && out.errors.empty() && complete;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
