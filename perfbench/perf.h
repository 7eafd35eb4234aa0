// Shared declarations of the rain_perf benchmark program.
//
// rain_perf runs one named workload through Rain's public API for a fixed
// wall-clock budget, checks the outputs, and prints one JSON result line.
// `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate run
// that reports per-layer metrics measured from the benchmark's own code
// (observers, a ranker decorator, spans around service calls).
#ifndef RAIN_PERFBENCH_PERF_H_
#define RAIN_PERFBENCH_PERF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/debugger.h"
#include "serve/debug_service.h"

namespace perf {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Identifies the measured source tree (git sha or content digest).
  std::string source_id = "unknown";
  /// Directory the traced run writes its spans into ("" = do not write).
  std::string trace_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced: metrics in report order, the operation
/// counts, and every failed output check (a non-empty list fails the run).
struct Outcome {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  /// Human-readable lines printed before the JSON result (phase shares...).
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string error) {
    ++failed;
    errors.push_back(std::move(error));
  }
};

/// One timed interval kept in memory by the traced run and written out at
/// the end: `unit` groups the spans of one session or turn.
struct Span {
  std::string name;
  int64_t unit = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

// --- Statistics (main.cc).
/// Harrell-Davis estimate of the q-quantile, q in (0, 1); 0 for an empty
/// sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// Peak resident set size of this process, in MiB.
double PeakRssMb();
/// Seconds since the process-wide benchmark epoch (span timestamps).
double NowSeconds();

// --- Inputs (datasets.cc). Every bundle comes from the library's own
// generators. A run draws a pool of independent instances from its seed, so
// its figures average over inputs instead of resting on one draw.
struct BenchInputs {
  rain::serve::HostedDataset hosted;
  /// The complaint workload sessions run (hosted default plus extras).
  std::vector<rain::QueryComplaints> workload;
};

/// Instances in one run's pool.
int PoolSize(const std::string& workload);
/// Generator seed of pool instance `instance` for run seed `seed`.
uint64_t InstanceSeed(uint64_t seed, int instance);
/// One instance of `workload`'s inputs:
///  - dblp_train: DBLP Q1 COUNT, 40,000 x 17 training rows, 400 query
///    rows, 50% of the match labels flipped;
///  - adult_ilp: Adult Q6 + Q7 (gender and age-decade AVG complaints),
///    3,000 training rows, 1,500 query rows, 30% corruption;
///  - serve_mixed: Adult Q6 + Q7 at 2,000 training and 20,000 query rows.
/// The bundle is named "<workload>-<instance seed>".
BenchInputs MakeInputs(const std::string& workload, uint64_t instance_seed);
/// All `PoolSize(workload)` instances of a run, in instance order.
std::vector<BenchInputs> MakePool(const std::string& workload, uint64_t seed);
/// The generator's training labels before corruption.
std::vector<int> CleanLabels(const std::string& workload, uint64_t instance_seed);
/// Per training row: true when the generator's corruption flipped its label.
std::vector<uint8_t> PlantedCorruptions(const std::vector<int>& clean_labels,
                                        const rain::Dataset& corrupted_train);

/// Share of `deletions` that are planted corruptions (0 when empty).
double BugPrecision(const std::vector<size_t>& deletions,
                    const std::vector<uint8_t>& planted);

// --- Workloads.
Outcome RunSessionWorkload(const Options& options);  // session_workloads.cc
Outcome RunServeWorkload(const Options& options);    // serve_workload.cc

/// Writes `spans` as one JSON array to `<dir>/<workload>-seed<N>.json`.
void WriteSpans(const Options& options, const std::vector<Span>& spans);

}  // namespace perf

#endif  // RAIN_PERFBENCH_PERF_H_
