// Workload inputs, built only from the library's generators
// (src/data, serve/builtin_datasets).
#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"
#include "data/adult.h"
#include "data/dblp.h"
#include "perf.h"
#include "serve/builtin_datasets.h"
#include "sql/planner.h"

namespace perf {
namespace {

using rain::serve::HostedDataset;

constexpr size_t kDblpTrain = 40000;
constexpr size_t kDblpQuery = 400;
constexpr double kDblpCorruption = 0.5;

constexpr size_t kAdultIlpTrain = 3000;
constexpr size_t kAdultIlpQuery = 1500;
constexpr size_t kServeTrain = 2000;
constexpr size_t kServeQuery = 20000;
constexpr double kAdultCorruption = 0.3;

/// The age-decade AVG complaint of Adult Q7: the 40-50 bucket's average
/// predicted income should match a clean pipeline's value.
rain::QueryComplaints AgeDecadeComplaint(const HostedDataset& corrupted,
                                         uint64_t seed) {
  const std::string sql =
      "SELECT agedecade, AVG(predict(*)) AS avg_income FROM adult "
      "GROUP BY agedecade";
  const rain::Value bucket(int64_t{4});

  HostedDataset clean = corrupted;
  rain::AdultConfig cfg;
  cfg.train_size = corrupted.train.size();
  cfg.query_size = corrupted.query_features.size();
  cfg.seed = seed;
  clean.train = rain::MakeAdult(cfg).train;
  auto pipeline = rain::serve::MakeSessionPipeline(clean);
  RAIN_CHECK(pipeline->Train().ok());
  auto result = pipeline->ExecuteSql(sql, /*debug=*/false);
  RAIN_CHECK(result.ok()) << result.status().ToString();
  double target = -1.0;
  for (const auto& row : result->table.rows) {
    if (row[0] == bucket) target = *row[1].ToNumeric();
  }
  RAIN_CHECK(target >= 0.0) << "age bucket 40-50 missing from the query set";

  auto plan = rain::sql::PlanQuery(sql, pipeline->catalog());
  RAIN_CHECK(plan.ok()) << plan.status().ToString();
  rain::QueryComplaints qc;
  qc.query = *plan;
  qc.complaints = {rain::ComplaintSpec::ValueEq("avg_income", target, {bucket})};
  return qc;
}

}  // namespace

int PoolSize(const std::string& workload) {
  if (workload == "dblp_train") return 4;
  if (workload == "adult_ilp") return 40;
  return 32;
}

uint64_t InstanceSeed(uint64_t seed, int instance) {
  return seed * 1000 + static_cast<uint64_t>(instance);
}

BenchInputs MakeInputs(const std::string& workload, uint64_t instance_seed) {
  BenchInputs in;
  if (workload == "dblp_train") {
    in.hosted = rain::serve::MakeDblpHostedDataset(kDblpTrain, kDblpQuery,
                                                   kDblpCorruption, instance_seed);
    in.workload = in.hosted.default_workload;
  } else {
    const bool serve = workload == "serve_mixed";
    in.hosted = rain::serve::MakeAdultHostedDataset(
        serve ? kServeTrain : kAdultIlpTrain, serve ? kServeQuery : kAdultIlpQuery,
        kAdultCorruption, instance_seed);
    in.workload = in.hosted.default_workload;
    in.workload.push_back(AgeDecadeComplaint(in.hosted, instance_seed));
  }
  in.hosted.name = workload + "-" + std::to_string(instance_seed);
  return in;
}

std::vector<BenchInputs> MakePool(const std::string& workload, uint64_t seed) {
  std::vector<BenchInputs> pool;
  for (int i = 0; i < PoolSize(workload); ++i) {
    pool.push_back(MakeInputs(workload, InstanceSeed(seed, i)));
  }
  return pool;
}

std::vector<int> CleanLabels(const std::string& workload, uint64_t instance_seed) {
  if (workload == "dblp_train") {
    rain::DblpConfig cfg;
    cfg.train_size = kDblpTrain;
    cfg.query_size = kDblpQuery;
    cfg.seed = instance_seed;
    return rain::MakeDblp(cfg).train.labels();
  }
  rain::AdultConfig cfg;
  const bool serve = workload == "serve_mixed";
  cfg.train_size = serve ? kServeTrain : kAdultIlpTrain;
  cfg.query_size = serve ? kServeQuery : kAdultIlpQuery;
  cfg.seed = instance_seed;
  return rain::MakeAdult(cfg).train.labels();
}

std::vector<uint8_t> PlantedCorruptions(const std::vector<int>& clean_labels,
                                        const rain::Dataset& corrupted_train) {
  RAIN_CHECK(clean_labels.size() == corrupted_train.size());
  std::vector<uint8_t> planted(clean_labels.size(), 0);
  for (size_t i = 0; i < clean_labels.size(); ++i) {
    planted[i] = clean_labels[i] != corrupted_train.label(i);
  }
  return planted;
}

double BugPrecision(const std::vector<size_t>& deletions,
                    const std::vector<uint8_t>& planted) {
  if (deletions.empty()) return 0.0;
  size_t hits = 0;
  for (size_t row : deletions) hits += planted[row];
  return static_cast<double>(hits) / static_cast<double>(deletions.size());
}

}  // namespace perf
