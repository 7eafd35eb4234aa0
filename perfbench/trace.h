// Per-layer instrumentation for the traced run, built only from public
// extension points: a `Ranker` decorator that re-runs each layer's public
// functions on the step's own inputs, and a `DebugObserver` that records
// phase times.
#ifndef RAIN_PERFBENCH_TRACE_H_
#define RAIN_PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/ranker.h"
#include "core/session.h"
#include "perf.h"

namespace perf {

/// What the decorator measured around one `Rank` call.
struct ProbeRecord {
  /// Wall time of all probes in this call. The session reports the wrapped
  /// ranker's own encode/rank time as the rank phase, so only the step's
  /// wall time needs this subtracted.
  double probe_s = 0.0;
  /// `RankOutput::encode_seconds` of the wrapped ranker.
  double encode_ms = 0.0;
  // ml: retrain of this step's train phase from the previous parameters.
  int lbfgs_iters = 0;
  double retrain_ms = 0.0;
  // influence: Prepare/ScoreAll on q rebuilt from the ranker's CG solution.
  int cg_iters = 0;
  double prepare_ms = 0.0;
  double score_all_ms = 0.0;
  // relax (holistic rankers): one RelaxedPoly batch + GradientBatch.
  double gradient_batch_ms = 0.0;
  size_t roots = 0;
  // ilp (twostep rankers): EncodeTiresias + SolveIlp.
  bool ilp_ran = false;
  double ilp_solve_ms = 0.0;
  int64_t ilp_nodes = 0;
  bool ilp_warm_start_used = false;
  bool ilp_timed_out = false;
};

/// \brief Ranker decorator of the traced run.
///
/// Forwards `Rank` to the wrapped ranker unchanged (its output is returned
/// as is), then probes the layers beneath it on the same context:
///  - ml: clones `ctx.model`, restores the parameters seen at the previous
///    `Rank` call, re-runs `TrainModel` on `ctx.train`, and checks the
///    result equals the session's parameters bitwise;
///  - influence: rebuilds q = (H + damping I) s from the ranker's CG
///    solution s and times `InfluenceScorer::Prepare` / `ScoreAll`,
///    checking the scores against the ranker's;
///  - relax / ilp: re-runs the holistic relaxation or the TwoStep ILP on
///    `ctx.arena` / `ctx.complaints`.
/// Probes only read session state (the ILP encoding re-creates arena
/// variables the wrapped TwoStep ranker has already created).
class TracingRanker : public rain::Ranker {
 public:
  TracingRanker(std::unique_ptr<rain::Ranker> inner,
                const rain::Query2Pipeline* pipeline);

  std::string name() const override { return inner_->name(); }
  rain::Result<rain::RankOutput> Rank(const rain::RankContext& ctx) override;

  const std::vector<ProbeRecord>& records() const { return records_; }
  /// Probe disagreements with the session (empty when all checks held).
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void ProbeTrain(const rain::RankContext& ctx, ProbeRecord* rec);
  void ProbeInfluence(const rain::RankContext& ctx, const rain::RankOutput& out,
                      ProbeRecord* rec);
  void ProbeRelax(const rain::RankContext& ctx, ProbeRecord* rec);
  void ProbeIlp(const rain::RankContext& ctx, ProbeRecord* rec);

  std::unique_ptr<rain::Ranker> inner_;
  const rain::Query2Pipeline* pipeline_;
  rain::Vec prev_params_;
  std::vector<ProbeRecord> records_;
  std::vector<std::string> errors_;
};

/// Phase times of one step as delivered to a `PhaseObserver`.
struct StepPhases {
  std::array<double, 4> seconds{};  // indexed by rain::DebugPhase
  /// NowSeconds() at OnIterationStart and at the last phase callback.
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Records every iteration's phase times. Callbacks arrive on the stepping
/// thread; `TakeSteps` may be called from another thread once the step it
/// reads has completed.
class PhaseObserver : public rain::DebugObserver {
 public:
  void OnIterationStart(int iteration, const rain::DebugReport& report) override;
  void OnPhaseComplete(int iteration, rain::DebugPhase phase,
                       double seconds) override;

  /// Returns and clears the steps recorded so far.
  std::vector<StepPhases> TakeSteps();

 private:
  std::mutex mu_;
  std::vector<StepPhases> steps_;
};

/// Sums of per-step core phase times, plus the benchmark-measured step wall
/// time they must add up to.
struct CoreSplit {
  double train_s = 0.0, bind_s = 0.0, rank_s = 0.0, fix_s = 0.0, step_s = 0.0;
  int64_t steps = 0;

  /// Adds one step: its observed phases, its wall time, and the probe time
  /// the traced ranker spent inside it.
  void Add(const StepPhases& phases, double wall_s, double probe_s);
  void Merge(const CoreSplit& other);
  /// Appends core.* metrics (per-step means) and the phase-share note.
  void Report(const std::string& workload, Outcome* out) const;
};

/// Aggregates probe records into the ml/influence/relax/ilp metrics.
void ReportProbes(const std::vector<ProbeRecord>& records, Outcome* out);

}  // namespace perf

#endif  // RAIN_PERFBENCH_TRACE_H_
