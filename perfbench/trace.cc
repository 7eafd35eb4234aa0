#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/timer.h"
#include "ilp/solver.h"
#include "ilp/tiresias.h"
#include "influence/influence.h"
#include "ml/trainer.h"
#include "relax/relaxed_poly.h"

namespace perf {

using rain::Timer;

TracingRanker::TracingRanker(std::unique_ptr<rain::Ranker> inner,
                             const rain::Query2Pipeline* pipeline)
    : inner_(std::move(inner)),
      pipeline_(pipeline),
      prev_params_(pipeline->model()->params()) {}

rain::Result<rain::RankOutput> TracingRanker::Rank(const rain::RankContext& ctx) {
  auto out = inner_->Rank(ctx);
  if (!out.ok()) return out;
  Timer probes;
  ProbeRecord rec;
  rec.encode_ms = out->encode_seconds * 1e3;
  ProbeTrain(ctx, &rec);
  ProbeInfluence(ctx, *out, &rec);
  if (inner_->name() == "holistic") ProbeRelax(ctx, &rec);
  if (inner_->name() == "twostep") ProbeIlp(ctx, &rec);
  prev_params_ = ctx.model->params();
  rec.probe_s = probes.ElapsedSeconds();
  records_.push_back(rec);
  return out;
}

void TracingRanker::ProbeTrain(const rain::RankContext& ctx, ProbeRecord* rec) {
  std::unique_ptr<rain::Model> model = ctx.model->Clone();
  model->set_params(prev_params_);
  Timer timer;
  auto trained = rain::TrainModel(model.get(), *ctx.train, pipeline_->train_config());
  rec->retrain_ms = timer.ElapsedMillis();
  if (!trained.ok()) {
    errors_.push_back("ml probe: " + trained.status().ToString());
    return;
  }
  rec->lbfgs_iters = trained->iterations;
  if (model->params() != ctx.model->params()) {
    errors_.push_back("ml probe: retrained parameters differ from the session's");
  }
}

void TracingRanker::ProbeInfluence(const rain::RankContext& ctx,
                                   const rain::RankOutput& out, ProbeRecord* rec) {
  const rain::Vec& s = out.cg_solution;
  if (s.empty()) return;
  rain::Vec q(s.size(), 0.0);
  ctx.model->HessianVectorProduct(*ctx.train, s, ctx.influence.l2, &q);
  for (size_t i = 0; i < q.size(); ++i) q[i] += ctx.influence.damping * s[i];

  rain::InfluenceScorer scorer(ctx.model, ctx.train, ctx.influence);
  Timer prepare;
  const rain::Status st = scorer.Prepare(q);
  rec->prepare_ms = prepare.ElapsedMillis();
  if (!st.ok()) {
    errors_.push_back("influence probe: " + st.ToString());
    return;
  }
  rec->cg_iters = scorer.cg_iterations();
  Timer score;
  const std::vector<double> scores = scorer.ScoreAll();
  rec->score_all_ms = score.ElapsedMillis();

  // The rebuilt q reproduces s only up to the CG tolerance, so the probe's
  // scores must match the ranker's closely, not bitwise.
  double max_abs = 0.0, max_dev = 0.0;
  for (size_t i = 0; i < scores.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(out.scores[i]));
    max_dev = std::max(max_dev, std::fabs(out.scores[i] - scores[i]));
  }
  if (max_dev > 1e-4 * max_abs) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "influence probe: scores deviate by %.3g of max",
                  max_abs > 0 ? max_dev / max_abs : max_dev);
    errors_.push_back(buf);
  }
}

void TracingRanker::ProbeRelax(const rain::RankContext& ctx, ProbeRecord* rec) {
  std::vector<rain::PolyId> roots;
  for (const rain::BoundComplaint& c : *ctx.complaints) {
    if (c.ShouldRank() && c.poly != rain::kInvalidPoly) roots.push_back(c.poly);
  }
  rec->roots = roots.size();
  if (roots.empty()) return;
  const rain::Vec probs = ctx.predictions->RelaxedAssignment(*ctx.arena);
  const rain::RelaxedPoly batch(ctx.arena, roots, ctx.relax_mode);
  std::vector<rain::Vec> grads;
  Timer timer;
  batch.GradientBatch(probs, &grads, ctx.parallelism);
  rec->gradient_batch_ms = timer.ElapsedMillis();
}

void TracingRanker::ProbeIlp(const rain::RankContext& ctx, ProbeRecord* rec) {
  std::vector<rain::IlpComplaint> complaints;
  for (const rain::BoundComplaint& c : *ctx.complaints) {
    if (!c.violated || c.poly == rain::kInvalidPoly) continue;
    rain::IlpComplaint ic;
    ic.poly = c.poly;
    ic.sense = c.op == rain::ComplaintOp::kEq
                   ? rain::ConstraintSense::kEq
                   : (c.op == rain::ComplaintOp::kLe ? rain::ConstraintSense::kLe
                                                     : rain::ConstraintSense::kGe);
    ic.rhs = c.target;
    complaints.push_back(ic);
  }
  if (complaints.empty()) return;
  auto enc = rain::EncodeTiresias(ctx.arena, *ctx.predictions, complaints);
  if (!enc.ok()) {
    errors_.push_back("ilp probe: " + enc.status().ToString());
    return;
  }
  rain::IlpSolveOptions opts = ctx.ilp;
  if (opts.coupling_constraint < 0) opts.coupling_constraint = enc->coupling_constraint;
  if (opts.coupling_constraints.empty()) {
    opts.coupling_constraints = enc->complaint_constraints;
  }
  if (opts.warm_start.empty()) opts.warm_start = rain::BuildTiresiasWarmStart(*enc);
  Timer timer;
  auto sol = rain::SolveIlp(enc->problem, opts);
  rec->ilp_solve_ms = timer.ElapsedMillis();
  rec->ilp_ran = true;
  if (!sol.ok()) {
    errors_.push_back("ilp probe: " + sol.status().ToString());
    return;
  }
  rec->ilp_nodes = sol->nodes_explored;
  rec->ilp_warm_start_used = sol->warm_start_used;
  rec->ilp_timed_out = sol->timed_out || !sol->optimal;
}

void PhaseObserver::OnIterationStart(int, const rain::DebugReport&) {
  std::lock_guard<std::mutex> lock(mu_);
  steps_.emplace_back();
  steps_.back().start_s = NowSeconds();
  steps_.back().end_s = steps_.back().start_s;
}

void PhaseObserver::OnPhaseComplete(int, rain::DebugPhase phase, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (steps_.empty()) return;
  steps_.back().seconds[static_cast<size_t>(phase)] += seconds;
  steps_.back().end_s = NowSeconds();
}

std::vector<StepPhases> PhaseObserver::TakeSteps() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(steps_, {});
}

void CoreSplit::Add(const StepPhases& phases, double wall_s, double probe_s) {
  using rain::DebugPhase;
  train_s += phases.seconds[static_cast<size_t>(DebugPhase::kTrain)];
  bind_s += phases.seconds[static_cast<size_t>(DebugPhase::kBind)];
  rank_s += phases.seconds[static_cast<size_t>(DebugPhase::kRank)];
  fix_s += phases.seconds[static_cast<size_t>(DebugPhase::kFix)];
  step_s += wall_s - probe_s;
  ++steps;
}

void CoreSplit::Merge(const CoreSplit& other) {
  train_s += other.train_s;
  bind_s += other.bind_s;
  rank_s += other.rank_s;
  fix_s += other.fix_s;
  step_s += other.step_s;
  steps += other.steps;
}

void CoreSplit::Report(const std::string& workload, Outcome* out) const {
  const double n = steps > 0 ? static_cast<double>(steps) : 1.0;
  const double unaccounted = step_s - (train_s + bind_s + rank_s + fix_s);
  out->Add("core.step_ms", step_s / n * 1e3, "ms");
  out->Add("core.train_ms", train_s / n * 1e3, "ms");
  out->Add("core.bind_ms", bind_s / n * 1e3, "ms");
  out->Add("core.rank_ms", rank_s / n * 1e3, "ms");
  out->Add("core.fix_ms", fix_s / n * 1e3, "ms");
  out->Add("core.unaccounted_ms", unaccounted / n * 1e3, "ms");
  const double share = step_s > 0 ? 100.0 / step_s : 0.0;
  out->Add("core.unaccounted_pct", unaccounted * share, "%");
  out->Add("core.steps", static_cast<double>(steps), "count");
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s phase shares of step wall time over %lld steps: train %.3f, "
                "bind %.3f, rank %.3f, fix %.3f, unaccounted %.3f",
                workload.c_str(), static_cast<long long>(steps),
                train_s * share / 100, bind_s * share / 100, rank_s * share / 100,
                fix_s * share / 100, unaccounted * share / 100);
  out->notes.push_back(buf);
}

void ReportProbes(const std::vector<ProbeRecord>& records, Outcome* out) {
  // Per rank call means; layers a workload never reaches report 0.
  const double n = records.empty() ? 1.0 : static_cast<double>(records.size());
  double lbfgs = 0, retrain = 0, cg = 0, prepare = 0, score = 0;
  double relax_encode = 0, gradient = 0, roots = 0;
  double ilp_encode = 0, solve = 0, nodes = 0, warm = 0;
  int64_t timeouts = 0, relax_calls = 0, ilp_calls = 0;
  for (const ProbeRecord& r : records) {
    lbfgs += r.lbfgs_iters;
    retrain += r.retrain_ms;
    cg += r.cg_iters;
    prepare += r.prepare_ms;
    score += r.score_all_ms;
    if (r.roots > 0) {
      ++relax_calls;
      relax_encode += r.encode_ms;
      gradient += r.gradient_batch_ms;
      roots += static_cast<double>(r.roots);
    }
    if (r.ilp_ran) {
      ++ilp_calls;
      ilp_encode += r.encode_ms;
      solve += r.ilp_solve_ms;
      nodes += static_cast<double>(r.ilp_nodes);
      warm += r.ilp_warm_start_used ? 1 : 0;
      timeouts += r.ilp_timed_out ? 1 : 0;
    }
  }
  const auto per = [](double sum, int64_t calls) {
    return calls > 0 ? sum / static_cast<double>(calls) : 0.0;
  };
  out->Add("ml.lbfgs_iters", lbfgs / n, "count");
  out->Add("ml.retrain_ms", retrain / n, "ms");
  out->Add("influence.cg_iters", cg / n, "count");
  out->Add("influence.prepare_ms", prepare / n, "ms");
  out->Add("influence.score_all_ms", score / n, "ms");
  out->Add("relax.encode_ms", per(relax_encode, relax_calls), "ms");
  out->Add("relax.gradient_batch_ms", per(gradient, relax_calls), "ms");
  out->Add("relax.roots", per(roots, relax_calls), "count");
  out->Add("ilp.encode_ms", per(ilp_encode, ilp_calls), "ms");
  out->Add("ilp.solve_ms", per(solve, ilp_calls), "ms");
  out->Add("ilp.nodes_explored", per(nodes, ilp_calls), "count");
  out->Add("ilp.warm_start_used", per(warm, ilp_calls), "fraction");
  out->Add("ilp.timeouts", static_cast<double>(timeouts), "count");
}

}  // namespace perf
