#include "ml/trainer.h"

#include <limits>

namespace rain {

Result<TrainReport> TrainModel(Model* model, const Dataset& data,
                               const TrainConfig& config) {
  if (model == nullptr) return Status::InvalidArgument("model is null");
  if (data.num_active() == 0) {
    return Status::InvalidArgument("cannot train on an empty (fully deleted) dataset");
  }
  if (data.num_features() != model->num_features()) {
    return Status::InvalidArgument("feature dimensionality mismatch");
  }
  if (data.num_classes() != model->num_classes()) {
    return Status::InvalidArgument("class count mismatch");
  }

  if (config.shards != nullptr && &config.shards->base() != &data) {
    return Status::InvalidArgument(
        "TrainConfig::shards must view the dataset being trained on");
  }

  model->set_parallelism(config.parallelism);

  // One scratch for the whole optimization: the objective is evaluated
  // once per line-search probe, and the per-shard buffers it lends to the
  // sharded kernels stay warm across evaluations (bitwise-identical
  // results; shared_ptr because std::function requires copyable).
  auto scratch = std::make_shared<ShardScratch>();
  Objective objective = [&, shards = config.shards,
                         scratch](const Vec& theta, Vec* grad) {
    model->set_params(theta);
    // One data pass per evaluation (see Model::MeanLossAndGradient).
    if (shards == nullptr) return model->MeanLossAndGradient(data, config.l2, grad);
    // Shard-exact path: bitwise what the sequential loops produce, at
    // every shard count x worker count (see Model's shard kernels).
    const double loss = model->ShardedMeanLossAndGradient(
        *shards, config.l2, grad, config.cancel, scratch.get());
    // A stop request can interrupt the sharded kernel mid-evaluation,
    // leaving a partial gradient. Poison the evaluation (+inf fails the
    // line search's isfinite check) so a cancelled objective is never
    // accepted as an iterate.
    if (config.cancel != nullptr && config.cancel->ShouldStop()) {
      return std::numeric_limits<double>::infinity();
    }
    return loss;
  };

  LbfgsOptions opts;
  opts.max_iters = config.max_iters;
  opts.grad_tol = config.grad_tol;
  opts.memory = config.lbfgs_memory;
  // Sharding pins the optimizer's parameter-dimension vector kernels to
  // their sequential path: chunked dot products would reintroduce a
  // worker-count dependence the shard contract rules out.
  opts.parallelism = config.shards != nullptr ? 1 : config.parallelism;
  opts.cancel = config.cancel;

  LbfgsResult res = LbfgsMinimize(objective, model->params(), opts);
  // Sharded kernels can be interrupted *inside* an objective evaluation
  // (the unsharded ones cannot), which L-BFGS may surface as a failed
  // line search or a zero-gradient "convergence" on the poisoned
  // evaluation rather than through its own per-iteration poll. Reconcile
  // here: a fired token means interrupted, never converged, and `res.x`
  // is still the last genuinely accepted iterate (poisoned steps are
  // rejected by the line search).
  if (config.shards != nullptr && config.cancel != nullptr &&
      config.cancel->ShouldStop()) {
    res.interrupted = true;
    res.converged = false;
  }
  model->set_params(res.x);

  TrainReport report;
  report.iterations = res.iterations;
  report.final_loss = res.fx;
  report.grad_norm = res.grad_norm;
  report.converged = res.converged;
  report.interrupted = res.interrupted;
  return report;
}

}  // namespace rain
