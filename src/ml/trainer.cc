#include "ml/trainer.h"

#include <cmath>
#include <limits>
#include <utility>

#include "tensor/cholesky.h"

namespace rain {

namespace {

/// Newton's method on the exact Hessian, from the start point's loss `fx`,
/// gradient and Hessian: each iteration factors H, steps along −H⁻¹g and
/// backtracks with L-BFGS's Armijo constants. Every line-search probe is
/// one Hessian pass, so the accepted probe already carries the next
/// iteration's gradient and Hessian. The pass's block layout ignores
/// workers and shards, so the parameters are bitwise identical at every
/// parallelism and shard count.
Result<TrainReport> TrainNewton(Model* model, const Dataset& data,
                                const TrainConfig& config, double fx, Vec grad,
                                Matrix hess) {
  const LbfgsOptions line_search;
  Vec theta = model->params();
  Vec grad_new;
  Matrix hess_new;
  TrainReport report;
  for (int iter = 0;; ++iter) {
    report.iterations = iter;
    report.final_loss = fx;
    report.grad_norm = vec::NormInf(grad);
    if (report.grad_norm <= config.grad_tol) {
      report.converged = true;
      break;
    }
    if (iter >= config.max_iters) break;
    if (config.cancel != nullptr && config.cancel->ShouldStop()) {
      report.interrupted = true;
      break;
    }
    RAIN_RETURN_NOT_OK(CholeskyFactor(&hess));
    Vec direction = grad;
    CholeskySolve(hess, &direction);
    vec::Scale(-1.0, &direction);
    const double dg = vec::Dot(direction, grad);

    double step = 1.0;
    bool accepted = false;
    Vec x_new;
    while (step >= line_search.min_step) {
      x_new = theta;
      vec::Axpy(step, direction, &x_new);
      model->set_params(x_new);
      double f_new = 0.0;
      model->MeanLossGradientHessian(data, config.l2, &grad_new, &hess_new, &f_new);
      // A probe that passes the convergence test is taken even when the
      // loss change is below its rounding noise, where Armijo's test
      // would backtrack to min_step for nothing.
      if (std::isfinite(f_new) &&
          (f_new <= fx + line_search.armijo_c1 * step * dg ||
           vec::NormInf(grad_new) <= config.grad_tol)) {
        fx = f_new;
        accepted = true;
        break;
      }
      step *= line_search.backtrack;
    }
    // A failed line search means numerical stationarity, as in L-BFGS.
    if (!accepted) break;
    theta = std::move(x_new);
    std::swap(grad, grad_new);
    std::swap(hess, hess_new);
  }
  model->set_params(theta);
  return report;
}

}  // namespace

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
  {
    double fx = 0.0;
    Vec grad;
    Matrix hess;
    if (model->MeanLossGradientHessian(data, config.l2, &grad, &hess, &fx)) {
      return TrainNewton(model, data, config, fx, std::move(grad), std::move(hess));
    }
  }

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
