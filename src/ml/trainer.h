#ifndef RAIN_ML_TRAINER_H_
#define RAIN_ML_TRAINER_H_

#include "common/result.h"
#include "ml/lbfgs.h"
#include "ml/model.h"

namespace rain {

/// Training configuration shared by all experiments.
struct TrainConfig {
  /// L2 regularization strength lambda in L = (1/n) sum l + lambda ||theta||^2.
  double l2 = 1e-3;
  int max_iters = 300;
  double grad_tol = 1e-6;
  int lbfgs_memory = 10;
  /// Data-parallel worker count for loss/gradient evaluation during
  /// training (and for the trained model's subsequent batch operations —
  /// TrainModel installs it on the model via Model::set_parallelism).
  /// 1 = exact sequential arithmetic.
  int parallelism = 1;
  /// Optional cooperative stop handle (borrowed; must outlive the call),
  /// polled once per Newton or L-BFGS iteration. On a stop request
  /// training returns the best iterate so far with
  /// `TrainReport::interrupted = true` instead of erroring.
  const CancellationToken* cancel = nullptr;
  /// Optional sharded view over the SAME dataset handed to TrainModel
  /// (borrowed; must outlive the call). When set, loss/gradient
  /// evaluation runs shard-parallel with the models' exact ordered
  /// replay — bitwise-identical to sequential (`parallelism = 1`)
  /// training at every shard count x worker count — and the L-BFGS
  /// parameter-dimension vector kernels are pinned to their sequential
  /// path so the worker count never changes arithmetic. `parallelism`
  /// then only bounds how many shard tasks run concurrently. Newton
  /// training does not read the view: its Hessian pass is already
  /// bitwise identical at every worker count.
  const ShardedDataset* shards = nullptr;
};

struct TrainReport {
  /// Accepted Newton or L-BFGS steps.
  int iterations = 0;
  double final_loss = 0.0;
  double grad_norm = 0.0;
  bool converged = false;
  /// Training stopped on a cancellation/deadline; the model holds the
  /// last accepted (partial) parameters.
  bool interrupted = false;
};

/// \brief Trains `model` on the active rows of `data` by minimizing the
/// regularized mean cross-entropy.
///
/// Models with an exact Hessian at `l2` (Model::MeanLossGradientHessian
/// returns true: small logistic models with l2 > 0) take Newton
/// steps with Armijo backtracking, one Hessian pass per probe; their
/// parameters are bitwise identical at every `parallelism` and `shards`.
/// Every other model runs L-BFGS. Both stop on the same test (infinity
/// norm of the gradient at most `grad_tol`, or `max_iters` iterations)
/// and poll `cancel` once per iteration.
///
/// The model's current parameters are the starting point, so the
/// debugger's train-rank-fix loop gets warm-start retraining for free
/// (Appendix D notes the paper does the same).
Result<TrainReport> TrainModel(Model* model, const Dataset& data,
                               const TrainConfig& config = TrainConfig());

}  // namespace rain

#endif  // RAIN_ML_TRAINER_H_
