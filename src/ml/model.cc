#include "ml/model.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace rain {

int Model::PredictClass(const double* x) const {
  const int c = num_classes();
  std::vector<double> probs(c);
  PredictProba(x, probs.data());
  int best = 0;
  for (int j = 1; j < c; ++j) {
    if (probs[j] > probs[best]) best = j;
  }
  return best;
}

Matrix Model::PredictProbaMatrix(const Dataset& data) const {
  Matrix out(data.size(), static_cast<size_t>(num_classes()));
  ParallelFor(RowParallelism(data.size()), data.size(),
              [this, &data, &out](size_t begin, size_t end, size_t) {
                for (size_t i = begin; i < end; ++i) {
                  PredictProba(data.row(i), out.Row(i));
                }
              });
  return out;
}

double Model::MeanLoss(const Dataset& data, double l2) const {
  RAIN_CHECK(data.num_active() > 0) << "loss over empty dataset";
  double acc = ParallelSum(
      RowParallelism(data.size()), data.size(), [this, &data](size_t begin, size_t end) {
        double chunk_acc = 0.0;
        for (size_t i = begin; i < end; ++i) {
          if (!data.active(i)) continue;
          chunk_acc += ExampleLoss(data.row(i), data.label(i));
        }
        return chunk_acc;
      });
  acc /= static_cast<double>(data.num_active());
  acc += l2 * vec::NormSq(params());
  return acc;
}

void Model::MeanLossGradient(const Dataset& data, double l2, Vec* grad) const {
  RAIN_CHECK(data.num_active() > 0) << "gradient over empty dataset";
  grad->assign(num_params(), 0.0);
  vec::ParallelAccumulate(
      RowParallelism(data.size()), data.size(), grad,
      [this, &data](size_t begin, size_t end, Vec* acc) {
        for (size_t i = begin; i < end; ++i) {
          if (!data.active(i)) continue;
          AddExampleLossGradient(data.row(i), data.label(i), acc);
        }
      });
  const double inv_n = 1.0 / static_cast<double>(data.num_active());
  for (double& g : *grad) g *= inv_n;
  vec::Axpy(2.0 * l2, params(), grad);
}

double Model::MeanLossAndGradient(const Dataset& data, double l2,
                                  Vec* grad) const {
  RAIN_CHECK(data.num_active() > 0) << "loss over empty dataset";
  grad->assign(num_params(), 0.0);
  const size_t n = data.size();
  const int parallelism = RowParallelism(n);
  // The chunk layout and the chunk-ordered combine of both ParallelSum
  // (MeanLoss) and vec::ParallelAccumulate (MeanLossGradient).
  const size_t chunks = ParallelChunkCount(parallelism, n, /*min_grain=*/1);
  double acc = 0.0;
  if (chunks <= 1) {
    AccumulateLossGradient(data, 0, n, grad, &acc);
  } else {
    std::vector<Vec> grads(chunks, Vec(grad->size(), 0.0));
    std::vector<double> losses(chunks, 0.0);
    ParallelFor(parallelism, n, [&](size_t begin, size_t end, size_t chunk) {
      AccumulateLossGradient(data, begin, end, &grads[chunk], &losses[chunk]);
    });
    for (const Vec& g : grads) vec::Axpy(1.0, g, grad);
    for (double l : losses) acc += l;
  }
  const double inv_n = 1.0 / static_cast<double>(data.num_active());
  for (double& g : *grad) g *= inv_n;
  vec::Axpy(2.0 * l2, params(), grad);
  acc /= static_cast<double>(data.num_active());
  acc += l2 * vec::NormSq(params());
  return acc;
}

void Model::AccumulateLossGradient(const Dataset& data, size_t begin, size_t end,
                                   Vec* grad, double* loss) const {
  double acc = *loss;
  for (size_t i = begin; i < end; ++i) {
    if (!data.active(i)) continue;
    AddExampleLossGradient(data.row(i), data.label(i), grad);
    acc += ExampleLoss(data.row(i), data.label(i));
  }
  *loss = acc;
}

// ------------------------------------------------- shard-exact kernels

double Model::LossGradCoeffs(const double*, int, double*) const {
  RAIN_CHECK(false) << "model reports loss_grad_coeff_size() > 0 but does not "
                       "implement LossGradCoeffs";
  return 0.0;
}

void Model::ApplyLossGradCoeffs(const double*, const double*, Vec*) const {
  RAIN_CHECK(false) << "model reports loss_grad_coeff_size() > 0 but does not "
                       "implement ApplyLossGradCoeffs";
}

void Model::HvpCoeffs(const double*, int, const Vec&, double*) const {
  RAIN_CHECK(false) << "model reports hvp_coeff_size() > 0 but does not "
                       "implement HvpCoeffs";
}

void Model::ApplyHvpCoeffs(const double*, const double*, Vec*) const {
  RAIN_CHECK(false) << "model reports hvp_coeff_size() > 0 but does not "
                       "implement ApplyHvpCoeffs";
}

namespace {

/// Runs `per_shard(s)` for every shard, one shard at a time across
/// `parallelism` workers, polling `cancel` before each shard. Returns
/// false when interrupted (some shards skipped; outputs are partial and
/// must be discarded by the caller's own interruption check).
bool RunShardPass(int parallelism, const ShardedDataset& data,
                  const CancellationToken* cancel,
                  const std::function<void(size_t shard)>& per_shard) {
  bool complete = ParallelForCancellable(
      parallelism, data.num_shards(), cancel,
      [&](size_t begin, size_t end, size_t) {
        for (size_t s = begin; s < end; ++s) {
          if (cancel != nullptr && cancel->ShouldStop()) return;
          per_shard(s);
        }
      });
  return complete && (cancel == nullptr || !cancel->ShouldStop());
}

}  // namespace

double Model::ShardedMeanLossAndGradient(const ShardedDataset& data, double l2,
                                         Vec* grad,
                                         const CancellationToken* cancel,
                                         ShardScratch* scratch) const {
  const Dataset& base = data.base();
  RAIN_CHECK(base.num_active() > 0) << "loss over empty dataset";
  grad->assign(num_params(), 0.0);
  // An interrupted pass leaves buffers unfilled. Return +inf rather than
  // a fabricated finite value: the L-BFGS line search rejects non-finite
  // objectives, so a cancelled evaluation can never be accepted as a
  // spuriously "good" iterate (the trainer then reports the run as
  // interrupted at its own poll).
  constexpr double kInterrupted = std::numeric_limits<double>::infinity();
  double acc = 0.0;
  const size_t csz = loss_grad_coeff_size();
  if (csz == 0) {
    // Model without shard-exact kernels: the sequential loop (bitwise
    // what MeanLossAndGradient does at parallelism 1), shards unused.
    // Still cancellable — poll every block of rows so a stop request does
    // not stall for a whole data pass.
    for (size_t i = 0; i < base.size(); i += kMinParallelRows) {
      if (cancel != nullptr && cancel->ShouldStop()) return kInterrupted;
      AccumulateLossGradient(base, i, std::min(base.size(), i + kMinParallelRows),
                             grad, &acc);
    }
  } else {
    // Caller-lent scratch keeps the per-shard buffers warm across calls;
    // without one, per-call buffers (pool-draining waits can re-enter this
    // function on the calling thread, so no hidden thread_local/member).
    // Reuse is safe even across active-mask changes: the replay below
    // reads exactly the active-row slots this call's pass wrote.
    std::vector<Vec> local_coeffs;
    std::vector<Vec> local_losses;
    std::vector<Vec>& coeffs = scratch != nullptr ? scratch->grad : local_coeffs;
    std::vector<Vec>& losses = scratch != nullptr ? scratch->loss : local_losses;
    coeffs.resize(data.num_shards());
    losses.resize(data.num_shards());
    const bool complete = RunShardPass(parallelism(), data, cancel, [&](size_t s) {
      const ShardPlan::Range range = data.shard_range(s);
      Vec& cbuf = coeffs[s];
      Vec& lbuf = losses[s];
      cbuf.resize(range.size() * csz);
      lbuf.resize(range.size());
      for (size_t i = range.begin; i < range.end; ++i) {
        if (!base.active(i)) continue;
        const size_t r = i - range.begin;
        lbuf[r] = LossGradCoeffs(base.row(i), base.label(i), cbuf.data() + r * csz);
      }
    });
    if (!complete) return kInterrupted;
    // Ordered replay: one addend block and one loss per row, applied in
    // global row order — the sequential loops' exact operation sequence.
    for (size_t s = 0; s < data.num_shards(); ++s) {
      const ShardPlan::Range range = data.shard_range(s);
      for (size_t i = range.begin; i < range.end; ++i) {
        if (!base.active(i)) continue;
        const size_t r = i - range.begin;
        ApplyLossGradCoeffs(base.row(i), coeffs[s].data() + r * csz, grad);
        acc += losses[s][r];
      }
    }
  }
  const double inv_n = 1.0 / static_cast<double>(base.num_active());
  for (double& g : *grad) g *= inv_n;
  vec::Axpy(2.0 * l2, params(), grad);
  acc /= static_cast<double>(base.num_active());
  acc += l2 * vec::NormSq(params());
  return acc;
}

void Model::ShardedHessianVectorProduct(const ShardedDataset& data, const Vec& v,
                                        double l2, Vec* out,
                                        const CancellationToken* cancel,
                                        ShardScratch* scratch) const {
  const Dataset& base = data.base();
  RAIN_CHECK(v.size() == num_params()) << "HVP size mismatch";
  RAIN_CHECK(base.num_active() > 0) << "HVP over empty dataset";
  const size_t csz = hvp_coeff_size();
  if (csz == 0) {
    // Fallback for models without shard-exact kernels: the model's own
    // HVP (deterministic per its parallelism knob, but not shard-exact).
    HessianVectorProduct(base, v, l2, out);
    return;
  }
  out->assign(num_params(), 0.0);
  // Buffer ownership sits with the caller (or this frame) by design:
  // pool-draining waits can re-enter this function on the calling thread
  // (a blocked ParallelFor helps run queued tasks, which may themselves
  // score/solve), so a thread_local or member scratch would be live in
  // two frames at once. This is the hottest fixed cost in a CG solve —
  // one allocation pass per Hessian-vector product — so callers in
  // iterative loops should lend a ShardScratch.
  std::vector<Vec> local;
  std::vector<Vec>& coeffs = scratch != nullptr ? scratch->hvp : local;
  coeffs.resize(data.num_shards());
  const bool complete = RunShardPass(parallelism(), data, cancel, [&](size_t s) {
    const ShardPlan::Range range = data.shard_range(s);
    Vec& buf = coeffs[s];
    buf.resize(range.size() * csz);
    for (size_t i = range.begin; i < range.end; ++i) {
      if (!base.active(i)) continue;
      HvpCoeffs(base.row(i), base.label(i), v, buf.data() + (i - range.begin) * csz);
    }
  });
  // Interrupted: buffers may be unfilled and the caller discards the
  // output at its own poll — skip the replay.
  if (!complete) return;
  for (size_t s = 0; s < data.num_shards(); ++s) {
    const ShardPlan::Range range = data.shard_range(s);
    for (size_t i = range.begin; i < range.end; ++i) {
      if (!base.active(i)) continue;
      ApplyHvpCoeffs(base.row(i), coeffs[s].data() + (i - range.begin) * csz, out);
    }
  }
  const double inv_n = 1.0 / static_cast<double>(base.num_active());
  for (double& o : *out) o *= inv_n;
  vec::Axpy(2.0 * l2, v, out);
}

}  // namespace rain
