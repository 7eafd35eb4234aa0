#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "tensor/vector_ops.h"

namespace rain {

double Sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

namespace {
// Floor probabilities away from 0/1 so -log p stays finite.
constexpr double kProbEps = 1e-12;

double ClampProb(double p) {
  if (p < kProbEps) return kProbEps;
  if (p > 1.0 - kProbEps) return 1.0 - kProbEps;
  return p;
}

/// -log p_y from p1 = sigmoid(margin): the one loss statement shared by
/// ExampleLoss, the fused loss+gradient body and LossGradCoeffs.
double LossFromP1(double p1, int y) {
  return -std::log(ClampProb(y == 1 ? p1 : 1.0 - p1));
}

/// Rows per batched run in the blocked row bodies (HVP, loss+gradient).
constexpr size_t kRowBlock = 64;

/// Rows per block of the exact-Hessian pass. The block layout depends on
/// data.size() alone and the block partials are combined in block order,
/// so the pass is bitwise identical at every parallelism.
constexpr size_t kHessianBlockRows = 2048;
/// Block partials held at once (each 1 + p + p² doubles): bounds the
/// pass's buffers whatever n is; the combine order stays the block order.
constexpr size_t kHessianWave = 32;
/// Active rows per feature-major tile inside a block. A tile and its
/// weighted copy stay in L1 while the p(p+1)/2 Hessian dots sweep them.
constexpr size_t kHessianTile = 128;
}  // namespace

LogisticRegression::LogisticRegression(size_t num_features, bool fit_intercept)
    : d_(num_features),
      fit_intercept_(fit_intercept),
      theta_(num_features + (fit_intercept ? 1 : 0), 0.0) {}

void LogisticRegression::set_params(const Vec& theta) {
  RAIN_CHECK(theta.size() == theta_.size()) << "param size mismatch";
  theta_ = theta;
}

double LogisticRegression::Margin(const double* x) const {
  // Every margin consumer (loss, gradients, the HVP body, and the
  // shard-exact coefficient kernels) routes through this one helper, so
  // the SIMD reduction stays consistent across paired code paths.
  const double z = vec::simd::Dot(theta_.data(), x, d_);
  return fit_intercept_ ? z + theta_[d_] : z;
}

void LogisticRegression::PredictProba(const double* x, double* probs) const {
  const double p1 = Sigmoid(Margin(x));
  probs[0] = 1.0 - p1;
  probs[1] = p1;
}

double LogisticRegression::ExampleLoss(const double* x, int y) const {
  return LossFromP1(Sigmoid(Margin(x)), y);
}

void LogisticRegression::AddExampleLossGradient(const double* x, int y,
                                                Vec* grad) const {
  // d l / d theta = (p1 - y) * [x; 1]
  const double coef = Sigmoid(Margin(x)) - static_cast<double>(y);
  vec::simd::MulAdd(coef, x, grad->data(), d_);
  if (fit_intercept_) (*grad)[d_] += coef;
}

void LogisticRegression::AddProbaGradient(const double* x, const Vec& class_weights,
                                          Vec* grad) const {
  RAIN_CHECK(class_weights.size() == 2) << "binary model expects 2 class weights";
  // d p1/d theta = p1 (1-p1) [x; 1]; d p0/d theta is its negation.
  const double p1 = Sigmoid(Margin(x));
  const double coef = (class_weights[1] - class_weights[0]) * p1 * (1.0 - p1);
  if (coef == 0.0) return;
  // ELEMENTWISE MulAdd keeps the per-row addend bitwise identical across
  // backends — AccumulateProbaGradients' parallel == sequential pin
  // depends on the addend being exactly the sequential statement.
  vec::simd::MulAdd(coef, x, grad->data(), d_);
  if (fit_intercept_) (*grad)[d_] += coef;
}

void LogisticRegression::HessianVectorProduct(const Dataset& data, const Vec& v,
                                              double l2, Vec* out) const {
  RAIN_CHECK(v.size() == theta_.size()) << "HVP size mismatch";
  RAIN_CHECK(data.num_active() > 0) << "HVP over empty dataset";
  out->assign(theta_.size(), 0.0);
  vec::ParallelAccumulate(
      RowParallelism(data.size()), data.size(), out,
      [this, &data, &v](size_t begin, size_t end, Vec* acc) {
        // Runs of consecutive active rows form contiguous feature blocks,
        // so the two per-row dots batch into Gemv calls over the run.
        // Every Gemv element is the Dot kernel (with the operand order
        // commuted — per-element products are rounding-identical), so the
        // bits match the former per-row Margin / dot calls exactly, and
        // HvpCoeffs' sharded replay still reproduces this body.
        double z_blk[kRowBlock];
        double xv_blk[kRowBlock];
        ForEachActiveRun(data, begin, end, kRowBlock, [&](size_t first, size_t nb) {
          const double* xb = data.row(first);
          vec::simd::Gemv(xb, nb, d_, theta_.data(), z_blk);
          vec::simd::Gemv(xb, nb, d_, v.data(), xv_blk);
          for (size_t r = 0; r < nb; ++r) {
            const double* x = xb + r * d_;
            const double margin =
                fit_intercept_ ? z_blk[r] + theta_[d_] : z_blk[r];
            const double p1 = Sigmoid(margin);
            const double s = p1 * (1.0 - p1);
            double xv = xv_blk[r];
            if (fit_intercept_) xv += v[d_];
            const double coef = s * xv;
            vec::simd::MulAdd(coef, x, acc->data(), d_);
            if (fit_intercept_) (*acc)[d_] += coef;
          }
        });
      });
  const double inv_n = 1.0 / static_cast<double>(data.num_active());
  for (double& o : *out) o *= inv_n;
  vec::Axpy(2.0 * l2, v, out);
}

void LogisticRegression::AccumulateLossGradient(const Dataset& data,
                                                size_t begin, size_t end,
                                                Vec* grad, double* loss) const {
  // One margin per row feeds both the loss and the gradient coefficient;
  // runs of active rows batch the margins into one Gemv (each element the
  // Dot kernel behind Margin, as in the HVP body), so every loss and
  // addend is bitwise ExampleLoss / AddExampleLossGradient.
  double z_blk[kRowBlock];
  double acc = *loss;
  ForEachActiveRun(data, begin, end, kRowBlock, [&](size_t first, size_t nb) {
    const double* xb = data.row(first);
    vec::simd::Gemv(xb, nb, d_, theta_.data(), z_blk);
    for (size_t r = 0; r < nb; ++r) {
      const double* x = xb + r * d_;
      const int y = data.label(first + r);
      const double p1 = Sigmoid(fit_intercept_ ? z_blk[r] + theta_[d_] : z_blk[r]);
      acc += LossFromP1(p1, y);
      const double coef = p1 - static_cast<double>(y);
      vec::simd::MulAdd(coef, x, grad->data(), d_);
      if (fit_intercept_) (*grad)[d_] += coef;
    }
  });
  *loss = acc;
}

void LogisticRegression::AccumulateHessianBlock(const Dataset& data,
                                                size_t begin, size_t end,
                                                double* partial) const {
  const size_t p = theta_.size();
  double* grad = partial + 1;
  double* hess = partial + 1 + p;
  // Feature-major tile of the block's active rows: xt[j*T + r] is feature
  // j of the tile's r-th row (x̃ = [x; 1]), wxt the same times the
  // Hessian weight p(1-p), c the gradient coefficient p - y. Every sum is
  // then a long Dot over the tile, not a short update per row.
  constexpr size_t T = kHessianTile;
  std::vector<double> xt(p * T);
  std::vector<double> wxt(p * T);
  double c[T] = {};
  double z_blk[kRowBlock];
  size_t m = 0;
  auto flush = [&]() {
    for (size_t j = 0; j < p; ++j) {
      grad[j] += vec::simd::Dot(c, &xt[j * T], m);
      const double* wj = &wxt[j * T];
      double* hj = hess + j * p;
      for (size_t k = j; k < p; ++k) hj[k] += vec::simd::Dot(wj, &xt[k * T], m);
    }
    m = 0;
  };
  double loss = 0.0;
  ForEachActiveRun(data, begin, end, kRowBlock, [&](size_t first, size_t nb) {
    const double* xb = data.row(first);
    vec::simd::Gemv(xb, nb, d_, theta_.data(), z_blk);
    for (size_t r = 0; r < nb; ++r) {
      const double* x = xb + r * d_;
      const int y = data.label(first + r);
      const double p1 = Sigmoid(fit_intercept_ ? z_blk[r] + theta_[d_] : z_blk[r]);
      loss += LossFromP1(p1, y);
      const double w = p1 * (1.0 - p1);
      c[m] = p1 - static_cast<double>(y);
      for (size_t j = 0; j < d_; ++j) {
        xt[j * T + m] = x[j];
        wxt[j * T + m] = w * x[j];
      }
      if (fit_intercept_) {
        xt[d_ * T + m] = 1.0;
        wxt[d_ * T + m] = w;
      }
      if (++m == T) flush();
    }
  });
  if (m > 0) flush();
  partial[0] += loss;
}

bool LogisticRegression::MeanLossGradientHessian(const Dataset& data, double l2,
                                                 Vec* grad, Matrix* hess,
                                                 double* loss) const {
  if (l2 <= 0.0 || num_params() > kExactHessianMaxParams) return false;
  RAIN_CHECK(data.num_active() > 0) << "Hessian over empty dataset";
  const size_t p = theta_.size();
  const size_t stride = 1 + p + p * p;
  const size_t n = data.size();
  const size_t num_blocks = (n + kHessianBlockRows - 1) / kHessianBlockRows;
  Vec total(stride, 0.0);
  Vec partials(std::min(num_blocks, kHessianWave) * stride);
  for (size_t wave = 0; wave < num_blocks; wave += kHessianWave) {
    const size_t count = std::min(kHessianWave, num_blocks - wave);
    std::fill(partials.begin(), partials.begin() + count * stride, 0.0);
    // Workers only decide which thread runs a block, never its rows.
    ParallelFor(parallelism(), count, [&](size_t b0, size_t b1, size_t) {
      for (size_t b = b0; b < b1; ++b) {
        const size_t begin = (wave + b) * kHessianBlockRows;
        AccumulateHessianBlock(data, begin, std::min(n, begin + kHessianBlockRows),
                               &partials[b * stride]);
      }
    });
    for (size_t b = 0; b < count; ++b) {
      const double* part = &partials[b * stride];
      for (size_t i = 0; i < stride; ++i) total[i] += part[i];
    }
  }
  const double inv_n = 1.0 / static_cast<double>(data.num_active());
  if (grad != nullptr) {
    grad->resize(p);
    for (size_t j = 0; j < p; ++j) (*grad)[j] = total[1 + j] * inv_n + 2.0 * l2 * theta_[j];
  }
  *hess = Matrix(p, p);
  for (size_t j = 0; j < p; ++j) {
    for (size_t k = j; k < p; ++k) {
      double h = total[1 + p + j * p + k] * inv_n;
      if (k == j) h += 2.0 * l2;
      hess->At(j, k) = h;
      hess->At(k, j) = h;
    }
  }
  if (loss != nullptr) *loss = total[0] * inv_n + l2 * vec::NormSq(theta_);
  return true;
}

double LogisticRegression::LossGradCoeffs(const double* x, int y,
                                          double* coeffs) const {
  const double p1 = Sigmoid(Margin(x));
  coeffs[0] = p1 - static_cast<double>(y);
  return LossFromP1(p1, y);
}

void LogisticRegression::ApplyLossGradCoeffs(const double* x, const double* coeffs,
                                             Vec* grad) const {
  const double coef = coeffs[0];
  vec::simd::MulAdd(coef, x, grad->data(), d_);
  if (fit_intercept_) (*grad)[d_] += coef;
}

void LogisticRegression::HvpCoeffs(const double* x, int /*y*/, const Vec& v,
                                   double* coeffs) const {
  const double p1 = Sigmoid(Margin(x));
  const double s = p1 * (1.0 - p1);
  // Same dot + intercept sequence as the HessianVectorProduct body.
  double xv = vec::simd::Dot(v.data(), x, d_);
  if (fit_intercept_) xv += v[d_];
  coeffs[0] = s * xv;
}

void LogisticRegression::ApplyHvpCoeffs(const double* x, const double* coeffs,
                                        Vec* out) const {
  const double coef = coeffs[0];
  vec::simd::MulAdd(coef, x, out->data(), d_);
  if (fit_intercept_) (*out)[d_] += coef;
}

std::unique_ptr<Model> LogisticRegression::Clone() const {
  return std::make_unique<LogisticRegression>(*this);
}

}  // namespace rain
