#include "tensor/cholesky.h"

#include <cmath>
#include <string>

#include "common/logging.h"

namespace rain {

Status CholeskyFactor(Matrix* a) {
  const size_t p = a->rows();
  if (a->cols() != p) return Status::InvalidArgument("Cholesky of a non-square matrix");
  for (size_t j = 0; j < p; ++j) {
    double* lj = a->Row(j);
    double pivot = lj[j];
    for (size_t k = 0; k < j; ++k) pivot -= lj[k] * lj[k];
    if (!(pivot > 0.0) || !std::isfinite(pivot)) {
      return Status::Internal("Cholesky pivot " + std::to_string(j) +
                              " is not positive; the matrix is not positive definite");
    }
    const double ljj = std::sqrt(pivot);
    lj[j] = ljj;
    for (size_t i = j + 1; i < p; ++i) {
      double* li = a->Row(i);
      double s = li[j];
      for (size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      li[j] = s / ljj;
    }
    for (size_t k = j + 1; k < p; ++k) lj[k] = 0.0;
  }
  return Status::OK();
}

void CholeskySolve(const Matrix& l, Vec* b) {
  const size_t p = l.rows();
  RAIN_CHECK(b->size() == p) << "Cholesky solve size mismatch";
  Vec& x = *b;
  // L y = b.
  for (size_t i = 0; i < p; ++i) {
    const double* li = l.Row(i);
    double s = x[i];
    for (size_t k = 0; k < i; ++k) s -= li[k] * x[k];
    x[i] = s / li[i];
  }
  // Lᵀ x = y.
  for (size_t i = p; i-- > 0;) {
    double s = x[i];
    for (size_t k = i + 1; k < p; ++k) s -= l.At(k, i) * x[k];
    x[i] = s / l.At(i, i);
  }
}

}  // namespace rain
