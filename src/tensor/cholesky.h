#ifndef RAIN_TENSOR_CHOLESKY_H_
#define RAIN_TENSOR_CHOLESKY_H_

#include "common/status.h"
#include "tensor/matrix.h"

namespace rain {

/// \brief In-place Cholesky factorization a = L Lᵀ of a small dense
/// symmetric positive-definite matrix.
///
/// Reads the lower triangle of the square matrix `a` and overwrites it
/// with L; the strict upper triangle is zeroed so `a` holds exactly L on
/// return. Plain sequential loops in a fixed order, so the factor is a
/// pure function of the input bits. Sized for the model Hessians of the
/// exact influence path (a few dozen parameters), not for large systems.
///
/// Returns InvalidArgument for a non-square matrix and Internal when a
/// pivot is not positive (or not finite): the matrix is not numerically
/// positive definite, and `a` is left partially factored.
Status CholeskyFactor(Matrix* a);

/// Solves (L Lᵀ) x = b in place, given the factor from CholeskyFactor:
/// one forward substitution with L, then one backward substitution with
/// Lᵀ. `b` must have l.rows() elements.
void CholeskySolve(const Matrix& l, Vec* b);

}  // namespace rain

#endif  // RAIN_TENSOR_CHOLESKY_H_
