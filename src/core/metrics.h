#ifndef RAIN_CORE_METRICS_H_
#define RAIN_CORE_METRICS_H_

#include <cstddef>
#include <vector>

namespace rain {

/// \brief recall@k curve (Section 6.1.5).
///
/// r_k = |top-k of `deletions` intersected with `corrupted`| / |corrupted|
/// for k = 1..K where K = |corrupted| (the paper's corruption-recall
/// curve; the deletion sequence shorter than K is padded by its end).
std::vector<double> RecallCurve(const std::vector<size_t>& deletions,
                                const std::vector<size_t>& corrupted);

/// AUCCR = sum_{k=1..K} r_k / sum_{k=1..K} (k/K): the curve's area over
/// the ideal curve's area, so the perfect curve (every deletion a true
/// corruption) scores exactly 1.0.
double Auccr(const std::vector<double>& recall_curve);

/// Convenience: AUCCR directly from a deletion sequence.
double Auccr(const std::vector<size_t>& deletions,
             const std::vector<size_t>& corrupted);

}  // namespace rain

#endif  // RAIN_CORE_METRICS_H_
