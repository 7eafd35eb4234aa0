#include "core/metrics.h"

#include <unordered_set>

namespace rain {

std::vector<double> RecallCurve(const std::vector<size_t>& deletions,
                                const std::vector<size_t>& corrupted) {
  const size_t k_max = corrupted.size();
  std::vector<double> curve(k_max, 0.0);
  if (k_max == 0) return curve;
  const std::unordered_set<size_t> truth(corrupted.begin(), corrupted.end());
  size_t hits = 0;
  for (size_t k = 0; k < k_max; ++k) {
    if (k < deletions.size() && truth.count(deletions[k]) != 0) ++hits;
    curve[k] = static_cast<double>(hits) / static_cast<double>(k_max);
  }
  return curve;
}

double Auccr(const std::vector<double>& recall_curve) {
  if (recall_curve.empty()) return 0.0;
  // The ideal curve r_k = k/K is summed with the exact arithmetic
  // RecallCurve uses, so a perfect explanation scores exactly 1.0.
  const size_t k_max = recall_curve.size();
  double area = 0.0;
  double ideal_area = 0.0;
  for (size_t k = 0; k < k_max; ++k) {
    area += recall_curve[k];
    ideal_area += static_cast<double>(k + 1) / static_cast<double>(k_max);
  }
  return area / ideal_area;
}

double Auccr(const std::vector<size_t>& deletions,
             const std::vector<size_t>& corrupted) {
  return Auccr(RecallCurve(deletions, corrupted));
}

}  // namespace rain
