#include "incremental/update.h"

#include <algorithm>

namespace rain {

namespace {

void CollectTouched(const UpdateBatch& batch, std::vector<size_t>* rows) {
  rows->reserve(batch.label_edits.size() + batch.deactivate_rows.size() +
                batch.reactivate_rows.size());
  for (const LabelEdit& e : batch.label_edits) rows->push_back(e.row);
  rows->insert(rows->end(), batch.deactivate_rows.begin(),
               batch.deactivate_rows.end());
  rows->insert(rows->end(), batch.reactivate_rows.begin(),
               batch.reactivate_rows.end());
  std::sort(rows->begin(), rows->end());
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
}

}  // namespace

std::vector<size_t> UpdateBatch::TouchedRows() const {
  std::vector<size_t> rows;
  CollectTouched(*this, &rows);
  return rows;
}

size_t DeltaLog::total_touched() const {
  size_t total = 0;
  for (const DeltaLogEntry& e : entries_) total += e.touched_rows;
  return total;
}

std::vector<RowScore> PatchInfluenceScores(const Model& model,
                                           const Dataset& train,
                                           const Vec& solution,
                                           const std::vector<size_t>& touched) {
  std::vector<RowScore> out;
  if (solution.empty()) return out;
  out.reserve(touched.size());
  const size_t coeff_size = model.loss_grad_coeff_size();
  Vec grad(model.num_params(), 0.0);
  Vec coeffs(coeff_size, 0.0);
  for (size_t i : touched) {
    if (i >= train.size()) continue;
    if (!train.active(i)) {
      out.push_back({i, 0.0});
      continue;
    }
    grad.assign(model.num_params(), 0.0);
    if (coeff_size > 0) {
      model.LossGradCoeffs(train.row(i), train.label(i), coeffs.data());
      model.ApplyLossGradCoeffs(train.row(i), coeffs.data(), &grad);
    } else {
      model.AddExampleLossGradient(train.row(i), train.label(i), &grad);
    }
    out.push_back({i, -vec::Dot(solution, grad)});
  }
  return out;
}

}  // namespace rain
