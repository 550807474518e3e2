#include "switchfab/arbiter.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace dqos {

WeightedVcPolicy::WeightedVcPolicy(std::vector<std::uint32_t> weights,
                                   std::uint32_t quantum_bytes)
    : weights_(std::move(weights)),
      deficit_(weights_.size(), 0),
      quantum_(quantum_bytes) {
  DQOS_EXPECTS(!weights_.empty() && quantum_bytes > 0);
  for (std::size_t vc = 0; vc < weights_.size(); ++vc) {
    DQOS_EXPECTS(weights_[vc] > 0);
    deficit_[vc] = static_cast<std::int64_t>(weights_[vc]) * quantum_;
  }
}

void WeightedVcPolicy::order(std::vector<VcId>& out) const {
  // Current VC first while it retains deficit, then the others in ring
  // order. The switch skips unservable VCs, keeping the policy
  // work-conserving.
  out.clear();
  out.reserve(weights_.size());
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    out.push_back(static_cast<VcId>((current_ + i) % weights_.size()));
  }
}

void WeightedVcPolicy::granted(VcId vc, std::uint32_t bytes) {
  DQOS_EXPECTS(vc < weights_.size());
  if (vc != current_) {
    // The ring moved on (earlier VCs were empty/blocked): make `vc` current
    // and bank a fresh allocation on top of its residue before charging.
    current_ = vc;
    replenish(vc);
  }
  deficit_[vc] -= bytes;
  if (deficit_[vc] <= 0) {
    // Advance past VCs still in debt, banking one allocation per visit: a
    // VC that overshot its allocation pays the debt off in skipped rounds
    // before the ring offers it the link first again. Terminates because
    // each visit adds a positive allocation toward the positive clamp.
    do {
      current_ = (current_ + 1) % weights_.size();
      replenish(current_);
    } while (deficit_[current_] <= 0);
  }
}

}  // namespace dqos
