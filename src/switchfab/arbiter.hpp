/// \file arbiter.hpp
/// Output-port arbitration: the rules `Switch` (and, for VCs, `Host`) run.
///
/// Two orthogonal decisions are made whenever an output link frees up:
///   1. Which VC to serve. The paper's architectures give the regulated VC
///      *absolute* priority over best-effort (§3.2) — a plain VC0-first
///      loop in the callers. The Traditional architecture may instead be
///      configured with a PCI AS / InfiniBand style weighted arbitration
///      table over many VCs (ablation A5): WeightedVcPolicy.
///   2. Which input's VOQ head to grant within that VC. EDF architectures
///      compare the deadline tags of the candidate heads (the "sorting
///      network" argument of §3.2: inputs present ascending-deadline
///      streams, so heads suffice): edf_pick. The Traditional architecture
///      is deadline-blind and uses round-robin: round_robin_pick.
///
/// Both input arbiters scan one *candidate row*: the cached head deadline
/// of each input's VOQ for the contended (vc, out), kNoCandidate where the
/// VOQ is empty (see Switch::voq_dl_). `eligible(in)` says whether input
/// `in` may be granted right now (read port free, head fits the output
/// buffer); it is never asked about an empty VOQ.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "proto/types.hpp"
#include "util/simd.hpp"

namespace dqos {

/// Which input arbiter an architecture runs (the cost model prices both).
enum class InputArbiterKind : std::uint8_t { kEdf, kRoundRobin };

/// Candidate-row sentinel: that input's VOQ is empty.
inline constexpr std::int64_t kNoCandidate =
    std::numeric_limits<std::int64_t>::max();
/// Arbitration result when no input can be granted.
inline constexpr std::size_t kNoWinner = ~std::size_t{0};

/// EDF: the eligible input with the minimum deadline, ties to the lowest
/// input; kNoWinner if none. Fast path: a pure horizontal argmin over the
/// row, with no per-element eligibility tests. The row-wide minimum *is*
/// the winner whenever it is itself eligible: argmin breaks ties toward
/// the lowest index, exactly the guarded scan's rule, and any eligible
/// input the scan would prefer would have to carry a smaller deadline than
/// the row minimum. Only a blocked minimum falls back to the guarded scan.
template <class Eligible>
[[nodiscard]] inline std::size_t edf_pick(const std::int64_t* dl,
                                          std::size_t n, Eligible eligible) {
  const std::size_t cand = simd::argmin_i64(dl, n);
  if (dl[cand] == kNoCandidate) return kNoWinner;  // row empty
  if (eligible(cand)) return cand;
  // Congested slow path: minimum deadline among *eligible* inputs; ties go
  // to the lowest input (strict < over an ascending scan).
  std::size_t win = kNoWinner;
  std::int64_t best = kNoCandidate;
  for (std::size_t in = 0; in < n; ++in) {
    if (dl[in] < best && eligible(in)) {
      best = dl[in];
      win = in;
    }
  }
  return win;
}

/// Round-robin: the first eligible input after `last` (the previous
/// grant; kNoWinner before the first), wrapping; kNoWinner if none. The
/// caller advances `last` only when the winner is actually granted.
template <class Eligible>
[[nodiscard]] inline std::size_t round_robin_pick(const std::int64_t* dl,
                                                  std::size_t n,
                                                  std::size_t last,
                                                  Eligible eligible) {
  std::size_t first = kNoWinner;
  for (std::size_t in = 0; in < n; ++in) {
    if (dl[in] == kNoCandidate || !eligible(in)) continue;
    if (in > last) return in;
    if (first == kNoWinner) first = in;
  }
  return first;
}

/// Deficit-weighted round robin, modelling the IBA / PCI AS VC arbitration
/// table. Each VC carries a weight; a VC keeps the grant as long as its
/// deficit (replenished as quantum * weight) lasts. Work-conserving: empty
/// or blocked VCs are skipped.
///
/// The deficit is *banked* (classic DRR): service a VC did not use, and
/// debt from a packet that overshot its allocation, carry into the next
/// round rather than being reset — otherwise a VC that keeps overshooting
/// by one max-size packet per round gets systematically more than its
/// share. The bank is clamped at one allocation plus one quantum so a VC
/// that sits idle or blocked for a long stretch cannot hoard unbounded
/// credit and then monopolize the link (the DRR "unbounded deficit
/// growth" hazard); the regression test asserts exactly this bound after
/// every grant.
class WeightedVcPolicy {
 public:
  /// `weights` — one per VC, relative shares (e.g. {1,1,1,1}).
  /// `quantum_bytes` — bytes of service per weight unit per round.
  explicit WeightedVcPolicy(std::vector<std::uint32_t> weights,
                            std::uint32_t quantum_bytes = 4096);
  /// Fills `out` (cleared first) with VCs in the order they should be
  /// offered the link for this decision. The caller takes the first VC
  /// that yields a transmittable packet. Out-param so hot-path callers
  /// reuse one scratch buffer per port instead of allocating per decision.
  void order(std::vector<VcId>& out) const;
  void granted(VcId vc, std::uint32_t bytes);

  /// Current banked deficit of `vc` (diagnostics / tests). Bounded above
  /// by allocation(vc) + quantum at every quiescent point.
  [[nodiscard]] std::int64_t deficit(VcId vc) const { return deficit_[vc]; }
  /// One round's allocation for `vc`: weight * quantum bytes.
  [[nodiscard]] std::int64_t allocation(VcId vc) const {
    return static_cast<std::int64_t>(weights_[vc]) * quantum_;
  }

 private:
  /// Replenishes `vc` for a new round: adds one allocation to the banked
  /// residue, clamped at one allocation + one quantum of carried credit.
  void replenish(std::size_t vc) {
    deficit_[vc] = std::min(deficit_[vc] + allocation(static_cast<VcId>(vc)),
                            allocation(static_cast<VcId>(vc)) + quantum_);
  }

  std::vector<std::uint32_t> weights_;
  std::vector<std::int64_t> deficit_;
  std::uint32_t quantum_;
  std::size_t current_ = 0;
};

}  // namespace dqos
