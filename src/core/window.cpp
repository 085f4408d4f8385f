#include "core/window.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace tscclock::core {

TopWindow::TopWindow(const Params& params)
    : params_(params),
      capacity_(params.packets(params.top_window)),
      half_(capacity_ / 2),
      quarter_(std::max<std::size_t>(1, (capacity_ - half_) / 4)) {
  params.validate();
}

void TopWindow::consider(const PacketRecord& packet, std::size_t index) {
  if (index < half_ || index >= half_ + quarter_) return;
  if (index == half_) {
    front_seq_ = packet.seq;
    best_ = packet;
  } else if (packet.rtt < best_.rtt) {
    best_ = packet;
  }
}

TopWindow::Update TopWindow::add(const PacketRecord& packet,
                                 std::uint64_t min_valid_seq) {
  Update update;
  ++stored_;
  // Maintain the suffix-minimum deque: pop dominated entries (later packet,
  // <= rtt supersedes them for every suffix), append the new packet.
  while (!suffix_min_.empty() && suffix_min_.back().rtt >= packet.rtt)
    suffix_min_.pop_back();
  suffix_min_.push_back({packet.seq, packet.rtt});
  if (capacity_ == 1) {
    // N = 1: every packet fills the window and is all that is retained.
    front_seq_ = packet.seq;
    best_ = packet;
  } else {
    consider(packet, stored_ - 1);
  }
  if (stored_ < capacity_) return update;

  // Window full: discard the oldest half, recompute over the retained half.
  stored_ -= stored_ / 2;
  ++updates_;
  update.triggered = true;
  update.oldest_seq = front_seq_;
  while (suffix_min_.front().seq < update.oldest_seq) suffix_min_.pop_front();

  // New r̂: minimum over retained packets beyond the last shift point; if
  // none qualify (shift point very recent), fall back to all retained. Both
  // minima are answered by the suffix-min deque instead of rescanning the
  // retained half: the restricted minimum is the first entry with
  // seq >= min_valid_seq, the all-retained fallback is the front entry. A
  // minimum VALUE is tie-insensitive, so this is bit-identical to the former
  // strict-less scans.
  const auto it = std::lower_bound(
      suffix_min_.begin(), suffix_min_.end(), min_valid_seq,
      [](const SuffixMin& e, std::uint64_t s) { return e.seq < s; });
  TSC_ENSURES(!suffix_min_.empty());  // the just-added packet is retained
  update.new_rhat =
      it != suffix_min_.end() ? it->rtt : suffix_min_.front().rtt;
  const TscDelta min_rtt = update.new_rhat;

  // Anchor replacement candidate: the best-quality packet among the oldest
  // quarter of the retained window (early packets preserve a long Δ(t)).
  update.anchor_candidate = best_;
  update.anchor_error_counts = best_.rtt - min_rtt;
  if (update.anchor_error_counts < 0) update.anchor_error_counts = 0;

  // For odd N the packet that filled the window is the one at index h of
  // the window it leaves behind: it opens the next update's quarter.
  if (capacity_ > 1) consider(packet, stored_ - 1);
  return update;
}

}  // namespace tscclock::core
