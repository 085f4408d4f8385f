// Top-level sliding window (paper §6.1 "Windowing").
//
// Conditions change over arbitrarily long horizons (aging, environment,
// route changes), so the past must eventually be forgotten and per-packet
// history bounded. A window of width T (default one week) is maintained;
// each time it fills, the oldest half is discarded and:
//
//   * r̂ is recomputed over the retained half — restricted to packets after
//     the last detected upward shift point, if any;
//   * if the rate anchor packet j was discarded, a replacement of similar
//     or better quality is nominated from the retained data.
//
// The packets themselves are not kept. The window holds exactly N =
// packets(top_window) entries when it fills and drops h = ⌊N/2⌋ of them, so
// the update reads only the retained front (the entry at index h) and the
// best entry among the q = max(1, ⌈N/2⌉/4) that follow it. Between updates
// the window's front does not move, so each packet's index at the next
// update is known when it arrives: a running strict-< best over indices
// [h, h + q) gives the same candidate as scanning the retained quarter.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "common/time_types.hpp"
#include "core/params.hpp"
#include "core/records.hpp"

namespace tscclock::core {

class TopWindow {
 public:
  explicit TopWindow(const Params& params);

  struct Update {
    bool triggered = false;
    TscDelta new_rhat = 0;
    std::uint64_t oldest_seq = 0;  ///< first seq still inside the window
    std::optional<PacketRecord> anchor_candidate;
    TscDelta anchor_error_counts = 0;  ///< vs new_rhat
  };

  /// Record a packet; triggers a window update when the buffer reaches T.
  /// `min_valid_seq` restricts the minimum recomputation to packets at or
  /// after the last upward shift point.
  Update add(const PacketRecord& packet, std::uint64_t min_valid_seq);

  /// Packets inside the window (as if it were stored).
  [[nodiscard]] std::size_t stored() const { return stored_; }
  [[nodiscard]] std::uint64_t updates() const { return updates_; }

 private:
  /// Suffix-minimum structure maintained incrementally: entries are kept
  /// with strictly increasing seq AND strictly increasing rtt, so for any
  /// bound s the minimum rtt over retained packets with seq >= s is the
  /// first entry with seq >= s. O(1) amortized per add; window updates stop
  /// rescanning the retained half for its minima.
  struct SuffixMin {
    std::uint64_t seq = 0;
    TscDelta rtt = 0;
  };

  /// Fold the packet at window index `index` into the next update's
  /// oldest-quarter candidate when it falls inside that quarter.
  void consider(const PacketRecord& packet, std::size_t index);

  Params params_;
  std::size_t capacity_;  ///< N: the window size that triggers an update
  std::size_t half_;      ///< h: entries dropped by an update (N ≥ 2)
  std::size_t quarter_;   ///< q: length of the retained oldest quarter
  std::size_t stored_ = 0;
  std::uint64_t front_seq_ = 0;  ///< seq at index h: the next retained front
  PacketRecord best_;            ///< first lowest-rtt packet in [h, h + q)
  std::deque<SuffixMin> suffix_min_;
  std::uint64_t updates_ = 0;
};

}  // namespace tscclock::core
