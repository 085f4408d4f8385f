// Tests for the top-level sliding window (paper §6.1 "Windowing").
#include "core/window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <random>


namespace tscclock::core {
namespace {

Params test_params() {
  Params p;
  p.poll_period = 16.0;
  p.top_window = 16.0 * 20;  // 20-packet top window for tight tests
  // Keep the cross-field invariant top_window >= local_rate_window.
  p.local_rate_window = 16.0 * 10;
  p.gap_threshold = 16.0 * 5;
  p.shift_window = 16.0 * 5;
  return p;
}

PacketRecord make_record(std::uint64_t seq, TscDelta rtt) {
  PacketRecord rec;
  rec.seq = seq;
  rec.rtt = rtt;
  rec.stamps.ta = 1000 * seq;
  rec.stamps.tf = 1000 * seq + static_cast<TscCount>(rtt);
  return rec;
}

TEST(TopWindow, NoUpdateUntilFull) {
  TopWindow w(test_params());
  for (std::uint64_t i = 0; i < 19; ++i) {
    const auto u = w.add(make_record(i, 1000), 0);
    EXPECT_FALSE(u.triggered);
  }
  EXPECT_EQ(w.stored(), 19u);
}

TEST(TopWindow, UpdateDiscardsOldestHalf) {
  TopWindow w(test_params());
  TopWindow::Update update;
  for (std::uint64_t i = 0; i < 20; ++i)
    update = w.add(make_record(i, 1000 + static_cast<TscDelta>(i)), 0);
  EXPECT_TRUE(update.triggered);
  EXPECT_EQ(w.stored(), 10u);
  EXPECT_EQ(update.oldest_seq, 10u);
  EXPECT_EQ(w.updates(), 1u);
}

TEST(TopWindow, NewMinimumFromRetainedHalf) {
  TopWindow w(test_params());
  TopWindow::Update update;
  // Oldest half has the global min (900); retained half bottoms at 1000.
  for (std::uint64_t i = 0; i < 10; ++i)
    update = w.add(make_record(i, 900 + static_cast<TscDelta>(i)), 0);
  for (std::uint64_t i = 10; i < 20; ++i)
    update = w.add(make_record(i, 1000 + static_cast<TscDelta>(i)), 0);
  ASSERT_TRUE(update.triggered);
  EXPECT_EQ(update.new_rhat, 1010);  // min of retained half
}

TEST(TopWindow, MinRespectsShiftPoint) {
  TopWindow w(test_params());
  TopWindow::Update update;
  for (std::uint64_t i = 0; i < 20; ++i)
    update = w.add(make_record(i, i < 15 ? 1000 : 2000), /*min_valid_seq=*/15);
  ASSERT_TRUE(update.triggered);
  // Only packets with seq >= 15 count: minimum is the post-shift level.
  EXPECT_EQ(update.new_rhat, 2000);
}

TEST(TopWindow, MinFallsBackWhenNoPacketBeyondShiftPoint) {
  TopWindow w(test_params());
  TopWindow::Update update;
  for (std::uint64_t i = 0; i < 20; ++i)
    update = w.add(make_record(i, 1000), /*min_valid_seq=*/1000);
  ASSERT_TRUE(update.triggered);
  EXPECT_EQ(update.new_rhat, 1000);  // all-retained fallback
}

TEST(TopWindow, AnchorCandidateFromOldestQuarterBestQuality) {
  TopWindow w(test_params());
  TopWindow::Update update;
  for (std::uint64_t i = 0; i < 20; ++i) {
    // Retained half = seqs 10..19; its oldest quarter = seqs 10,11.
    const TscDelta rtt = (i == 11) ? 500 : 1000;
    update = w.add(make_record(i, rtt), 0);
  }
  ASSERT_TRUE(update.triggered);
  ASSERT_TRUE(update.anchor_candidate.has_value());
  EXPECT_EQ(update.anchor_candidate->seq, 11u);
  EXPECT_EQ(update.anchor_error_counts, 0);  // it *is* the minimum
}

TEST(TopWindow, RepeatedUpdatesEveryHalfWindow) {
  TopWindow w(test_params());
  int updates = 0;
  for (std::uint64_t i = 0; i < 100; ++i)
    if (w.add(make_record(i, 1000), 0).triggered) ++updates;
  // First at 20, then every 10 packets: (100-20)/10 + 1 = 9.
  EXPECT_EQ(updates, 9);
  EXPECT_EQ(w.updates(), 9u);
}

TEST(TopWindow, AnchorErrorNonNegative) {
  TopWindow w(test_params());
  TopWindow::Update update;
  for (std::uint64_t i = 0; i < 20; ++i)
    update = w.add(make_record(i, 1500 - static_cast<TscDelta>(i * 10)), 0);
  ASSERT_TRUE(update.triggered);
  EXPECT_GE(update.anchor_error_counts, 0);
}

// The top window as it was when it kept every packet: an unbounded
// history trimmed by updates, with the oldest-quarter candidate found by a
// scan. The oracle for the O(1)-state TopWindow.
class StoredTopWindow {
 public:
  explicit StoredTopWindow(const Params& params) : params_(params) {}

  TopWindow::Update add(const PacketRecord& packet,
                        std::uint64_t min_valid_seq) {
    TopWindow::Update update;
    history_.push_back(packet);
    while (!suffix_min_.empty() && suffix_min_.back().rtt >= packet.rtt)
      suffix_min_.pop_back();
    suffix_min_.push_back({packet.seq, packet.rtt});
    if (history_.size() < params_.packets(params_.top_window)) return update;

    history_.erase(history_.begin(),
                   history_.begin() + static_cast<std::ptrdiff_t>(
                                          history_.size() / 2));
    ++updates_;
    update.triggered = true;
    update.oldest_seq = history_.front().seq;
    while (suffix_min_.front().seq < update.oldest_seq)
      suffix_min_.pop_front();
    const auto it = std::lower_bound(
        suffix_min_.begin(), suffix_min_.end(), min_valid_seq,
        [](const SuffixMin& e, std::uint64_t s) { return e.seq < s; });
    update.new_rhat =
        it != suffix_min_.end() ? it->rtt : suffix_min_.front().rtt;

    const std::size_t quarter =
        std::max<std::size_t>(1, history_.size() / 4);
    std::size_t best = 0;
    for (std::size_t k = 1; k < quarter; ++k)
      if (history_[k].rtt < history_[best].rtt) best = k;
    update.anchor_candidate = history_[best];
    update.anchor_error_counts = history_[best].rtt - update.new_rhat;
    if (update.anchor_error_counts < 0) update.anchor_error_counts = 0;
    return update;
  }

  [[nodiscard]] std::size_t stored() const { return history_.size(); }
  [[nodiscard]] std::uint64_t updates() const { return updates_; }

 private:
  struct SuffixMin {
    std::uint64_t seq = 0;
    TscDelta rtt = 0;
  };

  Params params_;
  std::deque<PacketRecord> history_;
  std::deque<SuffixMin> suffix_min_;
  std::uint64_t updates_ = 0;
};

bool same_record(const PacketRecord& a, const PacketRecord& b) {
  return a.seq == b.seq && a.stamps.ta == b.stamps.ta &&
         std::memcmp(&a.stamps.tb, &b.stamps.tb, sizeof(double)) == 0 &&
         std::memcmp(&a.stamps.te, &b.stamps.te, sizeof(double)) == 0 &&
         a.stamps.tf == b.stamps.tf && a.rtt == b.rtt &&
         a.error_counts == b.error_counts;
}

TEST(TopWindow, MatchesStoredHistoryOracle) {
  std::mt19937_64 gen(20261019);
  std::uint64_t adds = 0;
  std::uint64_t triggers = 0;
  for (std::size_t n = 1; n <= 64; ++n) {
    Params p = test_params();
    // packets(top_window) == n; a fractional poll remainder is truncated.
    p.top_window = 16.0 * static_cast<double>(n) + 7.5;
    p.local_rate_window = 16.0;
    TopWindow fast(p);
    StoredTopWindow slow(p);
    // Few distinct rtt values, so ties are common; seq with random gaps.
    std::uniform_int_distribution<TscDelta> rtt(1000, 1000 + 4);
    std::uniform_int_distribution<int> gap(1, 3);
    std::uniform_int_distribution<int> percent(0, 99);
    std::uint64_t seq = 0;
    std::uint64_t min_valid_seq = 0;
    for (int i = 0; i < 8000; ++i, ++adds) {
      PacketRecord rec;
      seq += static_cast<std::uint64_t>(gap(gen));
      rec.seq = seq;
      rec.rtt = rtt(gen);
      rec.stamps.ta = 1000 * seq;
      rec.stamps.tb = 1e-3 * static_cast<double>(seq);
      rec.stamps.te = rec.stamps.tb + 1e-5 * static_cast<double>(i % 7);
      rec.stamps.tf = rec.stamps.ta + static_cast<TscCount>(rec.rtt);
      rec.error_counts = rec.rtt - 1000 + (i % 3);
      // Shift points: mostly behind the window, sometimes inside or ahead.
      const int roll = percent(gen);
      if (roll < 3)
        min_valid_seq = seq - std::min<std::uint64_t>(seq, gen() % (3 * n + 1));
      else if (roll < 4)
        min_valid_seq = seq + 1 + gen() % 8;
      const auto a = fast.add(rec, min_valid_seq);
      const auto b = slow.add(rec, min_valid_seq);
      ASSERT_EQ(a.triggered, b.triggered) << "n=" << n << " add " << i;
      ASSERT_EQ(a.new_rhat, b.new_rhat) << "n=" << n << " add " << i;
      ASSERT_EQ(a.oldest_seq, b.oldest_seq) << "n=" << n << " add " << i;
      ASSERT_EQ(a.anchor_candidate.has_value(),
                b.anchor_candidate.has_value())
          << "n=" << n << " add " << i;
      if (a.anchor_candidate) {
        ASSERT_TRUE(same_record(*a.anchor_candidate, *b.anchor_candidate))
            << "n=" << n << " add " << i << ": seq "
            << a.anchor_candidate->seq << " vs " << b.anchor_candidate->seq;
      }
      ASSERT_EQ(a.anchor_error_counts, b.anchor_error_counts)
          << "n=" << n << " add " << i;
      ASSERT_EQ(fast.stored(), slow.stored()) << "n=" << n << " add " << i;
      ASSERT_EQ(fast.updates(), slow.updates()) << "n=" << n << " add " << i;
      if (a.triggered) ++triggers;
    }
  }
  EXPECT_GE(adds, 500000u);
  EXPECT_GT(triggers, 50000u);
}

}  // namespace
}  // namespace tscclock::core
