// Client buffer mechanics (§3): two-stage buffering, re-ordering window,
// late/duplicate handling, the I-frame-preserving overflow policy, and
// skip accounting at display time.
#include "vod/client_buffer.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <random>
#include <stdexcept>
#include <vector>

namespace ftvod::vod {
namespace {

mpeg::FrameInfo frame(std::uint64_t index,
                      mpeg::FrameType type = mpeg::FrameType::kP,
                      std::uint32_t bytes = 5000) {
  return mpeg::FrameInfo{index, type, bytes};
}

/// Small buffers for focused tests: 4 software slots, 3 frames of hardware.
ClientBuffers small() { return ClientBuffers(4, 3 * 5000, 5000); }

TEST(ClientBuffers, FramesFlowThroughToDisplay) {
  ClientBuffers b = small();
  for (std::uint64_t i = 0; i < 3; ++i) b.insert(frame(i));
  EXPECT_EQ(b.hw_frames(), 3u);  // streamed straight into the decoder
  EXPECT_EQ(b.sw_frames(), 0u);
  auto f = b.consume();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->index, 0u);
  EXPECT_EQ(b.counters().displayed, 1u);
  EXPECT_EQ(b.counters().skipped, 0u);
}

TEST(ClientBuffers, SoftwareFillsWhenHardwareFull) {
  ClientBuffers b = small();
  for (std::uint64_t i = 0; i < 6; ++i) b.insert(frame(i));
  EXPECT_EQ(b.hw_frames(), 3u);
  EXPECT_EQ(b.sw_frames(), 3u);
  EXPECT_EQ(b.total_frames(), 6u);
  EXPECT_EQ(b.hw_bytes(), 15'000u);
}

TEST(ClientBuffers, ConsumeRefillsHardwareFromSoftware) {
  ClientBuffers b = small();
  for (std::uint64_t i = 0; i < 6; ++i) b.insert(frame(i));
  (void)b.consume();
  EXPECT_EQ(b.hw_frames(), 3u);  // topped up from software
  EXPECT_EQ(b.sw_frames(), 2u);
}

TEST(ClientBuffers, OutOfOrderReorderedInSoftware) {
  ClientBuffers b = small();
  // Fill hardware so subsequent arrivals stay in the software window.
  for (std::uint64_t i = 0; i < 3; ++i) b.insert(frame(i));
  b.insert(frame(5));
  b.insert(frame(3));
  b.insert(frame(4));
  // Drain: display order must be 0..5 with no skips.
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 6; ++i) {
    auto f = b.consume();
    ASSERT_TRUE(f.has_value());
    order.push_back(f->index);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(b.counters().skipped, 0u);
  EXPECT_EQ(b.counters().late, 0u);
}

TEST(ClientBuffers, DuplicateCountsAsLate) {
  ClientBuffers b = small();
  for (std::uint64_t i = 0; i < 3; ++i) b.insert(frame(i));
  b.insert(frame(4));
  b.insert(frame(4));  // duplicate while still in the software buffer
  EXPECT_EQ(b.counters().late, 1u);
}

TEST(ClientBuffers, ArrivalBehindDecoderHorizonIsLate) {
  ClientBuffers b = small();
  for (std::uint64_t i = 0; i < 3; ++i) b.insert(frame(i));
  // Frames 0..2 are already in the decoder; a late copy of 1 is useless.
  b.insert(frame(1));
  EXPECT_EQ(b.counters().late, 1u);
  // Consuming past it doesn't re-display it.
  (void)b.consume();
  (void)b.consume();
  EXPECT_EQ(b.counters().displayed, 2u);
}

TEST(ClientBuffers, GapCountsSkippedAtDisplayTime) {
  ClientBuffers b = small();
  b.insert(frame(0));
  b.insert(frame(1));
  b.insert(frame(4));  // 2 and 3 lost in the network
  (void)b.consume();
  (void)b.consume();
  auto f = b.consume();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->index, 4u);
  EXPECT_EQ(b.counters().skipped, 2u);
}

TEST(ClientBuffers, StarvationCounted) {
  ClientBuffers b = small();
  EXPECT_EQ(b.consume(), std::nullopt);
  EXPECT_EQ(b.consume(), std::nullopt);
  EXPECT_EQ(b.counters().starvation_ticks, 2u);
}

TEST(ClientBuffers, OverflowDiscardsIncrementalNotI) {
  ClientBuffers b = small();
  // Fill hardware (3) + software (4).
  for (std::uint64_t i = 0; i < 3; ++i) b.insert(frame(i));
  b.insert(frame(3, mpeg::FrameType::kB));
  b.insert(frame(4, mpeg::FrameType::kI));
  b.insert(frame(5, mpeg::FrameType::kB));
  b.insert(frame(6, mpeg::FrameType::kI));
  EXPECT_EQ(b.sw_frames(), 4u);
  // Overflow: frame 7 arrives; the furthest *incremental* frame (5) must be
  // discarded, never the I frames.
  b.insert(frame(7, mpeg::FrameType::kP));
  EXPECT_EQ(b.counters().overflow_discards, 1u);
  EXPECT_EQ(b.counters().overflow_discarded_i_frames, 0u);
  std::vector<std::uint64_t> displayed;
  while (auto f = b.consume()) displayed.push_back(f->index);
  EXPECT_EQ(displayed, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 6, 7}));
}

TEST(ClientBuffers, OverflowAllIFramesDropsIncomingIncremental) {
  ClientBuffers b = small();
  for (std::uint64_t i = 0; i < 3; ++i) b.insert(frame(i));
  for (std::uint64_t i = 3; i < 7; ++i) b.insert(frame(i, mpeg::FrameType::kI));
  // Software holds four I frames; an incoming B is the preferred victim.
  b.insert(frame(7, mpeg::FrameType::kB));
  EXPECT_EQ(b.counters().overflow_discards, 1u);
  EXPECT_EQ(b.counters().overflow_discarded_i_frames, 0u);
  EXPECT_EQ(b.sw_frames(), 4u);
}

TEST(ClientBuffers, OverflowAllIFramesEvictsFurthestIForIncomingI) {
  ClientBuffers b = small();
  for (std::uint64_t i = 0; i < 3; ++i) b.insert(frame(i));
  for (std::uint64_t i = 3; i < 7; ++i) b.insert(frame(i, mpeg::FrameType::kI));
  b.insert(frame(7, mpeg::FrameType::kI));
  EXPECT_EQ(b.counters().overflow_discards, 1u);
  EXPECT_EQ(b.counters().overflow_discarded_i_frames, 1u);
}

TEST(ClientBuffers, HardwareRespectsByteBudgetNotFrameCount) {
  // 10 KB hardware budget with 4 KB frames: only 2 fit (8 KB), not 3.
  ClientBuffers b(4, 10'000, 4000);
  b.insert(frame(0, mpeg::FrameType::kP, 4000));
  b.insert(frame(1, mpeg::FrameType::kP, 4000));
  b.insert(frame(2, mpeg::FrameType::kP, 4000));
  EXPECT_EQ(b.hw_frames(), 2u);
  EXPECT_EQ(b.sw_frames(), 1u);
}

TEST(ClientBuffers, OversizedFrameStillEntersEmptyHardware) {
  ClientBuffers b(4, 3000, 3000);
  b.insert(frame(0, mpeg::FrameType::kI, 20'000));  // larger than the buffer
  EXPECT_EQ(b.hw_frames(), 1u);  // admitted rather than wedged forever
}

TEST(ClientBuffers, FlushRepositionsWithoutCountingSkips) {
  ClientBuffers b = small();
  for (std::uint64_t i = 0; i < 5; ++i) b.insert(frame(i));
  (void)b.consume();
  b.flush_to(1000);
  EXPECT_EQ(b.total_frames(), 0u);
  EXPECT_EQ(b.hw_bytes(), 0u);
  b.insert(frame(1000));
  b.insert(frame(1001));
  auto f = b.consume();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->index, 1000u);
  EXPECT_EQ(b.counters().skipped, 0u);  // the jump is not "skipped frames"
}

TEST(ClientBuffers, FlushMakesOlderFramesLate) {
  ClientBuffers b = small();
  b.flush_to(1000);
  b.insert(frame(999));  // pre-seek stragglers
  EXPECT_EQ(b.counters().late, 1u);
  EXPECT_EQ(b.total_frames(), 0u);
}

TEST(ClientBuffers, OccupancyFraction) {
  ClientBuffers b(10, 10 * 5000, 5000);  // 20 frames total capacity
  EXPECT_EQ(b.total_capacity_frames(), 20u);
  for (std::uint64_t i = 0; i < 5; ++i) b.insert(frame(i));
  EXPECT_DOUBLE_EQ(b.occupancy_fraction(), 0.25);
}

TEST(ClientBuffers, PaperSizedBuffersHoldAbout2Point4Seconds) {
  // 37 software frames + 240 KB hardware at 5833-byte frames ~ 79 frames
  // ~ 2.6 s at 30 fps — the paper's "approximately 2.4 seconds of video".
  ClientBuffers b(37, 240 * 1024, 5833);
  const double seconds =
      static_cast<double>(b.total_capacity_frames()) / 30.0;
  EXPECT_NEAR(seconds, 2.4, 0.3);
}

TEST(ClientBuffers, ZeroSoftwareCapacityRejected) {
  // A zero-frame re-ordering window has no room for the frame being placed:
  // the overflow path would look for a victim in an empty window.
  EXPECT_THROW(ClientBuffers(0, 3 * 5000, 5000), std::invalid_argument);
  ClientBuffers one(1, 5000, 5000);
  one.insert(frame(0, mpeg::FrameType::kI));
  one.insert(frame(1, mpeg::FrameType::kI));
  one.insert(frame(2, mpeg::FrameType::kI));  // overflows the single slot
  EXPECT_EQ(one.counters().overflow_discarded_i_frames, 1u);
  EXPECT_DOUBLE_EQ(one.sw_occupancy_fraction(), 1.0);
}

class BufferFuzz : public ::testing::TestWithParam<unsigned> {};

// Random arrival orders with drops and duplicates: displayed indices are
// strictly increasing, counters are consistent, capacity is never exceeded.
TEST_P(BufferFuzz, InvariantsUnderRandomTraffic) {
  std::mt19937 gen(GetParam() * 1299709 + 11);
  ClientBuffers b(8, 6 * 5000, 5000);
  std::uniform_int_distribution<int> jitter(-3, 3);
  std::uniform_int_distribution<int> action(0, 9);
  std::uint64_t next = 0;
  std::int64_t last_shown = -1;
  for (int step = 0; step < 5000; ++step) {
    if (action(gen) < 7) {
      // Arrival with jittered index; occasionally skip ahead (loss) or
      // repeat (duplicate).
      const std::int64_t idx = static_cast<std::int64_t>(next) + jitter(gen);
      if (idx >= 0) {
        const auto type = idx % 12 == 0 ? mpeg::FrameType::kI
                                        : mpeg::FrameType::kB;
        b.insert(frame(static_cast<std::uint64_t>(idx), type));
      }
      ++next;
    } else {
      if (auto f = b.consume()) {
        ASSERT_GT(static_cast<std::int64_t>(f->index), last_shown);
        last_shown = static_cast<std::int64_t>(f->index);
      }
    }
    ASSERT_LE(b.sw_frames(), 8u);
    ASSERT_LE(b.hw_bytes(), 6u * 5000u + 20'000u);  // one oversized allowance
  }
  // Conservation: every received frame is either displayed, still buffered,
  // dropped as late, or discarded on overflow.
  const BufferCounters& c = b.counters();
  ASSERT_EQ(c.displayed + b.total_frames() + c.late + c.overflow_discards,
            c.received);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferFuzz, ::testing::Range(0u, 8u));

/// Reference model: the straightforward tree-and-deque form of the same
/// rules (software window keyed by index, decoder FIFO), kept here so the
/// ring implementation can be checked against it step by step.
class MapBuffers {
 public:
  MapBuffers(std::size_t sw_cap, std::size_t hw_cap_bytes)
      : sw_cap_(sw_cap), hw_cap_(hw_cap_bytes) {}

  void insert(const mpeg::FrameInfo& f) {
    ++c.received;
    if (static_cast<std::int64_t>(f.index) <= horizon_ ||
        sw_.contains(f.index)) {
      ++c.late;
      return;
    }
    if (sw_.size() >= sw_cap_) {
      auto victim = sw_.end();
      for (auto it = sw_.rbegin(); it != sw_.rend(); ++it) {
        if (it->second.type != mpeg::FrameType::kI) {
          victim = std::prev(it.base());
          break;
        }
      }
      ++c.overflow_discards;
      if (victim == sw_.end()) {
        if (f.type != mpeg::FrameType::kI) return;
        victim = std::prev(sw_.end());
        ++c.overflow_discarded_i_frames;
      }
      sw_.erase(victim);
    }
    sw_.emplace(f.index, f);
    transfer();
  }

  std::optional<mpeg::FrameInfo> consume() {
    if (hw_.empty()) {
      ++c.starvation_ticks;
      return std::nullopt;
    }
    const mpeg::FrameInfo f = hw_.front();
    hw_.pop_front();
    hw_bytes -= f.size_bytes;
    const auto idx = static_cast<std::int64_t>(f.index);
    if (last_displayed >= 0 && idx > last_displayed + 1) {
      c.skipped += static_cast<std::uint64_t>(idx - last_displayed - 1);
    }
    last_displayed = idx;
    ++c.displayed;
    transfer();
    return f;
  }

  void flush_to(std::uint64_t next) {
    sw_.clear();
    hw_.clear();
    hw_bytes = 0;
    horizon_ = static_cast<std::int64_t>(next) - 1;
    last_displayed = static_cast<std::int64_t>(next) - 1;
  }

  [[nodiscard]] std::size_t sw_frames() const { return sw_.size(); }
  [[nodiscard]] std::size_t hw_frames() const { return hw_.size(); }

  BufferCounters c;
  std::size_t hw_bytes = 0;
  std::int64_t last_displayed = -1;

 private:
  void transfer() {
    while (!sw_.empty()) {
      const mpeg::FrameInfo& head = sw_.begin()->second;
      if (hw_bytes + head.size_bytes > hw_cap_ && !hw_.empty()) break;
      hw_.push_back(head);
      hw_bytes += head.size_bytes;
      horizon_ = static_cast<std::int64_t>(head.index);
      sw_.erase(sw_.begin());
    }
  }

  std::size_t sw_cap_;
  std::size_t hw_cap_;
  std::map<std::uint64_t, mpeg::FrameInfo> sw_;
  std::deque<mpeg::FrameInfo> hw_;
  std::int64_t horizon_ = -1;
};

void expect_same_counters(const BufferCounters& a, const BufferCounters& b) {
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.late, b.late);
  EXPECT_EQ(a.overflow_discards, b.overflow_discards);
  EXPECT_EQ(a.overflow_discarded_i_frames, b.overflow_discarded_i_frames);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.displayed, b.displayed);
  EXPECT_EQ(a.starvation_ticks, b.starvation_ticks);
}

class BufferDifferential : public ::testing::TestWithParam<unsigned> {};

// Drives the ring buffers and the reference model with one random sequence
// (in-order, jittered, duplicate and far-ahead arrivals; I-frame-only
// stretches that reach both all-I overflow branches; mixed frame sizes
// including oversized ones; seeks) and requires identical counters,
// occupancy and displayed sequence after every step.
TEST_P(BufferDifferential, MatchesTreeReferenceModel) {
  std::mt19937 gen(GetParam() * 7919 + 3);
  const std::size_t sw_cap = 1 + GetParam() % 9;
  const std::size_t hw_cap = (2 + GetParam() % 5) * 5000;
  ClientBuffers ring(sw_cap, hw_cap, 5000);
  MapBuffers ref(sw_cap, hw_cap);
  std::uniform_int_distribution<int> pick(0, 99);
  std::uniform_int_distribution<int> jitter(-4, 4);
  std::uniform_int_distribution<std::uint32_t> bytes(500, 12'000);
  std::uint64_t next = 0;
  bool all_i = false;
  std::vector<std::uint64_t> shown_ring;
  std::vector<std::uint64_t> shown_ref;
  for (int step = 0; step < 20'000; ++step) {
    if (step % 500 == 0) all_i = pick(gen) < 30;  // I-frame-only stretch
    const int a = pick(gen);
    auto type = [&](std::uint64_t idx) {
      if (all_i && pick(gen) < 90) return mpeg::FrameType::kI;
      return idx % 12 == 0 ? mpeg::FrameType::kI
                           : (idx % 3 == 0 ? mpeg::FrameType::kP
                                           : mpeg::FrameType::kB);
    };
    if (a < 40) {  // in order
      const mpeg::FrameInfo f{next, type(next), bytes(gen)};
      ring.insert(f);
      ref.insert(f);
      ++next;
    } else if (a < 58) {  // jittered (re-ordered or behind the horizon)
      const std::int64_t idx = static_cast<std::int64_t>(next) + jitter(gen);
      if (idx >= 0) {
        const auto u = static_cast<std::uint64_t>(idx);
        const mpeg::FrameInfo f{u, type(u), bytes(gen)};
        ring.insert(f);
        ref.insert(f);
      }
      ++next;
    } else if (a < 63) {  // duplicate of a recent frame
      const std::uint64_t u = next > 2 ? next - 1 - pick(gen) % 3 : 0;
      const mpeg::FrameInfo f{u, type(u), bytes(gen)};
      ring.insert(f);
      ref.insert(f);
    } else if (a < 66) {  // far ahead (a burst was lost)
      next += 5 + pick(gen) % 40;
      const mpeg::FrameInfo f{next, type(next), bytes(gen)};
      ring.insert(f);
      ref.insert(f);
      ++next;
    } else if (a < 99) {
      const auto r1 = ring.consume();
      const auto r2 = ref.consume();
      ASSERT_EQ(r1.has_value(), r2.has_value());
      if (r1) {
        shown_ring.push_back(r1->index);
        shown_ref.push_back(r2->index);
        EXPECT_EQ(r1->type, r2->type);
        EXPECT_EQ(r1->size_bytes, r2->size_bytes);
      }
    } else {  // VCR seek, forward or backward
      next = pick(gen) < 50 ? next + pick(gen) : next / 2;
      ring.flush_to(next);
      ref.flush_to(next);
    }
    ASSERT_EQ(ring.sw_frames(), ref.sw_frames()) << "step " << step;
    ASSERT_EQ(ring.hw_frames(), ref.hw_frames()) << "step " << step;
    ASSERT_EQ(ring.hw_bytes(), ref.hw_bytes) << "step " << step;
    ASSERT_EQ(ring.last_displayed(), ref.last_displayed) << "step " << step;
  }
  expect_same_counters(ring.counters(), ref.c);
  EXPECT_EQ(shown_ring, shown_ref);
  // The sequence must actually have reached every branch it claims to cover.
  EXPECT_GT(ref.c.late, 0u);
  EXPECT_GT(ref.c.overflow_discards, 0u);
  EXPECT_GT(ref.c.skipped, 0u);
  EXPECT_GT(ref.c.starvation_ticks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferDifferential, ::testing::Range(0u, 12u));

// The all-I overflow branches are reached with certainty only when the
// window is small and saturated; check both against the model directly.
TEST(BufferDifferential, AllIFrameOverflowBranchesMatch) {
  for (const auto incoming : {mpeg::FrameType::kB, mpeg::FrameType::kI}) {
    ClientBuffers ring(3, 5000, 5000);
    MapBuffers ref(3, 5000);
    for (std::uint64_t i = 0; i < 4; ++i) {
      const mpeg::FrameInfo f{i, mpeg::FrameType::kI, 5000};
      ring.insert(f);
      ref.insert(f);
    }
    const mpeg::FrameInfo reordered{9, incoming, 5000};
    const mpeg::FrameInfo between{6, incoming, 5000};
    for (const auto& f : {reordered, between}) {
      ring.insert(f);
      ref.insert(f);
    }
    expect_same_counters(ring.counters(), ref.c);
    EXPECT_EQ(ring.sw_frames(), ref.sw_frames());
    std::vector<std::uint64_t> a;
    std::vector<std::uint64_t> b;
    while (auto f = ring.consume()) a.push_back(f->index);
    while (auto f = ref.consume()) b.push_back(f->index);
    EXPECT_EQ(a, b);
  }
}

}  // namespace
}  // namespace ftvod::vod
