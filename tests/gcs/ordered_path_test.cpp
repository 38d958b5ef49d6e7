// The daemon's receive gate and ordered-message path, driven through the
// network from a probe host that runs no daemon:
//  * the gate checksums each datagram once and still tells damage (no
//    liveness) from a malformed body (liveness);
//  * hold-back, duplicate suppression, gap repair by NACK, retransmission
//    of the stored bytes, trimming at the stability horizon, and the reset
//    on view installation;
//  * a counting-allocator proof that a warm delivery loop makes one heap
//    allocation per delivered message per daemon: the kept datagram.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "gcs/wire.hpp"
#include "gcs_harness.hpp"
#include "util/frame.hpp"

// Under AddressSanitizer the global allocator belongs to ASan; the hooks
// are compiled out and the allocation assertion is skipped.
#if defined(__SANITIZE_ADDRESS__)
#define FTVOD_COUNTING_ALLOC 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FTVOD_COUNTING_ALLOC 0
#endif
#endif
#ifndef FTVOD_COUNTING_ALLOC
#define FTVOD_COUNTING_ALLOC 1
#endif

namespace {
std::uint64_t g_allocs = 0;
constexpr bool kCountingAlloc = FTVOD_COUNTING_ALLOC != 0;
}  // namespace

#if FTVOD_COUNTING_ALLOC
void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  ++g_allocs;
  const auto align = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // FTVOD_COUNTING_ALLOC

namespace ftvod::gcs {
namespace {

using testing::GcsHarness;
using testing::Listener;
using testing::text_msg;

/// Three daemons with one member of group "g" each, plus a probe host that
/// runs no daemon. The probe's socket sits on the GCS port, so whatever a
/// daemon sends back to it (retransmissions) lands in `replies`.
class OrderedPath : public ::testing::Test {
 protected:
  void SetUp() override {
    h_.start_all();
    ASSERT_TRUE(h_.run_until_converged());
    probe_node_ = h_.network().add_host("probe");
    probe_ = h_.network().bind(
        probe_node_, h_.config().port,
        [this](const net::Endpoint&, std::span<const std::byte> d) {
          replies_.emplace_back(d.begin(), d.end());
        });
    for (int i = 0; i < 3; ++i) {
      members_.push_back(h_.daemon(i).join("g", listeners_[i].callbacks()));
    }
    h_.run_for(sim::msec(300));
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(h_.daemon(i).group_members("g").size(), 3u);
    }
  }

  /// An App message for `group` as the coordinator would encode it.
  util::Bytes ordered(int daemon, std::uint64_t gseq, const util::Bytes& text,
                      std::string_view group = "g") {
    wire::Ordered m;
    m.view = h_.daemon(daemon).view().id;
    m.gseq = gseq;
    m.sender = probe_node_;
    m.sender_seq = gseq;
    m.group = group;
    m.origin = GcsEndpoint{probe_node_, 0};
    m.payload = text;
    return wire::encode(m);
  }

  void probe_send(int daemon, std::span<const std::byte> bytes) {
    probe_->send(net::Endpoint{h_.node(daemon), h_.config().port}, bytes);
  }

  GcsHarness h_{3};
  net::NodeId probe_node_ = net::kInvalidNode;
  std::unique_ptr<net::Socket> probe_;
  std::vector<util::Bytes> replies_;
  Listener listeners_[3];
  std::vector<std::unique_ptr<GroupMember>> members_;
};

// ------------------------------------------------------------------- gate

TEST_F(OrderedPath, CorruptDatagramIsDroppedWithoutRefreshingLiveness) {
  // Daemon 2 goes silent; the probe speaks for its node with damaged
  // datagrams only. They prove nothing, so daemon 0 still suspects node 2.
  Daemon& d0 = h_.daemon(0);
  const auto corrupt0 = d0.socket_stats().corrupt_dropped;
  const auto malformed0 = d0.stats().malformed_dropped;
  auto spoof = h_.network().bind(h_.node(2), 4444, nullptr);
  util::Bytes hb = wire::encode(wire::Heartbeat{d0.view().id, {}, 0, 0});
  hb.back() ^= std::byte{0x01};  // a bit flip in the body: CRC mismatch
  h_.daemon(2).pause();
  for (int i = 0; i < 10; ++i) {
    spoof->send(net::Endpoint{h_.node(0), h_.config().port}, hb);
    h_.run_for(sim::msec(100));
  }
  EXPECT_EQ(d0.socket_stats().corrupt_dropped - corrupt0, 10u);
  EXPECT_EQ(d0.stats().malformed_dropped - malformed0, 10u);
  EXPECT_FALSE(d0.view().contains(h_.node(2)));
}

TEST_F(OrderedPath, MalformedButIntactDatagramRefreshesLiveness) {
  // Same silence, but the datagrams verify: a sealed frame whose tag no
  // decoder accepts. The peer is alive, so it stays in the view.
  Daemon& d0 = h_.daemon(0);
  const auto corrupt0 = d0.socket_stats().corrupt_dropped;
  const auto malformed0 = d0.stats().malformed_dropped;
  auto spoof = h_.network().bind(h_.node(2), 4444, nullptr);
  util::Writer w;
  util::frame_begin(w);
  w.u8(static_cast<std::uint8_t>(wire::MsgType::kHeartbeat));
  w.u8(0xEE);  // far too short for a heartbeat body
  util::frame_seal(w);
  const util::Bytes bad = w.take();
  ASSERT_TRUE(util::frame_open(bad).has_value());
  const ViewId before = d0.view().id;
  h_.daemon(2).pause();
  for (int i = 0; i < 10; ++i) {
    spoof->send(net::Endpoint{h_.node(0), h_.config().port}, bad);
    h_.run_for(sim::msec(100));
  }
  EXPECT_EQ(d0.socket_stats().corrupt_dropped - corrupt0, 0u);
  EXPECT_EQ(d0.stats().malformed_dropped - malformed0, 10u);
  EXPECT_EQ(d0.view().id, before);
  EXPECT_TRUE(d0.view().contains(h_.node(2)));
}

// ---------------------------------------------------------- ordered path

TEST_F(OrderedPath, DuplicatesReorderingAndGapsDeliverOnceInOrder) {
  Daemon& d1 = h_.daemon(1);
  const std::uint64_t g = d1.delivered_upto();
  const std::size_t seen = listeners_[1].messages.size();
  std::vector<util::Bytes> msg;
  for (int i = 1; i <= 4; ++i) {
    msg.push_back(ordered(1, g + i, text_msg("m" + std::to_string(i))));
  }
  const auto step = [&](const util::Bytes& bytes) {
    probe_send(1, bytes);
    h_.run_for(sim::msec(5));
  };

  step(msg[1]);  // g+2 ahead of g+1: held back
  step(msg[1]);  // a duplicate of a held message
  EXPECT_EQ(d1.held_back(), 1u);
  EXPECT_EQ(d1.delivered_upto(), g);
  step(msg[0]);  // fills the gap: both deliver
  EXPECT_EQ(d1.held_back(), 0u);
  EXPECT_EQ(d1.delivered_upto(), g + 2);
  step(msg[0]);  // a duplicate of a delivered message
  step(msg[3]);  // g+4 leaves a gap at g+3
  EXPECT_EQ(d1.held_back(), 1u);
  EXPECT_EQ(d1.delivered_upto(), g + 2);
  step(msg[2]);
  EXPECT_EQ(d1.held_back(), 0u);
  EXPECT_EQ(d1.delivered_upto(), g + 4);

  std::vector<std::string> got;
  for (std::size_t i = seen; i < listeners_[1].messages.size(); ++i) {
    got.push_back(listeners_[1].messages[i].text);
  }
  EXPECT_EQ(got, (std::vector<std::string>{"m1", "m2", "m3", "m4"}));
  EXPECT_GE(d1.retained(), 4u);
}

TEST_F(OrderedPath, GapFromLossIsRepairedByNack) {
  // The coordinator's copy of "a" to daemon 2 is lost; "b" then arrives
  // ahead of a gap, and daemon 2's NACK brings "a" back.
  Daemon& d0 = h_.daemon(0);
  Daemon& d2 = h_.daemon(2);
  ASSERT_EQ(d0.view().id.coord, h_.node(0));
  const auto retrans0 = d0.stats().retransmissions;
  net::LinkQuality cut = net::lan_quality();
  cut.loss = 1.0;
  h_.network().set_quality(h_.node(0), h_.node(2), cut);
  members_[0]->send(text_msg("a"));
  h_.run_for(sim::msec(2));
  h_.network().clear_quality(h_.node(0), h_.node(2));
  members_[0]->send(text_msg("b"));
  h_.run_for(sim::msec(2));
  EXPECT_EQ(d2.held_back(), 1u);
  h_.run_for(sim::msec(60));  // two NACK periods
  EXPECT_EQ(d2.held_back(), 0u);
  EXPECT_GT(d0.stats().retransmissions, retrans0);
  const auto texts = listeners_[2].texts();
  ASSERT_GE(texts.size(), 2u);
  EXPECT_EQ(texts[texts.size() - 2], "a");
  EXPECT_EQ(texts.back(), "b");
  EXPECT_EQ(listeners_[2].texts(), listeners_[1].texts());
}

TEST_F(OrderedPath, RetransmissionResendsTheFirstTransmissionBytes) {
  // A datagram received from the wire comes back byte for byte.
  Daemon& d1 = h_.daemon(1);
  const std::uint64_t g = d1.delivered_upto() + 1;
  const util::Bytes first = ordered(1, g, text_msg("probe"));
  probe_send(1, first);
  h_.run_for(sim::msec(5));
  ASSERT_EQ(d1.delivered_upto(), g);
  probe_send(1, wire::encode(wire::RetransReq{d1.view().id, g, g}));
  h_.run_for(sim::msec(5));
  ASSERT_EQ(replies_.size(), 1u);
  EXPECT_EQ(replies_[0], first);

  // A message the coordinator ordered: its own retained encoding equals
  // the copy another member received and kept.
  replies_.clear();
  members_[1]->send(text_msg("ordered"));
  h_.run_for(sim::msec(5));
  const std::uint64_t o = h_.daemon(0).delivered_upto();
  ASSERT_EQ(h_.daemon(2).delivered_upto(), o);
  for (int d : {0, 2}) {
    probe_send(d, wire::encode(wire::RetransReq{h_.daemon(d).view().id, o, o}));
  }
  h_.run_for(sim::msec(5));
  ASSERT_EQ(replies_.size(), 2u);
  EXPECT_EQ(replies_[0], replies_[1]);
  const auto m = wire::decode_ordered(replies_[0]);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->gseq, o);
  EXPECT_EQ(m->sender, h_.node(1));
}

TEST_F(OrderedPath, RetentionIsTrimmedAtTheSafeHorizon) {
  for (int i = 0; i < 20; ++i) {
    members_[i % 3]->send(text_msg("x" + std::to_string(i)));
  }
  h_.run_for(sim::msec(10));
  const std::uint64_t last = h_.daemon(0).delivered_upto();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(h_.daemon(i).delivered_upto(), last);
    EXPECT_GE(h_.daemon(i).retained(), 20u);
  }
  // Every member's heartbeat reports `last`; the coordinator's next one
  // advances the horizon, and the one after that reaches the others.
  h_.run_for(sim::msec(400));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(h_.daemon(i).retained(), 0u) << "daemon " << i;
    EXPECT_EQ(h_.daemon(i).delivered_upto(), last);
  }
  // Trimmed messages are no longer served.
  probe_send(1,
             wire::encode(wire::RetransReq{h_.daemon(1).view().id, 1, last}));
  h_.run_for(sim::msec(5));
  EXPECT_TRUE(replies_.empty());
}

TEST_F(OrderedPath, InstallClearsHoldBackAndRetention) {
  Daemon& d1 = h_.daemon(1);
  members_[0]->send(text_msg("kept"));
  h_.run_for(sim::msec(5));
  const std::uint64_t g = d1.delivered_upto();
  probe_send(1, ordered(1, g + 2, text_msg("stranded")));  // gap at g+1
  h_.run_for(sim::msec(5));
  ASSERT_EQ(d1.held_back(), 1u);
  ASSERT_GT(d1.retained(), 0u);

  h_.crash(2);
  ASSERT_TRUE(h_.run_until_converged());
  EXPECT_EQ(d1.view().members.size(), 2u);
  EXPECT_EQ(d1.held_back(), 0u);
  EXPECT_EQ(d1.retained(), 0u);
  EXPECT_EQ(d1.delivered_upto(), 0u);
  for (const auto& m : listeners_[1].messages) EXPECT_NE(m.text, "stranded");
}

// ------------------------------------------------------ allocation proof

// Every daemon receives a batch in reverse gseq order (so all but the last
// arrival wait in hold-back), delivers it to its member, retains it, and
// trims it once heartbeats carry the horizon. A 300-ms round is a common
// multiple of every daemon timer period, so an idle round fires the same
// timers; the difference between a busy and an idle round is the cost of
// the batch itself, which must be the one kept copy per delivery.
TEST_F(OrderedPath, WarmDeliveryLoopAllocatesOncePerDeliveryPerDaemon) {
  constexpr int kBatch = 64;
  constexpr int kRounds = 6;  // 3 warm-up, 3 measured
  // Members whose callback only counts, so the test adds no allocations.
  std::uint64_t received = 0;
  std::vector<std::unique_ptr<GroupMember>> counters;
  for (int d = 0; d < 3; ++d) {
    counters.push_back(h_.daemon(d).join(
        "count", GroupCallbacks{[&](const GcsEndpoint&,
                                    std::span<const std::byte>) { ++received; },
                                nullptr}));
  }
  h_.run_for(sim::msec(300));
  const std::uint64_t base = h_.daemon(0).delivered_upto();
  ASSERT_EQ(h_.daemon(0).group_members("count").size(), 3u);
  for (int i = 1; i < 3; ++i) {
    ASSERT_EQ(h_.daemon(i).delivered_upto(), base);
  }
  // Pre-encode every round so the measured window does no test-side work.
  std::vector<util::Bytes> batches;
  const util::Bytes payload = text_msg("a state sync of modest size");
  for (int k = 0; k < kRounds * kBatch; ++k) {
    batches.push_back(ordered(0, base + 1 + k, payload, "count"));
  }
  std::uint64_t delivered = 0;
  const auto round = [&](int r, bool busy) {
    if (busy) {
      for (int k = kBatch - 1; k >= 0; --k) {
        for (int d = 0; d < 3; ++d) probe_send(d, batches[r * kBatch + k]);
      }
    }
    h_.run_for(sim::msec(300));
  };
  const auto delivered_now = [&] {
    std::uint64_t n = 0;
    for (int d = 0; d < 3; ++d) n += h_.daemon(d).stats().messages_delivered;
    return n;
  };
  for (int r = 0; r < 3; ++r) {
    round(r, true);
    round(r, false);
  }

  std::uint64_t busy_allocs = 0;
  std::uint64_t idle_allocs = 0;
  for (int r = 3; r < kRounds; ++r) {
    const std::uint64_t d0 = delivered_now();
    std::uint64_t a0 = g_allocs;
    round(r, true);
    busy_allocs += g_allocs - a0;
    delivered += delivered_now() - d0;
    a0 = g_allocs;
    round(r, false);
    idle_allocs += g_allocs - a0;
  }
  EXPECT_EQ(delivered, 3u * kBatch * (kRounds - 3));
  EXPECT_EQ(received, 3u * kBatch * kRounds);
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(h_.daemon(d).delivered_upto(), base + kRounds * kBatch);
    EXPECT_EQ(h_.daemon(d).held_back(), 0u);
    EXPECT_EQ(h_.daemon(d).retained(), 0u);
  }
  if (kCountingAlloc) {
    ASSERT_GE(busy_allocs, idle_allocs);
    const double per_delivery =
        static_cast<double>(busy_allocs - idle_allocs) /
        static_cast<double>(delivered);
    RecordProperty("allocs_per_delivery", std::to_string(per_delivery));
    EXPECT_LE(per_delivery, 1.0) << "busy " << busy_allocs << " idle "
                                 << idle_allocs << " deliveries " << delivered;
  }
}

}  // namespace
}  // namespace ftvod::gcs
