// Normal-operation GCS tests: group membership, ordered delivery, FIFO,
// total order, retransmission under loss.
#include <gtest/gtest.h>

#include <algorithm>

#include "gcs_harness.hpp"

namespace ftvod::gcs {
namespace {

using testing::GcsHarness;
using testing::Listener;
using testing::text_msg;

TEST(GcsDaemon, SingleDaemonSelfDelivery) {
  GcsHarness h(1);
  h.start_all();
  Listener lis;
  auto m = h.daemon(0).join("g", lis.callbacks());
  h.run_for(sim::sec(1));
  ASSERT_FALSE(lis.views.empty());
  EXPECT_EQ(lis.views.back().members.size(), 1u);
  EXPECT_EQ(lis.views.back().members[0], m->endpoint());

  m->send(text_msg("hello"));
  h.run_for(sim::sec(1));
  ASSERT_EQ(lis.messages.size(), 1u);
  EXPECT_EQ(lis.messages[0].text, "hello");
  EXPECT_EQ(lis.messages[0].from, m->endpoint());
}

TEST(GcsDaemon, TwoDaemonsConvergeToOneView) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  EXPECT_EQ(h.daemon(0).view().members.size(), 2u);
  EXPECT_EQ(h.daemon(0).view().id, h.daemon(1).view().id);
}

TEST(GcsDaemon, FiveDaemonsConverge) {
  GcsHarness h(5);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(h.daemon(i).view().members.size(), 5u);
  }
}

TEST(GcsDaemon, GroupMessageReachesAllMembers) {
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1, l2;
  auto m0 = h.daemon(0).join("movie", l0.callbacks());
  auto m1 = h.daemon(1).join("movie", l1.callbacks());
  auto m2 = h.daemon(2).join("movie", l2.callbacks());
  h.run_for(sim::sec(1));

  m0->send(text_msg("from0"));
  m1->send(text_msg("from1"));
  h.run_for(sim::sec(1));

  for (Listener* l : {&l0, &l1, &l2}) {
    EXPECT_EQ(l->texts(), (std::vector<std::string>{"from0", "from1"}));
  }
}

TEST(GcsDaemon, JoinViewsSeenByAll) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  h.run_for(sim::sec(1));
  ASSERT_FALSE(l0.views.empty());
  EXPECT_EQ(l0.views.back().members.size(), 1u);

  auto m1 = h.daemon(1).join("g", l1.callbacks());
  h.run_for(sim::sec(1));
  EXPECT_EQ(l0.views.back().members.size(), 2u);
  EXPECT_EQ(l1.views.back().members.size(), 2u);
  EXPECT_EQ(l0.views.back().members, l1.views.back().members);
}

TEST(GcsDaemon, LeaveShrinksView) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  h.run_for(sim::sec(1));
  ASSERT_EQ(l0.views.back().members.size(), 2u);

  m1->leave();
  h.run_for(sim::sec(1));
  EXPECT_EQ(l0.views.back().members.size(), 1u);
  EXPECT_EQ(l0.views.back().members[0], m0->endpoint());
  EXPECT_FALSE(m1->active());
}

TEST(GcsDaemon, HandleDestructionLeaves) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  {
    auto m1 = h.daemon(1).join("g", l1.callbacks());
    h.run_for(sim::sec(1));
    ASSERT_EQ(l0.views.back().members.size(), 2u);
  }
  h.run_for(sim::sec(1));
  EXPECT_EQ(l0.views.back().members.size(), 1u);
}

TEST(GcsDaemon, FifoPerSender) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  h.run_for(sim::sec(1));
  for (int i = 0; i < 50; ++i) m0->send(text_msg("m" + std::to_string(i)));
  h.run_for(sim::sec(2));
  ASSERT_EQ(l1.messages.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(l1.messages[i].text, "m" + std::to_string(i));
  }
}

TEST(GcsDaemon, TotalOrderAcrossSenders) {
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1, l2;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  auto m2 = h.daemon(2).join("g", l2.callbacks());
  h.run_for(sim::sec(1));
  // Interleaved concurrent sends from all members.
  for (int i = 0; i < 20; ++i) {
    m0->send(text_msg("a" + std::to_string(i)));
    m1->send(text_msg("b" + std::to_string(i)));
    m2->send(text_msg("c" + std::to_string(i)));
  }
  h.run_for(sim::sec(3));
  ASSERT_EQ(l0.messages.size(), 60u);
  EXPECT_EQ(l0.texts(), l1.texts());
  EXPECT_EQ(l0.texts(), l2.texts());
}

TEST(GcsDaemon, NonMemberSendReachesGroup) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0;
  auto m0 = h.daemon(0).join("servers", l0.callbacks());
  h.run_for(sim::sec(1));
  h.daemon(1).send_to_group("servers", text_msg("request"));
  h.run_for(sim::sec(1));
  ASSERT_EQ(l0.messages.size(), 1u);
  EXPECT_EQ(l0.messages[0].text, "request");
  EXPECT_EQ(l0.messages[0].from.node, h.node(1));
  EXPECT_EQ(l0.messages[0].from.local, 0u);  // non-member marker
}

TEST(GcsDaemon, GroupsAreIsolated) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener la, lb;
  auto ma = h.daemon(0).join("a", la.callbacks());
  auto mb = h.daemon(1).join("b", lb.callbacks());
  h.run_for(sim::sec(1));
  ma->send(text_msg("for-a"));
  h.run_for(sim::sec(1));
  EXPECT_EQ(la.messages.size(), 1u);
  EXPECT_TRUE(lb.messages.empty());
  EXPECT_EQ(la.views.back().members.size(), 1u);
  EXPECT_EQ(lb.views.back().members.size(), 1u);
}

TEST(GcsDaemon, SendImmediatelyAfterJoinIsOrderedAfterJoin) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  h.run_for(sim::sec(1));
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  m1->send(text_msg("eager"));  // before its join view arrives
  h.run_for(sim::sec(1));
  ASSERT_EQ(l1.messages.size(), 1u);
  // The join view must have been delivered before the message.
  ASSERT_FALSE(l1.views.empty());
  EXPECT_TRUE(l1.views.front().contains(m1->endpoint()));
  EXPECT_EQ(l0.messages.size(), 1u);
}

TEST(GcsDaemon, CoordinatorCallsReturnBeforeAnyCallbackRuns) {
  // The coordinator orders its own submissions from a zero-delay step, like
  // any remote sender's: join(), send(), send_to_group() and leave() queue
  // and return, and the deliveries follow in submission order at the same
  // simulated time.
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Daemon& coord = h.daemon(0);
  ASSERT_EQ(coord.view().id.coord, h.node(0));
  Listener remote;
  auto r = h.daemon(1).join("g", remote.callbacks());
  h.run_for(sim::sec(1));

  const sim::Time t0 = h.scheduler().now();
  bool in_call = false;
  int inside = 0;
  std::vector<std::string> seen;
  std::vector<sim::Time> at;
  GroupCallbacks cbs{
      [&](const GcsEndpoint&, std::span<const std::byte> d) {
        inside += in_call ? 1 : 0;
        seen.emplace_back(reinterpret_cast<const char*>(d.data()), d.size());
        at.push_back(h.scheduler().now());
      },
      [&](const GroupView& v) {
        inside += in_call ? 1 : 0;
        seen.push_back("view" + std::to_string(v.members.size()));
        at.push_back(h.scheduler().now());
      }};
  const auto call = [&](auto fn) {
    in_call = true;
    fn();
    in_call = false;
  };
  std::unique_ptr<GroupMember> a;
  std::unique_ptr<GroupMember> b;
  call([&] { a = coord.join("g", cbs); });
  call([&] { a->send(text_msg("x")); });
  call([&] { coord.send_to_group("g", text_msg("y")); });
  call([&] { b = coord.join("g", GroupCallbacks{}); });
  call([&] { b->leave(); });
  EXPECT_TRUE(seen.empty());

  h.scheduler().run_until(t0);
  EXPECT_EQ(inside, 0);
  EXPECT_EQ(seen, (std::vector<std::string>{"view2", "x", "y", "view3",
                                            "view2"}));
  EXPECT_EQ(at, std::vector<sim::Time>(seen.size(), t0));
  h.run_for(sim::sec(1));
  EXPECT_EQ(remote.texts(), (std::vector<std::string>{"x", "y"}));
}

TEST(GcsDaemon, MessagesDeliveredUnderLoss) {
  net::LinkQuality lossy = net::lan_quality();
  lossy.loss = 0.15;
  GcsHarness h(3, lossy);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged(sim::sec(30)));
  Listener l0, l1, l2;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  auto m2 = h.daemon(2).join("g", l2.callbacks());
  h.run_for(sim::sec(2));
  for (int i = 0; i < 30; ++i) m0->send(text_msg("m" + std::to_string(i)));
  h.run_for(sim::sec(10));
  // Reliable multicast: despite 15% loss, everything arrives, in order.
  EXPECT_EQ(l1.messages.size(), 30u);
  EXPECT_EQ(l2.messages.size(), 30u);
  EXPECT_EQ(l1.texts(), l2.texts());
}

TEST(GcsDaemon, LargePayloadRoundTrip) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  h.run_for(sim::sec(1));
  m0->send(text_msg(std::string(50'000, 'z')));
  h.run_for(sim::sec(2));
  ASSERT_EQ(l1.messages.size(), 1u);
  EXPECT_EQ(l1.messages[0].text.size(), 50'000u);
}

TEST(GcsDaemon, GroupMembersQueryTracksTable) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  h.run_for(sim::sec(1));
  EXPECT_EQ(h.daemon(0).group_members("g").size(), 2u);
  EXPECT_EQ(h.daemon(1).group_members("g").size(), 2u);
  EXPECT_TRUE(h.daemon(0).group_members("nonexistent").empty());
}

TEST(GcsDaemon, ControlBandwidthIsModest) {
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  const std::uint64_t before = h.daemon(0).socket_stats().bytes_sent;
  h.run_for(sim::sec(10));
  const std::uint64_t idle_bytes =
      h.daemon(0).socket_stats().bytes_sent - before;
  // Idle daemon overhead is heartbeats only: well under 10 KB/s.
  EXPECT_LT(idle_bytes, 100'000u);
}

}  // namespace
}  // namespace ftvod::gcs
