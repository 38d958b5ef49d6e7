// GCS recovery corner cases: the retry/rescue paths of the membership
// protocol that only fire when messages are lost or participants die at
// awkward moments.
#include <gtest/gtest.h>

#include "gcs_harness.hpp"

namespace ftvod::gcs {
namespace {

using testing::GcsHarness;
using testing::Listener;
using testing::text_msg;

TEST(GcsRecovery, OwnMessageDeliveredDuringFlushKeepsLaterSendsFlowing) {
  // n2 acks a view change before it has delivered its own "a", then
  // delivers "a" in the flush. The install must not make the new
  // coordinator wait for the sequence number "a" consumed: n2's next
  // message is ordered in the new view.
  GcsHarness h(4);
  for (int i = 0; i < 3; ++i) h.start(i);
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1, l2;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  auto m2 = h.daemon(2).join("g", l2.callbacks());
  h.run_for(sim::sec(1));

  // "a" reaches the coordinator n0, but its ordered copy to n2 is lost,
  // and so is the merge proposal that n3's arrival makes n0 send.
  net::LinkQuality cut = net::lan_quality();
  cut.loss = 1.0;
  m2->send(text_msg("a"));
  h.network().set_quality(h.node(0), h.node(2), cut);
  h.start(3);
  h.run_for(sim::msec(150));
  ASSERT_TRUE(h.daemon(0).blocked());
  ASSERT_TRUE(l2.messages.empty());
  h.network().clear_quality(h.node(0), h.node(2));
  ASSERT_TRUE(h.run_until_converged());
  ASSERT_EQ(h.daemon(2).view().members.size(), 4u);
  ASSERT_EQ(l2.texts(), std::vector<std::string>{"a"});

  m2->send(text_msg("b"));
  h.run_for(sim::sec(1));
  for (const Listener* l : {&l0, &l1, &l2}) {
    EXPECT_EQ(l->texts(), (std::vector<std::string>{"a", "b"}));
  }
}

TEST(GcsRecovery, ProposerCrashMidViewChange) {
  // Kill the daemon that is *about to* coordinate a view change, right
  // after the change is triggered: the blocked participants' rescue path
  // must elect the next proposer.
  GcsHarness h(4);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  // Crash a high-id member to trigger a view change coordinated by n0...
  h.crash(3);
  // ...and kill the coordinator shortly after it starts proposing.
  h.run_for(sim::msec(450));  // suspicion fires at ~400 ms
  h.crash(0);
  ASSERT_TRUE(h.run_until_converged(sim::sec(15)));
  EXPECT_EQ(h.daemon(1).view().members.size(), 2u);
  EXPECT_EQ(h.daemon(1).view().id, h.daemon(2).view().id);

  // The surviving pair still delivers messages.
  Listener l1, l2;
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  auto m2 = h.daemon(2).join("g", l2.callbacks());
  h.run_for(sim::sec(1));
  m1->send(text_msg("alive"));
  h.run_for(sim::sec(1));
  EXPECT_EQ(l2.texts(), std::vector<std::string>{"alive"});
}

TEST(GcsRecovery, LossyViewChangeStillConverges) {
  // Heavy loss makes Propose/Ack/Install messages need their retry paths.
  net::LinkQuality q = net::lan_quality();
  q.loss = 0.30;
  GcsHarness h(3, q, 77);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged(sim::sec(60)));
  h.crash(2);
  ASSERT_TRUE(h.run_until_converged(sim::sec(60)));
  EXPECT_EQ(h.daemon(0).view().members.size(), 2u);
}

TEST(GcsRecovery, RepeatedPartitionsAndHeals) {
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  for (int round = 0; round < 3; ++round) {
    h.network().partition({{h.node(0)}, {h.node(1), h.node(2)}});
    h.run_for(sim::sec(2));
    h.network().heal();
    ASSERT_TRUE(h.run_until_converged(sim::sec(15))) << "round " << round;
  }
  EXPECT_EQ(h.daemon(0).view().members.size(), 3u);
}

TEST(GcsRecovery, MessageFlowAcrossManyViewChanges) {
  // A member keeps sending while the membership churns around it; every
  // message sent in a stable period must reach the stable peer.
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  h.run_for(sim::sec(1));

  m0->send(text_msg("epoch-1"));
  h.run_for(sim::sec(1));
  h.crash(2);  // view change 1
  ASSERT_TRUE(h.run_until_converged(sim::sec(10)));
  m0->send(text_msg("epoch-2"));
  h.run_for(sim::sec(1));
  h.network().partition({{h.node(0), h.node(1)}});  // no-op component
  h.network().heal();
  m0->send(text_msg("epoch-3"));
  h.run_for(sim::sec(2));
  EXPECT_EQ(l1.texts(), (std::vector<std::string>{"epoch-1", "epoch-2",
                                                  "epoch-3"}));
}

TEST(GcsRecovery, PendingSendSurvivesViewChange) {
  // A message submitted a moment before the coordinator dies must be
  // re-submitted in the new view and delivered exactly once.
  GcsHarness h(3);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l1, l2;
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  auto m2 = h.daemon(2).join("g", l2.callbacks());
  h.run_for(sim::sec(1));

  // n0 coordinates. Cut it off and submit immediately: the Submit cannot
  // be ordered by the dying coordinator.
  h.crash(0);
  m1->send(text_msg("limbo"));
  ASSERT_TRUE(h.run_until_converged(sim::sec(10)));
  h.run_for(sim::sec(2));
  EXPECT_EQ(l1.texts(), std::vector<std::string>{"limbo"});
  EXPECT_EQ(l2.texts(), std::vector<std::string>{"limbo"});
}

TEST(GcsRecovery, DaemonStatsTrackActivity) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  Listener l0, l1;
  auto m0 = h.daemon(0).join("g", l0.callbacks());
  auto m1 = h.daemon(1).join("g", l1.callbacks());
  h.run_for(sim::sec(1));
  for (int i = 0; i < 5; ++i) m0->send(text_msg("x"));
  h.run_for(sim::sec(1));
  const DaemonStats& coord = h.daemon(0).stats();
  // 2 joins + 5 app messages ordered by the coordinator of the merged view.
  EXPECT_GE(coord.messages_ordered + h.daemon(1).stats().messages_ordered,
            7u);
  EXPECT_GE(coord.view_changes, 1u);
  EXPECT_GT(h.daemon(0).socket_stats().bytes_sent, 0u);
}

TEST(GcsRecovery, HaltedDaemonIsInert) {
  GcsHarness h(2);
  h.start_all();
  ASSERT_TRUE(h.run_until_converged());
  h.daemon(1).halt();
  EXPECT_TRUE(h.daemon(1).halted());
  const auto sent = h.daemon(1).socket_stats().bytes_sent;
  h.run_for(sim::sec(2));
  EXPECT_EQ(h.daemon(1).socket_stats().bytes_sent, sent);
  // The peer eventually removes it.
  ASSERT_TRUE(h.run_until_converged(sim::sec(5)) ||
              h.daemon(0).view().members.size() == 1);
}

}  // namespace
}  // namespace ftvod::gcs
