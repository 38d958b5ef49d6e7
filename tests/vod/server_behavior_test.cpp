// Server behaviour through the full stack: open-request arbitration, state
// sync semantics, table-exchange determinism, catalog changes.
#include <gtest/gtest.h>

#include "../integration/vod_testbed.hpp"

namespace ftvod::vod {
namespace {

using testing::VodTestBed;

TEST(ServerBehavior, ExactlyOneServerOpensASession) {
  VodTestBed bed(3, 1);
  bed.watch_all();
  bed.run_for(8.0);
  int serving = 0;
  for (int s = 0; s < 3; ++s) {
    if (bed.server(s).serves(bed.client().client_id())) ++serving;
  }
  EXPECT_EQ(serving, 1);
  // Exactly one fresh session was opened across the whole group.
  std::uint64_t opened = 0;
  for (int s = 0; s < 3; ++s) opened += bed.server(s).stats().sessions_opened;
  EXPECT_EQ(opened, 1u);
}

TEST(ServerBehavior, DuplicateOpenRequestIsIdempotent) {
  // The client retries OpenRequest until a reply arrives; make the reply
  // slow by using a lossy link so retries genuinely overlap.
  net::LinkQuality q = net::lan_quality();
  q.loss = 0.35;
  VodTestBed bed(1, 1, q, 3);
  bed.watch_all();
  bed.run_for(15.0);
  ASSERT_TRUE(bed.client().connected());
  EXPECT_EQ(bed.server(0).session_count(), 1u);
  EXPECT_EQ(bed.server(0).stats().sessions_opened, 1u);
}

TEST(ServerBehavior, SecondWatchOfSameMovieGetsOwnSession) {
  VodTestBed bed(1, 2);
  bed.watch_all();
  bed.run_for(8.0);
  EXPECT_EQ(bed.server(0).session_count(), 2u);
  EXPECT_NE(bed.client(0).client_id(), bed.client(1).client_id());
}

TEST(ServerBehavior, StateSyncCarriesOffsets) {
  VodTestBed bed(2, 1);
  bed.watch_all();
  bed.run_for(12.0);
  const int serving = bed.serving_server();
  const int other = 1 - serving;
  // The idle server must know the client's position from the syncs: crash
  // the serving one and check the takeover offset is recent.
  const std::int64_t displayed = bed.client().buffers()->last_displayed();
  bed.crash_server(serving);
  bed.run_for(3.0);
  ASSERT_TRUE(bed.server(other).serves(bed.client().client_id()));
  // Resumed within ~2 s of the display position (sync staleness bound).
  EXPECT_GT(bed.client().counters().received, 0u);
  EXPECT_GT(displayed, 200);
}

TEST(ServerBehavior, RemoveMovieMigratesClients) {
  VodTestBed bed(2, 1);
  bed.watch_all();
  bed.run_for(10.0);
  const int serving = bed.serving_server();
  const int other = 1 - serving;
  bed.server(serving).remove_movie(bed.movie()->name());
  bed.run_for(5.0);
  // The other replica picks the client up (the removal leaves the movie
  // group, which the survivors see as a membership change).
  EXPECT_TRUE(bed.server(other).serves(bed.client().client_id()));
  EXPECT_TRUE(bed.client().playing());
}

TEST(ServerBehavior, HaltedServerStopsTransmitting) {
  VodTestBed bed(1, 1);
  bed.watch_all();
  bed.run_for(8.0);
  bed.server(0).halt();
  const auto sent = bed.server(0).stats().frames_sent;
  bed.run_for(5.0);
  EXPECT_EQ(bed.server(0).stats().frames_sent, sent);
  EXPECT_TRUE(bed.server(0).halted());
}

TEST(ServerBehavior, CatalogReflectsAddAndRemove) {
  VodTestBed bed(1, 1);
  EXPECT_TRUE(bed.server(0).catalog().contains("feature"));
  bed.server(0).add_movie(mpeg::Movie::synthetic("extra", 30.0));
  EXPECT_EQ(bed.server(0).catalog().size(), 2u);
  bed.server(0).remove_movie("extra");
  EXPECT_FALSE(bed.server(0).catalog().contains("extra"));
}

TEST(ServerBehavior, CoordinatorHostAddMovieRebalancesAuthoritatively) {
  // The server on the daemon-view coordinator's host joins the group of a
  // title its two peers already serve. Its first movie-group view must find
  // the title registered, so its table goes out and every member rebalances
  // from the complete exchange well before the fallback timer.
  VodTestBed bed(3, 1);
  Deployment& dep = bed.deployment();
  ASSERT_EQ(dep.servers()[0]->daemon->view().id.coord, bed.server_host(0));
  const auto extra = mpeg::Movie::synthetic("extra", 60.0);
  bed.server(1).add_movie(extra);
  bed.server(2).add_movie(extra);
  bed.client().watch("extra");
  bed.run_for(3.0);
  ASSERT_TRUE(bed.client().connected());

  bed.server(0).add_movie(extra);
  bed.run_for(0.3);  // well inside table_exchange_delay (700 ms)
  const RebalanceSnapshot* first = bed.server(0).rebalance_snapshot("extra");
  ASSERT_NE(first, nullptr);
  for (int s = 0; s < 3; ++s) {
    const RebalanceSnapshot* snap = bed.server(s).rebalance_snapshot("extra");
    ASSERT_NE(snap, nullptr) << "server " << s;
    EXPECT_TRUE(snap->authoritative) << "server " << s;
    EXPECT_EQ(snap->exchange_tag, first->exchange_tag) << "server " << s;
    EXPECT_EQ(snap->view_servers.size(), 3u) << "server " << s;
    EXPECT_EQ(snap->assignment, first->assignment) << "server " << s;
  }
  bed.run_for(2.0);
  int serving = 0;
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(bed.server(s).stats().fallback_rebalances, 0u) << "server " << s;
    serving += bed.server(s).serves(bed.client().client_id()) ? 1 : 0;
  }
  EXPECT_EQ(serving, 1);
}

TEST(ServerBehavior, CoordinatorHostTakeoverOfAGoneClientClosesTheSession) {
  // A client and the server streaming to it crash together. The survivor,
  // on the coordinator's host, takes the client over; the session group's
  // first view lacks the client, so the survivor must close the session
  // rather than stream to nobody, as a server on any other host does.
  VodTestBed bed(2, 2);
  Deployment& dep = bed.deployment();
  bed.watch_all();
  bed.run_for(8.0);
  int gone = -1;
  for (int c = 0; c < 2; ++c) {
    if (bed.serving_server(c) == 1) gone = c;
  }
  ASSERT_GE(gone, 0);
  const int kept = 1 - gone;
  ASSERT_EQ(bed.serving_server(kept), 0);
  ASSERT_EQ(dep.servers()[0]->daemon->view().id.coord, bed.server_host(0));

  bed.crash_server(1);
  dep.crash(dep.clients()[gone]->node);
  bed.run_for(3.0);
  EXPECT_EQ(bed.server(0).stats().takeovers, 1u);
  EXPECT_FALSE(bed.server(0).serves(bed.client(gone).client_id()));
  EXPECT_TRUE(bed.server(0).serves(bed.client(kept).client_id()));
  EXPECT_EQ(bed.server(0).session_count(), 1u);
  EXPECT_EQ(bed.server(0).stats().fallback_rebalances, 0u);
}

class ExactlyOneOwner : public ::testing::TestWithParam<unsigned> {};

// Invariant: after any crash/recovery sequence settles, each client is
// served by exactly one live server (the paper: "each client is served by
// exactly one server").
TEST_P(ExactlyOneOwner, AfterCrashAndRecovery) {
  VodTestBed bed(3, 2, net::lan_quality(), GetParam() * 977 + 5);
  bed.watch_all();
  bed.run_for(12.0 + (GetParam() % 4) * 0.37);
  const int victim = bed.serving_server(0);
  ASSERT_GE(victim, 0);
  bed.crash_server(victim);
  bed.run_for(8.0);
  for (int c = 0; c < 2; ++c) {
    int owners = 0;
    for (int s = 0; s < 3; ++s) {
      if (s == victim) continue;
      if (bed.server(s).serves(bed.client(c).client_id())) ++owners;
    }
    EXPECT_EQ(owners, 1) << "client " << c << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactlyOneOwner, ::testing::Range(0u, 10u));

TEST(ServerBehavior, PausedStateSurvivesTakeover) {
  VodTestBed bed(2, 1);
  bed.watch_all();
  bed.run_for(10.0);
  bed.client().pause();
  bed.run_for(2.0);  // let a sync carry the paused flag
  bed.crash_server(bed.serving_server());
  bed.run_for(4.0);
  // The takeover server must not stream into a paused session.
  const auto received = bed.client().counters().received;
  bed.run_for(5.0);
  EXPECT_LE(bed.client().counters().received - received, 2u);
}

TEST(ServerBehavior, SyncAbsenceToleranceKeepsFreshClients) {
  // A client connecting right around a sync boundary must never be erased
  // from the other servers' tables by the pre-connection (empty) sync.
  for (std::uint64_t seed : {1ull, 9ull, 23ull, 47ull}) {
    VodTestBed bed(2, 1, net::lan_quality(), seed);
    bed.watch_all();
    bed.run_for(15.0);
    ASSERT_TRUE(bed.client().connected()) << "seed " << seed;
    EXPECT_EQ(bed.serving_server() >= 0, true) << "seed " << seed;
    EXPECT_GT(bed.client().counters().displayed, 300u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ftvod::vod
