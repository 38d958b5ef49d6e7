#include "gcs/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace ftvod::gcs::wire {
namespace {

TEST(GcsWire, HeartbeatRoundTrip) {
  Heartbeat m;
  m.view = {7, 3};
  m.members = {1, 3, 9};
  m.delivered_upto = 42;
  m.safe_upto = 40;
  auto bytes = encode(m);
  EXPECT_EQ(peek_type(bytes), MsgType::kHeartbeat);
  auto d = decode_heartbeat(bytes);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->view, m.view);
  EXPECT_EQ(d->members, m.members);
  EXPECT_EQ(d->delivered_upto, 42u);
  EXPECT_EQ(d->safe_upto, 40u);
}

TEST(GcsWire, SubmitRoundTrip) {
  Submit m;
  m.view = {2, 1};
  m.sender_seq = 17;
  m.kind = PayloadKind::kJoin;
  m.group = "vod.movie.casablanca";
  m.origin = {5, 2};
  m.payload = {std::byte{1}, std::byte{2}};
  auto d = decode_submit(encode(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->sender_seq, 17u);
  EXPECT_EQ(d->kind, PayloadKind::kJoin);
  EXPECT_EQ(d->group, m.group);
  EXPECT_EQ(d->origin, m.origin);
  EXPECT_EQ(d->payload, m.payload);
}

TEST(GcsWire, OrderedRoundTrip) {
  const util::Bytes payload{std::byte{0xFF}};
  Ordered m;
  m.view = {9, 0};
  m.gseq = 1234;
  m.sender = 6;
  m.sender_seq = 99;
  m.kind = PayloadKind::kApp;
  m.group = "g";
  m.origin = {6, 1};
  m.payload = payload;
  const util::Bytes bytes = encode(m);
  auto d = decode_ordered(bytes);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->gseq, 1234u);
  EXPECT_EQ(d->sender, 6u);
  EXPECT_EQ(d->group, "g");
  EXPECT_TRUE(std::ranges::equal(d->payload, payload));
}

TEST(GcsWire, OrderedViewsPointIntoTheDatagram) {
  const util::Bytes payload(40, std::byte{3});
  Ordered m;
  m.view = {2, 1};
  m.gseq = 7;
  m.group = "movie.group";
  m.payload = payload;
  const util::Bytes bytes = encode(m);
  const auto d = decode_ordered(bytes);
  ASSERT_TRUE(d.has_value());
  const auto* lo = reinterpret_cast<const char*>(bytes.data());
  const auto* hi = lo + bytes.size();
  EXPECT_TRUE(d->group.data() >= lo && d->group.data() < hi);
  EXPECT_TRUE(reinterpret_cast<const char*>(d->payload.data()) >= lo &&
              reinterpret_cast<const char*>(d->payload.data()) < hi);
  // ordered_view() re-reads an accepted datagram to the same fields.
  const Ordered v = ordered_view(bytes);
  EXPECT_EQ(v.view, d->view);
  EXPECT_EQ(v.gseq, 7u);
  EXPECT_EQ(v.group, d->group);
  EXPECT_EQ(v.payload.data(), d->payload.data());
  EXPECT_EQ(v.payload.size(), payload.size());
}

TEST(GcsWire, ProposeAndAckRoundTrip) {
  Propose p;
  p.pv = {12, 2};
  p.members = {2, 4, 6};
  auto dp = decode_propose(encode(p));
  ASSERT_TRUE(dp.has_value());
  EXPECT_EQ(dp->pv, p.pv);
  EXPECT_EQ(dp->members, p.members);

  ProposeAck a;
  a.pv = {12, 2};
  a.old_view = {11, 4};
  a.delivered_upto = 88;
  a.next_submit_seq = 5;
  a.regs = {{"g1", {2, 1}}, {"g2", {2, 3}}};
  auto da = decode_propose_ack(encode(a));
  ASSERT_TRUE(da.has_value());
  EXPECT_EQ(da->old_view, a.old_view);
  ASSERT_EQ(da->regs.size(), 2u);
  EXPECT_EQ(da->regs[1].group, "g2");
  EXPECT_EQ(da->regs[1].member, (GcsEndpoint{2, 3}));
}

TEST(GcsWire, FlushMessagesRoundTrip) {
  FlushTarget ft;
  ft.pv = {3, 1};
  ft.entries = {{{2, 1}, 50, 4}, {{1, 7}, 10, 7}};
  auto dft = decode_flush_target(encode(ft));
  ASSERT_TRUE(dft.has_value());
  ASSERT_EQ(dft->entries.size(), 2u);
  EXPECT_EQ(dft->entries[0].target, 50u);
  EXPECT_EQ(dft->entries[1].holder, 7u);

  FlushDone fd{{3, 1}, 50};
  auto dfd = decode_flush_done(encode(fd));
  ASSERT_TRUE(dfd.has_value());
  EXPECT_EQ(dfd->delivered_upto, 50u);
}

TEST(GcsWire, InstallRoundTrip) {
  Install m;
  m.pv = {20, 0};
  m.members = {0, 1, 2};
  m.group_table = {{"movie.x", {1, 4}}};
  m.submit_seqs = {{0, 10}, {1, 1}, {2, 55}};
  auto d = decode_install(encode(m));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->members, m.members);
  ASSERT_EQ(d->group_table.size(), 1u);
  EXPECT_EQ(d->group_table[0].group, "movie.x");
  ASSERT_EQ(d->submit_seqs.size(), 3u);
  EXPECT_EQ(d->submit_seqs[2], (std::pair<net::NodeId, std::uint64_t>{2, 55}));
}

TEST(GcsWire, WrongTypeRejected) {
  Heartbeat hb;
  auto bytes = encode(hb);
  EXPECT_EQ(decode_submit(bytes), std::nullopt);
  EXPECT_EQ(decode_install(bytes), std::nullopt);
}

TEST(GcsWire, TruncatedRejected) {
  const util::Bytes payload(100, std::byte{7});
  Ordered m;
  m.group = "group";
  m.payload = payload;
  auto bytes = encode(m);
  for (std::size_t cut : {1ul, 5ul, bytes.size() / 2, bytes.size() - 1}) {
    auto truncated =
        std::span<const std::byte>(bytes.data(), bytes.size() - cut);
    EXPECT_EQ(decode_ordered(truncated), std::nullopt) << "cut=" << cut;
  }
}

TEST(GcsWire, TrailingGarbageRejected) {
  FlushDone fd{{1, 1}, 2};
  auto bytes = encode(fd);
  bytes.push_back(std::byte{0});
  EXPECT_EQ(decode_flush_done(bytes), std::nullopt);
}

TEST(GcsWire, PeekTypeOnGarbage) {
  EXPECT_EQ(peek_type({}), std::nullopt);
  util::Bytes junk{std::byte{200}};
  EXPECT_EQ(peek_type(junk), std::nullopt);
}

}  // namespace
}  // namespace ftvod::gcs::wire
