#include "gcs/wire.hpp"

#include "util/frame.hpp"

namespace ftvod::gcs::wire {

namespace {

void put_view_id(util::Writer& w, const ViewId& v) {
  w.u64(v.counter);
  w.u32(v.coord);
}

ViewId get_view_id(util::Reader& r) {
  ViewId v;
  v.counter = r.u64();
  v.coord = r.u32();
  return v;
}

void put_endpoint(util::Writer& w, const GcsEndpoint& e) {
  w.u32(e.node);
  w.u32(e.local);
}

GcsEndpoint get_endpoint(util::Reader& r) {
  GcsEndpoint e;
  e.node = r.u32();
  e.local = r.u32();
  return e;
}

void put_nodes(util::Writer& w, const std::vector<net::NodeId>& nodes) {
  w.u32(static_cast<std::uint32_t>(nodes.size()));
  for (net::NodeId n : nodes) w.u32(n);
}

std::vector<net::NodeId> get_nodes(util::Reader& r) {
  const std::uint32_t n = r.u32();
  std::vector<net::NodeId> out;
  // Each node id occupies 4 bytes, so a count the remaining bytes cannot
  // hold is definitionally malformed — reject before reserving anything.
  if (!r.ok() || n > r.remaining() / 4) {
    r.fail();
    return out;
  }
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(r.u32());
  return out;
}

void put_regs(util::Writer& w, const std::vector<GroupReg>& regs) {
  w.u32(static_cast<std::uint32_t>(regs.size()));
  for (const GroupReg& g : regs) {
    w.str(g.group);
    put_endpoint(w, g.member);
  }
}

std::vector<GroupReg> get_regs(util::Reader& r) {
  const std::uint32_t n = r.u32();
  std::vector<GroupReg> out;
  // Minimum encoded GroupReg: 4-byte string length + 8-byte endpoint.
  if (!r.ok() || n > r.remaining() / 12) {
    r.fail();
    return out;
  }
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    GroupReg g;
    g.group = r.str();
    g.member = get_endpoint(r);
    out.push_back(std::move(g));
  }
  return out;
}

void begin(util::Writer& w, MsgType t) {
  util::frame_begin(w);  // clears w, reserves the integrity header
  w.u8(static_cast<std::uint8_t>(t));
}

/// Verifies the integrity frame and the tag, returning a reader positioned
/// on the first body field. Every decoder funnels through this, so damaged
/// datagrams are rejected before a single field is interpreted.
std::optional<util::Reader> body(std::span<const std::byte> data, MsgType t) {
  const auto opened = util::frame_open(data);
  if (!opened) return std::nullopt;
  util::Reader r(*opened);
  if (r.u8() != static_cast<std::uint8_t>(t) || !r.ok()) return std::nullopt;
  return r;
}

}  // namespace

std::optional<MsgType> peek_type(std::span<const std::byte> data) {
  // Structural frame check only (no CRC): demux is on the hot path, and the
  // per-type decoder verifies the full checksum via body().
  const auto opened = util::frame_peek(data);
  if (!opened || opened->empty()) return std::nullopt;
  const auto t = std::to_integer<std::uint8_t>((*opened)[0]);
  if (t < static_cast<std::uint8_t>(MsgType::kHeartbeat) ||
      t > static_cast<std::uint8_t>(MsgType::kInstall)) {
    return std::nullopt;
  }
  return static_cast<MsgType>(t);
}

void encode_into(const Heartbeat& m, util::Writer& w) {
  begin(w, MsgType::kHeartbeat);
  put_view_id(w, m.view);
  put_nodes(w, m.members);
  w.u64(m.delivered_upto);
  w.u64(m.safe_upto);
  util::frame_seal(w);
}

std::optional<Heartbeat> decode_heartbeat(std::span<const std::byte> data) {
  auto r = body(data, MsgType::kHeartbeat);
  if (!r) return std::nullopt;
  Heartbeat m;
  m.view = get_view_id(*r);
  m.members = get_nodes(*r);
  m.delivered_upto = r->u64();
  m.safe_upto = r->u64();
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const Submit& m, util::Writer& w) {
  begin(w, MsgType::kSubmit);
  put_view_id(w, m.view);
  w.u64(m.sender_seq);
  w.u8(static_cast<std::uint8_t>(m.kind));
  w.str(m.group);
  put_endpoint(w, m.origin);
  w.blob(m.payload);
  util::frame_seal(w);
}

std::optional<Submit> decode_submit(std::span<const std::byte> data) {
  auto r = body(data, MsgType::kSubmit);
  if (!r) return std::nullopt;
  Submit m;
  m.view = get_view_id(*r);
  m.sender_seq = r->u64();
  m.kind = static_cast<PayloadKind>(r->u8());
  m.group = r->str();
  m.origin = get_endpoint(*r);
  m.payload = r->blob();
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const Ordered& m, util::Writer& w) {
  begin(w, MsgType::kOrdered);
  put_view_id(w, m.view);
  w.u64(m.gseq);
  w.u32(m.sender);
  w.u64(m.sender_seq);
  w.u8(static_cast<std::uint8_t>(m.kind));
  w.str(m.group);
  put_endpoint(w, m.origin);
  w.blob(m.payload);
  util::frame_seal(w);
}

namespace {

Ordered get_ordered(util::Reader& r) {
  Ordered m;
  m.view = get_view_id(r);
  m.gseq = r.u64();
  m.sender = r.u32();
  m.sender_seq = r.u64();
  m.kind = static_cast<PayloadKind>(r.u8());
  m.group = r.str_view();
  m.origin = get_endpoint(r);
  m.payload = r.blob_view();
  return m;
}

}  // namespace

std::optional<Ordered> decode_ordered(std::span<const std::byte> data) {
  auto r = body(data, MsgType::kOrdered);
  if (!r) return std::nullopt;
  Ordered m = get_ordered(*r);
  if (!r->done()) return std::nullopt;
  return m;
}

Ordered ordered_view(std::span<const std::byte> accepted) {
  // Past the integrity header and the one-byte type tag.
  util::Reader r(accepted.subspan(util::kIntegrityHeaderBytes + 1));
  return get_ordered(r);
}

void encode_into(const RetransReq& m, util::Writer& w) {
  begin(w, MsgType::kRetransReq);
  put_view_id(w, m.view);
  w.u64(m.from_gseq);
  w.u64(m.to_gseq);
  util::frame_seal(w);
}

std::optional<RetransReq> decode_retrans_req(std::span<const std::byte> data) {
  auto r = body(data, MsgType::kRetransReq);
  if (!r) return std::nullopt;
  RetransReq m;
  m.view = get_view_id(*r);
  m.from_gseq = r->u64();
  m.to_gseq = r->u64();
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const Propose& m, util::Writer& w) {
  begin(w, MsgType::kPropose);
  put_view_id(w, m.pv);
  put_nodes(w, m.members);
  util::frame_seal(w);
}

std::optional<Propose> decode_propose(std::span<const std::byte> data) {
  auto r = body(data, MsgType::kPropose);
  if (!r) return std::nullopt;
  Propose m;
  m.pv = get_view_id(*r);
  m.members = get_nodes(*r);
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const ProposeAck& m, util::Writer& w) {
  begin(w, MsgType::kProposeAck);
  put_view_id(w, m.pv);
  put_view_id(w, m.old_view);
  w.u64(m.delivered_upto);
  w.u64(m.next_submit_seq);
  put_regs(w, m.regs);
  util::frame_seal(w);
}

std::optional<ProposeAck> decode_propose_ack(std::span<const std::byte> data) {
  auto r = body(data, MsgType::kProposeAck);
  if (!r) return std::nullopt;
  ProposeAck m;
  m.pv = get_view_id(*r);
  m.old_view = get_view_id(*r);
  m.delivered_upto = r->u64();
  m.next_submit_seq = r->u64();
  m.regs = get_regs(*r);
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const FlushTarget& m, util::Writer& w) {
  begin(w, MsgType::kFlushTarget);
  put_view_id(w, m.pv);
  w.u32(static_cast<std::uint32_t>(m.entries.size()));
  for (const auto& e : m.entries) {
    put_view_id(w, e.old_view);
    w.u64(e.target);
    w.u32(e.holder);
  }
  util::frame_seal(w);
}

std::optional<FlushTarget> decode_flush_target(
    std::span<const std::byte> data) {
  auto r = body(data, MsgType::kFlushTarget);
  if (!r) return std::nullopt;
  FlushTarget m;
  m.pv = get_view_id(*r);
  const std::uint32_t n = r->u32();
  if (!r->ok() || n > 1'000'000) return std::nullopt;
  for (std::uint32_t i = 0; i < n; ++i) {
    FlushTarget::Entry e;
    e.old_view = get_view_id(*r);
    e.target = r->u64();
    e.holder = r->u32();
    m.entries.push_back(e);
  }
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const FlushDone& m, util::Writer& w) {
  begin(w, MsgType::kFlushDone);
  put_view_id(w, m.pv);
  w.u64(m.delivered_upto);
  util::frame_seal(w);
}

std::optional<FlushDone> decode_flush_done(std::span<const std::byte> data) {
  auto r = body(data, MsgType::kFlushDone);
  if (!r) return std::nullopt;
  FlushDone m;
  m.pv = get_view_id(*r);
  m.delivered_upto = r->u64();
  if (!r->done()) return std::nullopt;
  return m;
}

void encode_into(const Install& m, util::Writer& w) {
  begin(w, MsgType::kInstall);
  put_view_id(w, m.pv);
  put_nodes(w, m.members);
  put_regs(w, m.group_table);
  w.u32(static_cast<std::uint32_t>(m.submit_seqs.size()));
  for (const auto& [node, seq] : m.submit_seqs) {
    w.u32(node);
    w.u64(seq);
  }
  util::frame_seal(w);
}

std::optional<Install> decode_install(std::span<const std::byte> data) {
  auto r = body(data, MsgType::kInstall);
  if (!r) return std::nullopt;
  Install m;
  m.pv = get_view_id(*r);
  m.members = get_nodes(*r);
  m.group_table = get_regs(*r);
  const std::uint32_t n = r->u32();
  if (!r->ok() || n > 1'000'000) return std::nullopt;
  for (std::uint32_t i = 0; i < n; ++i) {
    const net::NodeId node = r->u32();
    const std::uint64_t seq = r->u64();
    m.submit_seqs.emplace_back(node, seq);
  }
  if (!r->done()) return std::nullopt;
  return m;
}

}  // namespace ftvod::gcs::wire
