// Wire messages exchanged between GCS daemons. Every datagram is one
// Envelope: the 8-byte integrity header (util/frame.hpp), a one-byte type
// tag, then the message body. Decoders verify length + CRC32C before
// reading a single field, so damaged datagrams behave exactly like loss.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gcs/types.hpp"
#include "util/codec.hpp"

namespace ftvod::gcs::wire {

enum class MsgType : std::uint8_t {
  kHeartbeat = 1,
  kSubmit = 2,
  kOrdered = 3,
  kRetransReq = 4,
  kPropose = 5,
  kProposeAck = 6,
  kFlushTarget = 7,
  kFlushDone = 8,
  kInstall = 9,
};

/// What an ordered message carries.
enum class PayloadKind : std::uint8_t { kApp = 0, kJoin = 1, kLeave = 2 };

/// Periodic liveness + state advertisement, sent to every configured peer.
struct Heartbeat {
  ViewId view;
  std::vector<net::NodeId> members;
  std::uint64_t delivered_upto = 0;  // contiguous gseq delivered in `view`
  std::uint64_t safe_upto = 0;       // coordinator's stability horizon
};

/// Sender -> coordinator: please order this message.
struct Submit {
  ViewId view;
  std::uint64_t sender_seq = 0;  // per-daemon monotonic, spans views
  PayloadKind kind = PayloadKind::kApp;
  std::string group;
  GcsEndpoint origin;
  util::Bytes payload;
};

/// Coordinator -> all view members: message with a global sequence number.
/// Non-owning: `group` and `payload` view the bytes it was decoded from (or
/// the Submit it is ordered from), which must outlive it. Daemons keep the
/// encoded datagram and re-parse this view from it when needed.
struct Ordered {
  ViewId view;
  std::uint64_t gseq = 0;
  net::NodeId sender = net::kInvalidNode;
  std::uint64_t sender_seq = 0;
  PayloadKind kind = PayloadKind::kApp;
  std::string_view group;
  GcsEndpoint origin;
  std::span<const std::byte> payload;
};

/// Ask `to` to re-send ordered messages [from_gseq, to_gseq] of `view`.
struct RetransReq {
  ViewId view;
  std::uint64_t from_gseq = 0;
  std::uint64_t to_gseq = 0;
};

/// Proposer -> candidate members: start a view change.
struct Propose {
  ViewId pv;  // id of the proposed view; pv.coord is the proposer
  std::vector<net::NodeId> members;
};

struct GroupReg {
  std::string group;
  GcsEndpoint member;
};

/// Candidate -> proposer: I accept pv; here is my flush state.
struct ProposeAck {
  ViewId pv;
  ViewId old_view;
  std::uint64_t delivered_upto = 0;
  std::uint64_t next_submit_seq = 0;  // lowest unordered submit I will resend
  std::vector<GroupReg> regs;         // my local group registrations
};

/// Proposer -> candidates: per previous-view flush target + a holder daemon
/// that has delivered up to the target and can serve retransmissions.
struct FlushTarget {
  ViewId pv;
  struct Entry {
    ViewId old_view;
    std::uint64_t target = 0;
    net::NodeId holder = net::kInvalidNode;
  };
  std::vector<Entry> entries;
};

/// Candidate -> proposer: I delivered everything up to my cluster's target.
struct FlushDone {
  ViewId pv;
  std::uint64_t delivered_upto = 0;
};

/// Proposer -> members: install the new view with this group table.
struct Install {
  ViewId pv;
  std::vector<net::NodeId> members;
  std::vector<GroupReg> group_table;
  /// Per-member starting submit sequence, so the new coordinator can resume
  /// per-sender FIFO ordering without duplicates.
  std::vector<std::pair<net::NodeId, std::uint64_t>> submit_seqs;
};

/// encode_into() clears `w` and encodes into it, reusing the writer's
/// capacity — the allocation-free path for the daemon's per-peer fan-out
/// (heartbeats every interval, Ordered to every view member). encode() is
/// the convenience wrapper returning a fresh buffer.
void encode_into(const Heartbeat& m, util::Writer& w);
void encode_into(const Submit& m, util::Writer& w);
void encode_into(const Ordered& m, util::Writer& w);
void encode_into(const RetransReq& m, util::Writer& w);
void encode_into(const Propose& m, util::Writer& w);
void encode_into(const ProposeAck& m, util::Writer& w);
void encode_into(const FlushTarget& m, util::Writer& w);
void encode_into(const FlushDone& m, util::Writer& w);
void encode_into(const Install& m, util::Writer& w);

template <typename M>
  requires requires(const M& m, util::Writer& w) { encode_into(m, w); }
util::Bytes encode(const M& m) {
  util::Writer w;
  encode_into(m, w);
  return w.take();
}

/// Peeks the type tag after a structural frame check (no checksum);
/// nullopt for an empty/garbage datagram. Receivers demux with it and let
/// the decoder verify the checksum, so each datagram is checked once.
std::optional<MsgType> peek_type(std::span<const std::byte> data);

// Decoders verify the integrity frame (length + CRC32C) and return nullopt
// on any damaged or malformed input.
std::optional<Heartbeat> decode_heartbeat(std::span<const std::byte> data);
std::optional<Submit> decode_submit(std::span<const std::byte> data);
std::optional<Ordered> decode_ordered(std::span<const std::byte> data);
/// Re-reads the view of a datagram decode_ordered() has already accepted
/// (or encode_into() produced), skipping the checks that passed then.
Ordered ordered_view(std::span<const std::byte> accepted);
std::optional<RetransReq> decode_retrans_req(std::span<const std::byte> data);
std::optional<Propose> decode_propose(std::span<const std::byte> data);
std::optional<ProposeAck> decode_propose_ack(std::span<const std::byte> data);
std::optional<FlushTarget> decode_flush_target(std::span<const std::byte> data);
std::optional<FlushDone> decode_flush_done(std::span<const std::byte> data);
std::optional<Install> decode_install(std::span<const std::byte> data);

}  // namespace ftvod::gcs::wire
