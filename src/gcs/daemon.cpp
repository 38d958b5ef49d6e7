#include "gcs/daemon.hpp"

#include <algorithm>
#include <cassert>

#include "util/frame.hpp"
#include "util/log.hpp"

namespace ftvod::gcs {

namespace {
constexpr std::string_view kLog = "gcs";
/// Non-member sends use local handle 0, which join() never allocates.
constexpr std::uint32_t kNonMemberLocal = 0;
/// Upper bound on ordered messages re-sent per retransmission request.
constexpr std::size_t kMaxRetransBatch = 2000;

/// map[key] for a string-keyed map with a transparent comparator, building
/// the key string only when the entry is new.
template <typename Map>
typename Map::mapped_type& entry(Map& map, std::string_view key) {
  auto it = map.find(key);
  if (it == map.end()) {
    it = map.emplace(std::string(key), typename Map::mapped_type{}).first;
  }
  return it->second;
}
}  // namespace

// ---------------------------------------------------------------- GroupMember

GroupMember::~GroupMember() {
  if (daemon_ != nullptr) leave();
}

void GroupMember::send(util::Bytes payload) {
  if (daemon_ != nullptr) daemon_->member_send(*this, std::move(payload));
}

void GroupMember::leave() {
  if (daemon_ == nullptr) return;
  daemon_->member_leave(*this);
  daemon_ = nullptr;
}

// --------------------------------------------------------------------- Daemon

Daemon::Daemon(sim::Scheduler& sched, net::Network& net, net::NodeId self,
               GcsConfig cfg)
    : sched_(&sched),
      net_(&net),
      self_(self),
      cfg_(std::move(cfg)),
      heartbeat_timer_(sched, cfg_.heartbeat_interval,
                       [this] { on_heartbeat_timer(); }),
      fd_timer_(sched, cfg_.fd_check_interval, [this] { on_fd_check(); }),
      resubmit_timer_(sched, cfg_.resubmit_interval,
                      [this] { flush_pending_submits(); }),
      nack_timer_(sched, cfg_.nack_delay, [this] { maybe_nack(); }),
      propose_retry_timer_(sched),
      rescue_timer_(sched),
      order_step_(sched) {
  socket_ = net_->bind(self_, cfg_.port,
                       [this](const net::Endpoint& from,
                              std::span<const std::byte> data) {
                         on_datagram(from, data);
                       });
  net_->on_crash(self_, [this] { halt(); });

  view_.id = ViewId{1, self_};
  view_.members = {self_};
  max_counter_seen_ = 1;
  accepted_pv_ = view_.id;
  accepted_pv_from_ = self_;
  next_submit_expected_[self_] = 1;

  // Stagger heartbeats slightly per node so daemons created at the same
  // virtual instant do not tick in perfect lockstep.
  heartbeat_timer_.start(cfg_.heartbeat_interval + sim::usec(self_ * 7));
  fd_timer_.start(cfg_.fd_check_interval + sim::usec(self_ * 11));
  resubmit_timer_.start();
  nack_timer_.start();
}

Daemon::~Daemon() {
  for (auto& [group, handles] : local_members_) {
    for (GroupMember* h : handles) h->daemon_ = nullptr;
  }
}

void Daemon::halt() {
  if (halted_) return;
  halted_ = true;
  heartbeat_timer_.stop();
  fd_timer_.stop();
  resubmit_timer_.stop();
  nack_timer_.stop();
  propose_retry_timer_.cancel();
  rescue_timer_.cancel();
  util::log_info(kLog, "daemon n", self_, " halted");
}

void Daemon::pause() {
  if (halted_ || paused_) return;
  paused_ = true;
  heartbeat_timer_.stop();
  fd_timer_.stop();
  resubmit_timer_.stop();
  nack_timer_.stop();
  propose_retry_timer_.cancel();
  rescue_timer_.cancel();
  util::log_info(kLog, "daemon n", self_, " paused");
}

void Daemon::resume() {
  if (halted_ || !paused_) return;
  paused_ = false;
  // Deliberately leave last_heard_ stale: the first fd check suspects every
  // member the pause outlived, which drives the daemon into a fresh view of
  // its own; peers re-admit it through the merge path. An in-flight
  // proposal from before the pause is abandoned the same way.
  proposal_.reset();
  pending_install_.reset();
  heartbeat_timer_.start();
  fd_timer_.start();
  resubmit_timer_.start();
  nack_timer_.start();
  if (state_ == State::kBlocked) {
    rescue_timer_.arm(cfg_.blocked_rescue, [this] { on_blocked_rescue(); });
  }
  util::log_info(kLog, "daemon n", self_, " resumed");
}

std::unique_ptr<GroupMember> Daemon::join(std::string group,
                                          GroupCallbacks callbacks) {
  const GcsEndpoint ep{self_, next_local_id_++};
  auto handle = std::unique_ptr<GroupMember>(
      new GroupMember(*this, group, ep, std::move(callbacks)));
  local_members_[group].push_back(handle.get());
  submit(wire::PayloadKind::kJoin, group, ep, {});
  return handle;
}

void Daemon::send_to_group(const std::string& group, util::Bytes payload) {
  submit(wire::PayloadKind::kApp, group, GcsEndpoint{self_, kNonMemberLocal},
         std::move(payload));
}

std::vector<GcsEndpoint> Daemon::group_members(const std::string& group) const {
  auto it = group_table_.find(group);
  if (it == group_table_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

void Daemon::member_send(GroupMember& member, util::Bytes payload) {
  submit(wire::PayloadKind::kApp, member.group_, member.endpoint_,
         std::move(payload));
}

void Daemon::member_leave(GroupMember& member) {
  auto it = local_members_.find(member.group_);
  if (it != local_members_.end()) {
    std::erase(it->second, &member);
    if (it->second.empty()) local_members_.erase(it);
  }
  submit(wire::PayloadKind::kLeave, member.group_, member.endpoint_, {});
}

// ------------------------------------------------------------------- dispatch

void Daemon::on_datagram(const net::Endpoint& from,
                         std::span<const std::byte> data) {
  if (halted_ || paused_) return;
  // Demux on the tag, then decode: the decoder verifies length + CRC32C, so
  // a datagram that is acted on is checksummed exactly once, and liveness
  // is refreshed only after that check has passed.
  const net::NodeId peer = from.node;
  const auto accept = [&](const auto& decoded, auto handle) {
    if (!decoded) return false;
    note_alive(peer);
    handle(*decoded);
    return true;
  };
  bool handled = false;
  if (const auto type = wire::peek_type(data)) {
    switch (*type) {
      case wire::MsgType::kHeartbeat:
        handled = accept(wire::decode_heartbeat(data),
                         [&](const auto& m) { handle_heartbeat(peer, m); });
        break;
      case wire::MsgType::kSubmit:
        handled = accept(wire::decode_submit(data),
                         [&](const auto& m) { handle_submit(peer, m); });
        break;
      case wire::MsgType::kOrdered:
        handled = accept(wire::decode_ordered(data),
                         [&](const auto& m) { handle_ordered(m, data); });
        break;
      case wire::MsgType::kRetransReq:
        handled = accept(wire::decode_retrans_req(data),
                         [&](const auto& m) { handle_retrans_req(peer, m); });
        break;
      case wire::MsgType::kPropose:
        handled = accept(wire::decode_propose(data),
                         [&](const auto& m) { handle_propose(peer, m); });
        break;
      case wire::MsgType::kProposeAck:
        handled = accept(wire::decode_propose_ack(data),
                         [&](const auto& m) { handle_propose_ack(peer, m); });
        break;
      case wire::MsgType::kFlushTarget:
        handled = accept(wire::decode_flush_target(data),
                         [&](const auto& m) { handle_flush_target(peer, m); });
        break;
      case wire::MsgType::kFlushDone:
        handled = accept(wire::decode_flush_done(data),
                         [&](const auto& m) { handle_flush_done(peer, m); });
        break;
      case wire::MsgType::kInstall:
        handled = accept(wire::decode_install(data),
                         [&](const auto& m) { handle_install(peer, m); });
        break;
    }
  }
  if (handled) return;
  ++stats_.malformed_dropped;
  // Rejected datagrams alone get a second checksum, to tell damage from a
  // malformed body. A damaged one carries no trustworthy information at
  // all, not even its claimed sender, so it must not refresh liveness. An
  // intact frame with an unknown tag or a decoder-rejected body is a
  // protocol violation (or a version skew): it proves the peer alive but is
  // otherwise inert.
  if (!util::frame_open(data)) {
    socket_->note_corrupt_dropped();
    return;
  }
  note_alive(peer);
}

void Daemon::note_alive(net::NodeId peer) {
  last_heard_[peer] = sched_->now();
  suspects_.erase(peer);
}

void Daemon::send_to(net::NodeId node, std::span<const std::byte> bytes) {
  if (halted_ || paused_ || node == self_) return;
  socket_->send(net::Endpoint{node, cfg_.port}, bytes);
}

// ------------------------------------------------- submission & total order

void Daemon::submit(wire::PayloadKind kind, const std::string& group,
                    GcsEndpoint origin, util::Bytes payload) {
  if (halted_) return;
  const std::uint64_t seq = submit_seq_counter_++;
  wire::Submit& m =
      pending_
          .emplace(seq, wire::Submit{view_.id, seq, kind, group, origin,
                                     std::move(payload)})
          .first->second;
  // Send eagerly when unblocked; the resubmit timer covers losses and
  // coordinator changes (and drains anything queued while paused). The
  // coordinator orders its own submissions from a zero-delay step, one per
  // burst, so no callback runs inside the caller's join(), send() or leave().
  if (state_ != State::kNormal || paused_) return;
  if (view_.id.coord != self_) {
    wire::encode_into(m, scratch_);
    send_to(view_.id.coord, scratch_.buffer());
  } else if (!order_step_.pending()) {
    order_step_.arm(0, [this] { flush_pending_submits(); });
  }
}

void Daemon::flush_pending_submits() {
  if (halted_ || paused_ || state_ != State::kNormal) return;
  // The coordinator hands each entry to handle_submit() like a remote
  // sender's; ordering delivers it at once and delivery erases it, so step
  // past an entry before handling it. Entries that callbacks submit meanwhile
  // sort after it and are ordered by this same walk.
  for (auto it = pending_.begin(); it != pending_.end();) {
    wire::Submit& m = (it++)->second;
    m.view = view_.id;
    if (view_.id.coord == self_) {
      handle_submit(self_, m);
    } else {
      wire::encode_into(m, scratch_);
      send_to(view_.id.coord, scratch_.buffer());
    }
  }
}

void Daemon::handle_submit(net::NodeId from, const wire::Submit& m) {
  if (state_ != State::kNormal || m.view != view_.id ||
      view_.id.coord != self_) {
    return;  // not the coordinator for this message; sender will retry
  }
  if (!view_.contains(from)) return;
  auto exp_it = next_submit_expected_.find(from);
  if (exp_it == next_submit_expected_.end()) return;
  std::uint64_t& exp = exp_it->second;
  if (m.sender_seq < exp) return;  // duplicate
  if (m.sender_seq > exp) {
    submit_buffer_[from].emplace(m.sender_seq, m);  // behind a gap
    return;
  }
  // The next in this sender's FIFO order (the common case): order it
  // straight from `m`, then whatever it releases from the buffer.
  ++exp;
  order_message(m, from);
  auto& buf = submit_buffer_[from];
  for (auto it = buf.find(exp); it != buf.end(); it = buf.find(exp)) {
    ++exp;
    order_message(it->second, from);
    buf.erase(it);
  }
}

void Daemon::order_message(const wire::Submit& m, net::NodeId sender) {
  const wire::Ordered o{view_.id, next_order_gseq_++, sender, m.sender_seq,
                        m.kind,   m.group,            m.origin, m.payload};
  ++stats_.messages_ordered;
  // Encode once, fan out from the scratch buffer; the network copies the
  // span into its own pooled storage per recipient, so no fresh buffers.
  wire::encode_into(o, scratch_);
  for (net::NodeId member : view_.members) {
    if (member != self_) send_to(member, scratch_.buffer());
  }
  // `o` views `m`, which self-delivery may erase: handle_ordered() copies
  // the datagram before it delivers anything.
  handle_ordered(o, scratch_.buffer());
}

void Daemon::handle_ordered(const wire::Ordered& m,
                            std::span<const std::byte> datagram) {
  if (m.view != view_.id) return;
  if (m.gseq < next_deliver_gseq_) return;  // duplicate
  const auto it = std::lower_bound(
      holdback_.begin(), holdback_.end(), m.gseq,
      [](const auto& held, std::uint64_t gseq) { return held.first < gseq; });
  if (it == holdback_.end() || it->first != m.gseq) {
    holdback_.emplace(it, m.gseq,
                      util::Bytes(datagram.begin(), datagram.end()));
  }
  deliver_ready();
}

void Daemon::deliver_ready() {
  while (!holdback_.empty() && holdback_.front().first == next_deliver_gseq_) {
    retention_.push_back(std::move(holdback_.front().second));
    holdback_.erase(holdback_.begin());
    ++next_deliver_gseq_;
    deliver_one(wire::ordered_view(retention_.back()));
  }
  if (state_ == State::kBlocked && my_flush_target_) check_flush_progress();
}

void Daemon::deliver_one(const wire::Ordered& m) {
  ++stats_.messages_delivered;
  if (m.sender == self_) pending_.erase(m.sender_seq);

  switch (m.kind) {
    case wire::PayloadKind::kJoin: {
      const bool changed =
          entry(group_table_, m.group).insert(m.origin).second;
      if (changed) emit_group_view(m.group);
      break;
    }
    case wire::PayloadKind::kLeave: {
      auto it = group_table_.find(m.group);
      if (it == group_table_.end()) break;
      const bool changed = it->second.erase(m.origin) > 0;
      if (it->second.empty()) group_table_.erase(it);
      if (changed) emit_group_view(m.group);
      break;
    }
    case wire::PayloadKind::kApp:
      for_each_local(m.group, [&](GroupMember* h) {
        if (h->callbacks_.on_message) {
          h->callbacks_.on_message(m.origin, m.payload);
        }
      });
      break;
  }
}

void Daemon::emit_group_view(std::string_view group) {
  GroupView gv;
  gv.group = group;
  gv.daemon_view_counter = view_.id.counter;
  gv.change_seq = ++entry(group_change_seq_, group);
  if (auto it = group_table_.find(group); it != group_table_.end()) {
    gv.members.assign(it->second.begin(), it->second.end());
  }
  for_each_local(group, [&](GroupMember* h) {
    h->last_view_ = gv;
    if (h->callbacks_.on_view) h->callbacks_.on_view(gv);
  });
}

template <typename Fn>
void Daemon::for_each_local(std::string_view group, Fn fn) {
  const auto it = local_members_.find(group);
  if (it == local_members_.end()) return;
  // A lone handle (the common case) is called directly; several are walked
  // over a copy, because callbacks may join or leave reentrantly.
  if (it->second.size() == 1) {
    fn(it->second.front());
    return;
  }
  const std::vector<GroupMember*> handles = it->second;
  for (GroupMember* h : handles) fn(h);
}

std::vector<wire::GroupReg> Daemon::local_regs_snapshot() const {
  std::vector<wire::GroupReg> regs;
  for (const auto& [group, handles] : local_members_) {
    for (const GroupMember* h : handles) {
      regs.push_back(wire::GroupReg{group, h->endpoint_});
    }
  }
  return regs;
}

// ------------------------------------------------------------ retransmission

void Daemon::maybe_nack() {
  if (halted_) return;
  const bool flushing = state_ == State::kBlocked && my_flush_target_;

  std::uint64_t want_upto = 0;
  if (!holdback_.empty()) {
    want_upto = holdback_.back().first;
  }
  if (flushing) {
    for (const auto& e : my_flush_target_->entries) {
      if (e.old_view == view_.id) want_upto = std::max(want_upto, e.target);
    }
  }
  if (want_upto < next_deliver_gseq_) return;  // nothing missing

  net::NodeId holder = view_.id.coord;
  if (flushing) {
    for (const auto& e : my_flush_target_->entries) {
      if (e.old_view == view_.id) holder = e.holder;
    }
  }
  if (holder == self_ || holder == net::kInvalidNode) return;
  wire::RetransReq req{view_.id, next_deliver_gseq_, want_upto};
  wire::encode_into(req, scratch_);
  send_to(holder, scratch_.buffer());
}

void Daemon::handle_retrans_req(net::NodeId from, const wire::RetransReq& m) {
  if (m.view != view_.id) return;
  // Re-send the retained datagrams unchanged: they are byte-for-byte the
  // first transmission, so nothing is re-encoded or re-checksummed.
  const std::uint64_t first = next_deliver_gseq_ - retention_.size();
  std::size_t sent = 0;
  for (std::uint64_t g = std::max(m.from_gseq, first);
       g < next_deliver_gseq_ && g <= m.to_gseq && sent < kMaxRetransBatch;
       ++g, ++sent) {
    send_to(from, retention_[g - first]);
    ++stats_.retransmissions;
  }
}

void Daemon::trim_retention(std::uint64_t safe) {
  const std::uint64_t first = next_deliver_gseq_ - retention_.size();
  if (safe < first) return;
  const std::uint64_t stable =
      std::min<std::uint64_t>(safe - first + 1, retention_.size());
  retention_.erase(retention_.begin(),
                   retention_.begin() + static_cast<std::ptrdiff_t>(stable));
}

std::uint64_t Daemon::first_pending_seq() const {
  return pending_.empty() ? submit_seq_counter_ : pending_.begin()->first;
}

}  // namespace ftvod::gcs
