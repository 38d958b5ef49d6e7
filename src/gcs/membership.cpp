// View-change half of the GCS daemon: failure detection, merge discovery,
// the propose/flush/install protocol, and its failure/retry paths.
#include <algorithm>

#include "gcs/daemon.hpp"
#include "util/log.hpp"

namespace ftvod::gcs {

namespace {
constexpr std::string_view kLog = "gcs";
constexpr int kMaxProposalRounds = 3;
constexpr int kInstallResends = 2;

std::vector<net::NodeId> sorted_unique(std::vector<net::NodeId> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}
}  // namespace

// ---------------------------------------------------------- heartbeats & FD

void Daemon::on_heartbeat_timer() {
  if (halted_) return;
  wire::Heartbeat hb;
  hb.view = view_.id;
  hb.members = view_.members;
  hb.delivered_upto = next_deliver_gseq_ - 1;
  if (view_.id.coord == self_ && state_ == State::kNormal) {
    // Stability horizon: everything every member has delivered.
    std::uint64_t safe = next_deliver_gseq_ - 1;
    for (net::NodeId m : view_.members) {
      if (m == self_) continue;
      auto it = member_delivered_.find(m);
      safe = std::min(safe, it == member_delivered_.end() ? 0 : it->second);
    }
    safe_upto_ = safe;
    trim_retention(safe_upto_);
  }
  hb.safe_upto = safe_upto_;
  wire::encode_into(hb, scratch_);
  for (net::NodeId peer : cfg_.peers) {
    if (peer != self_) send_to(peer, scratch_.buffer());
  }
}

void Daemon::handle_heartbeat(net::NodeId from, const wire::Heartbeat& m) {
  max_counter_seen_ = std::max(max_counter_seen_, m.view.counter);
  if (m.view == view_.id) {
    member_delivered_[from] = m.delivered_upto;
    if (from == view_.id.coord && m.safe_upto > safe_upto_ &&
        state_ == State::kNormal) {
      safe_upto_ = m.safe_upto;
      trim_retention(safe_upto_);
    }
    // Tail-loss repair: NACKs only fire when a *later* message reveals a
    // gap. When the coordinator sees a member lagging behind the ordering
    // horizon, it pushes the missing suffix.
    if (view_.id.coord == self_ && state_ == State::kNormal &&
        m.delivered_upto < next_order_gseq_ - 1) {
      const wire::RetransReq req{view_.id, m.delivered_upto + 1,
                                 next_order_gseq_ - 1};
      handle_retrans_req(from, req);
    }
    foreign_.erase(from);
    return;
  }
  if (!view_.contains(from)) {
    // A daemon in a different view: candidate for a merge.
    foreign_[from] = m;
    consider_view_change();
    return;
  }
  // A member of our view advertising a view that no longer *contains us*
  // means we were dropped while unable to notice (classic case: this daemon
  // was paused past the suspect timeout, and on resume the others' ongoing
  // heartbeats keep refreshing last_heard_, so we never self-suspect). We
  // cannot sit this out: the merge rule defers to the lowest candidate id,
  // which may well be us. Treat the sighting as foreign so the normal
  // merge path runs from our side too.
  if (std::find(m.members.begin(), m.members.end(), self_) ==
      m.members.end()) {
    foreign_[from] = m;
    consider_view_change();
  }
  // A member advertising a different view that still includes us just means
  // we missed an install; retransmission repairs that. Nothing to do here.
}

void Daemon::on_fd_check() {
  if (halted_) return;
  const sim::Time now = sched_->now();
  for (net::NodeId m : view_.members) {
    if (m == self_) continue;
    auto it = last_heard_.find(m);
    const sim::Time last = it == last_heard_.end() ? 0 : it->second;
    if (now - last > cfg_.suspect_timeout) {
      if (suspects_.insert(m).second) {
        util::log_info(kLog, "n", self_, " suspects n", m);
      }
    }
  }
  // Forget stale foreign sightings so we do not merge with the departed.
  for (auto it = foreign_.begin(); it != foreign_.end();) {
    const sim::Time last = last_heard_.contains(it->first)
                               ? last_heard_[it->first]
                               : 0;
    if (now - last > cfg_.suspect_timeout) {
      it = foreign_.erase(it);
    } else {
      ++it;
    }
  }
  consider_view_change();
}

void Daemon::consider_view_change() {
  if (halted_ || proposal_.has_value()) return;

  const sim::Time now = sched_->now();
  const bool have_suspect_member =
      std::any_of(view_.members.begin(), view_.members.end(),
                  [&](net::NodeId m) { return suspects_.contains(m); });
  const bool have_foreign = !foreign_.empty();

  if (state_ == State::kBlocked) {
    // A proposal by someone else is in progress; only interfere if the
    // proposer itself is now suspected (handled by the rescue timer).
    return;
  }
  if (!have_suspect_member && !have_foreign) return;

  // Candidate membership: survivors of our view plus everyone heard in
  // foreign views, minus suspects.
  std::vector<net::NodeId> candidate;
  for (net::NodeId m : view_.members) {
    if (!suspects_.contains(m)) candidate.push_back(m);
  }
  if (have_foreign) {
    if (now - last_proposal_time_ < cfg_.merge_backoff) return;
    for (const auto& [node, hb] : foreign_) {
      if (!suspects_.contains(node)) candidate.push_back(node);
      for (net::NodeId m : hb.members) {
        if (!suspects_.contains(m)) candidate.push_back(m);
      }
    }
  } else if (now - last_proposal_time_ < cfg_.propose_retry) {
    return;
  }
  candidate = sorted_unique(std::move(candidate));
  if (candidate.empty() || candidate.front() != self_) return;
  start_proposal(std::move(candidate));
}

// ------------------------------------------------------------- proposer side

void Daemon::start_proposal(std::vector<net::NodeId> members) {
  members = sorted_unique(std::move(members));
  if (std::find(members.begin(), members.end(), self_) == members.end()) {
    members.push_back(self_);
    std::sort(members.begin(), members.end());
  }
  Proposal p;
  p.pv = ViewId{max_counter_seen_ + 1, self_};
  p.members = members;
  max_counter_seen_ = p.pv.counter;

  util::log_info(kLog, "n", self_, " proposes ", p.pv, " with ",
                 p.members.size(), " members");

  state_ = State::kBlocked;
  blocked_since_ = sched_->now();
  last_proposal_time_ = sched_->now();
  accepted_pv_ = p.pv;
  accepted_pv_from_ = self_;
  last_proposed_members_ = p.members;
  my_flush_target_.reset();

  // Record our own ack.
  wire::ProposeAck self_ack;
  self_ack.pv = p.pv;
  self_ack.old_view = view_.id;
  self_ack.delivered_upto = next_deliver_gseq_ - 1;
  self_ack.next_submit_seq = first_pending_seq();
  self_ack.regs = local_regs_snapshot();
  p.acks.emplace(self_, std::move(self_ack));

  proposal_ = std::move(p);

  const util::Bytes bytes =
      wire::encode(wire::Propose{proposal_->pv, proposal_->members});
  for (net::NodeId m : proposal_->members) {
    if (m != self_) send_to(m, bytes);
  }
  propose_retry_timer_.arm(cfg_.propose_retry, [this] { on_propose_retry(); });
  maybe_enter_flush_phase();
}

void Daemon::handle_propose_ack(net::NodeId from, const wire::ProposeAck& m) {
  if (!proposal_ || m.pv != proposal_->pv) return;
  proposal_->acks[from] = m;
  maybe_enter_flush_phase();
}

void Daemon::maybe_enter_flush_phase() {
  if (!proposal_ || proposal_->flush_phase) return;
  for (net::NodeId m : proposal_->members) {
    if (!proposal_->acks.contains(m)) return;
  }
  proposal_->flush_phase = true;

  // Per previous view ("cluster"), everyone must reach the maximum
  // contiguous delivery any survivor achieved. The holder serves gaps.
  std::map<ViewId, wire::FlushTarget::Entry> clusters;
  for (const auto& [node, ack] : proposal_->acks) {
    auto [it, inserted] = clusters.try_emplace(
        ack.old_view,
        wire::FlushTarget::Entry{ack.old_view, ack.delivered_upto, node});
    if (!inserted && ack.delivered_upto > it->second.target) {
      it->second.target = ack.delivered_upto;
      it->second.holder = node;
    }
  }
  wire::FlushTarget ft;
  ft.pv = proposal_->pv;
  for (auto& [view, entry] : clusters) ft.entries.push_back(entry);
  proposal_->targets = ft;

  const util::Bytes bytes = wire::encode(ft);
  for (net::NodeId m : proposal_->members) {
    if (m != self_) send_to(m, bytes);
  }
  handle_flush_target(self_, ft);
  propose_retry_timer_.arm(cfg_.propose_retry, [this] { on_propose_retry(); });
}

void Daemon::handle_flush_done(net::NodeId from, const wire::FlushDone& m) {
  if (!proposal_ || m.pv != proposal_->pv) return;
  proposal_->flush_done[from] = m.delivered_upto;
  maybe_install();
}

void Daemon::maybe_install() {
  if (!proposal_ || !proposal_->flush_phase) return;
  for (net::NodeId m : proposal_->members) {
    if (!proposal_->flush_done.contains(m)) return;
  }
  build_and_send_install();
}

void Daemon::build_and_send_install() {
  wire::Install inst;
  inst.pv = proposal_->pv;
  inst.members = proposal_->members;
  for (const auto& [node, ack] : proposal_->acks) {
    inst.group_table.insert(inst.group_table.end(), ack.regs.begin(),
                            ack.regs.end());
    inst.submit_seqs.emplace_back(node, ack.next_submit_seq);
  }
  util::log_info(kLog, "n", self_, " installs ", inst.pv, " (",
                 inst.members.size(), " members)");
  const util::Bytes bytes = wire::encode(inst);
  for (net::NodeId m : inst.members) {
    if (m != self_) send_to(m, bytes);
  }
  // Best-effort resends; a member that misses all of them re-merges later.
  pending_install_ = inst;
  install_resends_left_ = kInstallResends;
  apply_install(inst);
  schedule_install_resend();
}

void Daemon::schedule_install_resend() {
  if (install_resends_left_ <= 0 || !pending_install_) return;
  --install_resends_left_;
  propose_retry_timer_.arm(cfg_.propose_retry, [this] {
    if (!pending_install_ || halted_) return;
    const util::Bytes bytes = wire::encode(*pending_install_);
    for (net::NodeId m : pending_install_->members) {
      if (m != self_) send_to(m, bytes);
    }
    schedule_install_resend();
  });
}

void Daemon::on_propose_retry() {
  if (!proposal_ || halted_) return;
  ++proposal_->round;
  if (proposal_->round > kMaxProposalRounds) {
    abandon_unresponsive_and_retry();
    return;
  }
  if (!proposal_->flush_phase) {
    const util::Bytes bytes =
        wire::encode(wire::Propose{proposal_->pv, proposal_->members});
    for (net::NodeId m : proposal_->members) {
      if (!proposal_->acks.contains(m)) send_to(m, bytes);
    }
  } else {
    const util::Bytes bytes = wire::encode(proposal_->targets);
    for (net::NodeId m : proposal_->members) {
      if (!proposal_->flush_done.contains(m)) send_to(m, bytes);
    }
  }
  propose_retry_timer_.arm(cfg_.propose_retry, [this] { on_propose_retry(); });
}

void Daemon::abandon_unresponsive_and_retry() {
  // Keep only members that progressed; everyone else is treated as failed.
  std::vector<net::NodeId> responsive;
  for (net::NodeId m : proposal_->members) {
    const bool ok = proposal_->flush_phase ? proposal_->flush_done.contains(m)
                                           : proposal_->acks.contains(m);
    if (ok) {
      responsive.push_back(m);
    } else {
      suspects_.insert(m);
      util::log_warn(kLog, "n", self_, " abandons unresponsive n", m,
                     " during view change");
    }
  }
  proposal_.reset();
  last_proposal_time_ = -1'000'000'000;  // allow immediate retry
  start_proposal(std::move(responsive));
}

// ---------------------------------------------------------- participant side

void Daemon::handle_propose(net::NodeId from, const wire::Propose& m) {
  max_counter_seen_ = std::max(max_counter_seen_, m.pv.counter);
  if (m.pv.counter <= view_.id.counter) return;  // stale
  if (std::find(m.members.begin(), m.members.end(), self_) ==
      m.members.end()) {
    return;  // not part of that proposal
  }
  if (m.pv < accepted_pv_) return;  // promised a higher proposal
  const bool duplicate = m.pv == accepted_pv_ && from == accepted_pv_from_ &&
                         state_ == State::kBlocked;
  if (!duplicate) {
    if (proposal_ && proposal_->pv < m.pv) {
      // Our own lower proposal loses; its members will adopt the higher one.
      proposal_.reset();
      propose_retry_timer_.cancel();
      pending_install_.reset();
    }
    accepted_pv_ = m.pv;
    accepted_pv_from_ = from;
    last_proposed_members_ = m.members;
    my_flush_target_.reset();
    if (state_ != State::kBlocked) {
      state_ = State::kBlocked;
      blocked_since_ = sched_->now();
    }
    rescue_timer_.arm(cfg_.blocked_rescue, [this] { on_blocked_rescue(); });
  }
  wire::ProposeAck ack;
  ack.pv = m.pv;
  ack.old_view = view_.id;
  ack.delivered_upto = next_deliver_gseq_ - 1;
  ack.next_submit_seq = first_pending_seq();
  ack.regs = local_regs_snapshot();
  if (from == self_) {
    handle_propose_ack(self_, ack);
  } else {
    send_to(from, wire::encode(ack));
  }
}

void Daemon::handle_flush_target(net::NodeId from, const wire::FlushTarget& m) {
  (void)from;
  if (m.pv != accepted_pv_ || state_ != State::kBlocked) return;
  my_flush_target_ = m;
  check_flush_progress();
  maybe_nack();
}

void Daemon::check_flush_progress() {
  if (!my_flush_target_) return;
  for (const auto& e : my_flush_target_->entries) {
    if (e.old_view != view_.id) continue;
    if (next_deliver_gseq_ - 1 < e.target) return;  // still catching up
  }
  wire::FlushDone done{my_flush_target_->pv, next_deliver_gseq_ - 1};
  if (accepted_pv_from_ == self_) {
    handle_flush_done(self_, done);
  } else {
    send_to(accepted_pv_from_, wire::encode(done));
  }
}

void Daemon::handle_install(net::NodeId from, const wire::Install& m) {
  (void)from;
  max_counter_seen_ = std::max(max_counter_seen_, m.pv.counter);
  if (m.pv.counter <= view_.id.counter) return;  // duplicate / stale
  if (std::find(m.members.begin(), m.members.end(), self_) ==
      m.members.end()) {
    return;
  }
  apply_install(m);
}

void Daemon::apply_install(const wire::Install& m) {
  ++stats_.view_changes;

  view_.id = m.pv;
  view_.members = m.members;
  state_ = State::kNormal;
  accepted_pv_ = m.pv;
  accepted_pv_from_ = m.pv.coord;
  my_flush_target_.reset();
  if (proposal_ && proposal_->pv != m.pv) proposal_.reset();
  if (proposal_ && proposal_->pv == m.pv) proposal_.reset();
  rescue_timer_.cancel();

  holdback_.clear();
  retention_.clear();
  next_deliver_gseq_ = 1;
  next_order_gseq_ = 1;
  safe_upto_ = 0;
  submit_buffer_.clear();
  member_delivered_.clear();
  next_submit_expected_.clear();
  for (const auto& [node, seq] : m.submit_seqs) {
    next_submit_expected_[node] = seq;
  }
  // The coordinator expects this daemon's submissions from the sequence
  // number it acked, but the flush may since have delivered (and erased)
  // the oldest pending ones. Renumber what is still pending to start there,
  // or the coordinator would wait forever for a number already consumed.
  if (const auto own = next_submit_expected_.find(self_);
      own != next_submit_expected_.end()) {
    std::map<std::uint64_t, wire::Submit> renumbered;
    std::uint64_t seq = own->second;
    while (!pending_.empty()) {
      auto entry = pending_.extract(pending_.begin());
      entry.key() = entry.mapped().sender_seq = seq++;
      renumbered.insert(renumbered.end(), std::move(entry));
    }
    pending_.swap(renumbered);
    submit_seq_counter_ = seq;
  }

  const sim::Time now = sched_->now();
  for (net::NodeId member : view_.members) {
    last_heard_[member] = now;
    suspects_.erase(member);
    foreign_.erase(member);
  }
  group_change_seq_.clear();

  group_table_.clear();
  for (const auto& reg : m.group_table) {
    group_table_[reg.group].insert(reg.member);
  }

  util::log_info(kLog, "n", self_, " now in ", view_.id, " with ",
                 view_.members.size(), " members");

  // Deliver fresh views for every locally-registered group whose membership
  // may have changed (conservatively: all of them).
  const std::vector<std::string> local_groups = [&] {
    std::vector<std::string> g;
    for (const auto& [group, handles] : local_members_) g.push_back(group);
    return g;
  }();
  for (const std::string& group : local_groups) emit_group_view(group);

  flush_pending_submits();
}

void Daemon::on_blocked_rescue() {
  if (halted_ || state_ != State::kBlocked) return;
  // The proposer has gone quiet for a long time. Suspect it and let the
  // smallest surviving candidate re-propose.
  if (accepted_pv_from_ != self_) suspects_.insert(accepted_pv_from_);
  std::vector<net::NodeId> candidate;
  for (net::NodeId m : last_proposed_members_) {
    if (!suspects_.contains(m)) candidate.push_back(m);
  }
  candidate = sorted_unique(std::move(candidate));
  if (!candidate.empty() && candidate.front() == self_) {
    proposal_.reset();
    last_proposal_time_ = -1'000'000'000;
    start_proposal(std::move(candidate));
  } else {
    rescue_timer_.arm(cfg_.blocked_rescue, [this] { on_blocked_rescue(); });
  }
}

}  // namespace ftvod::gcs
