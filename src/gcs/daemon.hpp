// The GCS daemon: one per host. See types.hpp for the architecture summary.
//
// Guarantees provided to applications (within one network component):
//  * Agreed (total-order) multicast with self-delivery, FIFO per sender.
//  * View synchrony: daemons that move together from view V to view V'
//    deliver the same set of messages in V before installing V'.
//  * Consistent lightweight-group membership: join/leave events are ordered
//    with regular messages, so every member sees the same message/view
//    sequence per group.
//
// No callback runs inside the caller's stack: join(), send_to_group(),
// GroupMember::send() and leave() only queue a submission, and deliveries
// follow in submission order, from the network or (on the coordinator) from
// a zero-delay scheduler step.
//
// The protocol is coordinator-based (the proposer of the current view orders
// all messages). Coordinator failure is handled by the next surviving member
// proposing a new view after a flush round that equalizes delivery among
// survivors. Partitions yield disjoint views; merges are proposed by the
// lowest daemon id across both sides when heartbeats cross again.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gcs/group.hpp"
#include "gcs/types.hpp"
#include "gcs/wire.hpp"
#include "net/network.hpp"
#include "sim/timer.hpp"

namespace ftvod::gcs {

struct DaemonStats {
  std::uint64_t messages_ordered = 0;    // as coordinator
  std::uint64_t messages_delivered = 0;  // to local or remote bookkeeping
  std::uint64_t retransmissions = 0;
  std::uint64_t view_changes = 0;
  /// Datagrams rejected before acting on them: integrity-check failures
  /// (also counted in SocketStats::corrupt_dropped) plus structurally or
  /// semantically invalid messages the decoders refused.
  std::uint64_t malformed_dropped = 0;
};

class Daemon {
 public:
  Daemon(sim::Scheduler& sched, net::Network& net, net::NodeId self,
         GcsConfig cfg);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Joins a lightweight group. The returned handle must not outlive the
  /// daemon. Membership becomes visible when the join is ordered; the first
  /// on_view delivered to the handle includes the caller. Returns before any
  /// callback runs, so the caller may register the handle first.
  [[nodiscard]] std::unique_ptr<GroupMember> join(std::string group,
                                                  GroupCallbacks callbacks);

  /// Multicasts into a group without being a member (no self-delivery).
  /// Returns before any callback runs.
  void send_to_group(const std::string& group, util::Bytes payload);

  [[nodiscard]] net::NodeId self() const { return self_; }
  [[nodiscard]] const DaemonView& view() const { return view_; }
  [[nodiscard]] const GcsConfig& config() const { return cfg_; }
  [[nodiscard]] const DaemonStats& stats() const { return stats_; }
  [[nodiscard]] const net::SocketStats& socket_stats() const {
    return socket_->stats();
  }
  [[nodiscard]] bool blocked() const { return state_ == State::kBlocked; }
  /// Ordering state in the current view: the contiguous gseq delivered so
  /// far, ordered messages held back behind a gap, and delivered ones
  /// retained for retransmission until the stability horizon passes them.
  [[nodiscard]] std::uint64_t delivered_upto() const {
    return next_deliver_gseq_ - 1;
  }
  [[nodiscard]] std::size_t held_back() const { return holdback_.size(); }
  [[nodiscard]] std::size_t retained() const { return retention_.size(); }
  /// Current membership of a group as known to this daemon.
  [[nodiscard]] std::vector<GcsEndpoint> group_members(
      const std::string& group) const;

  /// Stops all activity (used on host crash; registered automatically).
  void halt();
  [[nodiscard]] bool halted() const { return halted_; }

  /// Freezes the daemon as if the process were SIGSTOPped: timers stop and
  /// arriving datagrams are dropped, but all state is kept. Peers will
  /// suspect it and exclude it from their views. resume() restarts the
  /// timers; the stale failure-detector timestamps then make the daemon
  /// install a fresh (typically singleton) view, after which the normal
  /// merge path re-admits it — exactly the partition-heal flow.
  void pause();
  void resume();
  [[nodiscard]] bool paused() const { return paused_; }

 private:
  friend class GroupMember;

  enum class State { kNormal, kBlocked };

  struct Proposal {
    ViewId pv;
    std::vector<net::NodeId> members;        // proposed membership
    std::map<net::NodeId, wire::ProposeAck> acks;
    bool flush_phase = false;
    std::map<net::NodeId, std::uint64_t> flush_done;  // node -> delivered
    wire::FlushTarget targets;
    int round = 0;
  };

  // ---- socket / dispatch ----
  void on_datagram(const net::Endpoint& from, std::span<const std::byte> data);
  /// Refreshes the failure detector for a peer whose datagram verified.
  void note_alive(net::NodeId peer);
  void send_to(net::NodeId node, std::span<const std::byte> bytes);

  // ---- sending / ordering ----
  void submit(wire::PayloadKind kind, const std::string& group,
              GcsEndpoint origin, util::Bytes payload);
  void flush_pending_submits();
  void handle_submit(net::NodeId from, const wire::Submit& m);
  void order_message(const wire::Submit& m, net::NodeId sender);
  /// `m` is a view into `datagram`, its exact encoding; the daemon keeps a
  /// copy of the datagram, never of the struct.
  void handle_ordered(const wire::Ordered& m,
                      std::span<const std::byte> datagram);
  void deliver_ready();
  void deliver_one(const wire::Ordered& m);
  void handle_retrans_req(net::NodeId from, const wire::RetransReq& m);
  void maybe_nack();

  // ---- group plumbing ----
  void member_send(GroupMember& member, util::Bytes payload);
  void member_leave(GroupMember& member);
  void emit_group_view(std::string_view group);
  /// Calls fn(GroupMember*) for each local handle registered in `group`.
  template <typename Fn>
  void for_each_local(std::string_view group, Fn fn);
  std::vector<wire::GroupReg> local_regs_snapshot() const;

  // ---- failure detection / membership ----
  void on_heartbeat_timer();
  void on_fd_check();
  void handle_heartbeat(net::NodeId from, const wire::Heartbeat& m);
  void consider_view_change();
  void start_proposal(std::vector<net::NodeId> members);
  void handle_propose(net::NodeId from, const wire::Propose& m);
  void handle_propose_ack(net::NodeId from, const wire::ProposeAck& m);
  void maybe_enter_flush_phase();
  void handle_flush_target(net::NodeId from, const wire::FlushTarget& m);
  void check_flush_progress();
  void handle_flush_done(net::NodeId from, const wire::FlushDone& m);
  void maybe_install();
  void build_and_send_install();
  void schedule_install_resend();
  void handle_install(net::NodeId from, const wire::Install& m);
  void apply_install(const wire::Install& m);
  void on_propose_retry();
  void on_blocked_rescue();
  void abandon_unresponsive_and_retry();

  [[nodiscard]] std::uint64_t first_pending_seq() const;
  void trim_retention(std::uint64_t safe);

  // ---- state ----
  sim::Scheduler* sched_;
  net::Network* net_;
  net::NodeId self_;
  GcsConfig cfg_;
  std::unique_ptr<net::Socket> socket_;
  /// Reused encode buffer for per-peer fan-out (heartbeats, Ordered,
  /// submits, retransmissions). All reads of it finish before any call that
  /// could re-enter the daemon, so one scratch writer suffices.
  util::Writer scratch_;
  bool halted_ = false;
  bool paused_ = false;
  DaemonStats stats_;

  State state_ = State::kNormal;
  DaemonView view_;
  std::uint64_t max_counter_seen_ = 0;

  // Ordering, as a member of view_. Both structures hold each Ordered as
  // its datagram (one exact-size copy per message per daemon); delivery and
  // retransmission read it in place.
  std::uint64_t next_deliver_gseq_ = 1;
  /// Arrivals beyond next_deliver_gseq_, sorted by gseq and unique. Bounded
  /// by what is in flight, so a flat vector beats a tree.
  std::vector<std::pair<std::uint64_t, util::Bytes>> holdback_;
  /// Delivered messages not yet known stable: the contiguous gseqs
  /// [next_deliver_gseq_ - size, next_deliver_gseq_ - 1], oldest first.
  /// Trimming erases a prefix and keeps the capacity.
  std::vector<util::Bytes> retention_;
  std::uint64_t safe_upto_ = 0;

  // Ordering, as coordinator of view_.
  std::uint64_t next_order_gseq_ = 1;
  std::map<net::NodeId, std::uint64_t> next_submit_expected_;
  std::map<net::NodeId, std::map<std::uint64_t, wire::Submit>> submit_buffer_;
  std::map<net::NodeId, std::uint64_t> member_delivered_;  // from heartbeats

  // Own submissions awaiting ordering, keyed by sender_seq. Each entry's
  // view is stamped whenever it is (re)sent.
  std::uint64_t submit_seq_counter_ = 1;
  std::map<std::uint64_t, wire::Submit> pending_;

  // Membership protocol.
  std::optional<Proposal> proposal_;
  ViewId accepted_pv_;
  net::NodeId accepted_pv_from_ = net::kInvalidNode;
  std::optional<wire::FlushTarget> my_flush_target_;
  std::vector<net::NodeId> last_proposed_members_;
  std::optional<wire::Install> pending_install_;
  int install_resends_left_ = 0;
  sim::Time blocked_since_ = 0;
  sim::Time last_proposal_time_ = -1'000'000'000;

  // Failure detection & discovery.
  std::map<net::NodeId, sim::Time> last_heard_;
  std::set<net::NodeId> suspects_;
  std::map<net::NodeId, wire::Heartbeat> foreign_;  // non-members' heartbeats

  // Lightweight groups. Transparent comparators let a delivered message's
  // string_view group name look them up without building a string.
  std::map<std::string, std::set<GcsEndpoint>, std::less<>> group_table_;
  std::map<std::string, std::uint32_t, std::less<>> group_change_seq_;
  std::map<std::string, std::vector<GroupMember*>, std::less<>>
      local_members_;
  std::uint32_t next_local_id_ = 1;

  // Timers.
  sim::PeriodicTimer heartbeat_timer_;
  sim::PeriodicTimer fd_timer_;
  sim::PeriodicTimer resubmit_timer_;
  sim::PeriodicTimer nack_timer_;
  sim::OneShotTimer propose_retry_timer_;
  sim::OneShotTimer rescue_timer_;
  /// The coordinator's zero-delay step that orders its own submissions.
  sim::OneShotTimer order_step_;
};

}  // namespace ftvod::gcs
