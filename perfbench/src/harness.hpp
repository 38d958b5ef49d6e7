// The benchmark's view of one simulated deployment. The harness advances
// the simulation in short steps from outside and, between steps, does what
// an operator or a measuring probe would: calls watch() on ramp clients,
// applies crash/restart and link faults, drives the invariant monitor and
// the placement controller at their periods, and watches the clients'
// public counters to time startups, takeovers and stalls. Every call into
// the program is timed on the thread's CPU clock and recorded as a span;
// the benchmark's own bookkeeping between calls is not.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "host.hpp"
#include "sampler.hpp"
#include "testing/chaos.hpp"
#include "testing/invariants.hpp"
#include "vod/placement.hpp"
#include "vod/service.hpp"
#include "workload/session_workload.hpp"

namespace perfbench {

namespace sim = ftvod::sim;
namespace net = ftvod::net;
namespace vod = ftvod::vod;

/// Span kinds: one per public entry point the benchmark calls.
enum class SpanKind : std::uint8_t {
  kSetup,
  kRunFor,
  kWatch,
  kCrash,
  kRestart,
  kLinkFault,
  kPlacementTick,
  kMonitorCheck,
  kFlashCrowd,
  kCount
};
inline constexpr std::array<const char*,
                            static_cast<std::size_t>(SpanKind::kCount)>
    kSpanNames = {"setup",     "run_for",        "watch",
                  "crash",     "restart",        "link_fault",
                  "placement_tick", "monitor_check", "flash_crowd"};

struct Span {
  SpanKind kind = SpanKind::kRunFor;
  sim::Time sim_at = 0;
  double cpu_begin = 0.0;
  double cpu_end = 0.0;
};

/// Whole-deployment counters, summed over every host, daemon, server and
/// client, including server incarnations already replaced by a restart.
struct Counters {
  std::uint64_t events = 0;
  // net
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t drop_loss = 0;  // i.i.d. loss (burst losses excluded)
  std::uint64_t drop_burst = 0;
  std::uint64_t drop_queue = 0;
  std::uint64_t drop_unreachable = 0;
  std::uint64_t damaged = 0;  // corrupted + truncated in flight
  // gcs
  std::uint64_t ordered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t gcs_rejected = 0;
  std::uint64_t control_bytes = 0;
  // vod
  std::uint64_t frames_sent = 0;
  std::uint64_t syncs = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t migrations = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t vod_rejected = 0;
  std::uint64_t flow_msgs = 0;
  std::uint64_t open_retries = 0;
  // placement / workload / monitor
  std::uint64_t placement_adds = 0;
  std::uint64_t placement_drops = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t arrivals_rejected = 0;
  std::uint64_t monitor_checks = 0;
  std::uint64_t violations = 0;

  void add_server(const vod::ServerStats& s);
  void add_daemon(const ftvod::gcs::Daemon& d);
};

/// Every Counters field, for arithmetic and hashing.
inline constexpr std::uint64_t Counters::*kCounterFields[] = {
    &Counters::events,          &Counters::datagrams_sent,
    &Counters::datagrams_received, &Counters::wire_bytes,
    &Counters::drop_loss,       &Counters::drop_burst,
    &Counters::drop_queue,      &Counters::drop_unreachable,
    &Counters::damaged,         &Counters::ordered,
    &Counters::delivered,       &Counters::retransmissions,
    &Counters::view_changes,    &Counters::gcs_rejected,
    &Counters::control_bytes,   &Counters::frames_sent,
    &Counters::syncs,           &Counters::takeovers,
    &Counters::migrations,      &Counters::rebalances,
    &Counters::vod_rejected,    &Counters::flow_msgs,
    &Counters::open_retries,    &Counters::placement_adds,
    &Counters::placement_drops, &Counters::arrivals,
    &Counters::arrivals_rejected, &Counters::monitor_checks,
    &Counters::violations};

inline Counters& operator+=(Counters& a, const Counters& b) {
  for (auto f : kCounterFields) a.*f += b.*f;
  return a;
}
inline Counters operator-(Counters a, const Counters& b) {
  for (auto f : kCounterFields) a.*f -= b.*f;
  return a;
}

/// What the harness observed of the viewers. Session outcomes, startups
/// and takeovers cover the whole run after set-up; viewer time, frame
/// tallies, rebalance samples and allocations cover the window only.
struct Tally {
  std::vector<sim::Duration> startups;   // watch() to first displayed frame
  std::vector<sim::Duration> takeovers;  // crash to next received frame
  std::uint64_t sessions = 0;
  std::uint64_t failed = 0;
  std::uint64_t takeover_missing = 0;
  double viewer_s = 0.0;
  std::uint64_t displayed = 0;
  std::uint64_t skipped = 0;
  std::uint64_t late = 0;
  std::uint64_t rebalance_samples = 0;
  std::uint64_t rebalance_authoritative = 0;
  std::uint64_t run_allocs = 0;  // heap allocations inside run_until

  Tally& operator+=(const Tally& o);
};

/// One measured second of the window.
struct Slice {
  std::uint64_t events = 0;
  double cpu_s = 0.0;     // program time (all spans) in the slice
  double run_cpu_s = 0.0; // run_for spans only
  double scale = 1.0;     // nominal seconds per CPU second (host gauge)
  bool sampled = false;   // traced run: sampler on during this slice
};

/// Harness step: watches, faults and startup/takeover probes resolve to it.
inline constexpr sim::Duration kStep = sim::msec(5);
/// The invariant monitor's and the placement controller's own periods.
inline constexpr sim::Duration kMonitorPeriod = sim::msec(100);
inline constexpr sim::Duration kPlacementPeriod = sim::sec(1.0);
/// A session fails without a displayed frame this long after watch(), or
/// when its display stalls this long (the monitor's stall bound).
inline constexpr sim::Duration kFailBound = sim::sec(10.0);
/// A crashed server's client counts as never taken over after this.
inline constexpr sim::Duration kTakeoverGiveUp = sim::sec(60.0);

class Harness {
 public:
  /// `keep_spans` stores every span (traced runs) besides the totals.
  Harness(vod::Deployment& dep, bool keep_spans);

  void set_monitor(ftvod::testing::InvariantMonitor* m) { monitor_ = m; }
  void set_placement(vod::PlacementController* p) { placement_ = p; }
  void set_workload(ftvod::workload::SessionWorkload* w) { workload_ = w; }
  void set_sampler(Sampler* s) { sampler_ = s; }
  /// Fault events the harness applies itself (crash, restart, link
  /// damage and repair). `titles` re-populates a restarted server.
  void set_chaos(std::vector<ftvod::testing::ChaosEvent> events,
                 std::vector<std::shared_ptr<const ftvod::mpeg::Movie>> titles);
  /// Client `index` calls watch(title) at simulated time `at`.
  void schedule_watch(sim::Time at, std::size_t index, std::string title);
  /// Flash crowd on the workload: `share` of arrivals go to `rank`.
  void schedule_flash_crowd(sim::Time at, std::size_t rank, double share,
                            sim::Duration length);

  /// Advances the simulation by `d` in steps, doing all due harness work.
  void advance(sim::Duration d);
  /// Advances one slice of `d` and returns its measurements.
  Slice measure_slice(sim::Duration d, bool sampled);

  /// Starts and stops the measurement window (viewer-time and frame
  /// accounting, rebalance sampling).
  void open_window();
  void close_window();

  [[nodiscard]] Counters counters() const;
  [[nodiscard]] std::uint64_t digest() const;

  [[nodiscard]] const Tally& tally() const { return tally_; }

  /// Span totals per kind (count, CPU seconds) and, when kept, all spans.
  [[nodiscard]] const std::array<std::uint64_t, kSpanNames.size()>&
  span_counts() const {
    return span_count_;
  }
  [[nodiscard]] const std::array<double, kSpanNames.size()>& span_cpu()
      const {
    return span_cpu_;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Records a span the caller timed itself (set-up).
  void note_span(SpanKind kind, double cpu_begin, double cpu_end);

 private:
  struct Viewer {
    sim::Time watch_at = -1;  // start of the current session
    bool in_session = false;
    bool started = false;  // first frame displayed
    bool failed = false;
    bool pending = false;  // listed in pending_startup_
    std::uint64_t last_displayed = 0;
    std::uint64_t last_skipped = 0;
    std::uint64_t last_late = 0;
    sim::Time last_progress = 0;
  };
  struct PendingTakeover {
    std::size_t client = 0;
    sim::Time crash_at = 0;
    std::uint64_t received = 0;
  };
  struct Watch {
    sim::Time at = 0;
    std::size_t index = 0;
    std::string title;
  };

  template <typename F>
  void timed(SpanKind kind, F&& f);
  void step_to(sim::Time t);
  void begin_session(std::size_t index, sim::Time at);
  void fail(Viewer& v);
  void detect_arrivals();
  void poll_startups();
  void poll_takeovers();
  void poll_viewers();
  void sample_rebalances();
  void apply(const ftvod::testing::ChaosEvent& e);

  vod::Deployment* dep_;
  bool keep_spans_;
  ftvod::testing::InvariantMonitor* monitor_ = nullptr;
  vod::PlacementController* placement_ = nullptr;
  ftvod::workload::SessionWorkload* workload_ = nullptr;
  Sampler* sampler_ = nullptr;
  bool sampling_ = false;

  sim::Time next_monitor_ = 0;
  sim::Time next_placement_ = 0;
  std::vector<ftvod::testing::ChaosEvent> chaos_;
  std::size_t next_chaos_ = 0;
  std::vector<std::shared_ptr<const ftvod::mpeg::Movie>> restart_titles_;
  std::vector<Watch> watches_;
  std::size_t next_watch_ = 0;
  struct FlashCrowd {
    sim::Time at = 0;
    std::size_t rank = 0;
    double share = 0.0;
    sim::Duration length = 0;
    bool done = true;
  } flash_;

  std::vector<Viewer> viewers_;
  std::vector<std::size_t> pending_startup_;
  std::vector<PendingTakeover> pending_takeover_;
  std::uint64_t arrivals_seen_ = 0;

  Tally tally_;
  bool window_open_ = false;
  std::map<std::pair<net::NodeId, std::string>, std::uint64_t> last_tag_;
  Counters retired_;  // stats of server incarnations replaced by restart
  double slice_cpu_ = 0.0;
  double slice_run_cpu_ = 0.0;
  std::array<std::uint64_t, kSpanNames.size()> span_count_{};
  std::array<double, kSpanNames.size()> span_cpu_{};
  std::vector<Span> spans_;
};

}  // namespace perfbench
