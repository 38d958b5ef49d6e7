#include "harness.hpp"

#include <algorithm>

#include "alloc_count.hpp"

namespace perfbench {

void Counters::add_server(const vod::ServerStats& s) {
  frames_sent += s.frames_sent;
  syncs += s.syncs_sent;
  takeovers += s.takeovers;
  migrations += s.migrations_out;
  rebalances += s.rebalances;
  vod_rejected += s.malformed_dropped;
}

void Counters::add_daemon(const ftvod::gcs::Daemon& d) {
  const ftvod::gcs::DaemonStats& s = d.stats();
  ordered += s.messages_ordered;
  delivered += s.messages_delivered;
  retransmissions += s.retransmissions;
  view_changes += s.view_changes;
  gcs_rejected += s.malformed_dropped;
  control_bytes += d.socket_stats().bytes_sent;
}

Tally& Tally::operator+=(const Tally& o) {
  startups.insert(startups.end(), o.startups.begin(), o.startups.end());
  takeovers.insert(takeovers.end(), o.takeovers.begin(), o.takeovers.end());
  sessions += o.sessions;
  failed += o.failed;
  takeover_missing += o.takeover_missing;
  viewer_s += o.viewer_s;
  displayed += o.displayed;
  skipped += o.skipped;
  late += o.late;
  rebalance_samples += o.rebalance_samples;
  rebalance_authoritative += o.rebalance_authoritative;
  run_allocs += o.run_allocs;
  return *this;
}

Harness::Harness(vod::Deployment& dep, bool keep_spans)
    : dep_(&dep), keep_spans_(keep_spans), viewers_(dep.clients().size()) {
  const sim::Time now = dep.scheduler().now();
  next_monitor_ = (now / kMonitorPeriod + 1) * kMonitorPeriod;
  next_placement_ = (now / kPlacementPeriod + 1) * kPlacementPeriod;
  pending_startup_.reserve(viewers_.size());
  tally_.startups.reserve(viewers_.size());
}

void Harness::set_chaos(
    std::vector<ftvod::testing::ChaosEvent> events,
    std::vector<std::shared_ptr<const ftvod::mpeg::Movie>> titles) {
  chaos_ = std::move(events);
  next_chaos_ = 0;
  restart_titles_ = std::move(titles);
}

void Harness::schedule_watch(sim::Time at, std::size_t index,
                             std::string title) {
  watches_.push_back({at, index, std::move(title)});
}

void Harness::schedule_flash_crowd(sim::Time at, std::size_t rank,
                                   double share, sim::Duration length) {
  flash_ = {at, rank, share, length, false};
}

template <typename F>
void Harness::timed(SpanKind kind, F&& f) {
  const sim::Time at = dep_->scheduler().now();
  const std::uint64_t allocs0 = alloc_count();
  const double c0 = cpu_now();
  f();
  const double c1 = cpu_now();
  if (kind == SpanKind::kRunFor) {
    slice_run_cpu_ += c1 - c0;
    tally_.run_allocs += alloc_count() - allocs0;
  }
  slice_cpu_ += c1 - c0;
  const auto k = static_cast<std::size_t>(kind);
  ++span_count_[k];
  span_cpu_[k] += c1 - c0;
  if (keep_spans_) spans_.push_back({kind, at, c0, c1});
}

void Harness::note_span(SpanKind kind, double cpu_begin, double cpu_end) {
  const auto k = static_cast<std::size_t>(kind);
  ++span_count_[k];
  span_cpu_[k] += cpu_end - cpu_begin;
  if (keep_spans_) {
    spans_.push_back({kind, dep_->scheduler().now(), cpu_begin, cpu_end});
  }
}

void Harness::advance(sim::Duration d) {
  sim::Scheduler& s = dep_->scheduler();
  const sim::Time end = s.now() + d;
  while (s.now() < end) {
    const sim::Time after = s.now() + 1;
    sim::Time t = std::min(end, (s.now() / kStep + 1) * kStep);
    t = std::min({t, next_monitor_, next_placement_});
    if (next_chaos_ < chaos_.size()) {
      t = std::min(t, std::max(chaos_[next_chaos_].at, after));
    }
    if (next_watch_ < watches_.size()) {
      t = std::min(t, std::max(watches_[next_watch_].at, after));
    }
    if (!flash_.done) t = std::min(t, std::max(flash_.at, after));
    step_to(t);
  }
}

void Harness::step_to(sim::Time t) {
  timed(SpanKind::kRunFor, [&] {
    if (sampler_ != nullptr && sampling_) sampler_->set_enabled(true);
    dep_->run_until(t);
    if (sampler_ != nullptr) sampler_->set_enabled(false);
  });
  while (next_chaos_ < chaos_.size() && chaos_[next_chaos_].at <= t) {
    apply(chaos_[next_chaos_++]);
  }
  while (next_watch_ < watches_.size() && watches_[next_watch_].at <= t) {
    const Watch& w = watches_[next_watch_++];
    vod::VodClient& c = *dep_->clients()[w.index]->client;
    timed(SpanKind::kWatch, [&] { c.watch(w.title); });
    begin_session(w.index, t);
  }
  if (!flash_.done && flash_.at <= t && workload_ != nullptr) {
    flash_.done = true;
    timed(SpanKind::kFlashCrowd, [&] {
      workload_->flash_crowd(flash_.rank, flash_.share, t + flash_.length);
    });
  }
  detect_arrivals();
  poll_startups();
  poll_takeovers();
  if (t >= next_monitor_) {
    next_monitor_ += kMonitorPeriod;
    if (monitor_ != nullptr) {
      timed(SpanKind::kMonitorCheck, [&] { monitor_->check_now(); });
    }
    poll_viewers();
  }
  if (t >= next_placement_) {
    next_placement_ += kPlacementPeriod;
    if (placement_ != nullptr) {
      timed(SpanKind::kPlacementTick, [&] { placement_->tick_now(); });
    }
    sample_rebalances();
  }
}

Slice Harness::measure_slice(sim::Duration d, bool sampled) {
  slice_cpu_ = 0.0;
  slice_run_cpu_ = 0.0;
  const std::uint64_t events0 = dep_->scheduler().executed_events();
  sampling_ = sampled;
  advance(d);
  sampling_ = false;
  Slice s;
  s.events = dep_->scheduler().executed_events() - events0;
  s.cpu_s = slice_cpu_;
  s.run_cpu_s = slice_run_cpu_;
  s.sampled = sampled;
  return s;
}

void Harness::open_window() {
  window_open_ = true;
  tally_.run_allocs = 0;
}

void Harness::close_window() { window_open_ = false; }

void Harness::begin_session(std::size_t index, sim::Time at) {
  Viewer& v = viewers_[index];
  const bool pending = v.pending;
  v = Viewer{};
  v.watch_at = at;
  v.in_session = true;
  v.last_progress = at;
  v.pending = true;
  ++tally_.sessions;
  if (!pending) pending_startup_.push_back(index);
}

void Harness::fail(Viewer& v) {
  if (v.failed) return;
  v.failed = true;
  ++tally_.failed;
}

void Harness::detect_arrivals() {
  if (workload_ == nullptr) return;
  const std::vector<sim::Time>& times = workload_->arrival_times();
  if (times.size() == arrivals_seen_) return;
  std::size_t next_time = arrivals_seen_;
  arrivals_seen_ = times.size();
  // A new session is a client that was idle and now watches, or one whose
  // display counters were reset by a fresh watch(). Pool clients are
  // reused, so both cases occur within one step.
  auto& clients = dep_->clients();
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const vod::VodClient& c = *clients[i]->client;
    Viewer& v = viewers_[i];
    if (!c.watching()) {
      v.in_session = false;
      continue;
    }
    const bool fresh =
        !v.in_session || (v.started && c.counters().displayed == 0);
    if (!fresh) continue;
    const sim::Time at = next_time < times.size()
                             ? times[next_time++]
                             : dep_->scheduler().now();
    begin_session(i, at);
  }
}

void Harness::poll_startups() {
  const sim::Time now = dep_->scheduler().now();
  auto& clients = dep_->clients();
  for (std::size_t k = 0; k < pending_startup_.size();) {
    const std::size_t i = pending_startup_[k];
    const vod::VodClient& c = *clients[i]->client;
    Viewer& v = viewers_[i];
    bool done = true;
    if (!c.watching()) {
      v.in_session = false;  // left before the first frame
    } else if (c.counters().displayed > 0) {
      tally_.startups.push_back(now - v.watch_at);
      v.started = true;
      v.last_progress = now;
    } else if (now - v.watch_at > kFailBound) {
      fail(v);
    } else {
      done = false;
    }
    if (done) {
      v.pending = false;
      pending_startup_[k] = pending_startup_.back();
      pending_startup_.pop_back();
    } else {
      ++k;
    }
  }
}

void Harness::poll_takeovers() {
  const sim::Time now = dep_->scheduler().now();
  auto& clients = dep_->clients();
  for (std::size_t k = 0; k < pending_takeover_.size();) {
    const PendingTakeover& p = pending_takeover_[k];
    const vod::VodClient& c = *clients[p.client]->client;
    bool done = true;
    if (!c.watching()) {
      // The viewer left; no takeover to time.
    } else if (c.counters().received > p.received) {
      tally_.takeovers.push_back(now - p.crash_at);
    } else if (now - p.crash_at > kTakeoverGiveUp) {
      ++tally_.takeover_missing;
    } else {
      done = false;
    }
    if (done) {
      pending_takeover_[k] = pending_takeover_.back();
      pending_takeover_.pop_back();
    } else {
      ++k;
    }
  }
}

void Harness::poll_viewers() {
  const sim::Time now = dep_->scheduler().now();
  const double period_s = sim::to_sec(kMonitorPeriod);
  auto& clients = dep_->clients();
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const vod::VodClient& c = *clients[i]->client;
    Viewer& v = viewers_[i];
    if (!c.watching() || !v.in_session) continue;
    const vod::BufferCounters& k = c.counters();
    if (k.displayed < v.last_displayed) {  // counters reset underneath us
      v.last_displayed = v.last_skipped = v.last_late = 0;
    }
    if (window_open_) {
      tally_.viewer_s += period_s;
      tally_.displayed += k.displayed - v.last_displayed;
      tally_.skipped += k.skipped - v.last_skipped;
      tally_.late += k.late - v.last_late;
    }
    if (k.displayed > v.last_displayed) {
      v.last_progress = now;
    } else if (v.started && !c.at_end() &&
               now - v.last_progress > kFailBound) {
      fail(v);
    }
    v.last_displayed = k.displayed;
    v.last_skipped = k.skipped;
    v.last_late = k.late;
  }
}

void Harness::sample_rebalances() {
  for (auto& sn : dep_->servers()) {
    if (!sn->server || sn->server->halted()) continue;
    for (const std::string& title : sn->server->catalog().titles()) {
      const vod::RebalanceSnapshot* snap = sn->server->rebalance_snapshot(title);
      if (snap == nullptr || snap->exchange_tag == 0) continue;
      std::uint64_t& last = last_tag_[{sn->node, title}];
      if (last == snap->exchange_tag) continue;
      last = snap->exchange_tag;
      if (window_open_) {
        ++tally_.rebalance_samples;
        if (snap->authoritative) ++tally_.rebalance_authoritative;
      }
    }
  }
}

void Harness::apply(const ftvod::testing::ChaosEvent& e) {
  using Kind = ftvod::testing::ChaosEventKind;
  net::Network& network = dep_->network();
  const sim::Time now = dep_->scheduler().now();
  switch (e.kind) {
    case Kind::kCrash: {
      if (!network.alive(e.a)) break;
      if (vod::Deployment::ServerNode* sn = dep_->find_server(e.a);
          sn != nullptr && sn->server) {
        auto& clients = dep_->clients();
        for (std::size_t i = 0; i < clients.size(); ++i) {
          const vod::VodClient& c = *clients[i]->client;
          if (c.watching() && sn->server->serves(c.client_id())) {
            pending_takeover_.push_back({i, now, c.counters().received});
          }
        }
      }
      timed(SpanKind::kCrash, [&] { dep_->crash(e.a); });
      break;
    }
    case Kind::kRestart: {
      if (network.alive(e.a)) break;
      vod::Deployment::ServerNode* sn = dep_->find_server(e.a);
      if (sn == nullptr) break;
      if (sn->server) retired_.add_server(sn->server->stats());
      if (sn->daemon) retired_.add_daemon(*sn->daemon);
      timed(SpanKind::kRestart, [&] {
        dep_->restart_server(e.a);
        if (placement_ != nullptr) {
          placement_->handle_restart(e.a);
        } else {
          for (const auto& m : restart_titles_) sn->server->add_movie(m);
        }
      });
      break;
    }
    case Kind::kDegradeLink:
    case Kind::kCorruptLink:
      timed(SpanKind::kLinkFault,
            [&] { network.set_quality(e.a, e.b, e.quality); });
      break;
    case Kind::kRestoreLink:
      timed(SpanKind::kLinkFault, [&] { network.clear_quality(e.a, e.b); });
      break;
    default:
      // Partitions and daemon pauses are not part of any workload's plan.
      break;
  }
}

Counters Harness::counters() const {
  Counters c = retired_;
  c.events = dep_->scheduler().executed_events();
  const net::Network& network = dep_->network();
  for (std::size_t h = 0; h < network.host_count(); ++h) {
    const net::HostStats& s = network.stats(static_cast<net::NodeId>(h));
    c.datagrams_sent += s.datagrams_sent;
    c.datagrams_received += s.datagrams_received;
    c.wire_bytes += s.bytes_sent;
    c.drop_loss += s.dropped_loss - s.dropped_burst;
    c.drop_burst += s.dropped_burst;
    c.drop_queue += s.dropped_queue;
    c.drop_unreachable += s.dropped_unreachable;
    c.damaged += s.corrupted + s.truncated;
  }
  for (const auto& sn : dep_->servers()) {
    if (sn->server) c.add_server(sn->server->stats());
    if (sn->daemon) c.add_daemon(*sn->daemon);
  }
  for (const auto& gw : dep_->gateways()) c.add_daemon(*gw->daemon);
  for (const auto& cn : dep_->clients()) {
    const vod::ClientControlStats& s = cn->client->control_stats();
    c.flow_msgs += s.increases_sent + s.decreases_sent + s.emergencies_sent;
    c.open_retries += s.open_retries;
    c.vod_rejected += s.malformed_dropped;
    if (cn->daemon) c.add_daemon(*cn->daemon);
  }
  if (placement_ != nullptr) {
    c.placement_adds = placement_->stats().adds;
    c.placement_drops = placement_->stats().drops;
  }
  if (workload_ != nullptr) {
    c.arrivals = workload_->stats().arrivals;
    c.arrivals_rejected = workload_->stats().rejected;
  }
  if (monitor_ != nullptr) {
    c.monitor_checks = monitor_->checks_run();
    c.violations = monitor_->total_violations();
  }
  return c;
}

std::uint64_t Harness::digest() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const Counters c = counters();
  for (auto f : kCounterFields) mix(c.*f);
  mix(static_cast<std::uint64_t>(dep_->scheduler().now()));
  mix(dep_->scheduler().pending_events());
  for (const auto& cn : dep_->clients()) {
    const vod::BufferCounters& k = cn->client->counters();
    for (std::uint64_t v : {k.received, k.late, k.overflow_discards,
                            k.overflow_discarded_i_frames, k.skipped,
                            k.displayed, k.starvation_ticks}) {
      mix(v);
    }
  }
  for (sim::Duration d : tally_.startups) mix(static_cast<std::uint64_t>(d));
  for (sim::Duration d : tally_.takeovers) mix(static_cast<std::uint64_t>(d));
  for (std::uint64_t v :
       {tally_.sessions, tally_.failed, tally_.takeover_missing,
        tally_.displayed, tally_.skipped, tally_.late,
        tally_.rebalance_samples, tally_.rebalance_authoritative,
        static_cast<std::uint64_t>(tally_.viewer_s * 1000.0 + 0.5)}) {
    mix(v);
  }
  return h;
}

}  // namespace perfbench
