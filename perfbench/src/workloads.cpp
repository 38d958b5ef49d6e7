#include "workloads.hpp"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "harness.hpp"
#include "mpeg/catalog_gen.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace testing = ftvod::testing;
namespace mpeg = ftvod::mpeg;
namespace workload = ftvod::workload;

/// Everything that distinguishes one workload from another.
struct Shape {
  int clients = 0;
  int servers = 0;
  int gateways = 0;
  std::size_t titles = 0;
  bool wan = false;
  /// Placement controller capacity model; 0 = no controller, every server
  /// holds every title.
  std::size_t viewers_per_replica = 0;
  /// Open-loop Poisson session arrivals; 0 = a fixed set of viewers that
  /// call watch() once, spread over `ramp_s`.
  double arrival_rate_per_s = 0.0;
  double mean_hold_s = 0.0;
  double ramp_s = 0.0;
  /// Warm-up after the ramp. With `flat_tolerance` > 0 it lasts at least
  /// this long and until events per simulated second are flat.
  double warmup_s = 0.0;
  double flat_tolerance = 0.0;
  double warmup_cap_s = 0.0;
  /// Window length: simulated seconds per requested host second, floored.
  /// With `episode_window_s` > 0 the run is instead a series of fresh
  /// deployments (episodes) with windows of that length, one episode per
  /// 1 / `episodes_per_host_s` requested host seconds, at least three.
  double window_per_host_s = 1.0;
  double min_window_s = 1.0;
  double episode_window_s = 0.0;
  double episodes_per_host_s = 0.0;
  bool chaos = false;
  bool flash_crowd = false;
};

Shape shape_of(const std::string& name, bool mini) {
  Shape s;
  if (name == "city_steady") {
    s.clients = mini ? 200 : 3000;
    s.servers = mini ? 3 : 8;
    s.gateways = std::max(2, s.clients / 400);
    s.titles = mini ? 24 : 200;
    s.viewers_per_replica = mini ? 20 : 250;
    s.ramp_s = mini ? 1.0 : 4.0;
    s.warmup_s = 10.0;
    s.flat_tolerance = 0.03;
    s.warmup_cap_s = 120.0;
    s.window_per_host_s = 2.3;
    s.min_window_s = mini ? 4.0 : 8.0;
  } else if (name == "session_churn") {
    s.clients = mini ? 100 : 1000;
    s.servers = mini ? 3 : 8;
    s.gateways = mini ? 1 : 2;
    s.titles = mini ? 24 : 200;
    s.viewers_per_replica = mini ? 10 : 100;
    s.arrival_rate_per_s = mini ? 4.0 : 40.0;
    s.mean_hold_s = 20.0;
    s.warmup_s = mini ? 20.0 : 60.0;
    s.window_per_host_s = 7.0;
    s.min_window_s = 40.0;  // holds the 30-s flash crowd
    s.flash_crowd = true;
  } else if (name == "wan_failover") {
    s.clients = mini ? 24 : 120;
    s.servers = 4;
    s.gateways = mini ? 1 : 2;
    s.titles = 3;
    s.wan = true;
    s.ramp_s = mini ? 1.0 : 4.0;
    s.warmup_s = mini ? 5.0 : 10.0;
    s.episode_window_s = mini ? 40.0 : 50.0;
    s.episodes_per_host_s = 1.0;
    s.chaos = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return s;
}

/// One constructed deployment with its controllers. Member order is
/// destruction order in reverse: the deployment outlives everything that
/// points into it.
struct Deploy {
  std::unique_ptr<vod::Deployment> dep;
  std::vector<net::NodeId> servers;
  std::vector<net::NodeId> gateways;
  std::unique_ptr<mpeg::GeneratedCatalog> catalog;
  /// Title rank each fixed viewer will watch (empty under churn).
  std::vector<std::size_t> ranks;
  std::unique_ptr<vod::PlacementController> placement;
  std::unique_ptr<workload::SessionWorkload> churn;
  std::unique_ptr<testing::InvariantMonitor> monitor;
};

constexpr std::size_t kReplicationFloor = 2;
constexpr std::size_t kBlocks = 5;

/// Builds the deployment up to the moment viewers may arrive: hosts,
/// daemons, servers, clients, catalog, initial placement, GCS converged.
Deploy construct(const Shape& sh, std::uint64_t seed, double total_sim_s) {
  Deploy d;
  d.dep = std::make_unique<vod::Deployment>(
      seed, sh.wan ? net::wan_quality() : net::lan_quality());
  vod::Deployment& dep = *d.dep;
  // Datacenter NICs for servers and gateways, as in the city-scale bench:
  // the 100 Mbps default would starve the control plane behind video.
  net::HostConfig core;
  core.uplink_bps = 10e9;
  core.downlink_bps = 10e9;
  core.queue_limit_bytes = 8u << 20;
  core.downlink_queue_bytes = 8u << 20;
  for (int i = 0; i < sh.servers; ++i) {
    d.servers.push_back(dep.add_host("server" + std::to_string(i), core));
  }
  for (int i = 0; i < sh.gateways; ++i) {
    d.gateways.push_back(dep.add_host("gw" + std::to_string(i), core));
  }
  std::vector<net::NodeId> edges;
  for (int i = 0; i < sh.clients; ++i) {
    edges.push_back(dep.add_edge_host("edge" + std::to_string(i)));
  }
  for (net::NodeId s : d.servers) dep.start_server(s);
  std::vector<vod::Deployment::GatewayNode*> gws;
  for (net::NodeId g : d.gateways) gws.push_back(&dep.start_gateway(g));
  for (std::size_t i = 0; i < edges.size(); ++i) {
    dep.start_client(edges[i], *gws[i % gws.size()]);
  }

  mpeg::CatalogSpec spec;
  spec.titles = sh.titles;
  // Nobody reaches the credits during the run.
  spec.min_duration_s = std::max(600.0, total_sim_s + 60.0);
  spec.max_duration_s = spec.min_duration_s + 300.0;
  d.catalog = std::make_unique<mpeg::GeneratedCatalog>(
      mpeg::GeneratedCatalog::generate(seed, spec));

  if (sh.viewers_per_replica > 0) {
    vod::PlacementConfig pcfg;
    pcfg.replication_floor = kReplicationFloor;
    pcfg.viewers_per_replica = sh.viewers_per_replica;
    d.placement = std::make_unique<vod::PlacementController>(dep, pcfg);
    for (const auto& e : d.catalog->entries()) d.placement->manage(e.movie);
  } else {
    for (auto& sn : dep.servers()) {
      for (const auto& e : d.catalog->entries()) sn->server->add_movie(e.movie);
    }
  }
  if (sh.arrival_rate_per_s == 0.0) {
    ftvod::util::Rng pick(seed ^ 0x9e3779b97f4a7c15ull);
    for (int i = 0; i < sh.clients; ++i) {
      d.ranks.push_back(d.catalog->sample_rank(pick.uniform()));
    }
    if (d.placement) {
      // Fixed viewers: the operator provisions for the known audience, so
      // replicas are in place before the first viewer arrives.
      std::map<std::string, std::size_t> planned;
      for (std::size_t rank : d.ranks) {
        ++planned[d.catalog->entry(rank).movie->name()];
      }
      d.placement->set_demand_source(
          [planned](std::map<std::string, std::size_t>& out) {
            out = planned;
          });
    }
  } else {
    workload::WorkloadConfig wcfg;
    wcfg.arrival_rate_per_s = sh.arrival_rate_per_s;
    wcfg.mean_hold_s = sh.mean_hold_s;
    wcfg.seed = seed;
    d.churn = std::make_unique<workload::SessionWorkload>(dep.scheduler(),
                                                          *d.catalog, wcfg);
    for (auto& cn : dep.clients()) d.churn->add_client(cn->client.get());
    if (d.placement) {
      d.placement->set_demand_source(
          [w = d.churn.get()](std::map<std::string, std::size_t>& out) {
            w->fill_demand(out);
          });
    }
  }
  dep.run_for(sim::sec(2.0));  // GCS convergence
  if (d.placement) {
    d.placement->tick_now();
    // Let placement converge (it moves one step per title per cooldown).
    for (int i = 0; i < 30 && d.placement->quiet_ticks() < 3; ++i) {
      dep.run_for(sim::sec(1.0));
      d.placement->tick_now();
    }
  }
  testing::InvariantOptions iopts;
  if (d.placement) iopts.replication_floor = kReplicationFloor;
  d.monitor = std::make_unique<testing::InvariantMonitor>(dep, iopts);
  return d;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile of durations, in milliseconds.
double percentile_ms(std::vector<sim::Duration> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (static_cast<double>(v[lo]) * (1.0 - frac) +
          static_cast<double>(v[hi]) * frac) /
         1e3;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Nominal seconds per host CPU second while the gauge read `a` before
/// and `b` after.
double nominal_scale(double a, double b) {
  return ratio(kNominalNsPerStep, 0.5 * (a + b));
}

/// Program CPU time between two gauge readings, at least.
constexpr double kGaugeEveryCpuS = 0.25;

/// CPU time of a stretch of the run in nominal seconds. The stretch is cut
/// at the first tick() after each kGaugeEveryCpuS of CPU time, and each
/// piece is scaled by the gauge readings before and after it; the readings
/// themselves are not counted.
class NominalTimer {
 public:
  NominalTimer(HostGauge& gauge, double reading)
      : gauge_(&gauge), last_(reading), mark_(cpu_now()) {}
  void tick() {
    if (cpu_now() - mark_ >= kGaugeEveryCpuS) read();
  }
  /// Ends the stretch; returns the last gauge reading.
  double finish() {
    read();
    return last_;
  }
  [[nodiscard]] double nominal_s() const { return nominal_; }
  [[nodiscard]] double cpu_s() const { return cpu_; }

 private:
  void read() {
    const double cpu = cpu_now() - mark_;
    const double g = gauge_->read();
    nominal_ += cpu * nominal_scale(last_, g);
    cpu_ += cpu;
    last_ = g;
    mark_ = cpu_now();
  }

  HostGauge* gauge_;
  double last_;
  double mark_;
  double nominal_ = 0.0;
  double cpu_ = 0.0;
};

double max_deviation(const std::vector<std::uint64_t>& v, double center) {
  double dev = 0.0;
  for (std::uint64_t x : v) {
    dev = std::max(dev, std::abs(static_cast<double>(x) - center) / center);
  }
  return dev;
}

/// Resident memory of the process now, in MB.
double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// An episode's faults: a crash every 10 s from 2 s into the window and a
/// corrupt-link flap every 10 s from 7 s, the last ones 10 s before the
/// window ends. The seed picks targets and jitters downtimes and flap
/// lengths; the number and times of faults are the same in every episode,
/// so episodes of different seeds do comparable work.
testing::ChaosPlan fault_plan(std::uint64_t seed, sim::Time window_t0,
                              sim::Time window_t1,
                              const std::vector<net::NodeId>& servers,
                              const std::vector<net::NodeId>& gateways) {
  testing::ChaosOptions copts;
  copts.start = window_t0 + sim::sec(2.0);
  copts.end = window_t1 - sim::sec(10.0);
  copts.mean_gap = 1;  // every gap is min_gap
  copts.min_gap = sim::sec(10.0);
  copts.weight_crash = 1.0;
  copts.weight_corrupt = 0.0;
  copts.weight_partition = 0.0;
  copts.weight_degrade = 0.0;
  copts.weight_pause = 0.0;
  copts.min_live_servers = 2;
  std::vector<testing::ChaosEvent> events =
      testing::ChaosPlan::generate(seed, copts, servers, gateways).events();
  copts.start += sim::sec(5.0);
  copts.weight_crash = 0.0;
  copts.weight_corrupt = 1.0;
  const testing::ChaosPlan corrupt = testing::ChaosPlan::generate(
      seed ^ 0xc0ffee5eedull, copts, servers, gateways);
  events.insert(events.end(), corrupt.events().begin(),
                corrupt.events().end());
  return testing::ChaosPlan::from_events(std::move(events));
}

/// What one episode measured: window deltas and the harness' tallies.
struct Episode {
  Counters delta;  // window
  Tally tally;
  std::vector<Slice> slices;
  std::uint64_t open_retries = 0;  // whole episode
  std::uint64_t violations = 0;    // after set-up
  std::uint64_t rejected = 0;      // whole episode
  std::uint64_t pending_events = 0;
  std::array<std::uint64_t, kSpanNames.size()> span_count{};  // window
  std::array<double, kSpanNames.size()> span_cpu{};           // window
  std::uint64_t digest = 0;
  double build_cpu = 0.0;
  double warm_cpu = 0.0;
  double build_s = 0.0;  // nominal (host gauge)
  double warm_s = 0.0;   // nominal
  double warmed_s = 0.0;
  bool settled = true;
  std::uint64_t crashes = 0;
  double peak_rss_mb = 0.0;  // sampled after every window slice
  std::vector<double> gauge;  // readings in the window, ns per step
  std::vector<Span> spans;
};

Episode run_episode(const Shape& sh, std::uint64_t seed, double window_s,
                    const RunOptions& opt, Sampler* sampler,
                    HostGauge& gauge, std::size_t& slice_counter) {
  Episode ep;
  const double total_sim_s =
      2.0 + sh.ramp_s +
      (sh.flat_tolerance > 0.0 ? sh.warmup_cap_s : sh.warmup_s) + window_s;
  const double gauge_build = gauge.read();
  const double build0 = cpu_now();
  Deploy d = construct(sh, seed, total_sim_s);
  const double build1 = cpu_now();
  const double gauge_warm = gauge.read();
  ep.build_cpu = build1 - build0;
  ep.build_s = ep.build_cpu * nominal_scale(gauge_build, gauge_warm);

  Harness h(*d.dep, opt.trace);
  h.note_span(SpanKind::kSetup, build0, build1);
  h.set_monitor(d.monitor.get());
  h.set_placement(d.placement.get());
  h.set_workload(d.churn.get());
  h.set_sampler(sampler);

  // ---- ramp and warm-up ----------------------------------------------
  NominalTimer warm(gauge, gauge_warm);
  const auto warm_advance = [&](sim::Duration left) {
    for (; left > 0; left -= sim::sec(1.0)) {
      h.advance(std::min(left, sim::sec(1.0)));
      warm.tick();
    }
  };
  const sim::Time t0 = d.dep->scheduler().now();
  if (d.churn) {
    d.churn->start();
  } else {
    // Viewer i presses play at a random instant of the i-th slot of the
    // ramp, so arrivals are spread evenly but not in lockstep.
    ftvod::util::Rng when(seed ^ 0x5851f42d4c957f2dull);
    const double slot_us = static_cast<double>(sim::sec(sh.ramp_s)) /
                           static_cast<double>(std::max(sh.clients, 1));
    for (std::size_t i = 0; i < d.ranks.size(); ++i) {
      const auto at = static_cast<sim::Duration>(
          slot_us * (static_cast<double>(i) + when.uniform()));
      h.schedule_watch(t0 + 1 + at, i,
                       d.catalog->entry(d.ranks[i]).movie->name());
    }
  }
  // The window start is known in advance except for the flat-start
  // workload, which has neither faults nor a flash crowd.
  const sim::Time window_t0 = t0 + sim::sec(sh.ramp_s) + sim::sec(sh.warmup_s);
  const sim::Time window_t1 = window_t0 + sim::sec(window_s);
  if (sh.flash_crowd) {
    h.schedule_flash_crowd(window_t0 + sim::sec(0.2 * window_s), 20, 0.3,
                           sim::sec(30.0));
  }
  if (sh.chaos) {
    const testing::ChaosPlan plan =
        fault_plan(seed, window_t0, window_t1, d.servers, d.gateways);
    std::vector<std::shared_ptr<const mpeg::Movie>> titles;
    for (const auto& e : d.catalog->entries()) titles.push_back(e.movie);
    for (const auto& e : plan.events()) {
      ep.crashes += e.kind == testing::ChaosEventKind::kCrash ? 1 : 0;
    }
    h.set_chaos(plan.events(), std::move(titles));
  }
  warm_advance(sim::sec(sh.ramp_s));
  if (sh.flat_tolerance > 0.0) {
    // Warm up in one-second slices until the last three agree within a
    // third of the window tolerance (deterministic: event counts only).
    std::vector<std::uint64_t> recent;
    ep.settled = false;
    while (!opt.skip_warmup && ep.warmed_s < sh.warmup_cap_s) {
      recent.push_back(h.measure_slice(sim::sec(1.0), false).events);
      warm.tick();
      ep.warmed_s += 1.0;
      if (recent.size() > 3) recent.erase(recent.begin());
      if (ep.warmed_s >= sh.warmup_s && recent.size() == 3) {
        const double mean =
            static_cast<double>(recent[0] + recent[1] + recent[2]) / 3.0;
        if (max_deviation(recent, mean) <= sh.flat_tolerance / 3.0) {
          ep.settled = true;
          break;
        }
      }
    }
  } else {
    warm_advance(window_t0 - d.dep->scheduler().now());
    ep.warmed_s = sh.warmup_s;
  }
  double gauge_prev = warm.finish();
  ep.warm_cpu = warm.cpu_s();
  ep.warm_s = warm.nominal_s();

  // ---- measured window -------------------------------------------------
  const Counters c0 = h.counters();
  const auto spans0 = h.span_counts();
  const auto span_cpu0 = h.span_cpu();
  h.open_window();
  // Slices since the last gauge reading are scaled by the mean of the
  // readings before and after them.
  std::size_t unscaled = 0;
  double cpu_since_gauge = 0.0;
  const int slices = static_cast<int>(window_s);
  for (int k = 0; k < slices; ++k) {
    // Traced runs sample every other slice; the unsampled ones give the
    // tracing overhead from the same run.
    const bool sampled = sampler != nullptr && slice_counter++ % 2 == 1;
    ep.slices.push_back(h.measure_slice(sim::sec(1.0), sampled));
    ep.peak_rss_mb = std::max(ep.peak_rss_mb, rss_mb());
    cpu_since_gauge += ep.slices.back().cpu_s;
    if (cpu_since_gauge >= kGaugeEveryCpuS || k + 1 == slices) {
      const double g = gauge.read();
      const double scale = nominal_scale(gauge_prev, g);
      for (; unscaled < ep.slices.size(); ++unscaled) {
        ep.slices[unscaled].scale = scale;
      }
      ep.gauge.push_back(g);
      gauge_prev = g;
      cpu_since_gauge = 0.0;
    }
  }
  h.close_window();
  const Counters c1 = h.counters();

  ep.delta = c1 - c0;
  ep.tally = h.tally();
  ep.open_retries = c1.open_retries;
  ep.violations = c1.violations;
  ep.rejected = c1.arrivals_rejected;
  ep.pending_events = d.dep->scheduler().pending_events();
  for (std::size_t i = 0; i < kSpanNames.size(); ++i) {
    ep.span_count[i] = h.span_counts()[i] - spans0[i];
    ep.span_cpu[i] = h.span_cpu()[i] - span_cpu0[i];
  }
  ep.digest = h.digest();
  if (opt.trace) ep.spans = h.spans();
  return ep;
}

void write_spans(const std::string& path, const std::vector<Episode>& eps) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "episode,span,sim_us,cpu_begin_s,cpu_end_s\n");
  for (std::size_t e = 0; e < eps.size(); ++e) {
    for (const Span& s : eps[e].spans) {
      std::fprintf(f, "%zu,%s,%lld,%.9f,%.9f\n", e,
                   kSpanNames[static_cast<std::size_t>(s.kind)],
                   static_cast<long long>(s.sim_at), s.cpu_begin, s.cpu_end);
    }
  }
  std::fclose(f);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "city_steady", "session_churn", "wan_failover"};
  return names;
}

Result run_workload(const RunOptions& opt) {
  const Shape sh = shape_of(opt.workload, opt.mini);
  const bool episodic = sh.episode_window_s > 0.0;
  const double window_s =
      episodic ? sh.episode_window_s
      : opt.mini
          ? sh.min_window_s
          : std::max(sh.min_window_s,
                     std::round(opt.seconds * sh.window_per_host_s));
  std::size_t episodes = 1;
  if (episodic) {
    episodes = opt.mini ? 3
                        : std::clamp<std::size_t>(
                              static_cast<std::size_t>(std::lround(
                                  opt.seconds * sh.episodes_per_host_s)),
                              3, 999);
  }

  std::unique_ptr<Sampler> sampler;
  if (opt.trace) sampler = std::make_unique<Sampler>(4000);  // 250 per CPU s
  HostGauge gauge;
  std::size_t slice_counter = 0;
  std::vector<Episode> eps;
  std::vector<double> rss;
  for (std::size_t e = 0; e < episodes; ++e) {
    // Episodes of one run get distinct, reproducible seeds.
    const std::uint64_t seed = episodic ? opt.seed * 1000 + e : opt.seed;
    eps.push_back(
        run_episode(sh, seed, window_s, opt, sampler.get(), gauge,
                    slice_counter));
    rss.push_back(eps.back().peak_rss_mb);
    malloc_trim(0);  // the next episode's resident set starts afresh
  }

  Result r;
  r.workload = opt.workload;
  r.seed = opt.seed;
  auto metric = [](std::vector<Metric>& to, std::string name, double v,
                   std::string unit) {
    to.push_back({std::move(name), std::isfinite(v) ? v : 0.0,
                  std::move(unit)});
  };
  auto e2e = [&](std::string n, double v, std::string u) {
    metric(r.end_to_end, std::move(n), v, std::move(u));
  };
  auto layer = [&](std::string n, double v, std::string u) {
    metric(r.per_layer, std::move(n), v, std::move(u));
  };
  auto info = [&](std::string n, double v, std::string u) {
    metric(r.info, std::move(n), v, std::move(u));
  };

  // ---- pooled tallies ----------------------------------------------------
  Counters delta;
  Tally t;
  std::vector<Slice> slices;
  std::uint64_t open_retries = 0, violations = 0, rejected = 0;
  std::uint64_t pending = 0, crashes = 0;
  std::array<std::uint64_t, kSpanNames.size()> span_count{};
  std::array<double, kSpanNames.size()> span_cpu{};
  std::uint64_t digest = 1469598103934665603ull;
  bool settled = true;
  for (const Episode& ep : eps) {
    delta += ep.delta;
    t += ep.tally;
    slices.insert(slices.end(), ep.slices.begin(), ep.slices.end());
    open_retries += ep.open_retries;
    violations += ep.violations;
    rejected += ep.rejected;
    pending += ep.pending_events;
    crashes += ep.crashes;
    for (std::size_t i = 0; i < kSpanNames.size(); ++i) {
      span_count[i] += ep.span_count[i];
      span_cpu[i] += ep.span_cpu[i];
    }
    digest = (digest ^ ep.digest) * 1099511628211ull;
    settled = settled && ep.settled;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  r.digest = hex;
  r.attempted = t.sessions;
  r.failed = t.failed;

  // ---- host-time rates ---------------------------------------------------
  // Host times are in nominal seconds: CPU time scaled by the host gauge
  // readings around it, which takes out most of the host's drift between
  // fast and slow states. Simulated seconds per host second is taken over
  // whole blocks (an episode, or a fifth of a single window) and the median
  // block is reported, so one block hit by host noise does not move the
  // result.
  std::vector<std::pair<std::size_t, std::size_t>> block_ranges;
  if (episodic) {
    std::size_t at = 0;
    for (const Episode& ep : eps) {
      block_ranges.emplace_back(at, at + ep.slices.size());
      at += ep.slices.size();
    }
  } else {
    const std::size_t n = std::min(kBlocks, slices.size());
    for (std::size_t b = 0; b < n; ++b) {
      block_ranges.emplace_back(b * slices.size() / n,
                                (b + 1) * slices.size() / n);
    }
  }
  std::vector<double> block_speed;
  std::vector<double> block_speed_cpu;
  for (const auto& [lo, hi] : block_ranges) {
    double nominal = 0.0;
    double cpu = 0.0;
    for (std::size_t k = lo; k < hi; ++k) {
      nominal += slices[k].cpu_s * slices[k].scale;
      cpu += slices[k].cpu_s;
    }
    block_speed.push_back(ratio(static_cast<double>(hi - lo), nominal));
    block_speed_cpu.push_back(ratio(static_cast<double>(hi - lo), cpu));
  }
  const double sim_speed = median(block_speed);
  std::vector<double> gauge_readings;
  for (const Episode& ep : eps) {
    gauge_readings.insert(gauge_readings.end(), ep.gauge.begin(),
                          ep.gauge.end());
  }
  std::vector<double> cpu_plain;
  std::vector<double> cpu_sampled;
  std::vector<double> ns_per_event;
  std::vector<std::uint64_t> events;
  double window_cpu = 0.0;
  for (const Slice& s : slices) {
    (s.sampled ? cpu_sampled : cpu_plain).push_back(s.cpu_s);
    if (!s.sampled) {
      ns_per_event.push_back(
          ratio(s.run_cpu_s * 1e9, static_cast<double>(s.events)));
    }
    events.push_back(s.events);
    window_cpu += s.cpu_s;
  }

  // ---- correctness checks ------------------------------------------------
  const double events_median =
      median(std::vector<double>(events.begin(), events.end()));
  const double flatness = max_deviation(events, events_median);
  if (sh.flat_tolerance > 0.0) {
    r.checks.emplace_back("warmup_settled", settled);
    r.checks.emplace_back("window_flat", flatness <= sh.flat_tolerance);
  }
  r.checks.emplace_back("workload_rejected_zero", rejected == 0);
  r.checks.emplace_back("frames_displayed", t.displayed > 0);
  r.checks.emplace_back("sessions_started", !t.startups.empty());

  // ---- end-to-end --------------------------------------------------------
  std::vector<double> setup;
  std::vector<double> setup_cpu;
  if (episodic) {
    for (const Episode& ep : eps) {
      setup.push_back(ep.build_s + ep.warm_s);
      setup_cpu.push_back(ep.build_cpu + ep.warm_cpu);
    }
  } else {
    // Construction is repeated so its part is a median of three.
    setup.push_back(eps[0].build_s);
    setup_cpu.push_back(eps[0].build_cpu);
    while (setup.size() < 3) {
      const double g0 = gauge.read();
      const double b0 = cpu_now();
      const Deploy again = construct(sh, opt.seed, 0.0);
      const double b1 = cpu_now();
      setup.push_back((b1 - b0) * nominal_scale(g0, gauge.read()));
      setup_cpu.push_back(b1 - b0);
    }
    setup.assign(1, median(setup) + eps[0].warm_s);
    setup_cpu.assign(1, median(setup_cpu) + eps[0].warm_cpu);
  }
  const double viewer_min = t.viewer_s / 60.0;
  const double frames_sent = static_cast<double>(delta.frames_sent);
  const double dgrams = static_cast<double>(delta.datagrams_sent);
  const double ordered = static_cast<double>(delta.ordered);
  const auto per_kdgram = [&](std::uint64_t n) {
    return ratio(1e3 * static_cast<double>(n), dgrams);
  };
  const auto per_client_s = [&](std::uint64_t n) {
    return ratio(static_cast<double>(n), t.viewer_s);
  };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };

  e2e("setup_s", median(setup), "s");
  e2e("sim_speed", sim_speed, "sim_s/s");
  // Frames displayed per simulated second of window, on the same host-time
  // basis as sim_speed.
  e2e("frames_per_s",
      ratio(count(t.displayed), count(slices.size())) * sim_speed, "1/s");
  e2e("peak_rss_mb", median(rss), "MB");
  e2e("startup_p50_ms", percentile_ms(t.startups, 50), "ms");
  e2e("served_ratio", 1.0 - ratio(count(t.failed), count(t.sessions)), "ratio");

  // ---- simulated service quality (zero or undefined on some workloads) --
  layer("startup_p90_ms", percentile_ms(t.startups, 90), "ms");
  layer("startup_p99_ms", percentile_ms(t.startups, 99), "ms");
  layer("takeover_p50_ms", percentile_ms(t.takeovers, 50), "ms");
  layer("takeover_p90_ms", percentile_ms(t.takeovers, 90), "ms");
  layer("skipped_per_min", ratio(count(t.skipped), viewer_min), "1/min");
  layer("fail_ratio", ratio(count(t.failed), count(t.sessions)), "ratio");
  layer("violations", count(violations), "count");

  // ---- per layer -----------------------------------------------------------
  layer("sim.events_per_client_s", per_client_s(delta.events), "1/s");
  layer("sim.ns_per_event", median(ns_per_event), "ns");
  layer("sim.pending_events", ratio(count(pending), count(eps.size())),
        "count");
  layer("net.datagrams_per_client_s", per_client_s(delta.datagrams_sent),
        "1/s");
  layer("net.wire_bytes_per_client_s", per_client_s(delta.wire_bytes), "B/s");
  layer("net.delivered_ratio", ratio(count(delta.datagrams_received), dgrams),
        "ratio");
  layer("net.drop_per_kdgram.loss", per_kdgram(delta.drop_loss), "1/kdgram");
  layer("net.drop_per_kdgram.burst", per_kdgram(delta.drop_burst), "1/kdgram");
  layer("net.drop_per_kdgram.queue", per_kdgram(delta.drop_queue), "1/kdgram");
  layer("net.drop_per_kdgram.unreachable", per_kdgram(delta.drop_unreachable),
        "1/kdgram");
  layer("net.damaged_per_kdgram", per_kdgram(delta.damaged), "1/kdgram");
  layer("gcs.ordered_per_client_s", per_client_s(delta.ordered), "1/s");
  layer("gcs.deliveries_per_ordered", ratio(count(delta.delivered), ordered),
        "ratio");
  layer("gcs.retrans_per_ordered",
        ratio(count(delta.retransmissions), ordered), "ratio");
  layer("gcs.view_changes", count(delta.view_changes), "count");
  layer("gcs.rejected", count(delta.gcs_rejected), "count");
  layer("gcs.control_bytes_per_client_s", per_client_s(delta.control_bytes),
        "B/s");
  layer("vod.frames_per_client_s", per_client_s(delta.frames_sent), "1/s");
  layer("vod.syncs_per_client_s", per_client_s(delta.syncs), "1/s");
  layer("vod.flow_msgs_per_client_s", per_client_s(delta.flow_msgs), "1/s");
  layer("vod.open_retries_per_session",
        ratio(count(open_retries), count(t.sessions)), "ratio");
  layer("vod.takeovers", count(delta.takeovers), "count");
  layer("vod.migrations", count(delta.migrations), "count");
  layer("vod.rebalances", count(delta.rebalances), "count");
  layer("vod.authoritative_ratio", ratio(count(t.rebalance_authoritative), count(t.rebalance_samples)),
        "ratio");
  layer("vod.late_per_min", ratio(count(t.late), viewer_min), "1/min");
  layer("vod.rejected", count(delta.vod_rejected), "count");
  auto span_ms = [&](SpanKind k) {
    const auto i = static_cast<std::size_t>(k);
    return ratio(span_cpu[i] * 1e3, count(span_count[i]));
  };
  layer("placement.tick_ms", span_ms(SpanKind::kPlacementTick), "ms");
  layer("placement.adds", count(delta.placement_adds), "count");
  layer("placement.drops", count(delta.placement_drops), "count");
  layer("workload.arrivals", count(delta.arrivals), "count");
  layer("workload.rejected", count(rejected), "count");
  layer("monitor.check_ms", span_ms(SpanKind::kMonitorCheck), "ms");
  layer("monitor.checks", count(delta.monitor_checks), "count");
  layer("alloc.per_frame", ratio(count(t.run_allocs), frames_sent), "ratio");
  layer("alloc.per_event", ratio(count(t.run_allocs), count(delta.events)),
        "ratio");
  if (sampler) {
    const auto counts = sampler->classify();
    double total = 0.0;
    for (std::uint64_t c : counts) total += static_cast<double>(c);
    for (std::size_t i = 0; i < kLayers.size(); ++i) {
      layer("self." + std::string(kLayers[i]),
            ratio(static_cast<double>(counts[i]), total), "share");
    }
    layer("trace.samples", total, "count");
    layer("trace.overhead_pct",
          (ratio(median(cpu_sampled), median(cpu_plain)) - 1.0) * 100.0, "%");
    sampler.reset();
    if (!opt.span_file.empty()) write_spans(opt.span_file, eps);
  }

  info("episodes", count(eps.size()), "count");
  info("window_sim_s", window_s * static_cast<double>(eps.size()), "s");
  info("window_cpu_s", window_cpu, "s");
  info("gauge_ns_per_step", median(gauge_readings), "ns");
  info("gauge_readings", count(gauge_readings.size()), "count");
  info("setup_cpu_s", median(setup_cpu), "s");
  info("sim_speed_cpu", median(block_speed_cpu), "sim_s/s");
  info("warmup_sim_s", eps[0].warmed_s, "s");
  info("window_flatness", flatness, "ratio");
  info("sim_speed_whole_window",
       ratio(static_cast<double>(slices.size()), window_cpu), "sim_s/s");
  info("sessions", count(t.sessions), "count");
  info("startup_samples", count(t.startups.size()), "count");
  info("takeover_samples", count(t.takeovers.size()), "count");
  info("takeover_missing", count(t.takeover_missing), "count");
  info("chaos_crashes", count(crashes), "count");
  info("viewer_s", t.viewer_s, "s");
  return r;
}

}  // namespace perfbench
