// Tier-1 scale regression guard. A ~500-client city slice — Zipf catalog,
// two gateway daemons fanning out to edge hosts, demand-driven placement,
// Poisson churn on part of the pool — runs for a few simulated seconds and
// the test fails if the per-frame allocation count or the per-client event
// rate regresses past the committed thresholds. This is the cheap canary
// for the full 10k-client macro run in bench/city_scale.cpp: an O(clients)
// periodic scan or a new per-frame allocation sneaks in, this trips in the
// default ctest tier rather than in a benchmark nobody re-runs.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "mpeg/catalog_gen.hpp"
#include "util/rng.hpp"
#include "vod/placement.hpp"
#include "vod/service.hpp"
#include "workload/session_workload.hpp"

// Counting allocator, same contract as scheduler_slab_test: under ASan the
// global allocator belongs to the sanitizer, so the hooks compile out and
// the allocation assertions are skipped (throughput assertions still run).
#if defined(__SANITIZE_ADDRESS__)
#define FTVOD_COUNTING_ALLOC 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FTVOD_COUNTING_ALLOC 0
#endif
#endif
#ifndef FTVOD_COUNTING_ALLOC
#define FTVOD_COUNTING_ALLOC 1
#endif

namespace {
std::uint64_t g_allocs = 0;
constexpr bool kCountingAlloc = FTVOD_COUNTING_ALLOC != 0;
}  // namespace

#if FTVOD_COUNTING_ALLOC
void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  ++g_allocs;
  const auto align = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // FTVOD_COUNTING_ALLOC

namespace ftvod::vod {
namespace {

// Committed regression thresholds. Measured steady state (RelWithDebInfo, 500
// clients, ~430 watching): 4.0 allocs/frame and 158.5 events/(client*sim-s).
// The frame path itself — send timer, encode, network hand-off and the client's
// buffer insert/display — is proven allocation-free by scheduler_slab_test, so
// the allocations counted here are session churn and control-plane bookkeeping.
// The event rate is fully deterministic (same seed, same count), so its
// headroom is pure regression budget; the allocation headroom additionally
// absorbs stdlib drift. An O(clients) periodic scan or a per-event allocation
// blows past either bound immediately.
constexpr double kMaxAllocsPerFrame = 6.0;
constexpr double kMaxEventsPerClientSimSecond = 200.0;

TEST(ScaleSmoke, FiveHundredClientsStayWithinPerFrameBudgets) {
  constexpr int kServers = 4;
  constexpr int kGateways = 2;
  constexpr int kClients = 500;
  constexpr int kChurnPool = 150;  // tail of the pool churns via Poisson
  constexpr double kMeasureSimSeconds = 4.0;

  const auto wall0 = std::chrono::steady_clock::now();
  Deployment dep(20260808);
  std::vector<net::NodeId> server_nodes;
  for (int i = 0; i < kServers; ++i) {
    server_nodes.push_back(dep.add_host("server" + std::to_string(i)));
  }
  std::vector<net::NodeId> gw_nodes;
  for (int i = 0; i < kGateways; ++i) {
    gw_nodes.push_back(dep.add_host("gw" + std::to_string(i)));
  }
  std::vector<net::NodeId> edge_nodes;
  for (int i = 0; i < kClients; ++i) {
    edge_nodes.push_back(dep.add_edge_host("edge" + std::to_string(i)));
  }
  for (net::NodeId s : server_nodes) dep.start_server(s);
  std::vector<Deployment::GatewayNode*> gws;
  for (net::NodeId g : gw_nodes) gws.push_back(&dep.start_gateway(g));
  for (int i = 0; i < kClients; ++i) {
    dep.start_client(edge_nodes[i], *gws[i % kGateways]);
  }

  mpeg::CatalogSpec cspec;
  cspec.titles = 40;
  cspec.min_duration_s = 300.0;
  cspec.max_duration_s = 600.0;
  const auto catalog = mpeg::GeneratedCatalog::generate(1, cspec);

  PlacementConfig pcfg;
  pcfg.replication_floor = 2;
  pcfg.viewers_per_replica = 50;
  PlacementController controller(dep, pcfg);
  for (const auto& e : catalog.entries()) controller.manage(e.movie);

  dep.run_for(sim::sec(2.0));  // GCS convergence
  controller.tick_now();
  controller.start();

  // The bulk of the pool watches steadily (ranks drawn from the catalog's
  // own law); the tail churns through the Poisson driver. Watches are
  // staggered so session-open traffic ramps rather than detonates.
  util::Rng pick(99);
  for (int i = 0; i < kClients - kChurnPool; ++i) {
    const std::size_t rank = catalog.sample_rank(pick.uniform());
    VodClient* c = dep.clients()[static_cast<std::size_t>(i)]->client.get();
    dep.scheduler().at(
        dep.scheduler().now() + static_cast<sim::Duration>(i) * 10'000,
        [c, &catalog, rank] { c->watch(catalog.entry(rank).movie->name()); });
  }
  workload::WorkloadConfig wcfg;
  wcfg.arrival_rate_per_s = 20.0;
  wcfg.mean_hold_s = 5.0;
  workload::SessionWorkload churn(dep.scheduler(), catalog, wcfg);
  for (int i = kClients - kChurnPool; i < kClients; ++i) {
    churn.add_client(dep.clients()[static_cast<std::size_t>(i)]->client.get());
  }
  churn.start();

  dep.run_for(sim::sec(8.0));  // opens complete, buffers fill, rates settle

  std::size_t watching = 0;
  for (auto& cn : dep.clients()) {
    if (cn->client->watching()) ++watching;
  }
  ASSERT_GT(watching, 350u) << "steady state never formed";

  auto frames_sent = [&] {
    std::uint64_t sum = 0;
    for (auto& sn : dep.servers()) {
      if (sn->server) sum += sn->server->stats().frames_sent;
    }
    return sum;
  };

  const std::uint64_t allocs0 = g_allocs;
  const std::uint64_t events0 = dep.scheduler().executed_events();
  const std::uint64_t frames0 = frames_sent();
  dep.run_for(sim::sec(kMeasureSimSeconds));
  const std::uint64_t allocs = g_allocs - allocs0;
  const std::uint64_t events = dep.scheduler().executed_events() - events0;
  const std::uint64_t frames = frames_sent() - frames0;

  ASSERT_GT(frames, 10'000u);  // ~440 clients x 30 fps x 4 s
  const double allocs_per_frame =
      static_cast<double>(allocs) / static_cast<double>(frames);
  const double events_per_client_s =
      static_cast<double>(events) /
      (static_cast<double>(kClients) * kMeasureSimSeconds);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall0)
                            .count();

  RecordProperty("watching", static_cast<int>(watching));
  RecordProperty("frames", static_cast<int>(frames));
  RecordProperty("events", static_cast<int>(events));
  std::printf(
      "[scale_smoke] watching=%zu frames=%llu events=%llu "
      "allocs/frame=%.3f events/(client*sim-s)=%.1f wall=%.1fs\n",
      watching, static_cast<unsigned long long>(frames),
      static_cast<unsigned long long>(events), allocs_per_frame,
      events_per_client_s, wall_s);

  if (kCountingAlloc) {
    EXPECT_LT(allocs_per_frame, kMaxAllocsPerFrame)
        << "per-frame allocation regression (steady state must stay on the "
           "slabs/pools)";
  }
  EXPECT_LT(events_per_client_s, kMaxEventsPerClientSimSecond)
      << "per-client event-rate regression (an O(clients) or O(titles) "
         "periodic scan crept into the hot path?)";
  // Generous wall cap below the CTest TIMEOUT: catches runaway slowness
  // with a readable message before ctest kills the binary.
  EXPECT_LT(wall_s, 90.0);
}

}  // namespace
}  // namespace ftvod::vod
