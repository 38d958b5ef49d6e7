// Microbenchmarks (google-benchmark): raw costs of the building blocks —
// codec, client-buffer operations, GCS ordering latency/throughput and view
// changes, and simulated-network packet processing. These quantify the
// "group communication greatly simplifies the service design" trade: the
// control plane must be cheap enough to be negligible next to the video.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "gcs/daemon.hpp"
#include "gcs/wire.hpp"
#include "mpeg/movie.hpp"
#include "net/network.hpp"
#include "vod/client_buffer.hpp"
#include "vod/redistribution.hpp"

using namespace ftvod;

// ---- codec -----------------------------------------------------------------

static void BM_CodecEncodeStateSyncLike(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    util::Writer w;
    w.str("vod.movie.feature");
    w.u32(static_cast<std::uint32_t>(n));
    for (std::size_t i = 0; i < n; ++i) {
      w.u64(i);
      w.u32(3);
      w.u16(9100);
      w.u64(123456 + i);
      w.f64(30.0);
      w.f64(0.0);
      w.f64(0.0);
      w.boolean(false);
    }
    benchmark::DoNotOptimize(w.buffer().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CodecEncodeStateSyncLike)->Arg(1)->Arg(16)->Arg(256);

static void BM_CodecDecodeOrdered(benchmark::State& state) {
  const util::Bytes payload(static_cast<std::size_t>(state.range(0)));
  gcs::wire::Ordered msg;
  msg.view = {7, 1};
  msg.gseq = 42;
  msg.sender = 3;
  msg.sender_seq = 99;
  msg.group = "vod.session.1234567";
  msg.origin = {3, 2};
  msg.payload = payload;
  const util::Bytes bytes = gcs::wire::encode(msg);
  for (auto _ : state) {
    auto decoded = gcs::wire::decode_ordered(bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_CodecDecodeOrdered)->Arg(32)->Arg(1024)->Arg(16384);

// ---- client buffer ----------------------------------------------------------

static void BM_ClientBufferInsertConsume(benchmark::State& state) {
  auto movie = mpeg::Movie::synthetic("bench", 600.0);
  vod::ClientBuffers buffers(37, 240 * 1024, movie->avg_frame_bytes());
  std::uint64_t next = 0;
  for (auto _ : state) {
    buffers.insert(movie->frame(next % movie->frame_count()));
    ++next;
    if (next % 2 == 0) benchmark::DoNotOptimize(buffers.consume());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClientBufferInsertConsume);

static void BM_ClientBufferOutOfOrderInsert(benchmark::State& state) {
  auto movie = mpeg::Movie::synthetic("bench", 600.0);
  vod::ClientBuffers buffers(37, 240 * 1024, movie->avg_frame_bytes());
  std::uint64_t next = 0;
  for (auto _ : state) {
    // Pairwise swapped arrival order exercises the re-ordering path.
    const std::uint64_t idx = (next % 2 == 0) ? next + 1 : next - 1;
    buffers.insert(movie->frame(idx % movie->frame_count()));
    ++next;
    if (next % 2 == 0) benchmark::DoNotOptimize(buffers.consume());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClientBufferOutOfOrderInsert);

// ---- redistribution ---------------------------------------------------------

static void BM_Rebalance(benchmark::State& state) {
  const auto n_clients = static_cast<std::uint64_t>(state.range(0));
  vod::Assignment current;
  for (std::uint64_t c = 0; c < n_clients; ++c) {
    current[c] = static_cast<net::NodeId>(c % 7);  // node 6 will be "dead"
  }
  const std::vector<net::NodeId> servers{0, 1, 2, 3, 4, 5};
  for (auto _ : state) {
    auto a = vod::rebalance(current, servers);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n_clients));
}
BENCHMARK(BM_Rebalance)->Arg(10)->Arg(100)->Arg(1000);

// ---- GCS end-to-end (inside the simulator) ----------------------------------

namespace {

struct GcsBench {
  sim::Scheduler sched;
  util::Rng rng{42};
  net::Network net{sched, rng};
  gcs::GcsConfig cfg;
  std::vector<std::unique_ptr<gcs::Daemon>> daemons;

  explicit GcsBench(int n) {
    net.set_default_quality(net::lan_quality());
    for (int i = 0; i < n; ++i) {
      cfg.peers.push_back(net.add_host("h" + std::to_string(i)));
    }
    for (int i = 0; i < n; ++i) {
      daemons.push_back(std::make_unique<gcs::Daemon>(
          sched, net, cfg.peers[i], cfg));
    }
    sched.run_for(sim::sec(3.0));
  }
};

}  // namespace

static void BM_GcsOrderedMulticast(benchmark::State& state) {
  GcsBench bench(static_cast<int>(state.range(0)));
  int received = 0;
  gcs::GroupCallbacks cbs{
      [&](const gcs::GcsEndpoint&, std::span<const std::byte>) {
        ++received;
      },
      nullptr};
  std::vector<std::unique_ptr<gcs::GroupMember>> members;
  for (auto& d : bench.daemons) {
    members.push_back(d->join("bench", gcs::GroupCallbacks{cbs}));
  }
  bench.sched.run_for(sim::sec(1.0));
  util::Bytes payload(64, std::byte{7});
  for (auto _ : state) {
    members[0]->send(payload);
    bench.sched.run_for(sim::msec(50));  // deliver everywhere
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["deliveries"] =
      benchmark::Counter(static_cast<double>(received));
}
BENCHMARK(BM_GcsOrderedMulticast)->Arg(2)->Arg(4)->Arg(8);

static void BM_GcsViewChangeAfterCrash(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    GcsBench bench(3);
    state.ResumeTiming();
    bench.net.crash_host(bench.cfg.peers[2]);
    // Run until the survivors converge on a 2-member view.
    while (bench.daemons[0]->view().members.size() != 2 ||
           bench.daemons[0]->blocked()) {
      bench.sched.run_for(sim::msec(10));
    }
    benchmark::DoNotOptimize(bench.daemons[0]->view());
  }
}
BENCHMARK(BM_GcsViewChangeAfterCrash)->Unit(benchmark::kMillisecond);

// ---- simulated network ------------------------------------------------------

static void BM_NetworkDatagramDelivery(benchmark::State& state) {
  sim::Scheduler sched;
  util::Rng rng(1);
  net::Network net(sched, rng);
  net.set_default_quality(net::lan_quality());
  const net::NodeId a = net.add_host("a");
  const net::NodeId b = net.add_host("b");
  auto sa = net.bind(a, 1, nullptr);
  int got = 0;
  auto sb = net.bind(
      b, 2, [&](const net::Endpoint&, std::span<const std::byte>) { ++got; });
  util::Bytes payload(32, std::byte{1});
  for (auto _ : state) {
    sa->send({b, 2}, payload, 5800);
    sched.run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkDatagramDelivery);

// Custom main instead of BENCHMARK_MAIN(): with FTVOD_BENCH_SMOKE set (the
// bench_smoke CTest target), cap per-benchmark measuring time so the whole
// binary finishes in well under two seconds. Numbers from a smoke run are
// not meaningful.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  char min_time[] = "--benchmark_min_time=0.01";
  const char* smoke = std::getenv("FTVOD_BENCH_SMOKE");
  if (smoke != nullptr && *smoke != '\0' && std::strcmp(smoke, "0") != 0) {
    args.push_back(min_time);
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
