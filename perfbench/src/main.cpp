// ftvod benchmark binary.
//
//   ftvod_perfbench --workload <city_steady|session_churn|wan_failover|all>
//                   --seed <n> [--seconds <host s>] [--trace 0|1]
//                   [--scale full|mini] [--spans <file>]
//                   [--skip-warmup 0|1]
//
// Prints one JSON object per workload on its own line: the simulated-state
// digest, correctness checks, sessions attempted and failed, and every
// metric with its unit. Exits 1 when a check fails. perfbench/run.py wraps
// this for single-workload runs; perfbench/selftest.py runs it at the
// miniature scale.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>
#include <string>

#include "alloc_count.hpp"
#include "workloads.hpp"

// Counting replacement of the global allocator (alloc.* metrics). Under
// AddressSanitizer the sanitizer owns the allocator and the count reads 0.
#if defined(__SANITIZE_ADDRESS__)
#define PERFBENCH_COUNTING_ALLOC 0
#else
#define PERFBENCH_COUNTING_ALLOC 1
#endif

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

std::uint64_t perfbench::alloc_count() { return g_allocs; }

#if PERFBENCH_COUNTING_ALLOC
// Every operator new below allocates with malloc or aligned_alloc, so free
// is the matching release; GCC cannot see that across the replacements.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
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
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p);
}
#endif

namespace {

void print_metrics(const std::vector<perfbench::Metric>& ms) {
  std::printf("{");
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}");
}

void print_result(const perfbench::Result& r) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"digest\": \"%s\", ",
              r.workload.c_str(), static_cast<unsigned long long>(r.seed),
              r.digest.c_str());
  std::printf("\"checks\": {");
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    std::printf("%s\"%s\": %s", i ? ", " : "", r.checks[i].first.c_str(),
                r.checks[i].second ? "true" : "false");
  }
  std::printf("}, \"attempted\": %llu, \"failed\": %llu",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf(", \"end_to_end\": ");
  print_metrics(r.end_to_end);
  std::printf(", \"per_layer\": ");
  print_metrics(r.per_layer);
  std::printf(", \"info\": ");
  print_metrics(r.info);
  std::printf("}\n");
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: ftvod_perfbench --workload <name|all> "
               "--seed <n> [--seconds <s>] [--trace 0|1] "
               "[--scale full|mini] [--spans <file>] [--skip-warmup 0|1]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--scale") {
      if (v != "full" && v != "mini") usage("--scale is full or mini");
      opt.mini = v == "mini";
    } else if (a == "--spans") {
      opt.span_file = v;
    } else if (a == "--skip-warmup") {
      opt.skip_warmup = v == "1";
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed) usage("--workload and --seed needed");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  std::vector<std::string> names = {opt.workload};
  if (opt.workload == "all") names = perfbench::workload_names();
  bool ok = true;
  const std::string span_file = opt.span_file;
  for (const std::string& name : names) {
    opt.workload = name;
    if (!span_file.empty() && names.size() > 1) {
      opt.span_file = span_file + "." + name;
    }
    try {
      const perfbench::Result r = perfbench::run_workload(opt);
      print_result(r);
      for (const auto& [check, passed] : r.checks) {
        if (!passed) {
          std::fprintf(stderr, "%s: check '%s' failed\n", name.c_str(),
                       check.c_str());
          ok = false;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
      return 2;
    }
  }
  return ok ? 0 : 1;
}
