#include "sampler.hpp"

#include <cxxabi.h>
#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

constexpr int kDepth = 48;
constexpr std::size_t kMaxSamples = 1 << 15;

// Handler state. The buffers are allocated before the timer starts; the
// handler only writes into them (backtrace() was primed beforehand so its
// lazy library load does not happen inside the handler).
volatile sig_atomic_t g_enabled = 0;
void** g_frames = nullptr;
int* g_depths = nullptr;
std::atomic<std::size_t> g_count{0};

void on_sigprof(int) {
  if (!g_enabled) return;
  const int saved_errno = errno;
  const std::size_t i = g_count.load(std::memory_order_relaxed);
  if (i < kMaxSamples) {
    g_depths[i] = backtrace(g_frames + i * kDepth, kDepth);
    g_count.store(i + 1, std::memory_order_relaxed);
  }
  errno = saved_errno;
}

struct Symbol {
  std::uintptr_t begin = 0;
  std::uintptr_t end = 0;
  std::string name;
};

std::uintptr_t main_load_base() {
  std::uintptr_t base = 0;
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* out) {
        *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
        return 1;  // the first entry is the main program
      },
      &base);
  return base;
}

/// Function symbols of the running executable, sorted by address.
std::vector<Symbol> read_symbols() {
  std::ifstream f("/proc/self/exe", std::ios::binary);
  const std::string img((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
  if (img.size() < sizeof(Elf64_Ehdr)) return {};
  Elf64_Ehdr eh;
  std::memcpy(&eh, img.data(), sizeof eh);
  if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
      eh.e_ident[EI_CLASS] != ELFCLASS64 ||
      eh.e_shoff + std::uint64_t{eh.e_shnum} * sizeof(Elf64_Shdr) >
          img.size()) {
    return {};
  }
  std::vector<Elf64_Shdr> sh(eh.e_shnum);
  std::memcpy(sh.data(), img.data() + eh.e_shoff,
              sh.size() * sizeof(Elf64_Shdr));
  const std::uintptr_t base = main_load_base();
  std::vector<Symbol> out;
  for (const Elf64_Shdr& s : sh) {
    if (s.sh_type != SHT_SYMTAB || s.sh_link >= sh.size()) continue;
    const Elf64_Shdr& strtab = sh[s.sh_link];
    if (s.sh_offset + s.sh_size > img.size() ||
        strtab.sh_offset + strtab.sh_size > img.size()) {
      continue;
    }
    for (std::size_t off = 0; off + sizeof(Elf64_Sym) <= s.sh_size;
         off += sizeof(Elf64_Sym)) {
      Elf64_Sym sym;
      std::memcpy(&sym, img.data() + s.sh_offset + off, sizeof sym);
      if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_size == 0 ||
          sym.st_name >= strtab.sh_size) {
        continue;
      }
      const char* name = img.data() + strtab.sh_offset + sym.st_name;
      out.push_back({base + sym.st_value, base + sym.st_value + sym.st_size,
                     std::string(name, ::strnlen(name, strtab.sh_size -
                                                           sym.st_name))});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Symbol& a, const Symbol& b) { return a.begin < b.begin; });
  return out;
}

int layer_index(std::string_view module) {
  for (std::size_t i = 0; i + 1 < kLayers.size(); ++i) {
    if (kLayers[i] == module) return static_cast<int>(i);
  }
  return -1;
}

/// Layer of a demangled qualified name that starts with "ftvod::".
int layer_of_qualified(std::string_view name) {
  constexpr std::string_view kNs = "ftvod::";
  if (!name.starts_with(kNs)) return -1;
  name.remove_prefix(kNs.size());
  return layer_index(name.substr(0, name.find("::")));
}

std::string demangle(const char* mangled) {
  int status = 0;
  char* d = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  if (d == nullptr) return {};
  std::string s(d);
  std::free(d);
  return s;
}

/// For a callable wrapper (SmallFunction's vtable thunks, std::function's
/// handler), the layer of the wrapped callable, or -1.
int layer_of_wrapped(const std::string& demangled) {
  for (std::string_view marker : {"kInlineOps<", "kHeapOps<"}) {
    const auto at = demangled.find(marker);
    if (at != std::string::npos) {
      return layer_of_qualified(
          std::string_view(demangled).substr(at + marker.size()));
    }
  }
  constexpr std::string_view kHandler = "std::_Function_handler<";
  const auto at = demangled.find(kHandler);
  if (at == std::string::npos) return -1;
  // The callable is the second template argument: skip the signature.
  int depth = 0;
  for (std::size_t i = at + kHandler.size(); i < demangled.size(); ++i) {
    const char c = demangled[i];
    if (c == '<' || c == '(') ++depth;
    if (c == '>' || c == ')') --depth;
    if (c == ',' && depth == 0) {
      std::string_view rest = std::string_view(demangled).substr(i + 1);
      while (rest.starts_with(' ')) rest.remove_prefix(1);
      return layer_of_qualified(rest);
    }
  }
  return -1;
}

/// Layer of one mangled symbol name, or -1 when it is not an ftvod
/// function.
int layer_of_symbol(std::string_view mangled) {
  if (mangled.starts_with("_ZN5ftvod4util13SmallFunction") ||
      mangled.starts_with("_ZNSt17_Function_handler")) {
    return layer_of_wrapped(demangle(std::string(mangled).c_str()));
  }
  // Functions qualified by ftvod::<module>: plain, const, and local
  // entities (lambdas) of either.
  for (std::string_view prefix : {"_ZN", "_ZNK", "_ZZN", "_ZZNK"}) {
    if (!mangled.starts_with(prefix)) continue;
    std::string_view rest = mangled.substr(prefix.size());
    if (!rest.starts_with("5ftvod")) return -1;
    rest.remove_prefix(6);
    std::size_t len = 0;
    std::size_t digits = 0;
    while (digits < rest.size() && rest[digits] >= '0' && rest[digits] <= '9') {
      len = len * 10 + static_cast<std::size_t>(rest[digits] - '0');
      ++digits;
    }
    if (digits == 0 || digits + len > rest.size()) return -1;
    return layer_index(rest.substr(digits, len));
  }
  return -1;
}

}  // namespace

Sampler::Sampler(int period_us) {
  g_frames = new void*[kMaxSamples * kDepth];
  g_depths = new int[kMaxSamples];
  g_count.store(0);
  void* prime[4];
  backtrace(prime, 4);  // loads the unwinder outside the handler
  struct sigaction sa {};
  sa.sa_handler = on_sigprof;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    throw std::runtime_error("sigaction(SIGPROF) failed");
  }
  itimerval tv{};
  tv.it_interval.tv_usec = period_us;
  tv.it_value.tv_usec = period_us;
  if (setitimer(ITIMER_PROF, &tv, nullptr) != 0) {
    throw std::runtime_error("setitimer(ITIMER_PROF) failed");
  }
}

Sampler::~Sampler() {
  g_enabled = 0;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);
  delete[] g_frames;
  delete[] g_depths;
  g_frames = nullptr;
  g_depths = nullptr;
}

void Sampler::set_enabled(bool on) { g_enabled = on ? 1 : 0; }

std::size_t Sampler::sample_count() const {
  return std::min(g_count.load(), kMaxSamples);
}

std::array<std::uint64_t, kLayers.size()> Sampler::classify() const {
  const std::vector<Symbol> symbols = read_symbols();
  std::unordered_map<std::uintptr_t, int> cache;
  auto layer_of_pc = [&](std::uintptr_t pc) {
    const auto [it, fresh] = cache.try_emplace(pc, -1);
    if (!fresh) return it->second;
    auto s = std::upper_bound(
        symbols.begin(), symbols.end(), pc,
        [](std::uintptr_t v, const Symbol& sym) { return v < sym.begin; });
    if (s != symbols.begin() && pc < std::prev(s)->end) {
      it->second = layer_of_symbol(std::prev(s)->name);
    }
    return it->second;
  };
  std::array<std::uint64_t, kLayers.size()> counts{};
  for (std::size_t i = 0; i < sample_count(); ++i) {
    int layer = static_cast<int>(kLayers.size()) - 1;  // ext
    for (int d = 0; d < g_depths[i]; ++d) {
      // Return addresses point past the call; step back into it.
      const auto pc = reinterpret_cast<std::uintptr_t>(g_frames[i * kDepth + d]);
      const int l = layer_of_pc(pc - 1);
      if (l >= 0) {
        layer = l;
        break;
      }
    }
    ++counts[static_cast<std::size_t>(layer)];
  }
  return counts;
}

}  // namespace perfbench
