#include "probe.h"

#include <sched.h>
#include <sys/mman.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <vector>

namespace perfbench {

namespace {

double ThreadCpuMs() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) / 1e6;
}

uint64_t XorShift(uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

/// The probe's memory, mapped straight from the kernel (not the heap) and
/// unmapped when the probe ends, so it never counts in the benchmark
/// process's peak RSS during a job. Filled before the clock starts, so the
/// timed work takes no page faults.
class ProbeMemory {
 public:
  static constexpr size_t kText = size_t{1} << 19;     // bytes of records
  static constexpr size_t kSlots = size_t{1} << 17;    // uint64_t: 1 MiB
  static constexpr size_t kRows = 4096;                // x kDim floats, x2
  static constexpr size_t kDim = 64;                   // 2 MiB of weights
  static constexpr size_t kCycle = size_t{1} << 22;    // uint32_t: 16 MiB
  static constexpr size_t kKeys = size_t{1} << 16;     // uint32_t

  ProbeMemory() {
    void* base = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) return;
    base_ = static_cast<char*>(base);
    text = base_;
    slots = reinterpret_cast<uint64_t*>(text + kText);
    in = reinterpret_cast<float*>(slots + kSlots);
    out = in + kRows * kDim;
    cycle = reinterpret_cast<uint32_t*>(out + kRows * kDim);
    keys = cycle + kCycle;
    // Records "<label> <id> <value>\n" with labels from a small vocabulary.
    uint64_t x = 0x2545F4914F6CDD1DULL;
    size_t at = 0;
    while (at + 32 < kText) {
      const uint64_t r = XorShift(&x);
      at += static_cast<size_t>(std::snprintf(
          text + at, kText - at, "L%u %u %u\n", static_cast<unsigned>(r % 61),
          static_cast<unsigned>((r >> 8) % 1000000),
          static_cast<unsigned>((r >> 32) % 100000)));
    }
    std::fill(text + at, text + kText, '\n');
    // A full-period linear congruential step modulo 2^22 (Hull-Dobell: odd
    // increment, multiplier 1 mod 4): one cycle through every slot, in an
    // order no prefetcher follows.
    for (uint64_t i = 0; i < kCycle; ++i) {
      const uint64_t next = i * 2862933555777941757ULL + 3037000493ULL;
      cycle[i] = static_cast<uint32_t>(next & (kCycle - 1));
    }
    std::fill(slots, slots + kSlots, 0);
    std::fill(keys, keys + kKeys, 0);
  }
  ~ProbeMemory() {
    if (base_ != nullptr) munmap(base_, kBytes);
  }
  ProbeMemory(const ProbeMemory&) = delete;
  ProbeMemory& operator=(const ProbeMemory&) = delete;

  bool ok() const { return base_ != nullptr; }

  char* text = nullptr;
  uint64_t* slots = nullptr;
  float* in = nullptr;
  float* out = nullptr;
  uint32_t* cycle = nullptr;
  uint32_t* keys = nullptr;

 private:
  static constexpr size_t kBytes = kText + kSlots * 8 +
                                   2 * kRows * kDim * 4 + kCycle * 4 +
                                   kKeys * 4;
  char* base_ = nullptr;
};

/// The probe's work, a small fixed pipeline of the kinds of work schema
/// discovery does: parse records, group them in a hash table, train
/// skip-gram-style embeddings by SGD, sort, and chase pointers through
/// memory larger than the caches. Returns a checksum so none of it can be
/// elided.
uint64_t ProbeWork(ProbeMemory* m) {
  uint64_t sum = 0;
  // Parse the records and count (label, value bucket) pairs in an
  // open-addressing table.
  std::fill(m->slots, m->slots + ProbeMemory::kSlots, 0);
  const uint64_t mask = ProbeMemory::kSlots - 1;
  uint32_t field[3] = {0, 0, 0};
  int f = 0;
  for (size_t i = 0; i < ProbeMemory::kText; ++i) {
    const char c = m->text[i];
    if (c >= '0' && c <= '9') {
      field[f] = field[f] * 10 + static_cast<uint32_t>(c - '0');
    } else if (c == ' ') {
      ++f;
    } else if (c == '\n') {
      if (f == 2) {
        const uint64_t key =
            ((uint64_t{field[0]} << 32) | (field[2] % 4096)) + 1;
        uint64_t slot = (key * 0x9E3779B97F4A7C15ULL) >> 47;
        while (m->slots[slot] != 0 && m->slots[slot] >> 20 != key) {
          slot = (slot + 1) & mask;
        }
        m->slots[slot] = (key << 20) | ((m->slots[slot] + 1) & 0xFFFFF);
        sum += field[1];
      }
      field[0] = field[1] = field[2] = 0;
      f = 0;
    }
  }
  // Skip-gram-style SGD on two 4096 x 64 float matrices.
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (size_t i = 0; i < ProbeMemory::kRows * ProbeMemory::kDim; ++i) {
    m->in[i] = static_cast<float>(XorShift(&x) % 1000) * 1e-4f - 0.05f;
    m->out[i] = 0;
  }
  for (int step = 0; step < 40000; ++step) {
    const uint64_t r = XorShift(&x);
    float* u = m->in + (r % ProbeMemory::kRows) * ProbeMemory::kDim;
    float* v = m->out + ((r >> 20) % ProbeMemory::kRows) * ProbeMemory::kDim;
    float dot = 0;
    for (size_t k = 0; k < ProbeMemory::kDim; ++k) dot += u[k] * v[k];
    const float g = 0.025f * ((step & 7) == 0 ? 1.0f : 0.0f) -
                    0.025f / (1.0f + std::exp(-dot));
    for (size_t k = 0; k < ProbeMemory::kDim; ++k) {
      const float old_u = u[k];
      u[k] += g * v[k];
      v[k] += g * old_u;
    }
  }
  sum += static_cast<uint64_t>(std::fabs(m->in[7]) * 1e6f);
  // Sort.
  for (size_t i = 0; i < ProbeMemory::kKeys; ++i) {
    m->keys[i] = static_cast<uint32_t>(XorShift(&x));
  }
  std::sort(m->keys, m->keys + ProbeMemory::kKeys);
  sum += m->keys[ProbeMemory::kKeys / 3];
  // Pointer chase.
  uint32_t at = 0;
  for (int i = 0; i < 50000; ++i) at = m->cycle[at];
  return sum + at;
}

}  // namespace

double ProbeMs() {
  static const uint64_t expected = [] {
    ProbeMemory memory;
    return memory.ok() ? ProbeWork(&memory) : 0;
  }();
  ProbeMemory memory;
  if (!memory.ok() || expected == 0) return -1;
  const double start = ThreadCpuMs();
  const uint64_t sum = ProbeWork(&memory);
  const double ms = ThreadCpuMs() - start;
  return sum == expected ? ms : -1;
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

void Unpin(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

bool HostSpeed::Probe() {
  static const std::vector<int> cpus = AllowedCpus();
  double total = 0;
  bool ok = !cpus.empty();
  for (int cpu : cpus) {
    PinToCpu(cpu);
    const double ms = ProbeMs();
    ok = ok && ms > 0;
    total += ms;
  }
  Unpin(cpus);
  if (!ok) return false;
  probe_ms_.push_back(total / static_cast<double>(cpus.size()));
  return true;
}

double HostSpeed::Scale(size_t k) const {
  if (probe_ms_.empty()) return 1;
  const double before = probe_ms_[std::min(k, probe_ms_.size() - 1)];
  const double after = probe_ms_[std::min(k + 1, probe_ms_.size() - 1)];
  return kProbeReferenceMs / ((before + after) / 2);
}

}  // namespace perfbench
