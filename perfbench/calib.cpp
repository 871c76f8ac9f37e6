// Host-speed calibration loop: a fixed hash-map build and lookup workload
// (node allocation, hashing, cache misses: the simulator's own mix of
// work) whose process-CPU time tracks how fast the shared host currently
// runs that kind of code. run.py times one loop before the first measured
// child and one after each, and scales each child's host times by the mean
// of the two loops next to it.
//
// It links nothing from src/: no change to the simulator can change it.
//
//   perfbench_calib    prints "<cpu seconds> <checksum>"
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <unordered_map>

namespace {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

int main() {
  std::uint64_t x = 88172645463325252ull;
  const double t0 = cpu_seconds();
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (std::uint64_t i = 0; i < 200000; ++i) map[xorshift(x) % 1000000] = i;
  std::uint64_t hits = 0;
  for (int i = 0; i < 2000000; ++i) hits += map.count(xorshift(x) % 1000000);
  const double seconds = cpu_seconds() - t0;
  std::printf("%.9f %llu\n", seconds, static_cast<unsigned long long>(hits));
  return 0;
}
