#include "hostspeed.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

namespace {

std::uint64_t mix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 33);
}

/// The kinds of work a job does, in small: a 26-neighbour comparison
/// stencil over a cache-resident grid (the gradient), a sort of
/// (value, index) pairs (the lower-star and simplification orders) and
/// hash-map inserts with allocation (the merge's cell maps).
std::uint64_t kernel(std::uint64_t salt) {
  constexpr int n = 40;
  std::vector<float> f(static_cast<std::size_t>(n) * n * n);
  std::uint64_t h = mix(salt + 1);
  for (float& v : f) {
    h = mix(h);
    v = static_cast<float>(h >> 40);
  }
  std::uint64_t sum = 0;
  const auto at = [&](int x, int y, int z) {
    return f[static_cast<std::size_t>((z * n + y) * n + x)];
  };
  for (int z = 1; z < n - 1; ++z)
    for (int y = 1; y < n - 1; ++y)
      for (int x = 1; x < n - 1; ++x) {
        const float c = at(x, y, z);
        int lower = 0;
        for (int dz = -1; dz <= 1; ++dz)
          for (int dy = -1; dy <= 1; ++dy)
            for (int dx = -1; dx <= 1; ++dx) lower += at(x + dx, y + dy, z + dz) < c;
        sum += static_cast<std::uint64_t>(lower);
      }

  std::vector<std::pair<float, int>> order(32768);
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = {f[(i * 7919) % f.size()], static_cast<int>(i)};
  std::sort(order.begin(), order.end());
  sum += static_cast<std::uint64_t>(order[order.size() / 2].second);

  std::unordered_map<std::uint64_t, int> cells;
  for (int i = 0; i < 16384; ++i) cells[mix(salt ^ static_cast<std::uint64_t>(i % 12000))] += i;
  return sum + cells.size();
}

constexpr int kKernelRuns = 16;

}  // namespace

double calibrate(int threads) {
  const int nthreads = threads > 1 ? threads : 1;
  const int per_thread = (kKernelRuns + nthreads - 1) / nthreads;
  std::vector<std::uint64_t> sums(static_cast<std::size_t>(nthreads));
  std::vector<std::exception_ptr> errors(sums.size());
  const auto work = [&](std::size_t t) {
    try {
      for (int r = 0; r < per_thread; ++r) sums[t] += kernel(t * kKernelRuns + r);
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  const double c0 = processCpuSeconds();
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 1; t < sums.size(); ++t) pool.emplace_back(work, t);
    work(0);
  }
  const double cpu = processCpuSeconds() - c0;
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  // Reading the sums keeps the kernel's work from being dropped.
  for (const std::uint64_t s : sums)
    if (s == 0) throw std::logic_error("calibration kernel summed to 0");
  return cpu;
}

}  // namespace perfbench
