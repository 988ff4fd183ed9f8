#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <stdexcept>

#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"

namespace perfbench {

using namespace bwc;

machine::MachineModel bench_machine() {
  return machine::origin2000_r10k().scaled(16);
}

Prng stream(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = seed;
  std::uint64_t mixed = splitmix64(state) ^ (a * 0x9e3779b97f4a7c15ull);
  mixed = splitmix64(mixed) ^ (b * 0xc2b2ae3d27d4eb4full);
  return Prng(splitmix64(mixed));
}

ir::Program draw_small(Prng& rng, int category) {
  const auto around = [&rng](std::int64_t n) {
    return rng.uniform_in(n * 3 / 4, n * 5 / 4);
  };
  switch (category) {
    case 0: {
      workloads::RandomProgramParams params;
      params.n = around(256);
      return workloads::random_program(rng, params);
    }
    case 1: {
      const std::int64_t n = around(16);
      return workloads::random_program_2d(rng, n);
    }
    case 2: return workloads::fig7_original(around(512));
    case 3: return workloads::sec21_both_loops(around(512));
    case 4: return workloads::reduction_cascade(around(512), 3);
    case 5: return workloads::blur_sharpen(around(512));
    case 6: return workloads::jacobi_chain(around(512), 4);
    case 7: return workloads::fig6_original(around(24));
    case 8: return workloads::adi_like(around(24));
    default: return workloads::transposed_sweep(around(24));
  }
}

std::vector<int> permutation(int n, Prng& rng) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[rng.uniform(i + 1)]);
  return order;
}

std::vector<int> block_categories(std::uint64_t seed, std::uint64_t stream_id,
                                  std::int64_t block) {
  Prng rng = stream(seed, stream_id, static_cast<std::uint64_t>(block));
  return permutation(kSmallCategories, rng);
}

TempDir::TempDir(const std::string& root, const std::string& tag) {
  std::filesystem::create_directories(root);
  std::string pattern = root + "/" + tag + "-XXXXXX";
  std::vector<char> buf(pattern.begin(), pattern.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) == nullptr)
    throw std::runtime_error("mkdtemp failed under " + root + ": " +
                             std::strerror(errno));
  path_ = buf.data();
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

bool matches_reference(double got, double reference) {
  return std::abs(got - reference) <= 1e-9 * (std::abs(reference) + 1.0);
}

std::string bitwise_difference(const runtime::ExecResult& a,
                               const runtime::ExecResult& b) {
  if (std::memcmp(&a.checksum, &b.checksum, sizeof(double)) != 0)
    return "checksum";
  if (a.flops != b.flops || a.loads != b.loads || a.stores != b.stores)
    return "flop/load/store counts";
  const auto& x = a.profile.boundaries;
  const auto& y = b.profile.boundaries;
  if (x.size() != y.size()) return "boundary count";
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].name != y[i].name ||
        x[i].bytes_toward_cpu != y[i].bytes_toward_cpu ||
        x[i].bytes_from_cpu != y[i].bytes_from_cpu)
      return "traffic at boundary " + x[i].name;
  }
  return "";
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
