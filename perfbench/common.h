// Helpers shared by the workloads: the program draw, the machine the ops
// measure on, private temporary directories and the output checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bwc/ir/program.h"
#include "bwc/machine/machine_model.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/support/prng.h"

namespace perfbench {

/// Origin2000 (R10K) with its caches scaled down 16x: bwcopt's and bwcd's
/// default machine.
bwc::machine::MachineModel bench_machine();

/// Independent stream for (seed, a, b): the same triple always gives the
/// same generator, whatever else the run drew before.
bwc::Prng stream(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

/// Number of small-program categories in the draw.
inline constexpr int kSmallCategories = 10;

/// One small program of the given category with seeded parameters:
/// random_program (n~256), random_program_2d (n~16), fig7, sec21,
/// cascade, blur, jacobi (n~512), fig6, adi, transposed_sweep (n~24).
bwc::ir::Program draw_small(bwc::Prng& rng, int category);

/// A seeded permutation of 0..n-1 (Fisher-Yates).
std::vector<int> permutation(int n, bwc::Prng& rng);

/// The categories of ops [block*10, block*10+10): a seeded permutation.
std::vector<int> block_categories(std::uint64_t seed, std::uint64_t stream_id,
                                  std::int64_t block);

/// A directory created with mkdtemp under `root` and removed, with its
/// contents, when the object is destroyed.
class TempDir {
 public:
  TempDir(const std::string& root, const std::string& tag);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// bwcopt's semantic tolerance: |got - ref| <= 1e-9 * (|ref| + 1).
bool matches_reference(double got, double reference);

/// Empty when the two results agree bit for bit in checksum, counts and
/// per-boundary traffic; otherwise what differs.
std::string bitwise_difference(const bwc::runtime::ExecResult& a,
                               const bwc::runtime::ExecResult& b);

double median(std::vector<double> values);
/// Linear interpolation between closest ranks; q in [0, 1].
double percentile(std::vector<double> values, double q);
double geomean(const std::vector<double>& values);
double peak_rss_mb();

}  // namespace perfbench
