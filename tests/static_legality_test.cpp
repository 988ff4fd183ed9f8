// Unit and acceptance tests for the static legality provers
// (verify/static_legality): reschedule proofs for fusion / distribution /
// interchange, value-flow certificates for store elimination and storage
// reduction (contraction, shrink, peel), the static-first verification
// modes of the pass manager, and the coverage bars: every bundled workload
// proves with no trace fallback, a fixed random draw proves >= 95% of its
// checks, every proof agrees with the trace validator, and seeded mutants
// of the rewrites are never proven.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bwc/core/optimizer.h"
#include "bwc/ir/dsl.h"
#include "bwc/ir/printer.h"
#include "bwc/runtime/interpreter.h"
#include "bwc/support/error.h"
#include "bwc/transform/distribute.h"
#include "bwc/transform/store_elimination.h"
#include "bwc/transform/storage_reduction.h"
#include "bwc/verify/observability.h"
#include "bwc/verify/static_legality.h"
#include "bwc/workloads/extra_programs.h"
#include "bwc/workloads/paper_programs.h"
#include "bwc/workloads/random_programs.h"

namespace bwc::verify {
namespace {

using namespace ir::dsl;  // NOLINT
using ir::ArrayId;
using ir::Program;

// -- prove_reschedule ---------------------------------------------------------

/// Producer a[i + w] in loop 1, consumer reads a[i + r] in loop 2.
Program two_loops(std::int64_t w, std::int64_t r) {
  const std::int64_t n = 40;
  Program p("pair");
  const ArrayId a = p.add_array("a", {n + 16});
  const ArrayId b = p.add_array("b", {n + 16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 8, n, assign(a, {v("i", w)}, at(b, v("i")) + lvar("i"))));
  p.append(loop("i", 8, n, assign("s", sref("s") + at(a, v("i", r)))));
  return p;
}

/// The same statements naively fused into one loop (no shift).
Program fused_loops(std::int64_t w, std::int64_t r) {
  const std::int64_t n = 40;
  Program p("pair");
  const ArrayId a = p.add_array("a", {n + 16});
  const ArrayId b = p.add_array("b", {n + 16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 8, n,
                assign(a, {v("i", w)}, at(b, v("i")) + lvar("i")),
                assign("s", sref("s") + at(a, v("i", r)))));
  return p;
}

TEST(ProveReschedule, IdentityIsProven) {
  const Program p = two_loops(0, 0);
  const LegalityResult res = prove_reschedule(p, p);
  EXPECT_EQ(res.verdict, LegalityVerdict::kProven) << res.reason;
}

TEST(ProveReschedule, LegalFusionIsProven) {
  // Read trails the write (r <= w): fusing preserves the flow order.
  for (const auto& [w, r] :
       {std::pair<int, int>{0, 0}, {0, -1}, {1, 0}, {2, -2}}) {
    const LegalityResult res =
        prove_reschedule(two_loops(w, r), fused_loops(w, r));
    EXPECT_EQ(res.verdict, LegalityVerdict::kProven)
        << "w=" << w << " r=" << r << " reason=" << res.reason;
    EXPECT_GT(res.pairs_checked, 0);
  }
}

TEST(ProveReschedule, IllegalFusionIsRefuted) {
  // Read outruns the write (r > w): naive fusion reverses the dependence.
  for (const auto& [w, r] : {std::pair<int, int>{0, 1}, {0, 2}, {-1, 0}}) {
    const LegalityResult res =
        prove_reschedule(two_loops(w, r), fused_loops(w, r));
    EXPECT_EQ(res.verdict, LegalityVerdict::kRefuted)
        << "w=" << w << " r=" << r << " reason=" << res.reason;
  }
}

TEST(ProveReschedule, DistributionIsProven) {
  const std::int64_t n = 40;
  Program p("t");
  const ArrayId a = p.add_array("a", {n + 16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 8, n,
                assign(a, {v("i")}, lvar("i") * lit(0.25)),
                assign("s", sref("s") + at(a, v("i")))));
  const auto result = transform::distribute_loops(p);
  ASSERT_EQ(result.loops_after, 2);
  const LegalityResult res = prove_reschedule(p, result.program);
  EXPECT_EQ(res.verdict, LegalityVerdict::kProven) << res.reason;
}

TEST(ProveReschedule, ChangedComputationIsNotProven) {
  // The "after" program computes something else: the atom matcher must
  // refuse the bijection; never certify a semantic change.
  const Program before = two_loops(0, 0);
  // Same shape, different rhs structure.
  Program other("pair");
  const ArrayId a = other.add_array("a", {56});
  const ArrayId b = other.add_array("b", {56});
  other.add_scalar("s");
  other.mark_output_scalar("s");
  other.append(loop("i", 8, 40,
                    assign(a, {v("i")}, at(b, v("i")) * lit(2.0))));
  other.append(loop("i", 8, 40, assign("s", sref("s") + at(a, v("i")))));
  const LegalityResult res = prove_reschedule(before, other);
  EXPECT_NE(res.verdict, LegalityVerdict::kProven) << res.reason;
}

TEST(ProveReschedule, ReductionReorderingIsProven) {
  // Two reduction loops into one: accumulation order changes, but the
  // common-op reduction exemption (same one the trace validator grants)
  // applies to scalar s.
  const std::int64_t n = 40;
  Program before("t");
  const ArrayId a = before.add_array("a", {n + 16});
  const ArrayId b = before.add_array("b", {n + 16});
  before.add_scalar("s");
  before.mark_output_scalar("s");
  before.append(loop("i", 8, n, assign("s", sref("s") + at(a, v("i")))));
  before.append(loop("i", 8, n, assign("s", sref("s") + at(b, v("i")))));
  Program after("t");
  const ArrayId a2 = after.add_array("a", {n + 16});
  const ArrayId b2 = after.add_array("b", {n + 16});
  after.add_scalar("s");
  after.mark_output_scalar("s");
  after.append(loop("i", 8, n,
                    assign("s", sref("s") + at(a2, v("i"))),
                    assign("s", sref("s") + at(b2, v("i")))));
  const LegalityResult res = prove_reschedule(before, after);
  EXPECT_EQ(res.verdict, LegalityVerdict::kProven) << res.reason;
}

// -- prove_store_elimination --------------------------------------------------

Program eliminable_store_program() {
  const std::int64_t n = 40;
  Program p("t");
  const ArrayId a = p.add_array("a", {n + 16});
  const ArrayId b = p.add_array("b", {n + 16});
  p.add_scalar("s");
  p.mark_output_scalar("s");
  p.append(loop("i", 8, n,
                assign(a, {v("i")}, at(b, v("i")) + lit(1.0)),
                assign("s", sref("s") + at(a, v("i")))));
  return p;
}

TEST(ProveStoreElimination, ForwardedWritebackIsProven) {
  const Program p = eliminable_store_program();
  const auto result = transform::eliminate_stores(p);
  ASSERT_FALSE(result.eliminated.empty());
  const LegalityResult res = prove_store_elimination(p, result.program);
  EXPECT_EQ(res.verdict, LegalityVerdict::kProven) << res.reason;
  // Sanity: semantics preserved (the prover certified a true fact).
  EXPECT_NEAR(runtime::execute(p).checksum,
              runtime::execute(result.program).checksum, 1e-9);
}

TEST(ProveStoreElimination, UnrelatedRewriteIsNotProven) {
  const Program p = eliminable_store_program();
  const LegalityResult res = prove_store_elimination(p, two_loops(0, 0));
  EXPECT_NE(res.verdict, LegalityVerdict::kProven) << res.reason;
}

// -- prove_storage_reduction --------------------------------------------------

Program contractible_program() {
  const std::int64_t n = 40;
  Program p("t");
  const ArrayId t = p.add_array("t", {n + 16});
  const ArrayId b = p.add_array("b", {n + 16});
  const ArrayId c = p.add_array("c", {n + 16});
  p.mark_output_array(c);
  p.append(loop("i", 8, n,
                assign(t, {v("i")}, at(b, v("i")) * lit(2.0)),
                assign(c, {v("i")}, at(t, v("i")) + lit(1.0))));
  return p;
}

TEST(ProveStorageReduction, ScalarContractionIsProven) {
  const Program p = contractible_program();
  const auto result = transform::reduce_storage(p);
  ASSERT_FALSE(result.actions.empty());
  ASSERT_LT(result.referenced_bytes_after, result.referenced_bytes_before);
  const LegalityResult res = prove_storage_reduction(p, result.program);
  EXPECT_EQ(res.verdict, LegalityVerdict::kProven) << res.reason;
  EXPECT_NEAR(runtime::execute(p).checksum,
              runtime::execute(result.program).checksum, 1e-9);
}

TEST(ProveStorageReduction, NonContractionRewriteIsUnknown) {
  // A rewrite that changes the atom count (not a pure contraction) is
  // outside this prover's model: it must answer kUnknown, never kProven.
  const Program p = contractible_program();
  const auto result = transform::distribute_loops(p);
  const LegalityResult res = prove_storage_reduction(p, result.program);
  EXPECT_NE(res.verdict, LegalityVerdict::kProven) << res.reason;
}

// -- Value flow: shrink, peel, guarded contraction, killed writes -------------

/// fig6 after fusion, and its storage-reduced form: a shrunk to cur/prev
/// column buffers with column 1 peeled, b contracted to a scalar.
struct ReductionPair {
  Program before;
  Program after;
};

ReductionPair fig6_reduction(std::int64_t n) {
  core::OptimizerOptions opts;
  opts.passes = "fuse(solver=best)";
  opts.verify = false;
  Program fused = core::optimize(workloads::fig6_original(n), opts).program;
  Program reduced = transform::reduce_storage(fused).program;
  return {std::move(fused), std::move(reduced)};
}

/// The body of the innermost loop of the program's loop nest.
ir::StmtList& inner_body(Program& program) {
  for (auto& top : program.top()) {
    if (top->kind != ir::StmtKind::kLoop) continue;
    ir::Stmt* s = top.get();
    while (s->loop->body.size() == 1 &&
           s->loop->body.front()->kind == ir::StmtKind::kLoop)
      s = s->loop->body.front().get();
    return s->loop->body;
  }
  throw bwc::Error("no loop nest");
}

/// Index in `body` of the first statement writing `array` (directly or as
/// the first statement of a guard).
std::size_t writer_index(const Program& p, const ir::StmtList& body,
                         const std::string& array) {
  for (std::size_t k = 0; k < body.size(); ++k) {
    const ir::Stmt* s = body[k].get();
    if (s->kind == ir::StmtKind::kIf) s = s->then_body.front().get();
    if (s->kind == ir::StmtKind::kArrayAssign &&
        p.array(s->lhs_array).name == array)
      return k;
  }
  throw bwc::Error("no writer of " + array);
}

double checksum(const Program& p) { return runtime::execute(p).checksum; }

/// A seeded mutant: the trace validator must refute it, and the static
/// prover must never certify it.
void expect_refuted_and_unproven(const Program& before, const Program& mutant,
                                 bool store_elimination) {
  const Report trace =
      store_elimination ? validate_store_elimination(before, mutant)
                        : validate_storage_reduction(before, mutant);
  EXPECT_FALSE(trace.ok()) << trace.render();
  const LegalityResult res = store_elimination
                                 ? prove_store_elimination(before, mutant)
                                 : prove_storage_reduction(before, mutant);
  EXPECT_NE(res.verdict, LegalityVerdict::kProven);
}

TEST(ProveStorageReduction, ShrinkAndPeelAreProvenForEveryN) {
  // One certificate per shape: the proof examines the same reference
  // pairs whatever n is, and never enumerates instances.
  int pairs = -1;
  for (std::int64_t n : {8, 24, 400, 100000}) {
    const ReductionPair rp = fig6_reduction(n);
    ASSERT_TRUE(rp.after.has_array("a_prev") && rp.after.has_array("a_col1"))
        << ir::to_string(rp.after);
    const LegalityResult res = prove_storage_reduction(rp.before, rp.after);
    EXPECT_EQ(res.verdict, LegalityVerdict::kProven)
        << "n=" << n << " " << res.reason;
    if (pairs < 0) pairs = res.pairs_checked;
    EXPECT_EQ(res.pairs_checked, pairs) << "n=" << n;
  }
  const ReductionPair rp = fig6_reduction(24);
  EXPECT_NEAR(checksum(rp.before), checksum(rp.after),
              1e-9 * (std::abs(checksum(rp.before)) + 1.0));
}

TEST(ProveStorageReduction, RotationCopyBeforeTheReadIsNeverProven) {
  ReductionPair rp = fig6_reduction(12);
  ir::StmtList& body = inner_body(rp.after);
  // a_prev[i] = a_cur[i] moved ahead of the statement reading a_prev: the
  // read now sees the current column instead of the previous one.
  const std::size_t copy = writer_index(rp.after, body, "a_prev");
  const std::size_t read = writer_index(rp.after, body, "a_col1") + 1;
  ir::StmtPtr moved = std::move(body[copy]);
  body.erase(body.begin() + static_cast<std::ptrdiff_t>(copy));
  body.insert(body.begin() + static_cast<std::ptrdiff_t>(read),
              std::move(moved));
  expect_refuted_and_unproven(rp.before, rp.after, false);
}

TEST(ProveStorageReduction, PeelGuardOffByOneIsNeverProven) {
  ReductionPair rp = fig6_reduction(12);
  ir::StmtList& body = inner_body(rp.after);
  ir::Stmt& guard = *body[writer_index(rp.after, body, "a_col1")];
  ASSERT_EQ(guard.kind, ir::StmtKind::kIf);
  // if (j == 1) a_col1[i] = a_cur[i]  ->  if (j == 2): the peeled column
  // holds column 2, not the boundary column the fix-up reads.
  guard.cmp_rhs = guard.cmp_rhs + 1;
  expect_refuted_and_unproven(rp.before, rp.after, false);
}

/// t[i] written under `i >= 12` and read under `i >= read_lo`.
Program guarded_contraction(bool contracted, std::int64_t read_lo) {
  Program p("t");
  const ArrayId t = p.add_array("t", {56});
  const ArrayId b = p.add_array("b", {56});
  const ArrayId c = p.add_array("c", {56});
  p.mark_output_array(c);
  if (contracted) p.add_scalar("t_s");
  auto write = [&] {
    return contracted ? assign("t_s", at(b, v("i")) * lit(2.0))
                      : assign(t, {v("i")}, at(b, v("i")) * lit(2.0));
  };
  auto read = [&] {
    return assign(c, {v("i")},
                  (contracted ? sref("t_s") : at(t, v("i"))) + lit(1.0));
  };
  p.append(loop("i", 8, 40, when(ir::CmpOp::kGe, v("i"), k(12), write()),
                when(ir::CmpOp::kGe, v("i"), k(read_lo), read())));
  return p;
}

TEST(ProveStorageReduction, ContractionUnderOneGuardIsProven) {
  // The read sits under the same guard as the write that dominates it.
  const Program before = guarded_contraction(false, 12);
  const Program after = guarded_contraction(true, 12);
  const LegalityResult res = prove_storage_reduction(before, after);
  EXPECT_EQ(res.verdict, LegalityVerdict::kProven) << res.reason;
  EXPECT_NEAR(checksum(before), checksum(after), 1e-9);
}

TEST(ProveStorageReduction, ReadGuardedMoreWeaklyThanItsWriteIsNeverProven) {
  // At i = 10, 11 the read runs but the write does not: the original reads
  // t's initial contents, the contracted program a stale scalar.
  expect_refuted_and_unproven(guarded_contraction(false, 10),
                              guarded_contraction(true, 10), false);
}

/// t[i] = b*2 (killed by t[i] = b+3 in the same iteration), c[i] = t[i];
/// with `observed`, d[i] = t[i] reads t between the two writes.
Program killed_write(bool eliminated, bool observed) {
  Program p("t");
  const ArrayId t = p.add_array("t", {56});
  const ArrayId b = p.add_array("b", {56});
  const ArrayId c = p.add_array("c", {56});
  const ArrayId d = p.add_array("d", {56});
  p.mark_output_array(c);
  p.mark_output_array(d);
  if (eliminated) p.add_scalar("t_t");
  auto write = [&](ir::ExprPtr rhs) {
    return eliminated ? assign("t_t", std::move(rhs))
                      : assign(t, {v("i")}, std::move(rhs));
  };
  ir::StmtList body;
  body.push_back(write(at(b, v("i")) * lit(2.0)));
  // The surviving read keeps referencing the array in both programs.
  if (observed) body.push_back(assign(d, {v("i")}, at(t, v("i")) + lit(1.0)));
  body.push_back(write(at(b, v("i")) + lit(3.0)));
  body.push_back(assign(
      c, {v("i")}, (eliminated ? sref("t_t") : at(t, v("i"))) * lit(0.5)));
  p.append(ir::make_loop("i", 8, 40, std::move(body)));
  return p;
}

TEST(ProveStoreElimination, KilledWriteIsProven) {
  const Program before = killed_write(false, false);
  const auto result = transform::eliminate_stores(before);
  ASSERT_FALSE(result.eliminated.empty());
  const LegalityResult res = prove_store_elimination(before, result.program);
  EXPECT_EQ(res.verdict, LegalityVerdict::kProven) << res.reason;
  EXPECT_NEAR(checksum(before), checksum(result.program), 1e-9);
}

TEST(ProveStoreElimination, KilledWriteASurvivingReadObservesIsNeverProven) {
  expect_refuted_and_unproven(killed_write(false, true),
                              killed_write(true, true), true);
}

// -- Pass-manager integration: static-first verification ----------------------

/// Count verifier outcomes across a pipeline run: how many checks ran at
/// all, and how many of them were discharged by a static certificate.
void count_checks(const core::OptimizeResult& result, int* ran,
                  int* statically) {
  for (const auto& report : result.pipeline.passes) {
    if (!report.verify.ran) continue;
    ++*ran;
    if (report.verify.check.rfind("static-", 0) == 0) ++*statically;
  }
}

TEST(StaticFirstVerification, AcceptanceBarAcrossBundledWorkloads) {
  const struct {
    const char* name;
    Program program;
  } rows[] = {
      {"fig7", workloads::fig7_original(1000)},
      {"fig6", workloads::fig6_original(2000)},
      {"sec21", workloads::sec21_both_loops(1000)},
      {"jacobi", workloads::jacobi_chain(1000, 4)},
      {"adi", workloads::adi_like(200)},
      {"blur", workloads::blur_sharpen(1000)},
      {"cascade", workloads::reduction_cascade(1000, 3)},
  };
  int ran = 0;
  int statically = 0;
  for (const auto& row : rows) {
    core::OptimizerOptions opts;  // static-first is the default
    const core::OptimizeResult result = core::optimize(row.program, opts);
    int row_ran = 0;
    int row_static = 0;
    count_checks(result, &row_ran, &row_static);
    ran += row_ran;
    statically += row_static;
    // Every workload applies at least one verified transform.
    EXPECT_GT(row_ran, 0) << row.name;
  }
  ASSERT_GT(ran, 0);
  const double share =
      static_cast<double>(statically) / static_cast<double>(ran);
  EXPECT_GE(share, 0.8) << statically << " of " << ran
                        << " checks were static certificates";
}

TEST(StaticFirstVerification, OffModeUsesTraceValidatorOnly) {
  core::OptimizerOptions opts;
  opts.static_verify = pass::StaticVerifyMode::kOff;
  const core::OptimizeResult result =
      core::optimize(workloads::fig7_original(500), opts);
  for (const auto& report : result.pipeline.passes) {
    if (!report.verify.ran) continue;
    EXPECT_NE(report.verify.check.rfind("static-", 0), 0u)
        << report.pass << " used " << report.verify.check;
  }
}

/// t[i,j] written and read under the two-variable guard i <= j: storage
/// reduction contracts t, but the guard cannot be split into per-variable
/// ranges, so the static prover answers kUnknown.
Program triangular_contraction(std::int64_t n) {
  Program p("triangle");
  const ArrayId t = p.add_array("t", {n, n});
  const ArrayId x = p.add_array("x", {n, n});
  const ArrayId y = p.add_array("y", {n, n});
  p.mark_output_array(y);
  p.append(loop("j", 1, n,
                loop("i", 1, n,
                     when(ir::CmpOp::kLe, v("i"), v("j"),
                          assign(t, {v("i"), v("j")},
                                 at(x, v("i"), v("j")) * lit(2.0)),
                          assign(y, {v("i"), v("j")},
                                 at(t, v("i"), v("j")) + lit(1.0))))));
  return p;
}

TEST(StaticFirstVerification, OnlyModeNeverTracesAndSkipsUnknowns) {
  // The triangular contraction is outside the static prover's model: in
  // kOnly mode its check must be reported as skipped, not silently
  // certified and not trace-validated.
  core::OptimizerOptions opts;
  opts.static_verify = pass::StaticVerifyMode::kOnly;
  const core::OptimizeResult result =
      core::optimize(triangular_contraction(64), opts);
  bool saw_skipped_unknown = false;
  for (const auto& report : result.pipeline.passes) {
    if (!report.verify.ran) continue;
    EXPECT_EQ(report.verify.check.rfind("static-", 0), 0u)
        << report.pass << " used " << report.verify.check;
    if (report.verify.skipped) saw_skipped_unknown = true;
  }
  EXPECT_TRUE(saw_skipped_unknown) << core::render_log(result);
}

TEST(StaticFirstVerification, ChecksumPreservedUnderAllModes) {
  const Program p = workloads::blur_sharpen(500);
  const double before = runtime::execute(p).checksum;
  for (const auto mode :
       {pass::StaticVerifyMode::kOn, pass::StaticVerifyMode::kOff,
        pass::StaticVerifyMode::kOnly}) {
    core::OptimizerOptions opts;
    opts.static_verify = mode;
    const core::OptimizeResult result = core::optimize(p, opts);
    EXPECT_NEAR(before, runtime::execute(result.program).checksum,
                1e-9 * (std::abs(before) + 1.0))
        << pass::static_verify_mode_name(mode);
  }
}

TEST(StaticFirstVerification, OnlyModeProvesEveryProgramWorkload) {
  // Every `bwcopt --program` workload proves every check statically, at a
  // small and a large n: no trace replay is ever needed.
  for (std::int64_t n : {64, 2048}) {
    const struct {
      const char* name;
      Program program;
    } rows[] = {
        {"fig6", workloads::fig6_original(n)},
        {"fig7", workloads::fig7_original(n)},
        {"sec21", workloads::sec21_both_loops(n)},
        {"jacobi", workloads::jacobi_chain(n, 4)},
        {"adi", workloads::adi_like(n)},
        {"blur", workloads::blur_sharpen(n)},
        {"cascade", workloads::reduction_cascade(n, 3)},
        {"stride", workloads::transposed_sweep(n)},
    };
    for (const auto& row : rows) {
      core::OptimizerOptions opts;
      opts.static_verify = pass::StaticVerifyMode::kOnly;
      const core::OptimizeResult result = core::optimize(row.program, opts);
      for (const auto& report : result.pipeline.passes) {
        EXPECT_FALSE(report.verify.skipped)
            << row.name << " n=" << n << " " << report.pass << ": "
            << report.verify.skip_reason;
      }
    }
  }
}

/// The fixed random draw of the proof-rate bar: random_program (n = 256)
/// and random_program_2d (n = 16), seeds 0-199 each.
std::vector<Program> fixed_random_draw(bool two_d) {
  std::vector<Program> out;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Prng rng(seed);
    if (two_d) {
      out.push_back(workloads::random_program_2d(rng, 16));
    } else {
      workloads::RandomProgramParams params;
      params.n = 256;
      out.push_back(workloads::random_program(rng, params));
    }
  }
  return out;
}

TEST(StaticFirstVerification, FixedRandomDrawProvesAtLeast95Percent) {
  for (bool two_d : {false, true}) {
    int ran = 0;
    int proven = 0;
    for (const Program& p : fixed_random_draw(two_d)) {
      core::OptimizerOptions opts;
      opts.static_verify = pass::StaticVerifyMode::kOnly;
      const core::OptimizeResult result = core::optimize(p, opts);
      for (const auto& report : result.pipeline.passes) {
        if (!report.verify.ran) continue;
        ++ran;
        if (!report.verify.skipped) ++proven;
      }
    }
    ASSERT_GT(ran, 0);
    EXPECT_GE(proven, 0.95 * ran)
        << (two_d ? "random_program_2d: " : "random_program: ") << proven
        << " of " << ran << " checks proven";
  }
}

TEST(StaticFirstVerification, EveryProofAgreesWithTheTraceValidator) {
  // Differential oracle: each pass output of the fixed draw is checked
  // twice, static-only and trace-only; a static certificate must never
  // stand where the trace validator finds a violation.
  int proofs = 0;
  for (bool two_d : {false, true}) {
    for (const Program& p : fixed_random_draw(two_d)) {
      Program prev = p.clone();
      core::OptimizerOptions opts;
      opts.print_after = [&](const pass::Pass& pass, const Program& now) {
        if (ir::equal(prev, now)) return;
        const Report proof =
            pass.check(prev, now, {2'000'000, pass::StaticVerifyMode::kOnly});
        if (proof.check.rfind("static-", 0) == 0 && proof.ok() &&
            !proof.skipped) {
          ++proofs;
          const Report trace =
              pass.check(prev, now, {2'000'000, pass::StaticVerifyMode::kOff});
          EXPECT_TRUE(trace.ok() && !trace.skipped)
              << pass.name() << " proven but refuted by " << trace.check
              << ":\n" << trace.render() << "\nbefore:\n"
              << ir::to_string(prev) << "after:\n" << ir::to_string(now);
        }
        prev = now.clone();
      };
      core::optimize(p, opts);
    }
  }
  EXPECT_GT(proofs, 400);
}

}  // namespace
}  // namespace bwc::verify
