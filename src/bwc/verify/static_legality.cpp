#include "bwc/verify/static_legality.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

namespace bwc::verify {
namespace {

constexpr std::int64_t kSpan = std::int64_t{1} << 40;

using Vars = std::vector<std::string>;

int level_of(const Vars& vars, const std::string& name) {
  auto it = std::find(vars.begin(), vars.end(), name);
  return it == vars.end() ? -1 : static_cast<int>(it - vars.begin());
}

// ---------------------------------------------------------------------------
// Atoms: assignment sites annotated with their top statement index.

struct Atom {
  int top = 0;
  AssignSite site;
  bool reduction = false;
  ir::BinOp reduction_op = ir::BinOp::kAdd;
};

std::vector<Atom> collect_atoms(const ir::Program& program, bool* exact) {
  std::vector<Atom> atoms;
  *exact = true;
  for (std::size_t t = 0; t < program.top().size(); ++t) {
    SiteWalk walk = collect_assign_sites(*program.top()[t]);
    if (walk.inexact_sites > 0) *exact = false;
    for (auto& site : walk.sites) {
      Atom a;
      a.top = static_cast<int>(t);
      a.site = std::move(site);
      a.reduction = reduction_shape(*a.site.stmt, &a.reduction_op);
      atoms.push_back(std::move(a));
    }
  }
  return atoms;
}

/// Number of leading loop levels the two atoms literally share (same loop
/// statements of the same top-level statement).
int common_levels(const Atom& x, const Atom& y) {
  if (x.top != y.top) return 0;
  int n = static_cast<int>(
      std::min(x.site.loop_addr.size(), y.site.loop_addr.size()));
  int common = 0;
  while (common < n) {
    int k = x.site.loop_addr[common];
    if (y.site.loop_addr[common] != k) break;
    if (!std::equal(x.site.path.begin(), x.site.path.begin() + k,
                    y.site.path.begin()))
      break;
    ++common;
  }
  return common;
}

/// Same-iteration execution order: negative when x executes first.
int path_order(const Atom& x, const Atom& y) {
  if (x.top != y.top) return x.top < y.top ? -1 : 1;
  if (x.site.path < y.site.path) return -1;
  if (y.site.path < x.site.path) return 1;
  return 0;
}

// ---------------------------------------------------------------------------
// Affine normalization of expression subtrees.

std::optional<ir::Affine> as_affine(const ir::Expr& e) {
  switch (e.kind) {
    case ir::ExprKind::kConst: {
      double v = e.value;
      if (std::floor(v) == v && std::abs(v) <= 1e15)
        return ir::Affine::constant(static_cast<std::int64_t>(v));
      return std::nullopt;
    }
    case ir::ExprKind::kLoopVar:
      return ir::Affine::var(e.loop_var);
    case ir::ExprKind::kBinary: {
      if (e.operands.size() != 2) return std::nullopt;
      auto a = as_affine(*e.operands[0]);
      auto b = as_affine(*e.operands[1]);
      if (!a || !b) return std::nullopt;
      switch (e.op) {
        case ir::BinOp::kAdd:
          return *a + *b;
        case ir::BinOp::kSub:
          return *a - *b;
        case ir::BinOp::kMul:
          if (a->is_constant()) return *b * a->constant_term();
          if (b->is_constant()) return *a * b->constant_term();
          return std::nullopt;
        default:
          return std::nullopt;
      }
    }
    default:
      return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Reschedule matcher: does after-atom `a` implement before-atom `b` under a
// per-level shift/permutation instance map?

struct LevelMap {
  /// Per before level: matched after level (-1 when the before level is a
  /// singleton not represented in the after nest).
  std::vector<int> to_after;
  /// Iteration correspondence for mapped levels: after = before + shift.
  std::vector<std::int64_t> shift;
};

class RescheduleMatcher {
 public:
  RescheduleMatcher(const Atom& before, const Atom& after)
      : b_(before), a_(after) {}

  std::optional<LevelMap> match() {
    const ir::Stmt& sb = *b_.site.stmt;
    const ir::Stmt& sa = *a_.site.stmt;
    if (!b_.site.exact_domain || !a_.site.exact_domain) return std::nullopt;
    if (sb.kind != sa.kind) return std::nullopt;
    if (sb.kind == ir::StmtKind::kArrayAssign) {
      if (sb.lhs_array != sa.lhs_array) return std::nullopt;
      if (sb.lhs_subscripts.size() != sa.lhs_subscripts.size())
        return std::nullopt;
      for (std::size_t k = 0; k < sb.lhs_subscripts.size(); ++k)
        pairs_.push_back({sb.lhs_subscripts[k], sa.lhs_subscripts[k]});
    } else {
      if (sb.lhs_scalar != sa.lhs_scalar) return std::nullopt;
    }
    if (static_cast<bool>(sb.rhs) != static_cast<bool>(sa.rhs))
      return std::nullopt;
    if (sb.rhs && !compare(*sb.rhs, *sa.rhs)) return std::nullopt;
    return infer();
  }

 private:
  const Atom& b_;
  const Atom& a_;
  std::vector<std::pair<ir::Affine, ir::Affine>> pairs_;

  bool compare(const ir::Expr& eb, const ir::Expr& ea) {
    auto fb = as_affine(eb);
    auto fa = as_affine(ea);
    if (fb && fa) {
      pairs_.push_back({*fb, *fa});
      return true;
    }
    if (static_cast<bool>(fb) != static_cast<bool>(fa)) return false;
    if (eb.kind != ea.kind) return false;
    switch (eb.kind) {
      case ir::ExprKind::kConst:
        return eb.value == ea.value;
      case ir::ExprKind::kScalarRef:
        return eb.scalar == ea.scalar;
      case ir::ExprKind::kArrayRef: {
        if (eb.array != ea.array) return false;
        if (eb.subscripts.size() != ea.subscripts.size()) return false;
        for (std::size_t k = 0; k < eb.subscripts.size(); ++k)
          pairs_.push_back({eb.subscripts[k], ea.subscripts[k]});
        return true;
      }
      case ir::ExprKind::kInput: {
        if (eb.input_key != ea.input_key) return false;
        if (eb.input_extents != ea.input_extents) return false;
        if (eb.subscripts.size() != ea.subscripts.size()) return false;
        for (std::size_t k = 0; k < eb.subscripts.size(); ++k)
          pairs_.push_back({eb.subscripts[k], ea.subscripts[k]});
        return true;
      }
      case ir::ExprKind::kBinary:
      case ir::ExprKind::kCall: {
        if (eb.kind == ir::ExprKind::kBinary && eb.op != ea.op) return false;
        if (eb.kind == ir::ExprKind::kCall &&
            (eb.callee != ea.callee || eb.call_flops != ea.call_flops))
          return false;
        if (eb.operands.size() != ea.operands.size()) return false;
        for (std::size_t k = 0; k < eb.operands.size(); ++k)
          if (!compare(*eb.operands[k], *ea.operands[k])) return false;
        return true;
      }
      default:
        return false;
    }
  }

  std::optional<LevelMap> infer() {
    int nb = static_cast<int>(b_.site.loop_vars.size());
    int na = static_cast<int>(a_.site.loop_vars.size());
    // Bind before variables to after variables by matching coefficients
    // within each affine pair, iterating to a fixpoint so unambiguous
    // pairs resolve ambiguous ones.
    std::map<std::string, std::string> bind;     // before var -> after var
    std::map<std::string, std::string> claimed;  // after var -> before var
    for (const auto& [fb, fa] : pairs_)
      if (fb.terms().size() != fa.terms().size()) return std::nullopt;
    bool progress = true;
    while (progress) {
      progress = false;
      for (const auto& [fb, fa] : pairs_) {
        for (const auto& [ub, cb] : fb.terms()) {
          if (bind.count(ub)) continue;
          std::string candidate;
          int count = 0;
          for (const auto& [wa, ca] : fa.terms()) {
            if (ca != cb) continue;
            auto cl = claimed.find(wa);
            if (cl != claimed.end()) continue;
            // Skip after-vars already matched to another var of this pair.
            bool taken = false;
            for (const auto& [ub2, cb2] : fb.terms()) {
              auto b2 = bind.find(ub2);
              if (b2 != bind.end() && b2->second == wa) taken = true;
            }
            if (taken) continue;
            candidate = wa;
            ++count;
          }
          if (count == 1) {
            bind[ub] = candidate;
            claimed[candidate] = ub;
            progress = true;
          }
        }
      }
    }
    // Verify the binding fully explains every pair's variables.
    for (const auto& [fb, fa] : pairs_) {
      for (const auto& [ub, cb] : fb.terms()) {
        auto it = bind.find(ub);
        if (it == bind.end()) return std::nullopt;  // ambiguous
        if (fa.coeff(it->second) != cb) return std::nullopt;
      }
    }
    // Resolve variable names to levels; bound vars must exist in the nests.
    LevelMap map;
    map.to_after.assign(nb, -1);
    map.shift.assign(nb, 0);
    std::vector<bool> shift_known(nb, false);
    std::vector<bool> after_claimed(na, false);
    for (const auto& [ub, wa] : bind) {
      int mb = level_of(b_.site.loop_vars, ub);
      int ma = level_of(a_.site.loop_vars, wa);
      if (mb < 0 || ma < 0) return std::nullopt;
      map.to_after[mb] = ma;
      after_claimed[ma] = true;
    }
    // A level no affine pair mentions leaves the statement's value
    // independent of that loop variable (`acc = acc + 0.5`): pair it with
    // the unclaimed after level of the same name. The domain check below
    // still has to hold.
    for (int m = 0; m < nb; ++m) {
      if (map.to_after[m] >= 0) continue;
      const int p = level_of(a_.site.loop_vars, b_.site.loop_vars[m]);
      if (p < 0 || after_claimed[p]) continue;
      map.to_after[m] = p;
      after_claimed[p] = true;
    }
    // Shifts: each pair yields sum_u coeff_u * shift_u = const_b - const_a.
    // Solve equations with a single unknown until fixpoint.
    progress = true;
    while (progress) {
      progress = false;
      for (const auto& [fb, fa] : pairs_) {
        std::int64_t rhs = fb.constant_term() - fa.constant_term();
        int unknowns = 0;
        std::int64_t ucoeff = 0;
        int ulevel = -1;
        bool bad = false;
        for (const auto& [ub, cb] : fb.terms()) {
          int mb = level_of(b_.site.loop_vars, ub);
          if (mb < 0) {
            bad = true;
            break;
          }
          if (shift_known[mb]) {
            rhs -= cb * map.shift[mb];
          } else {
            ++unknowns;
            ucoeff = cb;
            ulevel = mb;
          }
        }
        if (bad) return std::nullopt;
        if (unknowns == 1) {
          if (ucoeff == 0 || rhs % ucoeff != 0) return std::nullopt;
          map.shift[ulevel] = rhs / ucoeff;
          shift_known[ulevel] = true;
          progress = true;
        }
      }
    }
    // Underdetermined shifts: pin from the domain correspondence.
    for (int m = 0; m < nb; ++m) {
      if (map.to_after[m] < 0 || shift_known[m]) continue;
      const VarDomain& db = b_.site.domains[m];
      const VarDomain& da = a_.site.domains[map.to_after[m]];
      if (db.empty() || da.empty()) return std::nullopt;
      map.shift[m] = da.hull().lo - db.hull().lo;
      shift_known[m] = true;
    }
    // Re-verify every pair's constant under the final shifts.
    for (const auto& [fb, fa] : pairs_) {
      std::int64_t want = fb.constant_term();
      for (const auto& [ub, cb] : fb.terms()) {
        int mb = level_of(b_.site.loop_vars, ub);
        want -= cb * map.shift[mb];
      }
      if (want != fa.constant_term()) return std::nullopt;
    }
    // Unmapped levels on either side must be singletons (one instance).
    for (int m = 0; m < nb; ++m)
      if (map.to_after[m] < 0 && b_.site.domains[m].size() != 1)
        return std::nullopt;
    for (int p = 0; p < na; ++p)
      if (!after_claimed[p] && a_.site.domains[p].size() != 1)
        return std::nullopt;
    // Mapped domains must correspond exactly under the shift.
    for (int m = 0; m < nb; ++m) {
      if (map.to_after[m] < 0) continue;
      const VarDomain& db = b_.site.domains[m];
      const VarDomain& da = a_.site.domains[map.to_after[m]];
      if (db.ranges.size() != da.ranges.size()) return std::nullopt;
      for (std::size_t k = 0; k < db.ranges.size(); ++k) {
        if (db.ranges[k].lo + map.shift[m] != da.ranges[k].lo ||
            db.ranges[k].hi + map.shift[m] != da.ranges[k].hi)
          return std::nullopt;
      }
    }
    return map;
  }
};

// ---------------------------------------------------------------------------
// Order classes: partitions of the instance-pair space by which side
// executes first, each expressed as bounded-difference constraints over the
// *after* iteration variables of the matched atoms.

struct DiffConstraint {
  /// PairSystem slot-a side: value = a-level var + shift (level -1 means
  /// the value is just `shift`, a constant). Same for the b side. The
  /// constraint is (b value) - (a value) in `range`.
  int a_level = -1;
  std::int64_t a_shift = 0;
  int b_level = -1;
  std::int64_t b_shift = 0;
  Interval range;
};

struct OrderClass {
  std::vector<DiffConstraint> constraints;
  int order = 0;  // -1: slot-a first, +1: slot-b first
};

/// Value of before-level m of an atom, expressed over its matched after
/// atom's levels: (after_level, shift) with after_level == -1 for a
/// constant. before = after - map.shift, constants come from singleton
/// before domains.
std::pair<int, std::int64_t> before_value(const Atom& before,
                                          const LevelMap& map, int m) {
  if (map.to_after[m] >= 0) return {map.to_after[m], -map.shift[m]};
  return {-1, before.site.domains[m].hull().lo};
}

/// Order classes of the *before* pair (A, B), with constraints over the
/// matched after atoms' variables. `self` marks A and B being the same
/// atom (the all-deltas-zero class is the identity and is skipped).
std::vector<OrderClass> before_classes(const Atom& A, const Atom& B,
                                       const LevelMap& mapA,
                                       const LevelMap& mapB, bool self) {
  std::vector<OrderClass> out;
  if (A.top != B.top) {
    OrderClass c;
    c.order = A.top < B.top ? -1 : 1;
    out.push_back(std::move(c));
    return out;
  }
  int cb = common_levels(A, B);
  for (int l = 0; l < cb; ++l) {
    for (int sign = -1; sign <= 1; sign += 2) {
      OrderClass c;
      for (int m = 0; m < l; ++m) {
        auto [va, sa] = before_value(A, mapA, m);
        auto [vb, sb] = before_value(B, mapB, m);
        c.constraints.push_back({va, sa, vb, sb, {0, 0}});
      }
      auto [va, sa] = before_value(A, mapA, l);
      auto [vb, sb] = before_value(B, mapB, l);
      Interval r = sign < 0 ? Interval{-kSpan, -1} : Interval{1, kSpan};
      c.constraints.push_back({va, sa, vb, sb, r});
      // delta = B - A; positive delta means A's instance is earlier.
      c.order = sign < 0 ? 1 : -1;
      out.push_back(std::move(c));
    }
  }
  int po = path_order(A, B);
  if (!self && po != 0) {
    OrderClass c;
    for (int m = 0; m < cb; ++m) {
      auto [va, sa] = before_value(A, mapA, m);
      auto [vb, sb] = before_value(B, mapB, m);
      c.constraints.push_back({va, sa, vb, sb, {0, 0}});
    }
    c.order = po;
    out.push_back(std::move(c));
  }
  return out;
}

/// Order classes of the *after* pair (A', B'): direct deltas.
std::vector<OrderClass> after_classes(const Atom& A, const Atom& B,
                                      bool self) {
  std::vector<OrderClass> out;
  if (A.top != B.top) {
    OrderClass c;
    c.order = A.top < B.top ? -1 : 1;
    out.push_back(std::move(c));
    return out;
  }
  int ca = common_levels(A, B);
  for (int l = 0; l < ca; ++l) {
    for (int sign = -1; sign <= 1; sign += 2) {
      OrderClass c;
      for (int m = 0; m < l; ++m)
        c.constraints.push_back({m, 0, m, 0, {0, 0}});
      Interval r = sign < 0 ? Interval{-kSpan, -1} : Interval{1, kSpan};
      c.constraints.push_back({l, 0, l, 0, r});
      c.order = sign < 0 ? 1 : -1;
      out.push_back(std::move(c));
    }
  }
  int po = path_order(A, B);
  if (!self && po != 0) {
    OrderClass c;
    for (int m = 0; m < ca; ++m)
      c.constraints.push_back({m, 0, m, 0, {0, 0}});
    c.order = po;
    out.push_back(std::move(c));
  }
  return out;
}

/// Two classes bound the same variable difference to disjoint ranges, so
/// their conjunction needs no system.
bool classes_contradict(const OrderClass& x, const OrderClass& y) {
  for (const DiffConstraint& p : x.constraints) {
    for (const DiffConstraint& q : y.constraints) {
      if (p.a_level != q.a_level || p.b_level != q.b_level) continue;
      // (b + b_shift) - (a + a_shift) in range, as a range for b - a.
      const std::int64_t dp = p.a_shift - p.b_shift;
      const std::int64_t dq = q.a_shift - q.b_shift;
      if (std::max(p.range.lo + dp, q.range.lo + dq) >
          std::min(p.range.hi + dp, q.range.hi + dq))
        return true;
    }
  }
  return false;
}

void apply_class(PairSystem* sys, const OrderClass& c) {
  for (const auto& k : c.constraints) {
    int va = k.a_level >= 0 ? sys->a_var(k.a_level) : -1;
    int vb = k.b_level >= 0 ? sys->b_var(k.b_level) : -1;
    sys->bound_difference(va, k.a_shift, vb, k.b_shift, k.range);
  }
}

// ---------------------------------------------------------------------------
// prove_reschedule

struct MatchedAtoms {
  std::vector<Atom> before;
  std::vector<Atom> after;
  /// before[i] corresponds to after[pair[i]].
  std::vector<int> pair;
  std::vector<LevelMap> maps;
};

std::optional<MatchedAtoms> match_atoms(const ir::Program& before,
                                        const ir::Program& after) {
  bool exact_b = true, exact_a = true;
  MatchedAtoms m;
  m.before = collect_atoms(before, &exact_b);
  m.after = collect_atoms(after, &exact_a);
  if (!exact_b || !exact_a) return std::nullopt;
  if (m.before.size() != m.after.size()) return std::nullopt;
  std::vector<bool> used(m.after.size(), false);
  m.pair.assign(m.before.size(), -1);
  m.maps.resize(m.before.size());
  for (std::size_t i = 0; i < m.before.size(); ++i) {
    for (std::size_t j = 0; j < m.after.size(); ++j) {
      if (used[j]) continue;
      RescheduleMatcher rm(m.before[i], m.after[j]);
      if (auto map = rm.match()) {
        m.pair[i] = static_cast<int>(j);
        m.maps[i] = std::move(*map);
        used[j] = true;
        break;
      }
    }
    if (m.pair[i] < 0) return std::nullopt;
  }
  return m;
}

bool same_decls(const ir::Program& before, const ir::Program& after) {
  if (before.arrays().size() != after.arrays().size()) return false;
  for (std::size_t i = 0; i < before.arrays().size(); ++i) {
    const auto& a = before.arrays()[i];
    const auto& b = after.arrays()[i];
    if (a.name != b.name || a.extents != b.extents ||
        a.elem_bytes != b.elem_bytes)
      return false;
  }
  auto outputs = [](const ir::Program& p) {
    std::set<std::string> out(p.output_scalars().begin(),
                              p.output_scalars().end());
    for (ir::ArrayId id : p.output_arrays()) out.insert(p.array(id).name);
    return out;
  };
  return outputs(before) == outputs(after);
}

/// Writes to scalar `s` across all atoms are commutative reductions with
/// one common operator (the trace validator's relaxation precondition).
bool reduction_scalar(const std::vector<Atom>& atoms, const std::string& s,
                      ir::BinOp* op) {
  bool any = false;
  for (const auto& at : atoms) {
    const ir::Stmt& st = *at.site.stmt;
    if (st.kind != ir::StmtKind::kScalarAssign || st.lhs_scalar != s)
      continue;
    if (!at.reduction) return false;
    if (any && at.reduction_op != *op) return false;
    *op = at.reduction_op;
    any = true;
  }
  return any;
}

}  // namespace

const char* legality_verdict_name(LegalityVerdict v) {
  switch (v) {
    case LegalityVerdict::kProven:
      return "proven";
    case LegalityVerdict::kRefuted:
      return "refuted";
    case LegalityVerdict::kUnknown:
      return "unknown";
  }
  return "?";
}

Report LegalityResult::to_report(const std::string& check,
                                 const std::string& code) const {
  Report r;
  r.check = check;
  r.instances_checked = static_cast<std::uint64_t>(pairs_checked);
  switch (verdict) {
    case LegalityVerdict::kProven:
      r.info(code + "-proven",
             "statically proven over " + std::to_string(pairs_checked) +
                 " conflicting reference pair(s)");
      break;
    case LegalityVerdict::kRefuted:
      r.error(code + "-refuted", reason.empty() ? "dependence order reversed"
                                                : reason);
      break;
    case LegalityVerdict::kUnknown:
      r.skipped = true;
      r.skip_reason = reason.empty() ? "static proof incomplete" : reason;
      break;
  }
  return r;
}

LegalityResult prove_reschedule(const ir::Program& before,
                                const ir::Program& after) {
  LegalityResult res;
  if (!same_decls(before, after)) {
    res.reason = "decl-mismatch";
    return res;
  }
  auto matched = match_atoms(before, after);
  if (!matched) {
    res.reason = "atom-match-failed";
    return res;
  }
  const MatchedAtoms& m = *matched;

  // Reduction relaxation: per scalar whose writes are all commutative
  // reductions with one op, write-write order (and the accumulator's own
  // read) is exempt. Must hold in both programs; atoms match structurally,
  // so checking the before program suffices, but verify both for safety.
  std::set<std::string> relaxed;
  {
    std::set<std::string> scalars;
    for (const auto& at : m.before)
      if (at.site.stmt->kind == ir::StmtKind::kScalarAssign)
        scalars.insert(at.site.stmt->lhs_scalar);
    for (const auto& s : scalars) {
      ir::BinOp op_b = ir::BinOp::kAdd, op_a = ir::BinOp::kAdd;
      if (reduction_scalar(m.before, s, &op_b) &&
          reduction_scalar(m.after, s, &op_a) && op_b == op_a)
        relaxed.insert(s);
    }
  }

  std::vector<std::vector<AffineRef>> after_refs;
  for (const Atom& a : m.after) after_refs.push_back(site_refs(after, a.site));
  bool refuted = false;
  for (std::size_t i = 0; i < m.before.size() && !refuted; ++i) {
    for (std::size_t j = i; j < m.before.size() && !refuted; ++j) {
      const Atom& A = m.before[i];
      const Atom& B = m.before[j];
      const Atom& Ap = m.after[m.pair[i]];
      const Atom& Bp = m.after[m.pair[j]];
      bool self = i == j;
      const std::vector<AffineRef>& ra = after_refs[m.pair[i]];
      const std::vector<AffineRef>& rb = after_refs[m.pair[j]];
      std::vector<OrderClass> bcs;
      std::vector<OrderClass> acs;
      bool classes_built = false;
      for (std::size_t x = 0; x < ra.size(); ++x) {
        std::size_t y0 = self ? x : 0;
        for (std::size_t y = y0; y < rb.size(); ++y) {
          const AffineRef& fa = ra[x];
          const AffineRef& fb = rb[y];
          if (fa.array != fb.array || fa.scalar != fb.scalar) continue;
          if (!fa.write && !fb.write) continue;
          if (!fa.scalar.empty() && relaxed.count(fa.scalar)) {
            // Write-write between reduction updates, and a reduction's
            // read of its own accumulator, are order-exempt.
            bool a_upd = Ap.reduction && Ap.site.stmt->lhs_scalar == fa.scalar;
            bool b_upd = Bp.reduction && Bp.site.stmt->lhs_scalar == fb.scalar;
            if (a_upd && b_upd) continue;
          }
          ++res.pairs_checked;
          // Unconstrained conflict test first: provably disjoint pairs
          // need no order reasoning.
          {
            PairSystem sys(fa, fb);
            if (self) {
              // Exclude the identity instance: some level must differ.
              // Handled below by the per-level classes; here only test
              // overall feasibility.
            }
            Feasibility f = sys.solve();
            if (f.verdict == Verdict::kIndependent) continue;
          }
          if (!classes_built) {
            bcs = before_classes(A, B, m.maps[i], m.maps[j], self);
            acs = after_classes(Ap, Bp, self);
            classes_built = true;
          }
          bool pair_unknown = false;
          for (const auto& bc : bcs) {
            for (const auto& ac : acs) {
              if (bc.order == ac.order || classes_contradict(bc, ac)) continue;
              PairSystem sys(fa, fb);
              apply_class(&sys, bc);
              apply_class(&sys, ac);
              Feasibility f = sys.solve();
              if (f.verdict == Verdict::kDependent) {
                res.verdict = LegalityVerdict::kRefuted;
                res.reason = "dependence-reversed: " +
                             (fa.array.empty() ? fa.scalar : fa.array);
                refuted = true;
              } else if (f.verdict == Verdict::kUnknown) {
                pair_unknown = true;
              }
              if (refuted) break;
            }
            if (refuted) break;
          }
          if (pair_unknown && !refuted) ++res.pairs_unknown;
        }
      }
    }
  }
  if (refuted) return res;
  if (res.pairs_unknown > 0) {
    res.verdict = LegalityVerdict::kUnknown;
    res.reason = "conflict-undecided";
    return res;
  }
  res.verdict = LegalityVerdict::kProven;
  return res;
}

// ---------------------------------------------------------------------------
// Value flow: storage reduction and store elimination.
//
// Both rewrites run every assignment of `before` in the same place -- a
// guard split may run one assignment as two arms with disjoint domains --
// and change only where some arrays' values live. References to a *moved*
// array become references to fresh storage (a scalar, a column buffer, a
// peeled column), and copies between fresh locations may be inserted (the
// rotation copy `a_prev[i] = a_cur[i]`, the peel copy under `j == lo`).
// Untouched locations see the identical access sequence, so the proof
// reduces to one obligation per read of a moved array: the write instance
// whose value the read observes in `after` (found by following copies back
// to an assignment) is the instance the original read observes in
// `before`. Reaching writes are found by guess and check: a candidate
// instance (same iteration, the previous iteration at a shared level, or a
// writer's last iteration) must provably write the element, precede the
// read, and have no write of the element strictly in between. Each is an
// integer feasibility question over the reader's iteration box, so a proof
// never enumerates instances and holds for every n.

namespace {

/// A set of iterations of the reader being resolved: one domain per loop
/// level of that ("root") reader.
using Box = std::vector<VarDomain>;

/// coeff * x[var] + k, with x the loop levels of the root reader (or of a
/// writer, for write subscripts); var -1 is a constant. Value-flow proofs
/// need at most one variable per subscript or instance coordinate.
struct Lin {
  int var = -1;
  std::int64_t coeff = 0;
  std::int64_t k = 0;

  static Lin of(int var, std::int64_t coeff, std::int64_t k) {
    return coeff == 0 ? Lin{-1, 0, k} : Lin{var, coeff, k};
  }
  static Lin constant(std::int64_t k) { return {-1, 0, k}; }
  bool is_constant() const { return var < 0; }
  Lin operator+(std::int64_t d) const { return {var, coeff, k + d}; }
};

std::optional<Lin> to_lin(const ir::Affine& e, const Vars& vars) {
  if (e.is_constant()) return Lin::constant(e.constant_term());
  if (e.terms().size() != 1) return std::nullopt;
  const auto& [name, c] = *e.terms().begin();
  const int l = level_of(vars, name);
  if (l < 0) return std::nullopt;
  return Lin::of(l, c, e.constant_term());
}

bool to_lins(const std::vector<ir::Affine>& es, const Vars& vars,
             std::vector<Lin>* out) {
  out->clear();
  for (const auto& e : es) {
    auto l = to_lin(e, vars);
    if (!l) return false;
    out->push_back(*l);
  }
  return true;
}

/// a - b, when that still has at most one variable.
std::optional<Lin> minus(const Lin& a, const Lin& b) {
  if (b.is_constant()) return Lin{a.var, a.coeff, a.k - b.k};
  if (a.is_constant()) return Lin{b.var, -b.coeff, a.k - b.k};
  if (a.var != b.var) return std::nullopt;
  return Lin::of(a.var, a.coeff - b.coeff, a.k - b.k);
}

/// `w`, over a writer's levels, at the writer instance `inst`.
Lin compose(const Lin& w, const std::vector<Lin>& inst) {
  if (w.is_constant()) return w;
  const Lin& v = inst[static_cast<std::size_t>(w.var)];
  return Lin::of(v.var, v.coeff * w.coeff, v.k * w.coeff + w.k);
}

VarDomain intersect(const VarDomain& a, const VarDomain& b) {
  VarDomain out;
  std::size_t i = 0, j = 0;
  while (i < a.ranges.size() && j < b.ranges.size()) {
    Interval c{std::max(a.ranges[i].lo, b.ranges[j].lo),
               std::min(a.ranges[i].hi, b.ranges[j].hi)};
    if (!c.empty()) out.ranges.push_back(c);
    if (a.ranges[i].hi < b.ranges[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

VarDomain subtract(const VarDomain& a, const VarDomain& b) {
  VarDomain out;
  for (const Interval& r : a.ranges) {
    std::int64_t lo = r.lo;
    for (const Interval& c : b.ranges) {
      if (c.hi < lo) continue;
      if (c.lo > r.hi) break;
      if (c.lo > lo) out.ranges.push_back({lo, c.lo - 1});
      lo = c.hi + 1;
      if (lo > r.hi) break;
    }
    if (lo <= r.hi) out.ranges.push_back({lo, r.hi});
  }
  return out;
}

/// Sorted, merged union of intervals.
VarDomain union_of(std::vector<Interval> ivs) {
  std::sort(ivs.begin(), ivs.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  VarDomain out;
  for (const Interval& iv : ivs) {
    if (iv.empty()) continue;
    if (!out.ranges.empty() && iv.lo <= out.ranges.back().hi + 1) {
      out.ranges.back().hi = std::max(out.ranges.back().hi, iv.hi);
    } else {
      out.ranges.push_back(iv);
    }
  }
  return out;
}

bool box_empty(const Box& b) {
  return std::any_of(b.begin(), b.end(),
                     [](const VarDomain& d) { return d.empty(); });
}

Box box_intersect(const Box& a, const Box& b) {
  Box out(a.size());
  for (std::size_t l = 0; l < a.size(); ++l) out[l] = intersect(a[l], b[l]);
  return out;
}

/// `whole` minus `part` (part inside whole) as disjoint boxes.
std::vector<Box> box_minus(const Box& whole, const Box& part) {
  std::vector<Box> out;
  Box prefix = whole;
  for (std::size_t l = 0; l < whole.size(); ++l) {
    Box piece = prefix;
    piece[l] = subtract(whole[l], part[l]);
    if (!piece[l].empty()) out.push_back(std::move(piece));
    prefix[l] = part[l];
  }
  return out;
}

/// Narrow `box` to the iterations where `e` takes a value in `allowed`;
/// false when none is left. Exact: each range of `allowed` is two guards
/// on e's variable, cut with the interval.h splitter.
bool narrow(Box* box, const Lin& e, const VarDomain& allowed) {
  if (e.is_constant()) return allowed.contains(e.k);
  VarDomain& d = (*box)[static_cast<std::size_t>(e.var)];
  std::vector<Interval> keep, unused;
  for (const Interval& have : d.ranges) {
    for (const Interval& r : allowed.ranges) {
      std::vector<Interval> at_least;
      split_guard(ir::CmpOp::kGe, e.coeff, e.k - r.lo, have, &at_least,
                  &unused);
      for (const Interval& g : at_least)
        split_guard(ir::CmpOp::kLe, e.coeff, e.k - r.hi, g, &keep, &unused);
    }
  }
  d = union_of(std::move(keep));
  return !d.empty();
}

/// `e` is zero everywhere in `box`.
bool zero_over(const Box& box, const Lin& e) {
  if (e.is_constant()) return e.k == 0;
  const VarDomain& d = box[static_cast<std::size_t>(e.var)];
  return d.size() == 1 && e.coeff * d.ranges.front().lo + e.k == 0;
}

std::string location(char kind, const std::string& name) {
  std::string key(1, kind);
  key += ':';
  key += name;
  return key;
}

/// Location key and subscripts of an array or scalar reference.
bool ref_location(const ir::Program& p, const ir::Expr& e, std::string* loc,
                  std::vector<ir::Affine>* subs) {
  if (e.kind == ir::ExprKind::kArrayRef) {
    *loc = location('a', p.array(e.array).name);
    *subs = e.subscripts;
    return true;
  }
  if (e.kind == ir::ExprKind::kScalarRef) {
    *loc = location('s', e.scalar);
    subs->clear();
    return true;
  }
  return false;
}

/// One assignment with the location it writes.
struct FlowAtom {
  const Atom* atom = nullptr;
  std::string loc;               // "a:<array>" or "s:<scalar>"
  std::vector<ir::Affine> subs;  // written element
  std::vector<Lin> tuple;        // the same over the atom's levels
  bool lin = false;              // `tuple` is valid
  int before = -1;               // after side: the before atom it runs
  bool copy = false;             // after side: a fresh-to-fresh copy
  std::string src_loc;           // copy: the location it reads
  std::vector<Lin> src_tuple;
};

FlowAtom flow_atom(const ir::Program& p, const Atom& a) {
  FlowAtom f;
  f.atom = &a;
  const ir::Stmt& s = *a.site.stmt;
  if (s.kind == ir::StmtKind::kArrayAssign) {
    f.loc = location('a', p.array(s.lhs_array).name);
    f.subs = s.lhs_subscripts;
  } else {
    f.loc = location('s', s.lhs_scalar);
  }
  f.lin = to_lins(f.subs, a.site.loop_vars, &f.tuple);
  return f;
}

/// A read being resolved: atom `atom` at instance `inst` reads element
/// `tuple` of `loc`.
struct Reader {
  int atom = -1;
  std::vector<Lin> inst;
  std::string loc;
  std::vector<Lin> tuple;
};

/// Part of a read's iterations with the assignment instance it observes;
/// atom -1 means the location's initial contents.
struct Origin {
  Box box;
  int atom = -1;
  std::vector<Lin> inst;
};

/// J[level] - value in range, for an instance J of some writer.
struct LevelBound {
  int level = 0;
  Lin value;
  Interval range;
};
using OrderCase = std::vector<LevelBound>;

/// The cases in which an instance of `w` runs strictly after (`later`) or
/// strictly before instance `inst` of `x`, as bounds on w's levels.
std::vector<OrderCase> order_cases(const Atom& x, const std::vector<Lin>& inst,
                                   const Atom& w, bool later) {
  std::vector<OrderCase> out;
  if (x.top != w.top) {
    if ((w.top > x.top) == later) out.emplace_back();
    return out;
  }
  const int cl = common_levels(x, w);
  for (int l = 0; l < cl; ++l) {
    OrderCase c;
    for (int m = 0; m < l; ++m) c.push_back({m, inst[m], {0, 0}});
    c.push_back({l, inst[l], later ? Interval{1, kSpan} : Interval{-kSpan, -1}});
    out.push_back(std::move(c));
  }
  const int po = path_order(x, w);  // 0 only for the same assignment
  if (later ? po < 0 : po > 0) {
    OrderCase c;
    for (int m = 0; m < cl; ++m) c.push_back({m, inst[m], {0, 0}});
    out.push_back(std::move(c));
  }
  return out;
}

/// Two cases bound one level to ranges that cannot meet.
bool contradictory(const OrderCase& a, const OrderCase& b) {
  for (const LevelBound& x : a) {
    for (const LevelBound& y : b) {
      if (x.level != y.level) continue;
      const auto d = minus(y.value, x.value);
      if (!d || !d->is_constant()) continue;
      if (std::max(x.range.lo, y.range.lo + d->k) >
          std::min(x.range.hi, y.range.hi + d->k))
        return true;
    }
  }
  return false;
}

/// The levels of an instance of `w` that writing the element `rd` reads
/// pins: a unit subscript c*J[m] + k == t gives J[m] = c*(t - k).
std::vector<std::optional<Lin>> pinned_by_element(const FlowAtom& w,
                                                  const Reader& rd) {
  std::vector<std::optional<Lin>> pinned(w.atom->site.loop_vars.size());
  for (std::size_t d = 0; d < w.tuple.size() && d < rd.tuple.size(); ++d) {
    const Lin& s = w.tuple[d];
    if (s.is_constant() || (s.coeff != 1 && s.coeff != -1) || pinned[s.var])
      continue;
    const Lin& t = rd.tuple[d];
    pinned[s.var] = Lin::of(t.var, t.coeff * s.coeff, (t.k - s.k) * s.coeff);
  }
  return pinned;
}

/// The assignments of one program, indexed by the location they write.
class FlowSide {
 public:
  explicit FlowSide(std::vector<FlowAtom> atoms) : atoms_(std::move(atoms)) {
    for (std::size_t i = 0; i < atoms_.size(); ++i)
      writers_[atoms_[i].loc].push_back(static_cast<int>(i));
  }

  const std::vector<FlowAtom>& atoms() const { return atoms_; }

  /// Split `region` (iterations of the root reader, whose loop variables
  /// are `vars`) into pieces, each with the assignment instance the read
  /// observes there, following copies back to their source. False when
  /// some piece cannot be resolved.
  bool resolve(const Vars& vars, const Reader& rd, const Box& region,
               std::vector<Origin>* out, int* pairs, int depth = 0) const {
    if (depth > static_cast<int>(atoms_.size())) return false;
    const std::vector<int>& writers = writers_of(rd.loc);
    for (int w : writers)
      if (!atoms_[w].lin) return false;
    std::vector<Box> work{region};
    for (int budget = kMaxPieces; !work.empty(); --budget) {
      if (budget == 0) return false;
      Box box = std::move(work.back());
      work.pop_back();
      bool claimed = false;
      // Later writers first: usually the nearest one reaches the read.
      for (auto w = writers.rbegin(); w != writers.rend() && !claimed; ++w) {
        const FlowAtom& fw = atoms_[*w];
        for (const auto& inst : candidates(fw, rd)) {
          Box part = box;
          if (!admits(fw, inst, rd, &part) ||
              !nothing_between(vars, &fw, inst, rd, part, pairs))
            continue;
          if (fw.copy) {
            Reader next{*w, inst, fw.src_loc, {}};
            for (const Lin& s : fw.src_tuple)
              next.tuple.push_back(compose(s, inst));
            if (!resolve(vars, next, part, out, pairs, depth + 1))
              return false;
          } else {
            out->push_back({part, *w, inst});
          }
          for (auto& rest : box_minus(box, part))
            work.push_back(std::move(rest));
          claimed = true;
          break;
        }
      }
      if (claimed) continue;
      // No write reaches this piece: it must read initial contents.
      if (!nothing_between(vars, nullptr, {}, rd, box, pairs)) return false;
      out->push_back({std::move(box), -1, {}});
    }
    return true;
  }

 private:
  /// Bound on the pieces one read may be split into.
  static constexpr int kMaxPieces = 64;

  std::vector<FlowAtom> atoms_;
  std::map<std::string, std::vector<int>> writers_;

  const std::vector<int>& writers_of(const std::string& loc) const {
    static const std::vector<int> kNone;
    auto it = writers_.find(loc);
    return it == writers_.end() ? kNone : it->second;
  }

  /// Candidate instances of `w` that may produce the element `rd` reads:
  /// levels pinned by the write subscripts, the others the reader's own
  /// iteration -- or, from one shared level k on, the previous iteration
  /// at k (or the last of one of w's ranges there) and w's last iteration
  /// below it. Latest first.
  std::vector<std::vector<Lin>> candidates(const FlowAtom& w,
                                           const Reader& rd) const {
    const Atom& W = *w.atom;
    const Atom& R = *atoms_[rd.atom].atom;
    const int lw = static_cast<int>(W.site.loop_vars.size());
    const std::vector<std::optional<Lin>> pinned = pinned_by_element(w, rd);
    const int cl = W.top == R.top ? common_levels(W, R) : 0;
    std::vector<int> splits{-1};  // the same iteration is the latest
    for (int k = cl - 1; k >= 0; --k) splits.push_back(k);
    std::vector<std::vector<Lin>> out;
    for (int k : splits) {
      std::vector<Lin> inst(lw);
      std::vector<Lin> alts;
      for (int m = 0; m < lw; ++m) {
        const VarDomain& dom = W.site.domains[m];
        if (pinned[m]) {
          inst[m] = *pinned[m];
        } else if (m < cl && (k < 0 || m < k)) {
          inst[m] = rd.inst[m];
        } else if (m == k) {
          inst[m] = rd.inst[m] + -1;
          for (auto r = dom.ranges.rbegin(); r != dom.ranges.rend(); ++r)
            alts.push_back(Lin::constant(r->hi));
        } else {
          inst[m] = Lin::constant(dom.hull().hi);
        }
      }
      out.push_back(inst);
      for (const Lin& alt : alts) {
        out.push_back(inst);
        out.back()[k] = alt;
      }
    }
    return out;
  }

  /// Narrow `part` to the iterations where instance `inst` of `w` exists,
  /// writes the element `rd` reads, and runs before the read.
  bool admits(const FlowAtom& w, const std::vector<Lin>& inst,
              const Reader& rd, Box* part) const {
    const Atom& W = *w.atom;
    const Atom& R = *atoms_[rd.atom].atom;
    for (std::size_t m = 0; m < inst.size(); ++m)
      if (!narrow(part, inst[m], W.site.domains[m])) return false;
    if (w.tuple.size() != rd.tuple.size()) return false;
    for (std::size_t d = 0; d < w.tuple.size(); ++d) {
      const auto e = minus(compose(w.tuple[d], inst), rd.tuple[d]);
      if (!e || !narrow(part, *e, VarDomain::singleton(0))) return false;
    }
    if (W.top != R.top) return W.top < R.top;
    // Lexicographic precedence over the shared levels: strictly earlier at
    // the first level where that is possible, equal before it.
    const int cl = common_levels(W, R);
    for (int m = 0; m < cl; ++m) {
      const auto d = minus(inst[m], rd.inst[m]);
      if (!d) return false;
      Box earlier = *part;
      if (narrow(&earlier, *d, VarDomain::range(-kSpan, -1))) {
        *part = std::move(earlier);
        return true;
      }
      if (!narrow(part, *d, VarDomain::singleton(0))) return false;
    }
    return path_order(W, R) < 0;
  }

  /// No write of the element `rd` reads runs strictly between instance
  /// `inst` of `lo` (the program start when lo is null) and the read, for
  /// any iteration in `box`.
  bool nothing_between(const Vars& vars, const FlowAtom* lo,
                       const std::vector<Lin>& inst, const Reader& rd,
                       const Box& box, int* pairs) const {
    const Atom& R = *atoms_[rd.atom].atom;
    for (int w2 : writers_of(rd.loc)) {
      const FlowAtom& f2 = atoms_[w2];
      ++*pairs;
      if (meets(vars, rd, box, f2, {}) == Verdict::kIndependent) continue;
      const std::vector<OrderCase> after_lo =
          lo ? order_cases(*lo->atom, inst, *f2.atom, true)
             : std::vector<OrderCase>(1);
      const std::vector<OrderCase> before_rd =
          order_cases(R, rd.inst, *f2.atom, false);
      for (const OrderCase& c1 : after_lo) {
        for (const OrderCase& c2 : before_rd) {
          if (contradictory(c1, c2)) continue;
          OrderCase both = c1;
          both.insert(both.end(), c2.begin(), c2.end());
          if (meets(vars, rd, box, f2, both) != Verdict::kIndependent)
            return false;
        }
      }
    }
    return true;
  }

  /// Can an iteration in `box` read an element that an instance J of `w`
  /// satisfying `bounds` writes? Decided by elimination when every level
  /// of J is pinned (by an equality bound or a unit write subscript) or
  /// only range-bounded and otherwise unused; else by a PairSystem.
  Verdict meets(const Vars& vars, const Reader& rd, Box box,
                const FlowAtom& w, const OrderCase& bounds) const {
    const Atom& W = *w.atom;
    const std::size_t lw = W.site.loop_vars.size();
    std::vector<std::optional<Lin>> pin = pinned_by_element(w, rd);
    for (const LevelBound& b : bounds)
      if (b.range.lo == b.range.hi && !pin[b.level])
        pin[b.level] = b.value + b.range.lo;
    bool exact = true;
    bool met = true;
    auto require = [&](const std::optional<Lin>& e, const VarDomain& allowed) {
      if (!e) {
        exact = false;
      } else if (met && !narrow(&box, *e, allowed)) {
        met = false;
      }
    };
    std::vector<std::vector<const LevelBound*>> loose(lw);
    for (const LevelBound& b : bounds) {
      if (pin[b.level]) {
        require(minus(*pin[b.level], b.value),
                VarDomain::range(b.range.lo, b.range.hi));
      } else {
        loose[b.level].push_back(&b);
      }
    }
    for (std::size_t m = 0; m < lw; ++m) {
      if (pin[m]) {
        require(pin[m], W.site.domains[m]);
        continue;
      }
      if (loose[m].empty()) continue;
      // J[m] appears only in range bounds: some J in its domain fits them
      // all iff the reader's variable lies in a computable set.
      const Lin base = loose[m].front()->value;
      Interval fit = loose[m].front()->range;
      for (const LevelBound* b : loose[m]) {
        const auto d = minus(b->value, base);
        if (!d || !d->is_constant()) {
          exact = false;
          break;
        }
        fit = {std::max(fit.lo, b->range.lo + d->k),
               std::min(fit.hi, b->range.hi + d->k)};
      }
      if (fit.empty()) met = false;
      if (!exact || !met) break;
      // J - base in fit, J in dom  <=>  base in dom - fit.
      std::vector<Interval> reach;
      for (const Interval& r : W.site.domains[m].ranges)
        reach.push_back({r.lo - fit.hi, r.hi - fit.lo});
      require(Lin::of(base.var, base.coeff, base.k), union_of(reach));
    }
    for (std::size_t d = 0; d < w.tuple.size() && exact; ++d) {
      const Lin& s = w.tuple[d];
      if (!s.is_constant() && !pin[s.var]) {
        exact = false;
        break;
      }
      std::vector<Lin> at(lw);
      for (std::size_t m = 0; m < lw; ++m)
        if (pin[m]) at[m] = *pin[m];
      require(minus(compose(s, at), rd.tuple[d]), VarDomain::singleton(0));
    }
    if (!met) return Verdict::kIndependent;
    if (exact) return Verdict::kDependent;
    return pair_system(vars, rd, box, w, bounds);
  }

  /// The general fallback of meets(): the same question as a PairSystem.
  static Verdict pair_system(const Vars& vars, const Reader& rd,
                             const Box& box, const FlowAtom& w,
                             const OrderCase& bounds) {
    auto affine = [&vars](const Lin& l) {
      return l.is_constant() ? ir::Affine::constant(l.k)
                             : ir::Affine::var(vars[l.var], l.coeff, l.k);
    };
    AffineRef read;
    read.loop_vars = vars;
    read.domains = box;
    for (const Lin& t : rd.tuple) read.subscripts.push_back(affine(t));
    AffineRef write;
    write.loop_vars = w.atom->site.loop_vars;
    write.domains = w.atom->site.domains;
    write.subscripts = w.subs;
    PairSystem sys(read, write);
    for (const LevelBound& b : bounds) {
      if (!b.value.is_constant() && b.value.coeff != 1) return Verdict::kUnknown;
      sys.bound_difference(b.value.is_constant() ? -1 : sys.a_var(b.value.var),
                           b.value.k, sys.b_var(b.level), 0, b.range);
    }
    return sys.solve().verdict;
  }
};

/// One reference of an after assignment next to the reference of the
/// before assignment it runs (the lhs too, with `write` set).
struct RefPair {
  std::string before_loc;
  std::vector<ir::Affine> before_subs;
  std::string after_loc;
  std::vector<ir::Affine> after_subs;
  bool write = false;
};

struct Storage {
  const ir::Program& before;
  const ir::Program& after;
  std::set<std::string> fresh;  // locations only `after` declares
};

/// Structural equality of before/after expressions where an array
/// reference may move to fresh storage; records every array reference.
bool same_modulo_storage(const Storage& st, const ir::Expr& eb,
                         const ir::Expr& ea, std::vector<RefPair>* refs) {
  if (eb.kind == ir::ExprKind::kArrayRef) {
    RefPair rp;
    rp.before_loc = location('a', st.before.array(eb.array).name);
    rp.before_subs = eb.subscripts;
    if (!ref_location(st.after, ea, &rp.after_loc, &rp.after_subs))
      return false;
    if (st.fresh.count(rp.after_loc) == 0 &&
        (rp.after_loc != rp.before_loc || rp.after_subs != rp.before_subs))
      return false;
    refs->push_back(std::move(rp));
    return true;
  }
  if (eb.kind != ea.kind) return false;
  switch (eb.kind) {
    case ir::ExprKind::kConst:
      return eb.value == ea.value;
    case ir::ExprKind::kScalarRef:
      return eb.scalar == ea.scalar;
    case ir::ExprKind::kLoopVar:
      return eb.loop_var == ea.loop_var;
    case ir::ExprKind::kInput:
      return eb.input_key == ea.input_key &&
             eb.input_extents == ea.input_extents &&
             eb.subscripts == ea.subscripts;
    case ir::ExprKind::kBinary:
    case ir::ExprKind::kCall: {
      if (eb.kind == ir::ExprKind::kBinary && eb.op != ea.op) return false;
      if (eb.kind == ir::ExprKind::kCall &&
          (eb.callee != ea.callee || eb.call_flops != ea.call_flops))
        return false;
      if (eb.operands.size() != ea.operands.size()) return false;
      for (std::size_t k = 0; k < eb.operands.size(); ++k)
        if (!same_modulo_storage(st, *eb.operands[k], *ea.operands[k], refs))
          return false;
      return true;
    }
    case ir::ExprKind::kArrayRef:
      break;
  }
  return false;
}

/// Does after atom `x` run before atom `b`, on part of its domain, with
/// the same computation modulo moved storage?
bool runs_as(const Storage& st, const FlowAtom& b, const FlowAtom& x,
             std::vector<RefPair>* refs) {
  const Atom& B = *b.atom;
  const Atom& X = *x.atom;
  if (B.top != X.top || B.site.loop_vars != X.site.loop_vars) return false;
  for (std::size_t l = 0; l < B.site.domains.size(); ++l)
    if (!subtract(X.site.domains[l], B.site.domains[l]).empty()) return false;
  refs->clear();
  if (B.site.stmt->kind == ir::StmtKind::kScalarAssign) {
    if (x.loc != b.loc) return false;  // scalars never move
  } else {
    if (st.fresh.count(x.loc) == 0 && (x.loc != b.loc || x.subs != b.subs))
      return false;
    refs->push_back({b.loc, b.subs, x.loc, x.subs, true});
  }
  return same_modulo_storage(st, *B.site.stmt->rhs, *X.site.stmt->rhs, refs);
}

/// A copy between fresh locations: `F[...] = G[...]`.
bool as_copy(const Storage& st, FlowAtom* x) {
  std::vector<ir::Affine> src;
  if (st.fresh.count(x->loc) == 0 ||
      !ref_location(st.after, *x->atom->site.stmt->rhs, &x->src_loc, &src) ||
      st.fresh.count(x->src_loc) == 0 ||
      !to_lins(src, x->atom->site.loop_vars, &x->src_tuple))
    return false;
  x->copy = true;
  return true;
}

LegalityResult prove_value_flow(const ir::Program& before,
                                const ir::Program& after) {
  LegalityResult res;
  auto unknown = [&res](const char* why) {
    res.verdict = LegalityVerdict::kUnknown;
    res.reason = why;
    return res;
  };
  bool exact_b = true, exact_a = true;
  const std::vector<Atom> ba = collect_atoms(before, &exact_b);
  const std::vector<Atom> aa = collect_atoms(after, &exact_a);
  if (!exact_b || !exact_a) return unknown("unrefinable-guard");

  // `after` keeps every declaration of `before`, adds fresh storage, and
  // exposes the same outputs.
  if (after.array_count() < before.array_count())
    return unknown("decl-mismatch");
  for (int a = 0; a < before.array_count(); ++a) {
    const ir::ArrayDecl& db = before.array(a);
    const ir::ArrayDecl& da = after.array(a);
    if (db.name != da.name || db.extents != da.extents ||
        db.elem_bytes != da.elem_bytes || !(db.layout == da.layout))
      return unknown("decl-mismatch");
  }
  for (const auto& s : before.scalars())
    if (!after.has_scalar(s)) return unknown("decl-mismatch");
  auto outputs = [](const ir::Program& p) {
    std::set<std::string> out;
    for (const auto& s : p.output_scalars()) out.insert(location('s', s));
    for (ir::ArrayId id : p.output_arrays())
      out.insert(location('a', p.array(id).name));
    return out;
  };
  const std::set<std::string> outs = outputs(before);
  if (outs != outputs(after)) return unknown("output-mismatch");
  Storage st{before, after, {}};
  for (int a = before.array_count(); a < after.array_count(); ++a)
    st.fresh.insert(location('a', after.array(a).name));
  for (const auto& s : after.scalars())
    if (!before.has_scalar(s)) st.fresh.insert(location('s', s));

  // Align: each after atom runs the current or the next before atom (a
  // guard split runs one atom as arms with disjoint domains), or is a copy
  // between fresh locations.
  std::vector<FlowAtom> fb, fa;
  for (const Atom& a : ba) fb.push_back(flow_atom(before, a));
  for (const Atom& a : aa) fa.push_back(flow_atom(after, a));
  std::vector<std::vector<RefPair>> refs(aa.size());
  std::vector<std::vector<int>> runs(ba.size());
  int k = -1;
  for (std::size_t x = 0; x < aa.size(); ++x) {
    const Vars& vars = aa[x].site.loop_vars;
    if (std::set<std::string>(vars.begin(), vars.end()).size() != vars.size())
      return unknown("shadowed-loop-var");
    auto disjoint_arm = [&](int b) {
      for (int y : runs[b])
        if (!box_empty(box_intersect(aa[x].site.domains, aa[y].site.domains)))
          return false;
      return true;
    };
    if (k >= 0 && runs_as(st, fb[k], fa[x], &refs[x]) && disjoint_arm(k)) {
      // another arm of atom k
    } else if (k + 1 < static_cast<int>(ba.size()) &&
               runs_as(st, fb[k + 1], fa[x], &refs[x])) {
      ++k;
    } else if (as_copy(st, &fa[x])) {
      refs[x].clear();
      continue;
    } else {
      return unknown("atom-mismatch");
    }
    fa[x].before = k;
    runs[k].push_back(static_cast<int>(x));
  }
  if (k + 1 != static_cast<int>(ba.size())) return unknown("atom-mismatch");

  // The arms of each before atom cover its domain, and any two running
  // atoms share exactly the loops their before atoms share: every instance
  // runs once, in the original order.
  for (std::size_t b = 0; b < ba.size(); ++b) {
    std::vector<Box> rest{ba[b].site.domains};
    for (int y : runs[b]) {
      std::vector<Box> next;
      for (const Box& r : rest)
        for (auto& piece : box_minus(r, box_intersect(r, aa[y].site.domains)))
          next.push_back(std::move(piece));
      rest = std::move(next);
    }
    if (!rest.empty()) return unknown("instances-dropped");
  }
  for (std::size_t x = 0; x < aa.size(); ++x) {
    if (fa[x].copy) continue;
    for (std::size_t y = x + 1; y < aa.size(); ++y) {
      if (fa[y].copy) continue;
      if (common_levels(aa[x], aa[y]) !=
          common_levels(ba[fa[x].before], ba[fa[y].before]))
        return unknown("schedule-changed");
    }
  }

  // Moved arrays: some reference went to fresh storage. None may be an
  // output or still be written in `after`, so reads left in place see the
  // array's initial contents there.
  std::set<std::string> moved;
  for (const auto& rs : refs)
    for (const RefPair& rp : rs)
      if (st.fresh.count(rp.after_loc)) moved.insert(rp.before_loc);
  if (moved.empty()) return unknown("no-moved-storage");
  for (const auto& loc : moved)
    if (outs.count(loc)) return unknown("moved-array-is-output");
  for (const auto& rs : refs)
    for (const RefPair& rp : rs)
      if (rp.write && rp.after_loc == rp.before_loc &&
          moved.count(rp.before_loc))
        return unknown("partial-substitution");

  // The obligation: every read of a moved array observes, in both
  // programs, the same assignment instance.
  const FlowSide sb(std::move(fb));
  const FlowSide sa(std::move(fa));
  for (std::size_t x = 0; x < aa.size(); ++x) {
    const FlowAtom& fx = sa.atoms()[x];
    if (fx.copy) continue;
    const Vars& vars = aa[x].site.loop_vars;
    std::vector<Lin> identity;
    for (std::size_t l = 0; l < vars.size(); ++l)
      identity.push_back(Lin::of(static_cast<int>(l), 1, 0));
    const Box& region = aa[x].site.domains;
    for (const RefPair& rp : refs[x]) {
      if (rp.write || !moved.count(rp.before_loc)) continue;
      Reader rb{fx.before, identity, rp.before_loc, {}};
      Reader ra{static_cast<int>(x), identity, rp.after_loc, {}};
      std::vector<Origin> ob, oa;
      if (!to_lins(rp.before_subs, vars, &rb.tuple) ||
          !to_lins(rp.after_subs, vars, &ra.tuple) ||
          !sb.resolve(vars, rb, region, &ob, &res.pairs_checked))
        return unknown("reaching-write-unknown");
      if (rp.after_loc == rp.before_loc) {
        // Left in place: `after` never writes the array, so the original
        // read must see initial contents too.
        for (const Origin& o : ob)
          if (o.atom >= 0) return unknown("kept-read-observes-write");
        continue;
      }
      if (!sa.resolve(vars, ra, region, &oa, &res.pairs_checked))
        return unknown("reaching-write-unknown");
      for (const Origin& o1 : ob) {
        for (const Origin& o2 : oa) {
          const Box both = box_intersect(o1.box, o2.box);
          if (box_empty(both)) continue;
          if (o1.atom < 0 || o2.atom < 0 ||
              sa.atoms()[o2.atom].before != o1.atom)
            return unknown("value-flow-mismatch");
          for (std::size_t m = 0; m < o1.inst.size(); ++m) {
            const auto d = minus(o1.inst[m], o2.inst[m]);
            if (!d || !zero_over(both, *d))
              return unknown("value-flow-mismatch");
          }
        }
      }
    }
  }
  res.verdict = LegalityVerdict::kProven;
  return res;
}

}  // namespace

LegalityResult prove_store_elimination(const ir::Program& before,
                                       const ir::Program& after) {
  return prove_value_flow(before, after);
}

LegalityResult prove_storage_reduction(const ir::Program& before,
                                       const ir::Program& after) {
  return prove_value_flow(before, after);
}

LegalityResult prove_layout_change(const ir::Program& before,
                                   const ir::Program& after) {
  LegalityResult res;
  // Every declared layout in `after` must stand on its own: a malformed
  // permutation, negative padding, or incoherent interleave group is a
  // refutation, not an imprecision.
  for (int a = 0; a < after.array_count(); ++a) {
    try {
      after.array(a).check_layout();
      (void)ir::resolve_addressing(after, a);
    } catch (const std::exception& e) {
      res.reason = std::string("invalid-layout: ") + e.what();
      res.verdict = LegalityVerdict::kRefuted;
      return res;
    }
    ++res.pairs_checked;
  }
  // Strip layouts from both sides; what remains must be the identical
  // program. Anything else (a rewritten statement, a resized array) is
  // outside this prover's model.
  ir::Program sb = before.clone();
  ir::Program sa = after.clone();
  for (ir::Program* p : {&sb, &sa})
    for (int a = 0; a < p->array_count(); ++a)
      p->mutable_array(a).layout = ir::ArrayLayout{};
  if (!ir::equal(sb, sa)) {
    res.reason = "not-a-pure-layout-change";
    return res;
  }
  res.verdict = LegalityVerdict::kProven;
  return res;
}

}  // namespace bwc::verify
