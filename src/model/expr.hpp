#pragma once
// Expression trees for symbolic regression.
//
// An Expr stores its tree as one flat pre-order array of POD nodes: each
// operator node is followed by its operand subtrees, lhs first. A subtree
// is therefore a contiguous span, so copying is one vector copy, size() is
// O(1), and crossover/mutation are span splices written into a recycled
// Expr — the GP loop breeds thousands of trees per generation and, once
// its two populations have warmed up, allocates nothing.
//
// Operators are "protected" in the usual GP sense (division by ~0 returns
// the numerator, log/sqrt take magnitudes) so that every tree is total over
// the whole parameter space and evolution never has to reason about domain
// errors.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ftbesst::model {

enum class Op : std::uint8_t {
  kConst,
  kVar,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kLog,
  kSqrt
};

[[nodiscard]] constexpr bool is_binary(Op op) noexcept {
  return op == Op::kAdd || op == Op::kSub || op == Op::kMul || op == Op::kDiv;
}
[[nodiscard]] constexpr bool is_unary(Op op) noexcept {
  return op == Op::kLog || op == Op::kSqrt;
}

/// One node of the pre-order array. Only the field named by `op` is read.
struct ExprNode {
  Op op = Op::kConst;
  std::uint32_t var = 0;  // kVar
  double value = 0.0;     // kConst
};

/// Operand count of `op`: 0 for leaves, 1 for log/sqrt, 2 for arithmetic.
[[nodiscard]] constexpr int arity(Op op) noexcept {
  return is_binary(op) ? 2 : is_unary(op) ? 1 : 0;
}

class Expr {
 public:
  Expr() = default;  // empty; eval() of an empty Expr returns 0

  [[nodiscard]] static Expr constant(double v);
  /// Throws std::length_error for an index that does not fit 32 bits.
  [[nodiscard]] static Expr variable(std::size_t index);
  /// An empty operand stands for the constant 0 (as to_sexpr renders it).
  [[nodiscard]] static Expr binary(Op op, Expr lhs, Expr rhs);
  [[nodiscard]] static Expr unary(Op op, Expr operand);

  /// Grow-method random tree over `num_vars` variables.
  [[nodiscard]] static Expr random(util::Rng& rng, std::size_t num_vars,
                                   int max_depth);
  /// Subtree crossover: `out` becomes a copy of `a` with a random subtree
  /// replaced by a random subtree of `b`, or a copy of `a` if that would
  /// exceed `max_nodes`. `out` must not be `a` or `b`; its storage is
  /// reused, so the GP loop breeds each child into the Expr it replaces.
  static void crossover_into(const Expr& a, const Expr& b, util::Rng& rng,
                             std::size_t max_nodes, Expr& out);
  /// Point/subtree mutation of `e` into `out` (constant jitter, operator
  /// swap, or subtree regrowth), or a copy of `e` if the result would
  /// exceed `max_nodes`. `out` must not be `e`; its storage is reused.
  static void mutate_into(const Expr& e, util::Rng& rng, std::size_t num_vars,
                          int max_depth, std::size_t max_nodes, Expr& out);
  /// crossover_into / mutate_into returning a fresh Expr (same RNG draws).
  [[nodiscard]] static Expr crossover(const Expr& a, const Expr& b,
                                      util::Rng& rng, std::size_t max_nodes);
  [[nodiscard]] static Expr mutate(const Expr& e, util::Rng& rng,
                                   std::size_t num_vars, int max_depth,
                                   std::size_t max_nodes);

  // -- Evaluation semantics contract ---------------------------------------
  // Every evaluator of an expression tree (eval() here, the compiled
  // ExprProgram, and the constant folder in simplified()) implements the
  // SAME total function, bit for bit:
  //   * kDiv:  num / den, except |den| < 1e-9 returns num unchanged — there
  //            is no division by (near-)zero, hence no Inf/NaN from /0.
  //   * kLog:  log(|x| + 1), total over the reals.
  //   * kSqrt: sqrt(|x|), total over the reals.
  //   * kVar with an index >= vars.size() reads 0.0.
  //   * Intermediate overflow may still produce Inf (e.g. huge products),
  //     and Inf - Inf may produce NaN; these propagate through the
  //     remaining operations by ordinary IEEE-754 rules, and only the FINAL
  //     result is clamped: a non-finite root value evaluates to 0.0.
  // Operations are never reassociated or contracted, so any two evaluators
  // agree on every input. This is what lets SymReg memoize and batch-compile
  // fitness while keeping eval() as the reference oracle: a value-stack loop
  // over the nodes in reverse pre-order (a leaf pushes, an operator pops its
  // operands and pushes the result), independent of the bytecode compiler.
  [[nodiscard]] double eval(std::span<const double> vars) const;
  /// The nodes in pre-order (read by the ExprProgram compiler and the
  /// symreg memo key). Empty for an empty expression.
  [[nodiscard]] std::span<const ExprNode> nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] int depth() const;
  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }
  [[nodiscard]] Expr clone() const { return *this; }
  /// Render with the given variable names (falls back to x0,x1,...).
  [[nodiscard]] std::string str(
      std::span<const std::string> names = {}) const;

  /// Round-trippable S-expression form, e.g. "(mul (var 0) (const 3.5))".
  [[nodiscard]] std::string to_sexpr() const;
  /// Parse the S-expression form; throws std::invalid_argument on syntax
  /// errors or trailing input.
  [[nodiscard]] static Expr from_sexpr(const std::string& text);

  /// Algebraic simplification: constant folding and identity elimination
  /// (x+0, x*1, x*0, x-x, x/1, log/sqrt of constants, ...). Semantics are
  /// preserved exactly for every input (the protected-operator behaviour of
  /// eval() is respected — e.g. x/0 folds to x only when the denominator is
  /// a literal constant below the protection threshold). Returns a new
  /// expression; repeated application is idempotent.
  [[nodiscard]] Expr simplified() const;

 private:
  std::vector<ExprNode> nodes_;  // pre-order; empty for an empty Expr
};

}  // namespace ftbesst::model
