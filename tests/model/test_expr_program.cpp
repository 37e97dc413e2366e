// The compiled batch evaluator's contract: bit-for-bit agreement with the
// tree-walk oracle Expr::eval over arbitrary expressions and datasets
// (including the protected-operator edge cases), real work reduction from
// CSE + constant folding, and thread-count-invariant SymReg fits.

#include "model/expr_program.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "model/expr_simd.hpp"
#include "model/feature_model.hpp"
#include "model/symreg.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace ftbesst::model {
namespace {

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Random dataset whose parameter values stress the protected operators:
/// zeros, denormal-scale magnitudes around the 1e-9 division guard,
/// negatives, and values big enough to overflow products.
Dataset random_dataset(util::Rng& rng, std::size_t num_params,
                       std::size_t rows) {
  std::vector<std::string> names;
  for (std::size_t d = 0; d < num_params; ++d)
    names.push_back("x" + std::to_string(d));
  Dataset data(std::move(names));
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> params(num_params);
    for (auto& p : params) {
      const double roll = rng.uniform();
      if (roll < 0.1) {
        p = 0.0;
      } else if (roll < 0.2) {
        p = rng.uniform(-2e-9, 2e-9);  // straddles the division guard
      } else if (roll < 0.3) {
        p = std::pow(10.0, rng.uniform(100.0, 200.0));  // overflow fodder
      } else {
        p = rng.uniform(-1e4, 1e4);
      }
    }
    data.add_row(std::move(params), {rng.uniform(0.1, 10.0)});
  }
  return data;
}

void expect_bitwise_match(const Expr& expr, const Dataset& data,
                          const std::string& context) {
  const ExprProgram prog = ExprProgram::compile(expr);
  std::vector<double> batch;
  EvalScratch scratch;
  prog.eval_dataset(data, batch, scratch);
  ASSERT_EQ(batch.size(), data.num_rows()) << context;
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    const double reference = expr.eval(data.row(r).params);
    EXPECT_TRUE(bits_equal(reference, batch[r]))
        << context << " row " << r << ": tree-walk " << reference
        << " vs compiled " << batch[r] << " for " << expr.to_sexpr();
    const double single = prog.eval(data.row(r).params);
    EXPECT_TRUE(bits_equal(reference, single))
        << context << " row " << r << " (single-point path)";
  }
}

TEST(ExprProgram, PropertyRandomExpressionsMatchTreeWalkBitForBit) {
  util::Rng rng(20240805);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t num_params = 1 + rng.uniform_int(4);
    const int depth = 1 + static_cast<int>(rng.uniform_int(7));
    const Dataset data = random_dataset(rng, num_params, 16);
    const Expr expr = Expr::random(rng, num_params, depth);
    expect_bitwise_match(expr, data, "trial " + std::to_string(trial));
  }
}

TEST(ExprProgram, StackEvalMatchesCompiledOnLargeAndNonFiniteTrees) {
  // Expr::eval's value stack against the compiled program on deep random
  // trees, with Inf and NaN inputs on top of random_dataset's overflow
  // fodder, so non-finite intermediates flow through every operator.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  util::Rng rng(20261018);
  Dataset data = random_dataset(rng, 3, 24);
  data.add_row({kInf, kNaN, -kInf}, {1.0});
  data.add_row({kNaN, 1e300, 0.0}, {1.0});
  data.add_row({-kInf, 1e-300, kInf}, {1.0});
  for (int trial = 0; trial < 150; ++trial) {
    const int depth = 3 + static_cast<int>(rng.uniform_int(8));
    expect_bitwise_match(Expr::random(rng, 3, depth), data,
                         "trial " + std::to_string(trial));
  }
  // (x0*x0 - x0*x0) is NaN for infinite x0 and feeds log and div in the
  // middle of the tree.
  const Expr sq = Expr::binary(Op::kMul, Expr::variable(0), Expr::variable(0));
  const Expr nan_mid = Expr::binary(
      Op::kDiv, Expr::unary(Op::kLog, Expr::binary(Op::kSub, sq, sq)),
      Expr::variable(1));
  expect_bitwise_match(nan_mid, data, "nan intermediate");
  // A left-deep sum of 100 terms: 401 nodes, and 100 values on the stack
  // at once, past Expr::eval's on-stack buffer, so the heap path runs.
  Expr sum = Expr::variable(0);
  for (int i = 0; i < 100; ++i)
    sum = Expr::binary(Op::kAdd, sum,
                       Expr::binary(Op::kMul, Expr::variable(i % 3),
                                    Expr::constant(0.5 + i)));
  ASSERT_EQ(sum.size(), 401u);
  expect_bitwise_match(sum, data, "spilled stack");
}

TEST(ExprProgram, DivisionGuardMatchesAtTheThreshold) {
  // x0 / x1 with denominators exactly at, just under, and just over 1e-9.
  const Expr expr = Expr::binary(Op::kDiv, Expr::variable(0),
                                 Expr::variable(1));
  Dataset data({"a", "b"});
  for (double den : {0.0, 1e-9, std::nextafter(1e-9, 0.0), -1e-9, 9.9e-10,
                     -9.9e-10, 2e-9, 1.0})
    data.add_row({3.5, den}, {1.0});
  expect_bitwise_match(expr, data, "division guard");
}

TEST(ExprProgram, NonFiniteRootClampsToZeroLikeTreeWalk) {
  // x0 * x0 overflows to +inf for |x0| ~ 1e200; (x0*x0) - (x0*x0) is then
  // inf - inf = NaN (and exercises CSE on the shared subterm). Both must
  // clamp to 0 exactly as Expr::eval does.
  const Expr sq = Expr::binary(Op::kMul, Expr::variable(0), Expr::variable(0));
  const Expr nan_expr =
      Expr::binary(Op::kSub, sq.clone(), sq.clone());
  Dataset data({"a"});
  data.add_row({1e200}, {1.0});
  data.add_row({-1e200}, {1.0});
  data.add_row({2.0}, {1.0});
  expect_bitwise_match(sq, data, "inf clamp");
  expect_bitwise_match(nan_expr, data, "nan clamp");
  const ExprProgram prog = ExprProgram::compile(nan_expr);
  std::vector<double> out;
  EvalScratch scratch;
  prog.eval_dataset(data, out, scratch);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
  EXPECT_EQ(out[2], 0.0);  // 4 - 4, legitimately zero
}

TEST(ExprProgram, ProtectedUnariesMatchOnNegatives) {
  const Expr log_expr = Expr::unary(Op::kLog, Expr::variable(0));
  const Expr sqrt_expr = Expr::unary(Op::kSqrt, Expr::variable(0));
  Dataset data({"a"});
  for (double v : {-100.0, -1.0, -1e-12, 0.0, 1e-12, 1.0, 100.0})
    data.add_row({v}, {1.0});
  expect_bitwise_match(log_expr, data, "protected log");
  expect_bitwise_match(sqrt_expr, data, "protected sqrt");
}

TEST(ExprProgram, OutOfRangeVariableReadsZero) {
  const Expr expr = Expr::binary(Op::kAdd, Expr::variable(7),
                                 Expr::variable(0));
  Dataset data({"a"});  // only one parameter; var 7 must read 0.0
  data.add_row({42.0}, {1.0});
  expect_bitwise_match(expr, data, "out-of-range var");
}

TEST(ExprProgram, ScalarScratchZerosAreAlignedAndPadded) {
  // The scalar strip path serves out-of-range variables from
  // EvalScratch::zeros, which must honour the same alignment/padding
  // invariant as dataset columns (the vector backends assert on it and
  // the strip loops are written against it).
  BackendOverrideGuard guard(EvalBackend::kScalar);
  const Expr expr = Expr::binary(Op::kAdd, Expr::variable(7),
                                 Expr::variable(0));
  Dataset data({"a"});
  for (int i = 0; i < 11; ++i) data.add_row({double(i)}, {1.0});
  const ExprProgram prog = ExprProgram::compile(expr);
  std::vector<double> out;
  EvalScratch scratch;
  prog.eval_dataset(data, out, scratch);
  ASSERT_GE(scratch.zeros.size(), data.num_rows());
  EXPECT_TRUE(is_simd_aligned(scratch.zeros.data()));
  for (std::size_t i = 0; i < padded_rows(scratch.zeros.size()); ++i)
    EXPECT_EQ(scratch.zeros.data()[i], 0.0);
  for (std::size_t r = 0; r < data.num_rows(); ++r)
    EXPECT_TRUE(bits_equal(out[r], double(r)));
}

TEST(ExprProgram, BareLeafRootsMaterialize) {
  // A tree that is just a variable (or just a constant) has no arithmetic
  // instruction to embed the leaf into, so the root itself must lower to a
  // kVar/kConst copy.
  Dataset data({"a", "b"});
  data.add_row({3.0, 4.0}, {1.0});
  data.add_row({-7.5, 0.0}, {1.0});
  expect_bitwise_match(Expr::variable(1), data, "bare variable root");
  expect_bitwise_match(Expr::variable(9), data, "bare out-of-range root");
  expect_bitwise_match(Expr::constant(2.5), data, "bare constant root");
}

TEST(ExprProgram, CommonSubexpressionsComputedOnce) {
  // (x0 + x1) * (x0 + x1): 7 tree nodes, but only 2 instructions — the
  // variables are direct column operands (no instruction at all), the sum
  // is computed once (CSE) and the product reuses its register twice.
  const Expr sum = Expr::binary(Op::kAdd, Expr::variable(0), Expr::variable(1));
  const Expr expr = Expr::binary(Op::kMul, sum.clone(), sum.clone());
  const ExprProgram prog = ExprProgram::compile(expr);
  EXPECT_EQ(prog.tree_nodes(), 7u);
  EXPECT_EQ(prog.num_instructions(), 2u);
}

TEST(ExprProgram, CompiledShapesAndBitsMatchRecorded) {
  // FNV-1a over (num_instructions, num_registers) and the eval_dataset bits
  // of 300 programs, recorded with the linear-scan CSE compiler: CSE only
  // merges exact duplicates, so any lookup structure must emit the same
  // programs. Every third tree is a sum of 40 random terms (well past 128
  // distinct subterms), and every fifth uses each of its subterms twice.
  util::Rng rng(20261019);
  const Dataset data = random_dataset(rng, 3, 16);
  ExprProgram prog;  // recycled, as the GP loop does
  std::vector<double> out;
  EvalScratch scratch;
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  std::size_t large = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Expr expr =
        Expr::random(rng, 3, 1 + static_cast<int>(rng.uniform_int(8)));
    if (trial % 3 == 2)
      for (int t = 0; t < 40; ++t)
        expr = Expr::binary(Op::kAdd, expr, Expr::random(rng, 3, 5));
    if (trial % 5 == 0)
      expr = Expr::binary(Op::kMul, expr, Expr::unary(Op::kLog, expr));
    ExprProgram::compile_into(expr, prog);
    if (prog.num_instructions() > 128) ++large;
    mix(prog.num_instructions());
    mix(prog.num_registers());
    prog.eval_dataset(data, out, scratch);
    for (double v : out) mix(std::bit_cast<std::uint64_t>(v));
  }
  EXPECT_EQ(large, 100u);  // every sum
  EXPECT_EQ(h, 0xcde525deeb8e7ae7ull);
}

/// Balanced sum of the terms x0 * c(i) for i in [lo, hi): 17 levels deep
/// for 2^16 terms, so compiling it recurses no deeper than that.
template <typename Literal>
Expr balanced_sum(std::size_t lo, std::size_t hi, Literal c) {
  if (hi - lo == 1)
    return Expr::binary(Op::kMul, Expr::variable(0), Expr::constant(c(lo)));
  const std::size_t mid = lo + (hi - lo) / 2;
  return Expr::binary(Op::kAdd, balanced_sum(lo, mid, c),
                      balanced_sum(mid, hi, c));
}

TEST(ExprProgram, MoreThan65535DistinctSubtermsThrows) {
  // 2^16 products with distinct literals plus 2^16 - 1 sums of distinct
  // operands: past the 16-bit register space.
  constexpr std::size_t kTerms = std::size_t{1} << 16;
  const Expr distinct =
      balanced_sum(0, kTerms, [](std::size_t i) { return 1.0 + double(i); });
  EXPECT_THROW((void)ExprProgram::compile(distinct), std::length_error);
  ExprProgram recycled;
  EXPECT_THROW(ExprProgram::compile_into(distinct, recycled),
               std::length_error);
  // The same shape with one literal: CSE leaves one product and one sum
  // per level, and the recycled program compiles it after the throw.
  const Expr repeated =
      balanced_sum(0, kTerms, [](std::size_t) { return 2.0; });
  ExprProgram::compile_into(repeated, recycled);
  EXPECT_EQ(recycled.num_instructions(), 17u);
  EXPECT_EQ(recycled.tree_nodes(), repeated.size());
  EXPECT_TRUE(bits_equal(recycled.eval(std::array{0.5}),
                         repeated.eval(std::array{0.5})));
}

TEST(ExprProgram, ConstantSubtreesFoldAtCompileTime) {
  // (2 * 3) + x0 folds the product and embeds both the folded literal and
  // the variable as direct operands of a single add; sqrt(log(5)) folds
  // entirely.
  const Expr expr = Expr::binary(
      Op::kAdd, Expr::binary(Op::kMul, Expr::constant(2.0), Expr::constant(3.0)),
      Expr::variable(0));
  const ExprProgram prog = ExprProgram::compile(expr);
  EXPECT_EQ(prog.num_instructions(), 1u);  // add(lit 6, col 0)

  const Expr all_const =
      Expr::unary(Op::kSqrt, Expr::unary(Op::kLog, Expr::constant(5.0)));
  const ExprProgram folded = ExprProgram::compile(all_const);
  EXPECT_EQ(folded.num_instructions(), 1u);
  EXPECT_TRUE(bits_equal(folded.eval({}),
                         std::sqrt(std::log(std::abs(5.0) + 1.0))));
}

TEST(ExprProgram, FoldingRespectsProtectedDivision) {
  // (1 / 0) folds to the numerator per the protection rule, same as eval.
  const Expr expr =
      Expr::binary(Op::kDiv, Expr::constant(1.5), Expr::constant(0.0));
  const ExprProgram prog = ExprProgram::compile(expr);
  EXPECT_EQ(prog.num_instructions(), 1u);
  EXPECT_TRUE(bits_equal(prog.eval({}), expr.eval({})));
  EXPECT_DOUBLE_EQ(prog.eval({}), 1.5);
}

TEST(ExprProgram, EmptyExpressionEvaluatesToZeros) {
  const ExprProgram prog = ExprProgram::compile(Expr{});
  EXPECT_TRUE(prog.empty());
  Dataset data({"a"});
  data.add_row({1.0}, {1.0});
  data.add_row({2.0}, {1.0});
  std::vector<double> out(5, 99.0);
  EvalScratch scratch;
  prog.eval_dataset(data, out, scratch);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
  EXPECT_EQ(prog.eval({}), 0.0);
}

TEST(Dataset, ColumnsMirrorRowsAndResponsesAreCached) {
  util::Rng rng(3);
  const Dataset data = random_dataset(rng, 3, 20);
  for (std::size_t d = 0; d < data.num_params(); ++d) {
    ASSERT_EQ(data.column(d).size(), data.num_rows());
    for (std::size_t r = 0; r < data.num_rows(); ++r)
      EXPECT_TRUE(bits_equal(data.column(d)[r], data.row(r).params[d]));
  }
  ASSERT_EQ(data.responses().size(), data.num_rows());
  for (std::size_t r = 0; r < data.num_rows(); ++r)
    EXPECT_TRUE(bits_equal(data.responses()[r], data.row(r).mean_response()));
}

TEST(PredictBatch, ExprModelMatchesPerRowPredict) {
  util::Rng rng(17);
  const Dataset data = random_dataset(rng, 2, 32);
  const Expr expr = Expr::binary(
      Op::kAdd, Expr::binary(Op::kMul, Expr::variable(0), Expr::variable(1)),
      Expr::unary(Op::kLog, Expr::variable(0)));
  const ExprModel model(expr.clone(), 2.5, -0.75, {"a", "b"});
  std::vector<double> batch;
  model.predict_batch(data, batch);
  ASSERT_EQ(batch.size(), data.num_rows());
  for (std::size_t r = 0; r < data.num_rows(); ++r)
    EXPECT_TRUE(bits_equal(batch[r], model.predict(data.row(r).params)));
}

TEST(PredictBatch, FeatureModelMatchesPerRowPredict) {
  util::Rng rng(19);
  Dataset data({"a", "b"});
  for (int i = 0; i < 12; ++i)
    data.add_row({rng.uniform(1.0, 50.0), rng.uniform(1.0, 50.0)},
                 {rng.uniform(0.5, 5.0)});
  const FeatureModel model = FeatureModel::fit(
      data, FeatureLibrary::polynomial(2), 1e-9);
  std::vector<double> batch;
  model.predict_batch(data, batch);
  ASSERT_EQ(batch.size(), data.num_rows());
  for (std::size_t r = 0; r < data.num_rows(); ++r)
    EXPECT_TRUE(bits_equal(batch[r], model.predict(data.row(r).params)));
}

TEST(SymRegParallel, ChampionIsThreadCountInvariant) {
  util::Rng rng(5);
  Dataset data({"a", "b"});
  for (double a : {1.0, 2.0, 3.0, 4.0, 5.0})
    for (double b : {2.0, 4.0, 8.0, 16.0})
      data.add_row({a, b}, {3.0 * a * b + 0.5 * b,
                            3.0 * a * b + 0.5 * b + rng.uniform(0.0, 0.01)});
  util::Rng r1(10), r2(10);
  const auto [tr1, te1] = data.split(0.75, r1);
  const auto [tr2, te2] = data.split(0.75, r2);

  util::TaskPool serial_pool(1);
  util::TaskPool wide_pool(4);
  SymRegConfig cfg;
  cfg.population = 96;
  cfg.generations = 25;
  cfg.seed = 42;
  cfg.pool = &serial_pool;
  const auto serial = SymbolicRegressor(cfg).fit(tr1, te1);
  cfg.pool = &wide_pool;
  const auto wide = SymbolicRegressor(cfg).fit(tr2, te2);

  ASSERT_TRUE(serial.model);
  ASSERT_TRUE(wide.model);
  EXPECT_EQ(serial.model->describe(), wide.model->describe());
  EXPECT_TRUE(bits_equal(serial.train_mape, wide.train_mape));
  EXPECT_TRUE(bits_equal(serial.test_mape, wide.test_mape));
  EXPECT_EQ(serial.generations_run, wide.generations_run);
  EXPECT_EQ(serial.best_history, wide.best_history);
}

TEST(SymRegParallel, SharedPoolDefaultAlsoMatchesSerial) {
  Dataset data({"n"});
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0})
    data.add_row({n}, {n * n + 1.0});
  SymRegConfig cfg;
  cfg.population = 64;
  cfg.generations = 12;
  cfg.seed = 7;
  util::TaskPool one(1);
  cfg.pool = &one;
  const auto a = SymbolicRegressor(cfg).fit(data, Dataset({"n"}));
  cfg.pool = nullptr;  // shared pool, whatever its width
  const auto b = SymbolicRegressor(cfg).fit(data, Dataset({"n"}));
  EXPECT_EQ(a.model->describe(), b.model->describe());
  EXPECT_TRUE(bits_equal(a.train_mape, b.train_mape));
}

}  // namespace
}  // namespace ftbesst::model
