#include "model/expr.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "model/symreg.hpp"

namespace ftbesst::model {
namespace {

TEST(Expr, ConstantAndVariableEval) {
  const auto c = Expr::constant(2.5);
  EXPECT_DOUBLE_EQ(c.eval(std::array<double, 0>{}), 2.5);
  const auto v = Expr::variable(1);
  EXPECT_DOUBLE_EQ(v.eval(std::array{3.0, 7.0}), 7.0);
}

TEST(Expr, VariableBeyondInputIsZero) {
  const auto v = Expr::variable(5);
  EXPECT_DOUBLE_EQ(v.eval(std::array{1.0}), 0.0);
}

TEST(Expr, ArithmeticOps) {
  const std::array vars{6.0, 3.0};
  auto mk = [](Op op) {
    return Expr::binary(op, Expr::variable(0), Expr::variable(1));
  };
  EXPECT_DOUBLE_EQ(mk(Op::kAdd).eval(vars), 9.0);
  EXPECT_DOUBLE_EQ(mk(Op::kSub).eval(vars), 3.0);
  EXPECT_DOUBLE_EQ(mk(Op::kMul).eval(vars), 18.0);
  EXPECT_DOUBLE_EQ(mk(Op::kDiv).eval(vars), 2.0);
}

TEST(Expr, ProtectedDivisionReturnsNumerator) {
  const auto div = Expr::binary(Op::kDiv, Expr::constant(7.0),
                                Expr::constant(0.0));
  EXPECT_DOUBLE_EQ(div.eval(std::array<double, 0>{}), 7.0);
}

TEST(Expr, ProtectedLogAndSqrt) {
  const auto lg = Expr::unary(Op::kLog, Expr::constant(-9.0));
  EXPECT_NEAR(lg.eval(std::array<double, 0>{}), std::log(10.0), 1e-12);
  const auto sq = Expr::unary(Op::kSqrt, Expr::constant(-16.0));
  EXPECT_DOUBLE_EQ(sq.eval(std::array<double, 0>{}), 4.0);
}

TEST(Expr, EmptyExprEvalsToZero) {
  const Expr e;
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e.eval(std::array{1.0}), 0.0);
  EXPECT_EQ(e.size(), 0u);
}

TEST(Expr, SizeAndDepth) {
  const auto e = Expr::binary(
      Op::kAdd, Expr::variable(0),
      Expr::binary(Op::kMul, Expr::constant(2.0), Expr::variable(0)));
  EXPECT_EQ(e.size(), 5u);
  EXPECT_EQ(e.depth(), 3);
}

TEST(Expr, CloneIsDeepAndIndependent) {
  auto orig = Expr::binary(Op::kAdd, Expr::constant(1.0), Expr::variable(0));
  const Expr copy = orig.clone();
  EXPECT_EQ(copy.size(), orig.size());
  EXPECT_DOUBLE_EQ(copy.eval(std::array{5.0}), orig.eval(std::array{5.0}));
}

TEST(Expr, StrUsesNames) {
  const auto e = Expr::binary(Op::kMul, Expr::variable(0), Expr::variable(1));
  const std::array<std::string, 2> names{"epr", "ranks"};
  EXPECT_EQ(e.str(names), "(epr * ranks)");
  EXPECT_EQ(e.str(), "(x0 * x1)");
}

TEST(Expr, RandomRespectsDepthLimit) {
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto e = Expr::random(rng, 2, 4);
    EXPECT_LE(e.depth(), 4);
    EXPECT_GE(e.size(), 1u);
    // Always evaluable and finite.
    const double v = e.eval(std::array{3.0, 5.0});
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Expr, CrossoverStaysWithinNodeBudget) {
  util::Rng rng(4);
  const auto a = Expr::random(rng, 2, 5);
  const auto b = Expr::random(rng, 2, 5);
  for (int i = 0; i < 100; ++i) {
    const auto child = Expr::crossover(a, b, rng, 20);
    EXPECT_LE(child.size(), 20u);
    EXPECT_TRUE(std::isfinite(child.eval(std::array{1.0, 2.0})));
  }
}

TEST(Expr, MutateProducesValidTrees) {
  util::Rng rng(5);
  auto e = Expr::random(rng, 2, 4);
  for (int i = 0; i < 200; ++i) {
    e = Expr::mutate(e, rng, 2, 4, 30);
    EXPECT_LE(e.size(), 30u);
    EXPECT_TRUE(std::isfinite(e.eval(std::array{2.0, 8.0})));
  }
}

TEST(Expr, MutateEmptyRegrows) {
  util::Rng rng(6);
  const Expr empty;
  const auto e = Expr::mutate(empty, rng, 2, 3, 10);
  EXPECT_GE(e.size(), 1u);
}

// -- Flat pre-order representation ------------------------------------------

/// True if `nodes` is exactly one complete pre-order tree: every operand
/// slot is filled and nothing trails the root's last operand.
bool well_formed(std::span<const ExprNode> nodes, std::size_t num_vars) {
  std::size_t open = 1;
  for (const ExprNode& n : nodes) {
    if (open == 0) return false;
    if (n.op == Op::kVar && n.var >= num_vars) return false;
    open = open - 1 + static_cast<std::size_t>(arity(n.op));
  }
  return open == 0;
}

/// One generation of SymbolicRegressor-style breeding over three variables:
/// each child is a crossover (60%) or a mutation of uniformly drawn parents.
std::vector<Expr> breed_generation(const std::vector<Expr>& pop,
                                   util::Rng& rng, std::size_t max_nodes) {
  std::vector<Expr> next;
  next.reserve(pop.size());
  for (std::size_t k = 0; k < pop.size(); ++k) {
    const Expr& a = pop[rng.uniform_int(pop.size())];
    const Expr& b = pop[rng.uniform_int(pop.size())];
    next.push_back(rng.uniform() < 0.6
                       ? Expr::crossover(a, b, rng, max_nodes)
                       : Expr::mutate(a, rng, 3, 5, max_nodes));
  }
  return next;
}

/// Every offspring of `generations` generations from a seeded population.
std::vector<Expr> bred_offspring(std::uint64_t seed, int generations,
                                 std::size_t max_nodes) {
  util::Rng rng(seed);
  std::vector<Expr> pop;
  // Depth-3 parents (at most 7 nodes) stay within every budget tested, so
  // the clone-a-parent fallback of crossover/mutate does too.
  for (int i = 0; i < 16; ++i) pop.push_back(Expr::random(rng, 3, 3));
  std::vector<Expr> all;
  for (int gen = 0; gen < generations; ++gen) {
    pop = breed_generation(pop, rng, max_nodes);
    all.insert(all.end(), pop.begin(), pop.end());
  }
  return all;
}

TEST(ExprFlat, OffspringAreWellFormedWithinBudget) {
  for (std::size_t max_nodes : {std::size_t{12}, std::size_t{48}}) {
    const std::vector<Expr> all = bred_offspring(101, 300, max_nodes);
    for (const Expr& e : all) {
      ASSERT_TRUE(well_formed(e.nodes(), 3)) << e.to_sexpr();
      ASSERT_LE(e.size(), max_nodes) << e.to_sexpr();
    }
  }
}

TEST(ExprFlat, BreedingDrawsMatchRecordedSequence) {
  // FNV-1a over every offspring's S-expression for 300 generations, and the
  // next draw after them, recorded with the pointer-tree representation:
  // random, crossover and mutate consume the RNG in the same order and
  // pick the same sites.
  util::Rng rng(77);
  std::vector<Expr> pop;
  for (int i = 0; i < 16; ++i) pop.push_back(Expr::random(rng, 3, 5));
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int gen = 0; gen < 300; ++gen) {
    pop = breed_generation(pop, rng, 24);
    for (const Expr& e : pop)
      for (unsigned char c : e.to_sexpr()) {
        h ^= c;
        h *= 0x100000001b3ull;
      }
  }
  EXPECT_EQ(h, 0x2b65df63bf4ddbdfull);
  EXPECT_EQ(rng.uniform_int(1000000), 188025u);
}

TEST(ExprFlat, MemoKeysEqualExactlyWhenSexprsEqual) {
  std::vector<Expr> all = bred_offspring(202, 200, 48);
  // Signed zeros compare equal as values but print differently.
  for (double z : {0.0, -0.0}) {
    all.push_back(Expr::constant(z));
    all.push_back(Expr::binary(Op::kMul, Expr::variable(1), Expr::constant(z)));
  }
  std::map<std::string, std::string> key_of_sexpr, sexpr_of_key;
  std::string key;
  for (const Expr& e : all) {
    fitness_memo_key(e, key);
    const std::string s = e.to_sexpr();
    EXPECT_EQ(key_of_sexpr.emplace(s, key).first->second, key) << s;
    EXPECT_EQ(sexpr_of_key.emplace(key, s).first->second, s) << s;
  }
  EXPECT_LT(key_of_sexpr.size(), all.size());  // duplicates were bred
  EXPECT_EQ(key_of_sexpr.size(), sexpr_of_key.size());
  std::string pos, neg;
  fitness_memo_key(Expr::constant(0.0), pos);
  fitness_memo_key(Expr::constant(-0.0), neg);
  EXPECT_NE(pos, neg);
}

TEST(ExprFlat, SexprRoundTripReproducesNodes) {
  std::vector<Expr> all = bred_offspring(303, 100, 48);
  all.push_back(Expr::constant(-0.0));
  // Subnormal constants print with a 17-digit mantissa and must parse back.
  all.push_back(Expr::binary(Op::kAdd, Expr::constant(1e308),
                             Expr::constant(-5e-324)));
  all.push_back(Expr::constant(2.2250738585072009e-308));
  for (const Expr& e : all) {
    const Expr back = Expr::from_sexpr(e.to_sexpr());
    ASSERT_EQ(back.size(), e.size()) << e.to_sexpr();
    for (std::size_t i = 0; i < e.size(); ++i) {
      const ExprNode& a = e.nodes()[i];
      const ExprNode& b = back.nodes()[i];
      ASSERT_EQ(a.op, b.op) << e.to_sexpr() << " node " << i;
      if (a.op == Op::kConst) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value),
                  std::bit_cast<std::uint64_t>(b.value));
      }
      if (a.op == Op::kVar) {
        EXPECT_EQ(a.var, b.var);
      }
    }
  }
}

TEST(ExprFlat, SimplifiedMatchesRecordedForms) {
  // Outputs recorded with the pointer-tree representation: simplified()
  // keeps every rewrite, and to_sexpr()/str() keep every byte.
  struct Case {
    const char* in;
    const char* simplified;
    const char* str;
  };
  static const Case kCases[] = {
      {"(sub (add (var 0) (const 0)) (var 0))",
       "(const 0)",
       "((x0 + 0) - x0)"},
      {"(mul (var 0) (const -0))",
       "(const 0)",
       "(x0 * -0)"},
      {"(add (const -0) (var 1))",
       "(var 1)",
       "(-0 + x1)"},
      {"(div (const 5) (const 1e-10))",
       "(const 5)",
       "(5 / 1e-10)"},
      {"(div (const 0) (const 0))",
       "(const 0)",
       "(0 / 0)"},
      {"(sub (const -0) (const 0))",
       "(const -0)",
       "(-0 - 0)"},
      {"(sub (log (var 0)) (log (var 0)))",
       "(const 0)",
       "(log1p|x0| - log1p|x0|)"},
      {"(mul (const 1) (sqrt (add (const 2) (const 2))))",
       "(const 2)",
       "(1 * sqrt|(2 + 2)|)"},
      {"(div (mul (var 0) (const 1)) (add (const 0.5) (const 0.5)))",
       "(var 0)",
       "((x0 * 1) / (0.5 + 0.5))"},
      {"(sub (div (var 1) (var 0)) (div (var 1) (var 2)))",
       "(sub (div (var 1) (var 0)) (div (var 1) (var 2)))",
       "((x1 / x0) - (x1 / x2))"},
      {"(add (mul (const 0) (var 3)) (sub (var 2) (const 0)))",
       "(var 2)",
       "((0 * x3) + (x2 - 0))"},
      {"(log (sqrt (mul (const -4) (const 4))))",
       "(const 1.6094379124341003)",
       "log1p|sqrt|(-4 * 4)||"},
      {"(div (var 0) (const -1e-12))",
       "(div (var 0) (const -9.9999999999999998e-13))",
       "(x0 / -1e-12)"},
      {"(mul (const 1e300) (const 1e300))",
       "(const inf)",
       "(1e+300 * 1e+300)"},
      {"(sub (const 1e308) (mul (const -1e308) (const 10)))",
       "(const inf)",
       "(1e+308 - (-1e+308 * 10))"},
  };
  for (const Case& c : kCases) {
    const Expr e = Expr::from_sexpr(c.in);
    EXPECT_EQ(e.simplified().to_sexpr(), c.simplified) << c.in;
    EXPECT_EQ(e.str(), c.str) << c.in;
  }

  // Random trees from a fixed seed: pins random()'s draw order as well.
  static const std::pair<const char*, const char*> kRandom[] = {
      {"(add (add (add (add (mul (const 5.2731823917552916) (var 1)) (const"
       " 2.0537136850357878)) (sqrt (mul (var 0) (var 1)))) (sub (div (mul"
       " (var 1) (var 2)) (const 2.8353040527070125e-06)) (mul (const"
       " 0.00075871580043511638) (mul (const 3.4530243958435058e-06) (const"
       " 6.2649036996633136e-05))))) (div (sub (mul (div (var 1) (var 1))"
       " (log (var 2))) (sub (mul (const 0.0094708858201469903) (var 2))"
       " (sqrt (var 0)))) (mul (sub (mul (var 1) (var 0)) (log (var 0)))"
       " (mul (mul (var 2) (var 0)) (var 1)))))",
       "(add (add (add (add (mul (const 5.2731823917552916) (var 1)) (const"
       " 2.0537136850357878)) (sqrt (mul (var 0) (var 1)))) (sub (div (mul"
       " (var 1) (var 2)) (const 2.8353040527070125e-06)) (const"
       " 1.6413196721314662e-13))) (div (sub (mul (div (var 1) (var 1))"
       " (log (var 2))) (sub (mul (const 0.0094708858201469903) (var 2))"
       " (sqrt (var 0)))) (mul (sub (mul (var 1) (var 0)) (log (var 0)))"
       " (mul (mul (var 2) (var 0)) (var 1)))))"},
      {"(mul (var 2) (div (div (add (log (const 38.149504394839383)) (div"
       " (var 0) (var 1))) (div (div (const 0.00082325715669070835) (var"
       " 1)) (var 0))) (add (mul (sqrt (const 9.5588766309519797e-06)) (add"
       " (const 0.0058956005545560365) (const 0.00066589066346072314)))"
       " (div (var 1) (div (var 0) (const 1.6772460295726488))))))",
       "(mul (var 2) (div (div (add (const 3.6673877632210368) (div (var 0)"
       " (var 1))) (div (div (const 0.00082325715669070835) (var 1)) (var"
       " 0))) (add (const 2.0286446509038248e-05) (div (var 1) (div (var 0)"
       " (const 1.6772460295726488))))))"},
      {"(sub (sub (sqrt (div (sub (const 7.8152557453605686e-06) (const"
       " 8.7825561849901138e-05)) (log (var 1)))) (var 1)) (log (div (const"
       " 62.399025707659455) (div (sqrt (const 15.828062118170896)) (mul"
       " (var 1) (var 1))))))",
       "(sub (sub (sqrt (div (const -8.0010306104540574e-05) (log (var"
       " 1)))) (var 1)) (log (div (const 62.399025707659455) (div (const"
       " 3.9784497129121661) (mul (var 1) (var 1))))))"},
  };
  util::Rng rng(31);
  for (const auto& [in, simplified] : kRandom) {
    const Expr e = Expr::random(rng, 3, 6);
    EXPECT_EQ(e.to_sexpr(), in);
    EXPECT_EQ(e.simplified().to_sexpr(), simplified) << in;
  }
}

}  // namespace
}  // namespace ftbesst::model
