#include "model/symreg.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "model/key_index.hpp"
#include "obs/obs.hpp"
#include "util/stats.hpp"
#include "util/task_pool.hpp"

namespace ftbesst::model {

namespace {

struct ScaledFit {
  double scale = 1.0;
  double offset = 0.0;
  double mape = std::numeric_limits<double>::infinity();
};

/// Evaluate a compiled candidate on every row of `data` into `out`,
/// reusing the caller's buffers (the seed allocated a fresh vector per
/// individual per generation — pure churn in the hottest loop).
/// eval_dataset dispatches to the active ExprProgram backend
/// (model/expr_simd.*); all backends are bit-identical by contract, so
/// fitness — and therefore selection — is backend-invariant.
void eval_rows(const ExprProgram& prog, const Dataset& data,
               std::vector<double>& out, EvalScratch& scratch) {
  prog.eval_dataset(data, out, scratch);
}

/// Responses preprocessed once per fit. The MAPE denominator becomes a
/// per-row multiply by a cached 1/|y| instead of a divide inside the
/// per-candidate loop, and the nonzero-response count is known up front.
/// Rows with y == 0 carry a factor of 0.0 (excluded, like the seed's
/// `continue`; a non-finite prediction on such a row degrades the MAPE to
/// infinity instead — the existing non-finite guard — which only demotes
/// candidates that were already producing garbage).
struct ResponseView {
  const std::vector<double>* y = nullptr;
  std::vector<double> inv_abs;  ///< 1/|y[i]|, or 0.0 where y[i] == 0
  std::size_t used = 0;         ///< rows with y != 0
  double sum = 0.0;             ///< sum of y (candidate-independent)
};

ResponseView make_response_view(const std::vector<double>& y) {
  ResponseView v;
  v.y = &y;
  v.inv_abs.resize(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    v.inv_abs[i] = y[i] == 0.0 ? 0.0 : 1.0 / std::abs(y[i]);
    if (y[i] != 0.0) ++v.used;
    v.sum += y[i];
  }
  return v;
}

/// Least-squares linear scaling y ~ a*f + b, then MAPE of the scaled
/// prediction (clamped at 0) against the responses. Reductions run in two
/// independent lanes combined in a fixed order at the end — deterministic
/// (the association never depends on thread count or data), but free of
/// the serial one-accumulator dependency chain.
ScaledFit linear_scale_fit(const std::vector<double>& f,
                           const ResponseView& ry) {
  ScaledFit fit;
  const std::vector<double>& y = *ry.y;
  const std::size_t n = f.size();
  if (n == 0) return fit;
  double sf[2] = {0.0, 0.0};
  double sff[2] = {0.0, 0.0}, sfy[2] = {0.0, 0.0};
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    sf[0] += f[i];
    sf[1] += f[i + 1];
    sff[0] += f[i] * f[i];
    sff[1] += f[i + 1] * f[i + 1];
    sfy[0] += f[i] * y[i];
    sfy[1] += f[i + 1] * y[i + 1];
  }
  for (; i < n; ++i) {
    sf[0] += f[i];
    sff[0] += f[i] * f[i];
    sfy[0] += f[i] * y[i];
  }
  const double tf = sf[0] + sf[1];
  const double ty = ry.sum;
  const double tff = sff[0] + sff[1];
  const double tfy = sfy[0] + sfy[1];
  const double den = static_cast<double>(n) * tff - tf * tf;
  if (std::abs(den) > 1e-30) {
    fit.scale = (static_cast<double>(n) * tfy - tf * ty) / den;
    fit.offset = (ty - fit.scale * tf) / static_cast<double>(n);
  } else {  // constant candidate: best is the mean
    fit.scale = 0.0;
    fit.offset = ty / static_cast<double>(n);
  }
  double acc[2] = {0.0, 0.0};
  i = 0;
  for (; i + 2 <= n; i += 2) {
    acc[0] += std::abs(std::max(0.0, fit.scale * f[i] + fit.offset) - y[i]) *
              ry.inv_abs[i];
    acc[1] +=
        std::abs(std::max(0.0, fit.scale * f[i + 1] + fit.offset) - y[i + 1]) *
        ry.inv_abs[i + 1];
  }
  for (; i < n; ++i)
    acc[0] += std::abs(std::max(0.0, fit.scale * f[i] + fit.offset) - y[i]) *
              ry.inv_abs[i];
  fit.mape = ry.used
                 ? 100.0 * (acc[0] + acc[1]) / static_cast<double>(ry.used)
                 : std::numeric_limits<double>::infinity();
  if (!std::isfinite(fit.mape))
    fit.mape = std::numeric_limits<double>::infinity();
  return fit;
}

double mape_with_scaling(const ExprProgram& prog, const Dataset& data,
                         double scale, double offset, std::vector<double>& f,
                         EvalScratch& scratch) {
  if (data.empty()) return std::numeric_limits<double>::infinity();
  eval_rows(prog, data, f, scratch);
  const std::vector<double>& ys = data.responses();
  double acc = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    const double y = ys[i];
    if (y == 0.0) continue;
    const double pred = std::max(0.0, scale * f[i] + offset);
    acc += std::abs(pred - y) / std::abs(y);
    ++used;
  }
  return used ? 100.0 * acc / static_cast<double>(used)
              : std::numeric_limits<double>::infinity();
}

}  // namespace

// Per node in pre-order: one op byte, then a 2-byte variable index or the
// 8 bytes of a constant. The op byte fixes how many bytes follow, and
// pre-order with fixed arities fixes the shape, so two expressions share a
// key exactly when they match node for node with bit-identical constants.
// That is at least as strict as comparing %.17g S-expressions; the two
// differ only on NaN constants, which breeding never makes. Only the low
// 16 bits of a variable index are kept: ExprProgram rejects wider indices,
// and fit() rejects datasets that would breed them.
void fitness_memo_key(const Expr& e, std::string& key) {
  key.clear();
  for (const ExprNode& n : e.nodes()) {
    key.push_back(static_cast<char>(n.op));
    if (n.op == Op::kVar) {
      key.push_back(static_cast<char>(n.var & 0xff));
      key.push_back(static_cast<char>(n.var >> 8));
    } else if (n.op == Op::kConst) {
      char bytes[sizeof(double)];
      std::memcpy(bytes, &n.value, sizeof bytes);
      key.append(bytes, sizeof bytes);
    }
  }
}

ExprModel::ExprModel(Expr expr, double scale, double offset,
                     std::vector<std::string> param_names)
    : expr_(std::move(expr)),
      program_(ExprProgram::compile(expr_)),
      scale_(scale),
      offset_(offset),
      names_(std::move(param_names)) {}

double ExprModel::predict(std::span<const double> params) const {
  return std::max(0.0, scale_ * expr_.eval(params) + offset_);
}

void ExprModel::predict_batch(const Dataset& data,
                              std::vector<double>& out) const {
  // Column-wise evaluation through the active SIMD backend; the affine
  // rescale + clamp stays scalar (it is O(rows) against an O(rows * program)
  // evaluation and auto-vectorizes anyway).
  EvalScratch scratch;
  program_.eval_dataset(data, out, scratch);
  for (double& v : out) v = std::max(0.0, scale_ * v + offset_);
}

std::string ExprModel::describe() const {
  std::ostringstream os;
  os << "symreg[max(0, " << scale_ << " * " << expr_.str(names_) << " + "
     << offset_ << ")]";
  return os.str();
}

SymbolicRegressor::SymbolicRegressor(SymRegConfig config)
    : config_(config) {
  if (config_.population < 4)
    throw std::invalid_argument("population must be >= 4");
  if (config_.tournament < 1)
    throw std::invalid_argument("tournament must be >= 1");
}

SymRegResult SymbolicRegressor::fit(const Dataset& train,
                                    const Dataset& test) const {
  FTBESST_OBS_SPAN("model.symreg_fit");
  // Calibration progress: evals counts expensive compile+batch evaluations,
  // memo_hits the ones the fitness memo avoided; best_fitness is observed
  // once per generation.  The model.symreg.vary / model.symreg.evaluate
  // spans split each generation into breeding and fitness.  Pure
  // observation — never touches the RNG or fitness math, so obs on/off
  // stays bit-identical.
  static const obs::Counter obs_generations = obs::counter("symreg.generations");
  static const obs::Counter obs_evals = obs::counter("symreg.evals");
  static const obs::Counter obs_memo_hits = obs::counter("symreg.memo_hits");
  static const obs::Histogram obs_best_fitness = obs::histogram(
      "symreg.best_fitness", {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 10.0});
  if (train.empty()) throw std::invalid_argument("empty training set");
  util::Rng rng(config_.seed);
  const std::size_t num_vars = train.num_params();
  if (num_vars > 65536)
    throw std::length_error("variable index exceeds program limits");
  const ResponseView ry = make_response_view(train.responses());
  util::TaskPool& pool =
      config_.pool ? *config_.pool : util::TaskPool::shared();

  struct Individual {
    Expr expr;
    ScaledFit fit;
    double fitness = std::numeric_limits<double>::infinity();
    bool evaluated = false;
  };

  // Fitness memo across the whole run: `memo_index` gives every distinct
  // fitness_memo_key() (exact bytes, so a hit is never another
  // expression's fitness) a dense index into `memo`. Crossover and mutation
  // re-create the same offspring constantly; a memo hit skips the whole
  // compile + batch-eval + scaling pipeline. The entries a batch inserts
  // are filled once that batch has been evaluated, so an index below the
  // batch's first new entry is a ready result.
  struct Evaluated {
    ScaledFit fit;
    double fitness = 0.0;
  };
  KeyIndex memo_index;
  std::vector<Evaluated> memo;
  std::string key;  // reused for every lookup
  // Per batch, reused: the expression of each new entry (entry
  // first_new + p), and every (individual, entry) pair waiting on one.
  std::vector<const Expr*> work;
  std::vector<std::pair<std::size_t, std::uint32_t>> waiting;

  // Evaluate every not-yet-evaluated individual in `inds`: memo lookups and
  // memo insertion run serially (deterministic order), the expensive
  // compile + column-wise evaluation runs on the pool with results written
  // to per-candidate memo entries — bit-identical for any worker count.
  auto evaluate_population = [&](std::vector<Individual>& inds) {
    FTBESST_OBS_SPAN("model.symreg.evaluate");
    std::uint64_t memo_hits = 0;
    const std::size_t first_new = memo.size();
    work.clear();
    waiting.clear();
    for (std::size_t i = 0; i < inds.size(); ++i) {
      if (inds[i].evaluated) continue;
      fitness_memo_key(inds[i].expr, key);
      const auto [entry, inserted] =
          memo_index.find_or_insert(key, hash_bytes(key));
      if (entry < first_new) {
        inds[i].fit = memo[entry].fit;
        inds[i].fitness = memo[entry].fitness;
        inds[i].evaluated = true;
        ++memo_hits;
        continue;
      }
      if (inserted) work.push_back(&inds[i].expr);
      waiting.emplace_back(i, entry);
    }
    memo.resize(memo_index.size());

    util::parallel_for(
        work.size(),
        [&](std::size_t p) {
          // Reused across candidates claimed by the same worker thread.
          thread_local std::vector<double> f;
          thread_local EvalScratch scratch;
          thread_local ExprProgram prog;
          const Expr& expr = *work[p];
          ExprProgram::compile_into(expr, prog);
          eval_rows(prog, train, f, scratch);
          Evaluated& result = memo[first_new + p];
          result.fit = linear_scale_fit(f, ry);
          result.fitness =
              result.fit.mape +
              config_.parsimony * static_cast<double>(expr.size());
        },
        pool);

    for (const auto& [i, entry] : waiting) {
      inds[i].fit = memo[entry].fit;
      inds[i].fitness = memo[entry].fitness;
      inds[i].evaluated = true;
    }
    if (obs::enabled()) {
      obs_evals.add(work.size());
      obs_memo_hits.add(memo_hits);
    }
  };

  // Seed: random trees plus canonical performance-model shapes (products /
  // ratios of the parameters), which dramatically shortens the search for
  // the monomial-dominated timing surfaces we fit.
  std::vector<Individual> pop(config_.population);
  std::size_t idx = 0;
  for (std::size_t v = 0; v < num_vars && idx < pop.size(); ++v)
    pop[idx++].expr = Expr::variable(v);
  for (std::size_t a = 0; a < num_vars && idx < pop.size(); ++a)
    for (std::size_t b = 0; b < num_vars && idx + 3 < pop.size(); ++b) {
      pop[idx++].expr =
          Expr::binary(Op::kMul, Expr::variable(a), Expr::variable(b));
      pop[idx++].expr = Expr::binary(
          Op::kMul, Expr::variable(a),
          Expr::binary(Op::kMul, Expr::variable(b), Expr::variable(b)));
      pop[idx++].expr = Expr::binary(Op::kMul, Expr::variable(a),
                                     Expr::unary(Op::kLog, Expr::variable(b)));
      if (a != b)
        pop[idx++].expr =
            Expr::binary(Op::kDiv, Expr::variable(a), Expr::variable(b));
    }
  for (; idx < pop.size(); ++idx)
    pop[idx].expr = Expr::random(rng, num_vars, config_.max_depth);
  evaluate_population(pop);

  auto tournament = [&]() -> const Individual& {
    const Individual* best = &pop[rng.uniform_int(pop.size())];
    for (std::size_t i = 1; i < config_.tournament; ++i) {
      const Individual* cand = &pop[rng.uniform_int(pop.size())];
      if (cand->fitness < best->fitness) best = cand;
    }
    return *best;
  };

  SymRegResult result;
  double champion_score = std::numeric_limits<double>::infinity();
  std::vector<double> test_buf;
  EvalScratch test_scratch;
  ExprProgram test_prog;

  auto consider_champion = [&](const Individual& ind, std::size_t gen) {
    double test_mape = ind.fit.mape;
    if (!test.empty()) {
      ExprProgram::compile_into(ind.expr, test_prog);
      test_mape = mape_with_scaling(test_prog, test, ind.fit.scale,
                                    ind.fit.offset, test_buf, test_scratch);
    }
    // Champion selection blends training and held-out accuracy: test rows
    // are few, so pure test selection is noisy, and pure train selection
    // overfits. Ties favour simplicity via the parsimony term in fitness.
    const double score =
        test.empty() ? ind.fitness : 0.5 * ind.fit.mape + 0.5 * test_mape;
    if (score < champion_score) {
      champion_score = score;
      // Ship the algebraically simplified form — identical semantics,
      // readable formula.
      result.model = std::make_shared<ExprModel>(
          ind.expr.simplified(), ind.fit.scale, ind.fit.offset,
          train.param_names());
      result.train_mape = ind.fit.mape;
      result.test_mape = test.empty() ? ind.fit.mape : test_mape;
      result.generations_run = gen;
    }
  };

  // Two populations, swapped every generation: each child is bred into the
  // recycled Expr of the slot it replaces, so breeding allocates nothing
  // once every slot has held a tree of max_nodes.
  std::vector<Individual> next(pop.size());
  std::vector<const Individual*> ranked;
  ranked.reserve(pop.size());
  for (std::size_t gen = 0; gen < config_.generations; ++gen) {
    auto best_it =
        std::min_element(pop.begin(), pop.end(),
                         [](const Individual& a, const Individual& b) {
                           return a.fitness < b.fitness;
                         });
    result.best_history.push_back(best_it->fitness);
    if (obs::enabled()) {
      obs_generations.add();
      obs_best_fitness.observe(best_it->fitness);
    }
    consider_champion(*best_it, gen);
    if (best_it->fit.mape < config_.target_train_mape) break;

    {
      FTBESST_OBS_SPAN("model.symreg.vary");
      // Elitism: carry the best few unchanged.
      ranked.clear();
      for (const auto& ind : pop) ranked.push_back(&ind);
      const std::size_t elites = std::min(config_.elitism, ranked.size());
      std::partial_sort(ranked.begin(),
                        ranked.begin() + static_cast<std::ptrdiff_t>(elites),
                        ranked.end(),
                        [](const Individual* a, const Individual* b) {
                          return a->fitness < b->fitness;
                        });
      for (std::size_t e = 0; e < elites; ++e) next[e] = *ranked[e];

      // Breeding consumes the RNG serially (selection depends only on the
      // previous generation's fitness), so the offspring set is independent
      // of the evaluation schedule; fitness happens afterwards in one batch.
      for (std::size_t k = elites; k < next.size(); ++k) {
        Individual& child = next[k];
        child.evaluated = false;
        const double roll = rng.uniform();
        if (roll < config_.crossover_prob) {
          // The second parent is drawn first: the order in which GCC
          // evaluated the arguments of the former one-call form.
          const Expr& second = tournament().expr;
          const Expr& first = tournament().expr;
          Expr::crossover_into(first, second, rng, config_.max_nodes,
                               child.expr);
        } else if (roll < config_.crossover_prob + config_.mutation_prob) {
          Expr::mutate_into(tournament().expr, rng, num_vars,
                            config_.max_depth, config_.max_nodes, child.expr);
        } else {
          child.expr = tournament().expr;
        }
      }
    }
    evaluate_population(next);
    std::swap(pop, next);
  }
  // Final population sweep.
  for (const auto& ind : pop) consider_champion(ind, config_.generations);

  return result;
}

}  // namespace ftbesst::model
