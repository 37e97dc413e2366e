#pragma once
// Genetic-programming symbolic regression.
//
// BE-SST's second modeling method [Chenna et al., HPCS'19]: "the
// benchmarking data is split into training data and testing data. The
// training data is used as input to our symbolic regression tool to create
// models through an iterative process. The testing data is used to evaluate
// model accuracy at each iteration."
//
// The engine evolves protected expression trees with tournament selection,
// subtree crossover, and point/subtree mutation. Fitness is training MAPE
// after *linear scaling* (for every candidate f we analytically choose a, b
// minimizing squared error of a*f(x)+b — a standard trick that lets the GP
// concentrate on shape rather than magnitude) plus a parsimony penalty.
// The returned model is the scaled expression with the best held-out
// (test) MAPE seen across all generations.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model/dataset.hpp"
#include "model/expr.hpp"
#include "model/expr_program.hpp"
#include "model/perf_model.hpp"

namespace ftbesst::util {
class TaskPool;
}

namespace ftbesst::model {

/// Final, immutable regressed model: max(0, a * f(x) + b).
class ExprModel final : public PerfModel {
 public:
  ExprModel(Expr expr, double scale, double offset,
            std::vector<std::string> param_names);

  [[nodiscard]] double predict(std::span<const double> params) const override;
  /// Batch prediction through the compiled program (bit-identical to the
  /// per-row predict loop; see the semantics contract in expr.hpp).
  void predict_batch(const Dataset& data,
                     std::vector<double>& out) const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] const Expr& expr() const noexcept { return expr_; }
  [[nodiscard]] const ExprProgram& program() const noexcept { return program_; }
  [[nodiscard]] double scale() const noexcept { return scale_; }
  [[nodiscard]] double offset() const noexcept { return offset_; }
  [[nodiscard]] const std::vector<std::string>& param_names() const noexcept {
    return names_;
  }

 private:
  Expr expr_;
  ExprProgram program_;  // compiled once at construction
  double scale_;
  double offset_;
  std::vector<std::string> names_;
};

struct SymRegConfig {
  std::size_t population = 256;
  std::size_t generations = 120;
  std::size_t tournament = 5;
  double crossover_prob = 0.65;
  double mutation_prob = 0.30;  // remainder is reproduction
  int max_depth = 5;
  std::size_t max_nodes = 48;
  double parsimony = 0.02;      // % MAPE penalty per node
  std::size_t elitism = 2;
  std::uint64_t seed = 1;
  /// Stop early once training MAPE (%) drops below this.
  double target_train_mape = 0.5;
  /// Pool for parallel fitness evaluation; nullptr = the process-wide
  /// util::TaskPool::shared(). Results are bit-identical for every worker
  /// count: offspring are bred serially from the config seed, fitness is a
  /// pure function of the expression written to a per-individual slot, and
  /// the fitness memo is filled in deterministic serial order.
  util::TaskPool* pool = nullptr;
};

struct SymRegResult {
  std::shared_ptr<ExprModel> model;
  double train_mape = 0.0;   ///< % on the training rows
  double test_mape = 0.0;    ///< % on the held-out rows
  std::size_t generations_run = 0;
  std::vector<double> best_history;  ///< best train fitness per generation
};

/// The fitness memo's exact key of `e`, written into `key` (cleared first):
/// equal keys mean the same nodes with bit-identical constants.
void fitness_memo_key(const Expr& e, std::string& key);

class SymbolicRegressor {
 public:
  explicit SymbolicRegressor(SymRegConfig config = {});

  /// Evolve against `train`, select the champion by `test` MAPE. `test` may
  /// be empty, in which case selection falls back to training fitness.
  [[nodiscard]] SymRegResult fit(const Dataset& train,
                                 const Dataset& test) const;

 private:
  SymRegConfig config_;
};

}  // namespace ftbesst::model
