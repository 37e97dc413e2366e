// Extension bench: the compiled batch evaluator and parallel fitness path
// for symbolic-regression calibration, as machine-readable JSON.
//
// Measures population fitness evaluation (eval every individual on every
// row + linear scaling) over LULESH-timestep-like and FTI-checkpoint-like
// calibration datasets three ways:
//   - tree-walk: the seed path (Expr::eval per row — the value-stack
//     reference evaluator over the flat pre-order nodes — fresh output
//     vector per individual, the seed's own scaling loop);
//   - compiled: ExprProgram batch eval, column-wise over the dataset's
//     SoA view, buffers reused, ResponseView scaling;
//   - compiled+parallel: same, fanned out over the shared task pool.
// Divergence gates (exit 1 on any failure): per-row compiled output must
// be bit-identical to Expr::eval for every individual, serial and parallel
// compiled fitness must be bit-identical to each other, and a full
// SymbolicRegressor::fit with a 1-thread and an N-thread pool must produce
// the same champion — the determinism contract of the calibration
// pipeline.

#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "model/dataset.hpp"
#include "model/expr.hpp"
#include "model/expr_program.hpp"
#include "model/symreg.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

using namespace ftbesst;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Run `body` until it has consumed ~0.4s, return seconds per call.
template <typename F>
double time_per_call(F&& body) {
  body();  // warm-up (first call also populates caches/buffers)
  std::size_t reps = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) body();
    const double elapsed = seconds_since(start);
    if (elapsed > 0.4) return elapsed / static_cast<double>(reps);
    reps = elapsed > 1e-9
               ? std::max<std::size_t>(reps + 1,
                                       static_cast<std::size_t>(
                                           0.6 * static_cast<double>(reps) /
                                           elapsed))
               : reps * 16;
  }
}

/// LULESH-timestep-shaped calibration surface: work scales with elements
/// per rank, surface exchange with the 2/3 power, plus a log-shaped
/// collective term (paper fig. 5/6 kernels).
model::Dataset lulesh_dataset() {
  util::Rng rng(101);
  model::Dataset d({"elems", "ranks"});
  for (double e = 8; e <= 56; e += 0.5)
    for (double r = 8; r <= 1024; r *= 2) {
      const double elems = e * e * e;
      const double y = 2.4e-8 * elems + 1.1e-6 * std::cbrt(elems * elems) +
                       3.0e-6 * std::log2(r);
      std::vector<double> samples;
      for (int s = 0; s < 3; ++s)
        samples.push_back(rng.lognormal_median(y, 0.05));
      d.add_row({elems, r}, std::move(samples));
    }
  return d;
}

/// FTI multilevel-checkpoint-shaped surface: L1..L4 cost vs checkpoint
/// bytes and group size (local copy, partner send, RS encode, PFS write).
model::Dataset fti_dataset() {
  util::Rng rng(202);
  model::Dataset d({"mbytes", "group", "level"});
  for (double mb = 16; mb <= 2048 + 1; mb *= std::pow(2.0, 0.25))
    for (double g = 2; g <= 32; g *= 2)
      for (double level = 1; level <= 4; ++level) {
        const double bw = level == 1 ? 2000.0 : level == 2 ? 900.0
                          : level == 3             ? 350.0
                                                   : 120.0;
        const double y = mb / bw + (level >= 3 ? 1e-4 * mb * (g - 1) / g : 0.0) +
                         2e-3 * level;
        std::vector<double> samples;
        for (int s = 0; s < 3; ++s)
          samples.push_back(rng.lognormal_median(y, 0.08));
        d.add_row({mb, g, level}, std::move(samples));
      }
  return d;
}

/// A GP-like population: the same canonical seeds SymReg starts from plus
/// random trees, i.e. the mix of shapes the fitness loop actually sees.
std::vector<model::Expr> make_population(std::size_t count,
                                         std::size_t num_vars,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<model::Expr> pop;
  pop.reserve(count);
  while (pop.size() < count)
    pop.push_back(model::Expr::random(rng, num_vars, 6));
  return pop;
}

/// The seed's per-candidate linear scale + MAPE, verbatim (single
/// interleaved reduction, per-row |y| divide). The tree-walk baseline pays
/// this because the seed's fitness loop did; the compiled paths use the
/// reworked ResponseView form below, matching symreg.cpp.
double seed_linear_scale_mape(const std::vector<double>& f,
                              const std::vector<double>& y) {
  const std::size_t n = f.size();
  if (n == 0) return 0.0;
  double sf = 0.0, sy = 0.0, sff = 0.0, sfy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sf += f[i];
    sy += y[i];
    sff += f[i] * f[i];
    sfy += f[i] * y[i];
  }
  const double den = static_cast<double>(n) * sff - sf * sf;
  double scale = 0.0, offset = 0.0;
  if (std::abs(den) > 1e-30) {
    scale = (static_cast<double>(n) * sfy - sf * sy) / den;
    offset = (sy - scale * sf) / static_cast<double>(n);
  } else {
    offset = sy / static_cast<double>(n);
  }
  double acc = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (y[i] == 0.0) continue;
    const double pred = std::max(0.0, scale * f[i] + offset);
    acc += std::abs(pred - y[i]) / std::abs(y[i]);
    ++used;
  }
  return used ? 100.0 * acc / static_cast<double>(used) : 0.0;
}

/// Responses preprocessed once per dataset, mirroring the calibration
/// pipeline in symreg.cpp: the MAPE denominator is a cached 1/|y| multiply
/// and the nonzero count and Σy are known up front.
struct ResponseView {
  const std::vector<double>* y = nullptr;
  std::vector<double> inv_abs;  // 0.0 where y == 0
  std::size_t used = 0;
  double sum = 0.0;
};

ResponseView make_response_view(const model::Dataset& data) {
  ResponseView v;
  v.y = &data.responses();
  v.inv_abs.resize(v.y->size());
  for (std::size_t i = 0; i < v.y->size(); ++i) {
    v.inv_abs[i] = (*v.y)[i] == 0.0 ? 0.0 : 1.0 / std::abs((*v.y)[i]);
    if ((*v.y)[i] != 0.0) ++v.used;
    v.sum += (*v.y)[i];
  }
  return v;
}

/// Two-lane deterministic reductions, same shape as symreg.cpp's
/// linear_scale_fit.
double linear_scale_mape(const std::vector<double>& f,
                         const ResponseView& ry) {
  const std::vector<double>& y = *ry.y;
  const std::size_t n = f.size();
  if (n == 0) return 0.0;
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
  double scale = 0.0, offset = 0.0;
  if (std::abs(den) > 1e-30) {
    scale = (static_cast<double>(n) * tfy - tf * ty) / den;
    offset = (ty - scale * tf) / static_cast<double>(n);
  } else {
    offset = ty / static_cast<double>(n);
  }
  double acc[2] = {0.0, 0.0};
  i = 0;
  for (; i + 2 <= n; i += 2) {
    acc[0] +=
        std::abs(std::max(0.0, scale * f[i] + offset) - y[i]) * ry.inv_abs[i];
    acc[1] += std::abs(std::max(0.0, scale * f[i + 1] + offset) - y[i + 1]) *
              ry.inv_abs[i + 1];
  }
  for (; i < n; ++i)
    acc[0] +=
        std::abs(std::max(0.0, scale * f[i] + offset) - y[i]) * ry.inv_abs[i];
  return ry.used ? 100.0 * (acc[0] + acc[1]) / static_cast<double>(ry.used)
                 : 0.0;
}

/// Seed path: Expr::eval per row, fresh vector per individual, seed-style
/// scaling.
std::vector<double> fitness_tree_walk(const std::vector<model::Expr>& pop,
                                      const model::Dataset& data) {
  std::vector<double> fitness(pop.size());
  for (std::size_t p = 0; p < pop.size(); ++p) {
    std::vector<double> f;
    f.reserve(data.num_rows());
    for (const model::Row& r : data.rows())
      f.push_back(pop[p].eval(r.params));
    fitness[p] = seed_linear_scale_mape(f, data.responses());
  }
  return fitness;
}

/// The bit-identity contract is on the *evaluator*: for every individual,
/// ExprProgram::eval_dataset must reproduce per-row Expr::eval exactly.
/// (The two pipelines' scaling reductions associate differently by design,
/// so the fitness scalars themselves are compared serial-vs-parallel,
/// where the contract does require bitwise equality.)
bool evaluators_bit_identical(const std::vector<model::Expr>& pop,
                              const model::Dataset& data) {
  std::vector<double> walk, batch;
  model::EvalScratch scratch;
  model::ExprProgram prog;
  for (const model::Expr& e : pop) {
    walk.clear();
    for (const model::Row& r : data.rows()) walk.push_back(e.eval(r.params));
    model::ExprProgram::compile_into(e, prog);
    prog.eval_dataset(data, batch, scratch);
    if (walk.size() != batch.size() ||
        std::memcmp(walk.data(), batch.data(), walk.size() * sizeof(double)) !=
            0)
      return false;
  }
  return true;
}

/// Compiled path, serial: one program per individual, buffers reused.
std::vector<double> fitness_compiled(const std::vector<model::Expr>& pop,
                                     const model::Dataset& data,
                                     const ResponseView& ry) {
  std::vector<double> fitness(pop.size());
  std::vector<double> f;
  model::EvalScratch scratch;
  model::ExprProgram prog;
  for (std::size_t p = 0; p < pop.size(); ++p) {
    model::ExprProgram::compile_into(pop[p], prog);
    prog.eval_dataset(data, f, scratch);
    fitness[p] = linear_scale_mape(f, ry);
  }
  return fitness;
}

/// Compiled path fanned out over the shared pool, per-individual slots.
std::vector<double> fitness_compiled_parallel(
    const std::vector<model::Expr>& pop, const model::Dataset& data,
    const ResponseView& ry) {
  std::vector<double> fitness(pop.size());
  util::parallel_for(pop.size(), [&](std::size_t p) {
    thread_local std::vector<double> f;
    thread_local model::EvalScratch scratch;
    thread_local model::ExprProgram prog;
    model::ExprProgram::compile_into(pop[p], prog);
    prog.eval_dataset(data, f, scratch);
    fitness[p] = linear_scale_mape(f, ry);
  });
  return fitness;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct DatasetBench {
  double tree_walk_s = 0;
  double compiled_s = 0;
  double parallel_s = 0;
  bool identical = false;
};

DatasetBench bench_dataset(const model::Dataset& data,
                           const std::vector<model::Expr>& pop) {
  DatasetBench r;
  const ResponseView ry = make_response_view(data);
  const auto compiled = fitness_compiled(pop, data, ry);
  const auto parallel = fitness_compiled_parallel(pop, data, ry);
  r.identical =
      evaluators_bit_identical(pop, data) && bitwise_equal(compiled, parallel);
  r.tree_walk_s = time_per_call([&] { fitness_tree_walk(pop, data); });
  r.compiled_s = time_per_call([&] { fitness_compiled(pop, data, ry); });
  r.parallel_s =
      time_per_call([&] { fitness_compiled_parallel(pop, data, ry); });
  return r;
}

/// Full fit with a 1-worker and an N-worker pool: champion must match.
bool fit_thread_invariant(const model::Dataset& data) {
  util::Rng r1(5), r2(5);
  const auto [tr1, te1] = data.split(0.8, r1);
  const auto [tr2, te2] = data.split(0.8, r2);
  model::SymRegConfig cfg;
  cfg.population = 128;
  cfg.generations = 10;
  cfg.seed = 33;
  util::TaskPool one(1);
  cfg.pool = &one;
  const auto serial = model::SymbolicRegressor(cfg).fit(tr1, te1);
  cfg.pool = nullptr;  // shared pool at its natural width
  const auto pooled = model::SymbolicRegressor(cfg).fit(tr2, te2);
  return serial.model && pooled.model &&
         serial.model->describe() == pooled.model->describe() &&
         std::memcmp(&serial.train_mape, &pooled.train_mape, sizeof(double)) ==
             0 &&
         std::memcmp(&serial.test_mape, &pooled.test_mape, sizeof(double)) == 0;
}

void print_dataset(const char* name, const DatasetBench& b, bool last) {
  std::cout << "  \"" << name << "\": {\n"
            << "    \"tree_walk_seconds_per_pass\": " << b.tree_walk_s << ",\n"
            << "    \"compiled_seconds_per_pass\": " << b.compiled_s << ",\n"
            << "    \"compiled_parallel_seconds_per_pass\": " << b.parallel_s
            << ",\n"
            << "    \"compiled_speedup\": " << b.tree_walk_s / b.compiled_s
            << ",\n"
            << "    \"compiled_parallel_speedup\": "
            << b.tree_walk_s / b.parallel_s << ",\n"
            << "    \"fitness_bit_identical\": "
            << (b.identical ? "true" : "false") << "\n"
            << "  }" << (last ? "\n" : ",\n");
}

}  // namespace

int main() {
  const model::Dataset lulesh = lulesh_dataset();
  const model::Dataset fti = fti_dataset();
  const auto pop_lulesh = make_population(256, lulesh.num_params(), 7);
  const auto pop_fti = make_population(256, fti.num_params(), 8);

  const DatasetBench bl = bench_dataset(lulesh, pop_lulesh);
  const DatasetBench bf = bench_dataset(fti, pop_fti);
  const bool invariant = fit_thread_invariant(lulesh);

  std::cout.precision(6);
  std::cout << "{\n"
            << "  \"workers\": " << util::TaskPool::shared().worker_count()
            << ",\n"
            << "  \"population\": 256,\n"
            << "  \"lulesh_rows\": " << lulesh.num_rows() << ",\n"
            << "  \"fti_rows\": " << fti.num_rows() << ",\n";
  print_dataset("lulesh_timestep", bl, false);
  print_dataset("fti_checkpoint", bf, false);
  std::cout << "  \"fit_champion_thread_invariant\": "
            << (invariant ? "true" : "false") << ",\n"
            << "  \"obs_enabled\": " << (obs::enabled() ? "true" : "false");
  if (obs::enabled()) {
    // Calibration-progress snapshot (the fits above ran with obs on).
    const obs::MetricsSnapshot snap = obs::scrape();
    std::cout << ",\n  \"obs\": {\n"
              << "    \"symreg_generations\": "
              << snap.counter("symreg.generations") << ",\n"
              << "    \"symreg_evals\": " << snap.counter("symreg.evals")
              << ",\n"
              << "    \"symreg_memo_hits\": "
              << snap.counter("symreg.memo_hits") << ",\n"
              << "    \"pool_tasks\": " << snap.counter("pool.tasks") << "\n"
              << "  }";
  }
  std::cout << "\n}\n";

  const bool ok = bl.identical && bf.identical && invariant;
  if (!ok) std::cerr << "DIVERGENCE: compiled path disagrees with oracle\n";
  return ok ? 0 : 1;
}
