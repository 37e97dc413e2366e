// e2e_bench: the end-to-end benchmark over the FT-BESST pipeline.
//
//   e2e_bench --workload calibrate|codesign|serve --seed N
//             --seconds S --trace 0|1 --ftbesst PATH --root DIR --work DIR
//             [--corrupt 0|1]
//
// Workloads (see README.md for why each was chosen):
//   calibrate  Table II campaign + develop_models for the five serving
//              kernels (symbolic regression / kAuto model selection).
//   codesign   Phase-2 pass on a fitted suite: Figs. 7-8 BSP ensembles and
//              DES runs, the Fig. 9 DSE grid, guided search over the same
//              grid and the folded vulcan_393k corpus machine (clean), then
//              inject::run_campaign on the DES and BSP engines over the
//              corpus's faulty machines plus the fitted case study.
//   serve      a router + 2 spawned worker processes driven by a closed-loop
//              load generator over 2 connections.
//
// Batch workloads cycle a fixed pool of seeds; --seed picks where the cycle
// starts, so every run does the same work and a timed run covers whole
// cycles. Their ops and set-ups are timed in CPU time. The serve workload
// draws its request stream from --seed and is timed by wall clock.
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// metrics. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones (README.md lists both). --corrupt 1 flips one output before it is
// checked, so the smoke test can prove that mismatches count as failures.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "apps/kernels.hpp"
#include "apps/lulesh.hpp"
#include "apps/testbed.hpp"
#include "core/arch.hpp"
#include "core/engine_des.hpp"
#include "core/montecarlo.hpp"
#include "core/workflow.hpp"
#include "inject/campaign.hpp"
#include "model/fitting.hpp"
#include "model/serialize.hpp"
#include "obs/obs.hpp"
#include "search/search.hpp"
#include "svc/chash.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"
#include "svc/registry.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/task_pool.hpp"
#include "verify/scenario.hpp"

extern char** environ;

namespace {

using namespace ftbesst;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_ms() {
  return std::chrono::duration<double, std::milli>(Clock::now() - kEpoch)
      .count();
}

/// CPU time (user + system, all threads) this process has used, ms. Batch
/// ops and set-ups are timed by it: on a shared host, time the vCPU spends
/// descheduled or stolen by the hypervisor lands in wall time but not here.
double cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) + 1e-6 * static_cast<double>(ts.tv_nsec);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool corrupt = false;
  int child = -1;             ///< calibrate pool member to run as a child
  bool phase = false;         ///< print a batch pass record for the parent
  std::string root = ".";     ///< checkout root (tests/corpus lives here)
  std::string ftbesst;        ///< the CLI binary: tier processes, calibrate
  std::string work;           ///< scratch directory for this run
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  return util::quantile(v, q);
}

std::string fmt(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// Peak RSS of this process or of its largest finished child (calibrate
/// runs its ops in child processes), MiB.
double peak_rss_mb_self() {
  rusage self{}, children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;  // KiB -> MiB
}

/// VmHWM of a live process, MiB (0 when it cannot be read).
double peak_rss_mb_of(pid_t pid) {
  std::ifstream is("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------------------
// Result report: the JSON line the benchmark ends with.

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// Failures a child process counted (its messages went to stderr).
  void add_failed(std::uint64_t n) { failed_ += n; }
  void fail(const std::string& why) {
    ++failed_;
    if (notes_ < 20) std::cerr << "e2e_bench: check failed: " << why << "\n";
    ++notes_;
  }
  void print() const {
    std::string out = "{\"correct\": ";
    out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      if (!first) out += ", ";
      first = false;
      const double v = std::isfinite(m.first) ? m.first : 0.0;
      out += "\"" + name + "\": {\"value\": " + fmt(v) + ", \"unit\": \"" +
             m.second + "\"}";
    }
    out += "}}";
    std::cout << out << std::endl;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t notes_ = 0;
};

// ---------------------------------------------------------------------------
// Benchmark-side spans for the traced pass: one span around each call into
// a layer's public functions, recorded on the driving thread.

class Spans {
 public:
  struct Rec {
    std::string name;
    double t0 = 0.0, t1 = 0.0;
    int depth = 0;
  };
  bool on = false;
  std::vector<Rec> recs;
  int depth = 0;

  /// Total duration of the spans named `name`.
  [[nodiscard]] double total(const std::string& name) const {
    double sum = 0.0;
    for (const Rec& r : recs)
      if (r.name == name) sum += r.t1 - r.t0;
    return sum;
  }
  /// Share (%) of [t0, t1] covered by top-level spans.
  [[nodiscard]] double coverage_pct(double t0, double t1) const {
    double covered = 0.0;
    for (const Rec& r : recs)
      if (r.depth == 0 && r.t0 >= t0 && r.t1 <= t1) covered += r.t1 - r.t0;
    return t1 > t0 ? 100.0 * covered / (t1 - t0) : 0.0;
  }
};

class Span {
 public:
  Span(Spans* spans, std::string name) : spans_(spans && spans->on ? spans : nullptr) {
    if (!spans_) return;
    rec_.name = std::move(name);
    rec_.depth = spans_->depth++;
    rec_.t0 = now_ms();
  }
  ~Span() {
    if (!spans_) return;
    rec_.t1 = now_ms();
    --spans_->depth;
    spans_->recs.push_back(std::move(rec_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans* spans_;
  Spans::Rec rec_;
};

/// obs counters/gauges by name from one scrape.
struct Scrape {
  std::map<std::string, double> values;
  double get(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
  double sum_prefix(const std::string& prefix) const {
    double s = 0.0;
    for (const auto& [k, v] : values)
      if (k.rfind(prefix, 0) == 0) s += v;
    return s;
  }
};

Scrape scrape_obs() {
  Scrape s;
  const obs::MetricsSnapshot snap = obs::scrape();
  for (const auto& [name, v] : snap.counters)
    s.values[name] = static_cast<double>(v);
  for (const auto& [name, v] : snap.gauges) s.values[name] = v;
  return s;
}

// ---------------------------------------------------------------------------
// Timed loop shared by the batch workloads.

struct Timed {
  std::vector<double> start_ms;
  std::vector<double> op_ms;
  std::vector<std::size_t> member;  ///< seed-pool member each op ran
  double t0 = 0.0, t1 = 0.0;

  /// The mean over pool members of each member's `q`-quantile op time.
  /// Members differ in cost, so a median over all ops would fall between
  /// two members' clusters and follow the tails of both.
  [[nodiscard]] double per_member(double q) const {
    std::map<std::size_t, std::vector<double>> by_member;
    for (std::size_t i = 0; i < op_ms.size(); ++i)
      by_member[member[i]].push_back(op_ms[i]);
    double sum = 0.0;
    for (const auto& [m, v] : by_member) sum += percentile(v, q);
    return by_member.empty() ? 0.0 : sum / static_cast<double>(by_member.size());
  }
  /// The typical op: per_member(0.5).
  [[nodiscard]] double typical_ms() const { return per_member(0.5); }
};

/// Tail latency of one measured interval: when each of five equal time
/// slices holds at least 20 samples, the median of the slices' p99s, so a
/// host hiccup inflates one slice and not the run's figure. Nothing when a
/// slice holds fewer.
std::optional<double> sliced_p99(const std::vector<double>& start_ms,
                                 const std::vector<double>& dur_ms, double t0,
                                 double t1) {
  constexpr int kSlices = 5;
  std::vector<std::vector<double>> slices(kSlices);
  for (std::size_t i = 0; i < start_ms.size(); ++i) {
    const int w = static_cast<int>((start_ms[i] - t0) / (t1 - t0) * kSlices);
    slices[std::clamp(w, 0, kSlices - 1)].push_back(dur_ms[i]);
  }
  bool sliced = true;
  for (const auto& sl : slices) sliced = sliced && sl.size() >= 20;
  if (!sliced) return std::nullopt;
  std::vector<double> p99;
  for (const auto& sl : slices) p99.push_back(percentile(sl, 0.99));
  return median(p99);
}

/// An op of a batch workload: runs pool member `p`, returns its time (ms).
using Op = std::function<double(std::size_t)>;

/// An Op timed by the process's CPU time around `fn`.
Op cpu_timed(std::function<void(std::size_t)> fn) {
  return [fn = std::move(fn)](std::size_t p) {
    const double a = cpu_ms();
    fn(p);
    return cpu_ms() - a;
  };
}

/// Run ops from the seed pool, starting at `start`, until `seconds` have
/// passed and at least `min_ops` ran. The loop only stops at a cycle
/// boundary, so every run times the same multiset of ops.
Timed run_timed(double seconds, std::size_t pool, std::size_t start,
                std::size_t min_ops, const Op& op) {
  Timed t;
  t.t0 = now_ms();
  const double deadline = t.t0 + seconds * 1000.0;
  for (std::size_t k = 0;; ++k) {
    if (k >= min_ops && k % pool == 0 && now_ms() >= deadline) break;
    const double a = now_ms();
    t.start_ms.push_back(a);
    t.member.push_back((start + k) % pool);
    t.op_ms.push_back(op(t.member.back()));
  }
  t.t1 = now_ms();
  return t;
}

void report_batch_e2e(Report& report, const Timed& t, double setup_s,
                      double mape_pct) {
  report.set("setup_s", setup_s, "s");
  report.set("op_ms", t.typical_ms(), "ms");
  // Too few ops to slice (calibrate): the per-member p99, averaged.
  report.set("p99_ms",
             sliced_p99(t.start_ms, t.op_ms, t.t0, t.t1)
                 .value_or(t.per_member(0.99)),
             "ms");
  report.set("mape_pct", mape_pct, "%");
  report.set("peak_rss_mb", peak_rss_mb_self(), "MiB");
}

/// End of an untraced batch pass: the end-to-end metrics, or in a phase
/// child the raw record its parent merges.
void finish_batch(const Options& o, Report& report, const Timed& t,
                  double setup_s, double mape_pct) {
  if (!o.phase) {
    report_batch_e2e(report, t, setup_s, mape_pct);
    return;
  }
  std::cout << fmt(setup_s) << " " << fmt(mape_pct) << " "
            << report.attempted() << " "
            << report.failed() << " " << t.op_ms.size() << " "
            << fmt(t.t1 - t.t0) << "\n";
  for (std::size_t i = 0; i < t.op_ms.size(); ++i)
    std::cout << fmt(t.start_ms[i] - t.t0) << " " << fmt(t.op_ms[i]) << " "
              << t.member[i] << "\n";
}

/// CPU time of one in-process set-up, seconds.
double time_once(const std::function<void()>& setup) {
  const double a = cpu_ms();
  setup();
  return (cpu_ms() - a) / 1000.0;
}

// ---------------------------------------------------------------------------
// Child processes (the CLI for calibrate set-up, the serving tier).

/// Start `argv` with stdin from /dev/null, stdout to `out` and stderr
/// appended to `log` (inherited when `log` is empty).
pid_t spawn(const std::vector<std::string>& argv, const std::string& log,
            const std::string& out = "/dev/null") {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 1, out.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (!log.empty())
    posix_spawn_file_actions_addopen(&fa, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0)
    throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                             std::strerror(rc));
  return pid;
}

/// Wait for `pid` to end; its exit code (128 + signal when killed). With
/// `cpu_s`, also the CPU time (user + system) it used, seconds.
int wait_exit(pid_t pid, double* cpu_s = nullptr) {
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  if (cpu_s)
    *cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

// ---------------------------------------------------------------------------
// The case study: Quartz-like testbed, Table II campaign, fitted suite.

const std::vector<std::string>& suite_kernels() {
  static const std::vector<std::string> k{
      apps::kLuleshTimestep, apps::checkpoint_kernel(ft::Level::kL1),
      apps::checkpoint_kernel(ft::Level::kL2),
      apps::checkpoint_kernel(ft::Level::kL3),
      apps::checkpoint_kernel(ft::Level::kL4)};
  return k;
}

ft::FtiConfig case_study_fti() {
  ft::FtiConfig fti;
  fti.group_size = 4;
  fti.node_size = 2;
  return fti;
}

std::vector<core::Scenario> case_study_scenarios() {
  return {{"No FT", {}},
          {"L1", {{ft::Level::kL1, 40}}},
          {"L1 & L2", {{ft::Level::kL1, 40}, {ft::Level::kL2, 40}}}};
}

core::AppBEO case_study_app(const core::Scenario& scenario, int epr,
                            std::int64_t ranks) {
  apps::LuleshConfig cfg;
  cfg.epr = epr;
  cfg.ranks = ranks;
  cfg.timesteps = 200;
  cfg.plan = scenario.plan;
  cfg.fti = case_study_fti();
  return apps::build_lulesh_fti(cfg);
}

std::map<std::string, model::Dataset> table2_campaign(std::uint64_t seed) {
  const apps::QuartzTestbed testbed({}, case_study_fti());
  apps::CampaignSpec spec;  // Table II: eprs 5-25 x ranks 8-1000 x 10
  spec.seed = seed;
  return apps::run_campaign(testbed, spec, suite_kernels());
}

model::FitOptions fit_options(std::uint64_t seed, util::TaskPool* pool) {
  model::FitOptions fit;
  fit.method = model::ModelMethod::kAuto;
  fit.seed = seed;
  fit.symreg.pool = pool;
  return fit;
}

/// Fit one kernel at a time (the same per-kernel seed derivation as one
/// develop_models call over the whole map), so each fit is its own span.
core::ModelSuite fit_suite(const std::map<std::string, model::Dataset>& data,
                           std::uint64_t seed, util::TaskPool* pool,
                           Spans* spans) {
  core::ModelSuite suite;
  for (const std::string& kernel : suite_kernels()) {
    Span span(spans, "model.fit_ms." + kernel);
    core::ModelSuite one = core::develop_models(
        {{kernel, data.at(kernel)}}, fit_options(seed, pool));
    suite.reports.push_back(one.reports.front());
    suite.kernels.emplace(kernel, std::move(one.kernels.at(kernel)));
  }
  return suite;
}

std::string suite_text(const core::ModelSuite& suite) {
  std::string out;
  for (const core::KernelModelReport& r : suite.reports)
    out += r.kernel + " " + model::to_string(r.fit.chosen) + " " +
           fmt(r.fit.full_mape) + " " + fmt(r.fit.train_mape) + " " +
           fmt(r.fit.test_mape) + " " + fmt(r.fit.residual_sigma) + " " +
           r.fit.formula + "\n";
  return out;
}

double suite_mape(const core::ModelSuite& suite) {
  double sum = 0.0;
  for (const core::KernelModelReport& r : suite.reports) sum += r.fit.full_mape;
  return sum / static_cast<double>(suite.reports.size());
}

/// The fitted suite every Phase-2 workload runs on: the first calibrate
/// pool member, produced the way `ftbesst serve` produces it without saved
/// models (Table II campaign + develop_models).
constexpr std::uint64_t kSuiteSeed = 2021;

core::ModelSuite produce_suite() {
  return fit_suite(table2_campaign(kSuiteSeed), kSuiteSeed, nullptr, nullptr);
}

/// The Quartz-like ArchBEO (the service registry's machine) with `suite`
/// bound in.
std::shared_ptr<core::ArchBEO> quartz_arch(const core::ModelSuite& suite) {
  net::CommParams comm;
  comm.bandwidth = 12.5e9;
  auto arch = std::make_shared<core::ArchBEO>(
      "quartz", std::make_shared<net::TwoStageFatTree>(94, 32, 24), comm, 36);
  arch->set_fti(case_study_fti());
  suite.bind_into(*arch);
  return arch;
}

/// Persist the suite the way `ftbesst serve` persists its models for the
/// tier's workers.
std::string save_suite(const Options& o, const core::ModelSuite& suite) {
  const std::string dir = o.work + "/models";
  std::filesystem::create_directories(dir);
  for (const auto& [kernel, fitted] : suite.kernels) {
    std::ofstream os(dir + "/" + kernel + ".model");
    model::save_model(os, *fitted.noisy_model);
    if (!os) throw std::runtime_error("cannot write model " + kernel);
  }
  return dir;
}

/// Fraction of the run's pool time the shared pool's workers were busy.
void report_pool(Report& report, const Scrape& s, double wall_ms) {
  const double workers = util::TaskPool::shared().worker_count();
  report.set("pool.busy_share",
             s.get("pool.busy_ns") / (wall_ms * 1e6 * workers), "ratio");
  report.set("pool.steals", s.get("pool.steals"), "count");
}

// ---------------------------------------------------------------------------
// calibrate

constexpr std::uint64_t kCalibratePool[] = {2021, 2022, 2023};

/// One calibrate op: the Table II campaign, then the suite's fits on one
/// thread. Symbolic regression breeds each generation serially and gains
/// nothing from the 2-thread pool (model.speedup_2t is about 1), while the
/// pool's hand-offs made the op's CPU time spread half again as much from
/// run to run (IQR/median 16% against 10% over six paired runs).
core::ModelSuite calibrate_op(std::uint64_t seed, Spans* spans) {
  std::map<std::string, model::Dataset> data;
  {
    Span span(spans, "apps.campaign_ms");
    data = table2_campaign(seed);
  }
  util::TaskPool serial(1);  // a 1-worker pool runs parallel_for inline
  return fit_suite(data, seed, &serial, spans);
}

/// Child mode: run pool member `o.child` once and print its time, MAPE and
/// champions for the parent.
int calibrate_child(const Options& o) {
  if (static_cast<std::size_t>(o.child) >= std::size(kCalibratePool))
    throw std::invalid_argument("--child out of range");
  const double a = cpu_ms();
  const core::ModelSuite suite = calibrate_op(kCalibratePool[o.child], nullptr);
  const double ms = cpu_ms() - a;
  std::cout << fmt(ms) << " " << fmt(suite_mape(suite)) << "\n"
            << suite_text(suite);
  return std::cout.flush() ? 0 : 1;
}

struct CalibrateOut {
  double ms = 0.0;
  double mape = 0.0;
  std::string text;
};

/// Run one calibrate op in a fresh process, as a CLI calibration runs. The
/// host's per-process memory placement moves a fit by up to ~20% on a
/// shared VM; a fresh process per op spreads each run over several
/// placements instead of one.
CalibrateOut calibrate_in_child(const Options& o, std::size_t p) {
  const std::string out = o.work + "/calibrate_op.txt";
  const pid_t pid = spawn(
      {std::filesystem::read_symlink("/proc/self/exe").string(), "--workload",
       "calibrate", "--child", std::to_string(p), "--ftbesst", o.ftbesst,
       "--work", o.work, "--root", o.root},
      o.work + "/calibrate.log", out);
  if (wait_exit(pid) != 0) throw std::runtime_error("calibrate op failed");
  std::istringstream is(read_file(out));
  CalibrateOut r;
  is >> r.ms >> r.mape;
  is.ignore(1);
  r.text.assign(std::istreambuf_iterator<char>(is), {});
  return r;
}

int run_calibrate(const Options& o, Report& report, Spans& spans) {
  constexpr std::size_t kPool = std::size(kCalibratePool);
  const std::size_t start = o.seed % kPool;

  // Set-up a calibration user pays before the first fit: start the CLI,
  // build the testbed, run the Table II campaign and write its datasets.
  // The median CPU time of 31 such CLI processes.
  std::vector<double> setups;
  for (int r = 0; r < 31; ++r) {
    const pid_t pid = spawn({o.ftbesst, "calibrate", "--out", o.work,
                             "--seed", std::to_string(kSuiteSeed)},
                            o.work + "/calibrate.log");
    double cpu_s = 0.0;
    if (wait_exit(pid, &cpu_s) != 0)
      throw std::runtime_error("ftbesst calibrate failed");
    setups.push_back(cpu_s);
  }
  const double setup_s = median(setups);

  // The first fit of each pool member is its reference: every repeat must
  // reproduce its champions and MAPE exactly.
  std::vector<std::string> reference(kPool);
  std::vector<double> mape(kPool);
  auto check = [&](std::size_t p, std::string text, double suite_mape) {
    report.attempt();
    if (reference[p].empty()) {
      reference[p] = std::move(text);
      mape[p] = suite_mape;
      return;
    }
    if (o.corrupt && p == start) text[0] ^= 1;
    if (text != reference[p])
      report.fail("calibrate: champions differ from the first run of seed " +
                  std::to_string(kCalibratePool[p]));
  };
  const Op in_process = cpu_timed([&](std::size_t p) {
    const core::ModelSuite suite = calibrate_op(kCalibratePool[p], &spans);
    check(p, suite_text(suite), suite_mape(suite));
  });

  if (!o.trace) {
    const Timed t = run_timed(o.seconds, kPool, start, 2 * kPool,
                              [&](std::size_t p) {
                                CalibrateOut r = calibrate_in_child(o, p);
                                check(p, std::move(r.text), r.mape);
                                return r.ms;
                              });
    double mean_mape = 0.0;
    for (double m : mape) mean_mape += m / kPool;
    report_batch_e2e(report, t, setup_s, mean_mape);
    return 0;
  }

  // Traced pass: an untraced reference cycle, then traced cycles with obs
  // on (the overhead compares their medians).
  const Timed plain = run_timed(0.0, kPool, start, kPool, in_process);
  obs::reset();
  obs::enable(true);
  spans.on = true;
  const Timed t = run_timed(o.seconds / 2, kPool, start, kPool, in_process);
  spans.on = false;
  obs::enable(false);
  const Scrape s = scrape_obs();
  const double ops = static_cast<double>(t.op_ms.size());

  // The thread-scaling ratio: a serial suite fit against one on the shared
  // 2-thread pool.
  util::TaskPool serial(1);
  const auto data = table2_campaign(kCalibratePool[start]);
  double a = now_ms();
  (void)fit_suite(data, kCalibratePool[start], &serial, nullptr);
  const double one_thread = now_ms() - a;
  a = now_ms();
  const core::ModelSuite two = fit_suite(data, kCalibratePool[start], nullptr, nullptr);
  const double two_threads = now_ms() - a;

  report.set("apps.campaign_ms", spans.total("apps.campaign_ms") / ops, "ms");
  for (const std::string& k : suite_kernels())
    report.set("model.fit_ms." + k, spans.total("model.fit_ms." + k) / ops,
               "ms");
  const double evals = s.get("symreg.evals");
  const double hits = s.get("symreg.memo_hits");
  report.set("model.symreg.generations", s.get("symreg.generations") / ops,
             "count");
  report.set("model.symreg.evals", evals / ops, "count");
  report.set("model.symreg.memo_hit_ratio",
             evals + hits > 0 ? hits / (evals + hits) : 0.0, "ratio");
  report.set("model.rows_evaluated", s.sum_prefix("model.rows.") / ops,
             "count");
  for (const core::KernelModelReport& r : two.reports)
    report.set("model.mape_pct." + r.kernel, r.fit.full_mape, "%");
  report.set("model.speedup_2t", one_thread / two_threads, "ratio");
  report_pool(report, s, t.t1 - t.t0);
  report.set("obs.overhead_pct",
             100.0 * (t.typical_ms() / plain.typical_ms() - 1.0), "%");
  report.set("obs.coverage_pct", spans.coverage_pct(t.t0, t.t1), "%");
  return 0;
}

// ---------------------------------------------------------------------------
// Fault-injection campaigns (the faulty half of a codesign op)

constexpr std::size_t kInjectTrials = 64;
const char* const kFaultyMachines[] = {
    "crash_only",      "noft_faulty",     "weibull_infant",
    "async_multilevel_faulty", "noise_mc_faulty", "l3_reed_solomon"};

struct Machine {
  std::string name;
  core::AppBEO app;
  std::shared_ptr<core::ArchBEO> arch;
  core::EngineOptions options;
};

struct InjectSetup {
  std::vector<Machine> machines;
};

InjectSetup inject_setup(const Options& o, const core::ModelSuite& suite) {
  InjectSetup s;
  for (const char* name : kFaultyMachines) {
    const verify::Scenario sc = verify::Scenario::from_text(
        read_file(o.root + "/tests/corpus/" + name + ".scenario"));
    verify::BuiltScenario built = verify::build(sc);
    built.options.inject_faults = true;
    s.machines.push_back({name, std::move(built.app),
                          std::make_shared<core::ArchBEO>(std::move(built.arch)),
                          built.options});
  }
  // The case study under faults (paper Cases 1/2): LULESH_FTI with L1 & L2
  // on the fitted Quartz suite, restart costs priced per checkpoint as the
  // service prices them. On 8 ranks (one node) a node MTBF of four clean
  // makespans gives about one fault per trial; the horizon bounds the fault
  // schedules the DES engine materializes.
  core::AppBEO app = case_study_app(case_study_scenarios()[2], 15, 8);
  std::shared_ptr<core::ArchBEO> arch = quartz_arch(suite);
  const double clean = core::run_bsp(app, *arch).total_seconds;
  arch->set_fault_process(ft::FaultProcess(4.0 * clean, 1.0));
  const ft::CheckpointCostModel cost({}, arch->fti());
  for (ft::Level level : {ft::Level::kL1, ft::Level::kL2})
    arch->bind_restart(level, std::make_shared<svc::RestartCostModel>(
                                  "lulesh", level, cost));
  core::EngineOptions opt;
  opt.inject_faults = true;
  opt.downtime_seconds = 10.0;
  opt.max_sim_seconds = 50.0 * clean;
  s.machines.push_back({"lulesh_l1l2", std::move(app), std::move(arch), opt});
  return s;
}

struct InjectOut {
  std::string text;
  std::vector<inject::CampaignResult> des;  ///< kept for the replay check
};

InjectOut inject_op(const InjectSetup& s, std::uint64_t seed, unsigned threads,
                    Spans* spans, bool keep = false) {
  InjectOut out;
  for (std::size_t m = 0; m < s.machines.size(); ++m) {
    const Machine& mc = s.machines[m];
    for (bool use_des : {true, false}) {
      inject::CampaignOptions opt;
      opt.trials = kInjectTrials;
      opt.threads = threads;
      opt.use_des = use_des;
      opt.engine = mc.options;
      opt.engine.seed = seed * 1000 + m;
      inject::CampaignResult r;
      {
        Span span(spans, use_des ? "inject.campaign_ms.des"
                                 : "inject.campaign_ms.bsp");
        r = inject::run_campaign(mc.app, *mc.arch, opt);
      }
      out.text += mc.name + (use_des ? " des" : " bsp");
      for (double v : r.totals) out.text.append(" ").append(fmt(v));
      out.text += "\n" + r.fault_log.to_text();
      if (keep && use_des) out.des.push_back(std::move(r));
    }
  }
  return out;
}

/// Replay one recorded trial of a deterministic machine from its fault log;
/// the makespan must come back bit-exactly.
bool replay_matches(const InjectSetup& s, const InjectOut& out,
                    std::uint64_t seed) {
  for (std::size_t m = 0; m < s.machines.size(); ++m) {
    const Machine& mc = s.machines[m];
    if (mc.options.monte_carlo) continue;
    const inject::CampaignResult& r = out.des[m];
    for (std::size_t trial = 0; trial < r.totals.size(); ++trial) {
      const auto trace = r.fault_log.to_trace(static_cast<std::int64_t>(trial));
      if (trace.empty()) continue;
      inject::CampaignOptions opt;
      opt.trials = 1;
      opt.threads = 1;
      opt.engine = mc.options;
      opt.engine.seed = seed * 1000 + m;
      opt.engine.fault_trace = trace;
      const inject::CampaignResult replay =
          inject::run_campaign(mc.app, *mc.arch, opt);
      return replay.totals.front() == r.totals[trial];
    }
  }
  return false;  // no faulty trial to replay: the check itself failed
}

// ---------------------------------------------------------------------------
// codesign

constexpr std::uint64_t kCodesignPool[] = {42, 43, 44, 45};
constexpr int kFig78Epr = 15;
constexpr std::size_t kFig78Trials = 30;
constexpr std::size_t kFig9Trials = 10;

struct CodesignSetup {
  std::shared_ptr<core::ArchBEO> arch;
  std::vector<core::Scenario> scenarios;
  std::vector<core::AppBEO> fig78;  ///< scenario-major, {64, 1000} ranks
  std::vector<std::int64_t> fig78_ranks;
  std::vector<std::vector<double>> fig9_points;
  search::SearchSpace space;
  std::unique_ptr<verify::BuiltScenario> vulcan;
  InjectSetup inject;  ///< the faulty corpus machines and case study
};

CodesignSetup codesign_setup(const Options& o) {
  CodesignSetup s;
  const core::ModelSuite suite = produce_suite();
  s.arch = quartz_arch(suite);
  s.scenarios = case_study_scenarios();
  for (const core::Scenario& sc : s.scenarios)
    for (std::int64_t ranks : {std::int64_t{64}, std::int64_t{1000}}) {
      s.fig78.push_back(case_study_app(sc, kFig78Epr, ranks));
      s.fig78_ranks.push_back(ranks);
    }
  for (int epr : {10, 15, 20, 25})
    for (double ranks : {64.0, 1000.0})
      s.fig9_points.push_back({static_cast<double>(epr), ranks});
  s.space.scenarios = s.scenarios;
  s.space.points = s.fig9_points;
  // The notional machine, priced deterministically as the folded corpus
  // replay prices it.
  verify::Scenario vulcan = verify::Scenario::from_text(
      read_file(o.root + "/tests/corpus/vulcan_393k.scenario"));
  vulcan.inject_faults = false;
  vulcan.monte_carlo = false;
  vulcan.noise_sigma = 0.0;
  s.vulcan = std::make_unique<verify::BuiltScenario>(verify::build(vulcan));
  s.vulcan->options.fold_symmetry = true;
  s.inject = inject_setup(o, suite);
  return s;
}

struct CodesignOut {
  std::string text;
  std::vector<double> fig78_sim;
  bool search_optimal = false;
  double search_eval_fraction = 0.0;  ///< trial units priced / exhaustive
  InjectOut inject;                   ///< the faulty half
};

/// The clean half of a codesign op: Figs. 7-8 on BSP and DES, the Fig. 9
/// grid, guided search over it, folded vulcan_393k.
CodesignOut clean_op(const CodesignSetup& s, std::uint64_t seed,
                     unsigned threads, Spans* spans) {
  const core::ArchBEO& arch = *s.arch;
  CodesignOut out;
  {
    Span span(spans, "core.ensemble_ms");
    for (std::size_t i = 0; i < s.fig78.size(); ++i) {
      core::EngineOptions opt;
      opt.seed = seed + static_cast<std::uint64_t>(s.fig78_ranks[i]);
      const core::EnsembleResult ens =
          core::run_ensemble(s.fig78[i], arch, opt, kFig78Trials, threads);
      out.fig78_sim.push_back(ens.total.mean);
      out.text += "ens " + fmt(ens.total.mean) + " " + fmt(ens.total.stddev);
      for (double v : ens.mean_timestep_end)
        out.text.append(" ").append(fmt(v));
      out.text += "\n";
    }
  }
  {
    Span span(spans, "sim.des_ms");
    for (const core::AppBEO& app : s.fig78) {
      const core::RunResult r = core::run_des(app, arch, {});
      out.text += "des " + fmt(r.total_seconds) + " " +
                  std::to_string(r.instructions_executed) + "\n";
    }
  }
  core::EngineOptions engine;
  engine.seed = seed;
  const auto make_app = [](const core::Scenario& sc,
                           const std::vector<double>& p) {
    return case_study_app(sc, static_cast<int>(p[0]),
                          static_cast<std::int64_t>(p[1]));
  };
  std::vector<core::DsePoint> grid;
  {
    Span span(spans, "core.dse_ms");
    grid = core::run_dse(s.scenarios, s.fig9_points, make_app, arch, engine,
                         kFig9Trials, threads);
  }
  std::size_t best = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    out.text += "dse " + grid[i].scenario + " " + fmt(grid[i].ensemble.total.mean) + "\n";
    if (grid[i].ensemble.total.mean < grid[best].ensemble.total.mean) best = i;
  }
  search::SearchResult found;
  {
    Span span(spans, "search.ms");
    search::SearchOptions sopt;
    sopt.seed = seed;
    sopt.trials = kFig9Trials;
    sopt.budget_fraction = 0.5;
    sopt.threads = threads;
    sopt.fti = case_study_fti();
    found = search::run_search_dse(s.space, sopt, make_app, arch, engine);
  }
  out.text += found.to_text();
  out.search_eval_fraction =
      found.trial_units /
      static_cast<double>(s.space.size() * kFig9Trials);
  out.search_optimal = found.best.flat == best &&
                       found.best.objective == grid[best].ensemble.total.mean;
  {
    Span span(spans, "sim.vulcan_ms");
    const core::RunResult v =
        core::run_des(s.vulcan->app, s.vulcan->arch, s.vulcan->options);
    out.text += "vulcan " + fmt(v.total_seconds) + " " +
                std::to_string(v.instructions_executed) + "\n";
  }
  return out;
}

/// One codesign op: the clean Phase-2 pass, then the fault-injection
/// campaigns on the same fitted suite. `keep` keeps the DES campaigns for
/// the fault-log replay check.
CodesignOut codesign_op(const CodesignSetup& s, std::uint64_t seed,
                        unsigned threads, Spans* spans, bool keep = false) {
  CodesignOut out = clean_op(s, seed, threads, spans);
  out.inject = inject_op(s.inject, seed, threads, spans, keep);
  out.text += out.inject.text;
  return out;
}

int run_codesign(const Options& o, Report& report, Spans& spans) {
  constexpr std::size_t kPool = std::size(kCodesignPool);
  const std::size_t start = o.seed % kPool;
  // Set-up a co-design session pays: produce the fitted suite, bind the
  // ArchBEO, build every scenario application and machine.
  std::unique_ptr<CodesignSetup> setup;
  const double setup_s = time_once([&] {
    setup = std::make_unique<CodesignSetup>(codesign_setup(o));
  });

  // Testbed-measured totals for Figs. 7-8 (one measured run per config).
  const apps::QuartzTestbed testbed({}, case_study_fti());
  std::vector<double> measured;
  {
    util::Rng rng(777);
    for (const core::Scenario& sc : setup->scenarios)
      for (std::int64_t ranks : {std::int64_t{64}, std::int64_t{1000}})
        measured.push_back(
            testbed.run_application(kFig78Epr, ranks, 200, sc.plan, rng)
                .total_seconds);
  }

  // Serial reference per pool member: the 1-thread leg of the bit-identity
  // check, and the untimed warm-up.
  std::vector<std::string> reference(kPool);
  double mape = 0.0;
  for (std::size_t p = 0; p < kPool; ++p) {
    report.attempt();
    const CodesignOut ref =
        codesign_op(*setup, kCodesignPool[p], 1, nullptr, true);
    reference[p] = ref.text;
    if (!ref.search_optimal)
      report.fail("codesign: search optimum differs from exhaustive run_dse");
    if (!replay_matches(setup->inject, ref.inject, kCodesignPool[p]))
      report.fail("codesign: fault-log replay did not reproduce the trial");
    mape += util::mape_percent(measured, ref.fig78_sim) / kPool;
  }

  const Op checked = cpu_timed([&](std::size_t p) {
    report.attempt();
    CodesignOut out = codesign_op(*setup, kCodesignPool[p], 0, &spans);
    if (o.corrupt && p == start) out.text[0] ^= 1;
    if (out.text != reference[p])
      report.fail("codesign: 2-thread output differs from 1-thread output");
    if (!out.search_optimal)
      report.fail("codesign: search optimum differs from exhaustive run_dse");
  });

  if (!o.trace) {
    const Timed t = run_timed(o.seconds, kPool, start, kPool, checked);
    finish_batch(o, report, t, setup_s, mape);
    return 0;
  }

  const Timed plain = run_timed(o.seconds / 4, kPool, start, kPool, checked);
  obs::reset();
  obs::enable(true);
  spans.on = true;
  const Timed t = run_timed(o.seconds / 4, kPool, start, kPool, checked);
  spans.on = false;
  obs::enable(false);
  const Scrape s = scrape_obs();
  const double ops = static_cast<double>(t.op_ms.size());

  // Thread scaling of each half: serial vs pooled over whole cycles.
  double clean_1t = 0.0, clean_2t = 0.0, inject_1t = 0.0, inject_2t = 0.0;
  double eval_fraction = 0.0;
  for (std::size_t p = 0; p < kPool; ++p) {
    const std::uint64_t seed = kCodesignPool[p];
    double a = now_ms();
    (void)clean_op(*setup, seed, 1, nullptr);
    clean_1t += now_ms() - a;
    a = now_ms();
    eval_fraction +=
        clean_op(*setup, seed, 0, nullptr).search_eval_fraction / kPool;
    clean_2t += now_ms() - a;
    a = now_ms();
    (void)inject_op(setup->inject, seed, 1, nullptr);
    inject_1t += now_ms() - a;
    a = now_ms();
    (void)inject_op(setup->inject, seed, 0, nullptr);
    inject_2t += now_ms() - a;
  }

  const double dse_ms = spans.total("core.dse_ms") / ops;
  report.set("core.ensemble_ms", spans.total("core.ensemble_ms") / ops, "ms");
  report.set("core.dse_ms", dse_ms, "ms");
  // run_dse prices every grid cell at full trials; dse.points also counts
  // the cells the search priced.
  report.set("core.dse_us_per_trial",
             1000.0 * dse_ms /
                 static_cast<double>(setup->space.size() * kFig9Trials),
             "us");
  report.set("core.mc_trials", s.get("mc.trials") / ops, "count");
  report.set("core.dse_points", s.get("dse.points") / ops, "count");
  report.set("core.speedup_2t", clean_1t / clean_2t, "ratio");
  const double des_ms = spans.total("sim.des_ms") / ops;
  const double vulcan_ms = spans.total("sim.vulcan_ms") / ops;
  const double inject_des_ms = spans.total("inject.campaign_ms.des") / ops;
  // Every DES run of the op, clean and injected, counts its events.
  const double events = s.get("des.events") / ops;
  report.set("sim.des_ms", des_ms, "ms");
  report.set("sim.vulcan_ms", vulcan_ms, "ms");
  report.set("sim.des_events", events, "count");
  report.set("sim.ns_per_event",
             1e6 * (des_ms + vulcan_ms + inject_des_ms) / events, "ns");
  report.set("sim.folded_ranks", s.get("des.folded_ranks") / ops, "count");
  report.set("sim.heap_high_water",
             std::max(s.get("sim.heap_high_water"), s.get("des.heap_high_water")),
             "count");
  report.set("search.ms", spans.total("search.ms") / ops, "ms");
  report.set("search.eval_fraction", eval_fraction, "ratio");

  const double faults = s.get("inject.faults.crash") +
                        s.get("inject.faults.loss") +
                        s.get("inject.faults.sdc");
  report.set("inject.campaign_ms.des", inject_des_ms, "ms");
  report.set("inject.campaign_ms.bsp",
             spans.total("inject.campaign_ms.bsp") / ops, "ms");
  report.set("inject.trials", s.get("inject.trials") / ops, "count");
  report.set("inject.faults", faults / ops, "count");
  report.set("inject.rollbacks_per_fault",
             faults > 0 ? s.sum_prefix("inject.rollbacks.") / faults : 0.0,
             "ratio");
  report.set("inject.full_restarts", s.get("inject.full_restarts") / ops,
             "count");
  report.set("inject.speedup_2t", inject_1t / inject_2t, "ratio");

  report_pool(report, s, t.t1 - t.t0);
  report.set("obs.overhead_pct",
             100.0 * (t.typical_ms() / plain.typical_ms() - 1.0), "%");
  report.set("obs.coverage_pct", spans.coverage_pct(t.t0, t.t1), "%");
  return 0;
}

// ---------------------------------------------------------------------------
// serve

constexpr std::size_t kWarmKeys = 50;
constexpr int kServeConnections = 2;
constexpr int kServeWorkers = 2;
constexpr int kTierSetups = 5;
/// Result cache per worker, MiB. New keys fill it within the first seconds
/// of a run and then evict each other, so the tier's memory stops growing
/// with the number of requests a run completes; the warm keys, requested
/// nine times in ten, stay resident.
constexpr int kServeCacheMb = 1;

/// Request `k` of the key space drawn from `seed`: ops cycle predict,
/// simulate, dse (top_k), inject, search; sizes come from fixed tables and
/// the seed picks among them, so the work per key class is seed-invariant
/// in distribution.
svc::Json make_request(std::uint64_t seed, std::size_t k) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + k * 0xbf58476d1ce4e5b9ULL + 1);
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(n));
  };
  static const int kEprs[] = {10, 15, 20, 25};
  static const int kRanks[] = {64, 216, 512, 1000};
  static const char* const kPlans[] = {"", "L1:40", "L1:40,L2:40"};
  const std::uint64_t req_seed = 1 + (seed * 1000003 + k) % 1000000007;
  svc::JsonObject r;
  switch (k % 5) {
    case 0: {
      r["op"] = svc::Json("predict");
      r["kernel"] = svc::Json(suite_kernels()[pick(5)]);
      svc::JsonArray params;
      params.push_back(svc::Json(5 + static_cast<int>(pick(21))));
      params.push_back(svc::Json(kRanks[pick(4)]));
      r["params"] = svc::Json(std::move(params));
      break;
    }
    case 1:
      r["op"] = svc::Json("simulate");
      r["epr"] = svc::Json(kEprs[pick(4)]);
      r["ranks"] = svc::Json(kRanks[pick(4)]);
      r["plan"] = svc::Json(kPlans[pick(3)]);
      r["trials"] = svc::Json(8);
      r["seed"] = svc::Json(req_seed);
      break;
    case 2:
    case 4: {
      r["op"] = svc::Json(k % 5 == 2 ? "dse" : "search");
      svc::JsonArray scenarios;
      for (std::size_t i = 0; i < 3; ++i) {
        svc::JsonObject sc;
        sc["name"] = svc::Json(std::string("s") + std::to_string(i));
        sc["plan"] = svc::Json(kPlans[i]);
        scenarios.push_back(svc::Json(std::move(sc)));
      }
      r["scenarios"] = svc::Json(std::move(scenarios));
      const std::size_t e = pick(3);
      svc::JsonArray eprs, ranks;
      eprs.push_back(svc::Json(kEprs[e]));
      eprs.push_back(svc::Json(kEprs[e + 1]));
      ranks.push_back(svc::Json(64));
      ranks.push_back(svc::Json(kRanks[1 + pick(3)]));
      r["eprs"] = svc::Json(std::move(eprs));
      r["ranks"] = svc::Json(std::move(ranks));
      r["trials"] = svc::Json(4);
      r["seed"] = svc::Json(req_seed);
      r["top_k"] = svc::Json(3);
      if (k % 5 == 4) r["budget_fraction"] = svc::Json(0.5);
      break;
    }
    default: {
      // The DES engine pre-materializes per-node fault schedules, so its
      // requests stay on one node (8 ranks); BSP takes the larger jobs.
      const bool des = pick(2) == 1;
      r["op"] = svc::Json("inject");
      r["epr"] = svc::Json(kEprs[pick(4)]);
      r["ranks"] = svc::Json(des ? 8 : kRanks[pick(2)]);
      r["plan"] = svc::Json("L1:40,L2:40");
      r["trials"] = svc::Json(8);
      r["seed"] = svc::Json(req_seed);
      r["mtbf_hours"] = svc::Json(2.0);
      r["use_des"] = svc::Json(des ? 1 : 0);
      break;
    }
  }
  return svc::Json(std::move(r));
}

const char* op_name(std::size_t k) {
  static const char* const kOps[] = {"predict", "simulate", "dse", "inject",
                                     "search"};
  return kOps[k % 5];
}

/// The serving tier as a user starts it: `ftbesst serve --workers 2`.
class Tier {
 public:
  Tier(const Options& o, const std::string& models, int index)
      : socket_(o.work + "/t" + std::to_string(index)) {
    pid_ = spawn({o.ftbesst, "serve", "--socket", socket_, "--workers",
                  std::to_string(kServeWorkers), "--models", models,
                  "--cache-mb", std::to_string(kServeCacheMb)},
                 o.work + "/tier.log");
  }
  ~Tier() { stop(); }
  Tier(const Tier&) = delete;
  Tier& operator=(const Tier&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }
  [[nodiscard]] std::string worker_socket(int w) const {
    return socket_ + ".w" + std::to_string(w);
  }

  /// Block until the router and every worker answer ping.
  void wait_ready(double timeout_s) {
    const double deadline = now_ms() + timeout_s * 1000.0;
    std::vector<std::string> pending{socket_};
    for (int w = 0; w < kServeWorkers; ++w) pending.push_back(worker_socket(w));
    while (!pending.empty()) {
      if (now_ms() > deadline) throw std::runtime_error("tier not ready");
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("tier exited during start-up");
      }
      if (ping(pending.back()))
        pending.pop_back();
      else
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// Until the router itself reports every shard healthy.
  svc::Json wait_router_healthy(double timeout_s) {
    const double deadline = now_ms() + timeout_s * 1000.0;
    for (;;) {
      const svc::Json st = stats();
      bool healthy = true;
      workers_.clear();
      for (const svc::Json& w : st.find("worker_stats")->as_array()) {
        healthy = healthy && w.bool_or("healthy", false);
        workers_.push_back(static_cast<pid_t>(w.int_or("pid", -1)));
      }
      if (healthy) return st;
      if (now_ms() > deadline) throw std::runtime_error("router not healthy");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  svc::Json stats() {
    svc::Client c = svc::Client::connect_unix(socket_, 10.0);
    return c.call(svc::Json::parse("{\"op\":\"stats\"}")).result;
  }

  /// Peak RSS of the router plus its workers (MiB).
  double peak_rss_mb() {
    double sum = pid_ > 0 ? peak_rss_mb_of(pid_) : 0.0;
    for (const svc::Json& w : stats().find("worker_stats")->as_array())
      sum += peak_rss_mb_of(static_cast<pid_t>(w.int_or("pid", -1)));
    return sum;
  }

  void stop() {
    if (pid_ <= 0) return;
    try {
      svc::Client c = svc::Client::connect_unix(socket_, 10.0);
      (void)c.call(svc::Json::parse("{\"op\":\"shutdown\"}"));
    } catch (const std::exception&) {
      ::kill(pid_, SIGTERM);
    }
    // The router drains and stops its workers before it exits; a router
    // that does not is killed, and so are the workers it leaves behind.
    const double deadline = now_ms() + 30000.0;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_ms() > deadline) {
        ::kill(pid_, SIGKILL);
        (void)wait_exit(pid_);
        for (const pid_t w : workers_)
          if (w > 0) ::kill(w, SIGKILL);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  static bool ping(const std::string& path) {
    try {
      svc::Client c = svc::Client::connect_unix(path, 5.0);
      return c.call(svc::Json::parse("{\"op\":\"ping\"}")).ok;
    } catch (const std::exception&) {
      return false;
    }
  }

  std::string socket_;
  pid_t pid_ = -1;
  std::vector<pid_t> workers_;  ///< worker pids the router last reported
};

struct Sample {
  double start_ms = 0.0;
  double ms = 0.0;
  std::size_t key = 0;
  bool cached = false;
  bool ok = false;
};

int run_serve(const Options& o, Report& report) {
  const std::string models = save_suite(o, produce_suite());
  svc::RegistryOptions reg_opt;
  reg_opt.models_dir = models;
  reg_opt.fti = case_study_fti();
  const svc::Registry registry = svc::Registry::open(reg_opt);

  // Set-up: spawn the tier until the router and every worker answer ping.
  // Each earlier tier is stopped (untimed) once its router reports every
  // shard healthy; the last one serves the load.
  std::unique_ptr<Tier> tier;
  std::vector<double> setups;
  for (int r = 0; r < kTierSetups; ++r) {
    if (tier) {
      (void)tier->wait_router_healthy(120.0);
      tier.reset();
    }
    const double a = now_ms();
    tier = std::make_unique<Tier>(o, models, r);
    tier->wait_ready(120.0);
    setups.push_back((now_ms() - a) / 1000.0);
  }
  const double setup_s = median(setups);
  (void)tier->wait_router_healthy(120.0);

  // Key space: requests and their exact bytes. New keys are drawn from
  // disjoint per-connection stripes of this table, which is large enough
  // for runs of a minute.
  constexpr std::size_t kMaxKeys = 40000;
  std::vector<svc::Json> requests;
  std::vector<std::string> bytes;
  for (std::size_t k = 0; k < kMaxKeys; ++k) {
    requests.push_back(make_request(o.seed, k));
    bytes.push_back(requests.back().dump());
  }

  // Accuracy of what the tier serves (untimed): predict every Table II
  // point of every kernel through the tier and score the replies against
  // the testbed's hidden truth. The grid is fixed, so this is the same in
  // every run; each reply must also match in-process handle_request.
  double served_mape = 0.0;
  {
    const apps::QuartzTestbed testbed({}, case_study_fti());
    const apps::CampaignSpec table2;
    svc::Client c = svc::Client::connect_unix(tier->socket(), 120.0);
    std::vector<double> truth, served_pred;
    for (const std::string& kernel : suite_kernels())
      for (int epr : table2.eprs)
        for (std::int64_t ranks : table2.ranks) {
          svc::JsonObject q;
          q["op"] = svc::Json("predict");
          q["kernel"] = svc::Json(kernel);
          q["params"] = svc::Json(svc::JsonArray{svc::Json(epr), svc::Json(ranks)});
          const svc::Json request(std::move(q));
          report.attempt();
          const svc::ClientResponse r = c.call(request);
          if (!r.ok ||
              r.result_bytes != svc::handle_request(registry, request).dump()) {
            report.fail("serve: predict reply differs from handle_request");
            continue;
          }
          truth.push_back(kernel == apps::kLuleshTimestep
                              ? testbed.true_timestep(epr, ranks)
                              : testbed.true_checkpoint(
                                    static_cast<ft::Level>(kernel.back() - '0'),
                                    epr, ranks));
          served_pred.push_back(r.result.number_or("value", 0.0));
        }
    served_mape = util::mape_percent(truth, served_pred);
  }

  // Warm the working set (untimed): every warm key is served once.
  std::vector<std::string> first_reply(kMaxKeys);
  std::vector<char> served(kMaxKeys, 0);
  {
    svc::Client c = svc::Client::connect_unix(tier->socket(), 120.0);
    for (std::size_t k = 0; k < kWarmKeys; ++k) {
      report.attempt();
      const svc::ClientResponse r = c.call_raw(bytes[k]);
      if (!r.ok) {
        report.fail("serve: warm-up request " + std::to_string(k) + " failed: " + r.code);
        continue;
      }
      first_reply[k] = r.result_bytes;
      served[k] = 1;
    }
  }

  // Closed loop: each connection waits for its reply before sending the
  // next request. One in ten requests is a new key (from this connection's
  // stripe of the key table); the rest repeat a warm key. Replies to
  // repeats must equal the first reply.
  struct Pass {
    std::vector<Sample> samples;
    double t0 = 0.0, t1 = 0.0;
    double busy_ms = 0.0;  ///< time inside client calls (traced pass)
  };
  std::vector<std::size_t> fresh(kServeConnections, 0);
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> errors{0};
  auto drive = [&](double seconds, std::uint64_t pass_seed, bool traced) {
    std::vector<Pass> per(kServeConnections);
    std::vector<std::thread> threads;
    const double deadline = now_ms() + seconds * 1000.0;
    for (int c = 0; c < kServeConnections; ++c) {
      threads.emplace_back([&, c] {
        util::Rng rng(o.seed * 7919 + pass_seed * 104729 +
                      static_cast<std::uint64_t>(c));
        Spans local;
        local.on = traced;
        Pass& pass = per[c];
        pass.samples.reserve(1 << 16);
        try {
          svc::Client client = svc::Client::connect_unix(tier->socket(), 120.0);
          pass.t0 = now_ms();
          while (now_ms() < deadline) {
            std::size_t k;
            if (rng.uniform_int(10) == 0) {
              k = kWarmKeys + c + kServeConnections * fresh[c]++;
              if (k >= kMaxKeys) break;
            } else {
              k = rng.uniform_int(kWarmKeys);
            }
            Sample smp;
            smp.key = k;
            svc::ClientResponse r;
            const double a = now_ms();
            {
              Span span(&local, "svc.call");
              r = client.call_raw(bytes[k]);
            }
            smp.start_ms = a;
            smp.ms = now_ms() - a;
            smp.ok = r.ok;
            smp.cached = r.cached;
            if (r.ok && !served[k]) {
              first_reply[k] = std::move(r.result_bytes);
              served[k] = 1;
            } else if (r.ok && r.result_bytes != first_reply[k]) {
              mismatches.fetch_add(1);
            }
            pass.samples.push_back(smp);
          }
          pass.t1 = now_ms();
          pass.busy_ms = local.total("svc.call");
        } catch (const std::exception& e) {
          errors.fetch_add(1);
          std::cerr << "e2e_bench: serve connection " << c << ": " << e.what()
                    << "\n";
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return per;
  };

  const double t0 = now_ms();
  const std::vector<Pass> plain = drive(o.trace ? o.seconds / 2 : o.seconds, 0, false);
  const double t1 = now_ms();
  std::vector<Pass> traced;
  if (o.trace) traced = drive(o.seconds / 2, 1, true);

  std::vector<Sample> all;
  for (const Pass& p : plain)
    all.insert(all.end(), p.samples.begin(), p.samples.end());

  const svc::Json router_stats = tier->stats();
  const double rss = tier->peak_rss_mb();

  // Worker round trips for hits, bypassing the router: the ring maps each
  // canonical key to the worker that caches it.
  std::vector<double> worker_hit_ms;
  if (o.trace) {
    const svc::HashRing ring(kServeWorkers);
    std::vector<svc::Client> workers;
    for (int w = 0; w < kServeWorkers; ++w)
      workers.push_back(svc::Client::connect_unix(tier->worker_socket(w), 60.0));
    for (std::size_t i = 0; i < all.size() && worker_hit_ms.size() < 2000; ++i) {
      if (!all[i].cached) continue;
      const std::size_t k = all[i].key;
      const std::size_t w = ring.lookup(svc::canonical_key(requests[k]));
      const double a = now_ms();
      const svc::ClientResponse r = workers[w].call_raw(bytes[k]);
      const double ms = now_ms() - a;
      if (r.ok && r.cached) worker_hit_ms.push_back(ms);
    }
  }
  tier->stop();

  // Every distinct key's reply must equal in-process handle_request. The
  // untimed check runs on kServeConnections threads (handle_request is
  // thread-safe on a const registry, as the workers call it); the traced
  // run calls it on one, so svc.compute_ms times each call alone.
  std::vector<std::size_t> keys;
  for (std::size_t k = 0; k < kMaxKeys; ++k)
    if (served[k]) keys.push_back(k);
  std::vector<std::string> want(keys.size());
  std::vector<double> want_ms(keys.size());
  {
    const std::size_t checkers = o.trace ? 1 : kServeConnections;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < checkers; ++c)
      threads.emplace_back([&, c] {
        for (std::size_t i = c; i < keys.size(); i += checkers) {
          const double a = now_ms();
          try {
            want[i] = svc::handle_request(registry, requests[keys[i]]).dump();
          } catch (const std::exception&) {
            // want[i] stays empty: the comparison below counts it failed.
          }
          want_ms[i] = now_ms() - a;
        }
      });
    for (std::thread& t : threads) t.join();
  }
  if (o.corrupt && !want.empty()) want[0][0] ^= 1;
  std::map<std::string, std::vector<double>> compute_ms;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    compute_ms[op_name(keys[i])].push_back(want_ms[i]);
    if (want[i] != first_reply[keys[i]])
      report.fail("serve: reply for key " + std::to_string(keys[i]) +
                  " differs from in-process handle_request");
  }

  std::vector<double> latency, latency_start, hit_ms, miss_ms;
  for (const Sample& s : all) {
    report.attempt();
    if (!s.ok) {
      report.fail("serve: request refused or failed");
      continue;
    }
    latency.push_back(s.ms);
    latency_start.push_back(s.start_ms);
    (s.cached ? hit_ms : miss_ms).push_back(s.ms);
  }
  for (std::uint64_t i = 0; i < errors.load(); ++i)
    report.fail("serve: connection error");
  for (std::uint64_t i = 0; i < mismatches.load(); ++i)
    report.fail("serve: a repeated reply differs from the key's first reply");

  if (!o.trace) {
    report.set("setup_s", setup_s, "s");
    report.set("op_ms", median(latency), "ms");
    report.set("p99_ms",
               sliced_p99(latency_start, latency, t0, t1)
                   .value_or(percentile(latency, 0.99)),
               "ms");
    report.set("peak_rss_mb", rss, "MiB");
    report.set("mape_pct", served_mape, "%");
    return 0;
  }

  std::vector<double> traced_latency;
  double coverage = 0.0;
  for (const Pass& p : traced) {
    for (const Sample& s : p.samples) {
      report.attempt();
      if (s.ok) traced_latency.push_back(s.ms);
      else report.fail("serve: traced request refused or failed");
    }
    coverage += p.t1 > p.t0 ? 100.0 * p.busy_ms / (p.t1 - p.t0) /
                                  kServeConnections
                            : 0.0;
  }

  for (const char* op : {"predict", "simulate", "dse", "inject", "search"})
    report.set(std::string("svc.compute_ms.") + op, median(compute_ms[op]), "ms");
  report.set("svc.rtt_ms.miss", median(miss_ms), "ms");
  const double rtt_hit = median(hit_ms);
  report.set("svc.rtt_ms.hit", rtt_hit, "ms");
  report.set("svc.cache_hit_ratio",
             static_cast<double>(hit_ms.size()) /
                 static_cast<double>(std::max<std::size_t>(1, latency.size())),
             "ratio");
  const double worker_hit = median(worker_hit_ms);
  report.set("svc.worker_rtt_ms.hit", worker_hit, "ms");
  report.set("router.overhead_us", 1000.0 * (rtt_hit - worker_hit), "us");

  // Codec: parse + canonical key + dump over the distinct requests.
  {
    std::vector<double> per_request_us;
    for (int rep = 0; rep < 5; ++rep) {
      std::size_t n = 0;
      const double a = now_ms();
      for (std::size_t k = 0; k < kMaxKeys; ++k) {
        if (!served[k]) continue;
        const svc::Json j = svc::Json::parse(bytes[k]);
        const std::string key = svc::canonical_key(j);
        const std::string again = j.dump();
        n += key.size() + again.size() > 0;
      }
      per_request_us.push_back(1000.0 * (now_ms() - a) /
                               static_cast<double>(std::max<std::size_t>(1, n)));
    }
    report.set("svc.codec_us", median(per_request_us), "us");
  }

  double coalesced = router_stats.number_or("coalesced", 0.0);
  std::vector<double> routed;
  for (const svc::Json& w : router_stats.find("worker_stats")->as_array()) {
    const svc::Json* ws = w.find("stats");
    if (!ws || ws->is_null()) continue;
    coalesced += ws->number_or("coalesced", 0.0);
    routed.push_back(ws->number_or("requests", 0.0));
  }
  double mean_routed = 0.0;
  for (double r : routed) mean_routed += r / static_cast<double>(routed.size());
  report.set("svc.coalesced", coalesced, "count");
  report.set("router.shard_skew",
             mean_routed > 0 ? *std::max_element(routed.begin(), routed.end()) / mean_routed : 0.0,
             "ratio");
  report.set("router.sheds",
             router_stats.number_or("rejected_overload", 0.0) +
                 router_stats.number_or("shed_degraded", 0.0),
             "count");
  report.set("router.retries", router_stats.number_or("retries", 0.0), "count");
  report.set("obs.overhead_pct",
             100.0 * (median(traced_latency) / median(latency) - 1.0), "%");
  report.set("obs.coverage_pct", coverage, "%");
  return 0;
}

// ---------------------------------------------------------------------------

/// An untraced codesign run is split over kPhases child processes,
/// each with its own set-up and an equal share of the seconds. A process's
/// memory placement moves these workloads by ~10% on a shared VM; several
/// processes per run average it instead of taking one draw.
constexpr int kPhases = 3;

int run_phases(const Options& o, Report& report) {
  Timed all;
  std::vector<double> setups;
  double mape = 0.0;
  for (int i = 0; i < kPhases; ++i) {
    const std::string out = o.work + "/phase.txt";
    const pid_t pid = spawn(
        {std::filesystem::read_symlink("/proc/self/exe").string(),
         "--workload", o.workload, "--seed", std::to_string(o.seed + i),
         "--seconds", fmt(o.seconds / kPhases), "--corrupt",
         o.corrupt ? "1" : "0", "--ftbesst", o.ftbesst, "--work",
         o.work + "/p" + std::to_string(i), "--root", o.root, "--phase", "1"},
        "", out);
    if (wait_exit(pid) != 0) throw std::runtime_error("phase process failed");
    std::istringstream is(read_file(out));
    double setup_s = 0.0, span = 0.0;
    std::uint64_t attempted = 0, failed = 0;
    std::size_t n = 0;
    is >> setup_s >> mape >> attempted >> failed >> n >> span;
    for (std::size_t k = 0; k < n; ++k) {
      double start = 0.0, ms = 0.0;
      std::size_t member = 0;
      is >> start >> ms >> member;
      all.start_ms.push_back(all.t1 + start);
      all.op_ms.push_back(ms);
      all.member.push_back(member);
    }
    if (!is) throw std::runtime_error("malformed phase record");
    all.t1 += span;
    setups.push_back(setup_s);
    report.attempt(attempted);
    report.add_failed(failed);
  }
  // peak_rss_mb: the largest phase process (RUSAGE_CHILDREN).
  report_batch_e2e(report, all, median(setups), mape);
  return 0;
}

/// Per-layer metric names: every traced run reports all of them, with 0 for
/// layers its workload does not exercise (README.md has the mapping).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = [] {
    std::vector<std::pair<std::string, std::string>> v{
        {"apps.campaign_ms", "ms"},
        {"model.symreg.generations", "count"},
        {"model.symreg.evals", "count"},
        {"model.symreg.memo_hit_ratio", "ratio"},
        {"model.rows_evaluated", "count"},
        {"core.ensemble_ms", "ms"},
        {"core.dse_ms", "ms"},
        {"core.dse_us_per_trial", "us"},
        {"core.mc_trials", "count"},
        {"core.dse_points", "count"},
        {"sim.des_ms", "ms"},
        {"sim.vulcan_ms", "ms"},
        {"sim.des_events", "count"},
        {"sim.ns_per_event", "ns"},
        {"sim.folded_ranks", "count"},
        {"sim.heap_high_water", "count"},
        {"search.ms", "ms"},
        {"search.eval_fraction", "ratio"},
        {"inject.campaign_ms.des", "ms"},
        {"inject.campaign_ms.bsp", "ms"},
        {"inject.trials", "count"},
        {"inject.faults", "count"},
        {"inject.rollbacks_per_fault", "ratio"},
        {"inject.full_restarts", "count"},
        {"svc.rtt_ms.miss", "ms"},
        {"svc.codec_us", "us"},
        {"svc.rtt_ms.hit", "ms"},
        {"svc.cache_hit_ratio", "ratio"},
        {"svc.coalesced", "count"},
        {"svc.worker_rtt_ms.hit", "ms"},
        {"router.overhead_us", "us"},
        {"router.shard_skew", "ratio"},
        {"router.sheds", "count"},
        {"router.retries", "count"},
        {"pool.busy_share", "ratio"},
        {"pool.steals", "count"},
        {"model.speedup_2t", "ratio"},
        {"core.speedup_2t", "ratio"},
        {"inject.speedup_2t", "ratio"},
        {"obs.overhead_pct", "%"},
        {"obs.coverage_pct", "%"}};
    for (const std::string& k : suite_kernels()) {
      v.push_back({"model.fit_ms." + k, "ms"});
      v.push_back({"model.mape_pct." + k, "%"});
    }
    for (const char* op : {"predict", "simulate", "dse", "inject", "search"})
      v.push_back({std::string("svc.compute_ms.") + op, "ms"});
    return v;
  }();
  return m;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") o.workload = val;
    else if (key == "--seed") o.seed = std::stoull(val);
    else if (key == "--seconds") o.seconds = std::stod(val);
    else if (key == "--trace") o.trace = std::stoi(val) != 0;
    else if (key == "--corrupt") o.corrupt = std::stoi(val) != 0;
    else if (key == "--child") o.child = std::stoi(val);
    else if (key == "--phase") o.phase = std::stoi(val) != 0;
    else if (key == "--root") o.root = val;
    else if (key == "--ftbesst") o.ftbesst = val;
    else if (key == "--work") o.work = val;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (o.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  if (o.ftbesst.empty() || o.work.empty())
    throw std::invalid_argument("--ftbesst and --work are required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    std::filesystem::create_directories(o.work);
    if (o.child >= 0) return calibrate_child(o);
    Report report;
    Spans spans;
    if (o.trace)
      for (const auto& [name, unit] : per_layer_metrics())
        report.set(name, 0.0, unit);
    int rc = 2;
    if (o.workload == "calibrate") rc = run_calibrate(o, report, spans);
    else if (o.workload == "codesign" && !o.trace && !o.phase)
      rc = run_phases(o, report);
    else if (o.workload == "codesign") rc = run_codesign(o, report, spans);
    else if (o.workload == "serve") rc = run_serve(o, report);
    else throw std::invalid_argument("unknown workload '" + o.workload + "'");
    if (rc == 0 && !o.phase) report.print();
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 1;
  }
}
