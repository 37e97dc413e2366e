#include "svc/router.hpp"

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "obs/obs.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"
#include "svc/listen.hpp"
#include "svc/registry.hpp"
#include "svc/worker.hpp"

namespace ftbesst::svc {

namespace {

struct RouterMetrics {
  obs::Counter requests = obs::counter("svc.router.requests");
  obs::Counter completed = obs::counter("svc.router.completed");
  obs::Counter rejected_overload =
      obs::counter("svc.router.rejected.overload");
  obs::Counter rejected_shutdown =
      obs::counter("svc.router.rejected.shutdown");
  obs::Counter shed_degraded = obs::counter("svc.router.shed.degraded");
  obs::Counter bad_requests = obs::counter("svc.router.bad_requests");
  obs::Counter coalesced = obs::counter("svc.router.coalesced");
  obs::Counter routed = obs::counter("svc.router.routed");
  obs::Counter retries = obs::counter("svc.router.retries");
  obs::Counter respawns = obs::counter("svc.router.respawns");
  obs::Counter journal_replayed =
      obs::counter("svc.router.journal.replayed");
  obs::Histogram proxy_seconds = obs::histogram(
      "svc.router.proxy_seconds",
      {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 300.0});
};

RouterMetrics& metrics() {
  static RouterMetrics m;
  return m;
}

std::atomic<Router*> g_router_signal_target{nullptr};

void handle_router_stop_signal(int) {
  if (Router* router =
          g_router_signal_target.load(std::memory_order_acquire))
    router->shutdown();
}

constexpr std::size_t kMaxPooledLinks = 16;

bool wait_exit(pid_t pid, double grace_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(grace_s);
  while (true) {
    int status = 0;
    const pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid || (got < 0 && errno == ECHILD)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace

struct Router::Slot {
  explicit Slot(WorkerSpec spec_in) : spec(std::move(spec_in)) {}

  const WorkerSpec spec;
  std::atomic<bool> healthy{false};
  std::atomic<bool> restarting{false};
  std::atomic<pid_t> pid{-1};

  /// Serializes spawn/ready/warm transitions (supervisor vs. rolling
  /// restart); never held while serving.
  std::mutex lifecycle_mutex;

  std::mutex pool_mutex;
  std::vector<Client> idle;  ///< pooled proxy connections

  void drop_pool() {
    std::lock_guard<std::mutex> lock(pool_mutex);
    idle.clear();
  }
};

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      ring_(std::max<std::size_t>(options_.workers.size(), 1),
            options_.vnodes),
      journal_(options_.journal_max_entries, options_.journal_max_bytes) {
  if (options_.workers.empty())
    throw std::invalid_argument("Router needs at least one worker");
  if (options_.unix_socket_path.empty() && options_.tcp_port < 0)
    throw std::invalid_argument("Router needs a unix socket path or tcp port");
  if (options_.readers == 0) options_.readers = 1;
  if (options_.proxy_threads == 0) options_.proxy_threads = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  for (const WorkerSpec& spec : options_.workers) {
    if (spec.socket_path.empty())
      throw std::invalid_argument("WorkerSpec needs a socket path");
    if (spec.socket_path == options_.unix_socket_path)
      throw std::invalid_argument(
          "worker socket collides with the router socket: " +
          spec.socket_path);
  }
  slots_.reserve(options_.workers.size());
  for (const WorkerSpec& spec : options_.workers)
    slots_.push_back(std::make_unique<Slot>(spec));
}

Router::~Router() {
  if (g_router_signal_target.load(std::memory_order_acquire) == this)
    install_signal_handlers(nullptr);
  if (started_.load(std::memory_order_acquire)) {
    shutdown();
    wait();
  }
  for (int fd : wake_pipe_)
    if (fd >= 0) ::close(fd);
}

void Router::install_signal_handlers(Router* router) {
  g_router_signal_target.store(router, std::memory_order_release);
  struct sigaction action {};
  if (router) {
    action.sa_handler = handle_router_stop_signal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: poll() must wake
  } else {
    action.sa_handler = SIG_DFL;
  }
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

void Router::start() {
  if (started_.exchange(true, std::memory_order_acq_rel))
    throw std::logic_error("Router::start() called twice");
  ::signal(SIGPIPE, SIG_IGN);

  bool unix_bound = false;
  try {
    start_impl(unix_bound);
  } catch (...) {
    for (int* fd : {&unix_listener_fd_, &tcp_listener_fd_}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
    if (unix_bound) ::unlink(options_.unix_socket_path.c_str());
    for (int& fd : wake_pipe_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    bound_tcp_port_ = -1;
    started_.store(false, std::memory_order_release);
    throw;
  }
}

void Router::start_impl(bool& unix_bound) {
  if (::pipe(wake_pipe_) != 0) throw_errno("pipe");
  for (int fd : wake_pipe_) {
    set_nonblocking(fd);
    set_cloexec(fd);
  }
  if (!options_.unix_socket_path.empty())
    unix_listener_fd_ = bind_unix(options_.unix_socket_path, &unix_bound);
  if (options_.tcp_port >= 0)
    tcp_listener_fd_ = bind_tcp(options_.tcp_port, &bound_tcp_port_);

  // Threads last: once any thread runs, teardown goes through shutdown()
  // rather than the catch-cleanup above.
  proxy_threads_.reserve(options_.proxy_threads);
  for (std::size_t i = 0; i < options_.proxy_threads; ++i)
    proxy_threads_.emplace_back([this] { proxy_main(); });
  supervisor_thread_ = std::thread([this] { supervise(); });
  reader_threads_.reserve(options_.readers);
  for (std::size_t i = 0; i < options_.readers; ++i)
    reader_threads_.emplace_back([this, i] { reader_main(i); });
  closer_thread_ = std::thread([this] { closer_main(); });
}

void Router::wait() {
  {
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock,
                  [this] { return stopped_.load(std::memory_order_acquire); });
  }
  if (closer_thread_.joinable()) closer_thread_.join();
}

void Router::run() {
  start();
  wait();
}

void Router::shutdown() {
  // Async-signal-safe: an atomic store plus one pipe write; the closer
  // thread performs every non-signal-safe teardown step.
  draining_.store(true, std::memory_order_release);
  const int fd = wake_pipe_[1];
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
  }
}

bool Router::wait_healthy(double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (true) {
    bool all = true;
    for (const auto& slot : slots_)
      if (!slot->healthy.load(std::memory_order_acquire)) {
        all = false;
        break;
      }
    if (all) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

std::size_t Router::worker_count() const noexcept { return slots_.size(); }

bool Router::worker_healthy(std::size_t index) const {
  return slots_.at(index)->healthy.load(std::memory_order_acquire);
}

pid_t Router::worker_pid(std::size_t index) const {
  return slots_.at(index)->pid.load(std::memory_order_acquire);
}

std::size_t Router::worker_for_key(std::string_view canonical) const {
  return ring_.lookup(canonical);
}

// ---------------------------------------------------------------------------
// Reader side

void Router::reader_main(std::size_t index) {
  ReadLoop::Hooks hooks;
  hooks.on_accept = [this](const std::shared_ptr<Conn>&) {
    accepted_connections_.fetch_add(1, std::memory_order_relaxed);
  };
  hooks.on_frame = [this](const std::shared_ptr<Conn>& conn,
                          std::string&& frame) {
    admit(conn, std::move(frame));
  };
  hooks.on_frame_error = [this](const std::shared_ptr<Conn>& conn,
                                const char* what) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    metrics().bad_requests.add();
    conn->try_send_frame(error_payload("bad_request", what));
    conn->close_socket();
  };
  hooks.on_read_timeout = [this](const std::shared_ptr<Conn>& conn) {
    read_timeouts_.fetch_add(1, std::memory_order_relaxed);
    conn->try_send_frame(error_payload(
        "read_timeout", "no complete frame within the read deadline"));
    conn->close_socket();
  };
  hooks.tick = [this](ReadLoop& loop) {
    if (!draining()) return false;
    loop.stop_accepting();
    // Exit once admitted work is fully drained; queued jobs count in
    // in_flight_, so 0 means the proxy pool is idle too.
    return in_flight_.load(std::memory_order_acquire) == 0;
  };

  ReadLoop loop(
      ReadLoopOptions{options_.max_frame_bytes, options_.read_deadline_ms, 50},
      std::move(hooks));
  std::vector<int> listeners;
  if (unix_listener_fd_ >= 0) listeners.push_back(unix_listener_fd_);
  if (tcp_listener_fd_ >= 0) listeners.push_back(tcp_listener_fd_);
  // Reader 0 polls the wake pipe; siblings notice drain via the poll cap.
  loop.run(listeners, index == 0 ? wake_pipe_[0] : -1);
}

void Router::admit(const std::shared_ptr<Conn>& conn, std::string&& frame) {
  if (draining()) {
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    metrics().rejected_shutdown.add();
    conn->try_send_frame(error_payload("shutting_down", "tier is draining"));
    return;
  }
  // Multiple readers admit concurrently: increment first, roll back when
  // over — the bound may transiently overshoot by (readers - 1), never
  // undershoot.
  if (in_flight_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.queue_capacity) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_overload_.fetch_add(1, std::memory_order_relaxed);
    metrics().rejected_overload.add();
    conn->try_send_frame(
        error_payload("overload", "request queue full (capacity " +
                                      std::to_string(options_.queue_capacity) +
                                      "); retry later"));
    return;
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  metrics().requests.add();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(ProxyJob{conn, std::move(frame), obs::now_ns()});
  }
  queue_cv_.notify_one();
}

// ---------------------------------------------------------------------------
// Proxy side

void Router::proxy_main() {
  while (true) {
    ProxyJob job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return proxy_stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // proxy_stop_ and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    execute(std::move(job));
  }
}

void Router::execute(ProxyJob job) {
  // Mirror of Server::execute's contract: every path answers the client
  // and reaches the in_flight_ decrement.
  const auto finish = [this](const std::shared_ptr<Conn>& conn,
                             std::string_view payload) {
    // Counted before the reply goes out (see Server::execute).
    completed_.fetch_add(1, std::memory_order_relaxed);
    metrics().completed.add();
    conn->send_frame(payload, options_.max_frame_bytes);
  };
  try {
    Json request;
    try {
      request = Json::parse(job.frame);
      if (!request.is_object())
        throw std::invalid_argument("request must be a JSON object");
    } catch (const std::exception& e) {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      metrics().bad_requests.add();
      job.conn->send_frame(error_payload("bad_request", e.what()),
                           options_.max_frame_bytes);
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }

    const double deadline_ms =
        request.number_or("deadline_ms", options_.default_deadline_ms);
    if (deadline_ms > 0.0) {
      const double waited_ms =
          static_cast<double>(obs::now_ns() - job.arrival_ns) * 1e-6;
      if (waited_ms > deadline_ms) {
        job.conn->send_frame(
            error_payload("deadline",
                          "deadline of " + std::to_string(deadline_ms) +
                              " ms expired while queued (waited " +
                              std::to_string(waited_ms) + " ms)"),
            options_.max_frame_bytes);
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        return;
      }
    }

    const std::string op = request.string_or("op", "");
    if (op == "ping") {
      JsonObject pong;
      pong.emplace("pong", Json(true));
      finish(job.conn, ok_payload(false, Json(std::move(pong)).dump()));
    } else if (op == "stats") {
      finish(job.conn, ok_payload(false, stats_json()));
    } else if (op == "shutdown") {
      JsonObject result;
      result.emplace("draining", Json(true));
      finish(job.conn, ok_payload(false, Json(std::move(result)).dump()));
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      shutdown();
      return;
    } else if (op == "rolling_restart") {
      const std::uint64_t before =
          journal_replayed_.load(std::memory_order_relaxed);
      const std::uint64_t restarted = rolling_restart();
      JsonObject result;
      result.emplace("restarted", Json(restarted));
      result.emplace(
          "replayed",
          Json(journal_replayed_.load(std::memory_order_relaxed) - before));
      finish(job.conn, ok_payload(false, Json(std::move(result)).dump()));
    } else if (op == "warm") {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      metrics().bad_requests.add();
      job.conn->send_frame(
          error_payload("bad_request",
                        "warm is tier-internal (router -> worker only)"),
          options_.max_frame_bytes);
    } else if (op == "sleep") {
      finish(job.conn, forward_any(job.frame));
    } else if (op == "predict" || op == "simulate" || op == "inject" ||
               op == "dse" || op == "search") {
      std::string key;
      try {
        key = canonical_key(request);
      } catch (const std::exception& e) {
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        metrics().bad_requests.add();
        job.conn->send_frame(error_payload("bad_request", e.what()),
                             options_.max_frame_bytes);
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        return;
      }
      finish(job.conn, forward_keyed(key, job.frame));
      metrics().proxy_seconds.observe(
          static_cast<double>(obs::now_ns() - job.arrival_ns) * 1e-9);
    } else {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      metrics().bad_requests.add();
      job.conn->send_frame(
          error_payload(
              "bad_request",
              op.empty() ? std::string("missing \"op\" field")
                         : "unknown op '" + op +
                               "' (valid: ping, stats, predict, simulate, "
                               "inject, dse, search, sleep, "
                               "rolling_restart, shutdown)"),
          options_.max_frame_bytes);
    }
  } catch (const std::exception& e) {
    job.conn->send_frame(error_payload("internal", e.what()),
                         options_.max_frame_bytes);
  } catch (...) {
    job.conn->send_frame(error_payload("internal", "unknown error"),
                         options_.max_frame_bytes);
  }
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
}

std::string Router::forward_keyed(const std::string& key,
                                  const std::string& frame) {
  // One proxied round trip per distinct in-flight canonical key: followers
  // share the leader's reply bytes (the worker-side cache makes later
  // repeats hits anyway; this absorbs the concurrent burst).
  bool leader = false;
  const auto payload = single_flight_.run(
      key,
      [this, &key, &frame]() -> SingleFlight::Result {
        return std::make_shared<const std::string>(
            proxy_round_trip(ring_.lookup(key), frame,
                             /*journal_ok=*/true, key));
      },
      &leader);
  if (!leader) {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    metrics().coalesced.add();
  }
  return *payload;
}

std::string Router::forward_any(const std::string& frame) {
  // Uncacheable ops have no shard affinity: round-robin over healthy
  // workers.
  const std::size_t n = slots_.size();
  const std::size_t start = static_cast<std::size_t>(
      round_robin_.fetch_add(1, std::memory_order_relaxed));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t index = (start + i) % n;
    if (!slots_[index]->healthy.load(std::memory_order_acquire)) continue;
    return proxy_round_trip(index, frame, /*journal_ok=*/false, {});
  }
  shed_degraded_.fetch_add(1, std::memory_order_relaxed);
  metrics().shed_degraded.add();
  return error_payload("overload", "no healthy worker; retry later");
}

std::string Router::proxy_round_trip(std::size_t index,
                                     const std::string& frame, bool journal_ok,
                                     const std::string& key) {
  Slot& slot = *slots_[index];
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!slot.healthy.load(std::memory_order_acquire)) break;
    try {
      Client link = [&]() -> Client {
        if (attempt == 0) {
          std::lock_guard<std::mutex> lock(slot.pool_mutex);
          if (!slot.idle.empty()) {
            Client pooled = std::move(slot.idle.back());
            slot.idle.pop_back();
            return pooled;
          }
        }
        // Retry always dials fresh: the pooled fd may predate a worker
        // restart.
        return Client::connect_unix(slot.spec.socket_path,
                                    options_.worker_timeout_s);
      }();
      std::string reply = link.exchange(frame, options_.max_frame_bytes);
      {
        std::lock_guard<std::mutex> lock(slot.pool_mutex);
        if (slot.healthy.load(std::memory_order_acquire) &&
            slot.idle.size() < kMaxPooledLinks)
          slot.idle.push_back(std::move(link));
      }
      routed_.fetch_add(1, std::memory_order_relaxed);
      metrics().routed.add();
      if (error_code(reply) == "shutting_down") {
        // The worker is draining under us (rolling restart): shed cleanly;
        // the client retries and lands on the respawned shard.
        shed_degraded_.fetch_add(1, std::memory_order_relaxed);
        metrics().shed_degraded.add();
        return error_payload("overload", "worker shard restarting; retry");
      }
      if (journal_ok && !key.empty())
        if (const auto bytes = extract_result_bytes(reply))
          journal_.record(key, *bytes);
      return reply;
    } catch (const std::exception&) {
      if (attempt == 0) {
        retries_.fetch_add(1, std::memory_order_relaxed);
        metrics().retries.add();
        continue;
      }
      mark_degraded(index);
    }
  }
  shed_degraded_.fetch_add(1, std::memory_order_relaxed);
  metrics().shed_degraded.add();
  return error_payload("overload", "worker shard degraded; retry later");
}

// ---------------------------------------------------------------------------
// Supervision

void Router::mark_degraded(std::size_t index) {
  Slot& slot = *slots_[index];
  if (slot.healthy.exchange(false, std::memory_order_acq_rel))
    slot.drop_pool();
  supervisor_cv_.notify_all();
}

void Router::supervise() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(supervisor_mutex_);
      supervisor_cv_.wait_for(
          lock,
          std::chrono::duration<double, std::milli>(
              options_.health_interval_ms),
          [this] { return supervisor_stop_; });
      if (supervisor_stop_) return;
    }
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (stopping_.load(std::memory_order_acquire)) return;
      Slot& slot = *slots_[i];
      if (slot.restarting.load(std::memory_order_acquire)) continue;
      // Reap a spawned worker that died (crash, kill -9): its exit is the
      // strongest health signal and frees the zombie immediately.
      pid_t pid = slot.pid.load(std::memory_order_acquire);
      if (pid > 0) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
          slot.pid.compare_exchange_strong(pid, -1,
                                           std::memory_order_acq_rel);
          mark_degraded(i);
        }
      }
      if (!slot.healthy.load(std::memory_order_acquire)) {
        revive(i);
      } else if (!ping_worker(slot)) {
        mark_degraded(i);
        revive(i);
      }
    }
  }
}

bool Router::ping_worker(const Slot& slot) {
  try {
    Client probe = Client::connect_unix(slot.spec.socket_path, 2.0);
    const std::string reply =
        probe.exchange("{\"op\":\"ping\"}", options_.max_frame_bytes);
    return extract_result_bytes(reply).has_value();
  } catch (const std::exception&) {
    return false;
  }
}

void Router::revive(std::size_t index) {
  Slot& slot = *slots_[index];
  std::unique_lock<std::mutex> lifecycle(slot.lifecycle_mutex,
                                         std::try_to_lock);
  if (!lifecycle.owns_lock()) return;  // another thread is already on it
  if (stopping_.load(std::memory_order_acquire)) return;
  if (!bring_up(slot, index)) return;
  slot.healthy.store(true, std::memory_order_release);
}

bool Router::bring_up(Slot& slot, std::size_t index) {
  if (!slot.spec.spawn_argv.empty()) {
    // Kill any previous incarnation first: two workers must never race for
    // one shard socket.
    const pid_t old = slot.pid.exchange(-1, std::memory_order_acq_rel);
    if (old > 0) {
      ::kill(old, SIGKILL);
      ::waitpid(old, nullptr, 0);
    }
    pid_t pid = -1;
    try {
      pid = spawn_process(slot.spec.spawn_argv, slot.spec.spawn_env);
    } catch (const std::exception&) {
      return false;  // spawn failed; the next supervisor tick retries
    }
    slot.pid.store(pid, std::memory_order_release);
    if (!wait_ready(slot)) return false;
    respawns_.fetch_add(1, std::memory_order_relaxed);
    metrics().respawns.add();
  } else if (!ping_worker(slot)) {
    return false;  // externally managed and still down
  }
  const std::size_t replayed = warm_worker(slot, index);
  journal_replayed_.fetch_add(replayed, std::memory_order_relaxed);
  metrics().journal_replayed.add(replayed);
  return true;
}

bool Router::wait_ready(Slot& slot) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(options_.ready_timeout_s);
  while (!stopping_.load(std::memory_order_acquire)) {
    const pid_t pid = slot.pid.load(std::memory_order_acquire);
    if (pid > 0) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        slot.pid.store(-1, std::memory_order_release);
        return false;  // died during startup (bad registry, busy socket)
      }
    }
    if (ping_worker(slot)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

std::size_t Router::warm_worker(Slot& slot, std::size_t index) {
  const std::vector<WarmJournal::Entry> entries = journal_.snapshot();
  if (entries.empty()) return 0;
  std::size_t replayed = 0;
  JsonArray batch;
  std::size_t batch_bytes = 0;
  const std::size_t budget = options_.max_frame_bytes / 2;

  const auto flush = [&]() -> bool {
    if (batch.empty()) return true;
    const std::size_t count = batch.size();
    JsonObject request;
    request.emplace("op", Json(std::string("warm")));
    request.emplace("entries", Json(std::move(batch)));
    batch = JsonArray{};
    batch_bytes = 0;
    try {
      Client link = Client::connect_unix(slot.spec.socket_path,
                                         options_.worker_timeout_s);
      const std::string reply = link.exchange(
          Json(std::move(request)).dump(), options_.max_frame_bytes);
      if (!extract_result_bytes(reply).has_value()) return false;
      replayed += count;
      return true;
    } catch (const std::exception&) {
      return false;  // cold shard is degraded service, not an error
    }
  };

  for (const WarmJournal::Entry& entry : entries) {
    if (ring_.lookup(entry.key) != index) continue;
    const std::size_t approx = entry.key.size() + entry.result.size() + 32;
    if (!batch.empty() && batch_bytes + approx > budget && !flush())
      return replayed;
    JsonObject obj;
    obj.emplace("key", Json(entry.key));
    obj.emplace("result", Json(entry.result));
    batch.push_back(Json(std::move(obj)));
    batch_bytes += approx;
  }
  flush();
  return replayed;
}

std::uint64_t Router::rolling_restart() {
  std::lock_guard<std::mutex> rolling(rolling_mutex_);
  std::uint64_t restarted = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (stopping_.load(std::memory_order_acquire)) break;
    Slot& slot = *slots_[i];
    if (slot.spec.spawn_argv.empty())
      continue;  // externally managed: nothing to restart
    slot.restarting.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lifecycle(slot.lifecycle_mutex);
      // Degrade first: new keys for this shard shed cleanly while the old
      // worker drains its in-flight requests.
      if (slot.healthy.exchange(false, std::memory_order_acq_rel))
        slot.drop_pool();
      const pid_t old = slot.pid.exchange(-1, std::memory_order_acq_rel);
      if (old > 0) {
        ::kill(old, SIGTERM);  // graceful: drain, answer, exit
        if (!wait_exit(old, options_.worker_grace_s)) {
          ::kill(old, SIGKILL);
          ::waitpid(old, nullptr, 0);
        }
      }
      if (bring_up(slot, i)) {
        slot.healthy.store(true, std::memory_order_release);
        ++restarted;
      }
    }
    slot.restarting.store(false, std::memory_order_release);
  }
  rolling_restarts_.fetch_add(1, std::memory_order_relaxed);
  return restarted;
}

// ---------------------------------------------------------------------------
// Teardown

void Router::stop_workers() {
  // SIGTERM everyone first (they drain concurrently), then collect.
  for (const auto& slot : slots_) {
    const pid_t pid = slot->pid.load(std::memory_order_acquire);
    if (pid > 0) ::kill(pid, SIGTERM);
  }
  for (const auto& slot : slots_) {
    const pid_t pid = slot->pid.exchange(-1, std::memory_order_acq_rel);
    if (pid <= 0) continue;
    if (!wait_exit(pid, options_.worker_grace_s)) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
    if (!slot->spec.socket_path.empty())
      ::unlink(slot->spec.socket_path.c_str());
  }
}

void Router::closer_main() {
  for (std::thread& reader : reader_threads_) reader.join();
  // Readers exited: draining_ is set and in_flight_ hit 0, so the queue is
  // empty and every admitted request has been answered.
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(supervisor_mutex_);
    supervisor_stop_ = true;
  }
  supervisor_cv_.notify_all();
  supervisor_thread_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    proxy_stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& proxy : proxy_threads_) proxy.join();

  stop_workers();
  for (const auto& slot : slots_) slot->drop_pool();

  for (int* fd : {&unix_listener_fd_, &tcp_listener_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  if (!options_.unix_socket_path.empty())
    ::unlink(options_.unix_socket_path.c_str());

  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopped_.store(true, std::memory_order_release);
  }
  stop_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Stats

std::string Router::stats_json() {
  const Stats s = stats();
  JsonObject obj;
  obj.emplace("role", Json(std::string("router")));
  obj.emplace("workers", Json(static_cast<std::uint64_t>(slots_.size())));
  obj.emplace("readers",
              Json(static_cast<std::uint64_t>(options_.readers)));
  obj.emplace("accepted_connections", Json(s.accepted_connections));
  obj.emplace("requests", Json(s.requests));
  obj.emplace("completed", Json(s.completed));
  obj.emplace("rejected_overload", Json(s.rejected_overload));
  obj.emplace("rejected_shutdown", Json(s.rejected_shutdown));
  obj.emplace("shed_degraded", Json(s.shed_degraded));
  obj.emplace("bad_requests", Json(s.bad_requests));
  obj.emplace("coalesced", Json(s.coalesced));
  obj.emplace("routed", Json(s.routed));
  obj.emplace("retries", Json(s.retries));
  obj.emplace("respawns", Json(s.respawns));
  obj.emplace("rolling_restarts", Json(s.rolling_restarts));
  obj.emplace("journal_replayed", Json(s.journal_replayed));
  obj.emplace("read_timeouts", Json(s.read_timeouts));
  obj.emplace("in_flight", Json(in_flight_.load(std::memory_order_relaxed)));
  obj.emplace("queue_capacity", Json(options_.queue_capacity));
  JsonObject journal;
  journal.emplace("entries",
                  Json(static_cast<std::uint64_t>(journal_.entries())));
  journal.emplace("bytes", Json(static_cast<std::uint64_t>(journal_.bytes())));
  journal.emplace("evictions", Json(journal_.evictions()));
  obj.emplace("journal", Json(std::move(journal)));

  JsonArray workers;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = *slots_[i];
    JsonObject w;
    w.emplace("index", Json(static_cast<std::uint64_t>(i)));
    w.emplace("socket", Json(slot.spec.socket_path));
    w.emplace("healthy",
              Json(slot.healthy.load(std::memory_order_acquire)));
    w.emplace("spawned", Json(!slot.spec.spawn_argv.empty()));
    w.emplace("pid", Json(static_cast<std::int64_t>(
                         slot.pid.load(std::memory_order_acquire))));
    // Live per-worker stats, best effort: a shard that cannot answer in
    // time reports null.
    Json worker_stats;
    if (slot.healthy.load(std::memory_order_acquire)) {
      try {
        Client probe = Client::connect_unix(slot.spec.socket_path, 2.0);
        const std::string reply =
            probe.exchange("{\"op\":\"stats\"}", options_.max_frame_bytes);
        if (const auto bytes = extract_result_bytes(reply))
          worker_stats = Json::parse(std::string(*bytes));
      } catch (const std::exception&) {
      }
    }
    w.emplace("stats", std::move(worker_stats));
    workers.push_back(Json(std::move(w)));
  }
  obj.emplace("worker_stats", Json(std::move(workers)));
  return Json(std::move(obj)).dump();
}

Router::Stats Router::stats() const {
  Stats s;
  s.accepted_connections =
      accepted_connections_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
  s.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  s.shed_degraded = shed_degraded_.load(std::memory_order_relaxed);
  s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.routed = routed_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.respawns = respawns_.load(std::memory_order_relaxed);
  s.rolling_restarts = rolling_restarts_.load(std::memory_order_relaxed);
  s.journal_replayed = journal_replayed_.load(std::memory_order_relaxed);
  s.read_timeouts = read_timeouts_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ftbesst::svc
