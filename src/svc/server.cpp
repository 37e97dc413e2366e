#include "svc/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "model/expr_simd.hpp"
#include "obs/obs.hpp"
#include "svc/listen.hpp"

namespace ftbesst::svc {

namespace {

struct ServerMetrics {
  obs::Counter requests = obs::counter("svc.requests");
  obs::Counter completed = obs::counter("svc.completed");
  obs::Counter rejected_overload = obs::counter("svc.rejected.overload");
  obs::Counter rejected_deadline = obs::counter("svc.rejected.deadline");
  obs::Counter rejected_shutdown = obs::counter("svc.rejected.shutdown");
  obs::Counter bad_requests = obs::counter("svc.bad_requests");
  obs::Counter coalesced = obs::counter("svc.coalesced");
  obs::Counter read_timeouts = obs::counter("svc.read_timeouts");
  obs::Counter warmed = obs::counter("svc.worker.warmed");
  obs::Histogram request_seconds = obs::histogram(
      "svc.request_seconds",
      {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 300.0});
};

ServerMetrics& metrics() {
  static ServerMetrics m;
  return m;
}

// Signal plumbing: the handler may only touch async-signal-safe state, so
// it calls Server::shutdown(), which is restricted to an atomic store plus
// one write() to the self-pipe.
std::atomic<Server*> g_signal_target{nullptr};

void handle_stop_signal(int) {
  if (Server* server = g_signal_target.load(std::memory_order_acquire))
    server->shutdown();
}

}  // namespace

Server::Server(std::shared_ptr<const Registry> registry, ServerOptions options)
    : registry_(std::move(registry)),
      options_(std::move(options)),
      cache_(options_.cache) {
  if (!registry_) throw std::invalid_argument("Server requires a registry");
  if (options_.unix_socket_path.empty() && options_.tcp_port < 0)
    throw std::invalid_argument("Server needs a unix socket path or tcp port");
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
}

Server::~Server() {
  if (g_signal_target.load(std::memory_order_acquire) == this)
    install_signal_handlers(nullptr);
  if (started_.load(std::memory_order_acquire)) {
    shutdown();
    wait();
  }
  for (int fd : wake_pipe_)
    if (fd >= 0) ::close(fd);
}

void Server::install_signal_handlers(Server* server) {
  g_signal_target.store(server, std::memory_order_release);
  struct sigaction action {};
  if (server) {
    action.sa_handler = handle_stop_signal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: poll() must wake
  } else {
    action.sa_handler = SIG_DFL;
  }
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

void Server::start() {
  if (started_.exchange(true, std::memory_order_acq_rel))
    throw std::logic_error("Server::start() called twice");

  // Dead peers must surface as EPIPE from write(), not kill the process.
  ::signal(SIGPIPE, SIG_IGN);

  bool unix_bound = false;
  try {
    start_impl(unix_bound);
  } catch (...) {
    // A startup failure (busy port, bad path) must leave the object inert:
    // no loop thread ever ran, so wait()/~Server() must not block on
    // stop_cv_, and every fd acquired so far must be released.
    for (Listener* listener : {&unix_listener_, &tcp_listener_}) {
      if (listener->fd >= 0) ::close(listener->fd);
      listener->fd = -1;
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

void Server::start_impl(bool& unix_bound) {
  if (::pipe(wake_pipe_) != 0) throw_errno("pipe");
  for (int fd : wake_pipe_) {
    set_nonblocking(fd);
    set_cloexec(fd);
  }

  if (!options_.unix_socket_path.empty())
    unix_listener_.fd = bind_unix(options_.unix_socket_path, &unix_bound);
  if (options_.tcp_port >= 0)
    tcp_listener_.fd = bind_tcp(options_.tcp_port, &bound_tcp_port_);

  loop_thread_ = std::thread([this] { event_loop(); });
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock,
                  [this] { return stopped_.load(std::memory_order_acquire); });
  }
  if (loop_thread_.joinable()) loop_thread_.join();
}

void Server::run() {
  start();
  wait();
}

void Server::shutdown() {
  // Async-signal-safe on purpose: an atomic store plus one pipe write. The
  // event loop notices `draining_` and does all the actual teardown.
  draining_.store(true, std::memory_order_release);
  const int fd = wake_pipe_[1];
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
  }
}

void Server::event_loop() {
  bool listeners_closed = false;
  const auto close_listeners = [this, &listeners_closed] {
    if (listeners_closed) return;
    listeners_closed = true;
    for (Listener* l : {&unix_listener_, &tcp_listener_}) {
      if (l->fd >= 0) ::close(l->fd);
      l->fd = -1;
    }
    if (!options_.unix_socket_path.empty())
      ::unlink(options_.unix_socket_path.c_str());
  };

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
    reject_inline(conn, "bad_request", what);
    conn->close_socket();
  };
  hooks.on_read_timeout = [this](const std::shared_ptr<Conn>& conn) {
    read_timeouts_.fetch_add(1, std::memory_order_relaxed);
    metrics().read_timeouts.add();
    reject_inline(conn, "read_timeout",
                  "no complete frame within the read deadline");
    conn->close_socket();
  };
  hooks.tick = [this, &close_listeners](ReadLoop& loop) {
    if (!draining()) return false;
    loop.stop_accepting();
    close_listeners();
    if (in_flight_.load(std::memory_order_acquire) != 0) return false;
    tasks_.wait();  // joins the last tasks past their final decrement
    return true;
  };

  {
    ReadLoop loop(
        ReadLoopOptions{options_.max_frame_bytes, options_.read_deadline_ms,
                        50},
        std::move(hooks));
    std::vector<int> listeners;
    if (unix_listener_.fd >= 0) listeners.push_back(unix_listener_.fd);
    if (tcp_listener_.fd >= 0) listeners.push_back(tcp_listener_.fd);
    loop.run(listeners, wake_pipe_[0]);
  }

  close_listeners();

  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopped_.store(true, std::memory_order_release);
  }
  stop_cv_.notify_all();
}

void Server::admit(const std::shared_ptr<Conn>& conn, std::string frame) {
  if (draining()) {
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    metrics().rejected_shutdown.add();
    reject_inline(conn, "shutting_down", "server is draining");
    return;
  }
  if (in_flight_.load(std::memory_order_acquire) >= options_.queue_capacity) {
    rejected_overload_.fetch_add(1, std::memory_order_relaxed);
    metrics().rejected_overload.add();
    reject_inline(conn, "overload",
                  "request queue full (capacity " +
                      std::to_string(options_.queue_capacity) +
                      "); retry later");
    return;
  }
  // Only this thread increments, so the capacity bound is exact; workers
  // merely decrement.
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  requests_.fetch_add(1, std::memory_order_relaxed);
  metrics().requests.add();
  const std::uint64_t arrival_ns = obs::now_ns();
  tasks_.run([this, conn, frame = std::move(frame), arrival_ns]() mutable {
    execute(conn, std::move(frame), arrival_ns);
  });
}

std::string Server::warm_cache(const Json& request) {
  // Tier-internal bulk load: the router replays its journal of recently
  // cached {canonical key -> result bytes} pairs into a respawned worker's
  // shard so the first post-restart requests hit warm. Entries embed the
  // result payload as a JSON string; the escape round-trip is lossless, so
  // warmed hits stay byte-identical to the original cold computation.
  const Json* entries = request.find("entries");
  if (!entries || !entries->is_array())
    throw std::invalid_argument("warm needs an \"entries\" array");
  std::uint64_t loaded = 0;
  for (const Json& entry : entries->as_array()) {
    if (!entry.is_object())
      throw std::invalid_argument("warm entries must be objects");
    const std::string key = entry.string_or("key", "");
    const Json* result = entry.find("result");
    if (key.empty() || !result || !result->is_string())
      throw std::invalid_argument(
          "warm entries need \"key\" and string \"result\"");
    cache_.put(key, std::make_shared<const std::string>(result->as_string()));
    ++loaded;
  }
  warmed_.fetch_add(loaded, std::memory_order_relaxed);
  metrics().warmed.add(loaded);
  JsonObject result;
  result.emplace("warmed", Json(loaded));
  return ok_payload(false, Json(std::move(result)).dump());
}

void Server::execute(const std::shared_ptr<Conn>& conn, std::string frame,
                     std::uint64_t arrival_ns) {
  // Everything below must reach the decrement: drain-completion counts on
  // it, and the reply (or the attempt) has happened by then.
  try {
    Json request;
    try {
      request = Json::parse(frame);
      if (!request.is_object())
        throw std::invalid_argument("request must be a JSON object");
    } catch (const std::exception& e) {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      metrics().bad_requests.add();
      conn->send_frame(error_payload("bad_request", e.what()),
                       options_.max_frame_bytes);
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }

    const double deadline_ms =
        request.number_or("deadline_ms", options_.default_deadline_ms);
    if (deadline_ms > 0.0) {
      const double waited_ms =
          static_cast<double>(obs::now_ns() - arrival_ns) * 1e-6;
      if (waited_ms > deadline_ms) {
        rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
        metrics().rejected_deadline.add();
        conn->send_frame(
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
    std::string payload;
    if (op == "ping") {
      JsonObject pong;
      pong.emplace("pong", Json(true));
      payload = ok_payload(false, Json(std::move(pong)).dump());
    } else if (op == "stats") {
      payload = ok_payload(false, stats_json());
    } else if (op == "shutdown") {
      JsonObject result;
      result.emplace("draining", Json(true));
      payload = ok_payload(false, Json(std::move(result)).dump());
      completed_.fetch_add(1, std::memory_order_relaxed);
      metrics().completed.add();
      conn->send_frame(payload, options_.max_frame_bytes);
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      shutdown();
      return;
    } else if (op == "sleep") {
      // Debug/test op: holds a queue slot for a controlled duration so
      // overload and deadline behaviour are deterministically testable.
      // Never cached.
      const double ms =
          std::min(10000.0, std::max(0.0, request.number_or("ms", 0.0)));
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<std::int64_t>(ms * 1000.0)));
      JsonObject result;
      result.emplace("slept_ms", Json(ms));
      payload = ok_payload(false, Json(std::move(result)).dump());
    } else if (op == "warm") {
      try {
        payload = warm_cache(request);
      } catch (const std::invalid_argument& e) {
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        metrics().bad_requests.add();
        conn->send_frame(error_payload("bad_request", e.what()),
                         options_.max_frame_bytes);
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        return;
      }
    } else if (op == "predict" || op == "simulate" || op == "inject" ||
               op == "dse" || op == "search") {
      try {
        const std::string key = canonical_key(request);
        if (auto hit = cache_.get(key)) {
          payload = ok_payload(true, *hit);
        } else {
          bool leader = false;
          auto value = single_flight_.run(
              key,
              [this, &request, &key, &op]() -> SingleFlight::Result {
                // The search op reads prior single-cell dse entries out of
                // the result cache (warm start) and writes its own
                // full-fidelity evaluations back through the same hooks.
                CacheHooks hooks;
                if (op == "search") {
                  hooks.get = [this](const std::string& k) {
                    return cache_.get(k);
                  };
                  hooks.put = [this](const std::string& k,
                                     std::shared_ptr<const std::string> v) {
                    cache_.put(k, std::move(v));
                  };
                }
                const Json result_json =
                    handle_request(*registry_, request, hooks);
                if (op == "search") {
                  searches_.fetch_add(1, std::memory_order_relaxed);
                  search_warm_hits_.fetch_add(
                      static_cast<std::uint64_t>(
                          result_json.number_or("warm_hits", 0.0)),
                      std::memory_order_relaxed);
                  search_evaluations_.fetch_add(
                      static_cast<std::uint64_t>(
                          result_json.number_or("evaluations", 0.0)),
                      std::memory_order_relaxed);
                }
                auto result =
                    std::make_shared<const std::string>(result_json.dump());
                cache_.put(key, result);
                return result;
              },
              &leader);
          if (!leader) {
            coalesced_.fetch_add(1, std::memory_order_relaxed);
            metrics().coalesced.add();
          }
          payload = ok_payload(false, *value);
        }
      } catch (const std::invalid_argument& e) {
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        metrics().bad_requests.add();
        conn->send_frame(error_payload("bad_request", e.what()),
                         options_.max_frame_bytes);
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        return;
      }
    } else {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      metrics().bad_requests.add();
      conn->send_frame(
          error_payload("bad_request",
                        op.empty()
                            ? std::string("missing \"op\" field")
                            : "unknown op '" + op +
                                  "' (valid: ping, stats, predict, simulate, "
                                  "inject, dse, search, sleep, warm, "
                                  "shutdown)"),
          options_.max_frame_bytes);
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }

    // Counted before the reply goes out, so a client holding its reply
    // never reads a `stats` that does not include it yet.
    completed_.fetch_add(1, std::memory_order_relaxed);
    metrics().completed.add();
    conn->send_frame(payload, options_.max_frame_bytes);
    metrics().request_seconds.observe(
        static_cast<double>(obs::now_ns() - arrival_ns) * 1e-9);
  } catch (const std::exception& e) {
    // Engine/system failure: still answer so the client is not left
    // hanging, and keep the daemon alive.
    conn->send_frame(error_payload("internal", e.what()),
                     options_.max_frame_bytes);
  } catch (...) {
    conn->send_frame(error_payload("internal", "unknown error"),
                     options_.max_frame_bytes);
  }
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::reject_inline(const std::shared_ptr<Conn>& conn,
                           std::string_view code, std::string_view message) {
  // Runs on the event loop, which must never block: one non-blocking send
  // attempt; a too-slow client is dropped instead of wedging the loop.
  conn->try_send_frame(error_payload(code, message));
}

std::string Server::stats_json() const {
  const Stats s = stats();
  JsonObject cache;
  cache.emplace("hits", Json(s.cache.hits));
  cache.emplace("misses", Json(s.cache.misses));
  cache.emplace("evictions", Json(s.cache.evictions));
  cache.emplace("entries", Json(s.cache.entries));
  cache.emplace("bytes", Json(s.cache.bytes));
  JsonObject obj;
  obj.emplace("name", Json(options_.name));
  obj.emplace("accepted_connections", Json(s.accepted_connections));
  obj.emplace("requests", Json(s.requests));
  obj.emplace("completed", Json(s.completed));
  obj.emplace("rejected_overload", Json(s.rejected_overload));
  obj.emplace("rejected_deadline", Json(s.rejected_deadline));
  obj.emplace("rejected_shutdown", Json(s.rejected_shutdown));
  obj.emplace("bad_requests", Json(s.bad_requests));
  obj.emplace("coalesced", Json(s.coalesced));
  obj.emplace("read_timeouts", Json(s.read_timeouts));
  obj.emplace("warmed", Json(s.warmed));
  obj.emplace("searches", Json(s.searches));
  obj.emplace("search_warm_hits", Json(s.search_warm_hits));
  obj.emplace("search_evaluations", Json(s.search_evaluations));
  obj.emplace("in_flight", Json(in_flight_.load(std::memory_order_relaxed)));
  obj.emplace("queue_capacity", Json(options_.queue_capacity));
  // Which ExprProgram backend prices predict/dse batches in this process
  // (FTBESST_SIMD resolution), so clients can attribute throughput and
  // verify parity runs against the right configuration.
  obj.emplace("eval_backend",
              Json(std::string(model::to_string(model::active_backend()))));
  obj.emplace("avx2_supported", Json(model::avx2_supported()));
  obj.emplace("cache", Json(std::move(cache)));
  return Json(std::move(obj)).dump();
}

Server::Stats Server::stats() const {
  Stats s;
  s.accepted_connections =
      accepted_connections_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
  s.rejected_deadline = rejected_deadline_.load(std::memory_order_relaxed);
  s.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.read_timeouts = read_timeouts_.load(std::memory_order_relaxed);
  s.warmed = warmed_.load(std::memory_order_relaxed);
  s.searches = searches_.load(std::memory_order_relaxed);
  s.search_warm_hits = search_warm_hits_.load(std::memory_order_relaxed);
  s.search_evaluations =
      search_evaluations_.load(std::memory_order_relaxed);
  s.cache = cache_.stats();
  return s;
}

}  // namespace ftbesst::svc
