#include "service/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <string>
#include <utility>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "service/poll_fd.h"

namespace kola {

using service_internal::NowMs;
using service_internal::PollFd;

namespace {

Status Errno(const std::string& what) {
  return InternalError(what + ": " + std::strerror(errno));
}

}  // namespace

SocketServer::SocketServer(OptimizationService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  if (options_.handler_threads < 1) options_.handler_threads = 1;
}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket()");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Errno("bind(127.0.0.1:" +
                          std::to_string(options_.port) + ")");
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) < 0) {
    Status status = Errno("listen()");
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_.store(ntohs(addr.sin_port), std::memory_order_release);
  }
  listen_fd_.store(fd, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SocketServer::AcceptLoop() {
  for (;;) {
    int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0 || stopping_.load(std::memory_order_acquire)) return;
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (stopping_.load(std::memory_order_acquire) ||
          listen_fd_.load(std::memory_order_acquire) < 0) {
        // Stop()/Drain() closed the listening socket under us.
        return;
      }
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM || errno == EAGAIN) {
        // Transient resource exhaustion: drop this would-be connection
        // (the peer sees a reset) and keep the daemon alive. Brief sleep
        // so a persistent EMFILE does not become a busy loop.
        accept_failures_.fetch_add(1, std::memory_order_relaxed);
        struct timespec nap{0, 10'000'000};  // 10 ms
        ::nanosleep(&nap, nullptr);
        continue;
      }
      // The listening socket is unusable; the loop is done.
      return;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    if (!MaybeInjectFault(FaultSite::kAccept).ok()) {
      // Injected accept failure: the connection dies before it is served,
      // exactly like a peer that vanished in the backlog.
      accept_failures_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    // Non-blocking + poll is what makes read/write deadlines enforceable:
    // a blocking recv/send could park a handler forever.
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    std::lock_guard<std::mutex> lock(threads_mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    client_fds_.push_back(fd);
    handler_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

bool SocketServer::SendAll(int fd, const std::string& text) {
  const int64_t deadline =
      options_.write_deadline_ms > 0 ? NowMs() + options_.write_deadline_ms
                                     : -1;
  size_t sent = 0;
  while (sent < text.size()) {
    int ready = PollFd(fd, POLLOUT, deadline);
    if (ready == 0) {
      // The peer has not drained its receive window within the write
      // deadline: a reader that stopped reading. Cut the connection.
      write_timeouts_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (ready < 0) {
      send_failures_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    size_t want = text.size() - sent;
    if (want > 1 && !MaybeInjectFault(FaultSite::kSend).ok()) {
      // Injected partial write: hand the kernel a single byte so the
      // short-write continuation path runs under chaos, deterministically.
      want = 1;
    }
    // MSG_NOSIGNAL: a peer that hung up must cost us one connection, not a
    // SIGPIPE for the whole daemon.
    ssize_t n = ::send(fd, text.data() + sent, want, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      send_failures_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (static_cast<size_t>(n) < text.size() - sent) {
      short_writes_.fetch_add(1, std::memory_order_relaxed);
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

void SocketServer::ServeConnection(int fd) {
  {
    // Handler-slot back-pressure: past the cap this connection waits its
    // turn before the first byte is read.
    std::unique_lock<std::mutex> lock(threads_mu_);
    slot_cv_.wait(lock, [&] {
      return active_handlers_ < options_.handler_threads ||
             stopping_.load(std::memory_order_acquire) ||
             drain_state_.load(std::memory_order_acquire) != 0;
    });
    ++active_handlers_;
  }

  std::string buffer;
  char chunk[4096];
  bool alive = !stopping_.load(std::memory_order_acquire);
  // The read-deadline clock starts when the handler slot is acquired and
  // restarts only when a COMPLETE line has been served: a slow-loris
  // dribbling bytes cannot keep a slot by resetting an idle timer.
  int64_t line_deadline =
      options_.read_deadline_ms > 0 ? NowMs() + options_.read_deadline_ms
                                    : -1;
  while (alive) {
    size_t newline;
    while (alive && (newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      std::string_view trimmed = StripWhitespace(line);
      if (trimmed.empty()) continue;
      if (trimmed == "QUIT") {
        SendAll(fd, "OK bye\n");
        alive = false;
        break;
      }
      if (trimmed == "SHUTDOWN") {
        SendAll(fd, "OK shutting down\n");
        alive = false;
        RequestShutdown();
        break;
      }
      std::string response = service_->HandleLine(line);
      response += '\n';
      if (!SendAll(fd, response)) {
        alive = false;
        break;
      }
      if (options_.read_deadline_ms > 0) {
        line_deadline = NowMs() + options_.read_deadline_ms;
      }
    }
    if (!alive) break;
    if (buffer.size() > options_.max_line_bytes) {
      SendAll(fd, "ERR INVALID_ARGUMENT: request line exceeds " +
                      std::to_string(options_.max_line_bytes) + " bytes\n");
      break;
    }
    int ready = PollFd(fd, POLLIN, line_deadline);
    if (ready == 0) {
      // Read deadline: no complete request within the budget. Tell the
      // peer why (best effort) and give the slot back.
      read_timeouts_.fetch_add(1, std::memory_order_relaxed);
      SendAll(fd, "ERR DEADLINE_EXCEEDED: no complete request within " +
                      std::to_string(options_.read_deadline_ms) + " ms\n");
      break;
    }
    if (ready < 0) {
      resets_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (!MaybeInjectFault(FaultSite::kRecv).ok()) {
      // Injected connection reset: the peer vanished mid-request.
      resets_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 &&
        (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;  // spurious wakeup; the deadline still bounds the loop
    }
    if (n < 0) {
      resets_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (n == 0) break;  // EOF, Drain()'s half-close, or Stop()'s shutdown()
    buffer.append(chunk, static_cast<size_t>(n));
  }

  ::shutdown(fd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    auto it = std::find(client_fds_.begin(), client_fds_.end(), fd);
    if (it != client_fds_.end()) client_fds_.erase(it);
    --active_handlers_;
  }
  // notify_all: slot waiters AND a Drain() waiting for the floor to clear.
  slot_cv_.notify_all();
  ::close(fd);
}

void SocketServer::Wait() {
  std::unique_lock<std::mutex> lock(wait_mu_);
  wait_cv_.wait(lock, [&] { return done_; });
}

void SocketServer::RequestShutdown() {
  // From here on PING answers "OK draining" and HEALTH reports DRAINING,
  // even while in-flight (and not-yet-drained) requests are still served:
  // clients should steer new work elsewhere before Drain() half-closes.
  service_->SetDraining();
  std::lock_guard<std::mutex> lock(wait_mu_);
  done_ = true;
  wait_cv_.notify_all();
}

bool SocketServer::Drain(int64_t deadline_ms) {
  service_->SetDraining();  // Drain without RequestShutdown still reports
  int expected = static_cast<int>(DrainState::kServing);
  drain_state_.compare_exchange_strong(
      expected, static_cast<int>(DrainState::kDraining),
      std::memory_order_acq_rel);

  // Stop accepting: close the listening socket (the accept loop exits).
  int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  {
    // Half-close every live connection for reading: in-flight requests
    // (including lines already buffered) finish and their responses are
    // written; the next recv sees EOF and the handler retires.
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (int fd : client_fds_) ::shutdown(fd, SHUT_RD);
  }
  slot_cv_.notify_all();

  bool drained;
  {
    std::unique_lock<std::mutex> lock(threads_mu_);
    drained = slot_cv_.wait_for(
        lock, std::chrono::milliseconds(deadline_ms),
        [&] { return client_fds_.empty() && active_handlers_ == 0; });
  }
  return drained;
}

void SocketServer::Stop() {
  stopping_.store(true, std::memory_order_release);
  drain_state_.store(static_cast<int>(DrainState::kStopped),
                     std::memory_order_release);
  int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    // Unblock every handler parked in poll/recv; they remove and close
    // their own fds on the way out.
    for (int fd : client_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  slot_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    handlers.swap(handler_threads_);
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    done_ = true;
  }
  wait_cv_.notify_all();
}

ServerStats SocketServer::stats() const {
  ServerStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.accept_failures = accept_failures_.load(std::memory_order_relaxed);
  s.read_timeouts = read_timeouts_.load(std::memory_order_relaxed);
  s.write_timeouts = write_timeouts_.load(std::memory_order_relaxed);
  s.resets = resets_.load(std::memory_order_relaxed);
  s.send_failures = send_failures_.load(std::memory_order_relaxed);
  s.short_writes = short_writes_.load(std::memory_order_relaxed);
  s.drain_state = static_cast<DrainState>(
      drain_state_.load(std::memory_order_acquire));
  return s;
}

std::string SocketServer::StatsLine() const {
  ServerStats s = stats();
  const char* state = "serving";
  if (s.drain_state == DrainState::kDraining) state = "draining";
  if (s.drain_state == DrainState::kStopped) state = "stopped";
  return "server connections=" + std::to_string(s.connections) +
         " accept_failures=" + std::to_string(s.accept_failures) +
         " read_timeouts=" + std::to_string(s.read_timeouts) +
         " write_timeouts=" + std::to_string(s.write_timeouts) +
         " resets=" + std::to_string(s.resets) +
         " send_failures=" + std::to_string(s.send_failures) +
         " short_writes=" + std::to_string(s.short_writes) +
         " drain_state=" + state;
}

}  // namespace kola
