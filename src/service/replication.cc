#include "service/replication.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/fault_injection.h"
#include "common/parse_number.h"
#include "common/string_util.h"
#include "service/plan_cache_io.h"
#include "service/poll_fd.h"
#include "term/term.h"

namespace kola {

using service_internal::NowMs;
using service_internal::PollFd;

namespace {

/// A declared stream length beyond this is corruption (or a hostile
/// primary), not a snapshot; reading it would balloon the standby.
constexpr uint64_t kMaxSyncBytes = 256ull << 20;

/// Cap on the full-jitter backoff between failed syncs.
constexpr int64_t kMaxBackoffMs = 5000;

Status Errno(const std::string& what) {
  return UnavailableError(what + ": " + std::strerror(errno));
}

/// Non-blocking connect to 127.0.0.1:`port` bounded by the deadline. The
/// returned fd stays non-blocking so every subsequent read/write goes
/// through PollFd.
StatusOr<int> DialLoopback(int port, int64_t deadline_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("sync: socket()");
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    Status status = Errno("sync: connect(127.0.0.1:" + std::to_string(port) +
                          ")");
    ::close(fd);
    return status;
  }
  int ready = PollFd(fd, POLLOUT, deadline_ms);
  if (ready <= 0) {
    ::close(fd);
    return UnavailableError("sync: connect(127.0.0.1:" +
                            std::to_string(port) +
                            (ready == 0 ? ") timed out" : ") poll failed"));
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
    ::close(fd);
    return UnavailableError("sync: connect(127.0.0.1:" +
                            std::to_string(port) + "): " +
                            std::strerror(err != 0 ? err : errno));
  }
  return fd;
}

Status SendAll(int fd, std::string_view text, int64_t deadline_ms) {
  size_t sent = 0;
  while (sent < text.size()) {
    int ready = PollFd(fd, POLLOUT, deadline_ms);
    if (ready == 0) return UnavailableError("sync: send timed out");
    if (ready < 0) return Errno("sync: poll(POLLOUT)");
    ssize_t n = ::send(fd, text.data() + sent, text.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Errno("sync: send()");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Reads until `*buffer` holds at least `want` bytes or EOF/deadline.
Status ReadAtLeast(int fd, size_t want, int64_t deadline_ms,
                   std::string* buffer) {
  char chunk[1 << 16];
  while (buffer->size() < want) {
    int ready = PollFd(fd, POLLIN, deadline_ms);
    if (ready == 0) return UnavailableError("sync: read timed out");
    if (ready < 0) return Errno("sync: poll(POLLIN)");
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Errno("sync: recv()");
    }
    if (n == 0) {
      return UnavailableError("sync: stream truncated (primary hung up)");
    }
    buffer->append(chunk, static_cast<size_t>(n));
  }
  return Status::OK();
}

/// Reads one '\n'-terminated line into `*line` (terminator stripped);
/// leftover bytes stay in `*buffer` for the length-prefixed payload read.
Status ReadLine(int fd, int64_t deadline_ms, std::string* buffer,
                std::string* line) {
  size_t scanned = 0;
  for (;;) {
    size_t newline = buffer->find('\n', scanned);
    if (newline != std::string::npos) {
      *line = buffer->substr(0, newline);
      buffer->erase(0, newline + 1);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return Status::OK();
    }
    scanned = buffer->size();
    Status status = ReadAtLeast(fd, buffer->size() + 1, deadline_ms, buffer);
    if (!status.ok()) return status;
  }
}

struct FdCloser {
  int fd;
  ~FdCloser() { ::close(fd); }
};

}  // namespace

ReplicationClient::ReplicationClient(OptimizationService* service,
                                     ReplicationOptions options)
    : service_(service),
      options_(std::move(options)),
      backoff_rng_(options_.backoff_seed) {
  if (options_.sync_interval_ms < 1) options_.sync_interval_ms = 1;
  if (options_.io_deadline_ms < 1) options_.io_deadline_ms = 1;
}

ReplicationClient::~ReplicationClient() { Stop(); }

void ReplicationClient::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { SyncLoop(); });
}

void ReplicationClient::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

bool ReplicationClient::SleepFor(int64_t ms) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::milliseconds(ms), [&] { return stop_; });
  return !stop_;
}

Status ReplicationClient::SyncOnce() {
  attempts_.fetch_add(1, std::memory_order_relaxed);
  // The standby-side chaos probe: a torn receive path, drawn before any
  // bytes move so the schedule is deterministic per seed.
  if (Status injected = MaybeInjectFault(FaultSite::kReplSync);
      !injected.ok()) {
    return injected;
  }
  const int64_t deadline = NowMs() + options_.io_deadline_ms;
  StatusOr<int> dialed = DialLoopback(options_.port, deadline);
  if (!dialed.ok()) return dialed.status();
  FdCloser closer{dialed.value()};
  const int fd = dialed.value();

  if (Status status = SendAll(fd, "SYNC\n", deadline); !status.ok()) {
    return status;
  }
  std::string buffer, header;
  if (Status status = ReadLine(fd, deadline, &buffer, &header);
      !status.ok()) {
    return status;
  }
  // "OK SNAPSHOT <len> <hex checksum>" -- anything else (ERR NOT_READY
  // from a not-yet-synced upstream, an old binary) is a failed sync.
  std::vector<std::string> fields = Split(header, ' ');
  if (fields.size() != 4 || fields[0] != "OK" || fields[1] != "SNAPSHOT") {
    return UnavailableError("sync: unexpected response '" + header + "'");
  }
  auto declared_len = ParseUint64(fields[2]);
  uint64_t declared_checksum = 0;
  if (!declared_len.ok() || !ParseHex64(fields[3], &declared_checksum) ||
      declared_len.value() > kMaxSyncBytes) {
    return UnavailableError("sync: malformed stream header '" + header + "'");
  }
  const size_t len = static_cast<size_t>(declared_len.value());
  if (Status status = ReadAtLeast(fd, len, deadline, &buffer);
      !status.ok()) {
    return status;
  }
  const std::string bytes = buffer.substr(0, len);
  bytes_received_.fetch_add(len, std::memory_order_relaxed);

  // End-to-end integrity: the checksum was computed over the bytes the
  // primary intended to send, so any tear or flip in transit -- including
  // an injected kReplSync fault on the primary -- is caught here, before
  // a single entry is applied.
  if (StableStringHash(bytes) != declared_checksum) {
    checksum_mismatches_.fetch_add(1, std::memory_order_relaxed);
    return UnavailableError("sync: stream checksum mismatch (torn or "
                            "corrupt snapshot stream)");
  }

  SnapshotRestoreReport report = service_->ApplySyncBytes(bytes);
  return report.status;
}

void ReplicationClient::SyncLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
    }
    Status status = SyncOnce();
    if (status.ok()) {
      if (!SleepFor(options_.sync_interval_ms)) return;
      continue;
    }
    const int failures = service_->NoteSyncFailure();
    if (options_.promote_after_failures > 0 &&
        failures >= options_.promote_after_failures) {
      // The primary is gone (or unreachable long enough that split-brain
      // is the lesser risk on loopback): take over. The service starts
      // accepting BUMP; this loop's job is done.
      service_->Promote();
      return;
    }
    // Full jitter: uniform in (0, min(cap, interval << failures)], so a
    // herd of standbys does not stampede a recovering primary.
    int64_t ceiling = options_.sync_interval_ms;
    for (int i = 1; i < failures && ceiling < kMaxBackoffMs; ++i) {
      ceiling *= 2;
    }
    ceiling = std::min<int64_t>(ceiling, kMaxBackoffMs);
    int64_t nap = 1 + static_cast<int64_t>(backoff_rng_.NextDouble() *
                                           static_cast<double>(ceiling));
    if (!SleepFor(nap)) return;
  }
}

ReplicationClientStats ReplicationClient::stats() const {
  ReplicationClientStats s;
  s.attempts = attempts_.load(std::memory_order_relaxed);
  s.checksum_mismatches =
      checksum_mismatches_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.running = running_ && !stop_;
  }
  return s;
}

}  // namespace kola
