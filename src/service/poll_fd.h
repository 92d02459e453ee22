#ifndef KOLA_SERVICE_POLL_FD_H_
#define KOLA_SERVICE_POLL_FD_H_

// The poll discipline kolad's socket server and its replication client
// share. Internal to kola_service.

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>

namespace kola {
namespace service_internal {

/// Milliseconds on the monotonic clock the deadlines below are taken on.
inline int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Polls `fd` for `events` up to `deadline_ms` (absolute, NowMs clock;
/// -1 = no deadline). Returns >0 when ready, 0 on deadline, <0 on a
/// non-EINTR error. EINTR restarts with the remaining budget.
inline int PollFd(int fd, short events, int64_t deadline_ms) {
  for (;;) {
    int timeout = -1;
    if (deadline_ms >= 0) {
      int64_t remaining = deadline_ms - NowMs();
      if (remaining <= 0) return 0;
      timeout = static_cast<int>(std::min<int64_t>(remaining, 1 << 30));
    }
    pollfd pfd{fd, events, 0};
    int rc = ::poll(&pfd, 1, timeout);
    if (rc < 0 && errno == EINTR) continue;
    return rc;
  }
}

}  // namespace service_internal
}  // namespace kola

#endif  // KOLA_SERVICE_POLL_FD_H_
