#include "util/child_process.h"

#include <cerrno>
#include <climits>
#include <cstring>
#include <string>
#include <thread>

#ifndef _WIN32
#include <poll.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace fsjoin {

using Clock = std::chrono::steady_clock;

#ifdef _WIN32

Result<ChildWait> WaitChildUntil(int, Clock::time_point, int*) {
  return Status::Unimplemented("child processes require POSIX");
}

Result<ChildWait> WaitChildByBackoff(int, Clock::time_point, int*) {
  return Status::Unimplemented("child processes require POSIX");
}

#else  // !_WIN32

namespace {

Status WaitpidError() {
  return Status::Internal("waitpid failed: " + std::string(std::strerror(errno)));
}

/// waitpid that retries EINTR; `flags` 0 blocks until the child is reaped.
pid_t WaitpidRetry(int pid, int* wait_status, int flags) {
  pid_t waited;
  do {
    waited = waitpid(pid, wait_status, flags);
  } while (waited < 0 && errno == EINTR);
  return waited;
}

/// The deadline has passed: reap the child if it exited in the meantime,
/// otherwise SIGKILL it and reap the kill.
Result<ChildWait> KillAndReap(int pid, int* wait_status) {
  pid_t waited = WaitpidRetry(pid, wait_status, WNOHANG);
  if (waited > 0) return ChildWait::kExited;
  if (waited < 0) return WaitpidError();
  kill(pid, SIGKILL);
  if (WaitpidRetry(pid, wait_status, 0) < 0) return WaitpidError();
  return ChildWait::kTimedOut;
}

/// Milliseconds left until `deadline`, rounded up so a poll never wakes
/// just short of it and spins; 0 once it has passed.
int MillisUntil(Clock::time_point deadline) {
  const auto left = deadline - Clock::now();
  if (left <= Clock::duration::zero()) return 0;
  const auto ms = std::chrono::ceil<std::chrono::milliseconds>(left).count();
  return ms > INT_MAX ? INT_MAX : static_cast<int>(ms);
}

int PidfdOpen(int pid) {
#ifdef SYS_pidfd_open
  return static_cast<int>(syscall(SYS_pidfd_open, pid, 0));
#else
  (void)pid;
  errno = ENOSYS;
  return -1;
#endif
}

}  // namespace

Result<ChildWait> WaitChildUntil(int pid, Clock::time_point deadline,
                                 int* wait_status) {
  const int pidfd = PidfdOpen(pid);
  if (pidfd < 0) return WaitChildByBackoff(pid, deadline, wait_status);
  // A pidfd turns readable when its process exits.
  pollfd pfd{pidfd, POLLIN, 0};
  int rc = 0;
  while (const int timeout_ms = MillisUntil(deadline)) {
    rc = poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) rc = 0;
    if (rc != 0) break;
  }
  close(pidfd);
  if (rc > 0) {
    if (WaitpidRetry(pid, wait_status, 0) < 0) return WaitpidError();
    return ChildWait::kExited;
  }
  if (rc < 0) return WaitChildByBackoff(pid, deadline, wait_status);
  return KillAndReap(pid, wait_status);
}

Result<ChildWait> WaitChildByBackoff(int pid, Clock::time_point deadline,
                                     int* wait_status) {
  for (int64_t sleep_us = 200;;) {
    const pid_t waited = WaitpidRetry(pid, wait_status, WNOHANG);
    if (waited > 0) return ChildWait::kExited;
    if (waited < 0) return WaitpidError();
    if (Clock::now() >= deadline) return KillAndReap(pid, wait_status);
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    if (sleep_us < 20'000) sleep_us *= 2;
  }
}

#endif  // _WIN32

}  // namespace fsjoin
