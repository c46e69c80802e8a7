#ifndef FSJOIN_UTIL_CHILD_PROCESS_H_
#define FSJOIN_UTIL_CHILD_PROCESS_H_

#include <chrono>

#include "util/status.h"

namespace fsjoin {

/// How a bounded child wait ended.
enum class ChildWait {
  kExited,    ///< the child exited (or died) on its own before the deadline
  kTimedOut,  ///< the deadline passed first; the child was SIGKILLed
};

/// Waits for child process `pid` to exit, but no longer than `deadline`,
/// and always reaps it: on return *wait_status holds the waitpid status,
/// so no zombie is left behind either way.
///
/// The wait wakes when the child exits, not on a timer. On Linux it polls a
/// pidfd (pidfd_open) with the time left to the deadline as the timeout.
/// Where pidfd_open is unavailable (ENOSYS, non-Linux POSIX) it falls back
/// to WaitChildByBackoff. Past the deadline the child is SIGKILLed and
/// reaped and the result is kTimedOut. An error means waitpid itself failed
/// (e.g. `pid` is not a child of this process).
Result<ChildWait> WaitChildUntil(int pid,
                                 std::chrono::steady_clock::time_point deadline,
                                 int* wait_status);

/// The portable body of WaitChildUntil: waitpid(WNOHANG) between sleeps
/// that double from 200 us up to 25.6 ms, so an exit is seen up to about
/// twice as late as it happened. Same contract as WaitChildUntil; exposed
/// for tests.
Result<ChildWait> WaitChildByBackoff(
    int pid, std::chrono::steady_clock::time_point deadline, int* wait_status);

}  // namespace fsjoin

#endif  // FSJOIN_UTIL_CHILD_PROCESS_H_
