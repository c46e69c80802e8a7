// Standalone cluster worker: listens on --listen host:port, waits for a
// coordinator (ClusterTaskRunner dial mode, `--runner cluster --workers
// host:port,...`) to connect, then executes dispatched tasks and serves its
// retained shuffle partitions until the coordinator sends kShutdown.
//
// Usage:
//   fsjoin_worker --listen 127.0.0.1:9001 [--timeout-ms 10000]
//
// The process serves exactly one coordinator session and then exits, so a
// driver script can restart workers between runs without pid bookkeeping.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/jobs.h"
#include "net/worker.h"
#include "util/endpoint.h"
#include "util/status.h"
#include "util/string_util.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --listen <host:port> [--timeout-ms <ms>]\n"
               "Runs one fsjoin cluster worker session (DESIGN.md 5j):\n"
               "accepts a coordinator connection, executes dispatched tasks,\n"
               "serves retained shuffle partitions, exits on shutdown.\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fsjoin::net::WorkerServeOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--listen") == 0 && i + 1 < argc) {
      options.listen = argv[++i];
    } else if (std::strcmp(arg, "--timeout-ms") == 0 && i + 1 < argc) {
      auto ms = fsjoin::ParseInt64(argv[++i], 1, INT32_MAX);
      if (!ms.ok()) {
        std::fprintf(stderr, "bad --timeout-ms value: %s\n",
                     ms.status().message().c_str());
        return Usage(argv[0]);
      }
      options.timeout_ms = static_cast<int>(*ms);
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return Usage(argv[0]);
    }
  }
  if (options.listen.empty()) {
    std::fprintf(stderr, "--listen is required\n");
    return Usage(argv[0]);
  }
  // Pull the core jobs translation unit (and its static
  // "core.verification" task-factory registration) into this binary with a
  // real call: a static archive only links objects whose symbols are
  // referenced, an unused address-of constant gets folded away before the
  // linker sees it, and the worker reaches task factories purely by name
  // over the wire.
  (void)fsjoin::MakeVerificationJobConfig(fsjoin::SimilarityFunction::kJaccard,
                                          1.0, 1, 1);
  // Validate up front for a friendly message; ServeWorker re-parses.
  auto ep = fsjoin::ParseEndpoint(options.listen);
  if (!ep.ok()) {
    std::fprintf(stderr, "%s\n", ep.status().ToString().c_str());
    return 2;
  }
  fsjoin::Status st = fsjoin::net::ServeWorker(options);
  if (!st.ok()) {
    std::fprintf(stderr, "fsjoin_worker: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
