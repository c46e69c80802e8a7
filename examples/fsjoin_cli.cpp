// Command-line set similarity join over text files: one record per line.
//
//   fsjoin_cli --input corpus.txt --theta 0.8 [options]
//
// Options:
//   --input PATH        the (left) input file: the whole collection for a
//                       self join, the R side for --join rs     (required)
//   --join MODE         self | rs                               [self]
//   --right PATH        S side of an R-S join; implies --join rs. Output
//                       pairs are "r s sim" with s re-based into S's own
//                       id space
//   --theta X           similarity threshold in (0, 1]        [0.8]
//   --function NAME     jaccard | dice | cosine               [jaccard]
//   --tokenizer NAME    word | whitespace | qgramN (e.g. qgram3) [word]
//   --fragments N       vertical partitions                   [30]
//   --horizontal N      horizontal length pivots (0 = off)    [0]
//   --method NAME       loop | index | prefix                 [prefix]
//   --aggressive        paper-aggressive segment prefixes (faster,
//                       may miss borderline pairs)
//   --threads N         engine worker threads; they also split
//                       skewed fragment joins into morsels [0 = inline]
//   --shuffle-mem SIZE  spill the shuffle to disk past this many buffered
//                       bytes (0 or at least 64); accepts k/m/g
//                       suffixes                              [0 = in memory]
//   --spill-dir PATH    where spill runs are written (removed when the job
//                       finishes)                             [system temp]
//   --runner NAME       inline | threads | subprocess | cluster task
//                       execution (subprocess forks/re-execs one child per
//                       task attempt and retries lost attempts; cluster
//                       runs tasks on socket-RPC workers)     [threads]
//   --task-retries N    re-executions per lost task attempt (crash, kill,
//                       timeout, dead worker) on the subprocess or
//                       cluster runner                        [2]
//   --workers LIST      cluster: comma-separated host:port list of
//                       pre-started fsjoin_worker processes to dial
//   --spawn-local-workers N
//                       cluster: fork/exec N loopback workers from this
//                       binary instead of dialing --workers
//   --heartbeat-ms N    cluster liveness probe interval, >= 50 [2000]
//   --output PATH       write "idA idB similarity" lines; a failed
//                       write exits 1                         [stdout]
//   --report            print the execution report to stderr
//
// Internal: --worker-task SPEC re-executes one serialized task and exits
// (the subprocess runner launches the binary this way; see mr/worker.h).
// Internal: --worker-serve HOST:PORT turns the process into a cluster
// worker dialing that coordinator (spawn-local mode; see net/worker.h).

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "core/fsjoin.h"
#include "mr/engine.h"
#include "mr/worker.h"
#include "net/worker.h"
#include "text/corpus_io.h"
#include "text/tokenizer.h"
#include "util/string_util.h"

namespace {

// Upper bound on --threads and --spawn-local-workers: each is a thread or a
// process, so a typo like 40000 should fail here, not exhaust the machine.
constexpr int64_t kMaxThreads = 1024;

struct CliOptions {
  std::string input;
  std::string join = "self";
  std::string right;
  std::string output;
  std::string tokenizer = "word";
  fsjoin::JoinMethod method = fsjoin::JoinMethod::kPrefix;
  fsjoin::SimilarityFunction function = fsjoin::SimilarityFunction::kJaccard;
  fsjoin::mr::RunnerKind runner = fsjoin::mr::RunnerKind::kThreads;
  std::string spill_dir;
  std::string workers;
  int spawn_local_workers = 0;
  int heartbeat_ms = 2000;
  int task_retries = 2;
  double theta = 0.8;
  uint32_t fragments = 30;
  uint32_t horizontal = 0;
  size_t threads = 0;
  uint64_t shuffle_mem = 0;
  bool aggressive = false;
  bool report = false;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --input FILE [--join self|rs] [--right FILE] "
               "[--theta X] "
               "[--function jaccard|dice|cosine] [--tokenizer "
               "word|whitespace|qgramN] [--fragments N] [--horizontal N] "
               "[--method loop|index|prefix] "
               "[--aggressive] "
               "[--threads N] "
               "[--shuffle-mem SIZE] [--spill-dir DIR] "
               "[--runner inline|threads|subprocess|cluster] "
               "[--task-retries N] "
               "[--workers host:port,...] [--spawn-local-workers N] "
               "[--heartbeat-ms N] "
               "[--output FILE] [--report]\n",
               argv0);
  return 2;
}

// Parses "262144", "256k", "64m" or "1g" into bytes; returns false on junk.
bool ParseByteSize(const char* text, uint64_t* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || value < 0) return false;
  double mult = 1.0;
  if (*end == 'k' || *end == 'K') {
    mult = 1024.0;
    ++end;
  } else if (*end == 'm' || *end == 'M') {
    mult = 1024.0 * 1024.0;
    ++end;
  } else if (*end == 'g' || *end == 'G') {
    mult = 1024.0 * 1024.0 * 1024.0;
    ++end;
  }
  if (*end != '\0') return false;
  *out = static_cast<uint64_t>(value * mult);
  return true;
}

fsjoin::Result<std::unique_ptr<fsjoin::Tokenizer>> MakeTokenizer(
    const std::string& name) {
  if (name == "word") {
    return std::unique_ptr<fsjoin::Tokenizer>(new fsjoin::WordTokenizer());
  }
  if (name == "whitespace") {
    return std::unique_ptr<fsjoin::Tokenizer>(
        new fsjoin::WhitespaceTokenizer());
  }
  if (name.rfind("qgram", 0) == 0) {
    auto q = fsjoin::ParseInt64(std::string_view(name).substr(5), 1, 1024);
    if (!q.ok()) {
      return fsjoin::Status::InvalidArgument("bad qgram size: " +
                                             q.status().message());
    }
    return std::unique_ptr<fsjoin::Tokenizer>(
        new fsjoin::QGramTokenizer(static_cast<size_t>(*q)));
  }
  return fsjoin::Status::InvalidArgument("unknown tokenizer: " + name);
}

// Parses flag `flag`'s value with `parse`, a checked parser returning a
// Result, into *out. On a missing or bad value it prints which flag and
// why and returns false; the caller then exits 2.
template <typename T, typename Parse>
bool ParseFlag(const std::string& flag, const char* value, Parse parse,
               T* out) {
  if (value == nullptr) {
    std::fprintf(stderr, "%s needs a value\n", flag.c_str());
    return false;
  }
  auto parsed = parse(value);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad %s value: %s\n", flag.c_str(),
                 parsed.status().message().c_str());
    return false;
  }
  *out = static_cast<T>(*parsed);
  return true;
}

// The --method parser, for ParseFlag.
fsjoin::Result<fsjoin::JoinMethod> JoinMethodFromName(std::string_view name) {
  for (fsjoin::JoinMethod m :
       {fsjoin::JoinMethod::kLoop, fsjoin::JoinMethod::kIndex,
        fsjoin::JoinMethod::kPrefix}) {
    if (name == fsjoin::JoinMethodName(m)) return m;
  }
  return fsjoin::Status::InvalidArgument(
      "unknown join method: '" + std::string(name) +
      "' (expected loop|index|prefix)");
}

// A checked parser of integers in [min, max], for ParseFlag.
auto IntIn(int64_t min, int64_t max) {
  return [=](std::string_view v) { return fsjoin::ParseInt64(v, min, max); };
}

}  // namespace

int main(int argc, char** argv) {
  // Worker mode: when launched as `fsjoin_cli --worker-task spec`, execute
  // that one task and exit. Must run before any CLI work so a re-execed
  // child never re-runs the whole join.
  if (const int code = fsjoin::mr::WorkerTaskMainIfRequested(argc, argv);
      code >= 0) {
    return code;
  }
  // Cluster worker mode: `fsjoin_cli --worker-serve host:port` (how
  // --spawn-local-workers re-execs this binary) serves tasks until the
  // coordinator shuts the session down.
  if (const int code = fsjoin::net::WorkerServeMainIfRequested(argc, argv);
      code >= 0) {
    return code;
  }
  CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--input") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.input = v;
    } else if (arg == "--join") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.join = v;
    } else if (arg == "--right") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.right = v;
      if (opts.join == "self") opts.join = "rs";
    } else if (arg == "--output") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.output = v;
    } else if (arg == "--theta") {
      if (!ParseFlag(arg, next(), fsjoin::ParseFraction, &opts.theta)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--function") {
      if (!ParseFlag(arg, next(), fsjoin::SimilarityFunctionFromName,
                     &opts.function)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--tokenizer") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.tokenizer = v;
    } else if (arg == "--method") {
      if (!ParseFlag(arg, next(), JoinMethodFromName, &opts.method)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--fragments") {
      if (!ParseFlag(arg, next(), IntIn(1, UINT32_MAX), &opts.fragments)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--horizontal") {
      if (!ParseFlag(arg, next(), IntIn(0, UINT32_MAX), &opts.horizontal)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--threads") {
      if (!ParseFlag(arg, next(), IntIn(0, kMaxThreads), &opts.threads)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--shuffle-mem") {
      const char* v = next();
      if (!v || !ParseByteSize(v, &opts.shuffle_mem)) {
        std::fprintf(stderr, "bad --shuffle-mem value\n");
        return Usage(argv[0]);
      }
      if (opts.shuffle_mem > 0 &&
          opts.shuffle_mem < fsjoin::mr::kMinShuffleMemoryBytes) {
        std::fprintf(stderr,
                     "bad --shuffle-mem value: %s is below the %llu-byte "
                     "minimum (0 keeps the shuffle in memory)\n",
                     v, static_cast<unsigned long long>(
                            fsjoin::mr::kMinShuffleMemoryBytes));
        return Usage(argv[0]);
      }
    } else if (arg == "--spill-dir") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.spill_dir = v;
    } else if (arg == "--runner") {
      if (!ParseFlag(arg, next(), fsjoin::mr::RunnerKindFromName,
                     &opts.runner)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--task-retries") {
      if (!ParseFlag(arg, next(), IntIn(0, INT32_MAX), &opts.task_retries)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--workers") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      opts.workers = v;
    } else if (arg == "--spawn-local-workers") {
      if (!ParseFlag(arg, next(), IntIn(0, kMaxThreads),
                     &opts.spawn_local_workers)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--heartbeat-ms") {
      if (!ParseFlag(arg, next(), IntIn(fsjoin::exec::kMinHeartbeatMs,
                                        INT32_MAX),
                     &opts.heartbeat_ms)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--aggressive") {
      opts.aggressive = true;
    } else if (arg == "--report") {
      opts.report = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (opts.input.empty()) return Usage(argv[0]);
  if (opts.join != "self" && opts.join != "rs") {
    std::fprintf(stderr, "unknown --join mode: %s (want self|rs)\n",
                 opts.join.c_str());
    return Usage(argv[0]);
  }
  if (opts.join == "rs" && opts.right.empty()) {
    std::fprintf(stderr, "--join rs needs --right FILE\n");
    return Usage(argv[0]);
  }
  const bool rs_mode = opts.join == "rs";

  fsjoin::FsJoinConfig config;
  config.theta = opts.theta;
  config.num_vertical_partitions = opts.fragments;
  config.num_horizontal_partitions = opts.horizontal;
  config.exec.num_threads = opts.threads;
  config.exec.shuffle_memory_bytes = opts.shuffle_mem;
  config.exec.spill_dir = opts.spill_dir;
  config.exec.task_retries = opts.task_retries;
  config.exec.workers = opts.workers;
  config.exec.spawn_local_workers = opts.spawn_local_workers;
  config.exec.heartbeat_ms = opts.heartbeat_ms;
  config.exec.runner = opts.runner;
  config.aggressive_segment_prefix = opts.aggressive;
  config.function = opts.function;
  config.join_method = opts.method;
  // Flag combinations (runner topology, spill floor, ...) fail here as bad
  // arguments, before any input is read.
  if (fsjoin::Status st = config.Validate(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return Usage(argv[0]);
  }

  auto tokenizer_result = MakeTokenizer(opts.tokenizer);
  if (!tokenizer_result.ok()) {
    std::fprintf(stderr, "bad --tokenizer value: %s\n",
                 tokenizer_result.status().message().c_str());
    return Usage(argv[0]);
  }
  std::unique_ptr<fsjoin::Tokenizer> tokenizer =
      std::move(tokenizer_result).value();

  auto load = [&](const std::string& path) -> fsjoin::Result<fsjoin::Corpus> {
    auto lines = fsjoin::ReadLines(path);
    if (!lines.ok()) return lines.status();
    return fsjoin::BuildCorpus(*lines, *tokenizer);
  };

  fsjoin::Result<fsjoin::Corpus> r = load(opts.input);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    return 1;
  }

  fsjoin::Result<fsjoin::FsJoinOutput> out =
      [&]() -> fsjoin::Result<fsjoin::FsJoinOutput> {
    if (!rs_mode) return fsjoin::FsJoin(config).Run(*r);
    fsjoin::Result<fsjoin::Corpus> s = load(opts.right);
    if (!s.ok()) return s.status();
    return fsjoin::FsJoinRS(*r, *s, config);
  }();
  if (!out.ok()) {
    std::fprintf(stderr, "join failed: %s\n", out.status().ToString().c_str());
    return 1;
  }

  const fsjoin::RecordId boundary =
      rs_mode ? static_cast<fsjoin::RecordId>(r->NumRecords()) : 0;
  std::FILE* sink = stdout;
  const char* sink_name = "standard output";
  if (!opts.output.empty()) {
    sink_name = opts.output.c_str();
    sink = std::fopen(sink_name, "w");
    if (sink == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", sink_name);
      return 1;
    }
  }
  for (const fsjoin::SimilarPair& p : out->pairs) {
    if (boundary > 0) {
      std::fprintf(sink, "%u %u %.6f\n", p.a, p.b - boundary, p.similarity);
    } else {
      std::fprintf(sink, "%u %u %.6f\n", p.a, p.b, p.similarity);
    }
  }
  // A full disk or a closed pipe must not lose pairs silently: check the
  // stream's error flag, the final flush and the close, stdout included.
  const bool failed = std::fflush(sink) != 0 || std::ferror(sink) != 0;
  if (std::fclose(sink) != 0 || failed) {
    std::fprintf(stderr, "cannot write results to %s: %s\n", sink_name,
                 std::strerror(errno));
    return 1;
  }
  if (opts.report) {
    std::fprintf(stderr, "%s\n", out->report.Summary().c_str());
  }
  return 0;
}
