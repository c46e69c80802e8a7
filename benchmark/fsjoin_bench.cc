// The FS-Join benchmark program: generates one workload from a seed, ingests
// its text the way fsjoin_cli does, times FsJoin::Run with every result
// checked against a serial PPJoin oracle, and prints the end-to-end metrics
// (or, traced, the per-layer ones). One workload per process; run.sh builds
// this binary and runs it. benchmark/README.md defines every metric and
// workload.
//
//   fsjoin_bench --workload NAME --seed N --work-dir DIR [--seconds S]
//                [--trace 0|1] [--trace-out PATH] [--json-out PATH]
//   fsjoin_bench --self-test --seed N --work-dir DIR [--workloads a,b]
//   fsjoin_bench --list-workloads
//
// Exit codes: 0 every output correct; 1 a join failed or disagreed with the
// oracle (the result line is still printed); 2 bad arguments; 3 the run
// could not be set up.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "check/invariants.h"
#include "core/fsjoin.h"
#include "core/pivots.h"
#include "mr/worker.h"
#include "net/worker.h"
#include "sim/global_order.h"
#include "sim/serial_join.h"
#include "text/corpus.h"
#include "text/corpus_io.h"
#include "text/generator.h"
#include "text/tokenizer.h"
#include "util/simd.h"

namespace fsjoin::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kTheta = 0.8;
constexpr size_t kThreads = 4;
constexpr int kClusterWorkers = 3;
constexpr uint64_t kSpillShuffleBytes = 256 * 1024;
constexpr size_t kIngestRepeats = 5;
constexpr size_t kSelfTestRecords = 1500;
constexpr size_t kBatchRecords = 256;
constexpr size_t kBatchWindows = 2000;
constexpr size_t kTracedBatches = 64;
constexpr int kDefaultSeconds = 15;
constexpr double kMiB = 1024.0 * 1024.0;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

enum class Shape {
  kSelf,     ///< one self join over the whole corpus per sample
  kBatches,  ///< one self join per 256-record window, closed loop
  kRs,       ///< R = first n/11 records, S = the rest
};

struct Workload {
  std::string_view name;
  SyntheticCorpusConfig (*preset)(double scale);
  double scale;
  Shape shape;
  bool cluster;  ///< socket-RPC cluster runner with spawned local workers
  bool spill;    ///< shuffle memory cap small enough that every job spills
  int warmups;
  double tail_quantile;  ///< highest with >= 10 samples beyond it
};

// Why each workload is here (README.md has the measurements behind it):
// pubmed-self is compute-bound in the filtering job; email-long has long
// records, so ordering and ingest weigh most; wiki-batches is dominated by
// fixed per-job cost; pubmed-cluster goes through net/; wiki-rs-spill spills
// every shuffle and runs side-tagged R-S loops. pubmed-cluster is kept
// small: spawned workers exit only at their shuffle server's next 200 ms
// accept poll, counted from the last shuffle fetch, so a join whose work
// after that fetch nears 200 ms reads a whole step more or less by host
// speed (5,000 records read 0.26 s or 0.46 s). At 2,000 records that work
// is about 75 ms.
constexpr Workload kWorkloads[] = {
    {"pubmed-self", PubMedLikeConfig, 0.5, Shape::kSelf, false, false, 3,
     0.75},
    {"email-long", EmailLikeConfig, 1.0, Shape::kSelf, false, false, 3, 0.75},
    {"wiki-batches", WikiLikeConfig, 1.0, Shape::kBatches, false, false, 20,
     0.95},
    {"pubmed-cluster", PubMedLikeConfig, 0.1, Shape::kSelf, true, false, 3,
     0.75},
    {"wiki-rs-spill", WikiLikeConfig, 1.0, Shape::kRs, false, true, 3, 0.75},
};

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

size_t RsBoundary(size_t num_records) { return num_records / 11; }

// ---------------------------------------------------------------------------
// Statistics and JSON

// Linear interpolation between closest ranks (numpy's default quantile).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double h = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(h);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  size_t n = 1;  ///< samples behind the value; q1/q3 are their quartiles
  double q1 = 0.0;
  double q3 = 0.0;
};

Metric Summarize(std::string name, std::string unit,
                 const std::vector<double>& samples, double q) {
  return Metric{std::move(name),        std::move(unit),
                Quantile(samples, q),   samples.size(),
                Quantile(samples, 0.25), Quantile(samples, 0.75)};
}

Metric Single(std::string name, std::string unit, double value) {
  return Metric{std::move(name), std::move(unit), value, 1, value, value};
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Tracing: spans around each call the benchmark makes into the program,
// kept in memory and written as Chrome trace-event JSON (ui.perfetto.dev
// opens it).

class Trace {
 public:
  /// Starts a span and returns its id (ids start at 1; parent 0 = root).
  int Open(std::string name, int parent, std::string args = {}) {
    spans_.push_back(
        Span{std::move(name), parent, std::move(args), Clock::now(), {}});
    return static_cast<int>(spans_.size());
  }

  /// Ends span `id` and returns its duration in seconds.
  double Close(int id) {
    Span& span = spans_[static_cast<size_t>(id - 1)];
    span.end = Clock::now();
    return Seconds(span.end - span.start);
  }

  void Count(std::string name,
             std::vector<std::pair<std::string, double>> values) {
    counters_.push_back(Counter{std::move(name), Clock::now(),
                                std::move(values)});
  }

  std::string ToJson() const {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    const char* sep = "";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += sep;
      sep = ",\n";
      out += "{\"name\":" + JsonString(s.name) +
             ",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
             JsonNumber(Micros(s.start)) +
             ",\"dur\":" + JsonNumber(Micros(s.end) - Micros(s.start)) +
             ",\"args\":{\"id\":" + std::to_string(i + 1) +
             ",\"parent\":" + std::to_string(s.parent) +
             (s.args.empty() ? "" : "," + s.args) + "}}";
    }
    for (const Counter& c : counters_) {
      out += sep;
      sep = ",\n";
      out += "{\"name\":" + JsonString(c.name) +
             ",\"cat\":\"bench\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":" +
             JsonNumber(Micros(c.at)) + ",\"args\":{";
      for (size_t k = 0; k < c.values.size(); ++k) {
        if (k > 0) out += ',';
        out += JsonString(c.values[k].first);
        out += ':';
        out += JsonNumber(c.values[k].second);
      }
      out += "}}";
    }
    return out + "]}\n";
  }

 private:
  struct Span {
    std::string name;
    int parent = 0;
    std::string args;  ///< extra JSON members for the span's args
    Clock::time_point start;
    Clock::time_point end;
  };
  struct Counter {
    std::string name;
    Clock::time_point at;
    std::vector<std::pair<std::string, double>> values;
  };

  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
};

// ---------------------------------------------------------------------------
// Process resources

// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS. Free heap
// is returned to the system first, so the mark starts from live data and a
// join's peak does not depend on what earlier joins left cached in malloc.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    const size_t digits = line.find_first_of("0123456789");
    uint64_t kib = 0;
    if (digits != std::string::npos) {
      std::from_chars(line.data() + digits, line.data() + line.size(), kib);
    }
    return static_cast<double>(kib) / 1024.0;
  }
  return 0.0;
}

double CpuSeconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    getrusage(who, &usage);
    total += static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
             static_cast<double>(usage.ru_utime.tv_usec +
                                 usage.ru_stime.tv_usec) /
                 1e6;
  }
  return total;
}

double ChildrenPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ProcField(const char* path, std::string_view key) {
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const size_t begin = line.find_first_not_of(" \t", colon + 1);
    return begin == std::string::npos ? "" : line.substr(begin);
  }
  return "unknown";
}

long NumProcessors() { return sysconf(_SC_NPROCESSORS_ONLN); }

std::string MachineJson() {
  return std::string("{\"nproc\":") + std::to_string(NumProcessors()) +
         ",\"cpu_model\":" +
         JsonString(ProcField("/proc/cpuinfo", "model name")) +
         ",\"simd\":" + JsonString(SimdIsaName(DetectedSimdIsa())) +
         ",\"compiler\":" + JsonString(FSJOIN_BENCH_COMPILER) +
         ",\"build_type\":" + JsonString(FSJOIN_BENCH_BUILD_TYPE) + "}";
}

// Owns a scratch directory and removes it, with everything in it, when the
// run ends.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {}
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Result<std::string> MakeScratchPath(const std::string& base) {
  std::error_code ec;
  std::filesystem::create_directories(base, ec);
  if (ec) return Status::IoError("cannot create " + base + ": " + ec.message());
  std::string templ = base + "/fsjoin-bench-XXXXXX";
  if (mkdtemp(templ.data()) == nullptr) {
    return Status::IoError("cannot create a directory under " + base);
  }
  return templ;
}

// ---------------------------------------------------------------------------
// Inputs

// One line of text per record: its token strings separated by spaces.
std::vector<std::string> RenderLines(const Corpus& corpus) {
  std::vector<std::string> lines;
  lines.reserve(corpus.NumRecords());
  for (const Record& record : corpus.records) {
    std::string line;
    for (const TokenId t : record.tokens) {
      if (!line.empty()) line += ' ';
      line += corpus.dictionary.TokenString(t);
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

// The workload's text for `seed`. The records are the preset's own draw, so
// every seed joins the same amount of data: drawing a new corpus per seed
// moved email-long's shuffle volume by 8% between seeds, more than the
// bounds. The seed shuffles the record order instead, which changes record
// and token ids, the global order's ties, the pivots, which records share a
// map task or window, and which records form R. Fisher-Yates over
// splitmix64, so a seed means the same order on every platform. `limit`
// keeps the first records of the draw before shuffling, so a slice keeps
// its near-duplicate pairs.
std::vector<std::string> GenerateLines(const Workload& w, uint64_t seed,
                                       size_t limit = SIZE_MAX) {
  std::vector<std::string> lines =
      RenderLines(GenerateCorpus(w.preset(w.scale)));
  lines.resize(std::min(lines.size(), limit));
  uint64_t state = seed;
  for (size_t i = lines.size(); i > 1; --i) {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    std::swap(lines[i - 1], lines[z % i]);
  }
  return lines;
}

Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  f.close();
  if (!f) return Status::IoError("cannot write " + path);
  return Status::OK();
}

// Writes the workload's text: one file, or R and S files for R-S.
Result<std::vector<std::string>> WriteInputs(const Workload& w, uint64_t seed,
                                             const std::string& dir) {
  const std::vector<std::string> lines = GenerateLines(w, seed);
  const auto text = [&lines](size_t begin, size_t end) {
    std::string out;
    for (size_t i = begin; i < end; ++i) (out += lines[i]) += '\n';
    return out;
  };
  if (w.shape != Shape::kRs) {
    const std::string path = dir + "/corpus.txt";
    FSJOIN_RETURN_NOT_OK(WriteFile(path, text(0, lines.size())));
    return std::vector<std::string>{path};
  }
  const size_t boundary = RsBoundary(lines.size());
  const std::string r = dir + "/r.txt";
  const std::string s = dir + "/s.txt";
  FSJOIN_RETURN_NOT_OK(WriteFile(r, text(0, boundary)));
  FSJOIN_RETURN_NOT_OK(WriteFile(s, text(boundary, lines.size())));
  return std::vector<std::string>{r, s};
}

struct Ingested {
  std::vector<Corpus> corpora;     ///< one per input file
  std::vector<std::string> lines;  ///< the first file's lines, if kept
  double read_s = 0.0;
  double tokenize_s = 0.0;
};

// The fsjoin_cli input path: ReadLines, then BuildCorpus with WordTokenizer.
Result<Ingested> Ingest(const std::vector<std::string>& paths, bool keep_lines,
                        Trace& trace, int parent) {
  Ingested in;
  const WordTokenizer tokenizer;
  for (const std::string& path : paths) {
    int span = trace.Open("ingest.read", parent);
    Result<std::vector<std::string>> lines = ReadLines(path);
    in.read_s += trace.Close(span);
    if (!lines.ok()) return lines.status();
    span = trace.Open("ingest.tokenize", parent);
    in.corpora.push_back(BuildCorpus(*lines, tokenizer));
    in.tokenize_s += trace.Close(span);
    if (keep_lines && in.lines.empty()) in.lines = std::move(lines).value();
  }
  return in;
}

// Window `index` of wiki-batches: kBatchRecords consecutive lines, with the
// kBatchWindows window starts spread evenly over the corpus.
Corpus BuildWindow(const std::vector<std::string>& lines, size_t index,
                   Trace& trace, int parent) {
  const size_t n = lines.size();
  const size_t slack = n > kBatchRecords ? n - kBatchRecords : 0;
  const size_t begin = (index % kBatchWindows) * slack / (kBatchWindows - 1);
  const size_t end = std::min(n, begin + kBatchRecords);
  const int span = trace.Open("ingest.tokenize", parent);
  Corpus window = BuildCorpus(
      std::vector<std::string>(lines.begin() + static_cast<long>(begin),
                               lines.begin() + static_cast<long>(end)),
      WordTokenizer());
  trace.Close(span);
  return window;
}

// ---------------------------------------------------------------------------
// Joins

// One FsJoin::Run call and the digest its result must reproduce.
struct JoinUnit {
  const Corpus* r = nullptr;  ///< the corpus of a self join, or R
  const Corpus* s = nullptr;  ///< S of an R-S join
  uint32_t oracle = 0;
};

Result<FsJoinOutput> RunJoin(const FsJoin& join, const JoinUnit& unit) {
  if (unit.s != nullptr) return join.Run(JoinInput{*unit.r, *unit.s});
  return join.Run(*unit.r);
}

struct Reference {
  uint32_t digest = 0;
  size_t pairs = 0;
  double order_s = 0.0;
  double pivots_s = 0.0;
  double ppjoin_s = 0.0;
};

// The serial oracle: PPJoin over the unit's corpus — for R-S over the merged
// corpus FS-Join itself runs on, keeping the pairs that straddle the
// boundary. Also times pivot selection over the same global order, the one
// coordinator-side step of FS-Join callable from outside.
Reference RunReference(const JoinUnit& unit, Trace& trace, int parent) {
  const FsJoinConfig defaults;
  Reference ref;
  int span = trace.Open("sim.order", parent);
  std::optional<Corpus> merged;
  if (unit.s != nullptr) merged.emplace(MergeJoinInput(JoinInput{*unit.r, *unit.s}));
  const Corpus& corpus = merged ? *merged : *unit.r;
  const GlobalOrder order = GlobalOrder::FromCorpus(corpus);
  const std::vector<OrderedRecord> ordered = ApplyGlobalOrder(corpus, order);
  ref.order_s = trace.Close(span);

  span = trace.Open("core.pivots", parent);
  SelectPivots(order, defaults.pivot_strategy,
               defaults.num_vertical_partitions - 1, defaults.seed);
  ref.pivots_s = trace.Close(span);

  span = trace.Open("sim.ppjoin", parent);
  JoinResultSet pairs = PPJoin(ordered, defaults.function, kTheta);
  ref.ppjoin_s = trace.Close(span);
  if (unit.s != nullptr) {
    const RecordId boundary = static_cast<RecordId>(unit.r->NumRecords());
    std::erase_if(pairs, [boundary](const SimilarPair& p) {
      return !(p.a < boundary && p.b >= boundary);
    });
  }
  ref.pairs = pairs.size();
  ref.digest = check::ResultDigest(pairs);
  return ref;
}

// Only the threshold and deployment settings are set: backend, kernel,
// method, fragment and task counts are the program's own defaults, which are
// what the benchmark measures.
FsJoinConfig MakeConfig(const Workload& w, bool cluster,
                        const std::string& scratch) {
  FsJoinConfig config;
  config.theta = kTheta;
  config.exec.num_threads = kThreads;
  config.exec.spill_dir = scratch;
  if (cluster) {
    config.exec.runner = mr::RunnerKind::kCluster;
    config.exec.spawn_local_workers = kClusterWorkers;
  }
  if (w.spill) config.exec.shuffle_memory_bytes = kSpillShuffleBytes;
  return config;
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

bool Verify(const Result<FsJoinOutput>& out, const JoinUnit& unit,
            Tally& tally) {
  ++tally.attempted;
  if (!out.ok()) {
    std::fprintf(stderr, "join failed: %s\n", out.status().ToString().c_str());
    ++tally.failed;
    return false;
  }
  const uint32_t digest = check::ResultDigest(out->pairs);
  if (digest != unit.oracle) {
    std::fprintf(stderr, "result digest %08x differs from the oracle's %08x\n",
                 digest, unit.oracle);
    ++tally.failed;
    return false;
  }
  return true;
}

double ShuffleMb(const FsJoinReport& report) {
  uint64_t bytes = 0;
  for (const mr::JobMetrics& job : report.AllJobs()) bytes += job.shuffle_bytes;
  return static_cast<double>(bytes) / kMiB;
}

struct Sample {
  double wall_s = 0.0;
  double rss_mb = 0.0;
  double shuffle_mb = 0.0;
};

Sample TimeJoin(const FsJoin& join, const JoinUnit& unit, Tally& tally) {
  ResetPeakRss();
  const Clock::time_point start = Clock::now();
  Result<FsJoinOutput> out = RunJoin(join, unit);
  Sample sample;
  sample.wall_s = Seconds(Clock::now() - start);
  sample.rss_mb = PeakRssMb();
  if (Verify(out, unit, tally)) sample.shuffle_mb = ShuffleMb(out->report);
  return sample;
}

// ---------------------------------------------------------------------------
// Per-layer metrics

void AddJob(std::vector<Metric>& m, const std::string& job,
            const mr::JobMetrics& j) {
  const std::string p = "mr." + job + ".";
  uint64_t max_group = 0;
  for (const mr::TaskMetrics& t : j.reduce_tasks) {
    max_group = std::max(max_group, t.max_group_bytes);
  }
  m.push_back(Single(p + "wall_s", "s", j.total_wall_micros / 1e6));
  m.push_back(Single(p + "map_task_s", "s", j.map_wall_micros / 1e6));
  m.push_back(Single(p + "reduce_task_s", "s", j.reduce_wall_micros / 1e6));
  m.push_back(Single(p + "shuffle_mb", "MiB", j.shuffle_bytes / kMiB));
  m.push_back(Single(p + "dup_factor", "ratio", j.DuplicationFactor()));
  m.push_back(Single(p + "reduce_skew", "ratio", j.ReduceSkew()));
  m.push_back(Single(p + "max_group_kb", "KiB", max_group / 1024.0));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The layers of one traced FsJoin::Run call: the serial reference beside
// it, the report's filter counters and per-job metrics, and resource use
// measured from outside.
std::vector<Metric> UnitLayers(const Reference& ref, const FsJoinReport& rep,
                               double wall_s, double cpu_s) {
  std::vector<Metric> m;
  const FilterCounters& f = rep.filters;
  m.push_back(Single("sim.ppjoin_s", "s", ref.order_s + ref.ppjoin_s));
  m.push_back(Single("core.pivots_s", "s", ref.pivots_s));
  m.push_back(Single("core.pairs_considered", "count", f.pairs_considered));
  m.push_back(Single("core.pruned_strl", "count", f.pruned_strl));
  m.push_back(Single("core.pruned_segl", "count", f.pruned_segl));
  m.push_back(Single("core.pruned_segi", "count", f.pruned_segi));
  m.push_back(Single("core.pruned_segd", "count", f.pruned_segd));
  m.push_back(Single("core.emit_ratio", "ratio",
                     Ratio(f.emitted, f.pairs_considered)));
  m.push_back(Single("core.candidates", "count", rep.candidate_pairs));
  m.push_back(Single("core.result_ratio", "ratio",
                     Ratio(rep.result_pairs, rep.candidate_pairs)));
  const std::pair<const char*, const mr::JobMetrics&> jobs[] = {
      {"ordering", rep.ordering_job},
      {"filtering", rep.filtering_job},
      {"verification", rep.verification_job}};
  double job_walls = 0.0;
  uint64_t tasks = 0;
  uint64_t attempts = 0;
  uint64_t spilled = 0;
  uint64_t spill_runs = 0;
  for (const auto& [name, j] : jobs) {
    AddJob(m, name, j);
    job_walls += j.total_wall_micros / 1e6;
    for (const auto* list : {&j.map_tasks, &j.reduce_tasks}) {
      for (const mr::TaskMetrics& t : *list) {
        ++tasks;
        attempts += t.attempts;
      }
    }
    spilled += j.spilled_bytes;
    spill_runs += j.spill_runs;
  }
  m.push_back(Single("mr.driver_s", "s", wall_s - job_walls));
  m.push_back(Single("mr.tasks", "count", tasks));
  m.push_back(Single("mr.retries", "count", attempts - tasks));
  m.push_back(Single("mr.cpu_s", "s", cpu_s));
  m.push_back(Single("mr.cpu_util", "ratio", Ratio(cpu_s, wall_s)));
  m.push_back(Single("store.spilled_mb", "MiB", spilled / kMiB));
  m.push_back(Single("store.spill_runs", "count", spill_runs));
  return m;
}

// Element-wise mean of per-unit layer lists (all share one layout).
std::vector<Metric> Mean(const std::vector<std::vector<Metric>>& units) {
  std::vector<Metric> mean = units.front();
  for (size_t i = 0; i < mean.size(); ++i) {
    double sum = 0.0;
    for (const std::vector<Metric>& u : units) sum += u[i].value;
    mean[i] = Single(mean[i].name, mean[i].unit, sum / units.size());
    mean[i].n = units.size();
  }
  return mean;
}

struct TracedJoin {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::optional<FsJoinReport> report;  ///< set when the join succeeded
};

TracedJoin RunTracedJoin(const FsJoin& join, const JoinUnit& unit,
                         Trace& trace, int parent, Tally& tally) {
  TracedJoin traced;
  const char* runner =
      join.config().exec.runner == mr::RunnerKind::kCluster ? "cluster"
                                                            : "threads";
  int span = trace.Open("fsjoin.run", parent,
                        std::string("\"runner\":") + JsonString(runner));
  const double cpu0 = CpuSeconds();
  Result<FsJoinOutput> out = RunJoin(join, unit);
  traced.cpu_s = CpuSeconds() - cpu0;
  traced.wall_s = trace.Close(span);
  span = trace.Open("check.digest", parent);
  const bool ok = Verify(out, unit, tally);
  trace.Close(span);
  if (ok) {
    const FsJoinReport& rep = out->report;
    trace.Count("fsjoin.report",
                {{"pairs_considered", rep.filters.pairs_considered},
                 {"emitted", rep.filters.emitted},
                 {"candidates", rep.candidate_pairs},
                 {"results", rep.result_pairs},
                 {"shuffle_mb", ShuffleMb(rep)},
                 {"program_wall_s", rep.total_wall_ms / 1e3}});
    traced.report = rep;
  }
  return traced;
}

struct Setup {
  std::vector<std::string> paths;
  Ingested data;
  std::vector<double> ingest_s;  ///< one per repeat
  JoinUnit unit;                 ///< self and R-S workloads
};

struct TracedPass {
  std::vector<Metric> layers;
  double coverage = 0.0;  ///< program's own join wall / wall seen outside
};

// One traced run after the timed samples: an ingest, then per join unit the
// serial reference, the join and its check, then the same join on the other
// runner for the network overhead. The joins run on the set-up corpus the
// timed samples used, so the traced ingest's fresh pages never reach them.
Result<TracedPass> RunTracedPass(const Workload& w, const Setup& setup,
                                 const FsJoin& join, const FsJoin& other,
                                 double timed_median, Trace& trace,
                                 Tally& tally) {
  const int root = trace.Open("bench.traced_run", 0,
                              "\"workload\":" + JsonString(w.name));
  double read_s = 0.0;
  double tokenize_s = 0.0;
  uint64_t tokens = 0;
  {
    FSJOIN_ASSIGN_OR_RETURN(Ingested in,
                            Ingest(setup.paths, false, trace, root));
    read_s = in.read_s;
    tokenize_s = in.tokenize_s;
    for (const Corpus& c : in.corpora) tokens += c.TotalTokens();
  }

  std::vector<std::vector<Metric>> units;
  double traced_wall = 0.0;
  double program_wall = 0.0;
  double net_overhead_s = 0.0;
  const size_t count = w.shape == Shape::kBatches ? kTracedBatches : 1;
  for (size_t i = 0; i < count; ++i) {
    int parent = root;
    std::optional<Corpus> window;
    JoinUnit unit = setup.unit;
    if (w.shape == Shape::kBatches) {
      parent = trace.Open("batch", root, "\"window\":" + std::to_string(i));
      window.emplace(BuildWindow(setup.data.lines, i, trace, parent));
      unit = JoinUnit{&*window, nullptr, 0};
    }
    const Reference ref = RunReference(unit, trace, parent);
    unit.oracle = ref.digest;
    const TracedJoin traced = RunTracedJoin(join, unit, trace, parent, tally);
    if (i == 0) {
      // The network overhead: the same join on the other runner.
      const TracedJoin again = RunTracedJoin(other, unit, trace, parent, tally);
      net_overhead_s = w.cluster ? traced.wall_s - again.wall_s
                                 : again.wall_s - traced.wall_s;
    }
    if (parent != root) trace.Close(parent);
    if (!traced.report) continue;
    units.push_back(UnitLayers(ref, *traced.report, traced.wall_s,
                               traced.cpu_s));
    traced_wall += traced.wall_s;
    program_wall += traced.report->total_wall_ms / 1e3;
  }
  trace.Close(root);
  if (units.empty()) return Status::Internal("every traced join failed");

  const std::vector<Metric> mean = Mean(units);
  TracedPass pass;
  std::vector<Metric>& m = pass.layers;
  m.push_back(Single("text.read_s", "s", read_s));
  m.push_back(Single("text.tokenize_s", "s", tokenize_s));
  m.push_back(Single("text.tokens", "count", tokens));
  m.push_back(mean[0]);  // sim.ppjoin_s
  m.push_back(Single("sim.serial_ratio", "ratio",
                     Ratio(timed_median, mean[0].value)));
  m.insert(m.end(), mean.begin() + 1, mean.end());
  m.push_back(Single("net.overhead_s", "s", net_overhead_s));
  m.push_back(Single("net.worker_peak_rss_mb", "MiB", ChildrenPeakRssMb()));
  m.push_back(Single("trace_overhead_frac", "ratio",
                     Ratio(traced_wall / units.size(), timed_median) - 1.0));
  pass.coverage = Ratio(program_wall, traced_wall);
  return pass;
}

// ---------------------------------------------------------------------------
// Command line

struct Options {
  const Workload* workload = nullptr;
  std::vector<const Workload*> workloads;  ///< --self-test selection
  std::optional<uint64_t> seed;
  int seconds = kDefaultSeconds;
  bool trace = false;
  bool self_test = false;
  bool list = false;
  std::string work_dir;
  std::string json_out;
  std::string trace_out;
};

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "fsjoin_bench: %s\n"
               "usage: fsjoin_bench --workload NAME --seed N --work-dir DIR "
               "[--seconds S] [--trace 0|1] [--trace-out PATH] "
               "[--json-out PATH]\n"
               "       fsjoin_bench --self-test --seed N --work-dir DIR "
               "[--workloads a,b]\n"
               "       fsjoin_bench --list-workloads\n",
               problem.c_str());
  return 2;
}

// Whole-string unsigned decimal in [lo, hi]; no sign, no spaces.
bool ParseUint(std::string_view text, uint64_t lo, uint64_t hi,
               uint64_t* out) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return false;
  if (value < lo || value > hi) return false;
  *out = value;
  return true;
}

bool ParseWorkloads(std::string_view text, std::vector<const Workload*>* out) {
  out->clear();
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t comma = std::min(text.find(',', pos), text.size());
    const Workload* w = FindWorkload(text.substr(pos, comma - pos));
    if (w == nullptr || std::find(out->begin(), out->end(), w) != out->end()) {
      return false;
    }
    out->push_back(w);
    pos = comma + 1;
  }
  return !out->empty();
}

// Returns an exit code when the arguments end the program, else nullopt.
std::optional<int> ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--self-test") {
      opts->self_test = true;
      continue;
    }
    if (flag == "--list-workloads") {
      opts->list = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      opts->workload = FindWorkload(value);
      if (opts->workload == nullptr) {
        return Usage("unknown workload: " + std::string(value));
      }
    } else if (flag == "--workloads") {
      if (!ParseWorkloads(value, &opts->workloads)) {
        return Usage("bad --workloads list: " + std::string(value));
      }
    } else if (flag == "--seed") {
      if (!ParseUint(value, 0, UINT64_MAX, &number)) {
        return Usage("--seed wants an unsigned 64-bit integer, got " +
                     std::string(value));
      }
      opts->seed = number;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, 1, 600, &number)) {
        return Usage("--seconds wants an integer in [1, 600], got " +
                     std::string(value));
      }
      opts->seconds = static_cast<int>(number);
    } else if (flag == "--trace") {
      if (!ParseUint(value, 0, 1, &number)) {
        return Usage("--trace wants 0 or 1, got " + std::string(value));
      }
      opts->trace = number == 1;
    } else if (flag == "--work-dir") {
      opts->work_dir = value;
    } else if (flag == "--json-out") {
      opts->json_out = value;
    } else if (flag == "--trace-out") {
      opts->trace_out = value;
    } else {
      return Usage("unknown flag: " + std::string(flag));
    }
  }
  if (opts->list) return std::nullopt;
  if (!opts->seed) return Usage("--seed is required");
  if (opts->work_dir.empty()) return Usage("--work-dir is required");
  if (opts->self_test) {
    if (opts->workload != nullptr) {
      return Usage("--self-test takes --workloads, not --workload");
    }
    if (opts->workloads.empty()) {
      for (const Workload& w : kWorkloads) opts->workloads.push_back(&w);
    }
  } else if (opts->workload == nullptr) {
    return Usage("--workload is required");
  } else if (!opts->workloads.empty()) {
    return Usage("--workloads is for --self-test");
  }
  return std::nullopt;
}

// Checks the oracle itself: on the first kSelfTestRecords records of each
// workload, the PPJoin reference must reproduce the brute-force join's
// digest byte for byte.
int SelfTest(const Options& opts) {
  bool all_ok = true;
  for (const Workload* w : opts.workloads) {
    const std::vector<std::string> lines =
        GenerateLines(*w, *opts.seed, kSelfTestRecords);
    const WordTokenizer tokenizer;
    const size_t boundary =
        w->shape == Shape::kRs ? RsBoundary(lines.size()) : lines.size();
    const Corpus r = BuildCorpus(
        std::vector<std::string>(lines.begin(),
                                 lines.begin() + static_cast<long>(boundary)),
        tokenizer);
    const Corpus s = BuildCorpus(
        std::vector<std::string>(lines.begin() + static_cast<long>(boundary),
                                 lines.end()),
        tokenizer);
    JoinUnit unit{&r, w->shape == Shape::kRs ? &s : nullptr, 0};
    Trace scratch;
    const Reference ref = RunReference(unit, scratch, 0);

    const FsJoinConfig defaults;
    std::optional<Corpus> merged;
    if (unit.s != nullptr) merged.emplace(MergeJoinInput(JoinInput{r, s}));
    const Corpus& corpus = merged ? *merged : r;
    const std::vector<OrderedRecord> ordered =
        ApplyGlobalOrder(corpus, GlobalOrder::FromCorpus(corpus));
    const JoinResultSet truth =
        unit.s != nullptr
            ? BruteForceJoinRS(ordered, static_cast<RecordId>(r.NumRecords()),
                               defaults.function, kTheta)
            : BruteForceJoin(ordered, defaults.function, kTheta);
    const uint32_t expected = check::ResultDigest(truth);
    const bool ok = expected == ref.digest && truth.size() == ref.pairs;
    all_ok = all_ok && ok;
    std::printf("self-test %.*s: %zu records, %zu pairs, oracle %08x, brute "
                "force %08x: %s\n",
                static_cast<int>(w->name.size()), w->name.data(),
                lines.size(), truth.size(), ref.digest, expected,
                ok ? "ok" : "MISMATCH");
  }
  return all_ok ? 0 : 1;
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool detail) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", " : "") + JsonString(m.name) +
           ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit);
    if (detail) {
      out += ", \"n\": " + std::to_string(m.n) + ", \"q1\": " +
             JsonNumber(m.q1) + ", \"q3\": " + JsonNumber(m.q3);
    }
    out += "}";
  }
  return out + "}";
}

int RunWorkload(const Options& opts) {
  const Workload& w = *opts.workload;
  Result<std::string> scratch_path = MakeScratchPath(opts.work_dir);
  if (!scratch_path.ok()) {
    std::fprintf(stderr, "%s\n", scratch_path.status().ToString().c_str());
    return 3;
  }
  const ScratchDir scratch(*scratch_path);
  const auto fail_setup = [](const Status& st) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 3;
  };

  // Set-up: write the generated text and ingest it. The other
  // kIngestRepeats - 1 ingests are spread over the timed window below.
  Setup setup;
  {
    Result<std::vector<std::string>> paths =
        WriteInputs(w, *opts.seed, scratch.path());
    if (!paths.ok()) return fail_setup(paths.status());
    setup.paths = std::move(paths).value();
  }
  const auto ingest = [&](bool keep) -> Status {
    Trace discard;
    FSJOIN_ASSIGN_OR_RETURN(
        Ingested in,
        Ingest(setup.paths, keep && w.shape == Shape::kBatches, discard, 0));
    setup.ingest_s.push_back(in.read_s + in.tokenize_s);
    if (keep) setup.data = std::move(in);
    return Status::OK();
  };
  if (Status st = ingest(true); !st.ok()) return fail_setup(st);
  if (!ResetPeakRss()) {
    std::fprintf(stderr,
                 "warning: cannot reset VmHWM; peak_rss_mb is the process "
                 "peak\n");
  }
  if (w.shape != Shape::kBatches) {
    setup.unit.r = &setup.data.corpora[0];
    if (w.shape == Shape::kRs) setup.unit.s = &setup.data.corpora[1];
    Trace discard;
    setup.unit.oracle = RunReference(setup.unit, discard, 0).digest;
  }

  const FsJoin join(MakeConfig(w, w.cluster, scratch.path()));
  Tally tally;
  const auto sample = [&](size_t index) {
    if (w.shape != Shape::kBatches) return TimeJoin(join, setup.unit, tally);
    Trace discard;
    const Corpus window = BuildWindow(setup.data.lines, index, discard, 0);
    JoinUnit unit{&window, nullptr, 0};
    unit.oracle = RunReference(unit, discard, 0).digest;
    return TimeJoin(join, unit, tally);
  };
  for (int i = 0; i < w.warmups; ++i) sample(static_cast<size_t>(i));

  std::vector<double> wall;
  std::vector<double> rss;
  std::vector<double> shuffle;
  const Clock::time_point begin = Clock::now();
  const Clock::duration window = std::chrono::seconds(opts.seconds);
  while (wall.empty() || Clock::now() < begin + window) {
    // Shared VMs run single-threaded code in fast and slow spells lasting
    // seconds. Ingests spread over the window keep one spell from moving
    // every repeat; run back to back on a 4-vCPU VM, they let setup_s move
    // by up to 60% between runs.
    const size_t done = setup.ingest_s.size();
    if (done < kIngestRepeats &&
        Clock::now() >= begin + window * static_cast<Clock::rep>(done) /
                                    static_cast<Clock::rep>(kIngestRepeats)) {
      if (Status st = ingest(false); !st.ok()) return fail_setup(st);
      continue;
    }
    const Sample s = sample(wall.size());
    wall.push_back(s.wall_s);
    rss.push_back(s.rss_mb);
    shuffle.push_back(s.shuffle_mb);
  }

  const std::vector<Metric> e2e = {
      Summarize("join_s", "s", wall, 0.5),
      Summarize("join_s_tail", "s", wall, w.tail_quantile),
      Summarize("setup_s", "s", setup.ingest_s, 0.5),
      Summarize("peak_rss_mb", "MiB", rss, 0.5),
      Summarize("shuffle_mb", "MiB", shuffle, 0.5),
  };

  std::optional<TracedPass> pass;
  if (opts.trace) {
    const FsJoin other(MakeConfig(w, !w.cluster, scratch.path()));
    Trace trace;
    Result<TracedPass> traced = RunTracedPass(w, setup, join, other,
                                              e2e[0].value, trace, tally);
    if (!traced.ok()) {
      std::fprintf(stderr, "traced run: %s\n",
                   traced.status().ToString().c_str());
      ++tally.failed;
    } else {
      pass = std::move(traced).value();
    }
    if (!opts.trace_out.empty()) {
      if (Status st = WriteFile(opts.trace_out, trace.ToJson()); !st.ok()) {
        return fail_setup(st);
      }
    }
  }

  const bool correct = tally.failed == 0;
  const double failed_frac =
      Ratio(static_cast<double>(tally.failed), static_cast<double>(tally.attempted));
  for (const Metric& m : e2e) {
    std::printf("%.*s %s %.6g %s %zu %.6g %.6g\n",
                static_cast<int>(w.name.size()), w.name.data(), m.name.c_str(),
                m.value, m.unit.c_str(), m.n, m.q1, m.q3);
  }
  std::printf("%.*s failed_frac %.6g ratio %llu\n",
              static_cast<int>(w.name.size()), w.name.data(), failed_frac,
              static_cast<unsigned long long>(tally.attempted));
  if (pass) {
    for (const Metric& m : pass->layers) {
      std::printf("%.*s %s %.6g %s\n", static_cast<int>(w.name.size()),
                  w.name.data(), m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("%.*s wall_coverage %.4f ratio\n",
                static_cast<int>(w.name.size()), w.name.data(), pass->coverage);
  }

  if (!opts.json_out.empty()) {
    std::string record =
        "{\"workload\": " + JsonString(w.name) +
        ", \"seed\": " + std::to_string(*opts.seed) +
        ", \"seconds\": " + std::to_string(opts.seconds) +
        ", \"correct\": " + (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(tally.attempted) +
        ", \"failed\": " + std::to_string(tally.failed) +
        ", \"failed_frac\": " + JsonNumber(failed_frac) +
        ", \"machine\": " + MachineJson() +
        ", \"metrics\": " + MetricsJson(e2e, true);
    if (pass) {
      record += ", \"per_layer\": " + MetricsJson(pass->layers, false) +
                ", \"wall_coverage\": " + JsonNumber(pass->coverage);
    }
    record += "}\n";
    if (Status st = WriteFile(opts.json_out, record); !st.ok()) {
      return fail_setup(st);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              MetricsJson(pass ? pass->layers : e2e, false).c_str());
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options opts;
  if (const std::optional<int> code = ParseArgs(argc, argv, &opts)) {
    return *code;
  }
  if (opts.list) {
    for (const Workload& w : kWorkloads) {
      std::printf("%.*s\n", static_cast<int>(w.name.size()), w.name.data());
    }
    return 0;
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "fsjoin_bench: refusing to measure a build without NDEBUG; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 3;
#else
  if (NumProcessors() < 4) {
    std::fprintf(stderr,
                 "warning: %ld processors online; the workloads fix %zu "
                 "threads and %d cluster workers, so numbers will not "
                 "compare with a 4-core machine\n",
                 NumProcessors(), kThreads, kClusterWorkers);
  }
  return opts.self_test ? SelfTest(opts) : RunWorkload(opts);
#endif
}

}  // namespace
}  // namespace fsjoin::bench

int main(int argc, char** argv) {
  // The cluster runner re-executes this binary as its workers, and its
  // fallback may run single tasks in re-executed children.
  if (const int code = fsjoin::mr::WorkerTaskMainIfRequested(argc, argv);
      code >= 0) {
    return code;
  }
  if (const int code = fsjoin::net::WorkerServeMainIfRequested(argc, argv);
      code >= 0) {
    return code;
  }
  return fsjoin::bench::Main(argc, argv);
}
