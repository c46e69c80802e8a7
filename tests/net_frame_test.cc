// Socket-free tests of the cluster runtime's serial layers: endpoint
// parsing and list validation, the CRC32C frame codec under the full
// corruption battery (every truncated prefix, every bit flip, trailing
// bytes — mirroring the PR 7 TaskSpec codec and PR 4 run-file tests),
// the RPC message payload codecs, the TaskOutput wire codec, the
// TaskSpec shuffle extensions, cluster knob validation in
// exec::ExecConfig / mr::EngineOptions, and the host-unique spill-dir
// naming.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "exec/exec_config.h"
#include "mr/engine.h"
#include "mr/task.h"
#include "net/frame.h"
#include "store/temp_dir.h"
#include "util/endpoint.h"
#include "util/status.h"

namespace fsjoin {
namespace {

// ---- Endpoint parsing -------------------------------------------------

TEST(EndpointTest, ParsesHostPort) {
  auto ep = ParseEndpoint("worker3:9000");
  ASSERT_TRUE(ep.ok()) << ep.status().ToString();
  EXPECT_EQ(ep->host, "worker3");
  EXPECT_EQ(ep->port, 9000);
  EXPECT_EQ(ep->ToString(), "worker3:9000");
}

TEST(EndpointTest, ParsesBracketedIpv6) {
  auto ep = ParseEndpoint("[::1]:8080");
  ASSERT_TRUE(ep.ok()) << ep.status().ToString();
  EXPECT_EQ(ep->host, "::1");
  EXPECT_EQ(ep->port, 8080);
}

TEST(EndpointTest, RejectsMalformedEndpoints) {
  for (const char* bad :
       {"", ":9000", "host:", "host", "host:0", "host:65536", "host:70000",
        "host:12ab", "host:-1", "[::1]", "[::1]8080", "a:b:c"}) {
    auto ep = ParseEndpoint(bad);
    ASSERT_FALSE(ep.ok()) << "'" << bad << "' was accepted";
    EXPECT_EQ(ep.status().code(), StatusCode::kInvalidArgument);
    // Actionable: the message names the offending input and the shape.
    EXPECT_NE(ep.status().message().find(std::string("'") + bad + "'"),
              std::string::npos)
        << ep.status().ToString();
    EXPECT_NE(ep.status().message().find("host:port"), std::string::npos)
        << ep.status().ToString();
  }
}

TEST(EndpointTest, ParsesLists) {
  auto list = ParseEndpointList("a:1,b:2,c:3");
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  ASSERT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[0].ToString(), "a:1");
  EXPECT_EQ((*list)[2].ToString(), "c:3");
}

TEST(EndpointTest, RejectsBadLists) {
  for (const char* bad : {"", ",", "a:1,,b:2", "a:1,", "a:1,a:1",
                          "a:1,b:0", "a:1,:2"}) {
    auto list = ParseEndpointList(bad);
    EXPECT_FALSE(list.ok()) << "'" << bad << "' was accepted";
  }
  // Same host, different port is NOT a duplicate (co-located workers).
  EXPECT_TRUE(ParseEndpointList("a:1,a:2").ok());
}

// ---- Frame codec ------------------------------------------------------

std::string EncodedFrame(net::MsgType type, const std::string& payload) {
  std::string bytes;
  net::EncodeFrame(type, payload, &bytes);
  return bytes;
}

TEST(FrameTest, RoundTripsEveryMessageType) {
  using net::MsgType;
  for (MsgType type :
       {MsgType::kHello, MsgType::kHeartbeat, MsgType::kDispatchTask,
        MsgType::kTaskData, MsgType::kTaskResult, MsgType::kShuffleFetch,
        MsgType::kShuffleRelease}) {
    const std::string payload = "payload-" + std::string(net::MsgTypeName(type));
    const std::string bytes = EncodedFrame(type, payload);
    ASSERT_EQ(bytes.size(), net::kFrameHeaderBytes + payload.size());
    net::Frame frame;
    size_t consumed = 0;
    const Status st = net::DecodeFrame(bytes, &frame, &consumed);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(consumed, bytes.size());
  }
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  const std::string bytes = EncodedFrame(net::MsgType::kHeartbeat, "");
  net::Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(net::DecodeFrame(bytes, &frame, &consumed).ok());
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameTest, EveryTruncatedPrefixIsIoError) {
  const std::string good =
      EncodedFrame(net::MsgType::kTaskResult, "some payload bytes here");
  for (size_t keep = 0; keep < good.size(); ++keep) {
    net::Frame frame;
    size_t consumed = 0;
    const Status st =
        net::DecodeFrame(std::string_view(good).substr(0, keep), &frame,
                         &consumed);
    ASSERT_FALSE(st.ok()) << "prefix of " << keep << " bytes was accepted";
    // A short read is "need more bytes" (IoError), never Corruption: the
    // socket reader must keep waiting, not kill the connection.
    EXPECT_EQ(st.code(), StatusCode::kIoError)
        << "prefix " << keep << ": " << st.ToString();
  }
}

TEST(FrameTest, EveryBitFlipIsDetected) {
  const std::string good =
      EncodedFrame(net::MsgType::kTaskResult, "bit flip battery payload");
  for (size_t i = 0; i < good.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[i] = static_cast<char>(bad[i] ^ (1u << bit));
      net::Frame frame;
      size_t consumed = 0;
      const Status st = net::DecodeFrame(bad, &frame, &consumed);
      ASSERT_FALSE(st.ok())
          << "flip of bit " << bit << " at offset " << i << " went unnoticed";
      // A header flip that grows `len` reads as truncation (IoError) until
      // the header CRC is checked; everything else is Corruption. Either
      // way the frame is rejected.
      EXPECT_TRUE(st.code() == StatusCode::kCorruption ||
                  st.code() == StatusCode::kIoError)
          << st.ToString();
    }
  }
}

TEST(FrameTest, HeaderCrcGuardsTheLengthField) {
  // Flip a length byte AND append enough bytes that the bogus length is
  // satisfiable: the header CRC must still reject the frame — a corrupted
  // length must never send the reader off into the stream.
  std::string good = EncodedFrame(net::MsgType::kTaskData, "abc");
  std::string bad = good;
  bad[11] = static_cast<char>(bad[11] ^ 0x04);  // len is bytes 8..11 (BE)
  bad.append(16, 'x');
  net::Frame frame;
  size_t consumed = 0;
  const Status st = net::DecodeFrame(bad, &frame, &consumed);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST(FrameTest, BadMagicAndBadTypeAreCorruption) {
  std::string bad_magic = EncodedFrame(net::MsgType::kHello, "x");
  bad_magic[0] = 'X';
  net::Frame frame;
  size_t consumed = 0;
  Status st = net::DecodeFrame(bad_magic, &frame, &consumed);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("magic"), std::string::npos) << st.ToString();

  // A type outside the MsgType range with a *valid* CRC (re-encoded, not
  // flipped) is still rejected.
  std::string evil;
  net::EncodeFrame(static_cast<net::MsgType>(999), "x", &evil);
  st = net::DecodeFrame(evil, &frame, &consumed);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST(FrameTest, TrailingBytesAreLeftForTheNextFrame) {
  // DecodeFrame consumes exactly one frame; bytes after it belong to the
  // next message, which is how a pipelined socket buffer works.
  const std::string first = EncodedFrame(net::MsgType::kHeartbeat, "");
  const std::string second = EncodedFrame(net::MsgType::kShutdown, "bye");
  net::Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(net::DecodeFrame(first + second, &frame, &consumed).ok());
  EXPECT_EQ(frame.type, net::MsgType::kHeartbeat);
  ASSERT_EQ(consumed, first.size());
  ASSERT_TRUE(
      net::DecodeFrame(std::string_view(first + second).substr(consumed),
                       &frame, &consumed)
          .ok());
  EXPECT_EQ(frame.type, net::MsgType::kShutdown);
  EXPECT_EQ(frame.payload, "bye");
}

// ---- Message payload codecs ------------------------------------------

TEST(MessageCodecTest, HelloRoundTripsAndRejectsTrailingBytes) {
  net::HelloMsg msg;
  msg.pid = 12345;
  msg.shuffle_port = 40123;
  std::string bytes;
  msg.EncodeTo(&bytes);
  auto decoded = net::HelloMsg::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->protocol_version, net::kProtocolVersion);
  EXPECT_EQ(decoded->pid, 12345u);
  EXPECT_EQ(decoded->shuffle_port, 40123u);
  EXPECT_FALSE(net::HelloMsg::Decode(bytes + "x").ok());
  EXPECT_FALSE(net::HelloMsg::Decode("").ok());
}

TEST(MessageCodecTest, StreamTrailerRoundTripsAndRejectsTrailingBytes) {
  net::StreamTrailer trailer;
  trailer.records = 1u << 20;
  trailer.payload_bytes = 123456789;
  trailer.chunks = 7;
  std::string bytes;
  trailer.EncodeTo(&bytes);
  auto decoded = net::StreamTrailer::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->records, trailer.records);
  EXPECT_EQ(decoded->payload_bytes, trailer.payload_bytes);
  EXPECT_EQ(decoded->chunks, trailer.chunks);
  EXPECT_FALSE(net::StreamTrailer::Decode(bytes + "y").ok());
}

TEST(MessageCodecTest, TaskErrorCarriesStatusAndLostEndpoint) {
  net::TaskErrorMsg msg;
  msg.error = Status::Internal("worker exploded: details");
  msg.lost_endpoint = "10.0.0.3:41200";
  std::string bytes;
  msg.EncodeTo(&bytes);
  auto decoded = net::TaskErrorMsg::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->error.code(), StatusCode::kInternal);
  EXPECT_EQ(decoded->error.message(), "worker exploded: details");
  EXPECT_EQ(decoded->lost_endpoint, "10.0.0.3:41200");
  EXPECT_FALSE(net::TaskErrorMsg::Decode(bytes + "z").ok());
}

TEST(MessageCodecTest, ShuffleFetchRoundTrips) {
  net::ShuffleFetchMsg msg;
  msg.job = "filtering";
  msg.map_task = 6;
  msg.partition = 2;
  std::string bytes;
  msg.EncodeTo(&bytes);
  auto decoded = net::ShuffleFetchMsg::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->job, "filtering");
  EXPECT_EQ(decoded->map_task, 6u);
  EXPECT_EQ(decoded->partition, 2u);
  EXPECT_FALSE(net::ShuffleFetchMsg::Decode(bytes + "w").ok());
}

// ---- TaskSpec shuffle extensions -------------------------------------

mr::TaskSpec ShuffleSpec() {
  mr::TaskSpec spec;
  spec.job_name = "ordering";
  spec.kind = mr::TaskKind::kReduce;
  spec.task_index = 2;
  spec.num_partitions = 4;
  spec.factory = "core.ordering";
  spec.attempt = 1;
  spec.retain_shuffle = false;
  spec.shuffle_sources = {{"ordering", 0, "127.0.0.1:41200"},
                          {"ordering", 1, "127.0.0.1:41201"},
                          {"ordering", 2, ""}};
  return spec;
}

TEST(TaskSpecWireTest, ShuffleFieldsRoundTrip) {
  const mr::TaskSpec spec = ShuffleSpec();
  std::string bytes;
  spec.EncodeTo(&bytes);
  auto decoded = mr::TaskSpec::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->retain_shuffle, false);
  ASSERT_EQ(decoded->shuffle_sources.size(), 3u);
  EXPECT_EQ(decoded->shuffle_sources[1].job, "ordering");
  EXPECT_EQ(decoded->shuffle_sources[1].map_task, 1u);
  EXPECT_EQ(decoded->shuffle_sources[1].endpoint, "127.0.0.1:41201");
  EXPECT_EQ(decoded->shuffle_sources[2].endpoint, "");

  mr::TaskSpec retained;
  retained.job_name = "ordering";
  retained.retain_shuffle = true;
  std::string rbytes;
  retained.EncodeTo(&rbytes);
  auto rdec = mr::TaskSpec::Decode(rbytes);
  ASSERT_TRUE(rdec.ok());
  EXPECT_TRUE(rdec->retain_shuffle);
}

TEST(TaskSpecWireTest, EveryTruncationIsRejected) {
  std::string bytes;
  ShuffleSpec().EncodeTo(&bytes);
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    auto decoded =
        mr::TaskSpec::Decode(std::string_view(bytes).substr(0, keep));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << keep << " bytes accepted";
  }
  EXPECT_FALSE(mr::TaskSpec::Decode(bytes + "!").ok());
}

// ---- TaskOutput wire codec -------------------------------------------

TEST(TaskOutputWireTest, ReduceResultRoundTrips) {
  mr::TaskOutput out;
  for (int i = 0; i < 50; ++i) {
    out.records.push_back({"key" + std::to_string(i / 5),
                           "value-" + std::to_string(i)});
  }
  out.metrics.input_records = 50;
  out.metrics.input_bytes = 4321;
  out.metrics.output_records = 50;
  out.metrics.max_group_bytes = 99;
  out.side_state = std::string("side\0bytes", 10);
  std::string bytes;
  mr::EncodeTaskOutputWire(out, &bytes);

  mr::TaskOutput read;
  const Status st = mr::DecodeTaskOutputWire(bytes, &read);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(read.records.size(), out.records.size());
  for (size_t i = 0; i < read.records.size(); ++i) {
    EXPECT_EQ(read.records[i].key, out.records[i].key);
    EXPECT_EQ(read.records[i].value, out.records[i].value);
  }
  EXPECT_EQ(read.metrics.input_records, 50u);
  EXPECT_EQ(read.metrics.input_bytes, 4321u);
  EXPECT_EQ(read.metrics.max_group_bytes, 99u);
  EXPECT_EQ(read.side_state, out.side_state);
}

TEST(TaskOutputWireTest, RetainedMapResultCarriesStatsNotData) {
  mr::TaskOutput out;
  out.partition_stats = {{10, 100}, {0, 0}, {7, 77}};
  out.shuffle_endpoint = "127.0.0.1:40123";
  out.metrics.input_records = 17;
  std::string bytes;
  mr::EncodeTaskOutputWire(out, &bytes);
  mr::TaskOutput read;
  ASSERT_TRUE(mr::DecodeTaskOutputWire(bytes, &read).ok());
  ASSERT_EQ(read.partition_stats.size(), 3u);
  EXPECT_EQ(read.partition_stats[0].records, 10u);
  EXPECT_EQ(read.partition_stats[0].bytes, 100u);
  EXPECT_EQ(read.partition_stats[2].records, 7u);
  EXPECT_EQ(read.shuffle_endpoint, "127.0.0.1:40123");
  EXPECT_TRUE(read.records.empty());
}

TEST(TaskOutputWireTest, TruncationAndTrailingBytesAreRejected) {
  mr::TaskOutput out;
  out.records.push_back({"k", "v"});
  out.partition_stats = {{1, 2}};
  std::string bytes;
  mr::EncodeTaskOutputWire(out, &bytes);
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    mr::TaskOutput read;
    EXPECT_FALSE(
        mr::DecodeTaskOutputWire(std::string_view(bytes).substr(0, keep),
                                 &read)
            .ok())
        << "prefix of " << keep << " bytes accepted";
  }
  mr::TaskOutput read;
  const Status st = mr::DecodeTaskOutputWire(bytes + "x", &read);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST(TaskOutputWireTest, UnknownGroupKindIsCorruption) {
  mr::TaskOutput out;
  out.records.push_back({"k", "v"});
  std::string bytes;
  mr::EncodeTaskOutputWire(out, &bytes);
  // The leading varint is the group kind: 0 = map partitions, 1 = reduce
  // records. Anything else must be rejected, not decoded as records.
  ASSERT_EQ(bytes[0], 1);
  for (char kind : {2, 3, 127}) {
    bytes[0] = kind;
    mr::TaskOutput read;
    const Status st = mr::DecodeTaskOutputWire(bytes, &read);
    ASSERT_FALSE(st.ok()) << "group kind " << int{kind};
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_NE(st.message().find("bad group kind"), std::string::npos)
        << st.ToString();
  }
}

// ---- Cluster knob validation -----------------------------------------

TEST(ClusterConfigTest, ClusterRunnerNeedsExactlyOneTopology) {
  exec::ExecConfig config;
  config.runner = mr::RunnerKind::kCluster;
  Status st = config.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("--workers"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("--spawn-local-workers"), std::string::npos)
      << st.ToString();

  config.workers = "a:1,b:2";
  config.spawn_local_workers = 2;
  st = config.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("mutually exclusive"), std::string::npos)
      << st.ToString();

  config.spawn_local_workers = 0;
  EXPECT_TRUE(config.Validate().ok());
  config.workers.clear();
  config.spawn_local_workers = 4;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ClusterConfigTest, MalformedWorkerListsAreRejected) {
  exec::ExecConfig config;
  config.runner = mr::RunnerKind::kCluster;
  for (const char* bad : {":9000", "host:0", "host:65536", "a:1,a:1",
                          "a:1,,b:2", "nohost"}) {
    config.workers = bad;
    const Status st = config.Validate();
    EXPECT_FALSE(st.ok()) << "'" << bad << "' was accepted";
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
}

TEST(ClusterConfigTest, ClusterKnobsWithoutClusterRunnerAreRejected) {
  exec::ExecConfig config;
  config.workers = "a:1";
  Status st = config.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("requires --runner cluster"), std::string::npos)
      << st.ToString();

  config.workers.clear();
  config.spawn_local_workers = 2;
  st = config.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("requires --runner cluster"), std::string::npos);
}

TEST(ClusterConfigTest, HeartbeatFloorIsEnforced) {
  exec::ExecConfig config;
  config.runner = mr::RunnerKind::kCluster;
  config.spawn_local_workers = 2;
  config.heartbeat_ms = 10;
  const Status st = config.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("heartbeat_ms"), std::string::npos)
      << st.ToString();
}

TEST(ClusterConfigTest, EngineRejectsClusterWithoutExternalRunner) {
  mr::EngineOptions options;
  options.runner = mr::RunnerKind::kCluster;
  const Status st = options.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("external_runner"), std::string::npos)
      << st.ToString();
}

TEST(ClusterConfigTest, RunnerKindClusterRoundTripsByName) {
  auto kind = mr::RunnerKindFromName("cluster");
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, mr::RunnerKind::kCluster);
  EXPECT_STREQ(mr::RunnerKindName(mr::RunnerKind::kCluster), "cluster");
  // MakeTaskRunner cannot build one (net/ owns it); engines must receive
  // it via EngineOptions::external_runner.
  EXPECT_EQ(mr::MakeTaskRunner(mr::RunnerKind::kCluster, 2), nullptr);
}

// ---- Host-unique spill-dir naming ------------------------------------

TEST(TempDirTest, SpillDirNameCarriesHostAndPid) {
  auto dir = store::TempSpillDir::Create("", "fsjoin-hostname-test");
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();
  const std::string name =
      std::filesystem::path(dir->path()).filename().string();
  // Layout: <prefix>-<host>-<pid>-<seq>; the host tag sits between the
  // prefix and the pid, so co-located workers on different machines
  // sharing a spill filesystem cannot collide on pid alone.
  const std::string prefix = "fsjoin-hostname-test-";
  ASSERT_EQ(name.rfind(prefix, 0), 0u) << name;
  const std::string rest = name.substr(prefix.size());
  // Parse from the right — the host tag itself may contain dashes.
  const size_t seq_dash = rest.rfind('-');
  ASSERT_NE(seq_dash, std::string::npos) << name;
  const size_t pid_dash = rest.rfind('-', seq_dash - 1);
  ASSERT_NE(pid_dash, std::string::npos) << name;
  EXPECT_EQ(rest.substr(pid_dash + 1, seq_dash - pid_dash - 1),
            std::to_string(getpid()))
      << name;
  EXPECT_GT(pid_dash, 0u) << "empty host tag in " << name;
}

}  // namespace
}  // namespace fsjoin
