#include "net/frame.h"

#include "util/crc32c.h"
#include "util/serde.h"

namespace fsjoin::net {

namespace {

bool ValidMsgType(uint32_t type) {
  return type >= static_cast<uint32_t>(MsgType::kHello) &&
         type <= static_cast<uint32_t>(MsgType::kShuffleRelease);
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello:
      return "hello";
    case MsgType::kHelloAck:
      return "hello-ack";
    case MsgType::kHeartbeat:
      return "heartbeat";
    case MsgType::kHeartbeatAck:
      return "heartbeat-ack";
    case MsgType::kDispatchTask:
      return "dispatch-task";
    case MsgType::kTaskData:
      return "task-data";
    case MsgType::kTaskDataEnd:
      return "task-data-end";
    case MsgType::kTaskResult:
      return "task-result";
    case MsgType::kTaskError:
      return "task-error";
    case MsgType::kShutdown:
      return "shutdown";
    case MsgType::kShuffleFetch:
      return "shuffle-fetch";
    case MsgType::kShuffleChunk:
      return "shuffle-chunk";
    case MsgType::kShuffleEnd:
      return "shuffle-end";
    case MsgType::kShuffleRelease:
      return "shuffle-release";
  }
  return "?";
}

void EncodeFrame(MsgType type, std::string_view payload, std::string* dst) {
  const size_t header_at = dst->size();
  PutFixed32BE(dst, kFrameMagic);
  PutFixed32BE(dst, static_cast<uint32_t>(type));
  PutFixed32BE(dst, static_cast<uint32_t>(payload.size()));
  const uint32_t hcrc =
      Crc32c(std::string_view(dst->data() + header_at, 12));
  PutFixed32BE(dst, hcrc);
  PutFixed32BE(dst, Crc32c(payload));
  dst->append(payload);
}

Status DecodeFrame(std::string_view data, Frame* frame, size_t* consumed) {
  if (data.size() < kFrameHeaderBytes) {
    return Status::IoError("frame truncated: " + std::to_string(data.size()) +
                           " of " + std::to_string(kFrameHeaderBytes) +
                           " header bytes");
  }
  Decoder dec(data.substr(0, kFrameHeaderBytes));
  uint32_t magic = 0, type = 0, len = 0, hcrc = 0, pcrc = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetFixed32BE(&magic));
  FSJOIN_RETURN_NOT_OK(dec.GetFixed32BE(&type));
  FSJOIN_RETURN_NOT_OK(dec.GetFixed32BE(&len));
  FSJOIN_RETURN_NOT_OK(dec.GetFixed32BE(&hcrc));
  FSJOIN_RETURN_NOT_OK(dec.GetFixed32BE(&pcrc));
  if (magic != kFrameMagic) {
    return Status::Corruption("frame: bad magic (stream out of sync?)");
  }
  if (Crc32c(data.substr(0, 12)) != hcrc) {
    return Status::Corruption("frame: header CRC mismatch");
  }
  // Only trusted after the header CRC check — a flipped length bit must
  // not drive the reads below.
  if (!ValidMsgType(type)) {
    return Status::Corruption("frame: unknown message type " +
                              std::to_string(type));
  }
  if (len > kMaxFramePayload) {
    return Status::Corruption("frame: payload length " + std::to_string(len) +
                              " exceeds limit");
  }
  if (data.size() < kFrameHeaderBytes + len) {
    return Status::IoError("frame truncated: " +
                           std::to_string(data.size() - kFrameHeaderBytes) +
                           " of " + std::to_string(len) + " payload bytes");
  }
  const std::string_view payload = data.substr(kFrameHeaderBytes, len);
  if (Crc32c(payload) != pcrc) {
    return Status::Corruption("frame: payload CRC mismatch");
  }
  frame->type = static_cast<MsgType>(type);
  frame->payload = std::string(payload);
  *consumed = kFrameHeaderBytes + len;
  return Status::OK();
}

Status SendFrame(Socket* socket, MsgType type, std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  EncodeFrame(type, payload, &frame);
  return socket->SendAll(frame.data(), frame.size());
}

Status RecvFrame(Socket* socket, Frame* frame) {
  char header[kFrameHeaderBytes];
  FSJOIN_RETURN_NOT_OK(socket->RecvAll(header, sizeof(header)));
  Decoder dec(std::string_view(header, sizeof(header)));
  uint32_t magic = 0, type = 0, len = 0, hcrc = 0, pcrc = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetFixed32BE(&magic));
  FSJOIN_RETURN_NOT_OK(dec.GetFixed32BE(&type));
  FSJOIN_RETURN_NOT_OK(dec.GetFixed32BE(&len));
  FSJOIN_RETURN_NOT_OK(dec.GetFixed32BE(&hcrc));
  FSJOIN_RETURN_NOT_OK(dec.GetFixed32BE(&pcrc));
  if (magic != kFrameMagic) {
    return Status::Corruption("frame: bad magic (stream out of sync?)");
  }
  if (Crc32c(std::string_view(header, 12)) != hcrc) {
    return Status::Corruption("frame: header CRC mismatch");
  }
  if (!ValidMsgType(type)) {
    return Status::Corruption("frame: unknown message type " +
                              std::to_string(type));
  }
  if (len > kMaxFramePayload) {
    return Status::Corruption("frame: payload length " + std::to_string(len) +
                              " exceeds limit");
  }
  frame->type = static_cast<MsgType>(type);
  frame->payload.resize(len);
  if (len > 0) {
    FSJOIN_RETURN_NOT_OK(socket->RecvAll(frame->payload.data(), len));
  }
  if (Crc32c(frame->payload) != pcrc) {
    return Status::Corruption("frame: payload CRC mismatch");
  }
  return Status::OK();
}

void HelloMsg::EncodeTo(std::string* dst) const {
  PutVarint32(dst, protocol_version);
  PutVarint64(dst, pid);
  PutVarint32(dst, shuffle_port);
}

Result<HelloMsg> HelloMsg::Decode(std::string_view data) {
  Decoder dec(data);
  HelloMsg msg;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&msg.protocol_version));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&msg.pid));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&msg.shuffle_port));
  if (!dec.done()) return Status::Corruption("hello: trailing bytes");
  return msg;
}

void HelloAckMsg::EncodeTo(std::string* dst) const {
  PutVarint32(dst, worker_id);
}

Result<HelloAckMsg> HelloAckMsg::Decode(std::string_view data) {
  Decoder dec(data);
  HelloAckMsg msg;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&msg.worker_id));
  if (!dec.done()) return Status::Corruption("hello-ack: trailing bytes");
  return msg;
}

void StreamTrailer::EncodeTo(std::string* dst) const {
  PutVarint64(dst, records);
  PutVarint64(dst, payload_bytes);
  PutVarint32(dst, chunks);
}

Result<StreamTrailer> StreamTrailer::Decode(std::string_view data) {
  Decoder dec(data);
  StreamTrailer trailer;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&trailer.records));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&trailer.payload_bytes));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&trailer.chunks));
  if (!dec.done()) return Status::Corruption("stream trailer: trailing bytes");
  return trailer;
}

void TaskErrorMsg::EncodeTo(std::string* dst) const {
  PutVarint32(dst, static_cast<uint32_t>(error.code()));
  PutLengthPrefixed(dst, error.message());
  PutLengthPrefixed(dst, lost_endpoint);
}

Result<TaskErrorMsg> TaskErrorMsg::Decode(std::string_view data) {
  Decoder dec(data);
  uint32_t code = 0;
  std::string_view message, lost;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&code));
  FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&message));
  FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&lost));
  if (code == 0 || code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
    return Status::Corruption("task error: bad status code " +
                              std::to_string(code));
  }
  if (!dec.done()) return Status::Corruption("task error: trailing bytes");
  TaskErrorMsg msg;
  msg.error = Status(static_cast<StatusCode>(code), std::string(message));
  msg.lost_endpoint = std::string(lost);
  return msg;
}

void ShuffleFetchMsg::EncodeTo(std::string* dst) const {
  PutLengthPrefixed(dst, job);
  PutVarint32(dst, map_task);
  PutVarint32(dst, partition);
}

Result<ShuffleFetchMsg> ShuffleFetchMsg::Decode(std::string_view data) {
  Decoder dec(data);
  ShuffleFetchMsg msg;
  std::string_view job;
  FSJOIN_RETURN_NOT_OK(dec.GetLengthPrefixed(&job));
  msg.job = std::string(job);
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&msg.map_task));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&msg.partition));
  if (!dec.done()) return Status::Corruption("shuffle fetch: trailing bytes");
  return msg;
}

void AppendChunkRecord(std::string* chunk, std::string_view key,
                       std::string_view value) {
  PutVarint32(chunk, static_cast<uint32_t>(key.size()));
  PutVarint32(chunk, static_cast<uint32_t>(value.size()));
  chunk->append(key);
  chunk->append(value);
}

}  // namespace fsjoin::net
