#include "src/net/wire_protocol.h"

#include <iterator>
#include <utility>

#include "src/base/hash.h"
#include "src/base/wire.h"
#include "src/engine/cover_cache.h"
#include "src/engine/snapshot.h"

namespace cfdprop {
namespace net {

namespace {

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("wire frame rejected: " + what);
}

/// Type 3 carried STATS before v5, type 8 OPEN_FROM_SNAPSHOT before v6;
/// both stay unassigned.
constexpr uint8_t kRetiredStatsType = 3;
constexpr uint8_t kRetiredOpenFromSnapshotType = 8;

bool KnownFrameType(uint8_t t) {
  const uint8_t base = t & ~kReplyBit;
  return base >= static_cast<uint8_t>(FrameType::kOpenCatalog) &&
         base <= static_cast<uint8_t>(FrameType::kTraceDump) &&
         base != kRetiredStatsType && base != kRetiredOpenFromSnapshotType;
}

/// Strings travel as u32 length + raw bytes; the length is checked
/// against the remaining payload before anything is copied.
void PutString(std::string& out, std::string_view s) {
  wire::PutU32(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}

bool GetString(std::string_view in, size_t* pos, std::string* s) {
  uint32_t len = 0;
  std::string_view bytes;
  if (!wire::GetU32(in, pos, &len) ||
      !wire::GetBytes(in, pos, len, &bytes)) {
    return false;
  }
  s->assign(bytes);
  return true;
}

Status DecodeStatusAt(std::string_view in, size_t* pos, Status* status) {
  if (!DecodeStatus(in, pos, status)) {
    return Malformed("truncated status");
  }
  return Status::OK();
}

/// The smallest encodings the count bounds divide by, so no decoded
/// count can size an allocation past what the bytes left could hold: a
/// status is its code byte and u32 message length, a request batch its
/// u64 view count, a view name its u32 length, and a span its five u64
/// ids and times, u32 shard, slow byte and three u32 string indices.
constexpr size_t kMinStatusBytes = 1 + 4;
constexpr size_t kMinBatchBytes = 8;
constexpr size_t kMinViewBytes = 4;
constexpr size_t kMinSpanBytes = 5 * 8 + 4 + 1 + 3 * 4;

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
  out.append(kWireMagic, sizeof(kWireMagic));
  wire::PutU32(out, kWireVersion);
  wire::PutU8(out, static_cast<uint8_t>(type));
  wire::PutU32(out, static_cast<uint32_t>(payload.size()));
  out.append(payload);
  wire::PutU64(out, Fnv1aChecksum(out));
  return out;
}

Result<FrameHeader> DecodeFrameHeader(std::string_view bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    return Malformed("header truncated");
  }
  if (bytes.compare(0, sizeof(kWireMagic), kWireMagic, sizeof(kWireMagic)) !=
      0) {
    return Malformed("bad magic (not a cover-protocol frame)");
  }
  size_t pos = sizeof(kWireMagic);
  uint32_t version = 0;
  wire::GetU32(bytes, &pos, &version);
  if (version != kWireVersion) {
    return Malformed("protocol version " + std::to_string(version) +
                     " (this build speaks " + std::to_string(kWireVersion) +
                     ")");
  }
  uint8_t type = 0;
  wire::GetU8(bytes, &pos, &type);
  if (!KnownFrameType(type)) {
    return Malformed("unknown frame type " + std::to_string(type));
  }
  FrameHeader header;
  header.type = static_cast<FrameType>(type);
  wire::GetU32(bytes, &pos, &header.payload_len);
  if (header.payload_len > kMaxFramePayload) {
    return Malformed("payload length " + std::to_string(header.payload_len) +
                     " exceeds the " + std::to_string(kMaxFramePayload) +
                     "-byte frame bound");
  }
  return header;
}

Result<std::string_view> VerifyFrame(std::string_view frame) {
  CFDPROP_ASSIGN_OR_RETURN(FrameHeader header, DecodeFrameHeader(frame));
  const size_t expected =
      kFrameHeaderBytes + header.payload_len + kFrameTrailerBytes;
  if (frame.size() != expected) {
    return Malformed("frame is " + std::to_string(frame.size()) +
                     " bytes, header promises " + std::to_string(expected));
  }
  size_t trailer_pos = frame.size() - kFrameTrailerBytes;
  uint64_t stored = 0;
  wire::GetU64(frame, &trailer_pos, &stored);
  if (Fnv1aChecksum(frame.substr(0, frame.size() - kFrameTrailerBytes)) !=
      stored) {
    return Malformed("checksum mismatch (truncated or corrupt)");
  }
  return frame.substr(kFrameHeaderBytes, header.payload_len);
}

void EncodeStatus(std::string& out, const Status& status) {
  wire::PutU8(out, static_cast<uint8_t>(status.code()));
  PutString(out, status.message());
}

bool DecodeStatus(std::string_view in, size_t* pos, Status* status) {
  // Indexed by the StatusCode byte; kOk carries no message.
  static Status (*const kTyped[])(std::string) = {
      nullptr, Status::InvalidArgument, Status::NotFound,
      Status::Inconsistent, Status::ResourceExhausted, Status::Unsupported,
      Status::Internal, Status::DeadlineExceeded, Status::Unavailable};
  static_assert(std::size(kTyped) ==
                static_cast<size_t>(StatusCode::kUnavailable) + 1);
  uint8_t code = 0;
  std::string message;
  if (!wire::GetU8(in, pos, &code) || !GetString(in, pos, &message) ||
      code >= std::size(kTyped)) {
    return false;  // truncated, or a code of another protocol
  }
  if (code == static_cast<uint8_t>(StatusCode::kOk)) {
    *status = Status::OK();
    return message.empty();
  }
  *status = kTyped[code](std::move(message));
  return true;
}

std::string EncodeOpenCatalogRequest(const OpenCatalogRequest& request) {
  std::string out;
  PutString(out, request.tenant);
  PutString(out, request.spec_text);
  PutString(out, request.snapshot);
  return out;
}

Result<OpenCatalogRequest> DecodeOpenCatalogRequest(std::string_view payload) {
  OpenCatalogRequest request;
  size_t pos = 0;
  if (!GetString(payload, &pos, &request.tenant) ||
      !GetString(payload, &pos, &request.spec_text) ||
      !GetString(payload, &pos, &request.snapshot) || pos != payload.size()) {
    return Malformed("open-catalog request truncated");
  }
  return request;
}

std::string EncodeOpenCatalogReply(const Status& status,
                                   const OpenCatalogReplyInfo& info) {
  std::string out;
  EncodeStatus(out, status);
  wire::PutU64(out, info.restored);
  wire::PutU64(out, info.rejected);
  wire::PutU64(out, info.cache_budget);
  return out;
}

Result<OpenCatalogReplyInfo> DecodeOpenCatalogReply(std::string_view payload) {
  size_t pos = 0;
  Status status;
  CFDPROP_RETURN_NOT_OK(DecodeStatusAt(payload, &pos, &status));
  CFDPROP_RETURN_NOT_OK(status);
  OpenCatalogReplyInfo info;
  if (!wire::GetU64(payload, &pos, &info.restored) ||
      !wire::GetU64(payload, &pos, &info.rejected) ||
      !wire::GetU64(payload, &pos, &info.cache_budget) ||
      pos != payload.size()) {
    return Malformed("open-catalog reply truncated");
  }
  return info;
}

std::string EncodeSubmitBatchRequest(const SubmitBatchRequest& request) {
  std::string out;
  PutString(out, request.tenant);
  wire::PutU64(out, request.batches.size());
  for (const auto& batch : request.batches) {
    wire::PutU64(out, batch.size());
    for (const std::string& view : batch) PutString(out, view);
  }
  // Optional trace block (v4): presence flag, then the ids. Untraced
  // traffic (trace_id == 0) costs the flag byte only.
  if (request.trace.trace_id != 0) {
    wire::PutU8(out, request.trace.sampled ? 2 : 1);
    wire::PutU64(out, request.trace.trace_id);
    wire::PutU64(out, request.trace.parent_span_id);
  } else {
    wire::PutU8(out, 0);
  }
  return out;
}

Result<SubmitBatchRequest> DecodeSubmitBatchRequest(
    std::string_view payload) {
  SubmitBatchRequest request;
  size_t pos = 0;
  uint64_t num_batches = 0;
  if (!GetString(payload, &pos, &request.tenant) ||
      !wire::GetU64(payload, &pos, &num_batches) ||
      num_batches > (payload.size() - pos) / kMinBatchBytes) {
    return Malformed("submit-batch request truncated");
  }
  request.batches.reserve(num_batches);
  for (uint64_t i = 0; i < num_batches; ++i) {
    uint64_t num_views = 0;
    if (!wire::GetU64(payload, &pos, &num_views) ||
        num_views > (payload.size() - pos) / kMinViewBytes) {
      return Malformed("submit-batch request truncated");
    }
    std::vector<std::string> views;
    views.reserve(num_views);
    for (uint64_t j = 0; j < num_views; ++j) {
      std::string view;
      if (!GetString(payload, &pos, &view)) {
        return Malformed("submit-batch request truncated");
      }
      views.push_back(std::move(view));
    }
    request.batches.push_back(std::move(views));
  }
  uint8_t trace_flag = 0;
  if (!wire::GetU8(payload, &pos, &trace_flag) || trace_flag > 2) {
    return Malformed("submit-batch trace block truncated");
  }
  if (trace_flag != 0) {
    if (!wire::GetU64(payload, &pos, &request.trace.trace_id) ||
        !wire::GetU64(payload, &pos, &request.trace.parent_span_id) ||
        request.trace.trace_id == 0) {
      return Malformed("submit-batch trace block truncated");
    }
    request.trace.sampled = trace_flag == 2;
  }
  if (pos != payload.size()) {
    return Malformed("trailing bytes after submit-batch request");
  }
  return request;
}

std::string EncodeSubmitBatchReply(const Status& status,
                                   const std::vector<WireBatchResult>& batches,
                                   const ValuePool& pool) {
  // The results encode first: the cover string table collects in
  // first-use order while they do, but travels before them.
  CoverEncoder covers(pool);
  std::string body;
  wire::PutU64(body, batches.size());
  for (const WireBatchResult& batch : batches) {
    EncodeStatus(body, batch.status);
    if (!batch.status.ok()) continue;
    wire::PutU64(body, batch.results.size());
    for (const Result<EngineResult>& r : batch.results) {
      if (!r.ok()) {
        EncodeStatus(body, r.status());
        continue;
      }
      EncodeStatus(body, Status::OK());
      wire::PutU64(body, r->fingerprint);
      wire::PutU8(body, r->cache_hit ? 1 : 0);
      wire::PutU64(body, r->disjunct_hits);
      wire::PutU64(body, r->disjunct_count);
      covers.AppendCover(body, *r->cover);
    }
  }

  std::string out;
  EncodeStatus(out, status);
  covers.AppendStringTable(out);
  out.append(body);
  return out;
}

Result<std::vector<WireBatchResult>> DecodeSubmitBatchReply(
    std::string_view payload, ValuePool& pool) {
  size_t pos = 0;
  Status status;
  CFDPROP_RETURN_NOT_OK(DecodeStatusAt(payload, &pos, &status));
  CFDPROP_RETURN_NOT_OK(status);
  CoverDecoder covers(pool);
  if (Status table = covers.ReadStringTable(payload, &pos); !table.ok()) {
    return Malformed("reply " + table.message());
  }

  uint64_t num_batches = 0;
  if (!wire::GetU64(payload, &pos, &num_batches) ||
      num_batches > (payload.size() - pos) / kMinStatusBytes) {
    return Malformed("reply batch table truncated");
  }
  std::vector<WireBatchResult> batches;
  batches.reserve(num_batches);
  for (uint64_t i = 0; i < num_batches; ++i) {
    WireBatchResult batch;
    CFDPROP_RETURN_NOT_OK(DecodeStatusAt(payload, &pos, &batch.status));
    if (!batch.status.ok()) {
      batches.push_back(std::move(batch));
      continue;
    }
    uint64_t num_results = 0;
    if (!wire::GetU64(payload, &pos, &num_results) ||
        num_results > (payload.size() - pos) / kMinStatusBytes) {
      return Malformed("reply result table truncated");
    }
    batch.results.reserve(num_results);
    for (uint64_t j = 0; j < num_results; ++j) {
      Status result_status;
      CFDPROP_RETURN_NOT_OK(DecodeStatusAt(payload, &pos, &result_status));
      if (!result_status.ok()) {
        batch.results.emplace_back(std::move(result_status));
        continue;
      }
      EngineResult result;
      uint8_t cache_hit = 0;
      uint64_t disjunct_hits = 0, disjunct_count = 0;
      if (!wire::GetU64(payload, &pos, &result.fingerprint) ||
          !wire::GetU8(payload, &pos, &cache_hit) || cache_hit > 1 ||
          !wire::GetU64(payload, &pos, &disjunct_hits) ||
          !wire::GetU64(payload, &pos, &disjunct_count)) {
        return Malformed("reply result " + std::to_string(j) + " truncated");
      }
      auto cover = covers.ReadCover(payload, &pos);
      if (!cover.ok()) {
        return Malformed("reply result " + std::to_string(j) + ": " +
                         cover.status().message());
      }
      result.cache_hit = cache_hit != 0;
      result.disjunct_hits = static_cast<size_t>(disjunct_hits);
      result.disjunct_count = static_cast<size_t>(disjunct_count);
      result.cover = std::move(cover).value();
      batch.results.emplace_back(std::move(result));
    }
    batches.push_back(std::move(batch));
  }
  if (pos != payload.size()) {
    return Malformed("trailing bytes after reply batches");
  }
  if (Status table = covers.Finish(); !table.ok()) {
    return Malformed("reply " + table.message());
  }
  return batches;
}

std::string EncodeStringRequest(std::string_view text) {
  std::string out;
  PutString(out, text);
  return out;
}

Result<std::string> DecodeStringRequest(std::string_view payload) {
  std::string text;
  size_t pos = 0;
  if (!GetString(payload, &pos, &text) || pos != payload.size()) {
    return Malformed("request truncated");
  }
  return text;
}

std::string EncodeBytesReply(const Status& status, std::string_view bytes) {
  std::string out;
  EncodeStatus(out, status);
  PutString(out, bytes);
  return out;
}

Result<std::string> DecodeBytesReply(std::string_view payload) {
  size_t pos = 0;
  Status status;
  CFDPROP_RETURN_NOT_OK(DecodeStatusAt(payload, &pos, &status));
  CFDPROP_RETURN_NOT_OK(status);
  std::string bytes;
  if (!GetString(payload, &pos, &bytes) || pos != payload.size()) {
    return Malformed("reply truncated");
  }
  return bytes;
}

std::string EncodeStatusReply(const Status& status) {
  std::string out;
  EncodeStatus(out, status);
  return out;
}

Status DecodeStatusReply(std::string_view payload) {
  size_t pos = 0;
  Status status;
  CFDPROP_RETURN_NOT_OK(DecodeStatusAt(payload, &pos, &status));
  if (pos != payload.size()) {
    return Malformed("trailing bytes after status reply");
  }
  return status;
}

Status DecodeTraceDumpRequest(std::string_view payload) {
  if (!payload.empty()) {
    return Malformed("trace-dump request carries unexpected payload");
  }
  return Status::OK();
}

std::string EncodeTraceDumpReply(const Status& status,
                                 const std::vector<obs::SpanRecord>& spans) {
  // String table in first-use order over names, tenants and annotations
  // (the cover codec's writer): equal span sets encode to equal bytes.
  StringTableWriter<std::string_view> table;

  std::string body;
  wire::PutU64(body, spans.size());
  for (const obs::SpanRecord& span : spans) {
    wire::PutU64(body, span.trace_id);
    wire::PutU64(body, span.span_id);
    wire::PutU64(body, span.parent_id);
    wire::PutU64(body, span.start_us);
    wire::PutU64(body, span.dur_us);
    wire::PutU32(body, static_cast<uint32_t>(span.shard));
    wire::PutU8(body, span.slow ? 1 : 0);
    wire::PutU32(body, table.Slot(span.name));
    wire::PutU32(body, table.Slot(span.tenant));
    wire::PutU32(body, table.Slot(span.annot));
  }

  std::string out;
  EncodeStatus(out, status);
  table.AppendTo(out, [](std::string_view s) { return s; });
  out.append(body);
  return out;
}

Result<std::vector<obs::SpanRecord>> DecodeTraceDumpReply(
    std::string_view payload) {
  size_t pos = 0;
  Status status;
  CFDPROP_RETURN_NOT_OK(DecodeStatusAt(payload, &pos, &status));
  CFDPROP_RETURN_NOT_OK(status);

  std::vector<std::string_view> table;
  if (!ReadStringTable(payload, &pos, &table)) {
    return Malformed("trace-dump string table truncated");
  }
  auto string_at = [&](uint32_t index, std::string* out) {
    if (index >= table.size()) return false;
    out->assign(table[index]);
    return true;
  };

  uint64_t num_spans = 0;
  if (!wire::GetU64(payload, &pos, &num_spans) ||
      num_spans > (payload.size() - pos) / kMinSpanBytes) {
    return Malformed("trace-dump span table truncated");
  }
  std::vector<obs::SpanRecord> spans;
  spans.reserve(num_spans);
  for (uint64_t i = 0; i < num_spans; ++i) {
    obs::SpanRecord span;
    uint32_t shard = 0, name_i = 0, tenant_i = 0, annot_i = 0;
    uint8_t slow = 0;
    if (!wire::GetU64(payload, &pos, &span.trace_id) ||
        !wire::GetU64(payload, &pos, &span.span_id) ||
        !wire::GetU64(payload, &pos, &span.parent_id) ||
        !wire::GetU64(payload, &pos, &span.start_us) ||
        !wire::GetU64(payload, &pos, &span.dur_us) ||
        !wire::GetU32(payload, &pos, &shard) ||
        !wire::GetU8(payload, &pos, &slow) || slow > 1 ||
        !wire::GetU32(payload, &pos, &name_i) ||
        !wire::GetU32(payload, &pos, &tenant_i) ||
        !wire::GetU32(payload, &pos, &annot_i) ||
        !string_at(name_i, &span.name) ||
        !string_at(tenant_i, &span.tenant) ||
        !string_at(annot_i, &span.annot)) {
      return Malformed("trace-dump span " + std::to_string(i) + " truncated");
    }
    span.shard = static_cast<int32_t>(shard);
    span.slow = slow != 0;
    spans.push_back(std::move(span));
  }
  if (pos != payload.size()) {
    return Malformed("trailing bytes after trace-dump spans");
  }
  return spans;
}

}  // namespace net
}  // namespace cfdprop
