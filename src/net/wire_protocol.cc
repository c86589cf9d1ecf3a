#include "src/net/wire_protocol.h"

#include <functional>
#include <unordered_map>
#include <utility>

#include "src/base/hash.h"
#include "src/base/wire.h"
#include "src/engine/cover_cache.h"

namespace cfdprop {
namespace net {

namespace {

uint64_t Checksum(std::string_view bytes) {
  Fnv1aHasher h;
  for (char c : bytes) h.MixByte(static_cast<uint8_t>(c));
  return h.digest();
}

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

constexpr uint8_t kFlagAlwaysEmpty = 1u << 0;
constexpr uint8_t kFlagTruncated = 1u << 1;

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
  out.append(kWireMagic, sizeof(kWireMagic));
  wire::PutU32(out, kWireVersion);
  wire::PutU8(out, static_cast<uint8_t>(type));
  wire::PutU32(out, static_cast<uint32_t>(payload.size()));
  out.append(payload);
  wire::PutU64(out, Checksum(out));
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
  if (Checksum(frame.substr(0, frame.size() - kFrameTrailerBytes)) != stored) {
    return Malformed("checksum mismatch (truncated or corrupt)");
  }
  return frame.substr(kFrameHeaderBytes, header.payload_len);
}

void EncodeStatus(std::string& out, const Status& status) {
  wire::PutU8(out, static_cast<uint8_t>(status.code()));
  PutString(out, status.message());
}

bool DecodeStatus(std::string_view in, size_t* pos, Status* status) {
  uint8_t code = 0;
  std::string message;
  if (!wire::GetU8(in, pos, &code) || !GetString(in, pos, &message)) {
    return false;
  }
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      *status = Status::OK();
      return true;
    case StatusCode::kInvalidArgument:
      *status = Status::InvalidArgument(std::move(message));
      return true;
    case StatusCode::kNotFound:
      *status = Status::NotFound(std::move(message));
      return true;
    case StatusCode::kInconsistent:
      *status = Status::Inconsistent(std::move(message));
      return true;
    case StatusCode::kResourceExhausted:
      *status = Status::ResourceExhausted(std::move(message));
      return true;
    case StatusCode::kUnsupported:
      *status = Status::Unsupported(std::move(message));
      return true;
    case StatusCode::kInternal:
      *status = Status::Internal(std::move(message));
      return true;
    case StatusCode::kDeadlineExceeded:
      *status = Status::DeadlineExceeded(std::move(message));
      return true;
    case StatusCode::kUnavailable:
      *status = Status::Unavailable(std::move(message));
      return true;
  }
  *status = Status::Internal("unknown wire status code " +
                             std::to_string(code) + ": " + message);
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
      num_batches > (payload.size() - pos)) {
    return Malformed("submit-batch request truncated");
  }
  request.batches.reserve(num_batches);
  for (uint64_t i = 0; i < num_batches; ++i) {
    uint64_t num_views = 0;
    if (!wire::GetU64(payload, &pos, &num_views) ||
        num_views > (payload.size() - pos)) {
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
  // Serialize the result body first: the string table is collected in
  // first-use order of the cover content (exactly the snapshot format's
  // discipline — equal covers, equal bytes), but travels before it.
  std::unordered_map<Value, uint32_t> value_slot;
  std::vector<Value> table_values;
  auto value_index = [&](Value v) {
    auto [it, inserted] =
        value_slot.emplace(v, static_cast<uint32_t>(table_values.size()));
    if (inserted) table_values.push_back(v);
    return it->second;
  };

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
      uint8_t flags = 0;
      if (r->cover->always_empty) flags |= kFlagAlwaysEmpty;
      if (r->cover->truncated) flags |= kFlagTruncated;
      wire::PutU8(body, flags);
      wire::PutU64(body, r->disjunct_hits);
      wire::PutU64(body, r->disjunct_count);
      wire::PutU64(body, r->cover->cover.size());
      for (const CFD& c : r->cover->cover) {
        c.AppendSnapshotBytes(body, value_index);
      }
    }
  }

  std::string out;
  EncodeStatus(out, status);
  wire::PutU64(out, table_values.size());
  for (Value v : table_values) PutString(out, pool.Text(v));
  out.append(body);
  return out;
}

Result<std::vector<WireBatchResult>> DecodeSubmitBatchReply(
    std::string_view payload, ValuePool& pool) {
  size_t pos = 0;
  Status status;
  CFDPROP_RETURN_NOT_OK(DecodeStatusAt(payload, &pos, &status));
  CFDPROP_RETURN_NOT_OK(status);

  uint64_t num_strings = 0;
  if (!wire::GetU64(payload, &pos, &num_strings) ||
      num_strings > (payload.size() - pos)) {
    return Malformed("reply string table truncated");
  }
  std::vector<std::string_view> texts;
  texts.reserve(num_strings);
  for (uint64_t i = 0; i < num_strings; ++i) {
    uint32_t len = 0;
    std::string_view text;
    if (!wire::GetU32(payload, &pos, &len) ||
        !wire::GetBytes(payload, &pos, len, &text)) {
      return Malformed("reply string table truncated");
    }
    texts.push_back(text);
  }
  // Lazy interning, as in snapshot load: only constants a decoded cover
  // actually references enter the caller's append-only pool.
  std::vector<Value> interned(texts.size(), kNoValue);
  std::function<Result<Value>(uint32_t)> intern_at =
      [&](uint32_t index) -> Result<Value> {
    if (index >= texts.size()) {
      return Status::InvalidArgument(
          "pattern constant index out of string-table range");
    }
    if (interned[index] == kNoValue) {
      interned[index] = pool.Intern(texts[index]);
    }
    return interned[index];
  };

  uint64_t num_batches = 0;
  if (!wire::GetU64(payload, &pos, &num_batches) ||
      num_batches > (payload.size() - pos)) {
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
        num_results > (payload.size() - pos)) {
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
      uint8_t cache_hit = 0, flags = 0;
      uint64_t disjunct_hits = 0, disjunct_count = 0, cover_size = 0;
      if (!wire::GetU64(payload, &pos, &result.fingerprint) ||
          !wire::GetU8(payload, &pos, &cache_hit) ||
          !wire::GetU8(payload, &pos, &flags) ||
          !wire::GetU64(payload, &pos, &disjunct_hits) ||
          !wire::GetU64(payload, &pos, &disjunct_count) ||
          !wire::GetU64(payload, &pos, &cover_size) ||
          cover_size > (payload.size() - pos)) {
        return Malformed("reply result " + std::to_string(j) + " truncated");
      }
      result.cache_hit = cache_hit != 0;
      result.disjunct_hits = static_cast<size_t>(disjunct_hits);
      result.disjunct_count = static_cast<size_t>(disjunct_count);
      auto cover = std::make_shared<CachedCover>();
      cover->always_empty = (flags & kFlagAlwaysEmpty) != 0;
      cover->truncated = (flags & kFlagTruncated) != 0;
      cover->cover.reserve(cover_size);
      for (uint64_t k = 0; k < cover_size; ++k) {
        auto cfd = CFD::FromSnapshotBytes(payload, &pos, intern_at);
        if (!cfd.ok()) {
          return Malformed("reply cover CFD: " + cfd.status().message());
        }
        cover->cover.push_back(std::move(cfd).value());
      }
      result.cover = std::move(cover);
      batch.results.emplace_back(std::move(result));
    }
    batches.push_back(std::move(batch));
  }
  if (pos != payload.size()) {
    return Malformed("trailing bytes after reply batches");
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

std::string EncodeFetchSnapshotReply(const Status& status,
                                     std::string_view snapshot) {
  std::string out;
  EncodeStatus(out, status);
  PutString(out, snapshot);
  return out;
}

Result<std::string> DecodeFetchSnapshotReply(std::string_view payload) {
  size_t pos = 0;
  Status status;
  CFDPROP_RETURN_NOT_OK(DecodeStatusAt(payload, &pos, &status));
  CFDPROP_RETURN_NOT_OK(status);
  std::string snapshot;
  if (!GetString(payload, &pos, &snapshot) || pos != payload.size()) {
    return Malformed("fetch-snapshot reply truncated");
  }
  return snapshot;
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

std::string EncodeMetricsReply(const Status& status, std::string_view text) {
  std::string out;
  EncodeStatus(out, status);
  PutString(out, text);
  return out;
}

Result<std::string> DecodeMetricsReply(std::string_view payload) {
  size_t pos = 0;
  Status status;
  CFDPROP_RETURN_NOT_OK(DecodeStatusAt(payload, &pos, &status));
  CFDPROP_RETURN_NOT_OK(status);
  std::string text;
  if (!GetString(payload, &pos, &text) || pos != payload.size()) {
    return Malformed("metrics reply truncated");
  }
  return text;
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
  // (the snapshot discipline): equal span sets encode to equal bytes.
  std::unordered_map<std::string_view, uint32_t> string_slot;
  std::vector<std::string_view> table;
  auto string_index = [&](std::string_view s) {
    auto [it, inserted] =
        string_slot.emplace(s, static_cast<uint32_t>(table.size()));
    if (inserted) table.push_back(s);
    return it->second;
  };

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
    wire::PutU32(body, string_index(span.name));
    wire::PutU32(body, string_index(span.tenant));
    wire::PutU32(body, string_index(span.annot));
  }

  std::string out;
  EncodeStatus(out, status);
  wire::PutU64(out, table.size());
  for (std::string_view s : table) PutString(out, s);
  out.append(body);
  return out;
}

Result<std::vector<obs::SpanRecord>> DecodeTraceDumpReply(
    std::string_view payload) {
  size_t pos = 0;
  Status status;
  CFDPROP_RETURN_NOT_OK(DecodeStatusAt(payload, &pos, &status));
  CFDPROP_RETURN_NOT_OK(status);

  uint64_t num_strings = 0;
  if (!wire::GetU64(payload, &pos, &num_strings) ||
      num_strings > (payload.size() - pos)) {
    return Malformed("trace-dump string table truncated");
  }
  std::vector<std::string_view> table;
  table.reserve(num_strings);
  for (uint64_t i = 0; i < num_strings; ++i) {
    uint32_t len = 0;
    std::string_view s;
    if (!wire::GetU32(payload, &pos, &len) ||
        !wire::GetBytes(payload, &pos, len, &s)) {
      return Malformed("trace-dump string table truncated");
    }
    table.push_back(s);
  }
  auto string_at = [&](uint32_t index, std::string* out) {
    if (index >= table.size()) return false;
    out->assign(table[index]);
    return true;
  };

  uint64_t num_spans = 0;
  if (!wire::GetU64(payload, &pos, &num_spans) ||
      num_spans > (payload.size() - pos)) {
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
