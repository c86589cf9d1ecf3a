// The cover-serving wire protocol: versioned, checksummed, little-endian
// frames carrying catalog-service requests and replies over a byte
// stream (TCP in practice — the codec itself never touches a socket).
//
// Frame layout (all integers fixed-width little-endian, helpers in
// src/base/wire.h):
//
//   magic[4]    "CFDW"
//   version u32 kWireVersion; any other value rejects the frame
//   type    u8  FrameType
//   length  u32 payload byte count; bounded by kMaxFramePayload, so a
//               corrupt prefix can never coax a reader into a
//               multi-gigabyte allocation
//   payload     `length` bytes
//   checksum u64 FNV-1a (src/base/hash.h) over every preceding byte of
//               the frame; catches truncation and bit rot before any
//               payload field is trusted
//
// Every request frame gets exactly one reply frame (type = request type
// with kReplyBit set). Every reply payload begins with a wire-encoded
// Status — StatusCode survives the trip, so RemoteBackend hands callers
// the same typed errors (NotFound, ResourceExhausted, ...) an
// in-process CatalogService call would return.
//
// Covers travel in the cover codec of src/engine/snapshot.h, the one the
// .ccsnap snapshot uses: a SUBMIT_BATCH reply holds one string table of
// pattern constants, then each result's cover body (flags, CFD count,
// CFDs whose constants are table indices, never process-local Value
// ids). The decoding side re-interns into its own ValuePool, so client
// and server pools need share nothing. The table is canonical, so equal
// covers encode to equal bytes, which is what the loopback differential
// test diffs.
//
// Decode discipline: every reader is bounds-checked and returns a clean
// Status on malformed input (oversized length, truncation, bad
// magic/version, checksum mismatch, an unknown status code). Every
// decoded count is bounded by the bytes left divided by its element's
// smallest encoding before it sizes an allocation. A server maps such a
// Status to "close this connection"; it never crashes or trusts a
// partial frame.
//
// Versioning policy matches the snapshot format: kWireVersion bumps on
// ANY layout change, no compatibility shims — a version-mismatched peer
// is simply refused.

#ifndef CFDPROP_NET_WIRE_PROTOCOL_H_
#define CFDPROP_NET_WIRE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/base/value.h"
#include "src/engine/engine.h"
#include "src/obs/trace.h"
#include "src/service/batch_result.h"

namespace cfdprop {
namespace net {

inline constexpr char kWireMagic[4] = {'C', 'F', 'D', 'W'};
/// v2: added the METRICS frame (kMetrics / kMetricsReply). Same frame
/// layout, but a v1 peer would treat type 6 as malformed and close the
/// connection, so the version gate keeps the refusal explicit.
/// v3: added the migration frames (kFetchSnapshot / kOpenFromSnapshot)
/// and the kUnavailable status code a router returns mid-route-flip.
/// v4: submit-batch requests carry an optional trace block (trace id +
/// parent span id + sampled flag) and the TRACE_DUMP frame reads a
/// process's span rings back.
/// v5: the STATS frame (type 3) is gone — every stats number travels in
/// the METRICS exposition. Type 3 stays unassigned and is refused as an
/// unknown frame type.
/// v6: OPEN_FROM_SNAPSHOT (type 8) is folded into OPEN_CATALOG, whose
/// request now ends in the snapshot bytes (empty = a cold open). Type 8
/// is refused like type 3.
/// v7: the SUBMIT_BATCH reply speaks the snapshot's cover codec (u64
/// string-table lengths; each result's flags, CFD count and CFDs are
/// one contiguous cover body), and the TRACE_DUMP reply's string table
/// takes the same u64 lengths.
inline constexpr uint32_t kWireVersion = 7;

/// magic + version + type + payload length.
inline constexpr size_t kFrameHeaderBytes = 4 + 4 + 1 + 4;
inline constexpr size_t kFrameTrailerBytes = 8;

/// Upper bound on one frame's payload (16 MiB): far above any real
/// request or reply, far below anything that could hurt the process.
inline constexpr uint32_t kMaxFramePayload = 1u << 24;

/// Reply types are the request type with this bit set.
inline constexpr uint8_t kReplyBit = 0x80;

enum class FrameType : uint8_t {
  kOpenCatalog = 1,
  kSubmitBatch = 2,
  kDropCatalog = 4,
  kShutdown = 5,
  /// Scrape: empty request payload; the reply carries the server's
  /// Prometheus-style text exposition (src/obs).
  kMetrics = 6,
  /// Migration, step 1: drain the tenant's queue server-side and ship
  /// its cover cache as snapshot bytes (the .ccsnap encoding).
  kFetchSnapshot = 7,
  /// Trace dump: empty request payload; the reply carries the server
  /// process's span rings (main + slow) in the string-table encoding.
  kTraceDump = 9,

  kOpenCatalogReply = kOpenCatalog | kReplyBit,
  kSubmitBatchReply = kSubmitBatch | kReplyBit,
  kDropCatalogReply = kDropCatalog | kReplyBit,
  kShutdownReply = kShutdown | kReplyBit,
  kMetricsReply = kMetrics | kReplyBit,
  kFetchSnapshotReply = kFetchSnapshot | kReplyBit,
  kTraceDumpReply = kTraceDump | kReplyBit,
};

struct FrameHeader {
  FrameType type = FrameType::kShutdown;
  uint32_t payload_len = 0;
};

/// Assembles a complete frame (header + payload + checksum trailer).
/// Precondition: payload.size() <= kMaxFramePayload.
std::string EncodeFrame(FrameType type, std::string_view payload);

/// Parses and validates the fixed-size header (magic, version, length
/// bound, known type). `bytes` must hold at least kFrameHeaderBytes.
/// This is what a stream reader calls first, to learn how many payload
/// bytes to read — so it runs before any checksum can be verified.
Result<FrameHeader> DecodeFrameHeader(std::string_view bytes);

/// Validates a complete frame end to end (header + checksum) and
/// returns a view of its payload.
Result<std::string_view> VerifyFrame(std::string_view frame);

// --------------------------------------------------------------------
// Payload codecs. Requests are tiny and flat; replies all start with a
// wire-encoded Status.
// --------------------------------------------------------------------

struct OpenCatalogRequest {
  std::string tenant;
  /// Spec text (src/parser syntax): the server parses it, opens the
  /// tenant with the spec's source CFDs as sigma 0, and resolves later
  /// submit-batch view names against the spec's declared views.
  std::string spec_text;
  /// .ccsnap bytes to warm-start the tenant's cover cache from (the
  /// migration's step 2); empty = a cold open. Lines that fail the
  /// usual Σ-fingerprint gate are rejected, not fatal.
  std::string snapshot;
};

struct OpenCatalogReplyInfo {
  /// Warm-start outcome (cover-cache lines) and the tenant's cache
  /// budget after the open's rebalance.
  uint64_t restored = 0;
  uint64_t rejected = 0;
  uint64_t cache_budget = 0;
};

struct SubmitBatchRequest {
  std::string tenant;
  /// One entry per batch (a multi-entry request is a pipelined burst:
  /// the server decides every batch's admission atomically, so the
  /// admit/reject pattern is deterministic); each batch is a list of
  /// view names from the tenant's spec, served in order.
  std::vector<std::vector<std::string>> batches;
  /// Optional trace block (v4): a zero trace_id encodes as "absent" —
  /// one flag byte — so untraced traffic pays one byte, not the ids.
  /// `parent_span_id` is the client's rpc span, which every server-side
  /// span of this request parents to.
  obs::TraceContext trace;
};

/// One batch's outcome: the admission/resolution status, and — when
/// admitted — per-request results carrying decoded covers. The same
/// struct the in-process service's BatchReply derives from, so covers
/// cross the inproc/wire boundary without conversion.
using WireBatchResult = ::cfdprop::BatchResult;

void EncodeStatus(std::string& out, const Status& status);
/// Bounds-checked; decodes the StatusCode back to the typed Status.
/// False on truncation, an unknown code or an OK status with a message.
bool DecodeStatus(std::string_view in, size_t* pos, Status* status);

std::string EncodeOpenCatalogRequest(const OpenCatalogRequest& request);
Result<OpenCatalogRequest> DecodeOpenCatalogRequest(std::string_view payload);

std::string EncodeOpenCatalogReply(const Status& status,
                                   const OpenCatalogReplyInfo& info);
Result<OpenCatalogReplyInfo> DecodeOpenCatalogReply(std::string_view payload);

std::string EncodeSubmitBatchRequest(const SubmitBatchRequest& request);
Result<SubmitBatchRequest> DecodeSubmitBatchRequest(std::string_view payload);

/// `status` is the whole-frame outcome (unknown tenant, unknown view);
/// per-batch admission rejections ride inside `batches`. `pool` is the
/// serving tenant's pool, used to export pattern-constant texts into
/// the reply's string table. Deterministic: equal outcomes and covers
/// encode to equal bytes. Layout: status, the cover string table, then
/// per batch its status and, when OK, a u64 result count and per result
/// its status and, when OK, fingerprint u64, cache_hit u8,
/// disjunct_hits u64, disjunct_count u64 and the cover body.
std::string EncodeSubmitBatchReply(const Status& status,
                                   const std::vector<WireBatchResult>& batches,
                                   const ValuePool& pool);
/// Decoded covers intern their constants into `pool` (the caller's own,
/// typically a client-side catalog's). Timing fields come back zeroed —
/// the wire carries results, not the server's clock.
Result<std::vector<WireBatchResult>> DecodeSubmitBatchReply(
    std::string_view payload, ValuePool& pool);

std::string EncodeStringRequest(std::string_view text);
Result<std::string> DecodeStringRequest(std::string_view payload);

/// A reply carrying one blob: Status, then u32 length + bytes. The
/// FETCH_SNAPSHOT reply ships a tenant's .ccsnap bytes (the migration's
/// step 1; its request is EncodeStringRequest of the tenant name), the
/// METRICS reply the exposition text. A blob too large to frame (past
/// kMaxFramePayload) degrades to a typed ResourceExhausted reply, like
/// any oversized reply.
std::string EncodeBytesReply(const Status& status, std::string_view bytes);
Result<std::string> DecodeBytesReply(std::string_view payload);

std::string EncodeStatusReply(const Status& status);
Status DecodeStatusReply(std::string_view payload);

// TRACE_DUMP: empty request payload; the reply carries every published
// span of the server's rings. Span names/tenants/annotations travel as
// indices into a first-use-ordered string table (the cover codec's
// StringTableWriter and ReadStringTable — equal span sets encode to
// equal bytes, which is what the deterministic-dump test diffs).
Status DecodeTraceDumpRequest(std::string_view payload);
std::string EncodeTraceDumpReply(const Status& status,
                                 const std::vector<obs::SpanRecord>& spans);
Result<std::vector<obs::SpanRecord>> DecodeTraceDumpReply(
    std::string_view payload);

}  // namespace net
}  // namespace cfdprop

#endif  // CFDPROP_NET_WIRE_PROTOCOL_H_
