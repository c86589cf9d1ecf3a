// CoverClient: the small blocking client library for CoverServer — what
// the loopback tests, the CLI `client` mode and the benchmark share.
//
// One TCP connection, strict request/reply framing: every call sends one
// frame and blocks for its reply. SubmitBatches pipelines a whole burst
// of batches into a single frame, which the server admits atomically
// (see AdmissionOptions) — the deterministic way to drive per-tenant
// admission control from outside the process.
//
// Covers come back in the snapshot string-table encoding and are
// re-interned into a caller-supplied ValuePool, so the client needs no
// knowledge of the server's pool. Protocol-level errors keep their
// StatusCode across the wire: an admission rejection is the same typed
// ResourceExhausted an in-process CatalogService::SubmitBatch returns.
//
// Not thread-safe: one CoverClient is one conversation. Use a client
// per thread (connections are cheap; the server threads per
// connection).

#ifndef CFDPROP_NET_COVER_CLIENT_H_
#define CFDPROP_NET_COVER_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/base/value.h"
#include "src/net/wire_protocol.h"

namespace cfdprop {
namespace net {

struct CoverClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Connect() retries: scripts and CI start `listen` in the background
  /// and race the client against the server's bind, so the client polls
  /// rather than demanding the server be up first.
  size_t connect_attempts = 50;
  std::chrono::milliseconds retry_delay{100};
  /// Overall Connect() deadline spanning every attempt *and* the sleeps
  /// between them. 0 = no deadline: the historical attempts-only bound
  /// (which, with a long retry_delay, had no wall-clock ceiling at
  /// all). When armed, Connect() returns typed DeadlineExceeded once
  /// the budget elapses, and each in-flight ::connect is bounded by the
  /// remaining budget (non-blocking connect + poll).
  std::chrono::milliseconds connect_timeout{0};
  /// Per-call socket send/recv deadline (SO_RCVTIMEO/SO_SNDTIMEO) armed
  /// after a successful connect. 0 = fully blocking. When an I/O
  /// deadline fires mid-RoundTrip the call returns typed
  /// DeadlineExceeded and the connection is dropped (the stream has no
  /// resync point), so the next call reconnects.
  std::chrono::milliseconds io_timeout{0};
};

class CoverClient {
 public:
  explicit CoverClient(CoverClientOptions options);
  ~CoverClient();

  CoverClient(const CoverClient&) = delete;
  CoverClient& operator=(const CoverClient&) = delete;

  /// Connects, retrying per the options. NotFound when every attempt
  /// fails.
  Status Connect();
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Ships spec text for the server to parse and open as a tenant.
  Result<OpenCatalogReplyInfo> OpenCatalog(const std::string& tenant,
                                           const std::string& spec_text);

  /// Serves one batch of view-name requests; decoded covers intern
  /// their constants into `pool`.
  Result<WireBatchResult> SubmitBatch(const std::string& tenant,
                                      const std::vector<std::string>& views,
                                      ValuePool& pool);

  /// Pipelined burst: all batches travel in one frame and their
  /// admission is decided atomically server-side, so slot i's
  /// admit/reject outcome is deterministic. slot i answers batches[i].
  /// With a process tracer installed this overload is the trace edge:
  /// it starts a new trace, records the rpc span and applies slow-
  /// request capture to the round trip.
  Result<std::vector<WireBatchResult>> SubmitBatches(
      const std::string& tenant,
      const std::vector<std::vector<std::string>>& batches, ValuePool& pool);

  /// Same, under a caller-started trace (the router's edge): the rpc
  /// span parents to `trace.parent_span_id` and the slow-capture
  /// decision stays with the caller.
  Result<std::vector<WireBatchResult>> SubmitBatches(
      const std::string& tenant,
      const std::vector<std::vector<std::string>>& batches, ValuePool& pool,
      const obs::TraceContext& trace);

  /// Scrapes the server's metrics: the full Prometheus-style text
  /// exposition (src/obs), every layer in one fetch.
  Result<std::string> Metrics();

  /// Reads the server process's span rings back (main + slow), in ring
  /// append order — the raw material for a stitched cross-process tree.
  Result<std::vector<obs::SpanRecord>> TraceDump();

  /// Migration, step 1: the server drains the tenant's in-service
  /// batches, then ships its cover cache as .ccsnap snapshot bytes.
  Result<std::string> FetchSnapshot(const std::string& tenant);

  /// Migration, step 2 (against the *target* server): open the tenant
  /// from spec text and warm-start its cache from `snapshot`. The reply
  /// reports the warm-start's restored/rejected line counts.
  Result<OpenCatalogReplyInfo> OpenFromSnapshot(const std::string& tenant,
                                                const std::string& spec_text,
                                                std::string_view snapshot);

  Status DropCatalog(const std::string& tenant);

  /// Asks the server process to wind down (it stops accepting and its
  /// owner exits); the reply confirms receipt.
  Status Shutdown();

 private:
  /// Sends one frame, reads one reply, checks the reply type.
  Result<std::string> RoundTrip(FrameType request, std::string_view payload,
                                FrameType expected_reply);

  /// Shared submit body; `edge` marks this client as the trace's edge
  /// (slow capture applies to the round trip here, not at a caller).
  Result<std::vector<WireBatchResult>> SubmitBatchesTraced(
      const std::string& tenant,
      const std::vector<std::vector<std::string>>& batches, ValuePool& pool,
      const obs::TraceContext& trace, bool edge);

  CoverClientOptions options_;
  int fd_ = -1;
};

}  // namespace net
}  // namespace cfdprop

#endif  // CFDPROP_NET_COVER_CLIENT_H_
