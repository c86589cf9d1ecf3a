// CoverBackend: the one serving surface in front of a cover catalog,
// whether it lives in this process or behind a socket: OpenCatalog /
// SubmitBatch(es) / Metrics / DropCatalog, all returning the typed
// Result<>s whose StatusCodes survive the wire, so a caller programs
// against one surface and an injection decides where the covers come
// from.
//
// Three implementations:
//   * InProcBackend  — wraps a CatalogService, no sockets at all;
//   * RemoteBackend  — the wire client: one TCP connection to a
//     CoverServer, with reconnect: a dropped connection (socket
//     deadline, server restart) is re-established on the next call and
//     the backend *re-opens every catalog it opened*, so open-catalog
//     state survives the drop (the same-text re-open is idempotent);
//   * CoverRouter (src/net/cover_router.h) — consistent-hashes tenants
//     across N RemoteBackend shards.
//
// Semantics are aligned so the implementations are byte-comparable,
// because every one of them ends in the same two CatalogService calls:
// OpenSpec (Σ 0 = the spec's source CFDs; re-opening an open tenant
// with the same text is idempotent, with different text
// InvalidArgument) and ServeViewBatches (a multi-batch SubmitBatches
// decides admission atomically — slot i answers batches[i], rejections
// are typed ResourceExhausted in the slot's status — and an unknown
// view fails its batch alone with NotFound). An unknown tenant fails
// the whole call. Decoded covers intern into the caller-supplied pool
// on the wire paths; the in-process path serves them straight from the
// tenant's engine.
//
// Thread-safety: RemoteBackend is one conversation — use one per
// worker thread (connections are cheap; the server threads per
// connection). InProcBackend IS safe for concurrent callers: it keeps
// no state beyond the thread-safe service, so the workload runner
// shares a single instance across its workers.

#ifndef CFDPROP_NET_COVER_BACKEND_H_
#define CFDPROP_NET_COVER_BACKEND_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/base/value.h"
#include "src/net/wire_protocol.h"
#include "src/parser/parser.h"
#include "src/service/batch_result.h"
#include "src/service/catalog_service.h"

namespace cfdprop {
namespace net {

struct CoverClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// The one bound on a connect: attempts repeat every 100 ms (scripts
  /// start `listen` in the background and race the client against the
  /// server's bind), each a non-blocking connect bounded by the time
  /// left, until the bound runs out; then typed DeadlineExceeded. The
  /// first attempt is always made.
  std::chrono::milliseconds connect_timeout{5000};
  /// Per-call socket send/recv deadline (SO_RCVTIMEO/SO_SNDTIMEO) armed
  /// after a successful connect. 0 = fully blocking. When an I/O
  /// deadline fires mid-call the call returns typed DeadlineExceeded and
  /// the connection is dropped (the stream has no resync point), so the
  /// next call reconnects.
  std::chrono::milliseconds io_timeout{0};
};

class CoverBackend {
 public:
  virtual ~CoverBackend() = default;

  /// Opens a tenant from spec text; the spec's source CFDs become Σ 0
  /// and submit-batch view names resolve against its declared views.
  /// Re-opening an open tenant with the same text is idempotent, with
  /// different text InvalidArgument.
  virtual Result<OpenCatalogReplyInfo> OpenCatalog(
      const std::string& tenant, const std::string& spec_text) = 0;

  /// Pipelined burst: slot i answers batches[i]; admission for the
  /// whole burst is decided atomically, so the admit/reject pattern is
  /// deterministic. Wire-crossing covers intern constants into `pool`.
  virtual Result<std::vector<BatchResult>> SubmitBatches(
      const std::string& tenant,
      const std::vector<std::vector<std::string>>& batches,
      ValuePool& pool) = 0;

  /// Single-batch convenience over SubmitBatches.
  Result<BatchResult> SubmitBatch(const std::string& tenant,
                                  const std::vector<std::string>& views,
                                  ValuePool& pool);

  /// The full Prometheus-style text exposition — the one stats surface
  /// (parse it with obs::ParseMetricsText).
  virtual Result<std::string> Metrics() = 0;

  virtual Status DropCatalog(const std::string& tenant) = 0;
};

/// CoverBackend over an in-process CatalogService: parses specs, opens
/// them with CatalogService::OpenSpec and serves each burst on the
/// calling thread through CatalogService::ServeViewBatches — everything
/// a CoverServer does per frame, minus the frames. The service must
/// outlive the backend; any number of InProcBackends may share it.
class InProcBackend : public CoverBackend {
 public:
  explicit InProcBackend(CatalogService& service) : service_(service) {}

  Result<OpenCatalogReplyInfo> OpenCatalog(
      const std::string& tenant, const std::string& spec_text) override;

  /// The hook for specs that exist only programmatically (the workload
  /// generators build Spec structs, never text).
  Result<OpenCatalogReplyInfo> OpenParsedSpec(const std::string& tenant,
                                              Spec spec);

  Result<std::vector<BatchResult>> SubmitBatches(
      const std::string& tenant,
      const std::vector<std::vector<std::string>>& batches,
      ValuePool& pool) override;

  Result<std::string> Metrics() override;
  Status DropCatalog(const std::string& tenant) override;

 private:
  CatalogService& service_;
};

/// CoverBackend over one TCP connection to a CoverServer: every call
/// sends one frame and blocks for its reply. Connects lazily on first
/// use, and on every call re-establishes a dropped connection first,
/// re-opening every catalog this backend opened. A re-open the server
/// refuses (another client opened the tenant with other text
/// meanwhile) fails only the calls that name that tenant, with the
/// server's refusal, until an explicit OpenCatalog of it succeeds;
/// every other tenant keeps serving.
class RemoteBackend : public CoverBackend {
 public:
  explicit RemoteBackend(CoverClientOptions options)
      : options_(std::move(options)) {}
  ~RemoteBackend() override { CloseConnection(); }

  RemoteBackend(const RemoteBackend&) = delete;
  RemoteBackend& operator=(const RemoteBackend&) = delete;

  Result<OpenCatalogReplyInfo> OpenCatalog(
      const std::string& tenant, const std::string& spec_text) override {
    return OpenCatalog(tenant, spec_text, {});
  }
  /// Same, warm-starting the tenant's cache from .ccsnap `snapshot`
  /// bytes (a migration's step 2); the reply reports the warm-start's
  /// restored/rejected line counts. Empty bytes are a cold open.
  Result<OpenCatalogReplyInfo> OpenCatalog(const std::string& tenant,
                                           const std::string& spec_text,
                                           std::string_view snapshot);

  /// With a process tracer installed this call is the trace edge: it
  /// starts a trace, records the "rpc" span and applies slow-request
  /// capture to the round trip.
  Result<std::vector<BatchResult>> SubmitBatches(
      const std::string& tenant,
      const std::vector<std::vector<std::string>>& batches,
      ValuePool& pool) override;

  /// Submit under a caller-started trace (the router's edge): the rpc
  /// span parents to `trace.parent_span_id` and the slow-capture
  /// decision stays with the caller.
  Result<std::vector<BatchResult>> SubmitBatches(
      const std::string& tenant,
      const std::vector<std::vector<std::string>>& batches, ValuePool& pool,
      const obs::TraceContext& trace);

  Result<std::string> Metrics() override;
  Status DropCatalog(const std::string& tenant) override;

  /// Reads the server process's span rings back (main + slow), in ring
  /// append order — the raw material for a stitched cross-process tree.
  Result<std::vector<obs::SpanRecord>> TraceDump();

  /// Migration, step 1: the server drains the tenant's in-service
  /// batches, then ships its cover cache as .ccsnap snapshot bytes.
  Result<std::string> FetchSnapshot(const std::string& tenant);

  /// Asks the server process to wind down (it stops accepting and its
  /// owner exits); the reply confirms receipt.
  Status Shutdown();

  /// Connects now (otherwise the first call connects lazily).
  Status Connect() { return EnsureConnected(); }

  /// Drops the TCP connection without telling the server — the test
  /// hook for the reconnect path (a real drop comes from a socket
  /// deadline or a dying link). The next call reconnects and replays
  /// this backend's catalog opens.
  void CloseConnection();

  bool connected() const { return fd_ >= 0; }

 private:
  /// Connects, retrying every 100 ms until options_.connect_timeout.
  Status Dial();
  /// Dial + replay the remembered catalog opens when the connection is
  /// down; no-op while it is up.
  Status EnsureConnected();
  /// EnsureConnected, then the refusal of `tenant`'s replay, if any.
  Status Ready(const std::string& tenant);
  /// Sends one frame on the live connection and reads one reply of type
  /// `expected_reply`. A failed write or read drops the connection: a
  /// partial frame leaves the stream with no resync point.
  Result<std::string> Exchange(FrameType request, std::string_view payload,
                               FrameType expected_reply);
  /// One SUBMIT_BATCH exchange inside `rpc`, whose child context rides
  /// the wire.
  Result<std::vector<BatchResult>> SubmitTraced(
      const std::string& tenant,
      const std::vector<std::vector<std::string>>& batches, ValuePool& pool,
      obs::HopSpan& rpc);

  CoverClientOptions options_;
  int fd_ = -1;
  /// Tenant -> spec text this backend opened, replayed on reconnect.
  std::map<std::string, std::string> opened_;
  /// Tenant -> the server's refusal of its replayed open.
  std::map<std::string, Status> refused_;
};

}  // namespace net
}  // namespace cfdprop

#endif  // CFDPROP_NET_COVER_BACKEND_H_
