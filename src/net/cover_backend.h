// CoverBackend: the one serving surface in front of a cover catalog,
// whether it lives in this process or behind a socket.
//
// Before this interface the stack had two divergent submit APIs —
// CatalogService::SubmitBatch (future-based, in-process) and
// CoverClient::SubmitBatch (blocking, wire) — and every caller that
// wanted to serve "either way" (the workload runner, the CLI) carried
// hand-rolled inproc|tcp branching. CoverBackend collapses that:
// OpenCatalog / SubmitBatch(es) / Metrics / DropCatalog, all
// returning the typed Result<>s whose StatusCodes survive the wire, so
// a caller programs against one surface and an injection decides where
// the covers come from.
//
// Three implementations:
//   * InProcBackend  — wraps a CatalogService, no sockets at all;
//   * RemoteBackend  — wraps a CoverClient, with reconnect: a dropped
//     connection (socket deadline, server restart of the link) is
//     re-established on the next call and the backend *re-opens every
//     catalog it opened*, so open-catalog state survives the drop
//     (the same-text re-open is idempotent);
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
// worker thread (connections are cheap). InProcBackend IS safe for
// concurrent callers: it keeps no state beyond the thread-safe
// service, so the workload runner shares a single instance across its
// workers.

#ifndef CFDPROP_NET_COVER_BACKEND_H_
#define CFDPROP_NET_COVER_BACKEND_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/base/value.h"
#include "src/net/cover_client.h"
#include "src/net/wire_protocol.h"
#include "src/parser/parser.h"
#include "src/service/batch_result.h"
#include "src/service/catalog_service.h"

namespace cfdprop {
namespace net {

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

/// CoverBackend over a CoverClient. Lazily connects on first use, and
/// on every call re-establishes a dropped connection first — re-opening
/// every catalog this backend opened (the server's same-text re-open is
/// idempotent), which is the fix for the historical bug where a
/// DeadlineExceeded drop silently lost open-catalog state and the next
/// round died with NotFound.
class RemoteBackend : public CoverBackend {
 public:
  explicit RemoteBackend(CoverClientOptions options) : client_(options) {}

  Result<OpenCatalogReplyInfo> OpenCatalog(
      const std::string& tenant, const std::string& spec_text) override;

  Result<std::vector<BatchResult>> SubmitBatches(
      const std::string& tenant,
      const std::vector<std::vector<std::string>>& batches,
      ValuePool& pool) override;

  /// Submit under a caller-started trace (the router's edge) — the rpc
  /// span parents to `trace.parent_span_id`.
  Result<std::vector<BatchResult>> SubmitBatches(
      const std::string& tenant,
      const std::vector<std::vector<std::string>>& batches, ValuePool& pool,
      const obs::TraceContext& trace);

  Result<std::string> Metrics() override;
  Status DropCatalog(const std::string& tenant) override;

  /// Reads the shard process's span rings back (see CoverClient).
  Result<std::vector<obs::SpanRecord>> TraceDump();

  /// Migration steps, forwarded to the shard with the same
  /// reconnect-and-reopen discipline as every other call.
  Result<std::string> FetchSnapshot(const std::string& tenant);
  Result<OpenCatalogReplyInfo> OpenFromSnapshot(const std::string& tenant,
                                                const std::string& spec_text,
                                                std::string_view snapshot);

  /// Asks the shard's server process to wind down.
  Status Shutdown();

  /// Connects now (otherwise the first call connects lazily).
  Status Connect() { return EnsureConnected(); }

  /// Drops the TCP connection without telling the server — the test
  /// hook for the reconnect path (a real drop comes from a socket
  /// deadline or a dying link). The next call reconnects and replays
  /// this backend's catalog opens.
  void CloseConnection() { client_.Close(); }

  bool connected() const { return client_.connected(); }

 private:
  /// Connect + replay the remembered catalog opens when the connection
  /// is down; no-op while it is up.
  Status EnsureConnected();

  CoverClient client_;
  /// Tenant -> spec text this backend opened, replayed on reconnect.
  std::map<std::string, std::string> opened_;
};

}  // namespace net
}  // namespace cfdprop

#endif  // CFDPROP_NET_COVER_BACKEND_H_
