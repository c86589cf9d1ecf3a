// CoverServer: the TCP front end of the multi-tenant CatalogService —
// the first process boundary in the stack.
//
// A POSIX acceptor thread hands each connection to its own thread,
// which loops: read one frame (src/net/wire_protocol.h), dispatch,
// write one reply. Malformed input — bad magic or version, an
// oversized length prefix, a truncated frame, a checksum mismatch —
// surfaces as a clean Status on that connection only: the connection
// is closed (a byte stream that lied once has no trustworthy resync
// point) and counted in decode_errors, while the acceptor and every
// other connection keep serving.
//
// Tenants are opened from *spec text* (the src/parser syntax): the
// server parses it and hands it to CatalogService::OpenSpec, which
// keeps the spec and its text with the tenant — the server holds no
// tenant state. A submit-batch frame resolves the tenant once and
// serves its view names through CatalogService::ServeViewBatches.
// Clients therefore never ship view structures — just names — and
// covers travel back in the snapshot string-table encoding, so the two
// processes' ValuePools never need to agree.
//
// Admission control is the service's (AdmissionOptions): a multi-batch
// submit frame is one ServeViewBatches call, whose one-lock
// admission makes the admit/reject pattern of a pipelined burst
// deterministic; rejected batches come back as typed ResourceExhausted
// replies, and the counters land in ServiceStatsSnapshot. The
// connection thread runs its frame's batches itself while a running
// slot is free, so a request on an idle server crosses no thread.
//
// Thread-safety: Start/Stop/WaitForShutdown are for the owning thread;
// everything the connection threads touch is internally locked.

#ifndef CFDPROP_NET_COVER_SERVER_H_
#define CFDPROP_NET_COVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/net/wire_protocol.h"
#include "src/parser/parser.h"
#include "src/service/catalog_service.h"

namespace cfdprop {
namespace net {

/// What an open-catalog reply reports: the opened tenant's warm-start
/// outcome and cache budget, or the open's failure.
Result<OpenCatalogReplyInfo> OpenReply(Result<TenantHandle> opened);

struct CoverServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks; read the bound port from port().
  uint16_t port = 0;
  /// Per-call socket send/recv deadline applied to every accepted
  /// connection (SO_RCVTIMEO/SO_SNDTIMEO). 0 = no deadline — the
  /// historical fully-blocking behavior. With a deadline armed, a hung
  /// peer (stalled mid-frame, or a dead reader whose full TCP buffer
  /// blocks our reply write) costs at most one deadline window before
  /// the connection surfaces typed DeadlineExceeded and closes — the
  /// thread is reaped, the acceptor and every other connection keep
  /// serving, and no admission slot stays referenced by a dead write.
  std::chrono::milliseconds io_timeout{0};
  /// SO_SNDBUF for accepted connections; 0 = kernel default. Tests
  /// shrink this so a non-reading peer fills the buffer (and trips the
  /// send deadline) without gigabyte replies.
  int send_buffer_bytes = 0;
};

/// Network-level counters (protocol health; serving counters live in
/// ServiceStatsSnapshot).
struct CoverServerStats {
  uint64_t connections_accepted = 0;
  uint64_t frames_served = 0;
  /// Connections dropped for malformed frames (the corruption battery's
  /// observable).
  uint64_t decode_errors = 0;
  /// Connections dropped because a socket deadline expired (hung peer:
  /// stalled sender mid-frame, or dead reader blocking our reply).
  uint64_t deadlines_exceeded = 0;
};

class CoverServer {
 public:
  /// The service must outlive the server.
  explicit CoverServer(CatalogService& service,
                       CoverServerOptions options = {});
  /// Stops (idempotent with an explicit Stop()).
  ~CoverServer();

  CoverServer(const CoverServer&) = delete;
  CoverServer& operator=(const CoverServer&) = delete;

  /// Binds, listens and starts the acceptor thread. InvalidArgument on
  /// an unusable host/port (address in use, bad address, ...).
  Status Start();

  /// Closes the listener and every live connection, then joins all
  /// threads. Safe to call twice; the destructor calls it.
  void Stop();

  /// The bound port (after a successful Start). With options.port == 0
  /// this is the kernel-assigned ephemeral port.
  uint16_t port() const { return port_; }

  /// Opens a tenant from spec text through exactly the code path a
  /// network open-catalog frame takes (`snapshot` set: the frame's
  /// snapshot bytes, which warm-start the cache) — the CLI listen mode
  /// preloads its --tenant flags with this. Re-opening an open tenant
  /// with identical text is idempotent; different text is
  /// InvalidArgument (see CatalogService::OpenSpec).
  Result<OpenCatalogReplyInfo> OpenSpec(
      const std::string& tenant, const std::string& spec_text,
      std::optional<std::string_view> snapshot = std::nullopt);
  /// CatalogService::OpenSpec on a programmatically built spec (the
  /// benchmarks' hook).
  Result<OpenCatalogReplyInfo> OpenParsedSpec(const std::string& tenant,
                                              Spec spec);

  /// Blocks until a client's shutdown frame arrives (or Stop() runs).
  /// The frame only *requests* shutdown — the owner decides to Stop(),
  /// so a connection thread never joins itself.
  void WaitForShutdown();
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  CoverServerStats Stats() const;

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    /// Set (release) as the serving thread's last act; the acceptor
    /// reaps done connections — join + close — so a long-lived server
    /// does not accumulate one fd and one joinable thread per client
    /// that ever connected.
    std::atomic<bool> done{false};
  };

  /// The trace context a frame carried in-band (submit-batch only),
  /// surfaced to ServeConnection so the connection-level decode/encode/
  /// write spans can be recorded against the request's trace.
  struct FrameTrace {
    obs::TraceContext ctx;
    std::string tenant;
  };

  void AcceptLoop();
  /// Joins and closes every finished connection. Caller holds conns_mu_.
  void ReapFinishedLocked();
  void ServeConnection(Connection* conn);
  /// Dispatches one decoded frame; fills `reply` with the complete
  /// encoded reply frame and `trace` with the frame's in-band trace
  /// context (if any). Returns false when the connection should close
  /// afterwards (shutdown frame).
  bool HandleFrame(FrameType type, std::string_view payload,
                   std::string* reply, FrameTrace* trace);
  std::string HandleOpenCatalog(std::string_view payload);
  std::string HandleSubmitBatch(std::string_view payload, FrameTrace* trace);
  std::string HandleDropCatalog(std::string_view payload);
  std::string HandleMetrics();
  std::string HandleTraceDump(std::string_view payload);
  std::string HandleFetchSnapshot(std::string_view payload);
  void RequestShutdown();

  CatalogService& service_;
  CoverServerOptions options_;

  int listen_fd_ = -1;
  std::atomic<uint16_t> port_{0};
  std::thread acceptor_;

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;
  bool stopping_ = false;  // guarded by conns_mu_

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  std::atomic<bool> shutdown_requested_{false};

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_served_{0};
  std::atomic<uint64_t> decode_errors_{0};
  std::atomic<uint64_t> deadlines_exceeded_{0};

  /// Network stage histograms (`cfdprop_net_stage_latency_us{stage=}`)
  /// and the collector exporting the counters above — both live in the
  /// service's MetricsRegistry; the collector is removed on the first
  /// Stop() (the registry outlives the server, per the lifetime
  /// contract above).
  obs::Histogram* decode_stage_ = nullptr;  // header parse + checksum
  obs::Histogram* encode_stage_ = nullptr;  // reply frame assembly
  obs::Histogram* write_stage_ = nullptr;   // socket write of the reply
  size_t metrics_collector_id_ = 0;
};

}  // namespace net
}  // namespace cfdprop

#endif  // CFDPROP_NET_COVER_SERVER_H_
