#include "src/net/cover_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "src/net/socket_io.h"

namespace cfdprop {
namespace net {

namespace {

/// Error replies carry no covers, so their encoder never touches the
/// pool — one shared empty pool keeps the signature honest.
const ValuePool& EmptyPool() {
  static const ValuePool pool;
  return pool;
}

/// How long a FETCH_SNAPSHOT waits for the tenant's in-service batches
/// to settle before giving up with DeadlineExceeded. The router holds
/// new submissions off first, so this only waits out work already in.
constexpr std::chrono::milliseconds kMigrationDrainDeadline{10000};

}  // namespace

Result<OpenCatalogReplyInfo> OpenReply(Result<TenantHandle> opened) {
  if (!opened.ok()) return opened.status();
  const Tenant& tenant = **opened;
  const CacheStats cache = tenant.engine().Stats().cache;
  OpenCatalogReplyInfo info;
  info.restored = cache.restored;
  info.rejected = cache.rejected;
  info.cache_budget = tenant.cache_budget();
  return info;
}

CoverServer::CoverServer(CatalogService& service, CoverServerOptions options)
    : service_(service), options_(std::move(options)) {
  obs::MetricsRegistry& metrics = service_.metrics();
  constexpr std::string_view kStageName = "cfdprop_net_stage_latency_us";
  constexpr std::string_view kStageHelp =
      "Per-frame network stage latency in microseconds";
  decode_stage_ =
      metrics.GetHistogram(kStageName, kStageHelp, {{"stage", "decode"}});
  encode_stage_ =
      metrics.GetHistogram(kStageName, kStageHelp, {{"stage", "encode"}});
  write_stage_ =
      metrics.GetHistogram(kStageName, kStageHelp, {{"stage", "write"}});
  metrics_collector_id_ =
      metrics.AddCollector([this]() -> std::vector<obs::MetricFamilySamples> {
        const CoverServerStats s = Stats();
        auto scalar = [](std::string_view name, std::string_view help,
                         uint64_t value) {
          obs::MetricFamilySamples f{std::string(name),
                                     obs::MetricType::kCounter,
                                     std::string(help),
                                     {}};
          f.samples.push_back({{}, static_cast<double>(value), std::nullopt});
          return f;
        };
        return {scalar("cfdprop_net_connections_total",
                       "TCP connections accepted", s.connections_accepted),
                scalar("cfdprop_net_frames_total",
                       "Request frames served", s.frames_served),
                scalar("cfdprop_net_decode_errors_total",
                       "Connections dropped for malformed frames",
                       s.decode_errors),
                scalar("cfdprop_net_deadlines_total",
                       "Connections dropped for an expired socket deadline",
                       s.deadlines_exceeded)};
      });
}

CoverServer::~CoverServer() { Stop(); }

Status CoverServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::InvalidArgument(std::string("socket: ") +
                                   std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address '" + options_.host +
                                   "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status s = Status::InvalidArgument(
        "bind " + options_.host + ":" + std::to_string(options_.port) + ": " +
        std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, /*backlog=*/16) != 0) {
    Status s =
        Status::InvalidArgument(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_.store(ntohs(addr.sin_port), std::memory_order_relaxed);
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void CoverServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  // The registry (owned by the service) outlives this server: unhook
  // the net-counter collector before teardown so a later render can
  // never call into a dead server.
  service_.metrics().RemoveCollector(metrics_collector_id_);
  // Unblock the acceptor first (shutdown on a listening socket makes
  // accept() fail on Linux), then every connection's blocking recv.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) ::shutdown(conn->fd, SHUT_RDWR);
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
  // A Stop also releases anyone parked in WaitForShutdown.
  RequestShutdown();
}

void CoverServer::ReapFinishedLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void CoverServer::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      const bool transient = errno == EMFILE || errno == ENFILE ||
                             errno == EAGAIN || errno == EWOULDBLOCK;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        if (stopping_ || !transient) return;
        // Descriptor pressure: the fds most likely to be reclaimable
        // are our own finished connections. Reap and retry — exiting
        // here would silently stop the server accepting forever.
        ReapFinishedLocked();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                   sizeof(options_.send_buffer_bytes));
    }
    // Best effort: a socket that refuses the deadline still serves, it
    // just keeps the historical fully-blocking behavior.
    SetIoDeadline(fd, options_.io_timeout);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    ReapFinishedLocked();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] { ServeConnection(raw); });
    conns_.push_back(std::move(conn));
  }
}

void CoverServer::ServeConnection(Connection* conn) {
  const int fd = conn->fd;
  for (;;) {
    // One pointer load per frame; with no tracer installed this path is
    // byte-identical to the untraced build.
    obs::Tracer* tracer = obs::ProcessTracer();
    double decode_us = 0;
    auto frame = ReadFrame(fd, &decode_us);
    if (!frame.ok()) {
      // InvalidArgument = the codec rejected the bytes (corruption);
      // DeadlineExceeded = the peer stalled past options_.io_timeout;
      // NotFound = the peer just went away. Any way this connection is
      // done — but only the first is a protocol failure, and only the
      // second a hung peer.
      if (frame.status().code() == StatusCode::kInvalidArgument) {
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
      } else if (frame.status().code() == StatusCode::kDeadlineExceeded) {
        deadlines_exceeded_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    if (decode_stage_) decode_stage_->Record(decode_us);
    // Stamped only when a tracer is installed: the decode span's end is
    // "now", its start is now - decode_us (ReadFrame timed the parse).
    std::chrono::steady_clock::time_point read_end{};
    if (tracer != nullptr) read_end = std::chrono::steady_clock::now();
    frames_served_.fetch_add(1, std::memory_order_relaxed);
    std::string reply;
    FrameTrace ftrace;
    const bool keep = HandleFrame(frame->first, frame->second, &reply,
                                  &ftrace);
    const bool span_frame = tracer != nullptr && ftrace.ctx.sampled;
    if (span_frame) {
      const uint64_t dur = static_cast<uint64_t>(decode_us);
      tracer->Record(ftrace.ctx, tracer->NewSpanId(),
                     ftrace.ctx.parent_span_id, "decode",
                     obs::Tracer::ToUs(read_end) - dur, dur, ftrace.tenant);
    }
    const auto write_start = std::chrono::steady_clock::now();
    Status written = WriteAll(fd, reply);
    if (write_stage_ || span_frame) {
      const auto write_end = std::chrono::steady_clock::now();
      const double write_us = std::chrono::duration<double, std::micro>(
                                  write_end - write_start)
                                  .count();
      if (write_stage_) write_stage_->Record(write_us);
      if (span_frame) {
        tracer->Record(ftrace.ctx, tracer->NewSpanId(),
                       ftrace.ctx.parent_span_id, "write",
                       obs::Tracer::ToUs(write_start),
                       static_cast<uint64_t>(write_us), ftrace.tenant);
      }
    }
    // A shutdown request is honored only after its confirmation reply
    // reached the socket — firing it earlier would let the owner's
    // Stop() sever this connection mid-write and fail the client's
    // Shutdown() call.
    if (frame->first == FrameType::kShutdown) RequestShutdown();
    if (!written.ok()) {
      // A dead *reader*: the reply outgrew the peer's receive window +
      // our send buffer and the send deadline expired. Close only this
      // connection; the batch itself completed (admission released its
      // slot when the dispatcher delivered the reply future), so the
      // tenant serves the next client untouched.
      if (written.code() == StatusCode::kDeadlineExceeded) {
        deadlines_exceeded_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    if (!keep) break;
  }
  // The fd is closed after the join (by the acceptor's reap or by
  // Stop()) — never here, so a racing Stop can't shut down a recycled
  // descriptor. `done` is this thread's last store.
  ::shutdown(fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
}

bool CoverServer::HandleFrame(FrameType type, std::string_view payload,
                              std::string* reply, FrameTrace* trace) {
  // Every reply payload begins with a Status, so an over-bound payload
  // (a burst whose covers exceed the 16 MiB frame limit) degrades to a
  // typed status-only reply instead of a frame the peer must reject as
  // corrupt.
  //
  // `trace` is filled by HandleSubmitBatch while the frame() argument
  // evaluates, so by the time the lambda body runs the encode span can
  // be recorded against the request's in-band trace.
  auto frame = [this, trace](FrameType reply_type, std::string reply_payload) {
    if (reply_payload.size() > kMaxFramePayload) {
      reply_payload = EncodeStatusReply(Status::ResourceExhausted(
          "reply payload of " + std::to_string(reply_payload.size()) +
          " bytes exceeds the " + std::to_string(kMaxFramePayload) +
          "-byte frame bound; split the request"));
    }
    // The encode stage is the reply *frame* assembly (header + copy +
    // whole-frame checksum); the payload encoding inside the handlers
    // is accounted to the handler's own stages.
    obs::Tracer* tracer =
        trace->ctx.sampled ? obs::ProcessTracer() : nullptr;
    const auto encode_start = std::chrono::steady_clock::now();
    std::string encoded = EncodeFrame(reply_type, reply_payload);
    if (encode_stage_ || tracer != nullptr) {
      const auto encode_end = std::chrono::steady_clock::now();
      const double encode_us = std::chrono::duration<double, std::micro>(
                                   encode_end - encode_start)
                                   .count();
      if (encode_stage_) encode_stage_->Record(encode_us);
      if (tracer != nullptr) {
        tracer->Record(trace->ctx, tracer->NewSpanId(),
                       trace->ctx.parent_span_id, "encode",
                       obs::Tracer::ToUs(encode_start),
                       static_cast<uint64_t>(encode_us), trace->tenant);
      }
    }
    return encoded;
  };
  switch (type) {
    case FrameType::kOpenCatalog:
      *reply = frame(FrameType::kOpenCatalogReply,
                     HandleOpenCatalog(payload));
      return true;
    case FrameType::kSubmitBatch:
      *reply = frame(FrameType::kSubmitBatchReply,
                     HandleSubmitBatch(payload, trace));
      return true;
    case FrameType::kMetrics:
      *reply = frame(FrameType::kMetricsReply, HandleMetrics());
      return true;
    case FrameType::kTraceDump:
      *reply = frame(FrameType::kTraceDumpReply, HandleTraceDump(payload));
      return true;
    case FrameType::kDropCatalog:
      *reply = frame(FrameType::kDropCatalogReply,
                     HandleDropCatalog(payload));
      return true;
    case FrameType::kFetchSnapshot:
      *reply = frame(FrameType::kFetchSnapshotReply,
                     HandleFetchSnapshot(payload));
      return true;
    case FrameType::kShutdown:
      // The caller (ServeConnection) requests the actual shutdown after
      // this confirmation reply is on the wire.
      *reply = EncodeFrame(FrameType::kShutdownReply,
                           EncodeStatusReply(Status::OK()));
      return false;
    default:
      // A reply type sent *to* the server: not a conversation this
      // protocol has. Treat like corruption — close.
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      *reply = EncodeFrame(
          FrameType::kShutdownReply,
          EncodeStatusReply(Status::InvalidArgument(
              "reply frame type sent to server")));
      return false;
  }
}

std::string CoverServer::HandleOpenCatalog(std::string_view payload) {
  auto request = DecodeOpenCatalogRequest(payload);
  if (!request.ok()) {
    return EncodeOpenCatalogReply(request.status(), {});
  }
  // Empty snapshot bytes are a cold open; any others warm-start the
  // tenant's cache (a migration's target).
  std::optional<std::string_view> snapshot;
  if (!request->snapshot.empty()) snapshot = request->snapshot;
  auto info = OpenSpec(request->tenant, request->spec_text, snapshot);
  if (!info.ok()) return EncodeOpenCatalogReply(info.status(), {});
  return EncodeOpenCatalogReply(Status::OK(), *info);
}

Result<OpenCatalogReplyInfo> CoverServer::OpenSpec(
    const std::string& tenant, const std::string& spec_text,
    std::optional<std::string_view> snapshot) {
  CFDPROP_ASSIGN_OR_RETURN(Spec spec, ParseSpec(spec_text));
  return OpenReply(
      service_.OpenSpec(tenant, std::move(spec), spec_text, snapshot));
}

Result<OpenCatalogReplyInfo> CoverServer::OpenParsedSpec(
    const std::string& tenant, Spec spec) {
  return OpenReply(service_.OpenSpec(tenant, std::move(spec)));
}

std::string CoverServer::HandleSubmitBatch(std::string_view payload,
                                           FrameTrace* trace) {
  auto request = DecodeSubmitBatchRequest(payload);
  if (!request.ok()) {
    return EncodeSubmitBatchReply(request.status(), {}, EmptyPool());
  }
  // A submit arriving with no in-band trace makes this server the edge:
  // `listen --trace-dump` / `--slow-threshold-us` then observe plain
  // clients too, not only tracing-aware ones; the "request" span is the
  // root and parents everything downstream.
  const bool edge = request->trace.trace_id == 0;
  obs::HopSpan span(edge ? obs::ProcessTracer() : nullptr);
  trace->ctx = edge ? span.child() : request->trace;
  trace->tenant = request->tenant;
  auto handle = service_.ResolveCatalog(request->tenant);
  if (!handle.ok()) {
    return EncodeSubmitBatchReply(handle.status(), {}, EmptyPool());
  }
  // The in-band trace rides along so the service's stage spans join
  // the request's tree.
  const std::vector<WireBatchResult> outcomes =
      service_.ServeViewBatches(*handle, request->batches, trace->ctx);
  span.Finish("request", request->tenant);
  return EncodeSubmitBatchReply(Status::OK(), outcomes,
                                handle.value()->engine().catalog().pool());
}

std::string CoverServer::HandleMetrics() {
  // The render walks the service's registry, which includes this
  // server's net-counter collector — so one scrape covers every layer.
  return EncodeBytesReply(Status::OK(), service_.RenderMetricsText());
}

std::string CoverServer::HandleTraceDump(std::string_view payload) {
  Status decoded = DecodeTraceDumpRequest(payload);
  if (!decoded.ok()) return EncodeTraceDumpReply(decoded, {});
  // No tracer installed = nothing recorded: an empty OK dump, so a
  // plain server and a traced one speak the same frame.
  std::vector<obs::SpanRecord> spans;
  if (obs::Tracer* tracer = obs::ProcessTracer()) {
    spans = tracer->Snapshot();
  }
  return EncodeTraceDumpReply(Status::OK(), spans);
}

std::string CoverServer::HandleDropCatalog(std::string_view payload) {
  auto tenant = DecodeStringRequest(payload);
  if (!tenant.ok()) return EncodeStatusReply(tenant.status());
  return EncodeStatusReply(service_.DropCatalog(*tenant));
}

std::string CoverServer::HandleFetchSnapshot(std::string_view payload) {
  auto tenant = DecodeStringRequest(payload);
  if (!tenant.ok()) return EncodeBytesReply(tenant.status(), {});
  // Quiesce first so the serialized bytes are the settled cache — every
  // admitted batch has delivered its reply (and taken its cache
  // insertions) before the serialization walks the shards.
  Status drained = service_.DrainTenant(*tenant, kMigrationDrainDeadline);
  if (!drained.ok()) return EncodeBytesReply(drained, {});
  auto snapshot = service_.ExportTenantSnapshot(*tenant);
  if (!snapshot.ok()) {
    return EncodeBytesReply(snapshot.status(), {});
  }
  return EncodeBytesReply(Status::OK(), snapshot->bytes);
}

void CoverServer::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_.store(true, std::memory_order_relaxed);
  }
  shutdown_cv_.notify_all();
}

void CoverServer::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [&] {
    return shutdown_requested_.load(std::memory_order_relaxed);
  });
}

CoverServerStats CoverServer::Stats() const {
  CoverServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.frames_served = frames_served_.load(std::memory_order_relaxed);
  s.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  s.deadlines_exceeded = deadlines_exceeded_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace net
}  // namespace cfdprop
