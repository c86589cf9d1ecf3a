#include "src/net/cover_backend.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "src/net/cover_server.h"
#include "src/net/socket_io.h"

namespace cfdprop {
namespace net {

Result<BatchResult> CoverBackend::SubmitBatch(
    const std::string& tenant, const std::vector<std::string>& views,
    ValuePool& pool) {
  CFDPROP_ASSIGN_OR_RETURN(std::vector<BatchResult> batches,
                           SubmitBatches(tenant, {views}, pool));
  if (batches.size() != 1) {
    return Status::Internal("backend answered " +
                            std::to_string(batches.size()) +
                            " batches for a single submit");
  }
  return std::move(batches.front());
}

// ---------------------------------------------------------------------------
// InProcBackend

Result<OpenCatalogReplyInfo> InProcBackend::OpenCatalog(
    const std::string& tenant, const std::string& spec_text) {
  CFDPROP_ASSIGN_OR_RETURN(Spec spec, ParseSpec(spec_text));
  return OpenReply(service_.OpenSpec(tenant, std::move(spec), spec_text));
}

Result<OpenCatalogReplyInfo> InProcBackend::OpenParsedSpec(
    const std::string& tenant, Spec spec) {
  return OpenReply(service_.OpenSpec(tenant, std::move(spec)));
}

Result<std::vector<BatchResult>> InProcBackend::SubmitBatches(
    const std::string& tenant,
    const std::vector<std::vector<std::string>>& batches, ValuePool& pool) {
  // The in-process path serves covers straight out of the tenant's own
  // pool; the caller's pool is only for wire-crossing backends.
  (void)pool;
  CFDPROP_ASSIGN_OR_RETURN(TenantHandle handle,
                           service_.ResolveCatalog(tenant));
  // This backend is the trace edge for the in-process path: the
  // "request" span covers submit through the last batch's resolution —
  // the same window the wire path's "rpc" span covers. The burst's
  // admit/reject pattern matches the wire path's byte for byte.
  obs::HopSpan span;
  std::vector<BatchResult> outcomes =
      service_.ServeViewBatches(handle, batches, span.child());
  span.Finish("request", tenant);
  return outcomes;
}

Result<std::string> InProcBackend::Metrics() {
  return service_.RenderMetricsText();
}

Status InProcBackend::DropCatalog(const std::string& tenant) {
  return service_.DropCatalog(tenant);
}

// ---------------------------------------------------------------------------
// RemoteBackend

namespace {

constexpr std::chrono::milliseconds kConnectRetryDelay{100};

/// One bounded connect attempt: non-blocking connect + poll, so a peer
/// that swallows SYNs can hold us for at most `budget` instead of the
/// kernel's minutes-long retry schedule. Returns 0 on success, an errno
/// on failure, and ETIMEDOUT when the budget elapsed first.
int ConnectWithBudget(int fd, const sockaddr_in& addr,
                      std::chrono::milliseconds budget) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int err = 0;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (errno != EINPROGRESS) {
      err = errno;
    } else {
      struct pollfd pfd {fd, POLLOUT, 0};
      const int n = ::poll(&pfd, 1, static_cast<int>(budget.count()));
      if (n == 0) {
        err = ETIMEDOUT;
      } else if (n < 0) {
        err = errno;
      } else {
        socklen_t len = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      }
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  return err;
}

}  // namespace

Status RemoteBackend::Dial() {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad server address '" + options_.host +
                                   "'");
  }
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + options_.connect_timeout;
  auto remaining = [&] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
  };
  std::string last_error;
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
    } else {
      const int err = ConnectWithBudget(
          fd, addr, std::max(remaining(), std::chrono::milliseconds(1)));
      if (err == 0) {
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        Status armed = SetIoDeadline(fd, options_.io_timeout);
        if (!armed.ok()) {
          ::close(fd);
          return armed;
        }
        fd_ = fd;
        return Status::OK();
      }
      last_error = std::string("connect: ") + std::strerror(err);
      ::close(fd);
    }
    // The sleep counts against the bound too.
    const auto left = remaining();
    if (left.count() <= 0) break;
    std::this_thread::sleep_for(std::min(kConnectRetryDelay, left));
  }
  return Status::DeadlineExceeded(
      "cannot reach " + options_.host + ":" + std::to_string(options_.port) +
      " within " + std::to_string(options_.connect_timeout.count()) +
      " ms (" + last_error + ")");
}

void RemoteBackend::CloseConnection() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status RemoteBackend::EnsureConnected() {
  if (connected()) return Status::OK();
  CFDPROP_RETURN_NOT_OK(Dial());
  // Replay this backend's catalog opens so the conversation resumes
  // where the dropped one left off; a catalog that survived server-side
  // re-opens as a no-op. A replay the server refuses is kept for the
  // calls that name its tenant; a lost connection fails this call.
  for (auto it = opened_.begin(); it != opened_.end();) {
    auto reply = Exchange(FrameType::kOpenCatalog,
                          EncodeOpenCatalogRequest({it->first, it->second, {}}),
                          FrameType::kOpenCatalogReply);
    Status reopened =
        reply.ok() ? DecodeOpenCatalogReply(*reply).status() : reply.status();
    if (!connected()) return reopened;
    if (reopened.ok()) {
      ++it;
      continue;
    }
    refused_[it->first] = std::move(reopened);
    it = opened_.erase(it);
  }
  return Status::OK();
}

Status RemoteBackend::Ready(const std::string& tenant) {
  CFDPROP_RETURN_NOT_OK(EnsureConnected());
  auto refused = refused_.find(tenant);
  return refused == refused_.end() ? Status::OK() : refused->second;
}

Result<std::string> RemoteBackend::Exchange(FrameType request,
                                            std::string_view payload,
                                            FrameType expected_reply) {
  if (payload.size() > kMaxFramePayload) {
    // The server would reject the header anyway; fail with a typed
    // error before shipping megabytes it will never parse.
    return Status::ResourceExhausted(
        "request payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte frame bound");
  }
  // A failed write or read leaves the stream unsynchronized (a partial
  // frame may be on the wire): drop the connection so the next call
  // reconnects instead of misparsing.
  Status written = WriteAll(fd_, EncodeFrame(request, payload));
  if (!written.ok()) {
    CloseConnection();
    return written;
  }
  auto reply = ReadFrame(fd_);
  if (!reply.ok()) {
    CloseConnection();
    return reply.status();
  }
  if (reply->first != expected_reply) {
    CloseConnection();
    return Status::InvalidArgument(
        "wire frame rejected: unexpected reply type " +
        std::to_string(static_cast<int>(reply->first)));
  }
  return std::move(reply->second);
}

Result<OpenCatalogReplyInfo> RemoteBackend::OpenCatalog(
    const std::string& tenant, const std::string& spec_text,
    std::string_view snapshot) {
  CFDPROP_RETURN_NOT_OK(EnsureConnected());
  CFDPROP_ASSIGN_OR_RETURN(
      std::string payload,
      Exchange(FrameType::kOpenCatalog,
               EncodeOpenCatalogRequest(
                   {tenant, spec_text, std::string(snapshot)}),
               FrameType::kOpenCatalogReply));
  CFDPROP_ASSIGN_OR_RETURN(OpenCatalogReplyInfo info,
                           DecodeOpenCatalogReply(payload));
  opened_[tenant] = spec_text;
  refused_.erase(tenant);
  return info;
}

Result<std::vector<BatchResult>> RemoteBackend::SubmitBatches(
    const std::string& tenant,
    const std::vector<std::vector<std::string>>& batches, ValuePool& pool) {
  CFDPROP_RETURN_NOT_OK(Ready(tenant));
  obs::HopSpan rpc;  // no caller trace: this call is the edge
  return SubmitTraced(tenant, batches, pool, rpc);
}

Result<std::vector<BatchResult>> RemoteBackend::SubmitBatches(
    const std::string& tenant,
    const std::vector<std::vector<std::string>>& batches, ValuePool& pool,
    const obs::TraceContext& trace) {
  CFDPROP_RETURN_NOT_OK(Ready(tenant));
  obs::HopSpan rpc(trace);
  return SubmitTraced(tenant, batches, pool, rpc);
}

Result<std::vector<BatchResult>> RemoteBackend::SubmitTraced(
    const std::string& tenant,
    const std::vector<std::vector<std::string>>& batches, ValuePool& pool,
    obs::HopSpan& rpc) {
  // The rpc span id crosses the wire as the parent of every span the
  // server records for this request.
  auto payload = Exchange(
      FrameType::kSubmitBatch,
      EncodeSubmitBatchRequest({tenant, batches, rpc.child()}),
      FrameType::kSubmitBatchReply);
  rpc.Finish("rpc", tenant);
  CFDPROP_RETURN_NOT_OK(payload.status());
  CFDPROP_ASSIGN_OR_RETURN(std::vector<BatchResult> decoded,
                           DecodeSubmitBatchReply(*payload, pool));
  if (decoded.size() != batches.size()) {
    return Status::Internal(
        "server answered " + std::to_string(decoded.size()) +
        " batches for a " + std::to_string(batches.size()) + "-batch submit");
  }
  return decoded;
}

Result<std::string> RemoteBackend::Metrics() {
  CFDPROP_RETURN_NOT_OK(EnsureConnected());
  CFDPROP_ASSIGN_OR_RETURN(
      std::string payload,
      Exchange(FrameType::kMetrics, "", FrameType::kMetricsReply));
  return DecodeBytesReply(payload);
}

Result<std::vector<obs::SpanRecord>> RemoteBackend::TraceDump() {
  CFDPROP_RETURN_NOT_OK(EnsureConnected());
  CFDPROP_ASSIGN_OR_RETURN(
      std::string payload,
      Exchange(FrameType::kTraceDump, "", FrameType::kTraceDumpReply));
  return DecodeTraceDumpReply(payload);
}

Status RemoteBackend::DropCatalog(const std::string& tenant) {
  CFDPROP_RETURN_NOT_OK(Ready(tenant));
  CFDPROP_ASSIGN_OR_RETURN(
      std::string payload,
      Exchange(FrameType::kDropCatalog, EncodeStringRequest(tenant),
               FrameType::kDropCatalogReply));
  Status dropped = DecodeStatusReply(payload);
  if (dropped.ok()) opened_.erase(tenant);
  return dropped;
}

Result<std::string> RemoteBackend::FetchSnapshot(const std::string& tenant) {
  CFDPROP_RETURN_NOT_OK(Ready(tenant));
  CFDPROP_ASSIGN_OR_RETURN(
      std::string payload,
      Exchange(FrameType::kFetchSnapshot, EncodeStringRequest(tenant),
               FrameType::kFetchSnapshotReply));
  return DecodeBytesReply(payload);
}

Status RemoteBackend::Shutdown() {
  CFDPROP_RETURN_NOT_OK(EnsureConnected());
  CFDPROP_ASSIGN_OR_RETURN(
      std::string payload,
      Exchange(FrameType::kShutdown, "", FrameType::kShutdownReply));
  return DecodeStatusReply(payload);
}

}  // namespace net
}  // namespace cfdprop
