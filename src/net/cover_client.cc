#include "src/net/cover_client.h"

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

#include "src/net/socket_io.h"

namespace cfdprop {
namespace net {

namespace {

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

CoverClient::CoverClient(CoverClientOptions options)
    : options_(std::move(options)) {}

CoverClient::~CoverClient() { Close(); }

Status CoverClient::Connect() {
  if (fd_ >= 0) return Status::OK();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad server address '" + options_.host +
                                   "'");
  }
  using Clock = std::chrono::steady_clock;
  const bool bounded = options_.connect_timeout.count() > 0;
  const Clock::time_point deadline = Clock::now() + options_.connect_timeout;
  auto remaining = [&]() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                 Clock::now());
  };
  std::string last_error = "no attempts made";
  const size_t attempts = std::max<size_t>(1, options_.connect_attempts);
  for (size_t i = 0; i < attempts; ++i) {
    if (i > 0) {
      // The sleep counts against the overall deadline too — a retry
      // loop that only bounded the connects could still sleep forever.
      auto delay = options_.retry_delay;
      if (bounded) {
        const auto left = remaining();
        if (left.count() <= 0) break;
        delay = std::min(delay, left);
      }
      std::this_thread::sleep_for(delay);
    }
    if (bounded && remaining().count() <= 0) break;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    int err = 0;
    if (bounded) {
      err = ConnectWithBudget(fd, addr, std::max(remaining(),
                                                 std::chrono::milliseconds(1)));
    } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) != 0) {
      err = errno;
    }
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
  const std::string target =
      options_.host + ":" + std::to_string(options_.port);
  if (bounded && remaining().count() <= 0) {
    return Status::DeadlineExceeded(
        "cannot reach " + target + " within " +
        std::to_string(options_.connect_timeout.count()) + " ms (" +
        last_error + ")");
  }
  return Status::NotFound("cannot reach " + target + " after " +
                          std::to_string(attempts) + " attempts (" +
                          last_error + ")");
}

void CoverClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::string> CoverClient::RoundTrip(FrameType request,
                                           std::string_view payload,
                                           FrameType expected_reply) {
  if (fd_ < 0) return Status::NotFound("client is not connected");
  if (payload.size() > kMaxFramePayload) {
    // The server would reject the header anyway; fail with a typed
    // error before shipping megabytes it will never parse.
    return Status::ResourceExhausted(
        "request payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte frame bound");
  }
  CFDPROP_RETURN_NOT_OK(WriteAll(fd_, EncodeFrame(request, payload)));
  auto reply = ReadFrame(fd_);
  if (!reply.ok()) {
    // A failed read leaves the stream unsynchronized — drop the
    // connection so the next call reconnects instead of misparsing.
    Close();
    return reply.status();
  }
  if (reply->first != expected_reply) {
    Close();
    return Status::InvalidArgument(
        "wire frame rejected: unexpected reply type " +
        std::to_string(static_cast<int>(reply->first)));
  }
  return std::move(reply->second);
}

Result<OpenCatalogReplyInfo> CoverClient::OpenCatalog(
    const std::string& tenant, const std::string& spec_text) {
  OpenCatalogRequest request{tenant, spec_text};
  CFDPROP_ASSIGN_OR_RETURN(
      std::string payload,
      RoundTrip(FrameType::kOpenCatalog, EncodeOpenCatalogRequest(request),
                FrameType::kOpenCatalogReply));
  return DecodeOpenCatalogReply(payload);
}

Result<WireBatchResult> CoverClient::SubmitBatch(
    const std::string& tenant, const std::vector<std::string>& views,
    ValuePool& pool) {
  CFDPROP_ASSIGN_OR_RETURN(std::vector<WireBatchResult> batches,
                           SubmitBatches(tenant, {views}, pool));
  if (batches.size() != 1) {
    return Status::Internal("server answered " +
                            std::to_string(batches.size()) +
                            " batches for a single submit");
  }
  return std::move(batches.front());
}

Result<std::vector<WireBatchResult>> CoverClient::SubmitBatches(
    const std::string& tenant,
    const std::vector<std::vector<std::string>>& batches, ValuePool& pool) {
  obs::Tracer* tracer = obs::ProcessTracer();
  if (tracer == nullptr) {
    return SubmitBatchesTraced(tenant, batches, pool, {}, /*edge=*/false);
  }
  // No caller-started trace: this client IS the edge.
  return SubmitBatchesTraced(tenant, batches, pool, tracer->StartTrace(),
                             /*edge=*/true);
}

Result<std::vector<WireBatchResult>> CoverClient::SubmitBatches(
    const std::string& tenant,
    const std::vector<std::vector<std::string>>& batches, ValuePool& pool,
    const obs::TraceContext& trace) {
  return SubmitBatchesTraced(tenant, batches, pool, trace, /*edge=*/false);
}

Result<std::vector<WireBatchResult>> CoverClient::SubmitBatchesTraced(
    const std::string& tenant,
    const std::vector<std::vector<std::string>>& batches, ValuePool& pool,
    const obs::TraceContext& trace, bool edge) {
  obs::Tracer* tracer = obs::ProcessTracer();
  uint64_t span_id = 0;
  uint64_t start_us = 0;
  const bool traced = tracer != nullptr && trace.trace_id != 0;
  const bool timed =
      traced && (trace.sampled || (edge && tracer->slow_enabled()));
  SubmitBatchRequest request;
  request.tenant = tenant;
  request.batches = batches;
  if (traced && trace.sampled) {
    // The rpc span id crosses the wire as the parent of every span the
    // server records for this request.
    span_id = tracer->NewSpanId();
    request.trace.trace_id = trace.trace_id;
    request.trace.parent_span_id = span_id;
    request.trace.sampled = true;
  }
  if (timed) {
    if (span_id == 0) span_id = tracer->NewSpanId();
    start_us = tracer->NowUs();
  }
  auto finish = [&] {
    if (!timed) return;
    const uint64_t dur_us = tracer->NowUs() - start_us;
    if (edge) {
      tracer->RecordEdge(trace, span_id, "rpc", start_us, dur_us, tenant);
    } else if (trace.sampled) {
      tracer->Record(trace, span_id, trace.parent_span_id, "rpc", start_us,
                     dur_us, tenant);
    }
  };
  auto payload =
      RoundTrip(FrameType::kSubmitBatch, EncodeSubmitBatchRequest(request),
                FrameType::kSubmitBatchReply);
  finish();
  CFDPROP_RETURN_NOT_OK(payload.status());
  CFDPROP_ASSIGN_OR_RETURN(std::vector<WireBatchResult> decoded,
                           DecodeSubmitBatchReply(*payload, pool));
  if (decoded.size() != batches.size()) {
    return Status::Internal(
        "server answered " + std::to_string(decoded.size()) +
        " batches for a " + std::to_string(batches.size()) + "-batch submit");
  }
  return decoded;
}

Result<std::string> CoverClient::Metrics() {
  CFDPROP_ASSIGN_OR_RETURN(
      std::string payload,
      RoundTrip(FrameType::kMetrics, "", FrameType::kMetricsReply));
  return DecodeMetricsReply(payload);
}

Result<std::vector<obs::SpanRecord>> CoverClient::TraceDump() {
  CFDPROP_ASSIGN_OR_RETURN(
      std::string payload,
      RoundTrip(FrameType::kTraceDump, "", FrameType::kTraceDumpReply));
  return DecodeTraceDumpReply(payload);
}

Result<std::string> CoverClient::FetchSnapshot(const std::string& tenant) {
  CFDPROP_ASSIGN_OR_RETURN(
      std::string payload,
      RoundTrip(FrameType::kFetchSnapshot, EncodeStringRequest(tenant),
                FrameType::kFetchSnapshotReply));
  return DecodeFetchSnapshotReply(payload);
}

Result<OpenCatalogReplyInfo> CoverClient::OpenFromSnapshot(
    const std::string& tenant, const std::string& spec_text,
    std::string_view snapshot) {
  OpenFromSnapshotRequest request;
  request.tenant = tenant;
  request.spec_text = spec_text;
  request.snapshot = std::string(snapshot);
  CFDPROP_ASSIGN_OR_RETURN(
      std::string payload,
      RoundTrip(FrameType::kOpenFromSnapshot,
                EncodeOpenFromSnapshotRequest(request),
                FrameType::kOpenFromSnapshotReply));
  return DecodeOpenCatalogReply(payload);
}

Status CoverClient::DropCatalog(const std::string& tenant) {
  auto payload = RoundTrip(FrameType::kDropCatalog,
                           EncodeStringRequest(tenant),
                           FrameType::kDropCatalogReply);
  if (!payload.ok()) return payload.status();
  return DecodeStatusReply(*payload);
}

Status CoverClient::Shutdown() {
  auto payload =
      RoundTrip(FrameType::kShutdown, "", FrameType::kShutdownReply);
  if (!payload.ok()) return payload.status();
  return DecodeStatusReply(*payload);
}

}  // namespace net
}  // namespace cfdprop
