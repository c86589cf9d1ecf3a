#include "src/net/cover_backend.h"

#include <utility>

#include "src/net/cover_server.h"

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
  // the same window the wire path's "rpc" span covers.
  obs::Tracer* tracer = obs::ProcessTracer();
  obs::TraceContext trace;
  obs::TraceContext child;
  uint64_t span_id = 0;
  uint64_t start_us = 0;
  bool timed = false;
  if (tracer != nullptr) {
    trace = tracer->StartTrace();
    timed = trace.sampled || tracer->slow_enabled();
    if (timed) {
      span_id = tracer->NewSpanId();
      start_us = tracer->NowUs();
    }
    if (trace.sampled) {
      child.trace_id = trace.trace_id;
      child.parent_span_id = span_id;
      child.sampled = true;
    }
  }

  // The wire path's own serving: the burst's admit/reject pattern
  // matches it byte for byte.
  std::vector<BatchResult> outcomes =
      service_.ServeViewBatches(handle, batches, child);
  if (timed) {
    tracer->RecordEdge(trace, span_id, "request", start_us,
                       tracer->NowUs() - start_us, tenant);
  }
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

Status RemoteBackend::EnsureConnected() {
  if (client_.connected()) return Status::OK();
  CFDPROP_RETURN_NOT_OK(client_.Connect());
  // Replay this backend's catalog opens so the conversation resumes
  // where the dropped one left off; the server's same-text re-open is
  // idempotent, so a catalog that survived server-side is a no-op.
  for (const auto& [tenant, spec_text] : opened_) {
    auto reopened = client_.OpenCatalog(tenant, spec_text);
    if (!reopened.ok()) {
      client_.Close();
      return reopened.status();
    }
  }
  return Status::OK();
}

Result<OpenCatalogReplyInfo> RemoteBackend::OpenCatalog(
    const std::string& tenant, const std::string& spec_text) {
  CFDPROP_RETURN_NOT_OK(EnsureConnected());
  CFDPROP_ASSIGN_OR_RETURN(OpenCatalogReplyInfo info,
                           client_.OpenCatalog(tenant, spec_text));
  opened_[tenant] = spec_text;
  return info;
}

Result<std::vector<BatchResult>> RemoteBackend::SubmitBatches(
    const std::string& tenant,
    const std::vector<std::vector<std::string>>& batches, ValuePool& pool) {
  CFDPROP_RETURN_NOT_OK(EnsureConnected());
  return client_.SubmitBatches(tenant, batches, pool);
}

Result<std::vector<BatchResult>> RemoteBackend::SubmitBatches(
    const std::string& tenant,
    const std::vector<std::vector<std::string>>& batches, ValuePool& pool,
    const obs::TraceContext& trace) {
  CFDPROP_RETURN_NOT_OK(EnsureConnected());
  return client_.SubmitBatches(tenant, batches, pool, trace);
}

Result<std::vector<obs::SpanRecord>> RemoteBackend::TraceDump() {
  CFDPROP_RETURN_NOT_OK(EnsureConnected());
  return client_.TraceDump();
}

Result<std::string> RemoteBackend::Metrics() {
  CFDPROP_RETURN_NOT_OK(EnsureConnected());
  return client_.Metrics();
}

Status RemoteBackend::DropCatalog(const std::string& tenant) {
  CFDPROP_RETURN_NOT_OK(EnsureConnected());
  Status dropped = client_.DropCatalog(tenant);
  if (dropped.ok()) opened_.erase(tenant);
  return dropped;
}

Result<std::string> RemoteBackend::FetchSnapshot(const std::string& tenant) {
  CFDPROP_RETURN_NOT_OK(EnsureConnected());
  return client_.FetchSnapshot(tenant);
}

Result<OpenCatalogReplyInfo> RemoteBackend::OpenFromSnapshot(
    const std::string& tenant, const std::string& spec_text,
    std::string_view snapshot) {
  CFDPROP_RETURN_NOT_OK(EnsureConnected());
  CFDPROP_ASSIGN_OR_RETURN(
      OpenCatalogReplyInfo info,
      client_.OpenFromSnapshot(tenant, spec_text, snapshot));
  opened_[tenant] = spec_text;
  return info;
}

Status RemoteBackend::Shutdown() {
  CFDPROP_RETURN_NOT_OK(EnsureConnected());
  return client_.Shutdown();
}

}  // namespace net
}  // namespace cfdprop
