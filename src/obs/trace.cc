#include "src/obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "src/base/hash.h"

namespace cfdprop {
namespace obs {

namespace {

/// Distinct salts keep the trace-id and span-id SplitMix64 streams
/// disjoint even under the same seed.
constexpr uint64_t kTraceIdSalt = 0x7261636554444643ull;  // "CFDTrace"
constexpr uint64_t kSpanIdSalt = 0x6e61705344444643ull;   // "CFDSpan"

void CopyTruncated(char* dst, size_t cap, std::string_view src) {
  const size_t n = std::min(src.size(), cap - 1);
  // A default-constructed view has a null data(), which memcpy may not
  // take even for zero bytes.
  if (n > 0) std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

uint64_t SteadyNowUs() {
  return Tracer::ToUs(std::chrono::steady_clock::now());
}

std::atomic<Tracer*> g_process_tracer{nullptr};

}  // namespace

SpanRing::SpanRing(size_t capacity) : slots_(std::max<size_t>(1, capacity)) {}

bool SpanRing::Append(uint64_t trace_id, uint64_t span_id, uint64_t parent_id,
                      std::string_view name, uint64_t start_us,
                      uint64_t dur_us, std::string_view tenant, int32_t shard,
                      std::string_view annot) {
  const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  if (seq >= slots_.size()) {
    // Drop-on-full: the slot range is exhausted, so the span is counted
    // rather than retained — never silently lost.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // seq < capacity claims slot `seq` exclusively (fetch_add hands each
  // value out once), so these are single-writer plain stores.
  Slot& slot = slots_[seq];
  slot.trace_id = trace_id;
  slot.span_id = span_id;
  slot.parent_id = parent_id;
  slot.start_us = start_us;
  slot.dur_us = dur_us;
  slot.shard = shard;
  CopyTruncated(slot.name, kNameBytes, name);
  CopyTruncated(slot.tenant, kTenantBytes, tenant);
  CopyTruncated(slot.annot, kAnnotBytes, annot);
  slot.published.store(1, std::memory_order_release);
  return true;
}

void SpanRing::Snapshot(std::vector<SpanRecord>* out, bool slow) const {
  for (const Slot& slot : slots_) {
    if (slot.published.load(std::memory_order_acquire) == 0) break;
    SpanRecord r;
    r.trace_id = slot.trace_id;
    r.span_id = slot.span_id;
    r.parent_id = slot.parent_id;
    r.start_us = slot.start_us;
    r.dur_us = slot.dur_us;
    r.shard = slot.shard;
    r.name = slot.name;
    r.tenant = slot.tenant;
    r.annot = slot.annot;
    r.slow = slow;
    out->push_back(std::move(r));
  }
}

Tracer::Tracer(ObsOptions options)
    : options_(std::move(options)),
      // Seed 0 = derive per process: distinct processes must draw from
      // distinct id streams or their stitched dumps collide (a server
      // span would reuse the client span id it nests under).
      id_seed_(options_.trace_seed != 0
                   ? options_.trace_seed
                   : SplitMix64(SteadyNowUs() ^
                                (static_cast<uint64_t>(::getpid()) << 32) ^
                                reinterpret_cast<uintptr_t>(this))),
      sample_mask_(options_.trace_sample_shift < 0
                       ? ~0ull
                       : (options_.trace_sample_shift >= 63
                              ? ~0ull >> 1
                              : (1ull << options_.trace_sample_shift) - 1)),
      ring_(options_.trace_ring_capacity),
      slow_ring_(options_.slow_ring_capacity) {}

TraceContext Tracer::StartTrace() {
  const uint64_t n = trace_counter_.fetch_add(1, std::memory_order_relaxed);
  TraceContext ctx;
  ctx.trace_id = SplitMix64(id_seed_ ^ (kTraceIdSalt + n));
  if (ctx.trace_id == 0) ctx.trace_id = 1;  // 0 means "no trace"
  // Counter-based sampling: exactly 1 in 2^shift, first trace included,
  // and deterministic for a deterministic request order.
  ctx.sampled = options_.trace_sample_shift >= 0 && (n & sample_mask_) == 0;
  return ctx;
}

uint64_t Tracer::NewSpanId() {
  const uint64_t n = span_counter_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t id = SplitMix64(id_seed_ ^ (kSpanIdSalt + n));
  return id == 0 ? 1 : id;
}

uint64_t Tracer::NowUs() const {
  return options_.clock ? options_.clock() : SteadyNowUs();
}

void Tracer::Record(const TraceContext& ctx, uint64_t span_id,
                    uint64_t parent_id, std::string_view name,
                    uint64_t start_us, uint64_t dur_us,
                    std::string_view tenant, int32_t shard,
                    std::string_view annot) {
  ring_.Append(ctx.trace_id, span_id, parent_id, name, start_us, dur_us,
               tenant, shard, annot);
}

void Tracer::RecordEdge(const TraceContext& ctx, uint64_t span_id,
                        std::string_view name, uint64_t start_us,
                        uint64_t dur_us, std::string_view tenant,
                        int32_t shard) {
  if (ctx.sampled) {
    Record(ctx, span_id, ctx.parent_span_id, name, start_us, dur_us, tenant,
           shard);
  }
  if (slow_enabled() &&
      dur_us >= static_cast<uint64_t>(options_.slow_threshold_us)) {
    slow_requests_.fetch_add(1, std::memory_order_relaxed);
    slow_ring_.Append(ctx.trace_id, span_id, ctx.parent_span_id, name,
                      start_us, dur_us, tenant, shard, {});
    std::lock_guard<std::mutex> lock(slow_mu_);
    ++slow_by_tenant_[std::string(tenant)];
  }
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::vector<SpanRecord> out;
  ring_.Snapshot(&out, /*slow=*/false);
  slow_ring_.Snapshot(&out, /*slow=*/true);
  return out;
}

std::vector<MetricFamilySamples> Tracer::CollectFamilies() const {
  std::vector<MetricFamilySamples> families;

  MetricFamilySamples spans;
  spans.name = "cfdprop_trace_spans_total";
  spans.type = MetricType::kCounter;
  spans.help = "Spans recorded by the tracer (retained + dropped)";
  spans.samples.push_back(
      {{}, static_cast<double>(spans_recorded()), std::nullopt});
  families.push_back(std::move(spans));

  MetricFamilySamples dropped;
  dropped.name = "cfdprop_trace_dropped_total";
  dropped.type = MetricType::kCounter;
  dropped.help = "Spans dropped on ring overflow";
  dropped.samples.push_back(
      {{}, static_cast<double>(spans_dropped()), std::nullopt});
  families.push_back(std::move(dropped));

  MetricFamilySamples slow;
  slow.name = "cfdprop_slow_requests_total";
  slow.type = MetricType::kCounter;
  slow.help = "Requests whose end-to-end latency crossed the slow threshold";
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    for (const auto& [tenant, count] : slow_by_tenant_) {
      slow.samples.push_back(
          {{{"tenant", tenant}}, static_cast<double>(count), std::nullopt});
    }
  }
  families.push_back(std::move(slow));
  return families;
}

Tracer* ProcessTracer() {
  return g_process_tracer.load(std::memory_order_acquire);
}

void InstallProcessTracer(Tracer* tracer) {
  g_process_tracer.store(tracer, std::memory_order_release);
}

void HopSpan::Begin(bool timed) {
  timed_ = timed;
  if (!timed) return;
  span_id_ = tracer_->NewSpanId();
  start_us_ = tracer_->NowUs();
  if (trace_.sampled) child_ = {trace_.trace_id, span_id_, true};
}

void HopSpan::Close(std::string_view name, std::string_view tenant,
                    int32_t shard) {
  const uint64_t dur_us = tracer_->NowUs() - start_us_;
  if (edge_) {
    tracer_->RecordEdge(trace_, span_id_, name, start_us_, dur_us, tenant,
                        shard);
  } else {
    tracer_->Record(trace_, span_id_, trace_.parent_span_id, name, start_us_,
                    dur_us, tenant, shard);
  }
}

namespace {

std::string HexId(uint64_t id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

void AppendSpanLine(std::string& out, const SpanRecord& span, int depth) {
  out.append(static_cast<size_t>(2 + 2 * depth), ' ');
  out += span.name;
  out += " id=" + HexId(span.span_id);
  out += " parent=" + HexId(span.parent_id);
  out += " tenant=";
  out += span.tenant.empty() ? "-" : span.tenant;
  out += " shard=";
  out += span.shard < 0 ? "-" : std::to_string(span.shard);
  out += " start_us=" + std::to_string(span.start_us);
  out += " dur_us=" + std::to_string(span.dur_us);
  if (!span.annot.empty()) out += " annot=" + span.annot;
  if (span.slow) out += " slow";
  out += "\n";
}

void AppendSubtree(std::string& out, const SpanRecord& span,
                   const std::multimap<uint64_t, const SpanRecord*>& children,
                   int depth) {
  AppendSpanLine(out, span, depth);
  auto [lo, hi] = children.equal_range(span.span_id);
  std::vector<const SpanRecord*> kids;
  for (auto it = lo; it != hi; ++it) kids.push_back(it->second);
  std::stable_sort(kids.begin(), kids.end(),
                   [](const SpanRecord* a, const SpanRecord* b) {
                     if (a->start_us != b->start_us)
                       return a->start_us < b->start_us;
                     return a->span_id < b->span_id;
                   });
  for (const SpanRecord* kid : kids) {
    AppendSubtree(out, *kid, children, depth + 1);
  }
}

}  // namespace

std::string FormatSpanTrees(const std::vector<SpanRecord>& spans) {
  // Group by trace id, ordered — a pure function of the span set.
  std::map<uint64_t, std::vector<const SpanRecord*>> traces;
  for (const SpanRecord& span : spans) {
    traces[span.trace_id].push_back(&span);
  }
  std::string out;
  for (auto& [trace_id, members] : traces) {
    out += "trace " + HexId(trace_id) +
           " spans=" + std::to_string(members.size()) + "\n";
    std::multimap<uint64_t, const SpanRecord*> children;
    std::map<uint64_t, const SpanRecord*> by_id;
    for (const SpanRecord* span : members) by_id.emplace(span->span_id, span);
    std::vector<const SpanRecord*> roots;
    for (const SpanRecord* span : members) {
      // A span whose parent is absent (or zero) roots its own subtree,
      // so a dump missing one process's ring still renders usefully.
      if (span->parent_id != 0 && span->parent_id != span->span_id &&
          by_id.count(span->parent_id) != 0) {
        children.emplace(span->parent_id, span);
      } else {
        roots.push_back(span);
      }
    }
    std::stable_sort(roots.begin(), roots.end(),
                     [](const SpanRecord* a, const SpanRecord* b) {
                       if (a->start_us != b->start_us)
                         return a->start_us < b->start_us;
                       return a->span_id < b->span_id;
                     });
    for (const SpanRecord* root : roots) {
      AppendSubtree(out, *root, children, 0);
    }
  }
  return out;
}

}  // namespace obs
}  // namespace cfdprop
