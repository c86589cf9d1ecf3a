// Sampling distributed tracer: the per-request counterpart of the
// aggregate metrics in src/obs/metrics.h.
//
// A request entering the system at an edge (CoverRouter, RemoteBackend,
// InProcBackend, CoverServer; see HopSpan) gets a TraceContext — a
// trace id, the id of the span that encloses whatever happens next, and
// a sampling decision made once at that edge. The context rides the
// wire inside the submit-batch frame (src/net/wire_protocol.h), so
// every hop the request crosses — router route, backend rpc, server
// decode/encode/write, the service's admission/queue_wait/dispatch/
// propagate/reply stages, the engine's compute — records its span
// against the same trace id, and a dump stitched across processes
// reassembles the whole tree.
//
// Hot-path discipline: recording is append-into-a-lock-free-ring — one
// fetch_add to claim a slot, plain stores into it, one release store to
// publish. No locks, no allocation (names and tenants are truncated
// into fixed slot fields). When no tracer is installed the only cost at
// an instrumentation site is one relaxed atomic load and a branch, and
// with sampling off (`trace_sample_shift < 0`) StartTrace never marks a
// context sampled, so no site ever reads a clock for tracing.
//
// The ring is bounded and drop-on-full: the first `ring_capacity` spans
// are retained, later ones are counted in dropped_ — so the invariant
//   dropped + retained == recorded
// holds exactly even under concurrent writers (the concurrency test
// hammers it with 4 threads). Slow-request capture is a second, smaller
// ring: an edge whose end-to-end duration crosses `slow_threshold_us`
// force-records its root span there even when the trace was not
// sampled, so tail outliers survive any sampling rate.
//
// Determinism: trace and span ids are SplitMix64 streams over a seeded
// counter, and the dump encodings (text and wire) order spans by their
// ring append order — a seeded run with an injected clock produces a
// byte-identical dump every time.

#ifndef CFDPROP_OBS_TRACE_H_
#define CFDPROP_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"

namespace cfdprop {
namespace obs {

/// Tracer configuration. A default-constructed ObsOptions traces at
/// 1/64 sampling with slow capture off; `trace_sample_shift < 0`
/// disables sampling entirely (no context is ever marked sampled).
struct ObsOptions {
  /// Sample 1 in 2^k requests at the edge. 6 = 1/64. Negative = off:
  /// StartTrace still hands out ids (they are cheap and make the wire
  /// block deterministic) but never sets `sampled`.
  int trace_sample_shift = 6;

  /// End-to-end latency (microseconds) past which an edge force-retains
  /// the request's root span in the slow ring, sampled or not.
  /// Negative = slow capture off.
  int64_t slow_threshold_us = -1;

  /// Seed for the trace/span id streams. An explicit non-zero seed is
  /// deterministic: equal seeds + equal append order = equal ids =
  /// byte-identical dumps. 0 (the default) derives a per-process seed
  /// instead — two processes stitching their dumps together must not
  /// share an id stream, or a server span can collide with the very
  /// client span it should nest under.
  uint64_t trace_seed = 0;

  /// Main span ring capacity (drop-on-full past this).
  size_t trace_ring_capacity = 8192;

  /// Slow-request ring capacity.
  size_t slow_ring_capacity = 512;

  /// Clock override for deterministic tests; null = steady_clock
  /// microseconds. Only consulted on sampled/slow paths.
  std::function<uint64_t()> clock;
};

/// What rides with one request: generated at the edge, propagated
/// in-band on the wire. `parent_span_id` is the span enclosing the
/// receiver's work (the client's rpc span, once it crosses the wire).
/// A zero trace_id means "no trace attached".
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  bool sampled = false;
};

/// One recorded span, as read back out of a ring (slot fields widened
/// back into strings). `shard` is -1 when the recording site had no
/// shard identity; the stitching side may fill it in (the client CLI
/// labels each shard's dump with the shard it was fetched from).
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
  std::string name;
  std::string tenant;
  /// Free-form site annotation, e.g. the compute span's "hits=4,misses=1".
  std::string annot;
  int32_t shard = -1;
  bool slow = false;
};

/// Lock-free bounded span ring. Append claims a slot with one
/// fetch_add; slots past the capacity are dropped and counted. Each
/// slot has exactly one writer ever, publishing with a release store —
/// readers (Snapshot) acquire-load the flag, so there is no data race
/// for TSan to find and no torn span can be observed.
class SpanRing {
 public:
  /// Truncation bounds for the slot's inline strings (no allocation on
  /// the record path). Generous for every name this codebase uses.
  static constexpr size_t kNameBytes = 16;
  static constexpr size_t kTenantBytes = 32;
  static constexpr size_t kAnnotBytes = 32;

  explicit SpanRing(size_t capacity);

  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

  /// Appends one span. Returns false when the ring was full (the span
  /// is dropped and counted in dropped()).
  bool Append(uint64_t trace_id, uint64_t span_id, uint64_t parent_id,
              std::string_view name, uint64_t start_us, uint64_t dur_us,
              std::string_view tenant, int32_t shard, std::string_view annot);

  /// Append attempts, including dropped ones.
  uint64_t recorded() const { return next_.load(std::memory_order_relaxed); }
  /// Appends refused because the ring was full.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  size_t capacity() const { return slots_.size(); }

  /// Published spans in append order; `slow` stamps every record's flag
  /// (the tracer reads its slow ring back with slow = true).
  void Snapshot(std::vector<SpanRecord>* out, bool slow) const;

 private:
  struct Slot {
    std::atomic<uint8_t> published{0};
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_id = 0;
    uint64_t start_us = 0;
    uint64_t dur_us = 0;
    int32_t shard = -1;
    char name[kNameBytes] = {};
    char tenant[kTenantBytes] = {};
    char annot[kAnnotBytes] = {};
  };

  std::vector<Slot> slots_;
  std::atomic<uint64_t> next_{0};
  std::atomic<uint64_t> dropped_{0};
};

/// The per-process tracer: id streams, the sampling decision, the two
/// rings, and the subsystem's own health counters. All methods are
/// thread-safe; everything on the record path is lock-free (the only
/// mutex guards the per-tenant slow counter map, touched by slow
/// requests only).
class Tracer {
 public:
  explicit Tracer(ObsOptions options = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  const ObsOptions& options() const { return options_; }

  /// New trace at an edge: assigns the next trace id from the seeded
  /// stream and decides sampling (1 in 2^trace_sample_shift, counter-
  /// based so the rate is exact and deterministic).
  TraceContext StartTrace();

  /// Next span id from the seeded stream.
  uint64_t NewSpanId();

  /// Current time in microseconds (the injected clock, or steady_clock).
  uint64_t NowUs() const;

  /// steady_clock time point -> the same microsecond scale NowUs() uses
  /// on the real-clock path. Lets the service turn its existing stage
  /// stamps into span times without re-reading any clock.
  static uint64_t ToUs(std::chrono::steady_clock::time_point tp) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            tp.time_since_epoch())
            .count());
  }

  bool slow_enabled() const { return options_.slow_threshold_us >= 0; }
  int64_t slow_threshold_us() const { return options_.slow_threshold_us; }

  /// Records one span into the main ring. Callers gate on ctx.sampled.
  void Record(const TraceContext& ctx, uint64_t span_id, uint64_t parent_id,
              std::string_view name, uint64_t start_us, uint64_t dur_us,
              std::string_view tenant, int32_t shard = -1,
              std::string_view annot = {});

  /// Edge completion: records the root span normally when sampled, and
  /// force-retains it in the slow ring (plus the per-tenant slow
  /// counter) when slow capture is armed and `dur_us` crosses the
  /// threshold — sampled or not.
  void RecordEdge(const TraceContext& ctx, uint64_t span_id,
                  std::string_view name, uint64_t start_us, uint64_t dur_us,
                  std::string_view tenant, int32_t shard = -1);

  /// Both rings (main, then slow), each in append order — the
  /// deterministic dump order.
  std::vector<SpanRecord> Snapshot() const;

  // Health counters (satellite: exported as cfdprop_trace_* metrics).
  uint64_t spans_recorded() const {
    return ring_.recorded() + slow_ring_.recorded();
  }
  uint64_t spans_dropped() const {
    return ring_.dropped() + slow_ring_.dropped();
  }
  uint64_t slow_requests() const {
    return slow_requests_.load(std::memory_order_relaxed);
  }

  /// Metric families for the registry render: cfdprop_trace_spans_total,
  /// cfdprop_trace_dropped_total, cfdprop_slow_requests_total{tenant}.
  std::vector<MetricFamilySamples> CollectFamilies() const;

 private:
  const ObsOptions options_;
  /// options_.trace_seed, or a per-process derivation when that is 0.
  const uint64_t id_seed_;
  const uint64_t sample_mask_;  // 2^shift - 1; sampling off = all-ones

  std::atomic<uint64_t> trace_counter_{0};
  std::atomic<uint64_t> span_counter_{0};

  SpanRing ring_;
  SpanRing slow_ring_;

  std::atomic<uint64_t> slow_requests_{0};
  mutable std::mutex slow_mu_;
  std::map<std::string, uint64_t> slow_by_tenant_;  // guarded by slow_mu_
};

/// The installed per-process tracer, or null when tracing is off. One
/// relaxed-ish (acquire) load — the whole cost of a disabled
/// instrumentation site.
Tracer* ProcessTracer();

/// Installs (or, with null, uninstalls) the process tracer. The caller
/// keeps ownership and must uninstall before destroying the tracer and
/// after quiescing everything that records into it.
void InstallProcessTracer(Tracer* tracer);

/// RAII install/uninstall for tests and the workload runner.
class ScopedProcessTracer {
 public:
  explicit ScopedProcessTracer(Tracer* tracer) { InstallProcessTracer(tracer); }
  ~ScopedProcessTracer() { InstallProcessTracer(nullptr); }
  ScopedProcessTracer(const ScopedProcessTracer&) = delete;
  ScopedProcessTracer& operator=(const ScopedProcessTracer&) = delete;
};

/// The span one hop records around the work it hands on: the router's
/// "route", a backend's "request" or "rpc", a server's "request". At an
/// edge (no caller trace) it starts the trace, is timed when the trace
/// is sampled or slow capture is armed, and closes with RecordEdge.
/// Under a caller's `parent` it is timed only when the parent is
/// sampled and closes with a plain Record under it. child() is the
/// context to hand downstream: this span as parent when sampled, empty
/// otherwise. With no tracer the constructor is one branch and Finish
/// another.
class HopSpan {
 public:
  explicit HopSpan(Tracer* tracer = ProcessTracer()) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      trace_ = tracer_->StartTrace();
      Begin(trace_.sampled || tracer_->slow_enabled());
    }
  }
  explicit HopSpan(const TraceContext& parent,
                   Tracer* tracer = ProcessTracer())
      : tracer_(tracer), trace_(parent), edge_(false) {
    if (tracer_ != nullptr && parent.sampled) Begin(true);
  }

  const TraceContext& child() const { return child_; }

  void Finish(std::string_view name, std::string_view tenant,
              int32_t shard = -1) {
    if (timed_) Close(name, tenant, shard);
  }

 private:
  void Begin(bool timed);
  void Close(std::string_view name, std::string_view tenant, int32_t shard);

  Tracer* tracer_;
  TraceContext trace_;
  TraceContext child_;
  uint64_t span_id_ = 0;
  uint64_t start_us_ = 0;
  bool timed_ = false;
  bool edge_ = true;
};

/// Renders spans as stitched trees: one block per trace (ordered by
/// trace id), roots at top, children indented and ordered by
/// (start_us, span_id). A span whose parent is absent from the set
/// roots its own subtree, so a partial dump still renders. The output
/// is a pure function of the span set — the byte-identical-dump test
/// leans on exactly that.
std::string FormatSpanTrees(const std::vector<SpanRecord>& spans);

}  // namespace obs
}  // namespace cfdprop

#endif  // CFDPROP_OBS_TRACE_H_
