// The propagation engine: cached, batched, multi-threaded serving of
// CFD propagation covers (PropCFD_SPC / SPCU) over a shared catalog.
//
// A deployment (schema mapping, data exchange, cleaning-rule discovery)
// issues many near-identical propagation requests against one source
// schema and a handful of CFD sets. The one-shot pipeline recomputes
// MinCover/ComputeEQ/RBR per call; the engine amortizes that work:
//
//   * source CFD sets are registered once and min-covered at
//     registration (Fig. 2 line 1 runs once, not per request), and can
//     be *mutated* afterwards — AddCfd/RetractCfd re-minimize only the
//     relation the CFD is on (every other relation's group of minimized
//     CFDs is shared, not copied), and a group state seen before comes from
//     a bounded MinCover memo with no MinCover and no hashing at all;
//     when the set's content version changes, only the old version's
//     cache lines are invalidated (never a global Clear), and only if no
//     other registered set still serves that content,
//   * each request is canonically fingerprinted (src/engine/fingerprint.h)
//     together with its Σ's content version (SigmaVersion, the one Σ
//     identity: cache key, staleness check, snapshot and migration
//     binding) and served from a sharded LRU cover cache on a repeat; SPCU
//     requests are keyed by the multiset of their disjuncts'
//     fingerprints, and assemble from the per-SPC cache lines, so a
//     union of k disjuncts can be served as up to k partial hits,
//   * batches run on a fixed worker pool; results come back in request
//     order regardless of the thread count.
//
// Thread-safety contract: Propagate/PropagateUnion/PropagateBatch,
// RegisterSigma, AddCfd and RetractCfd are safe to call concurrently
// once the engine is constructed — sigma state is guarded by a
// shared_mutex and served via shared_ptr snapshots, so a retraction
// never frees CFDs or covers an in-flight request (or a caller-held
// EngineResult) still references. Building views against catalog()
// (which interns constants into the shared ValuePool), and constructing
// the CFDs handed to RegisterSigma/AddCfd/RetractCfd when that
// construction interns new constants, must still be serialized against
// serving: the pool itself is append-only and not thread-safe. The
// propagation pipeline only ever interns the two ComputeEQ/Lemma-4.5
// constants, which the constructor pre-interns, so serving and mutation
// with pre-built CFDs never mutate the pool.

#ifndef CFDPROP_ENGINE_ENGINE_H_
#define CFDPROP_ENGINE_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "src/algebra/view.h"
#include "src/base/status.h"
#include "src/cfd/cfd.h"
#include "src/cfd/sigma_groups.h"
#include "src/cover/propcfd_spc.h"
#include "src/engine/cover_cache.h"
#include "src/engine/fingerprint.h"
#include "src/engine/stats.h"
#include "src/obs/trace.h"
#include "src/schema/schema.h"

namespace cfdprop {

/// Engine-local id of a registered source CFD set.
using SigmaId = uint32_t;

struct EngineOptions {
  /// Worker pool size for PropagateBatch. 0 or 1 = serve batches inline
  /// on the calling thread.
  size_t num_threads = 4;

  /// Total cover-cache capacity (entries) and shard count.
  size_t cache_capacity = 1024;
  size_t cache_shards = 8;

  /// Disable to drop latency-histogram bucket recording (timing sums and
  /// counters still accumulate) — the registry-disabled baseline
  /// BM_MetricsOverhead compares against.
  bool metrics = true;

  /// Options forwarded to PropagationCoverSPC. `input_mincover` is
  /// ignored: registration already minimized, so a miss reads the
  /// registered groups as they are, and validates only the view (Σ was
  /// validated when its groups were built). README.md "The miss path"
  /// prices each step of a miss and of a union assembly.
  PropCoverOptions cover;
};

/// One served request. `cover` is shared with the cache: it stays valid
/// for as long as the caller holds it, across evictions, Clear() and
/// sigma retraction.
struct EngineResult {
  std::shared_ptr<const CachedCover> cover;
  uint64_t fingerprint = 0;
  bool cache_hit = false;

  /// SPCU requests only (disjunct_count >= 2): how many of the union's
  /// disjuncts were served from existing per-SPC cache lines while
  /// assembling. A full union-level hit reports disjunct_hits ==
  /// disjunct_count.
  size_t disjunct_hits = 0;
  size_t disjunct_count = 0;

  RequestTiming timing;
};

class Engine {
 public:
  /// Lines in the engine's MinCover memo (see AddCfd). A line holds one
  /// relation's raw and minimized group, so 16 lines are a few hundred
  /// CFDs: room for 8 sets that each churn one CFD in and out.
  static constexpr size_t kSigmaMemoCapacity = 16;

  /// Takes ownership of the catalog all registered CFD sets and served
  /// views refer to.
  explicit Engine(Catalog catalog, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a source CFD set, minimizes it per relation (Fig. 2
  /// line 1, hoisted out of the request path) and computes its content
  /// version. Σ sets with equal minimized content share cache lines.
  /// Thread-safe.
  Result<SigmaId> RegisterSigma(std::vector<CFD> sigma);

  /// Adds one CFD to a registered set and re-minimizes only the relation
  /// the CFD is on: MinCover of that relation's new raw group, which the
  /// engine memoizes (kSigmaMemoCapacity lines, least recently used out),
  /// so a group state seen before — the revert of an add, every cycle of
  /// a churned CFD — costs a lookup. The result equals a full
  /// MinCoverSigma of the new list, and the version refolds the kept
  /// group versions with the new group's (SigmaVersion). If the version
  /// changed, drops the old version's cache lines unless another
  /// registered set still has that version; lines of other versions are
  /// untouched, and a mutation that leaves the minimized set unchanged
  /// keeps every line. The CFD must be fully built — any constants
  /// already interned — before the call. Thread-safe against serving and
  /// other mutations.
  ///
  /// Per add + retract of one FD on a churn-write tenant (|Σ| = 256 over
  /// 10 relations; Release, 4-CPU x86, medians of five interleaved runs):
  /// 613 µs when each mutation ran MinCover on the group and hashed all
  /// of Σ; on a memo hit (BM_EngineMutate) 76 µs while the new snapshot
  /// copied the 256 kept CFDs, 10 µs since it shares their groups; 212 →
  /// 136 µs when both miss (BM_EngineMutateCold).
  Status AddCfd(SigmaId id, CFD cfd);

  /// Retracts the first CFD of the set's *registered* (pre-minimization)
  /// list that equals `cfd`, then re-minimizes only the relation the CFD
  /// is on (through the memo) and selectively invalidates like AddCfd.
  /// NotFound when no registered CFD matches. Covers already handed out
  /// stay valid (shared_ptr). Thread-safe.
  Status RetractCfd(SigmaId id, const CFD& cfd);

  size_t num_sigmas() const;

  /// One relation's minimized CFDs and their SigmaGroupVersion: what a
  /// state shares with the states after it and with the MinCover memo.
  struct Group {
    std::vector<CFD> cfds;
    SigmaVersion version;
  };

  /// A registered set as served: immutable, and replaced wholesale by a
  /// mutation, so a request (or caller) holding it keeps reading it.
  struct SigmaState {
    /// By relation (null: no CFDs); a mutation swaps one pointer.
    std::vector<std::shared_ptr<const Group>> groups;
    /// SigmaVersionOf the minimized set: the nonempty groups' versions
    /// folded in `view`'s order. Bound into every cache line.
    SigmaVersion version;
    /// The nonempty groups, in the registered list's first-seen order.
    SigmaGroups view;
    /// The groups copied out in order, built by the first sigma() call.
    mutable std::once_flag flat_once;
    mutable std::vector<CFD> flat;
  };

  /// The state served for `id` (null for an unknown id). It stays valid
  /// (and unchanged) across later AddCfd/RetractCfd calls.
  std::shared_ptr<const SigmaState> sigma_state(SigmaId id) const;

  /// sigma_state(id)'s groups copied out in order: MinCoverSigma of the
  /// registered list. It keeps that state alive, and so stays valid
  /// (and unchanged) too. Precondition: id < num_sigmas().
  std::shared_ptr<const std::vector<CFD>> sigma(SigmaId id) const;

  /// Copy of the registered (pre-minimization) list, as mutated by
  /// AddCfd/RetractCfd — the input a one-shot differential run should
  /// use. Precondition: id < num_sigmas().
  std::vector<CFD> sigma_raw(SigmaId id) const;

  /// Content version of the set's minimized CFDs (SigmaVersionOf; the
  /// engine refolds it per mutation and it stays equal to that).
  /// Cache lines record the version they were computed against and are
  /// only served for it. Precondition: id < num_sigmas().
  SigmaVersion sigma_version(SigmaId id) const;

  const Catalog& catalog() const { return catalog_; }
  /// Mutable access for setup (SPCViewBuilder interns constants). Must
  /// not be used concurrently with serving.
  Catalog& catalog() { return catalog_; }

  /// Serves one SPC request on the calling thread (cache → compute).
  Result<EngineResult> Propagate(const SPCView& view, SigmaId sigma_id);

  /// Serves one SPCU request on the calling thread. The union is cached
  /// under the multiset fingerprint of its disjuncts (order-insensitive)
  /// and, on a union-level miss, each disjunct is served from the per-SPC
  /// cache lines before the cross-disjunct assembly runs — byte-identical
  /// to one-shot PropagationCoverSPCU on the same inputs. A
  /// single-disjunct union degenerates to Propagate.
  Result<EngineResult> PropagateUnion(const SPCUView& view, SigmaId sigma_id);

  struct Request {
    SPCUView view;
    SigmaId sigma_id = 0;

    Request() = default;
    Request(SPCView v, SigmaId s) : view(std::move(v)), sigma_id(s) {}
    Request(SPCUView v, SigmaId s) : view(std::move(v)), sigma_id(s) {}
  };

  /// Serves a batch across the worker pool. results[i] answers
  /// requests[i] — output order is deterministic and independent of the
  /// thread count and of scheduling. Requests may mix SPC and SPCU
  /// views.
  std::vector<Result<EngineResult>> PropagateBatch(
      const std::vector<Request>& requests);

  /// Same, recording a "compute" span against `trace` (sampled, with a
  /// process tracer installed — see src/obs/trace.h) annotated with the
  /// batch's cache hit/miss split. The untraced overload costs no
  /// tracing work at all; this one costs one branch when the context is
  /// unsampled.
  std::vector<Result<EngineResult>> PropagateBatch(
      const std::vector<Request>& requests, const obs::TraceContext& trace);

  /// Engine + cache counters.
  EngineStatsSnapshot Stats() const;

  /// Spills every live cover-cache line to `path` atomically
  /// (write-to-temp + rename; snapshot format in src/engine/snapshot.h).
  /// Each line carries its Σ version, so a restart whose registered
  /// sets differ rejects it instead of serving a stale cover. Returns
  /// the number of lines written. Thread-safe against serving and
  /// mutation.
  Result<uint64_t> SaveSnapshot(const std::string& path) const;

  /// Warm-starts the cover cache from a snapshot: call it after
  /// registering the Σ sets to serve (in any order) and before serving
  /// traffic — it interns snapshot constants into the shared pool,
  /// which is not thread-safe. A line restores iff its Σ version is the
  /// version of a registered set, so later AddCfd/RetractCfd churn
  /// invalidates it exactly like a natively computed line. A
  /// version/format mismatch or corrupt file rejects wholesale with a
  /// Status (the cache is untouched); lines of Σ content this engine
  /// does not serve are rejected one by one (see SnapshotLoadStats and
  /// the restored=/rejected= counters in Stats()).
  Result<SnapshotLoadStats> LoadSnapshot(const std::string& path);

  /// SaveSnapshot without the file: the snapshot bytes in memory,
  /// exactly what SaveSnapshot would publish. Tenant migration ships
  /// these over the wire. Thread-safe against serving and mutation.
  SerializedSnapshot SerializeSnapshot() const;

  /// LoadSnapshot from bytes already in memory (the receiving side of a
  /// migration). Same validation, acceptance and thread-safety rules as
  /// LoadSnapshot: call before serving traffic.
  Result<SnapshotLoadStats> LoadSnapshotBytes(std::string_view bytes);

  /// Drops all cached covers (handed-out results stay valid).
  void ClearCache();

  /// Resizes the cover cache to `entries` total slots (shard count is
  /// fixed). A shrink evicts in deterministic LRU order; handed-out
  /// covers stay valid. Returns how many entries were evicted. This is
  /// the hook a multi-tenant service uses to rebalance per-tenant
  /// budgets at runtime. Thread-safe.
  size_t SetCacheBudget(size_t entries);

  /// Current cover-cache capacity in entries (reflects SetCacheBudget,
  /// unlike options().cache_capacity which records the construction-time
  /// value).
  size_t cache_capacity() const;

  const EngineOptions& options() const { return options_; }

 private:
  struct SigmaEntry {
    /// As registered/churned, before minimization; AddCfd appends,
    /// RetractCfd erases the first match, both in place.
    std::vector<CFD> raw;
    /// The served state; replaced wholesale on mutation.
    std::shared_ptr<const SigmaState> state;
  };

  /// A MinCover memo line: one relation's raw group, in order, and its
  /// minimized group. MinCover is a pure function of the ordered group
  /// (the engine's options are fixed), so a line found by full equality
  /// on the group is the exact result.
  struct MemoLine {
    RelationId relation = 0;
    uint64_t hash = 0;  // of (relation, raw): a filter, never the match
    std::vector<CFD> raw;
    std::shared_ptr<const Group> group;
    uint64_t last_use = 0;
  };
  struct EditedList;

  /// MinCover of `relation`'s `raw` group, and its version.
  Result<std::shared_ptr<const Group>> MinimizeGroup(
      RelationId relation, std::vector<CFD> raw) const;

  /// The state of `groups` (indexed by relation) in `order`, empty
  /// groups skipped: the view over the rest and their versions' fold.
  static std::shared_ptr<const SigmaState> MakeState(
      std::vector<std::shared_ptr<const Group>> groups,
      const std::vector<RelationId>& order);

  /// AddCfd (`add`) or RetractCfd of `cfd`, under mutation_mu_. Reads the
  /// edited relation's group off the raw list in place and looks it up
  /// in the memo; only a miss copies that group and runs MinCover on it
  /// and hashes its minimized form (outside sigma_mu_ — serving only
  /// ever blocks on the state swap). The new state shares every other
  /// group with the old one (no CFD copied), and its version refolds the
  /// group versions. Under the exclusive lock the edit is applied to the
  /// raw list in place and the entry's state swapped; the superseded
  /// state is freed after the lock. The old version's cache lines are
  /// dropped if no registered set still has that version.
  Status MutateSigma(SigmaId id, CFD cfd, bool add);

  /// The memo line for `relation`'s group of `list` (`hash` and `size`
  /// describe that group), refreshed as most recently used; nullptr on a
  /// miss. Callers hold mutation_mu_.
  const MemoLine* FindMemoLine(RelationId relation, uint64_t hash,
                               size_t size, const EditedList& list);
  /// Adds `line`, evicting the least recently used line at capacity.
  /// Callers hold mutation_mu_.
  void InsertMemoLine(MemoLine line);

  /// The versions of every registered set: the lines a snapshot load
  /// may restore.
  std::vector<SigmaVersion> LiveVersions() const;

  Result<EngineResult> Serve(const SPCView& view, SigmaId sigma_id);
  Result<EngineResult> ServeUnion(const SPCUView& view, SigmaId sigma_id);
  Result<EngineResult> ServeRequest(const Request& request);
  /// ServeRequest with exceptions surfaced as Status::Internal — the
  /// batch contract ("errors come back as the slot's Status") for both
  /// the inline and the worker-chunk path.
  Result<EngineResult> ServeRequestNoThrow(const Request& request);
  void WorkerLoop();
  void StartWorkers();

  Catalog catalog_;
  EngineOptions options_;

  /// Guards sigmas_ (the vector and every entry). Serving takes it
  /// shared just long enough to snapshot; mutations take it exclusively
  /// just long enough to swap a re-minimized entry in (the minimization
  /// itself runs outside, see MutateSigma).
  mutable std::shared_mutex sigma_mu_;
  std::vector<SigmaEntry> sigmas_;
  /// Serializes AddCfd/RetractCfd against each other, so a mutation can
  /// read raw, minimize unlocked, and swap without losing a concurrent
  /// mutator's update — and so the entry's state is always the
  /// minimized form of its raw list, which sharing the other groups
  /// needs. Also guards the memo.
  std::mutex mutation_mu_;
  /// The MinCover memo, shared by every registered set (MinCover of a
  /// group does not depend on the set it is in); at most
  /// kSigmaMemoCapacity lines.
  std::vector<MemoLine> memo_;
  uint64_t memo_clock_ = 0;

  CoverCache cache_;
  EngineStats stats_;

  // Work queue for PropagateBatch.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace cfdprop

#endif  // CFDPROP_ENGINE_ENGINE_H_
