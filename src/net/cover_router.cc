#include "src/net/cover_router.h"

#include <algorithm>
#include <cstdio>

namespace cfdprop {
namespace net {

namespace {

/// FNV-1a, 64-bit, with a murmur-style avalanche finalizer. Raw FNV-1a
/// diffuses the last byte through a single multiply, so names sharing a
/// prefix ("tenant0", "tenant1", ...) land on adjacent ring points and
/// can starve whole shards; the finalizer spreads them uniformly.
uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

CoverRouter::CoverRouter(CoverRouterOptions options) {
  migrations_total_ = metrics_.GetCounter(
      "cfdprop_router_migrations_total", "Completed tenant migrations");
  batches_routed_ = metrics_.GetCounter(
      "cfdprop_router_batches_routed_total",
      "Batches forwarded to a shard by the router");
  submits_bounced_ = metrics_.GetCounter(
      "cfdprop_router_submits_bounced_total",
      "Submit calls refused with kUnavailable during a migration");
  shards_.reserve(options.shards.size());
  for (CoverClientOptions& shard : options.shards) {
    shards_.push_back(std::make_unique<Shard>(std::move(shard)));
  }
  const size_t vnodes = std::max<size_t>(1, options.virtual_nodes);
  ring_.reserve(shards_.size() * vnodes);
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    for (size_t replica = 0; replica < vnodes; ++replica) {
      // The point depends on the shard's *position*, not its address:
      // every router over the same shard list routes identically.
      const std::string key =
          std::to_string(shard) + "#" + std::to_string(replica);
      ring_.emplace_back(Fnv1a(key), shard);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

size_t CoverRouter::RingShardFor(const std::string& tenant) const {
  const uint64_t point = Fnv1a(tenant);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const std::pair<uint64_t, size_t>& entry, uint64_t value) {
        return entry.first < value;
      });
  if (it == ring_.end()) it = ring_.begin();  // clockwise wrap
  return it->second;
}

size_t CoverRouter::ShardFor(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(route_mu_);
  auto it = overrides_.find(tenant);
  if (it != overrides_.end()) return it->second;
  return RingShardFor(tenant);
}

Result<OpenCatalogReplyInfo> CoverRouter::OpenCatalog(
    const std::string& tenant, const std::string& spec_text) {
  const size_t shard = ShardFor(tenant);
  auto info = WithShard(shard, [&](RemoteBackend& backend) {
    return backend.OpenCatalog(tenant, spec_text);
  });
  if (info.ok()) {
    std::lock_guard<std::mutex> lock(route_mu_);
    spec_texts_[tenant] = spec_text;
  }
  return info;
}

Result<std::vector<BatchResult>> CoverRouter::SubmitBatches(
    const std::string& tenant,
    const std::vector<std::vector<std::string>>& batches, ValuePool& pool) {
  size_t shard;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    if (migrating_.count(tenant) != 0) {
      // Fail fast, typed: the tenant is mid-flight between shards and
      // neither copy is authoritative. The caller retries after the
      // route flip — that retry is the "zero failed submits" contract.
      submits_bounced_->Increment();
      return Status::Unavailable("tenant '" + tenant +
                                 "' is migrating; retry");
    }
    auto it = overrides_.find(tenant);
    shard = it != overrides_.end() ? it->second : RingShardFor(tenant);
  }
  batches_routed_->Add(batches.size());
  // With a process tracer installed the router is the trace edge: the
  // "route" span encloses the whole routed round trip, the shard
  // backend's rpc span parents to it, and slow-request capture applies
  // here — the routed request's true end-to-end latency.
  obs::HopSpan route;
  auto result = WithShard(shard, [&](RemoteBackend& backend) {
    return backend.SubmitBatches(tenant, batches, pool, route.child());
  });
  route.Finish("route", tenant, static_cast<int32_t>(shard));
  return result;
}

Result<std::string> CoverRouter::Metrics() {
  // Merge the shard scrapes into ONE family set: a family appearing on
  // several shards renders a single # HELP/# TYPE header (first shard's
  // text wins — they are the same build) and every shard's series under
  // it, each with `shard="N"` injected as its first label. Unlike the
  // old "# --- shard N ---" concatenation this parses as a single
  // scrape (obs::ParseMetricsText) and never repeats a family name.
  struct Family {
    std::string help;   // the full "# HELP ..." line
    std::string type;   // the full "# TYPE ..." line
    std::vector<std::string> series;  // shard-labeled, shards in order
  };
  std::vector<std::string> family_order;
  std::map<std::string, Family> families;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    auto text = WithShard(shard, [](RemoteBackend& backend) {
      return backend.Metrics();
    });
    if (!text.ok()) return text.status();
    const std::string shard_label = "shard=\"" + std::to_string(shard) + "\"";
    std::string current;  // family the series lines below belong to
    size_t pos = 0;
    while (pos < text->size()) {
      size_t eol = text->find('\n', pos);
      if (eol == std::string::npos) eol = text->size();
      std::string_view line(text->data() + pos, eol - pos);
      pos = eol + 1;
      if (line.empty()) continue;
      if (line[0] == '#') {
        // "# HELP <name> ..." / "# TYPE <name> ...": open the family.
        std::string_view rest = line.substr(1);
        while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
        const bool is_help = rest.rfind("HELP ", 0) == 0;
        const bool is_type = rest.rfind("TYPE ", 0) == 0;
        if (!is_help && !is_type) continue;  // free-form comment: drop
        rest.remove_prefix(5);
        const size_t name_end = rest.find(' ');
        const std::string name(rest.substr(0, name_end));
        current = name;
        Family& f = families[name];
        if (f.help.empty() && f.type.empty()) family_order.push_back(name);
        if (is_help && f.help.empty()) f.help = std::string(line);
        if (is_type && f.type.empty()) f.type = std::string(line);
        continue;
      }
      // A series line: `name value` or `name{labels} value`. Inject the
      // shard label first so every shard's series stay distinct.
      const size_t brace = line.find('{');
      const size_t space = line.find(' ');
      std::string labeled;
      if (brace != std::string_view::npos && brace < space) {
        labeled = std::string(line.substr(0, brace + 1)) + shard_label +
                  (line[brace + 1] == '}' ? "" : ",") +
                  std::string(line.substr(brace + 1));
      } else {
        labeled = std::string(line.substr(0, space)) + "{" + shard_label +
                  "}" + std::string(line.substr(space));
      }
      families[current].series.push_back(std::move(labeled));
    }
  }
  std::string merged;
  for (const std::string& name : family_order) {
    const Family& f = families[name];
    if (!f.help.empty()) merged += f.help + "\n";
    if (!f.type.empty()) merged += f.type + "\n";
    for (const std::string& s : f.series) merged += s + "\n";
  }
  // The router tier's own counters close the scrape, unlabeled — they
  // belong to this process, not to any shard.
  merged += metrics_.RenderText();
  return merged;
}

Result<std::vector<obs::SpanRecord>> CoverRouter::TraceDumpFrom(size_t shard) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " out of range");
  }
  auto spans = WithShard(shard, [](RemoteBackend& backend) {
    return backend.TraceDump();
  });
  if (!spans.ok()) return spans.status();
  for (obs::SpanRecord& span : *spans) {
    if (span.shard < 0) span.shard = static_cast<int32_t>(shard);
  }
  return spans;
}

Status CoverRouter::DropCatalog(const std::string& tenant) {
  size_t shard;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    if (migrating_.count(tenant) != 0) {
      return Status::Unavailable("tenant '" + tenant +
                                 "' is migrating; retry");
    }
    auto it = overrides_.find(tenant);
    shard = it != overrides_.end() ? it->second : RingShardFor(tenant);
  }
  Status dropped = WithShard(shard, [&](RemoteBackend& backend) {
    return backend.DropCatalog(tenant);
  });
  if (dropped.ok()) {
    std::lock_guard<std::mutex> lock(route_mu_);
    overrides_.erase(tenant);
    spec_texts_.erase(tenant);
  }
  return dropped;
}

Status CoverRouter::BeginMigration(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(route_mu_);
  if (!migrating_.insert(tenant).second) {
    return Status::Unavailable("tenant '" + tenant +
                               "' is already migrating");
  }
  return Status::OK();
}

Status CoverRouter::CompleteMigration(const std::string& tenant,
                                      size_t shard) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " out of range");
  }
  std::lock_guard<std::mutex> lock(route_mu_);
  // The route flip: one map store under the lock — a submit observes
  // either the old shard or the new one, never a torn in-between.
  if (RingShardFor(tenant) == shard) {
    overrides_.erase(tenant);  // back on its natural placement
  } else {
    overrides_[tenant] = shard;
  }
  migrating_.erase(tenant);
  return Status::OK();
}

void CoverRouter::AbortMigration(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(route_mu_);
  migrating_.erase(tenant);
}

Result<std::string> CoverRouter::FetchSnapshotFrom(size_t shard,
                                                   const std::string& tenant) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " out of range");
  }
  return WithShard(shard, [&](RemoteBackend& backend) {
    return backend.FetchSnapshot(tenant);
  });
}

Result<OpenCatalogReplyInfo> CoverRouter::OpenFromSnapshotOn(
    size_t shard, const std::string& tenant, const std::string& spec_text,
    std::string_view snapshot) {
  return WithShard(shard, [&](RemoteBackend& backend) {
    return backend.OpenCatalog(tenant, spec_text, snapshot);
  });
}

Status CoverRouter::DropCatalogOn(size_t shard, const std::string& tenant) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " out of range");
  }
  return WithShard(shard, [&](RemoteBackend& backend) {
    return backend.DropCatalog(tenant);
  });
}

Result<MigrationReport> CoverRouter::MigrateTenant(const std::string& tenant,
                                                   size_t target_shard) {
  if (target_shard >= shards_.size()) {
    return Status::InvalidArgument("target shard " +
                                   std::to_string(target_shard) +
                                   " out of range");
  }
  // A migration is its own trace (it is not any request's work): the
  // "migrate" span covers drain + ship + warm-start + flip.
  obs::Tracer* tracer = obs::ProcessTracer();
  obs::TraceContext mtrace;
  uint64_t mspan = 0;
  uint64_t mstart = 0;
  if (tracer != nullptr) {
    mtrace = tracer->StartTrace();
    if (mtrace.sampled) {
      mspan = tracer->NewSpanId();
      mstart = tracer->NowUs();
    }
  }
  size_t source_shard;
  std::string spec_text;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    auto spec_it = spec_texts_.find(tenant);
    if (spec_it == spec_texts_.end()) {
      return Status::Unsupported(
          "tenant '" + tenant +
          "' has no spec text recorded with this router; open it through "
          "the router (or use the decomposed migration steps)");
    }
    spec_text = spec_it->second;
    auto route_it = overrides_.find(tenant);
    source_shard =
        route_it != overrides_.end() ? route_it->second : RingShardFor(tenant);
    if (source_shard == target_shard) {
      return Status::InvalidArgument("tenant '" + tenant +
                                     "' already lives on shard " +
                                     std::to_string(target_shard));
    }
    if (!migrating_.insert(tenant).second) {
      return Status::Unavailable("tenant '" + tenant +
                                 "' is already migrating");
    }
  }
  // From here on the tenant's submits bounce with kUnavailable; any
  // failure must clear the mark so the source keeps serving.
  auto abort = [&](const Status& failure) {
    AbortMigration(tenant);
    return failure;
  };
  // 1. Drain + serialize on the source (the server's FETCH_SNAPSHOT
  //    waits out batches already admitted; new ones are bounced here).
  auto snapshot = FetchSnapshotFrom(source_shard, tenant);
  if (!snapshot.ok()) return abort(snapshot.status());
  // 2. Warm-start on the target. A re-landed retry is fine: the target
  //    reports the already-open tenant idempotently.
  auto opened = OpenFromSnapshotOn(target_shard, tenant, spec_text,
                                   *snapshot);
  if (!opened.ok()) return abort(opened.status());
  // 3. Flip the route. After this point the migration is complete from
  //    the caller's view — submits land on the target.
  CFDPROP_RETURN_NOT_OK(CompleteMigration(tenant, target_shard));
  // 4. Retire the source copy. Best-effort: the route no longer points
  //    there, so a failed drop leaks a cold replica, not correctness.
  (void)DropCatalogOn(source_shard, tenant);
  migrations_total_->Increment();
  if (tracer != nullptr && mtrace.sampled) {
    char annot[32];
    std::snprintf(annot, sizeof(annot), "from=%zu to=%zu", source_shard,
                  target_shard);
    tracer->Record(mtrace, mspan, mtrace.parent_span_id, "migrate", mstart,
                   tracer->NowUs() - mstart, tenant,
                   static_cast<int32_t>(target_shard), annot);
  }
  MigrationReport report;
  report.from = source_shard;
  report.to = target_shard;
  report.restored = opened->restored;
  report.rejected = opened->rejected;
  report.snapshot_bytes = snapshot->size();
  return report;
}

Status CoverRouter::ShutdownAll() {
  Status first = Status::OK();
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    Status s = WithShard(shard, [](RemoteBackend& backend) {
      return backend.Shutdown();
    });
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

}  // namespace net
}  // namespace cfdprop
