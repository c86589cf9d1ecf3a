#include "src/gen/workload.h"

#include <algorithm>
#include <iterator>
#include <string_view>
#include <utility>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/gen/generators.h"

namespace cfdprop {
namespace gen {

namespace {

constexpr const char* kKindNames[] = {
    "hit-heavy",    "churn-heavy",      "union-heavy", "tenant-churn",
    "burst-reject", "snapshot-restart", "mixed",
};

/// Per-client RNG stream: SplitMix64 decorrelates neighboring seeds so
/// seed 42/client 0 and seed 43/client 0 share nothing.
uint64_t ClientSeed(uint64_t seed, size_t client) {
  return SplitMix64(seed ^ (0x9e3779b97f4a7c15ull * (client + 1)));
}

/// A batch of `n` view names over `unique` distinct views of `prefix`
/// ("V" for SPC views, "U" for unions). Small `unique` against a larger
/// view pool is what makes the stream hit-heavy once warm.
std::vector<std::string> MakeBatch(Rng& rng, const char* prefix,
                                   size_t unique, size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    names.push_back(prefix + std::to_string(rng.Below(unique)));
  }
  return names;
}

WorkloadOp BatchOp(size_t tenant, std::vector<std::string> names) {
  WorkloadOp op;
  op.type = WorkloadOp::Type::kBatch;
  op.tenant = tenant;
  op.batches.push_back(std::move(names));
  return op;
}

WorkloadOp SimpleOp(WorkloadOp::Type type, size_t tenant) {
  WorkloadOp op;
  op.type = type;
  op.tenant = tenant;
  return op;
}

const char* OpName(WorkloadOp::Type type) {
  switch (type) {
    case WorkloadOp::Type::kBatch:
      return "batch";
    case WorkloadOp::Type::kBurst:
      return "burst";
    case WorkloadOp::Type::kChurnAdd:
      return "churn-add";
    case WorkloadOp::Type::kChurnDrop:
      return "churn-drop";
    case WorkloadOp::Type::kSpill:
      return "spill";
    case WorkloadOp::Type::kReopen:
      return "reopen";
  }
  return "?";
}

}  // namespace

const char* WorkloadKindName(WorkloadKind kind) {
  return kKindNames[static_cast<size_t>(kind)];
}

std::vector<WorkloadKind> AllWorkloadKinds() {
  std::vector<WorkloadKind> kinds;
  for (size_t i = 0; i < std::size(kKindNames); ++i) {
    kinds.push_back(static_cast<WorkloadKind>(i));
  }
  return kinds;
}

WorkloadPlan BuildWorkloadPlan(const WorkloadOptions& options) {
  WorkloadPlan plan;
  plan.options = options;
  WorkloadOptions& o = plan.options;
  o.tenants = std::max<size_t>(1, o.tenants);
  o.clients = std::max<size_t>(1, o.clients);
  o.rounds = std::max<size_t>(1, o.rounds);
  o.batch_size = std::max<size_t>(1, o.batch_size);
  o.burst = std::max<size_t>(2, o.burst);
  o.num_views = std::max<size_t>(4, o.num_views);
  o.num_cfds = std::max<size_t>(8, o.num_cfds);

  const WorkloadKind kind = o.kind;
  // Pinned scenarios: exactly one driver per tenant, so the in-service
  // count a burst observes — and therefore its admit/reject pattern —
  // is a pure function of the plan.
  const bool pinned = kind == WorkloadKind::kBurstReject ||
                      kind == WorkloadKind::kSnapshotRestart;
  if (pinned) o.clients = std::min(o.clients, o.tenants);
  plan.with_unions =
      kind == WorkloadKind::kUnionHeavy || kind == WorkloadKind::kMixed;
  plan.needs_snapshots = kind == WorkloadKind::kSnapshotRestart ||
                         kind == WorkloadKind::kTenantChurn;
  if (kind == WorkloadKind::kBurstReject || kind == WorkloadKind::kMixed) {
    plan.max_inflight = o.max_inflight;
    plan.max_queue = o.max_queue;
  }

  // ~90% of requests land on num_views/10 hot views.
  const size_t unique = std::max<size_t>(1, o.num_views / 10);

  plan.scripts.resize(o.clients);
  for (size_t c = 0; c < o.clients; ++c) {
    Rng rng(ClientSeed(o.seed, c));
    std::vector<WorkloadOp>& script = plan.scripts[c];
    switch (kind) {
      case WorkloadKind::kHitHeavy:
      case WorkloadKind::kUnionHeavy: {
        const char* prefix = kind == WorkloadKind::kUnionHeavy ? "U" : "V";
        for (size_t r = 0; r < o.rounds; ++r) {
          script.push_back(BatchOp((c + r) % o.tenants,
                                   MakeBatch(rng, prefix, unique,
                                             o.batch_size)));
        }
        break;
      }
      case WorkloadKind::kChurnHeavy: {
        for (size_t r = 0; r < o.rounds; ++r) {
          const size_t t = (c + r) % o.tenants;
          // Client 0 is the churner: a balanced AddCfd/RetractCfd pair
          // around its batch, so every round invalidates that tenant's
          // Σ0-tagged lines twice and Σ ends each round unchanged.
          if (c == 0) script.push_back(SimpleOp(WorkloadOp::Type::kChurnAdd, t));
          script.push_back(BatchOp(t, MakeBatch(rng, "V", unique,
                                                o.batch_size)));
          if (c == 0) {
            script.push_back(SimpleOp(WorkloadOp::Type::kChurnDrop, t));
          }
        }
        break;
      }
      case WorkloadKind::kTenantChurn: {
        for (size_t r = 0; r < o.rounds; ++r) {
          script.push_back(BatchOp((c + r) % o.tenants,
                                   MakeBatch(rng, "V", unique,
                                             o.batch_size)));
          // Client 0 cycles one tenant per round through
          // spill -> drop -> warm reopen while the others keep serving;
          // a submit that lands in the drop window is a *typed* NotFound
          // the runner counts, never a wedge or a crash.
          if (c == 0) {
            const size_t t = r % o.tenants;
            script.push_back(SimpleOp(WorkloadOp::Type::kSpill, t));
            script.push_back(SimpleOp(WorkloadOp::Type::kReopen, t));
          }
        }
        break;
      }
      case WorkloadKind::kBurstReject: {
        for (size_t r = 0; r < o.rounds; ++r) {
          WorkloadOp op;
          op.type = WorkloadOp::Type::kBurst;
          op.tenant = c;  // pinned
          for (size_t b = 0; b < o.burst; ++b) {
            op.batches.push_back(MakeBatch(rng, "V", unique, o.batch_size));
          }
          script.push_back(std::move(op));
        }
        break;
      }
      case WorkloadKind::kSnapshotRestart: {
        // Client c owns tenants t ≡ c (mod clients). Cold phase, then
        // spill + drop + warm reopen of every owned tenant, then the
        // warm phase — whose hits come out of the restored snapshot.
        std::vector<size_t> own;
        for (size_t t = c; t < o.tenants; t += o.clients) own.push_back(t);
        const size_t cold = std::max<size_t>(1, o.rounds / 2);
        for (size_t r = 0; r < cold; ++r) {
          script.push_back(BatchOp(own[r % own.size()],
                                   MakeBatch(rng, "V", unique,
                                             o.batch_size)));
        }
        for (size_t t : own) {
          script.push_back(SimpleOp(WorkloadOp::Type::kSpill, t));
          script.push_back(SimpleOp(WorkloadOp::Type::kReopen, t));
        }
        for (size_t r = cold; r < o.rounds; ++r) {
          script.push_back(BatchOp(own[r % own.size()],
                                   MakeBatch(rng, "V", unique,
                                             o.batch_size)));
        }
        break;
      }
      case WorkloadKind::kMixed: {
        for (size_t r = 0; r < o.rounds; ++r) {
          const size_t t = (c + r) % o.tenants;
          if (c == 0 && r % 3 == 0) {
            script.push_back(SimpleOp(WorkloadOp::Type::kChurnAdd, t));
          }
          script.push_back(BatchOp(t, MakeBatch(rng, "V", unique,
                                                o.batch_size)));
          if (r % 2 == 1) {
            script.push_back(BatchOp(t, MakeBatch(rng, "U", unique,
                                                  o.batch_size)));
          }
          if (c == 0 && r % 3 == 0) {
            script.push_back(SimpleOp(WorkloadOp::Type::kChurnDrop, t));
          }
          if (r % 4 == 2) {
            WorkloadOp op;
            op.type = WorkloadOp::Type::kBurst;
            op.tenant = c % o.tenants;
            for (size_t b = 0; b < o.burst; ++b) {
              op.batches.push_back(MakeBatch(rng, "V", unique,
                                             o.batch_size));
            }
            script.push_back(std::move(op));
          }
        }
        break;
      }
    }
  }
  return plan;
}

Spec BuildTenantSpec(const WorkloadPlan& plan, size_t tenant) {
  const WorkloadOptions& o = plan.options;
  const uint64_t seed = SplitMix64(o.seed) + 7919 * tenant;

  Spec spec;
  SchemaGenOptions schema_options;  // 10 relations, 10-20 attributes
  spec.catalog = GenerateSchema(schema_options, seed);

  CFDGenOptions cfd_options;
  cfd_options.count = o.num_cfds;
  cfd_options.min_lhs = 2;
  cfd_options.max_lhs = 5;
  spec.source_cfds = GenerateCFDs(spec.catalog, cfd_options, seed + 1);

  ViewGenOptions view_options;
  view_options.num_projection = 10;
  view_options.num_selections = 4;
  view_options.num_atoms = 2;
  std::vector<SPCView> views;
  views.reserve(o.num_views);
  for (size_t i = 0; i < o.num_views; ++i) {
    // Generated atoms always have >= 20 Ec columns (two relations of
    // arity >= 10), so |Y| = 10 is never clamped and generation cannot
    // fail — but stay honest about the Result.
    auto view = GenerateSPCView(spec.catalog, view_options, seed + 10 + i);
    if (!view.ok()) {
      --i;  // deterministic retry with the next seed
      continue;
    }
    views.push_back(std::move(view).value());
  }
  for (size_t i = 0; i < views.size(); ++i) {
    std::string name = "V" + std::to_string(i);
    spec.view_names.push_back(name);
    spec.views.emplace(std::move(name), SPCUView(views[i]));
  }
  if (plan.with_unions) {
    // U_i = V_i ∪ V_{i+1}: every disjunct is a live SPC cache line, so
    // union serving is the k-partial-hit assembly path.
    for (size_t i = 0; i < views.size(); ++i) {
      SPCUView u;
      u.disjuncts.push_back(views[i]);
      u.disjuncts.push_back(views[(i + 1) % views.size()]);
      std::string name = "U" + std::to_string(i);
      spec.view_names.push_back(name);
      spec.views.emplace(std::move(name), std::move(u));
    }
  }
  return spec;
}

std::string SerializeScripts(const WorkloadPlan& plan) {
  std::string out;
  out += "workload=";
  out += WorkloadKindName(plan.options.kind);
  out += " seed=" + std::to_string(plan.options.seed);
  out += " tenants=" + std::to_string(plan.options.tenants);
  out += " clients=" + std::to_string(plan.options.clients) + "\n";
  for (size_t c = 0; c < plan.scripts.size(); ++c) {
    out += "client " + std::to_string(c) + "\n";
    for (const WorkloadOp& op : plan.scripts[c]) {
      out += OpName(op.type);
      out += " t=" + std::to_string(op.tenant);
      for (const std::vector<std::string>& batch : op.batches) {
        out += " [";
        for (size_t i = 0; i < batch.size(); ++i) {
          if (i) out += ",";
          out += batch[i];
        }
        out += "]";
      }
      out += "\n";
    }
  }
  return out;
}

uint64_t FingerprintScripts(const WorkloadPlan& plan) {
  const std::string bytes = SerializeScripts(plan);
  Fnv1aHasher hasher;
  hasher.Mix(std::string_view(bytes));
  return hasher.digest();
}

}  // namespace gen
}  // namespace cfdprop
