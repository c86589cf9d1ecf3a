// cfdprop_cli — the command-line front end of the library.
//
// Reads a specification file (see src/parser/parser.h for the syntax)
// and runs the paper's analyses:
//
//   cfdprop_cli SPEC                 run every analysis below
//   cfdprop_cli SPEC --check        decide Sigma |=V phi for each view
//                                    CFD declared in the spec
//   cfdprop_cli SPEC --cover        print a minimal propagation cover
//                                    per declared view (PropCFD_SPC)
//   cfdprop_cli SPEC --emptiness    report views that are always empty
//   cfdprop_cli SPEC --validate     evaluate views on the insert data
//                                    and report CFD violations
//
//   cfdprop_cli serve --tenant NAME=SPEC [--tenant NAME=SPEC ...]
//               [--rounds K] [--threads N] [--dispatchers N]
//               [--budget N] [--snapshot-dir DIR] [--interval-ms N]
//               [--dirty N] [--quiet] [--no-churn] [--metrics-dump PATH]
//                                    the local serving mode: each --tenant
//                                    loads one spec as a named catalog
//                                    behind one CatalogService (one
//                                    tenant is the single-spec case) and
//                                    the tenants' serving rounds (a spec's
//                                    `serve V1, V2, ...` list, else every
//                                    view) are submitted as overlapping
//                                    async batches for --rounds rounds;
//                                    each tenant's add-cfd/drop-cfd
//                                    script then replays while every
//                                    other tenant keeps serving
//                                    (--no-churn skips it). --budget is
//                                    the global cover-cache entry budget
//                                    split across tenants; --snapshot-dir
//                                    warm-starts each tenant from
//                                    DIR/NAME.ccsnap (a mismatched or
//                                    corrupt file restores nothing and the
//                                    tenant serves cold; a file rejected
//                                    whole prints "tenant NAME: snapshot
//                                    rejected: REASON") and spills to it
//                                    at exit and, with --interval-ms/
//                                    --dirty, in the background. Stats
//                                    print as metrics exposition series
//                                    (src/obs) after the base rounds,
//                                    after each churn step and at exit;
//                                    --metrics-dump also writes the exit
//                                    exposition to a file.
//
//   cfdprop_cli listen [--host H] [--port N] [--tenant NAME=SPEC ...]
//               [--threads N] [--dispatchers N] [--budget N]
//               [--max-inflight N] [--max-queue N] [--io-timeout MS]
//               [--snapshot-dir DIR]
//               [--interval-ms N] [--dirty N] [--metrics-dump PATH]
//               [--trace-dump PATH] [--trace-shift K]
//               [--slow-threshold-us N] [--trace-seed N]
//                                    network server mode: a CoverServer
//                                    (src/net/) in front of the same
//                                    CatalogService as `serve`. Tenants
//                                    given on the command line are
//                                    preloaded; clients can open more by
//                                    shipping spec text. Runs until a
//                                    client sends shutdown. --max-inflight/
//                                    --max-queue set the per-tenant
//                                    admission caps (0 = unlimited);
//                                    --io-timeout arms per-connection
//                                    socket deadlines in milliseconds
//                                    (0 = blocking forever) so a hung
//                                    peer costs one deadline window, not
//                                    a wedged connection thread;
//                                    the metrics exposition (src/obs)
//                                    prints on shutdown, and
//                                    --metrics-dump also writes it to a
//                                    file. --trace-dump
//                                    installs the process tracer
//                                    (src/obs/trace.h) and writes the
//                                    stitched span trees to a file on
//                                    shutdown — sampling everything
//                                    unless --trace-shift K narrows it
//                                    to 1 in 2^K; --slow-threshold-us
//                                    arms slow-request capture (the
//                                    slow trees print on shutdown,
//                                    sampled or not); --trace-seed
//                                    makes the span ids — and thus the
//                                    dump bytes — deterministic.
//
//   cfdprop_cli client --backend HOST:PORT [--backend HOST:PORT ...]
//               [--tenant NAME=SPEC ...] [--rounds K] [--burst N]
//               [--connect-timeout MS] [--io-timeout MS]
//               [--migrate TENANT[=SHARD] ...] [--quiet]
//               [--metrics] [--trace] [--shutdown]
//                                    network client mode: a CoverRouter
//                                    (src/net/cover_router.h) consistent-
//                                    hashes tenants across the given
//                                    backends (each a `listen` server;
//                                    one backend is a one-shard router).
//                                    Opens each --tenant (spec text
//                                    travels over the wire), serves
//                                    --rounds rounds of each spec's
//                                    serving round and prints the
//                                    first-round covers exactly like
//                                    `serve` does, so scripts diff a
//                                    routed cluster, one fat server and
//                                    in-process serving byte for byte.
//                                    --burst N pipelines N copies of the
//                                    round in one frame to exercise
//                                    admission control. --migrate drains,
//                                    snapshots and moves a tenant to
//                                    SHARD (default: the next shard
//                                    clockwise), printing the warm
//                                    start's restored=/rejected= line,
//                                    then re-serves and re-prints that
//                                    tenant's covers. --connect-timeout
//                                    bounds each backend's retrying
//                                    connect (default 5000) and
//                                    --io-timeout each socket send/recv
//                                    (0 = no deadline), both in ms.
//                                    --metrics prints every
//                                    backend's exposition merged into one
//                                    scrape (shard="N" labels) — the one
//                                    stats surface; --trace samples every
//                                    request at this edge, fetches every
//                                    backend's span rings afterwards and
//                                    prints the stitched cross-process
//                                    span trees; --shutdown stops every
//                                    backend.
//
// Exit status: 0 on success, 1 on usage/parse errors, 2 when --validate
// found violations or --check found a non-propagated declared CFD.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <vector>

#include <sys/stat.h>

#include <cerrno>
#include <future>
#include <optional>
#include <thread>

#include "src/cover/propcfd_spc.h"
#include "src/data/eval.h"
#include "src/data/validate.h"
#include "src/engine/engine.h"
#include "src/net/cover_router.h"
#include "src/net/cover_server.h"
#include "src/obs/trace.h"
#include "src/parser/parser.h"
#include "src/propagation/emptiness.h"
#include "src/propagation/propagation.h"
#include "src/service/catalog_service.h"

using namespace cfdprop;

namespace {

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

/// The line after a tenant's banner when its warm start rejected the
/// snapshot file wholesale; nothing when it loaded or there was none.
void PrintSnapshotRejection(const Tenant& tenant) {
  if (tenant.snapshot_rejection().ok()) return;
  std::printf("tenant %s: snapshot rejected: %s\n", tenant.name().c_str(),
              tenant.snapshot_rejection().message().c_str());
}

/// Reads a whole file; the network modes ship spec *text* (the server
/// parses it), the local modes parse it via LoadSpec. A failed read (a
/// directory opens but reads EISDIR) is an error naming the path; an
/// empty regular file is the empty text.
Result<std::string> ReadFileText(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  std::string text;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    text.append(chunk, n);
  }
  const bool failed = std::ferror(f) != 0;
  const int read_errno = errno;
  std::fclose(f);
  if (failed) {
    return Status::InvalidArgument("cannot read " + path + ": " +
                                   std::strerror(read_errno));
  }
  return text;
}

/// Reads and parses a spec file; exits with a message via the returned
/// Status on open/parse failure.
Result<Spec> LoadSpec(const char* path) {
  CFDPROP_ASSIGN_OR_RETURN(std::string text, ReadFileText(path));
  return ParseSpec(text);
}

/// Writes the whole text to `path` (--metrics-dump). Truncates.
Status WriteFileText(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::NotFound("cannot open " + path + " for writing");
  out << text;
  out.flush();
  if (!out) return Status::Internal("short write to " + path);
  return Status::OK();
}

/// Creates-if-missing and validates a snapshot directory — fail fast,
/// or background spills would fail silently and the serve-mode settle
/// wait would stall out with a misleading message.
bool EnsureSnapshotDir(const std::string& dir) {
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "error: cannot create snapshot dir %s: %s\n",
                 dir.c_str(), std::strerror(errno));
    return false;
  }
  struct stat st;
  if (stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    std::fprintf(stderr, "error: snapshot dir %s is not a directory\n",
                 dir.c_str());
    return false;
  }
  return true;
}

/// Output-column name resolver for a view.
std::function<std::string(AttrIndex)> ViewAttrNames(const SPCUView& view) {
  const SPCView& first = view.disjuncts.front();
  return [&first](AttrIndex i) {
    return i < first.output.size() ? first.output[i].name
                                   : "#" + std::to_string(i);
  };
}

int RunCheck(Spec& spec, const PropagationOptions& options) {
  int violations = 0;
  std::printf("== propagation checks ==\n");
  if (spec.view_cfds.empty()) {
    std::printf("  (no view CFDs declared)\n");
    return 0;
  }
  for (const auto& [view_name, cfd] : spec.view_cfds) {
    const SPCUView& view = spec.views.at(view_name);
    auto r = IsPropagated(spec.catalog, view, spec.source_cfds, cfd,
                          options);
    if (!r.ok()) return Fail(r.status());
    std::string rendered = FormatCFD(cfd, spec.catalog.pool(), view_name,
                                     ViewAttrNames(view));
    std::printf("  %-60s : %s\n", rendered.c_str(),
                *r ? "PROPAGATED" : "NOT propagated");
    if (!*r) ++violations;
  }
  return violations == 0 ? 0 : 2;
}

int RunCover(Spec& spec) {
  std::printf("== minimal propagation covers ==\n");
  for (const std::string& name : spec.view_names) {
    const SPCUView& view = spec.views.at(name);
    auto result =
        PropagationCoverSPCU(spec.catalog, view, spec.source_cfds);
    if (!result.ok()) return Fail(result.status());
    std::printf("view %s (%zu CFDs%s%s):\n", name.c_str(),
                result->cover.size(),
                result->always_empty ? ", ALWAYS EMPTY" : "",
                result->truncated ? ", TRUNCATED" : "");
    for (const CFD& c : result->cover) {
      std::printf("  %s\n",
                  FormatCFD(c, spec.catalog.pool(), name,
                            ViewAttrNames(view))
                      .c_str());
    }
  }
  return 0;
}

int RunEmptiness(Spec& spec, const EmptinessOptions& options) {
  std::printf("== emptiness analysis ==\n");
  for (const std::string& name : spec.view_names) {
    auto r = IsAlwaysEmpty(spec.catalog, spec.views.at(name),
                           spec.source_cfds, options);
    if (!r.ok()) return Fail(r.status());
    std::printf("  view %-20s : %s\n", name.c_str(),
                *r ? "always empty under Sigma" : "satisfiable");
  }
  return 0;
}

int RunValidate(Spec& spec) {
  std::printf("== data validation ==\n");
  auto db = spec.MakeDatabase();
  if (!db.ok()) return Fail(db.status());

  int total_violations = 0;
  // Source CFDs against the source relations.
  for (const CFD& c : spec.source_cfds) {
    const Relation& rel = db->relation(c.relation);
    auto v = FindViolations(rel.tuples(), c, rel.schema().arity());
    if (!v.ok()) return Fail(v.status());
    if (!v->empty()) {
      total_violations += static_cast<int>(v->size());
      std::printf("  %s: %zu violation(s) on %s\n",
                  c.ToString(spec.catalog).c_str(), v->size(),
                  rel.schema().name().c_str());
    }
  }
  // View CFDs against the materialized views.
  for (const auto& [view_name, cfd] : spec.view_cfds) {
    const SPCUView& view = spec.views.at(view_name);
    auto rows = Evaluate(*db, view);
    if (!rows.ok()) return Fail(rows.status());
    auto v = FindViolations(*rows, cfd, view.OutputArity());
    if (!v.ok()) return Fail(v.status());
    if (!v->empty()) {
      total_violations += static_cast<int>(v->size());
      std::printf("  %s: %zu violation(s) on view %s (%zu rows)\n",
                  FormatCFD(cfd, spec.catalog.pool(), view_name,
                            ViewAttrNames(view))
                      .c_str(),
                  v->size(), view_name.c_str(), rows->size());
    }
  }
  if (total_violations == 0) {
    std::printf("  all declared CFDs hold on the data\n");
    return 0;
  }
  return 2;
}

using TenantArgs = std::vector<std::pair<std::string, std::string>>;

/// Largest value a numeric flag takes.
constexpr size_t kMaxFlagValue = 1u << 24;

/// Digits only, in [0, max]: strtoul alone would wrap "-1" to ULONG_MAX
/// and accept "+80" or " 80".
bool ParseDigits(const char* text, size_t max, size_t* out) {
  if (*text < '0' || *text > '9') return false;
  char* end = nullptr;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (*end != '\0' || value > max) return false;
  *out = static_cast<size_t>(value);
  return true;
}

/// `--flag VALUE` for text values, shared by every mode: exits with a
/// message when the value is missing. Advances *i past the value.
bool ParseStringFlag(int argc, char** argv, int* i, const char* flag,
                     std::string* out) {
  if (std::strcmp(argv[*i], flag) != 0) return false;
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "error: %s needs a value\n", flag);
    std::exit(1);
  }
  *out = argv[++*i];
  return true;
}

/// `--flag N`: digits only in [0, 2^24], exits with a message on misuse.
/// Advances *i past the consumed value.
bool ParseSizeFlag(int argc, char** argv, int* i, const char* flag,
                   size_t* out) {
  std::string text;
  if (!ParseStringFlag(argc, argv, i, flag, &text)) return false;
  if (!ParseDigits(text.c_str(), kMaxFlagValue, out)) {
    std::fprintf(stderr, "error: %s needs a number in [0, %zu], got '%s'\n",
                 flag, kMaxFlagValue, text.c_str());
    std::exit(1);
  }
  return true;
}

/// A bare `--flag` switch.
bool ParseBoolFlag(const char* arg, const char* flag, bool* out) {
  if (std::strcmp(arg, flag) != 0) return false;
  *out = true;
  return true;
}

/// `--tenant NAME=SPEC`, shared by serve, listen and client.
bool ParseTenantFlag(int argc, char** argv, int* i, TenantArgs* out) {
  std::string arg;
  if (!ParseStringFlag(argc, argv, i, "--tenant", &arg)) return false;
  const size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= arg.size()) {
    std::fprintf(stderr, "error: --tenant needs NAME=SPEC, got '%s'\n",
                 arg.c_str());
    std::exit(1);
  }
  out->emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
  return true;
}

/// Prints one served cover the way every serving mode does, so scripts
/// can diff batch, serve and client output byte for byte: a `view LABEL
/// (...)` header, then (unless quiet) one `  cfd` line per CFD.
void PrintCover(const std::string& label, const std::string& view_name,
                const SPCUView& view, const EngineResult& r,
                const ValuePool& pool, bool quiet) {
  std::string union_info;
  if (r.disjunct_count > 1) {
    union_info = ", union " + std::to_string(r.disjunct_hits) + "/" +
                 std::to_string(r.disjunct_count) + " disjunct hits";
  }
  std::printf("view %s (%zu CFDs%s%s%s, fp=%016llx):\n", label.c_str(),
              r.cover->cover.size(),
              r.cover->always_empty ? ", ALWAYS EMPTY" : "",
              r.cover->truncated ? ", TRUNCATED" : "", union_info.c_str(),
              static_cast<unsigned long long>(r.fingerprint));
  if (quiet) return;
  for (const CFD& c : r.cover->cover) {
    std::printf("  %s\n",
                FormatCFD(c, pool, view_name, ViewAttrNames(view)).c_str());
  }
}

/// A tenant round's covers as `view TENANT/VIEW` blocks. Failed requests
/// are skipped: ReportRequestErrors already named them.
void PrintTenantCovers(const std::string& tenant,
                       const std::vector<std::string>& view_names,
                       const Spec& spec, const ValuePool& pool,
                       const std::vector<Result<EngineResult>>& results,
                       bool quiet) {
  for (size_t i = 0; i < view_names.size() && i < results.size(); ++i) {
    if (!results[i].ok()) continue;
    PrintCover(tenant + "/" + view_names[i], view_names[i],
               spec.views.at(view_names[i]), *results[i], pool, quiet);
  }
}

/// Names every failed request of one tenant batch on stderr; false when
/// any failed.
bool ReportRequestErrors(const std::string& tenant,
                         const std::vector<Result<EngineResult>>& results) {
  bool ok = true;
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok()) continue;
    std::fprintf(stderr, "error: tenant %s request %zu: %s\n", tenant.c_str(),
                 i, results[i].status().ToString().c_str());
    ok = false;
  }
  return ok;
}

// ---------------------------------------------------------------------
// serve mode: many specs as tenants behind one CatalogService
// ---------------------------------------------------------------------

/// The service flags `serve` and `listen` share.
struct ServiceFlags {
  ServiceFlags() { options.engine.num_threads = 1; }

  ServiceOptions options;
  TenantArgs tenants;
  size_t interval_ms = 0;
  size_t dirty = 1;
  bool dispatchers_set = false;
  std::string metrics_dump;

  /// Consumes argv[*i] (and its value) when it is a service flag.
  bool Parse(int argc, char** argv, int* i) {
    if (ParseSizeFlag(argc, argv, i, "--dispatchers",
                      &options.dispatcher_threads)) {
      dispatchers_set = true;
      return true;
    }
    return ParseTenantFlag(argc, argv, i, &tenants) ||
           ParseStringFlag(argc, argv, i, "--snapshot-dir",
                           &options.snapshot_dir) ||
           ParseStringFlag(argc, argv, i, "--metrics-dump", &metrics_dump) ||
           ParseSizeFlag(argc, argv, i, "--threads",
                         &options.engine.num_threads) ||
           ParseSizeFlag(argc, argv, i, "--budget",
                         &options.global_cache_budget) ||
           ParseSizeFlag(argc, argv, i, "--interval-ms", &interval_ms) ||
           ParseSizeFlag(argc, argv, i, "--dirty", &dirty);
  }

  /// Checks the snapshot dir and applies the snapshot policy and the
  /// default of one dispatcher per preloaded tenant. False (after a
  /// message) when the snapshot dir is unusable.
  bool Finish() {
    if (!options.snapshot_dir.empty() &&
        !EnsureSnapshotDir(options.snapshot_dir)) {
      return false;
    }
    // 0 would make serve's settle check unsatisfiable (and the service
    // clamps the policy threshold to >= 1 anyway).
    dirty = std::max<size_t>(1, dirty);
    options.policy.interval = std::chrono::milliseconds(interval_ms);
    options.policy.dirty_line_threshold = dirty;
    if (!dispatchers_set && options.dispatcher_threads < tenants.size()) {
      options.dispatcher_threads = tenants.size();
    }
    return true;
  }
};

/// One loaded tenant: the service handle (which keeps the spec and its
/// views) and the request round.
struct TenantCtx {
  std::string name;
  std::string spec_path;
  TenantHandle handle;
  std::vector<Engine::Request> round;
  std::vector<std::string> round_names;
};

int RunServe(int argc, char** argv) {
  auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s serve --tenant NAME=SPEC [--tenant NAME=SPEC...]"
                 " [--rounds K] [--threads N] [--dispatchers N] [--budget N]"
                 " [--snapshot-dir DIR] [--interval-ms N] [--dirty N]"
                 " [--quiet] [--no-churn] [--metrics-dump PATH]\n",
                 argv[0]);
    return 1;
  };

  ServiceFlags flags;
  size_t rounds = 2;
  bool quiet = false, no_churn = false;
  for (int i = 2; i < argc; ++i) {
    if (flags.Parse(argc, argv, &i) ||
        ParseSizeFlag(argc, argv, &i, "--rounds", &rounds) ||
        ParseBoolFlag(argv[i], "--quiet", &quiet) ||
        ParseBoolFlag(argv[i], "--no-churn", &no_churn)) {
      continue;
    }
    std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
    return 1;
  }
  if (flags.tenants.empty()) return usage();
  if (!flags.Finish()) return 1;
  ServiceOptions& options = flags.options;
  if (options.dispatcher_threads < flags.tenants.size()) {
    // One dispatcher per tenant so every tenant's batch of a round can
    // be in flight at once — the async-overlap point of serve mode.
    std::fprintf(stderr,
                 "note: raising --dispatchers from %zu to %zu (one per "
                 "tenant)\n",
                 options.dispatcher_threads, flags.tenants.size());
    options.dispatcher_threads = flags.tenants.size();
  }

  CatalogService service(options);
  std::vector<TenantCtx> tenants;
  tenants.reserve(flags.tenants.size());
  for (auto& [name, path] : flags.tenants) {
    auto spec = LoadSpec(path.c_str());
    if (!spec.ok()) return Fail(spec.status());
    auto handle = service.OpenSpec(name, std::move(spec).value());
    if (!handle.ok()) return Fail(handle.status());
    TenantCtx ctx;
    ctx.name = name;
    ctx.spec_path = path;
    ctx.handle = std::move(handle).value();
    const Spec& opened = ctx.handle->spec();
    for (const std::string& view : opened.ServingRound()) {
      ctx.round.push_back({opened.views.at(view), /*sigma_id=*/0});
      ctx.round_names.push_back(view);
    }
    tenants.push_back(std::move(ctx));
  }

  // Budgets settle only after the last open (every open rebalances), so
  // the tenant banner prints once all are up.
  std::printf("== tenants ==\n");
  for (const TenantCtx& t : tenants) {
    CacheStats cache = t.handle->engine().Stats().cache;
    std::printf("tenant %s: opened %s budget=%zu restored=%llu "
                "rejected=%llu\n",
                t.name.c_str(), t.spec_path.c_str(),
                t.handle->cache_budget(),
                static_cast<unsigned long long>(cache.restored),
                static_cast<unsigned long long>(cache.rejected));
    PrintSnapshotRejection(*t.handle);
  }

  int rc = 0;
  // One round = one async batch per tenant, all in flight together; the
  // futures are drained in submission order, so output (and each
  // tenant's hit pattern) is deterministic while the serving itself
  // overlaps across tenants. `print_idx` selects whose covers print:
  // every tenant, none, or just one (the churned tenant's re-serve).
  constexpr int kPrintAll = -1, kPrintNone = -2;
  auto serve_round = [&](int print_idx) {
    std::vector<std::pair<size_t, std::future<BatchReply>>> inflight;
    inflight.reserve(tenants.size());
    for (size_t i = 0; i < tenants.size(); ++i) {
      auto submitted = service.SubmitBatch(tenants[i].name,
                                           tenants[i].round);
      if (!submitted.ok()) {
        rc = Fail(submitted.status());
        continue;
      }
      inflight.emplace_back(i, std::move(submitted).value());
    }
    for (auto& [idx, future] : inflight) {
      BatchReply reply = future.get();
      const TenantCtx& t = tenants[idx];
      if (!ReportRequestErrors(t.name, reply.results)) rc = 1;
      if (print_idx == kPrintAll || static_cast<size_t>(print_idx) == idx) {
        PrintTenantCovers(t.name, t.round_names, t.handle->spec(),
                          t.handle->engine().catalog().pool(),
                          reply.results, quiet);
      }
    }
  };

  auto start = std::chrono::steady_clock::now();
  for (size_t k = 0; k < rounds; ++k) {
    serve_round(k == 0 ? kPrintAll : kPrintNone);
  }
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  size_t round_requests = 0;
  for (const TenantCtx& t : tenants) round_requests += t.round.size();
  std::printf("== base rounds ==\n  %zu requests in %.2f ms (%.0f "
              "covers/sec, %zu tenants, %zu dispatchers)\n",
              round_requests * rounds, elapsed_ms,
              elapsed_ms > 0
                  ? 1000.0 * static_cast<double>(round_requests * rounds) /
                        elapsed_ms
                  : 0.0,
              tenants.size(), service.options().dispatcher_threads);
  std::fputs(service.RenderMetricsText().c_str(), stdout);

  // When the background policy is on, prove it settles before moving
  // on: every tenant must drop below the dirty threshold, which on a
  // cold run means the policy thread actually spilled it (a warm-started
  // tenant that only hit was never dirty and settles at 0 spills).
  if (!options.snapshot_dir.empty() && flags.interval_ms > 0) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
    bool settled = false;
    std::vector<TenantStatsSnapshot> policy_stats;
    while (!settled && std::chrono::steady_clock::now() < deadline) {
      settled = true;
      policy_stats = service.Stats().tenants;
      for (const TenantStatsSnapshot& t : policy_stats) {
        if (t.dirty_lines >= flags.dirty) settled = false;
      }
      if (!settled) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    if (settled) {
      for (const TenantStatsSnapshot& t : policy_stats) {
        std::printf("policy: tenant %s settled (policy_spills=%llu "
                    "dirty=%llu)\n",
                    t.name.c_str(),
                    static_cast<unsigned long long>(t.policy_spills),
                    static_cast<unsigned long long>(t.dirty_lines));
      }
    } else {
      std::fprintf(stderr,
                   "error: snapshot policy did not settle every tenant\n");
      rc = 1;
    }
  }

  // Churn replay: each tenant's add-cfd/drop-cfd script runs in spec
  // order while EVERY tenant's round stays in flight — the mutated
  // sigma's lines recompute, the other tenants keep hitting their own
  // caches (the isolation claim of the registry).
  if (!no_churn) {
    for (size_t ti = 0; ti < tenants.size(); ++ti) {
      TenantCtx& t = tenants[ti];
      for (const SigmaMutation& m : t.handle->spec().sigma_mutations) {
        Engine& engine = t.handle->engine();
        const RelationSchema& rel = engine.catalog().relation(m.cfd.relation);
        std::string rendered =
            FormatCFD(m.cfd, engine.catalog().pool(), rel.name(),
                      [&rel](AttrIndex a) {
                        return a < rel.arity() ? rel.attr(a).name
                                               : "#" + std::to_string(a);
                      });
        Status applied = m.add ? engine.AddCfd(0, m.cfd)
                               : engine.RetractCfd(0, m.cfd);
        if (!applied.ok()) {
          rc = Fail(applied);
          continue;
        }
        std::printf("== churn tenant %s: applied %s-cfd (%s) ==\n",
                    t.name.c_str(), m.add ? "add" : "drop",
                    rendered.c_str());
        // Every tenant's round stays in flight during the churned
        // tenant's re-serve; only the churned covers print.
        serve_round(static_cast<int>(ti));
        std::fputs(service.RenderMetricsText().c_str(), stdout);
      }
    }
  }

  // Explicit final spill: deterministic line counts for scripts/CI (the
  // destructor's flush would do the same work, silently).
  if (!options.snapshot_dir.empty()) {
    for (const TenantCtx& t : tenants) {
      auto spilled = service.SpillTenant(t.name);
      if (!spilled.ok()) {
        rc = Fail(spilled.status());
        continue;
      }
      std::printf("spill tenant %s: lines=%llu\n", t.name.c_str(),
                  static_cast<unsigned long long>(*spilled));
    }
  }

  const std::string metrics = service.RenderMetricsText();
  std::printf("== metrics ==\n%s", metrics.c_str());
  if (!flags.metrics_dump.empty()) {
    Status dumped = WriteFileText(flags.metrics_dump, metrics);
    if (!dumped.ok()) return Fail(dumped);
    std::printf("metrics dumped to %s\n", flags.metrics_dump.c_str());
  }
  return rc;
}

// ---------------------------------------------------------------------
// listen mode: the CatalogService behind a TCP socket
// ---------------------------------------------------------------------

int RunListen(int argc, char** argv) {
  ServiceFlags flags;
  net::CoverServerOptions server_options;
  size_t port = 0, max_inflight = 0, max_queue = 0, io_timeout_ms = 0;
  size_t trace_shift = 0, trace_seed = 0, slow_threshold_us = 0;
  bool trace_shift_set = false, slow_set = false;
  std::string trace_dump;
  for (int i = 2; i < argc; ++i) {
    if (ParseSizeFlag(argc, argv, &i, "--trace-shift", &trace_shift)) {
      trace_shift_set = true;
      continue;
    }
    if (ParseSizeFlag(argc, argv, &i, "--slow-threshold-us",
                      &slow_threshold_us)) {
      slow_set = true;
      continue;
    }
    if (flags.Parse(argc, argv, &i) ||
        ParseStringFlag(argc, argv, &i, "--host", &server_options.host) ||
        ParseStringFlag(argc, argv, &i, "--trace-dump", &trace_dump) ||
        ParseSizeFlag(argc, argv, &i, "--port", &port) ||
        ParseSizeFlag(argc, argv, &i, "--max-inflight", &max_inflight) ||
        ParseSizeFlag(argc, argv, &i, "--max-queue", &max_queue) ||
        ParseSizeFlag(argc, argv, &i, "--io-timeout", &io_timeout_ms) ||
        ParseSizeFlag(argc, argv, &i, "--trace-seed", &trace_seed)) {
      continue;
    }
    std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
    return 1;
  }
  if (port > 65535) {
    std::fprintf(stderr, "error: --port must be <= 65535\n");
    return 1;
  }
  if (!flags.Finish()) return 1;
  server_options.port = static_cast<uint16_t>(port);
  server_options.io_timeout = std::chrono::milliseconds(io_timeout_ms);
  ServiceOptions& options = flags.options;
  options.admission.max_inflight_batches = max_inflight;
  options.admission.max_queued_batches = max_queue;

  // Tracing arms before the service exists so every dispatcher thread
  // sees the tracer from its first frame — and the scope outlives the
  // service (declared first, destroyed last), so dispatcher tails can
  // still record while tearing down. --trace-dump alone samples every
  // request (shift 0): tests/cli/tracing_test.sh greps exact span
  // counts out of the dump. --slow-threshold-us alone keeps sampling
  // off and captures only the slow ring.
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::ScopedProcessTracer> scoped_tracer;
  if (!trace_dump.empty() || trace_shift_set || slow_set) {
    obs::ObsOptions topts;
    topts.trace_sample_shift = trace_shift_set
                                   ? static_cast<int>(trace_shift)
                                   : (!trace_dump.empty() ? 0 : -1);
    topts.slow_threshold_us =
        slow_set ? static_cast<int64_t>(slow_threshold_us) : -1;
    topts.trace_seed = trace_seed;
    tracer = std::make_unique<obs::Tracer>(topts);
    scoped_tracer = std::make_unique<obs::ScopedProcessTracer>(tracer.get());
  }

  CatalogService service(options);
  net::CoverServer server(service, server_options);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);

  std::printf("== tenants ==\n");
  for (const auto& [name, path] : flags.tenants) {
    auto text = ReadFileText(path);
    if (!text.ok()) return Fail(text.status());
    auto opened = server.OpenSpec(name, *text);
    if (!opened.ok()) return Fail(opened.status());
    std::printf("tenant %s: opened %s budget=%llu restored=%llu "
                "rejected=%llu\n",
                name.c_str(), path.c_str(),
                static_cast<unsigned long long>(opened->cache_budget),
                static_cast<unsigned long long>(opened->restored),
                static_cast<unsigned long long>(opened->rejected));
    if (auto tenant = service.ResolveCatalog(name); tenant.ok()) {
      PrintSnapshotRejection(**tenant);
    }
  }
  std::printf("listening on %s:%u (max-inflight=%zu max-queue=%zu)\n",
              server_options.host.c_str(), server.port(), max_inflight,
              max_queue);
  std::fflush(stdout);

  server.WaitForShutdown();

  // The exposition renders before Stop(): the server's net-layer
  // collector (connections/frames/decode_errors, net stage histograms)
  // is removed on Stop, and the stats should include every layer.
  const std::string metrics = service.RenderMetricsText();
  std::printf("== metrics ==\n%s", metrics.c_str());
  if (!flags.metrics_dump.empty()) {
    Status dumped = WriteFileText(flags.metrics_dump, metrics);
    if (!dumped.ok()) {
      server.Stop();
      return Fail(dumped);
    }
    std::printf("metrics dumped to %s\n", flags.metrics_dump.c_str());
  }
  if (tracer != nullptr) {
    // The dump file carries the sampled trees (main ring) only; the
    // slow ring — which duplicates any sampled slow root — gets its own
    // section below, so a slow-but-sampled request isn't double-printed
    // inside one tree.
    std::vector<obs::SpanRecord> sampled, slow;
    for (obs::SpanRecord& s : tracer->Snapshot()) {
      (s.slow ? slow : sampled).push_back(std::move(s));
    }
    if (!trace_dump.empty()) {
      Status dumped = WriteFileText(trace_dump, obs::FormatSpanTrees(sampled));
      if (!dumped.ok()) {
        server.Stop();
        return Fail(dumped);
      }
      std::printf("trace dumped to %s (spans=%llu dropped=%llu slow=%llu)\n",
                  trace_dump.c_str(),
                  static_cast<unsigned long long>(tracer->spans_recorded()),
                  static_cast<unsigned long long>(tracer->spans_dropped()),
                  static_cast<unsigned long long>(tracer->slow_requests()));
    }
    if (tracer->slow_enabled()) {
      std::printf("== slow requests (threshold=%lldus, captured=%llu) ==\n%s",
                  static_cast<long long>(tracer->slow_threshold_us()),
                  static_cast<unsigned long long>(tracer->slow_requests()),
                  obs::FormatSpanTrees(slow).c_str());
    }
  }
  server.Stop();
  return 0;
}

// ---------------------------------------------------------------------
// client mode: serving rounds through a CoverRouter over listen servers
// ---------------------------------------------------------------------

/// `--backend HOST:PORT`, PORT digits only in [1, 65535].
bool ParseBackendFlag(int argc, char** argv, int* i,
                      std::vector<net::CoverClientOptions>* out) {
  std::string arg;
  if (!ParseStringFlag(argc, argv, i, "--backend", &arg)) return false;
  const size_t colon = arg.rfind(':');
  size_t port = 0;
  if (colon == std::string::npos || colon == 0 ||
      !ParseDigits(arg.c_str() + colon + 1, 65535, &port) || port == 0) {
    std::fprintf(stderr,
                 "error: --backend needs HOST:PORT with PORT in [1, 65535], "
                 "got '%s'\n",
                 arg.c_str());
    std::exit(1);
  }
  net::CoverClientOptions backend;
  backend.host = arg.substr(0, colon);
  backend.port = static_cast<uint16_t>(port);
  out->push_back(std::move(backend));
  return true;
}

/// Tenant -> target shard; no target means the next shard clockwise.
using MigrateArgs = std::vector<std::pair<std::string, std::optional<size_t>>>;

/// `--migrate TENANT[=SHARD]`, SHARD digits only.
bool ParseMigrateFlag(int argc, char** argv, int* i, MigrateArgs* out) {
  std::string arg;
  if (!ParseStringFlag(argc, argv, i, "--migrate", &arg)) return false;
  std::optional<size_t> target;
  const size_t eq = arg.find('=');
  size_t shard = 0;
  if (arg.empty() || eq == 0 ||
      (eq != std::string::npos &&
       !ParseDigits(arg.c_str() + eq + 1, kMaxFlagValue, &shard))) {
    std::fprintf(stderr,
                 "error: --migrate needs TENANT[=SHARD] with SHARD a number "
                 "in [0, %zu], got '%s'\n",
                 kMaxFlagValue, arg.c_str());
    std::exit(1);
  }
  if (eq != std::string::npos) {
    target = shard;
    arg.resize(eq);
  }
  out->emplace_back(std::move(arg), target);
  return true;
}

int RunClient(int argc, char** argv) {
  auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s client --backend HOST:PORT [--backend ...]"
                 " [--tenant NAME=SPEC ...] [--rounds K] [--burst N]"
                 " [--connect-timeout MS] [--io-timeout MS]"
                 " [--migrate TENANT[=SHARD] ...] [--quiet] [--metrics]"
                 " [--trace] [--shutdown]\n",
                 argv[0]);
    return 1;
  };

  TenantArgs tenant_args;
  MigrateArgs migrations;
  net::CoverRouterOptions router_options;
  size_t rounds = 2, burst = 0, io_timeout_ms = 0;
  size_t connect_timeout_ms = static_cast<size_t>(
      net::CoverClientOptions{}.connect_timeout.count());
  bool quiet = false, want_metrics = false, want_trace = false;
  bool want_shutdown = false;
  for (int i = 2; i < argc; ++i) {
    if (ParseBackendFlag(argc, argv, &i, &router_options.shards) ||
        ParseTenantFlag(argc, argv, &i, &tenant_args) ||
        ParseMigrateFlag(argc, argv, &i, &migrations) ||
        ParseSizeFlag(argc, argv, &i, "--rounds", &rounds) ||
        ParseSizeFlag(argc, argv, &i, "--burst", &burst) ||
        ParseSizeFlag(argc, argv, &i, "--connect-timeout",
                      &connect_timeout_ms) ||
        ParseSizeFlag(argc, argv, &i, "--io-timeout", &io_timeout_ms) ||
        ParseBoolFlag(argv[i], "--quiet", &quiet) ||
        ParseBoolFlag(argv[i], "--metrics", &want_metrics) ||
        ParseBoolFlag(argv[i], "--trace", &want_trace) ||
        ParseBoolFlag(argv[i], "--shutdown", &want_shutdown)) {
      continue;
    }
    std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
    return 1;
  }
  if (router_options.shards.empty()) return usage();
  if (tenant_args.empty() && migrations.empty() && !want_metrics &&
      !want_shutdown) {
    return usage();
  }
  for (net::CoverClientOptions& backend : router_options.shards) {
    backend.connect_timeout = std::chrono::milliseconds(connect_timeout_ms);
    backend.io_timeout = std::chrono::milliseconds(io_timeout_ms);
  }

  // --trace makes this client the trace edge, sampling every request:
  // its route and rpc spans record here, the server-side spans on each
  // backend.
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::ScopedProcessTracer> scoped_tracer;
  if (want_trace) {
    obs::ObsOptions topts;
    topts.trace_sample_shift = 0;
    tracer = std::make_unique<obs::Tracer>(topts);
    scoped_tracer = std::make_unique<obs::ScopedProcessTracer>(tracer.get());
  }

  net::CoverRouter router(std::move(router_options));
  const size_t shards = router.num_shards();

  // Each tenant's spec is also parsed locally: the client needs the
  // serving round, the view shapes for attribute names, and a pool to
  // re-intern decoded cover constants into.
  struct ClientTenant {
    std::string name;
    Spec spec;
    std::vector<std::string> round;
  };
  std::vector<ClientTenant> tenants;
  tenants.reserve(tenant_args.size());
  if (!tenant_args.empty()) std::printf("== tenants ==\n");
  for (auto& [name, path] : tenant_args) {
    auto text = ReadFileText(path);
    if (!text.ok()) return Fail(text.status());
    auto spec = ParseSpec(*text);
    if (!spec.ok()) return Fail(spec.status());
    auto opened = router.OpenCatalog(name, *text);
    if (!opened.ok()) return Fail(opened.status());
    std::printf("tenant %s: opened %s via shard %zu budget=%llu "
                "restored=%llu rejected=%llu\n",
                name.c_str(), path.c_str(), router.ShardFor(name),
                static_cast<unsigned long long>(opened->cache_budget),
                static_cast<unsigned long long>(opened->restored),
                static_cast<unsigned long long>(opened->rejected));
    ClientTenant t{name, std::move(spec).value(), {}};
    t.round = t.spec.ServingRound();
    tenants.push_back(std::move(t));
  }

  // One tenant round; covers print in serve mode's format, so scripts
  // can diff a routed cluster, one fat server and in-process serving
  // byte for byte.
  int rc = 0;
  auto serve_tenant = [&](ClientTenant& t, size_t round_idx, bool print) {
    ValuePool& pool = t.spec.catalog.pool();
    auto reply = router.SubmitBatch(t.name, t.round, pool);
    if (!reply.ok() || !reply->status.ok()) {
      const Status& s = reply.ok() ? reply->status : reply.status();
      std::fprintf(stderr, "error: tenant %s round %zu: %s\n",
                   t.name.c_str(), round_idx, s.ToString().c_str());
      rc = 1;
      return static_cast<size_t>(0);
    }
    if (!ReportRequestErrors(t.name, reply->results)) rc = 1;
    if (print) {
      PrintTenantCovers(t.name, t.round, t.spec, pool, reply->results, quiet);
    }
    return reply->results.size();
  };

  size_t total_requests = 0;
  auto start = std::chrono::steady_clock::now();
  for (size_t k = 0; k < rounds; ++k) {
    for (ClientTenant& t : tenants) {
      total_requests += serve_tenant(t, k, k == 0);
    }
  }
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  if (!tenants.empty() && rounds > 0) {
    std::printf("== client rounds ==\n  %zu requests in %.2f ms (%.0f "
                "covers/sec, %zu tenants, %zu shards, %zu rounds)\n",
                total_requests, elapsed_ms,
                elapsed_ms > 0 ? 1000.0 * total_requests / elapsed_ms : 0.0,
                tenants.size(), shards, rounds);
  }

  // Pipelined burst: N copies of the round in ONE frame — the server
  // decides every batch's admission atomically, so the admitted and
  // rejected counts are deterministic for given caps.
  if (burst > 0) {
    for (ClientTenant& t : tenants) {
      std::vector<std::vector<std::string>> batches(burst, t.round);
      auto replies =
          router.SubmitBatches(t.name, batches, t.spec.catalog.pool());
      if (!replies.ok()) return Fail(replies.status());
      size_t admitted = 0, rejected = 0;
      for (const BatchResult& b : *replies) {
        if (b.status.ok()) {
          ++admitted;
        } else if (b.status.code() == StatusCode::kResourceExhausted) {
          ++rejected;
        } else {
          std::fprintf(stderr, "error: burst tenant %s: %s\n",
                       t.name.c_str(), b.status.ToString().c_str());
          rc = 1;
        }
      }
      std::printf("burst tenant %s: batches=%zu admitted=%zu rejected=%zu\n",
                  t.name.c_str(), burst, admitted, rejected);
    }
  }

  // Live migrations: drain -> snapshot -> warm-start on the target ->
  // flip the route, then re-serve the tenant so its post-move covers
  // print (the diff target for byte-identity across the move).
  for (auto& [name, target] : migrations) {
    auto report = router.MigrateTenant(
        name, target.value_or((router.ShardFor(name) + 1) % shards));
    if (!report.ok()) {
      rc = Fail(report.status());
      continue;
    }
    std::printf("migrate tenant %s: shard %zu -> %zu snapshot_bytes=%llu "
                "restored=%llu rejected=%llu\n",
                name.c_str(), report->from, report->to,
                static_cast<unsigned long long>(report->snapshot_bytes),
                static_cast<unsigned long long>(report->restored),
                static_cast<unsigned long long>(report->rejected));
    for (ClientTenant& t : tenants) {
      if (t.name == name) serve_tenant(t, rounds, /*print=*/true);
    }
  }

  // Every shard's exposition merged into one scrape (shard="N" labels),
  // then the router's own counters: pipe it to a file and any
  // Prometheus-format consumer (or obs::ParseMetricsText) can parse it.
  if (want_metrics) {
    auto metrics = router.Metrics();
    if (!metrics.ok()) return Fail(metrics.status());
    std::printf("== metrics (%zu shards) ==\n", shards);
    std::fwrite(metrics->data(), 1, metrics->size(), stdout);
    if (!metrics->empty() && metrics->back() != '\n') std::printf("\n");
  }

  // Stitched trees: this edge's route and rpc spans plus every backend
  // process's rings (the TRACE_DUMP frame), each record stamped with its
  // shard — one tree per request, spanning processes via the in-band
  // trace ids.
  if (want_trace) {
    std::vector<obs::SpanRecord> spans = tracer->Snapshot();
    for (size_t s = 0; s < shards; ++s) {
      auto remote = router.TraceDumpFrom(s);
      if (!remote.ok()) return Fail(remote.status());
      spans.insert(spans.end(), remote->begin(), remote->end());
    }
    std::printf("== trace (stitched, %zu shards, %zu spans) ==\n%s", shards,
                spans.size(), obs::FormatSpanTrees(spans).c_str());
  }

  if (want_shutdown) {
    Status down = router.ShutdownAll();
    if (!down.ok()) return Fail(down);
    std::printf("shutdown sent to %zu shards\n", shards);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && !std::strcmp(argv[1], "serve")) {
    return RunServe(argc, argv);
  }
  if (argc >= 2 && !std::strcmp(argv[1], "listen")) {
    return RunListen(argc, argv);
  }
  if (argc >= 2 && !std::strcmp(argv[1], "client")) {
    return RunClient(argc, argv);
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s SPEC [--check|--cover|--emptiness|--validate]"
                 " [--general]\n"
                 "       %s serve|listen|client ...\n",
                 argv[0], argv[0]);
    return 1;
  }
  auto text = ReadFileText(argv[1]);
  if (!text.ok()) {
    std::fprintf(stderr,
                 "error: '%s' is neither a mode (serve, listen, client) "
                 "nor a readable spec file (%s)\n",
                 argv[1], text.status().ToString().c_str());
    return 1;
  }
  auto spec = ParseSpec(*text);
  if (!spec.ok()) return Fail(spec.status());
  bool check = false, cover = false, emptiness = false, validate = false;
  bool general = false;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--check")) check = true;
    else if (!std::strcmp(argv[i], "--cover")) cover = true;
    else if (!std::strcmp(argv[i], "--emptiness")) emptiness = true;
    else if (!std::strcmp(argv[i], "--validate")) validate = true;
    else if (!std::strcmp(argv[i], "--general")) general = true;
    else {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[i]);
      return 1;
    }
  }
  if (!check && !cover && !emptiness && !validate) {
    check = cover = emptiness = validate = true;
  }

  PropagationOptions prop_options;
  prop_options.general_setting = general;
  EmptinessOptions empt_options;
  empt_options.general_setting = general;

  int rc = 0;
  auto update = [&rc](int r) { rc = std::max(rc, r); };
  if (emptiness) update(RunEmptiness(*spec, empt_options));
  if (check) update(RunCheck(*spec, prop_options));
  if (cover) update(RunCover(*spec));
  if (validate) update(RunValidate(*spec));
  return rc;
}
