// perfbench: the repository benchmark. One run = one workload, one seed:
//
//   perfbench --workload hot-read|churn-write|zipf-open --seed N
//             --seconds S --trace 0|1 [--tiny] [--git-sha SHA]
//
// Order of a run: generate specs and name streams from the seed;
// compute the one-shot cover oracle (not timed); set the workload's
// stack up (timed: setup_s); then
//
//   --trace 0  after an untimed warm-up, five phases of traffic with
//              tracing off, each S/5 seconds of windows in which the host
//              was calm (see RunPhase). Before each phase a throwaway
//              stack is set up (one more setup_s sample). The end-to-end
//              metrics: covers_per_s, batch_p50_us, batch_p95_us,
//              setup_s, rss_mb.
//   --trace 1  untraced and traced phases alternate, S/4 each (their
//              difference is trace.overhead_pct), then the benchmark's
//              own spans around single calls into each layer — the
//              hit-path ladder and the paper-layer probes — and the
//              per-layer metrics.
//
// Every served cover is checked against the oracle. The last stdout
// line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the lines before it are a human-readable report,
// including fail_pct and the run stamp. Exit status: 0 on a correct,
// valid run; 1 when a cover mismatched or an op failed; 2 on usage or
// setup errors; 3 when the open-loop generator fell behind its
// schedule (the latencies would not be measurements of the offered
// load) or the trace ring dropped spans; no result is printed then.

#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/measure.h"
#include "perfbench/workloads.h"
#include "src/cfd/implication.h"
#include "src/cover/propcfd_spc.h"
#include "src/engine/fingerprint.h"
#include "src/engine/snapshot.h"
#include "src/net/cover_backend.h"
#include "src/net/cover_router.h"
#include "src/net/cover_server.h"
#include "src/net/wire_protocol.h"
#include "src/obs/trace.h"
#include "src/service/catalog_service.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using cfdprop::BatchResult;
using cfdprop::CatalogService;
using cfdprop::CFD;
using cfdprop::Engine;
using cfdprop::EngineResult;
using cfdprop::Result;
using cfdprop::ServiceOptions;
using cfdprop::Spec;
using cfdprop::Status;
using cfdprop::TenantHandle;
using cfdprop::ValuePool;
namespace gen = cfdprop::gen;
namespace net = cfdprop::net;
namespace obs = cfdprop::obs;

using NameFps = std::unordered_map<std::string, uint64_t>;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string git_sha = "none";
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload hot-read|churn-write|zipf-open "
               "--seed N --seconds S --trace 0|1 [--tiny] [--git-sha SHA]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0) ||
          args->seconds > 120) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::thread::hardware_concurrency();
  }
  return static_cast<size_t>(CPU_COUNT(&set));
}

ServiceOptions ServiceOptionsFor(const WorkloadConfig& cfg) {
  ServiceOptions options;
  options.dispatcher_threads = cfg.dispatchers;
  options.global_cache_budget = cfg.cache_budget;
  options.engine.num_threads = 1;
  return options;
}

net::CoverClientOptions ClientOptions(uint16_t port) {
  net::CoverClientOptions options;
  options.port = port;
  options.connect_timeout = std::chrono::milliseconds(10000);
  return options;
}

// ------------------------------------------------------------ checking

/// Ops attempted and failed. A failed op is an error, a refusal or a
/// cover whose FingerprintSigmaSet differs from the oracle's.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  uint64_t covers = 0;

  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    mismatched += o.mismatched;
    covers += o.covers;
  }
};

void CheckCover(const Result<EngineResult>& r, const std::string& name,
                const NameFps& expect, const ValuePool& pool, Tally& tally) {
  ++tally.attempted;
  if (!r.ok() || r->cover == nullptr) {
    ++tally.failed;
    return;
  }
  auto it = expect.find(name);
  if (it == expect.end() ||
      cfdprop::FingerprintSigmaSet(pool, r->cover->cover) != it->second) {
    ++tally.failed;
    ++tally.mismatched;
    return;
  }
  ++tally.covers;
}

/// Checks the single-batch reply of a SubmitBatches call.
void CheckReply(const Result<std::vector<BatchResult>>& replies,
                const std::vector<std::string>& names, const NameFps& expect,
                const ValuePool& pool, Tally& tally) {
  if (!replies.ok() || replies->size() != 1 || !(*replies)[0].status.ok() ||
      (*replies)[0].results.size() != names.size()) {
    tally.attempted += names.size();
    tally.failed += names.size();
    return;
  }
  const BatchResult& batch = (*replies)[0];
  for (size_t i = 0; i < names.size(); ++i) {
    CheckCover(batch.results[i], names[i], expect, pool, tally);
  }
}

// --------------------------------------------------------------- stack

/// Everything a workload stands up. Members are declared in dependency
/// order, so destruction stops the router, then the servers, then the
/// services.
struct Stack {
  std::vector<std::unique_ptr<CatalogService>> services;
  std::vector<std::unique_ptr<net::CoverServer>> servers;
  std::unique_ptr<net::InProcBackend> inproc;
  std::unique_ptr<net::CoverRouter> router;
  /// Tenant handles in tenant order; on inproc the served covers'
  /// constants live in these tenants' pools.
  std::vector<TenantHandle> tenants;
  std::vector<size_t> shard_of;
};

Result<std::unique_ptr<Stack>> BuildStack(const WorkloadConfig& cfg,
                                          std::vector<Spec> specs) {
  auto stack = std::make_unique<Stack>();
  for (size_t s = 0; s < cfg.shards; ++s) {
    stack->services.push_back(
        std::make_unique<CatalogService>(ServiceOptionsFor(cfg)));
  }
  if (cfg.path == Path::kInproc) {
    stack->inproc = std::make_unique<net::InProcBackend>(*stack->services[0]);
  } else {
    for (auto& service : stack->services) {
      auto server = std::make_unique<net::CoverServer>(*service);
      CFDPROP_RETURN_NOT_OK(server->Start());
      stack->servers.push_back(std::move(server));
    }
  }
  if (cfg.path == Path::kRouted) {
    net::CoverRouterOptions options;
    for (auto& server : stack->servers) {
      options.shards.push_back(ClientOptions(server->port()));
    }
    stack->router = std::make_unique<net::CoverRouter>(std::move(options));
  }
  for (size_t t = 0; t < cfg.tenants; ++t) {
    const std::string name = cfg.TenantName(t);
    const size_t shard = stack->router ? stack->router->ShardFor(name) : 0;
    if (stack->inproc) {
      CFDPROP_RETURN_NOT_OK(
          stack->inproc->OpenParsedSpec(name, std::move(specs[t])).status());
    } else {
      CFDPROP_RETURN_NOT_OK(
          stack->servers[shard]->OpenParsedSpec(name, std::move(specs[t]))
              .status());
    }
    CFDPROP_ASSIGN_OR_RETURN(TenantHandle handle,
                             stack->services[shard]->ResolveCatalog(name));
    stack->tenants.push_back(std::move(handle));
    stack->shard_of.push_back(shard);
  }
  return stack;
}

/// One load-generating client: the backend it submits through (shared
/// router or InProcBackend, or its own connection on tcp) and the pool
/// its covers are checked in.
class Client {
 public:
  Client(const WorkloadConfig& cfg, Stack& stack) : stack_(stack) {
    if (cfg.path == Path::kTcp) {
      remote_ = std::make_unique<net::RemoteBackend>(
          ClientOptions(stack.servers[0]->port()));
    }
  }

  Status Connect() { return remote_ ? remote_->Connect() : Status::OK(); }

  net::CoverBackend& backend() {
    if (remote_) return *remote_;
    if (stack_.router) return *stack_.router;
    return *stack_.inproc;
  }

  Result<std::vector<BatchResult>> Submit(const BatchOp& op,
                                          const std::string& tenant) {
    return backend().SubmitBatches(tenant, {op.names}, scratch_.pool());
  }

  /// Wire paths decode into the client's own pool; inproc covers live in
  /// the tenant's.
  const ValuePool& PoolFor(size_t tenant) const {
    if (stack_.inproc) return stack_.tenants[tenant]->engine().catalog().pool();
    return scratch_.pool();
  }

 private:
  Stack& stack_;
  std::unique_ptr<net::RemoteBackend> remote_;
  cfdprop::Catalog scratch_;
};

/// The warm-up pass run at the end of every set-up: hot-read asks every
/// tenant for its whole hot set; the others replay a prefix of each
/// stream (enough for zipf-open's caches to reach their working state).
std::vector<BatchOp> WarmBatches(const WorkloadConfig& cfg,
                                 const std::vector<std::vector<BatchOp>>& streams) {
  std::vector<BatchOp> warm;
  if (cfg.hot_views > 0) {
    for (size_t t = 0; t < cfg.tenants; ++t) {
      BatchOp op;
      op.tenant = t;
      for (size_t v = 0; v < cfg.hot_views; ++v) {
        op.names.push_back(ViewName('V', v));
      }
      warm.push_back(std::move(op));
    }
    return warm;
  }
  const size_t prefix = cfg.open_loop ? 8 : 1;
  for (const auto& stream : streams) {
    for (size_t i = 0; i < prefix && i < stream.size(); ++i) {
      warm.push_back(stream[i]);
    }
  }
  return warm;
}

/// One set-up: open the tenants (MinCover runs at registration), start
/// servers and router, run the warm-up pass. Spec generation is input
/// preparation and stays outside the timed window.
Result<std::unique_ptr<Stack>> SetUp(const WorkloadConfig& cfg,
                                     const gen::WorkloadPlan& plan,
                                     const std::vector<BatchOp>& warm,
                                     const Oracle& oracle, Tally& tally,
                                     double* seconds) {
  std::vector<Spec> specs;
  for (size_t t = 0; t < cfg.tenants; ++t) {
    specs.push_back(gen::BuildTenantSpec(plan, t));
  }
  const auto t0 = Clock::now();
  CFDPROP_ASSIGN_OR_RETURN(std::unique_ptr<Stack> stack,
                           BuildStack(cfg, std::move(specs)));
  Client client(cfg, *stack);
  CFDPROP_RETURN_NOT_OK(client.Connect());
  for (const BatchOp& op : warm) {
    auto replies = client.Submit(op, cfg.TenantName(op.tenant));
    CheckReply(replies, op.names, oracle.fps[op.tenant][0],
               client.PoolFor(op.tenant), tally);
  }
  *seconds = UsSince(t0) / 1e6;
  return stack;
}

// --------------------------------------------------------------- phase

/// CPU time the hypervisor has taken from this VM so far (the "steal"
/// column of /proc/stat), in seconds; 0 where it is not reported, and
/// then every window counts as calm.
double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return n == 8 && ticks > 0 ? static_cast<double>(v[7]) / ticks : 0;
}

/// Engine::Stats() counters summed over every tenant of every service.
struct EngineTotals {
  uint64_t requests = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;

  EngineTotals& operator+=(const EngineTotals& o) {
    requests += o.requests;
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    invalidations += o.invalidations;
    return *this;
  }
  EngineTotals operator-(const EngineTotals& o) const {
    return {requests - o.requests, hits - o.hits, misses - o.misses,
            evictions - o.evictions, invalidations - o.invalidations};
  }
};

EngineTotals ReadEngineTotals(const Stack& stack) {
  EngineTotals totals;
  for (const auto& service : stack.services) {
    for (const auto& t : service->Stats().tenants) {
      totals.requests += t.engine.requests;
      totals.hits += t.engine.cache.hits;
      totals.misses += t.engine.cache.misses;
      totals.evictions += t.engine.cache.evictions;
      totals.invalidations += t.engine.cache.invalidations;
    }
  }
  return totals;
}

/// One timed op. A batch starts when it was submitted (closed loop) or
/// due (open loop); a mutation when AddCfd/RetractCfd was called.
struct Op {
  Clock::time_point start, end;
  double late_us = 0;   // batches: how late the generator sent it
  uint64_t covers = 0;  // batches: OK covers served
  size_t tenant = 0;    // mutations: the tenant mutated
};

struct ClientState {
  std::vector<Op> batches, mutations;
  Tally tally;  // every op, the ramp's included
};

/// Adds or retracts tenant t's churn CFD on Σ 0 as an in-process client
/// of the service issues it (resolve the tenant, then mutate its engine),
/// as an op of `st`.
void Mutate(const WorkloadConfig& cfg, Stack& stack, const Oracle& oracle,
            size_t t, bool add, ClientState& st) {
  const CFD& cfd = oracle.churn_cfds[t];
  Op m;
  m.tenant = t;
  m.start = Clock::now();
  auto handle =
      stack.services[stack.shard_of[t]]->ResolveCatalog(cfg.TenantName(t));
  const bool ok =
      handle.ok() && (add ? (*handle)->engine().AddCfd(0, cfd)
                          : (*handle)->engine().RetractCfd(0, cfd))
                         .ok();
  m.end = Clock::now();
  st.mutations.push_back(m);
  ++st.tally.attempted;
  if (!ok) ++st.tally.failed;
}

/// The window of one phase: clients start at `start`; time from `t0` to
/// the deadline is cut into windows of kWindow. The main thread sets the
/// deadline once it has seen enough windows, so clients read it as an
/// atomic. The ramp lets the host wake vCPUs that idled through the gap
/// before the phase: the first few tenths of a second after it run
/// slowly.
struct Window {
  static constexpr auto kRamp = std::chrono::milliseconds(500);
  static constexpr auto kWindow = std::chrono::milliseconds(25);

  Clock::time_point start, t0;
  std::atomic<Clock::rep> deadline{
      Clock::time_point::max().time_since_epoch().count()};

  bool Past(Clock::time_point t) const {
    return t.time_since_epoch().count() >=
           deadline.load(std::memory_order_acquire);
  }
  /// The window `t` falls in, or -1 before t0.
  ptrdiff_t Index(Clock::time_point t) const {
    return t < t0 ? -1 : static_cast<ptrdiff_t>((t - t0) / kWindow);
  }
};

/// Closed loop: the next batch is due when the previous round returned,
/// so lateness is the client's own time between rounds (its checks).
void RunClosedClient(const WorkloadConfig& cfg, Stack& stack,
                     const std::vector<BatchOp>& stream, const Oracle& oracle,
                     Client& client, const Window& w, ClientState& st) {
  Clock::time_point prev_end = w.start;
  for (size_t i = 0;; ++i) {
    const auto send = Clock::now();
    if (w.Past(send)) break;
    const BatchOp& op = stream[i % stream.size()];
    const std::string tenant = cfg.TenantName(op.tenant);
    if (cfg.churn) Mutate(cfg, stack, oracle, op.tenant, /*add=*/true, st);
    Op b;
    b.late_us = i > 0 ? UsBetween(prev_end, send) : 0;
    b.start = Clock::now();
    auto replies = client.Submit(op, tenant);
    b.end = Clock::now();
    if (cfg.churn) Mutate(cfg, stack, oracle, op.tenant, /*add=*/false, st);
    prev_end = Clock::now();
    const uint64_t covers = st.tally.covers;
    CheckReply(replies, op.names, oracle.fps[op.tenant][cfg.churn ? 1 : 0],
               client.PoolFor(op.tenant), st.tally);
    b.covers = st.tally.covers - covers;
    st.batches.push_back(b);
  }
}

/// Open loop: connection c of C sends batch k at start + (k*C + c) /
/// rate, whether or not earlier batches have returned, and each batch is
/// timed from when it was due — a stall shows in every batch it delays.
void RunOpenClient(const WorkloadConfig& cfg, size_t c,
                   const std::vector<BatchOp>& stream, const Oracle& oracle,
                   Client& client, const Window& w, ClientState& st) {
  const double period_s = 1.0 / cfg.rate;
  for (size_t k = 0;; ++k) {
    const auto due =
        w.start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(k * cfg.clients + c) * period_s));
    if (w.Past(due)) break;
    std::this_thread::sleep_until(due);
    if (w.Past(due)) break;
    const auto send = Clock::now();
    const BatchOp& op = stream[k % stream.size()];
    auto replies = client.Submit(op, cfg.TenantName(op.tenant));
    Op b;
    b.start = due;
    b.end = Clock::now();
    b.late_us = UsBetween(due, send);
    const uint64_t covers = st.tally.covers;
    CheckReply(replies, op.names, oracle.fps[op.tenant][0],
               client.PoolFor(op.tenant), st.tally);
    b.covers = st.tally.covers - covers;
    st.batches.push_back(b);
  }
}

struct PhaseResult {
  /// Ops that began and ended inside kept windows.
  Samples batch_us, late_us;
  std::map<size_t, Samples> mutate_us;  // by tenant
  uint64_t timed_covers = 0;
  /// Per client: the OK covers of its counted batches and the time from
  /// each one's previous batch's completion to its own.
  std::vector<double> client_covers, client_busy_s;
  Tally tally;            // every op of the phase
  EngineTotals engine;    // counter deltas over the phase
  uint64_t sent = 0;      // batches sent, the ramp's included
  double steal_s = 0, wall_s = 0;  // hypervisor steal over the windows run
  size_t windows_run = 0, windows_kept = 0;
  /// Open loop: timed batches due before the deadline, and those of them
  /// the generator could only send after it.
  uint64_t due = 0, backlog = 0;

  /// The clients' completion rates, summed.
  double CoversPerSecond() const {
    double rate = 0;
    for (size_t c = 0; c < client_covers.size(); ++c) {
      if (client_busy_s[c] > 0) rate += client_covers[c] / client_busy_s[c];
    }
    return rate;
  }
  /// The share of the VM's CPU time the hypervisor took.
  double StealShare() const {
    return wall_s > 0 ? steal_s / (wall_s * static_cast<double>(Nproc())) : 0;
  }
  double BacklogShare() const {
    return due > 0 ? static_cast<double>(backlog) / static_cast<double>(due)
                   : 0;
  }
  void Merge(const PhaseResult& o) {
    batch_us.Append(o.batch_us);
    for (const auto& [t, samples] : o.mutate_us) mutate_us[t].Append(samples);
    late_us.Append(o.late_us);
    timed_covers += o.timed_covers;
    client_covers.resize(o.client_covers.size());
    client_busy_s.resize(o.client_busy_s.size());
    for (size_t c = 0; c < o.client_covers.size(); ++c) {
      client_covers[c] += o.client_covers[c];
      client_busy_s[c] += o.client_busy_s[c];
    }
    tally.Merge(o.tally);
    engine += o.engine;
    sent += o.sent;
    steal_s += o.steal_s;
    wall_s += o.wall_s;
    windows_run += o.windows_run;
    windows_kept += o.windows_kept;
    due += o.due;
    backlog += o.backlog;
  }
};

/// One timed phase: the clients run without pause from `start`; after a
/// 0.5 s untimed ramp, the main thread reads the hypervisor's steal at
/// the end of every 25 ms window. On a shared host the hypervisor stops
/// vCPUs for ~10-20 ms at a time, in bursts, and an op it stopped
/// measures the host rather than the program. A rise read at the end of
/// window i is charged to windows i-1, i and i+1: the kernel accounts
/// steal at the stolen CPU's next tick, and an open loop drains the
/// batches that fell due during a stop after it. The phase keeps the
/// seconds/kWindow windows charged least (the first ones without steal,
/// while there are enough); with `extend` it runs until it has that many
/// without steal or three times as many windows in all. An op counts
/// when every window it touched is kept.
///
/// The clients (and so the connections on tcp) persist across phases: a
/// new connection costs the server a thread and runs its first batches
/// slowly.
PhaseResult RunPhase(const WorkloadConfig& cfg, Stack& stack,
                     std::vector<std::unique_ptr<Client>>& clients,
                     const std::vector<std::vector<BatchOp>>& streams,
                     const Oracle& oracle, double seconds, bool extend) {
  const double window_s =
      std::chrono::duration<double>(Window::kWindow).count();
  const size_t needed = std::max<size_t>(
      1, static_cast<size_t>(std::llround(seconds / window_s)));
  // One window more than is kept: the last one's charge is not known.
  const size_t max_windows = (extend ? 3 * needed : needed) + 1;

  PhaseResult result;
  const EngineTotals engine_before = ReadEngineTotals(stack);
  std::vector<ClientState> states(cfg.clients);
  Window w;
  // Start a little ahead so every thread is running at `start`.
  w.start = Clock::now() + std::chrono::milliseconds(20);
  w.t0 = w.start + Window::kRamp;
  std::vector<double> rise;  // steal read at the end of each window
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < cfg.clients; ++c) {
      threads.emplace_back([&, c] {
        std::this_thread::sleep_until(w.start);
        if (cfg.open_loop) {
          RunOpenClient(cfg, c, streams[c], oracle, *clients[c], w, states[c]);
        } else {
          RunClosedClient(cfg, stack, streams[c], oracle, *clients[c], w,
                          states[c]);
        }
      });
    }
    std::this_thread::sleep_until(w.t0);
    double prev = StealSeconds();
    size_t calm = 0;  // windows whose charge is 0
    while (calm < needed && rise.size() < max_windows) {
      std::this_thread::sleep_until(w.t0 +
                                    (rise.size() + 1) * Window::kWindow);
      const double now = StealSeconds();
      rise.push_back(now - prev);
      prev = now;
      const size_t n = rise.size();
      if (n >= 2 && rise[n - 2] == 0 && rise[n - 1] == 0 &&
          (n == 2 || rise[n - 3] == 0)) {
        ++calm;
      }
    }
    const Clock::time_point deadline =
        w.t0 + static_cast<Clock::rep>(rise.size()) * Window::kWindow;
    w.deadline.store(deadline.time_since_epoch().count(),
                     std::memory_order_release);
    for (auto& thread : threads) thread.join();
  }
  result.engine = ReadEngineTotals(stack) - engine_before;
  result.windows_run = rise.size();
  result.wall_s = static_cast<double>(rise.size()) * window_s;
  for (double r : rise) result.steal_s += r;

  std::vector<double> charge(rise.size() - 1);
  for (size_t i = 0; i < charge.size(); ++i) {
    charge[i] = (i > 0 ? rise[i - 1] : 0) + rise[i] + rise[i + 1];
  }
  std::vector<size_t> order(charge.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return charge[a] < charge[b]; });
  std::vector<bool> kept(charge.size(), false);
  for (size_t i = 0; i < needed && i < order.size(); ++i) {
    kept[order[i]] = true;
  }
  result.windows_kept = std::min(needed, order.size());
  auto counts = [&](const Op& op) {
    const ptrdiff_t from = w.Index(op.start), to = w.Index(op.end);
    if (from < 0 || to >= static_cast<ptrdiff_t>(kept.size())) return false;
    for (ptrdiff_t i = from; i <= to; ++i) {
      if (!kept[static_cast<size_t>(i)]) return false;
    }
    return true;
  };
  for (const ClientState& st : states) {
    result.tally.Merge(st.tally);
    result.sent += st.batches.size();
    double covers = 0, busy_s = 0;
    for (size_t k = 0; k < st.batches.size(); ++k) {
      const Op& b = st.batches[k];
      if (cfg.open_loop && b.start >= w.t0) {
        ++result.due;
        if (w.Past(b.start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::micro>(
                                     b.late_us)))) {
          ++result.backlog;
        }
      }
      if (!counts(b)) continue;
      result.batch_us.Add(UsBetween(b.start, b.end));
      result.late_us.Add(b.late_us);
      result.timed_covers += b.covers;
      if (k > 0) {
        covers += static_cast<double>(b.covers);
        busy_s += UsBetween(st.batches[k - 1].end, b.end) / 1e6;
      }
    }
    result.client_covers.push_back(covers);
    result.client_busy_s.push_back(busy_s);
    for (const Op& m : st.mutations) {
      if (counts(m)) result.mutate_us[m.tenant].Add(UsBetween(m.start, m.end));
    }
  }
  return result;
}

// -------------------------------------------------------------- ladder

/// The hit-path ladder, run single-threaded on a dedicated one-tenant
/// stack built with the workload's service options (its cache large
/// enough that every ladder name stays warm):
///
///   fingerprint -> Engine::Propagate (warm) -> Engine::PropagateBatch
///   -> CatalogService::SubmitBatches -> RemoteBackend -> CoverRouter
///
/// Each rung is one span per batch of the workload's own names for
/// tenant 0, rungs interleaved batch by batch; a layer's self time is
/// the difference of adjacent rung medians. Wire encode/decode are
/// timed on the service rung's replies. The same stack then hosts the
/// engine probes: a miss after ClearCache and AddCfd/RetractCfd.
Status RunLadder(const WorkloadConfig& cfg, const gen::WorkloadPlan& plan,
                 const std::vector<std::vector<BatchOp>>& streams,
                 const Oracle& oracle, Tally& tally, SpanLog& spans,
                 double* reply_bytes_per_cover, uint64_t* ladder_misses) {
  const std::string tenant = "ladder";
  const NameFps& expect = oracle.fps[0][0];
  std::vector<std::vector<std::string>> batches;
  for (const auto& stream : streams) {
    for (const BatchOp& op : stream) {
      if (op.tenant == 0 && batches.size() < 256) batches.push_back(op.names);
    }
  }
  if (batches.empty()) return Status::Internal("no tenant-0 batches");

  ServiceOptions options = ServiceOptionsFor(cfg);
  options.global_cache_budget = 4096;
  CatalogService service(options);
  net::CoverServer server(service);
  CFDPROP_RETURN_NOT_OK(server.Start());
  CFDPROP_RETURN_NOT_OK(
      server.OpenParsedSpec(tenant, gen::BuildTenantSpec(plan, 0)).status());
  CFDPROP_ASSIGN_OR_RETURN(TenantHandle handle, service.ResolveCatalog(tenant));
  Engine& engine = handle->engine();
  const ValuePool& engine_pool = engine.catalog().pool();
  // A second generation of the same spec: generation is deterministic,
  // so its views intern the same constants in the same order and are
  // valid against the engine's catalog (the cover checks below prove it).
  Spec local = gen::BuildTenantSpec(plan, 0);
  net::RemoteBackend remote(ClientOptions(server.port()));
  CFDPROP_RETURN_NOT_OK(remote.Connect());
  net::CoverRouterOptions router_options;
  router_options.shards.push_back(ClientOptions(server.port()));
  net::CoverRouter router(std::move(router_options));
  cfdprop::Catalog scratch;

  std::set<std::string> distinct;
  for (const auto& b : batches) distinct.insert(b.begin(), b.end());
  const std::vector<std::string> all(distinct.begin(), distinct.end());
  CheckReply(remote.SubmitBatches(tenant, {all}, scratch.pool()), all, expect,
             scratch.pool(), tally);

  uint64_t reply_bytes = 0, reply_covers = 0;
  size_t round = 0;
  for (size_t pass = 0; pass < 2; ++pass) {
    for (const auto& names : batches) {
      std::vector<Engine::Request> requests;
      for (const std::string& name : names) {
        requests.emplace_back(local.views.at(name), 0);
      }

      auto t = Clock::now();
      for (const Engine::Request& r : requests) {
        if (r.view.disjuncts.size() == 1) {
          (void)cfdprop::FingerprintRequestPair(
              engine.catalog(), r.view.disjuncts.front(), r.sigma_id);
        } else {
          (void)cfdprop::FingerprintUnionRequestPair(engine.catalog(), r.view,
                                                     r.sigma_id);
        }
      }
      spans["ladder.fingerprint"].Add(UsSince(t));

      std::vector<Result<EngineResult>> inline_results;
      inline_results.reserve(requests.size());
      t = Clock::now();
      for (const Engine::Request& r : requests) {
        inline_results.push_back(
            r.view.disjuncts.size() == 1
                ? engine.Propagate(r.view.disjuncts.front(), r.sigma_id)
                : engine.PropagateUnion(r.view, r.sigma_id));
      }
      spans["ladder.engine_hit"].Add(UsSince(t));

      t = Clock::now();
      auto batch_results = engine.PropagateBatch(requests);
      spans["ladder.propagate_batch"].Add(UsSince(t));

      std::vector<std::vector<Engine::Request>> submit{requests};
      t = Clock::now();
      auto futures = service.SubmitBatches(tenant, std::move(submit));
      if (futures.size() != 1 || !futures[0].ok()) {
        return Status::Internal("ladder SubmitBatches refused");
      }
      const BatchResult reply = futures[0]->get();
      spans["ladder.submit_batches"].Add(UsSince(t));

      const std::vector<BatchResult> wire_batches{reply};
      t = Clock::now();
      const std::string payload =
          net::EncodeSubmitBatchReply(Status::OK(), wire_batches, engine_pool);
      spans["net.encode"].Add(UsSince(t));
      t = Clock::now();
      auto decoded = net::DecodeSubmitBatchReply(payload, scratch.pool());
      spans["net.decode"].Add(UsSince(t));
      reply_bytes += payload.size();
      reply_covers += names.size();

      // The two socket rungs alternate which goes first: the first
      // round trip after the in-process rungs also wakes idle server
      // threads, and that cost must not land on one rung only.
      Result<std::vector<BatchResult>> remote_replies =
          Status::Internal("not run");
      Result<std::vector<BatchResult>> routed_replies = remote_replies;
      const bool remote_first = round++ % 2 == 0;
      for (size_t k = 0; k < 2; ++k) {
        t = Clock::now();
        if ((k == 0) == remote_first) {
          remote_replies = remote.SubmitBatches(tenant, {names}, scratch.pool());
          spans["ladder.remote"].Add(UsSince(t));
        } else {
          routed_replies = router.SubmitBatches(tenant, {names}, scratch.pool());
          spans["ladder.router"].Add(UsSince(t));
        }
      }

      if (pass > 0) continue;  // every rung's covers are checked once
      for (size_t i = 0; i < names.size(); ++i) {
        CheckCover(inline_results[i], names[i], expect, engine_pool, tally);
        if (inline_results[i].ok() && !inline_results[i]->cache_hit) {
          ++*ladder_misses;
        }
        CheckCover(batch_results[i], names[i], expect, engine_pool, tally);
      }
      CheckReply(wire_batches, names, expect, engine_pool, tally);
      CheckReply(decoded, names, expect, scratch.pool(), tally);
      CheckReply(remote_replies, names, expect, scratch.pool(), tally);
      CheckReply(routed_replies, names, expect, scratch.pool(), tally);
    }
  }
  *reply_bytes_per_cover = reply_covers > 0 ? static_cast<double>(reply_bytes) /
                                                  static_cast<double>(reply_covers)
                                            : 0;

  // Engine miss: Propagate on an SPC view right after ClearCache.
  size_t probed = 0;
  for (const std::string& name : all) {
    const cfdprop::SPCUView& view = local.views.at(name);
    if (view.disjuncts.size() != 1 || probed++ >= 16) continue;
    engine.ClearCache();
    const auto t = Clock::now();
    auto r = engine.Propagate(view.disjuncts.front(), 0);
    spans["engine.miss"].Add(UsSince(t));
    CheckCover(r, name, expect, engine_pool, tally);
  }

  // Engine mutation against MinCoverSigma on the same two Σ states:
  // their difference is the engine's own cost (snapshot swap and cache
  // invalidation) beyond the minimization.
  const CFD& churn = oracle.churn_cfds[0];
  std::vector<CFD> with_churn = local.source_cfds;
  with_churn.push_back(churn);
  for (size_t round = 0; round < 6; ++round) {
    for (bool add : {true, false}) {
      auto t = Clock::now();
      const Status s = add ? engine.AddCfd(0, churn) : engine.RetractCfd(0, churn);
      spans["engine.mutate"].Add(UsSince(t));
      ++tally.attempted;
      if (!s.ok()) ++tally.failed;
      t = Clock::now();
      auto m = cfdprop::MinCoverSigma(local.catalog,
                                      add ? with_churn : local.source_cfds);
      spans["engine.mutate.mincover"].Add(UsSince(t));
      spans["cfd.mincover"].Add(UsSince(t) / 1000.0);
      if (!m.ok()) return m.status();
    }
  }

  // Implication: Implies(Σ_R \ {φ}, φ) for each φ of Σ, per relation R.
  std::map<cfdprop::RelationId, std::vector<CFD>> by_relation;
  for (const CFD& cfd : local.source_cfds) by_relation[cfd.relation].push_back(cfd);
  size_t calls = 0;
  for (const auto& [relation, group] : by_relation) {
    const size_t arity = local.catalog.relation(relation).arity();
    const cfdprop::AttrDomains domains =
        cfdprop::DomainsOf(local.catalog, relation);
    for (size_t i = 0; i < group.size() && calls < 256; ++i, ++calls) {
      std::vector<CFD> rest = group;
      rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
      const auto t = Clock::now();
      auto implied = cfdprop::Implies(rest, group[i], arity, domains);
      spans["cfd.implies"].Add(UsSince(t));
      if (!implied.ok()) return implied.status();
    }
  }
  return Status::OK();
}

/// Raw queue_wait span durations from the program's own tracers.
Samples QueueWaitSamples(
    const std::vector<std::unique_ptr<obs::Tracer>>& tracers) {
  Samples samples;
  for (const auto& tracer : tracers) {
    for (const obs::SpanRecord& span : tracer->Snapshot()) {
      if (!span.slow && span.name == "queue_wait") {
        samples.Add(static_cast<double>(span.dur_us));
      }
    }
  }
  return samples;
}

// ---------------------------------------------------------------- main

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
};

std::string ResultLine(bool correct, const Tally& tally,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

double PerKilo(uint64_t n, uint64_t base) {
  return base > 0 ? 1000.0 * static_cast<double>(n) / static_cast<double>(base)
                  : 0;
}

/// The per-layer metrics of a traced run, from the benchmark's spans,
/// the untraced and traced phases and the program's own tracers.
std::vector<Metric> LayerMetrics(
    const SpanLog& spans, const PhaseResult& untraced,
    const PhaseResult& traced,
    const std::vector<std::unique_ptr<obs::Tracer>>& tracers,
    double reply_bytes_per_cover) {
  const double fingerprint = spans.Median("ladder.fingerprint");
  const double hit = spans.Median("ladder.engine_hit");
  const double batch = spans.Median("ladder.propagate_batch");
  const double submit = spans.Median("ladder.submit_batches");
  const double remote = spans.Median("ladder.remote");
  const double routed = spans.Median("ladder.router");
  // The rungs' self times telescope: together they are the top rung.
  const double e2e_p50 = untraced.batch_us.Median();
  const EngineTotals& d = untraced.engine;
  const Samples queue_wait = QueueWaitSamples(tracers);
  const double untraced_cps = untraced.CoversPerSecond();
  return {
      {"cfd.mincover_ms", spans.Median("cfd.mincover"), "ms", ""},
      {"cfd.implies_us", spans.Median("cfd.implies"), "us", "per call"},
      {"cover.spc_us", spans.Median("cover.spc"), "us", "per view"},
      {"cover.union_us", spans.Median("cover.union"), "us", "per view"},
      {"engine.fingerprint_us", fingerprint, "us", "per batch"},
      {"engine.hit_us", hit, "us", "per batch"},
      {"engine.miss_us", spans.Median("engine.miss"), "us", "per request"},
      {"engine.batch_us", batch, "us", "per batch"},
      {"engine.mutate_us",
       spans.Median("engine.mutate") - spans.Median("engine.mutate.mincover"),
       "us", "beyond MinCoverSigma"},
      {"engine.hit_ratio",
       d.hits + d.misses > 0 ? static_cast<double>(d.hits) /
                                   static_cast<double>(d.hits + d.misses)
                             : 0,
       "ratio", "untraced phases"},
      {"engine.evictions_per_kreq", PerKilo(d.evictions, d.requests), "1/kreq",
       ""},
      {"engine.invalidations_per_kreq", PerKilo(d.invalidations, d.requests),
       "1/kreq", ""},
      {"service.overhead_us", submit - batch, "us", "per batch"},
      {"service.queue_wait_p99_us", queue_wait.Percentile(0.99), "us",
       "n=" + std::to_string(queue_wait.size())},
      {"net.encode_us", spans.Median("net.encode"), "us", "per batch"},
      {"net.decode_us", spans.Median("net.decode"), "us", "per batch"},
      {"net.reply_bytes_per_cover", reply_bytes_per_cover, "B", ""},
      {"net.rpc_overhead_us", remote - submit, "us", "per batch"},
      {"router.overhead_us", routed - remote, "us", "per batch"},
      {"ladder.unattributed_pct",
       e2e_p50 > 0 ? 100.0 * (e2e_p50 - routed) / e2e_p50 : 0, "%",
       "of batch_p50_us=" + std::to_string(e2e_p50)},
      {"trace.overhead_pct",
       untraced_cps > 0
           ? 100.0 * (traced.CoversPerSecond() - untraced_cps) / untraced_cps
           : 0,
       "%", "traced vs untraced covers_per_s"},
      {"gen.late_p99_us", untraced.late_us.Percentile(0.99), "us",
       "n=" + std::to_string(untraced.late_us.size())},
  };
}

/// Every name a tenant can be asked for, per tenant: the oracle's work
/// list. The traced run also times union covers on every workload.
std::vector<std::vector<std::string>> RequestedNames(
    const WorkloadConfig& cfg, const std::vector<std::vector<BatchOp>>& streams,
    bool trace) {
  std::vector<std::set<std::string>> sets(cfg.tenants);
  for (const auto& stream : streams) {
    for (const BatchOp& op : stream) {
      sets[op.tenant].insert(op.names.begin(), op.names.end());
    }
  }
  std::vector<std::vector<std::string>> names(cfg.tenants);
  for (size_t t = 0; t < cfg.tenants; ++t) {
    for (size_t v = 0; v < cfg.hot_views; ++v) sets[t].insert(ViewName('V', v));
    if (trace) {
      for (size_t u = 0; u < 4; ++u) sets[t].insert(ViewName('U', u));
    }
    names[t].assign(sets[t].begin(), sets[t].end());
  }
  return names;
}

int Run(const Args& args) {
  auto configured = ConfigFor(args.workload, args.tiny);
  if (!configured.ok()) {
    std::fprintf(stderr, "error: %s\n", configured.status().ToString().c_str());
    return Usage();
  }
  const WorkloadConfig cfg = std::move(configured).value();
  std::printf(
      "stamp workload=%s seed=%llu seconds=%g trace=%d tiny=%d nproc=%zu "
      "build_type=%s compiler=\"%s\" git_sha=%s %s\n",
      cfg.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, args.tiny ? 1 : 0, Nproc(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, args.git_sha.c_str(), DescribeConfig(cfg).c_str());
  std::fflush(stdout);

  const gen::WorkloadPlan plan = MakePlan(cfg, args.seed);
  const auto streams = MakeStreams(cfg, args.seed);
  const auto names = RequestedNames(cfg, streams, args.trace);

  SpanLog spans;
  auto oracle = BuildOracle(cfg, plan, names, spans);
  if (!oracle.ok()) {
    std::fprintf(stderr, "error: oracle: %s\n",
                 oracle.status().ToString().c_str());
    return 2;
  }
  const std::vector<BatchOp> warm = WarmBatches(cfg, streams);

  // Declared before the stack: dispatcher threads may still record into
  // a tracer after it is uninstalled, until the stack is destroyed.
  std::vector<std::unique_ptr<obs::Tracer>> tracers;
  std::unique_ptr<Stack> stack;
  // Ops outside the timed phases: warm-up, ladder and probes.
  Tally checks;
  auto set_up = [&](std::unique_ptr<Stack>* out, double* seconds) {
    auto built = SetUp(cfg, plan, warm, *oracle, checks, seconds);
    if (!built.ok()) {
      std::fprintf(stderr, "error: setup: %s\n",
                   built.status().ToString().c_str());
      return false;
    }
    *out = std::move(built).value();
    return true;
  };
  Samples setup_s;
  double seconds = 0;
  if (!set_up(&stack, &seconds)) return 2;
  setup_s.Add(seconds);

  // Each client connects and sends its first batch once before timing.
  std::vector<std::unique_ptr<Client>> clients;
  for (size_t c = 0; c < cfg.clients; ++c) {
    clients.push_back(std::make_unique<Client>(cfg, *stack));
    const Status connected = clients.back()->Connect();
    if (!connected.ok()) {
      std::fprintf(stderr, "error: connect: %s\n", connected.ToString().c_str());
      return 2;
    }
    const BatchOp& op = streams[c].front();
    CheckReply(clients.back()->Submit(op, cfg.TenantName(op.tenant)), op.names,
               oracle->fps[op.tenant][0], clients.back()->PoolFor(op.tenant),
               checks);
  }

  // The first second of traffic in a process runs up to twice as slowly
  // (on churn-write its p99 tripled) and is not timed.
  checks.Merge(RunPhase(cfg, *stack, clients, streams, *oracle, 1.0,
                        /*extend=*/false)
                   .tally);

  PhaseResult untraced, traced;
  uint64_t spans_dropped = 0;
  if (args.trace) {
    // Untraced and traced phases of S/4 alternate, so drift over the run
    // does not land on one side of trace.overhead_pct. Every request is
    // traced, into a fresh ring per traced phase sized from the batches
    // of the untraced phase before it (a routed submit records 11 spans).
    constexpr uint64_t kSpansPerBatch = 16;
    for (size_t i = 0; i < 4; ++i) {
      const bool traced_phase = i % 2 == 1;
      if (traced_phase) {
        obs::ObsOptions o;
        o.trace_sample_shift = 0;
        o.trace_ring_capacity = std::max<uint64_t>(
            uint64_t{1} << 14, kSpansPerBatch * untraced.sent / (i / 2 + 1));
        o.trace_seed = args.seed + i;
        tracers.push_back(std::make_unique<obs::Tracer>(o));
        obs::InstallProcessTracer(tracers.back().get());
      }
      const PhaseResult phase =
          RunPhase(cfg, *stack, clients, streams, *oracle, args.seconds / 4,
                   /*extend=*/false);
      obs::InstallProcessTracer(nullptr);
      (traced_phase ? traced : untraced).Merge(phase);
    }
    for (const auto& tracer : tracers) spans_dropped += tracer->spans_dropped();
  } else {
    // kRounds phases of S/kRounds. Before each, a throwaway stack is set
    // up and torn down (one more setup_s sample): set-ups taken back to
    // back sample one moment of the host's drifting speed.
    constexpr size_t kRounds = 5;
    for (size_t r = 0; r < kRounds; ++r) {
      std::unique_ptr<Stack> extra;
      if (!set_up(&extra, &seconds)) return 2;
      setup_s.Add(seconds);
      extra.reset();
      untraced.Merge(RunPhase(cfg, *stack, clients, streams, *oracle,
                              args.seconds / kRounds, /*extend=*/true));
    }
  }
  Tally tally = untraced.tally;
  tally.Merge(traced.tally);

  // An open loop that could not send what was due before the deadline
  // was not offering its schedule: its latencies describe another load.
  PhaseResult open = untraced;
  open.Merge(traced);
  const bool fell_behind = cfg.open_loop && open.BacklogShare() > 0.01;

  std::vector<Metric> metrics;
  std::vector<Metric> report;  // printed, not part of the result object
  if (!args.trace) {
    const std::string batches = "n=" + std::to_string(untraced.batch_us.size());

    report.push_back({"gen.late_p99_us", untraced.late_us.Percentile(0.99),
                      "us", "n=" + std::to_string(untraced.late_us.size())});
    // Printed, not in the result: on zipf-open its run-to-run spread
    // reached 0.26 over ten seeds, p95's stayed within 0.11.
    report.push_back({"batch_p99_us", untraced.batch_us.Percentile(0.99), "us",
                      batches});
    if (cfg.churn) {
      // Printed, not in the result: MinCover on |Σ| = 256 tracks the
      // host's speed (ten seeds spread 0.27), and its cost is already in
      // churn-write's covers_per_s, whose rounds are AddCfd -> batch ->
      // RetractCfd. Each tenant's Σ has its own MinCover cost (2.2 ms on
      // some tenants, 3.3 ms on others), so the median of the pooled
      // samples would fall in the gap between them; the mean of the
      // tenants' medians does not.
      double mutate_p50 = 0;
      size_t mutations = 0;
      for (const auto& [t, samples] : untraced.mutate_us) {
        mutate_p50 += samples.Median() /
                      static_cast<double>(untraced.mutate_us.size());
        mutations += samples.size();
      }
      report.push_back({"mutate_p50_us", mutate_p50, "us",
                        "mean over " +
                            std::to_string(untraced.mutate_us.size()) +
                            " tenants, n=" + std::to_string(mutations)});
    }
    report.push_back({"host.steal_pct", 100.0 * untraced.StealShare(), "%",
                      "of the VM's CPU time while timing, taken by the "
                      "hypervisor; " +
                          std::to_string(untraced.windows_kept) + " of " +
                          std::to_string(untraced.windows_run) +
                          " windows kept"});
    metrics = {
        {"covers_per_s", untraced.CoversPerSecond(), "1/s",
         "n=" + std::to_string(untraced.timed_covers) + " covers"},
        {"batch_p50_us", untraced.batch_us.Median(), "us", batches},
        {"batch_p95_us", untraced.batch_us.Percentile(0.95), "us", batches},
        {"setup_s", setup_s.Median(), "s",
         "median of n=" + std::to_string(setup_s.size())},
        {"rss_mb", PeakRssMb(), "MiB", "peak"},
    };
  } else {
    double reply_bytes_per_cover = 0;
    uint64_t ladder_misses = 0;
    Status laddered = RunLadder(cfg, plan, streams, *oracle, checks, spans,
                                &reply_bytes_per_cover, &ladder_misses);
    if (!laddered.ok()) {
      std::fprintf(stderr, "error: ladder: %s\n", laddered.ToString().c_str());
      return 2;
    }
    metrics = LayerMetrics(spans, untraced, traced, tracers,
                           reply_bytes_per_cover);
    report.push_back({"ladder.misses", static_cast<double>(ladder_misses),
                      "count", "must be 0"});
    report.push_back({"trace.spans_dropped", static_cast<double>(spans_dropped),
                      "count", "must be 0"});
    for (const auto& [name, samples] : spans.all()) {
      report.push_back({"span." + name, samples.Median(),
                        name == "cfd.mincover" ? "ms" : "us",
                        "p99=" + std::to_string(samples.Percentile(0.99)) +
                            " n=" + std::to_string(samples.size())});
    }
  }

  Tally all = tally;
  all.Merge(checks);
  const double fail_pct =
      tally.attempted > 0
          ? 100.0 * static_cast<double>(tally.failed) /
                static_cast<double>(tally.attempted)
          : 0;
  report.push_back({"fail_pct", fail_pct, "%",
                    std::to_string(tally.failed) + "/" +
                        std::to_string(tally.attempted) + " ops"});
  report.push_back({"mismatched", static_cast<double>(all.mismatched), "count",
                    "covers differing from the oracle"});
  for (const Metric& m : metrics) {
    std::printf("metric %-30s %14.3f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const Metric& m : report) {
    std::printf("report %-30s %14.3f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  if (fell_behind) {
    std::printf("INVALID: the open-loop generator fell behind its schedule "
                "(%.1f%% of the batches due before the deadline were sent "
                "after it); no result\n",
                100.0 * open.BacklogShare());
    return 3;
  }
  if (spans_dropped > 0) {
    std::printf("INVALID: the trace ring dropped %llu spans, so the traced "
                "phases are not fully recorded; no result\n",
                static_cast<unsigned long long>(spans_dropped));
    return 3;
  }
  const bool correct = all.failed == 0;
  std::printf("%s\n", ResultLine(correct, tally, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return perfbench::Usage();
  return perfbench::Run(args);
}

