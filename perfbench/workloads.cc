#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/cover/propcfd_spc.h"
#include "src/engine/snapshot.h"

namespace perfbench {

using cfdprop::CFD;
using cfdprop::Result;
using cfdprop::Rng;
using cfdprop::Spec;
using cfdprop::Status;

const char* PathName(Path path) {
  switch (path) {
    case Path::kInproc:
      return "inproc";
    case Path::kTcp:
      return "tcp";
    case Path::kRouted:
      return "routed";
  }
  return "?";
}

std::string ViewName(char prefix, size_t index) {
  std::string name(1, prefix);
  name += std::to_string(index);
  return name;
}

Result<WorkloadConfig> ConfigFor(const std::string& name, bool tiny) {
  WorkloadConfig cfg;
  cfg.name = name;
  if (name == "hot-read") {
    cfg.path = Path::kRouted;
    cfg.shards = 3;
    cfg.tenants = 8;
    cfg.clients = 2;
    cfg.batch = 40;
    cfg.num_cfds = 120;
    cfg.num_views = 40;
    cfg.hot_views = 8;
  } else if (name == "churn-write") {
    cfg.path = Path::kInproc;
    // Every tenant's spec is generated from the seed, and their covers
    // cost differently; enough tenants make one seed's mix of specs
    // cost about what another's does (see zipf-open).
    cfg.tenants = 16;
    cfg.clients = 2;
    cfg.batch = 16;
    cfg.num_cfds = 256;
    cfg.num_views = 16;
    cfg.union_pct = 25;
    cfg.churn = true;
    cfg.stream_len = 512;
  } else if (name == "zipf-open") {
    cfg.path = Path::kTcp;
    // With 8 tenants, six seeds spread batch_p95_us by 0.18 (IQR over
    // the median) while one seed repeated spread it by 0.02: the tail
    // followed which specs the seed drew. With 64 it spread 0.04-0.10.
    cfg.tenants = 64;
    cfg.clients = 4;
    cfg.open_loop = true;
    // 20k covers/s, about 20% of the closed-loop capacity of 4
    // connections on a 4-CPU x86 container (87k-106k covers/s over seeds
    // 1-3). The shared host was seen running 2x slower for minutes; at
    // 40% the open loop then fell behind its schedule. Batches of 40 at
    // 500/s rather than 20 at 1000/s: half the thread hand-offs per
    // cover, whose cost follows the host's load (ten seeds spread
    // batch_p50_us by 0.02 against 0.06).
    cfg.rate = 500;
    cfg.batch = 40;
    cfg.num_cfds = 120;
    cfg.num_views = 96;
    cfg.zipf_s = 1.0;
    // 32 entries per tenant: each tenant's share is a third of its
    // 96-view working set.
    cfg.cache_budget = cfg.tenants * 32;
    cfg.dispatchers = 4;
  } else {
    return Status::NotFound("unknown workload '" + name +
                            "' (want hot-read, churn-write or zipf-open)");
  }
  if (tiny) {
    cfg.tenants = std::min<size_t>(cfg.tenants, 2 * cfg.clients);
    cfg.num_cfds = std::min<size_t>(cfg.num_cfds, 40);
    cfg.num_views = std::min<size_t>(cfg.num_views, 12);
    cfg.hot_views = std::min(cfg.hot_views, cfg.num_views);
    cfg.batch = std::min<size_t>(cfg.batch, 8);
    cfg.stream_len = 64;
    if (cfg.open_loop) cfg.cache_budget = cfg.tenants * 8;
  }
  return cfg;
}

std::string DescribeConfig(const WorkloadConfig& cfg) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "path=%s shards=%zu tenants=%zu %s=%zu%s batch=%zu cfds=%zu views=%zu "
      "hot_views=%zu zipf_s=%.2f union_pct=%zu churn=%d cache_budget=%zu "
      "dispatchers=%zu",
      PathName(cfg.path), cfg.shards, cfg.tenants,
      cfg.open_loop ? "connections" : "clients", cfg.clients,
      cfg.open_loop ? (" rate=" + std::to_string(cfg.rate) + "/s").c_str()
                    : "",
      cfg.batch, cfg.num_cfds, cfg.num_views, cfg.hot_views, cfg.zipf_s,
      cfg.union_pct, cfg.churn ? 1 : 0, cfg.cache_budget, cfg.dispatchers);
  return buf;
}

namespace {

uint64_t StreamSeed(uint64_t seed, size_t client) {
  return cfdprop::SplitMix64(seed * 0x9e3779b97f4a7c15ull + client + 1);
}

double UnitDouble(Rng& rng) {
  return static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
}

/// Inverse-CDF sampler of ranks 0..n-1 with P(k) ∝ 1/(k+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Draw(Rng& rng) const {
    const double u = UnitDouble(rng);
    const size_t k = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return std::min(k, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

std::vector<std::vector<BatchOp>> MakeStreams(const WorkloadConfig& cfg,
                                              uint64_t seed) {
  const Zipf zipf(cfg.num_views, cfg.zipf_s);
  std::vector<std::vector<BatchOp>> streams(cfg.clients);
  for (size_t c = 0; c < cfg.clients; ++c) {
    Rng rng(StreamSeed(seed, c));
    std::vector<size_t> own;
    for (size_t t = c % cfg.tenants; t < cfg.tenants; t += cfg.clients) {
      own.push_back(t);
    }
    for (size_t i = 0; i < cfg.stream_len; ++i) {
      BatchOp op;
      // churn-write pins each client to its own tenants (round-robin),
      // so hits, misses and Σ states are a pure function of the seed.
      op.tenant = cfg.churn ? own[i % own.size()] : rng.Below(cfg.tenants);
      for (size_t k = 0; k < cfg.batch; ++k) {
        if (cfg.hot_views > 0) {
          op.names.push_back(ViewName('V', rng.Below(cfg.hot_views)));
        } else if (cfg.zipf_s > 0) {
          // Popularity ranks are permuted per tenant, so tenants do not
          // share one hot view index.
          const size_t rank = zipf.Draw(rng);
          op.names.push_back(
              ViewName('V', (rank * 7 + op.tenant * 13) % cfg.num_views));
        } else if (rng.Below(100) < cfg.union_pct) {
          op.names.push_back(ViewName('U', rng.Below(cfg.num_views)));
        } else {
          op.names.push_back(ViewName('V', rng.Below(cfg.num_views)));
        }
      }
      streams[c].push_back(std::move(op));
    }
  }
  return streams;
}

cfdprop::gen::WorkloadPlan MakePlan(const WorkloadConfig& cfg, uint64_t seed) {
  cfdprop::gen::WorkloadPlan plan;
  plan.options.seed = seed;
  plan.options.tenants = cfg.tenants;
  plan.options.num_cfds = cfg.num_cfds;
  plan.options.num_views = cfg.num_views;
  plan.with_unions = true;
  return plan;
}

CFD ChurnCfd(const std::vector<CFD>& sigma) {
  // Plain FDs are pool-independent, so one value serves every tenant
  // and the oracle's separate catalog alike.
  for (cfdprop::AttrIndex rhs = 2;; ++rhs) {
    CFD fd = CFD::FD(0, {0, 1}, rhs).value();
    if (std::find(sigma.begin(), sigma.end(), fd) == sigma.end()) return fd;
  }
}

Result<Oracle> BuildOracle(const WorkloadConfig& cfg,
                           const cfdprop::gen::WorkloadPlan& plan,
                           const std::vector<std::vector<std::string>>& names,
                           SpanLog& spans) {
  Oracle oracle;
  oracle.fps.resize(cfg.tenants);
  cfdprop::PropCoverOptions options;
  options.input_mincover = false;
  for (size_t t = 0; t < cfg.tenants; ++t) {
    Spec spec = cfdprop::gen::BuildTenantSpec(plan, t);
    oracle.churn_cfds.push_back(ChurnCfd(spec.source_cfds));
    const size_t states = cfg.churn ? 2 : 1;
    for (size_t state = 0; state < states; ++state) {
      std::vector<CFD> raw = spec.source_cfds;
      if (state == 1) raw.push_back(oracle.churn_cfds[t]);
      const auto m0 = Clock::now();
      auto sigma = cfdprop::MinCoverSigma(spec.catalog, std::move(raw));
      spans["cfd.mincover"].Add(UsSince(m0) / 1000.0);
      CFDPROP_RETURN_NOT_OK(sigma.status());
      for (const std::string& name : names[t]) {
        auto it = spec.views.find(name);
        if (it == spec.views.end()) {
          return Status::NotFound("spec has no view " + name);
        }
        const cfdprop::SPCUView& view = it->second;
        const bool is_union = view.disjuncts.size() > 1;
        const auto c0 = Clock::now();
        auto cover =
            is_union
                ? cfdprop::PropagationCoverSPCU(spec.catalog, view, *sigma,
                                                options)
                : cfdprop::PropagationCoverSPC(spec.catalog,
                                               view.disjuncts.front(), *sigma,
                                               options);
        spans[is_union ? "cover.union" : "cover.spc"].Add(UsSince(c0));
        CFDPROP_RETURN_NOT_OK(cover.status());
        oracle.fps[t][state][name] =
            cfdprop::FingerprintSigmaSet(spec.catalog.pool(), cover->cover);
      }
    }
  }
  return oracle;
}

}  // namespace perfbench
