// The workload oracle's three load-bearing promises, asserted directly:
//
//  1. Determinism — the same seed yields a byte-identical request
//     stream (SerializeScripts compares equal, fingerprints match and
//     stay pinned across commits) and a byte-identical regenerated
//     tenant spec, which is what makes a reopened tenant's warm start
//     line up with its spilled snapshot.
//  2. Path equivalence — burst-reject produces the *same* admit/reject
//     pattern and admission totals whether the stream is served through
//     the in-process CatalogService, the TCP wire, or the 3-shard
//     routed tier (every path's totals are read back through its
//     backend's METRICS scrape, as a remote client would), and
//     churn-free scenarios serve byte-identical covers on every path
//     (the order-independent cover_fingerprint compares equal).
//  3. Clean serving — every scenario on every path serves without a
//     single error; the only tolerated failure is tenant-churn's typed
//     NotFound while a tenant is mid-reopen, counted as unavailable.

#include "src/gen/workload.h"

#include <sys/stat.h>

#include <set>
#include <utility>
#include <string>

#include <gtest/gtest.h>

#include "src/workload/runner.h"

namespace cfdprop {
namespace {

using gen::AllWorkloadKinds;
using gen::BuildTenantSpec;
using gen::BuildWorkloadPlan;
using gen::FingerprintScripts;
using gen::SerializeScripts;
using gen::WorkloadKind;
using gen::WorkloadKindName;
using gen::WorkloadOp;
using gen::WorkloadOptions;
using gen::WorkloadPlan;
using workload::RunnerOptions;
using workload::RunnerPath;
using workload::RunnerPathName;
using workload::RunWorkload;
using workload::WorkloadReport;

TEST(WorkloadPlanTest, KindNamesAreDistinctAndCoverEveryKind) {
  std::set<std::string> seen;
  for (WorkloadKind kind : AllWorkloadKinds()) {
    const std::string name = WorkloadKindName(kind);
    EXPECT_TRUE(seen.insert(name).second) << name;
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(WorkloadPlanTest, SameSeedIsByteIdenticalDifferentSeedIsNot) {
  for (WorkloadKind kind : AllWorkloadKinds()) {
    WorkloadOptions options;
    options.kind = kind;
    options.rounds = 4;
    const WorkloadPlan a = BuildWorkloadPlan(options);
    const WorkloadPlan b = BuildWorkloadPlan(options);
    EXPECT_EQ(SerializeScripts(a), SerializeScripts(b))
        << WorkloadKindName(kind);
    EXPECT_EQ(FingerprintScripts(a), FingerprintScripts(b));

    options.seed = 43;
    const WorkloadPlan c = BuildWorkloadPlan(options);
    EXPECT_NE(FingerprintScripts(a), FingerprintScripts(c))
        << WorkloadKindName(kind);
  }

  // The streams at default options are pinned: a generator change that
  // reshapes any scenario's requests shows up here.
  const std::pair<WorkloadKind, uint64_t> pinned[] = {
      {WorkloadKind::kHitHeavy, 10488129407170284270ull},
      {WorkloadKind::kChurnHeavy, 12301241014998653974ull},
      {WorkloadKind::kUnionHeavy, 14777655115039956418ull},
      {WorkloadKind::kTenantChurn, 3427281270113373925ull},
      {WorkloadKind::kBurstReject, 1236052879174936637ull},
      {WorkloadKind::kSnapshotRestart, 16134599606238636694ull},
      {WorkloadKind::kMixed, 10242180897422904460ull},
  };
  for (const auto& [kind, fingerprint] : pinned) {
    WorkloadOptions options;
    options.kind = kind;
    EXPECT_EQ(FingerprintScripts(BuildWorkloadPlan(options)), fingerprint)
        << WorkloadKindName(kind);
  }
}

TEST(WorkloadPlanTest, TenantSpecsRegenerateByteIdentical) {
  WorkloadOptions options;
  options.kind = WorkloadKind::kUnionHeavy;  // unions exercised too
  const WorkloadPlan plan = BuildWorkloadPlan(options);
  const Spec a = BuildTenantSpec(plan, 0);
  const Spec b = BuildTenantSpec(plan, 0);
  EXPECT_EQ(a.view_names, b.view_names);
  ASSERT_EQ(a.source_cfds.size(), b.source_cfds.size());
  EXPECT_GT(a.source_cfds.size(), 0u);
  // V* and U* views both present when the plan carries unions.
  EXPECT_NE(a.views.find("V0"), a.views.end());
  EXPECT_NE(a.views.find("U0"), a.views.end());
  // Different tenants draw from different generator streams.
  const Spec other = BuildTenantSpec(plan, 1);
  EXPECT_NE(SerializeScripts(plan), "");  // plan itself is non-trivial
  EXPECT_EQ(other.view_names.size(), a.view_names.size());
}

TEST(WorkloadPlanTest, PinnedScenariosClampClientsAndSetCaps) {
  WorkloadOptions options;
  options.kind = WorkloadKind::kBurstReject;
  options.tenants = 2;
  options.clients = 8;
  const WorkloadPlan plan = BuildWorkloadPlan(options);
  EXPECT_EQ(plan.scripts.size(), 2u) << "one driver per tenant";
  EXPECT_EQ(plan.max_inflight, options.max_inflight);
  EXPECT_EQ(plan.max_queue, options.max_queue);
  for (size_t c = 0; c < plan.scripts.size(); ++c) {
    for (const WorkloadOp& op : plan.scripts[c]) {
      EXPECT_EQ(op.type, WorkloadOp::Type::kBurst);
      EXPECT_EQ(op.tenant, c) << "bursts stay pinned to their driver";
    }
  }
  // Uncapped kinds leave admission off no matter the knobs.
  options.kind = WorkloadKind::kHitHeavy;
  const WorkloadPlan uncapped = BuildWorkloadPlan(options);
  EXPECT_EQ(uncapped.max_inflight, 0u);
  EXPECT_EQ(uncapped.max_queue, 0u);
}

TEST(WorkloadRunnerTest, BurstRejectPatternIsIdenticalOnEveryPath) {
  WorkloadOptions options;
  options.kind = WorkloadKind::kBurstReject;
  options.rounds = 3;
  const WorkloadPlan plan = BuildWorkloadPlan(options);

  RunnerOptions inproc;
  auto a = RunWorkload(plan, inproc);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_GT(a->rejected, 0u) << "caps tight enough to actually reject";
  EXPECT_GT(a->admitted, 0u);
  EXPECT_EQ(a->errors, 0u);
  EXPECT_EQ(a->admit_pattern.find('E'), std::string::npos)
      << a->admit_pattern;

  for (RunnerPath path : {RunnerPath::kTcp, RunnerPath::kRouted}) {
    RunnerOptions run;
    run.path = path;
    auto b = RunWorkload(plan, run);
    ASSERT_TRUE(b.ok()) << RunnerPathName(path) << ": " << b.status();
    // Same stream (by construction), same decisions, same covers (the
    // promise) — whether the batches cross one socket or a router.
    EXPECT_EQ(a->stream_fingerprint, b->stream_fingerprint);
    EXPECT_EQ(a->admit_pattern, b->admit_pattern) << RunnerPathName(path);
    EXPECT_EQ(a->admitted, b->admitted) << RunnerPathName(path);
    EXPECT_EQ(a->rejected, b->rejected) << RunnerPathName(path);
    EXPECT_EQ(a->cover_fingerprint, b->cover_fingerprint)
        << RunnerPathName(path) << ": served covers must be identical";
    EXPECT_EQ(b->errors, 0u) << RunnerPathName(path);
    // The pattern accounts for every burst slot, and the path-reported
    // totals agree with the letters.
    size_t admits = 0, rejects = 0;
    for (char ch : b->admit_pattern) (ch == 'A' ? admits : rejects)++;
    EXPECT_EQ(admits, b->admitted);
    EXPECT_EQ(rejects, b->rejected);
    if (path == RunnerPath::kRouted) {
      EXPECT_GT(b->migrated_lines, 0u) << "routed migration was not warm";
    }
  }
}

TEST(WorkloadRunnerTest, EveryScenarioServesIdenticalCoversRouted) {
  // Churn-free scenarios are cover-deterministic: the same request
  // stream must produce the same cover bytes whether it is served in
  // process, over one socket or sharded across the routed tier, and
  // the routed epilogue must move every tenant warm. (Churn scenarios
  // race Σ mutations with serving by design, so their cover sets are
  // legitimately timing-dependent — the migration tests pin those down
  // with the two-legal-covers check instead.)
  const std::string dir = ::testing::TempDir() + "cfdprop_workload_routed";
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  for (WorkloadKind kind :
       {WorkloadKind::kHitHeavy, WorkloadKind::kUnionHeavy,
        WorkloadKind::kSnapshotRestart}) {
    WorkloadOptions options;
    options.kind = kind;
    options.rounds = 2;
    const WorkloadPlan plan = BuildWorkloadPlan(options);

    WorkloadReport reference;
    for (RunnerPath path : {RunnerPath::kInproc, RunnerPath::kTcp,
                            RunnerPath::kRouted}) {
      RunnerOptions run;
      run.path = path;
      if (plan.needs_snapshots) {
        run.snapshot_dir = dir + "/" + WorkloadKindName(kind) + "-" +
                           RunnerPathName(path);
        ASSERT_TRUE(::mkdir(run.snapshot_dir.c_str(), 0755) == 0 ||
                    errno == EEXIST);
      }
      auto report = RunWorkload(plan, run);
      ASSERT_TRUE(report.ok())
          << WorkloadKindName(kind) << " [" << RunnerPathName(path)
          << "]: " << report.status();
      EXPECT_EQ(report->errors, 0u) << report->ToString();
      EXPECT_GT(report->covers_served, 0u);
      if (path == RunnerPath::kInproc) {
        reference = std::move(report).value();
        continue;
      }
      EXPECT_EQ(reference.covers_served, report->covers_served)
          << WorkloadKindName(kind) << " [" << RunnerPathName(path) << "]";
      EXPECT_EQ(reference.cover_fingerprint, report->cover_fingerprint)
          << WorkloadKindName(kind) << " [" << RunnerPathName(path)
          << "]: covers must be identical to inproc";
      if (path == RunnerPath::kRouted) {
        // The routed epilogue live-migrated every tenant once, warm.
        EXPECT_EQ(report->migrations, plan.options.tenants);
        EXPECT_GT(report->migrated_lines, 0u) << WorkloadKindName(kind);
      }
    }
  }
}

TEST(WorkloadRunnerTest, EveryScenarioServesCleanlyOnEveryPath) {
  // Every scenario on every path, with concurrent clients, churn,
  // spills, reopens and admission caps: no serving error anywhere. A
  // tenant-churn submit that lands in a tenant's drop window is the one
  // tolerated failure, and it is counted as unavailable, not as an
  // error. tenant-churn repeats because that window is a race.
  const std::string dir = ::testing::TempDir() + "cfdprop_workload_clean";
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);
  for (WorkloadKind kind : AllWorkloadKinds()) {
    WorkloadOptions options;
    options.kind = kind;
    options.rounds = 2;
    const WorkloadPlan plan = BuildWorkloadPlan(options);
    const int repeats = kind == WorkloadKind::kTenantChurn ? 20 : 1;
    for (RunnerPath path : {RunnerPath::kInproc, RunnerPath::kTcp,
                            RunnerPath::kRouted}) {
      for (int i = 0; i < repeats; ++i) {
        RunnerOptions run;
        run.path = path;
        if (plan.needs_snapshots) {
          run.snapshot_dir = dir + "/" + WorkloadKindName(kind) + "-" +
                             RunnerPathName(path) + "-" + std::to_string(i);
          ASSERT_TRUE(::mkdir(run.snapshot_dir.c_str(), 0755) == 0 ||
                      errno == EEXIST);
        }
        auto report = RunWorkload(plan, run);
        ASSERT_TRUE(report.ok())
            << WorkloadKindName(kind) << " [" << RunnerPathName(path)
            << "]: " << report.status();
        EXPECT_EQ(report->errors, 0u) << report->ToString();
        if (kind == WorkloadKind::kTenantChurn) {
          EXPECT_LE(report->unavailable, report->batches)
              << report->ToString();
        } else {
          EXPECT_EQ(report->unavailable, 0u) << report->ToString();
        }
      }
    }
  }
}

TEST(WorkloadRunnerTest, SnapshotRestartWarmStartsOnEveryPath) {
  const std::string dir = ::testing::TempDir() + "cfdprop_workload_snap";
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST);

  WorkloadOptions options;
  options.kind = WorkloadKind::kSnapshotRestart;
  options.rounds = 2;
  const WorkloadPlan plan = BuildWorkloadPlan(options);
  ASSERT_TRUE(plan.needs_snapshots);

  // A spilling plan without a snapshot_dir is a typed setup error.
  RunnerOptions bare;
  auto rejected = RunWorkload(plan, bare);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  for (RunnerPath path : {RunnerPath::kInproc, RunnerPath::kTcp,
                          RunnerPath::kRouted}) {
    RunnerOptions run;
    run.path = path;
    run.snapshot_dir = dir + "/" + RunnerPathName(path);
    ASSERT_TRUE(::mkdir(run.snapshot_dir.c_str(), 0755) == 0 ||
                errno == EEXIST);
    auto report = RunWorkload(plan, run);
    ASSERT_TRUE(report.ok()) << RunnerPathName(path) << ": "
                             << report.status();
    EXPECT_EQ(report->reopens, plan.options.tenants);
    EXPECT_GT(report->restored_lines, 0u)
        << RunnerPathName(path) << ": reopen should restore from the spill";
    EXPECT_EQ(report->errors, 0u);
    EXPECT_GT(report->covers_served, 0u);
  }
}

}  // namespace
}  // namespace cfdprop
