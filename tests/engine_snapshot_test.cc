// Snapshot round-trip and corruption tests for the persistent cover
// cache (src/engine/snapshot.h).
//
// Round trips run on randomized generator workloads (the
// engine_differential_test setup): a cold engine serves every view,
// serializes its cache, and a fresh engine restored from those bytes
// must serve every request as a cache hit with a byte-identical cover.
// Corruption tests mangle the bytes every way a disk can — truncation
// at every boundary, bad magic, a version bump, bit rot — and demand a
// clean rejection: an error Status, an untouched cache, no crash. A
// seeded sweep then re-seals hostile mutants behind a valid checksum so
// the line-table parser itself sees them (the suite also runs under the
// ASan/TSan/UBSan CI matrix). Snapshot files belong to CatalogService;
// the file cases (a missing file, concurrent spills of one tenant) are
// at the end.

#include <unistd.h>

#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/base/wire.h"
#include "src/engine/engine.h"
#include "src/engine/snapshot.h"
#include "src/gen/generators.h"
#include "src/service/catalog_service.h"

namespace cfdprop {
namespace {

struct Workload {
  EngineOptions options;
  std::vector<SPCView> spc_views;
  std::vector<SPCUView> spcu_views;
};

/// Whether MakeEngine registers a second, different Σ, and whether it
/// goes before or after the first.
enum class SecondSigma { kNone, kAfter, kBefore };

/// Same construction as engine_differential_test: catalog, sigma and
/// views are all deterministic in the seed, so two calls with one seed
/// model "the same deployment restarted".
Catalog DeploymentCatalog(uint64_t seed) {
  SchemaGenOptions so;
  so.num_relations = 4;
  so.min_arity = 6;
  so.max_arity = 8;
  return GenerateSchema(so, seed);
}

std::vector<CFD> DeploymentSigma(Catalog& cat, uint64_t seed) {
  CFDGenOptions co;
  co.count = 32;
  co.min_lhs = 1;
  co.max_lhs = 3;
  return GenerateCFDs(cat, co, seed);
}

/// Adds the deployment's views to `w`; false (with a test failure) when
/// the generator fails.
bool AddViews(Catalog& cat, uint64_t seed, Workload* w) {
  ViewGenOptions vo;
  vo.num_projection = 5;
  vo.num_selections = 3;
  vo.num_atoms = 2;
  for (size_t i = 0; i < 6; ++i) {
    auto v = GenerateSPCView(cat, vo, seed + 10 + i);
    EXPECT_TRUE(v.ok()) << v.status();
    if (!v.ok()) return false;
    w->spc_views.push_back(std::move(v).value());
  }
  for (size_t i = 0; i + 1 < w->spc_views.size(); i += 2) {
    SPCUView u;
    u.disjuncts = {w->spc_views[i], w->spc_views[i + 1]};
    EXPECT_TRUE(u.Validate(cat).ok());
    w->spcu_views.push_back(std::move(u));
  }
  return true;
}

std::unique_ptr<Engine> MakeEngine(uint64_t seed, Workload* w,
                                   SecondSigma second = SecondSigma::kNone) {
  Catalog cat = DeploymentCatalog(seed);
  std::vector<CFD> sigma = DeploymentSigma(cat, seed + 1);
  std::vector<CFD> other;
  if (second != SecondSigma::kNone) other = DeploymentSigma(cat, seed + 2);

  auto engine = std::make_unique<Engine>(std::move(cat), w->options);
  if (second == SecondSigma::kBefore) {
    EXPECT_TRUE(engine->RegisterSigma(other).ok());
  }
  EXPECT_TRUE(engine->RegisterSigma(std::move(sigma)).ok());
  if (second == SecondSigma::kAfter) {
    EXPECT_TRUE(engine->RegisterSigma(other).ok());
  }
  if (!AddViews(engine->catalog(), seed, w)) return nullptr;
  return engine;
}

/// Serves every SPC and SPCU view once against `sigma`, returning the
/// covers in request order. `expect_hit` pins the cache behavior when
/// set.
std::vector<std::vector<CFD>> ServeAll(Engine& engine, const Workload& w,
                                       std::optional<bool> expect_hit,
                                       const char* phase, SigmaId sigma = 0) {
  std::vector<std::vector<CFD>> covers;
  for (size_t i = 0; i < w.spc_views.size(); ++i) {
    auto r = engine.Propagate(w.spc_views[i], sigma);
    EXPECT_TRUE(r.ok()) << phase << " spc[" << i << "]: " << r.status();
    if (!r.ok()) return covers;
    if (expect_hit) {
      EXPECT_EQ(r->cache_hit, *expect_hit) << phase << " spc[" << i << "]";
    }
    covers.push_back(r->cover->cover);
  }
  for (size_t i = 0; i < w.spcu_views.size(); ++i) {
    auto r = engine.PropagateUnion(w.spcu_views[i], sigma);
    EXPECT_TRUE(r.ok()) << phase << " spcu[" << i << "]: " << r.status();
    if (!r.ok()) return covers;
    if (expect_hit) {
      EXPECT_EQ(r->cache_hit, *expect_hit) << phase << " spcu[" << i << "]";
    }
    covers.push_back(r->cover->cover);
  }
  return covers;
}

class EngineSnapshotTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineSnapshotTest, WarmRestartServesByteIdenticalCovers) {
  Workload cold_w;
  cold_w.options.num_threads = 1;
  auto cold = MakeEngine(GetParam(), &cold_w);
  ASSERT_NE(cold, nullptr);
  auto cold_covers = ServeAll(*cold, cold_w, false, "cold");

  const SerializedSnapshot saved = cold->SerializeSnapshot();
  EXPECT_EQ(saved.lines, cold->Stats().cache.entries);
  EXPECT_GT(saved.lines, 0u);

  // "Restart": a fresh engine built from the same deployment spec.
  Workload warm_w;
  warm_w.options.num_threads = 1;
  auto warm = MakeEngine(GetParam(), &warm_w);
  ASSERT_NE(warm, nullptr);
  auto loaded = warm->LoadSnapshotBytes(saved.bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->restored, saved.lines);
  EXPECT_EQ(loaded->rejected, 0u);
  EXPECT_EQ(warm->Stats().cache.restored, saved.lines);

  // Every request is a hit, and every cover is byte-identical to what
  // the cold process computed.
  auto warm_covers = ServeAll(*warm, warm_w, true, "warm");
  ASSERT_EQ(warm_covers.size(), cold_covers.size());
  for (size_t i = 0; i < cold_covers.size(); ++i) {
    EXPECT_EQ(warm_covers[i], cold_covers[i]) << "request " << i;
  }
  EXPECT_EQ(warm->Stats().cache.misses, 0u);
}

TEST_P(EngineSnapshotTest, SaveLoadSaveIsByteIdentical) {
  // Serialize -> deserialize -> serialize must reproduce the file
  // bit-for-bit: lines are sorted and the string table is first-use
  // ordered, so equal cache content means equal bytes — the property
  // that makes tests/cli/persistence_test.sh's diff meaningful.
  Workload w1, w2;
  w1.options.num_threads = 1;
  w2.options.num_threads = 1;
  auto a = MakeEngine(GetParam(), &w1);
  auto b = MakeEngine(GetParam(), &w2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ServeAll(*a, w1, false, "populate");

  const std::string bytes1 = a->SerializeSnapshot().bytes;
  auto loaded = b->LoadSnapshotBytes(bytes1);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(b->SerializeSnapshot().bytes, bytes1);
}

TEST_P(EngineSnapshotTest, ChurnedAndRevertedSigmaStillRestores) {
  // AddCfd + RetractCfd back to the registered content: the minimized
  // set — and so its version — is the registration-time one again. A
  // restart that only registered the set must restore every line.
  Workload w;
  w.options.num_threads = 1;
  auto engine = MakeEngine(GetParam(), &w);
  ASSERT_NE(engine, nullptr);

  CFDGenOptions co;
  co.count = 1;
  co.min_lhs = 1;
  co.max_lhs = 2;
  std::vector<CFD> churn =
      GenerateCFDs(engine->catalog(), co, GetParam() + 1000);
  ASSERT_EQ(churn.size(), 1u);
  const SigmaVersion registered = engine->sigma_version(0);
  ASSERT_TRUE(engine->AddCfd(0, churn[0]).ok());
  ASSERT_TRUE(engine->RetractCfd(0, churn[0]).ok());
  ASSERT_EQ(engine->sigma_version(0), registered);
  auto covers = ServeAll(*engine, w, false, "post-churn");
  const SerializedSnapshot saved = engine->SerializeSnapshot();

  Workload warm_w;
  warm_w.options.num_threads = 1;
  auto warm = MakeEngine(GetParam(), &warm_w);
  ASSERT_NE(warm, nullptr);
  ASSERT_EQ(warm->sigma_version(0), registered);
  auto loaded = warm->LoadSnapshotBytes(saved.bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->restored, saved.lines);
  EXPECT_EQ(loaded->rejected, 0u);
  auto warm_covers = ServeAll(*warm, warm_w, true, "warm");
  EXPECT_EQ(warm_covers, covers);
}

TEST_P(EngineSnapshotTest, RestoresWhateverTheRegistrationOrder) {
  // Lines carry their Σ version, not a registration slot: a loader that
  // registers the same two Σ sets in the opposite order restores every
  // line and serves only hits.
  Workload cold_w;
  cold_w.options.num_threads = 1;
  auto cold = MakeEngine(GetParam(), &cold_w, SecondSigma::kAfter);
  ASSERT_NE(cold, nullptr);
  auto first = ServeAll(*cold, cold_w, false, "cold first", 0);
  auto second = ServeAll(*cold, cold_w, false, "cold second", 1);
  const SerializedSnapshot saved = cold->SerializeSnapshot();

  Workload warm_w;
  warm_w.options.num_threads = 1;
  auto warm = MakeEngine(GetParam(), &warm_w, SecondSigma::kBefore);
  ASSERT_NE(warm, nullptr);
  auto loaded = warm->LoadSnapshotBytes(saved.bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->restored, saved.lines);
  EXPECT_EQ(loaded->rejected, 0u);
  EXPECT_EQ(ServeAll(*warm, warm_w, true, "warm first", 1), first);
  EXPECT_EQ(ServeAll(*warm, warm_w, true, "warm second", 0), second);
  EXPECT_EQ(warm->Stats().cache.misses, 0u);
}

TEST_P(EngineSnapshotTest, ChangedSigmaRejectsEveryLine) {
  Workload w;
  w.options.num_threads = 1;
  auto engine = MakeEngine(GetParam(), &w);
  ASSERT_NE(engine, nullptr);
  ServeAll(*engine, w, false, "populate");
  const SerializedSnapshot saved = engine->SerializeSnapshot();

  // A different seed registers a different sigma over a same-shaped
  // schema: content fingerprints differ, so nothing may restore.
  Workload other_w;
  other_w.options.num_threads = 1;
  auto other = MakeEngine(GetParam() + 7777, &other_w);
  ASSERT_NE(other, nullptr);
  const size_t pool_size_before = other->catalog().pool().size();
  auto loaded = other->LoadSnapshotBytes(saved.bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->restored, 0u);
  EXPECT_EQ(loaded->rejected, saved.lines);
  EXPECT_EQ(other->Stats().cache.entries, 0u);
  EXPECT_EQ(other->Stats().cache.rejected, saved.lines);
  // Rejected lines intern nothing: the append-only pool is unpolluted.
  EXPECT_EQ(other->catalog().pool().size(), pool_size_before);
}

TEST_P(EngineSnapshotTest, CorruptFilesRejectCleanlyWithoutRestoring) {
  Workload w;
  w.options.num_threads = 1;
  auto engine = MakeEngine(GetParam(), &w);
  ASSERT_NE(engine, nullptr);
  ServeAll(*engine, w, false, "populate");
  const std::string good = engine->SerializeSnapshot().bytes;
  ASSERT_GT(good.size(), 24u);

  // `reason`, when given, must appear in the rejection's message.
  auto expect_rejected = [&](const std::string& bytes, const char* what,
                             const char* reason = nullptr) {
    Workload fresh_w;
    fresh_w.options.num_threads = 1;
    auto fresh = MakeEngine(GetParam(), &fresh_w);
    ASSERT_NE(fresh, nullptr);
    auto loaded = fresh->LoadSnapshotBytes(bytes);
    EXPECT_FALSE(loaded.ok()) << what;
    if (reason != nullptr) {
      EXPECT_NE(loaded.status().ToString().find(reason), std::string::npos)
          << what << ": " << loaded.status();
    }
    // Nothing half-restored: the cache is exactly as cold as before.
    EXPECT_EQ(fresh->Stats().cache.entries, 0u) << what;
    EXPECT_EQ(fresh->Stats().cache.restored, 0u) << what;
  };

  // Truncation at every kind of boundary, including an empty file and
  // losing just the final checksum byte.
  for (size_t len : {size_t{0}, size_t{7}, size_t{15}, size_t{23},
                     good.size() / 3, good.size() / 2, good.size() - 9,
                     good.size() - 1}) {
    expect_rejected(good.substr(0, len),
                    ("truncated to " + std::to_string(len)).c_str());
  }
  // Bad magic.
  {
    std::string bad = good;
    bad[0] ^= 0x5a;
    expect_rejected(bad, "bad magic");
  }
  // Version bump: the loader must refuse formats from the future.
  {
    std::string bad = good;
    bad[8] = static_cast<char>(kSnapshotVersion + 1);
    expect_rejected(bad, "version bump", "format version");
  }
  // Bit rot in the middle of the payload: caught by the checksum.
  {
    std::string bad = good;
    bad[good.size() / 2] ^= 0x01;
    expect_rejected(bad, "payload bit flip");
  }
  // The original bytes still load after all that (every tamper worked
  // on a copy).
  Workload ok_w;
  ok_w.options.num_threads = 1;
  auto ok_engine = MakeEngine(GetParam(), &ok_w);
  ASSERT_NE(ok_engine, nullptr);
  auto loaded = ok_engine->LoadSnapshotBytes(good);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_GT(loaded->restored, 0u);
}

/// Offset of the line count in a (possibly hostile) snapshot, found the
/// way the loader finds it: past the header and the string table.
/// nullopt when the bytes end first.
std::optional<size_t> LineCountOffset(std::string_view bytes) {
  size_t pos = sizeof(kSnapshotMagic) + 8;
  uint64_t num_strings = 0;
  if (!wire::GetU64(bytes, &pos, &num_strings)) return std::nullopt;
  for (uint64_t i = 0; i < num_strings; ++i) {
    uint64_t len = 0;
    std::string_view text;
    if (!wire::GetU64(bytes, &pos, &len) ||
        !wire::GetBytes(bytes, &pos, len, &text)) {
      return std::nullopt;
    }
  }
  return pos;
}

std::optional<uint64_t> LineCount(std::string_view bytes) {
  std::optional<size_t> pos = LineCountOffset(bytes);
  uint64_t num_lines = 0;
  if (!pos || !wire::GetU64(bytes, &*pos, &num_lines)) return std::nullopt;
  return num_lines;
}

/// Replaces the checksum trailer of `bytes` with a valid one.
std::string Reseal(std::string bytes) {
  bytes.resize(bytes.size() - 8);
  Fnv1aHasher h;
  for (char c : bytes) h.MixByte(static_cast<uint8_t>(c));
  wire::PutU64(bytes, h.digest());
  return bytes;
}

TEST(EngineSnapshotFuzzTest, HostileBytesBehindAValidChecksum) {
  // Every corruption case above dies at the checksum. Here each mutant
  // is re-sealed first, so the string- and line-table parser sees it:
  // a load must reject with a Status and an empty cache, or account for
  // every line the file claims — and never crash.
  constexpr int kMutants = 2000;
  Workload w;
  w.options.num_threads = 1;
  auto engine = MakeEngine(3, &w);
  ASSERT_NE(engine, nullptr);
  ServeAll(*engine, w, false, "populate");
  const std::string good = engine->SerializeSnapshot().bytes;
  const size_t header = sizeof(kSnapshotMagic) + 8;
  const size_t body_end = good.size() - 8;
  ASSERT_GT(body_end, header + 16);
  // The string count sits right after the header; the line count after
  // the string table.
  const size_t line_count_at = LineCountOffset(good).value();
  const uint64_t good_lines = LineCount(good).value();
  ASSERT_GT(good_lines, 0u);

  Rng rng(20260417);
  int rejected_files = 0;
  int loaded_files = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::string mutant = good;
    switch (rng.Below(4)) {
      case 0: {  // flip 1-4 bytes anywhere in the body
        const uint64_t flips = rng.Uniform(1, 4);
        for (uint64_t f = 0; f < flips; ++f) {
          mutant[rng.Uniform(header, body_end - 1)] ^=
              static_cast<char>(rng.Uniform(1, 255));
        }
        break;
      }
      case 1: {  // overwrite the string or line count with a hostile one
        const size_t at = rng.Percent(50) ? header : line_count_at;
        const uint64_t values[] = {0, 1, good_lines - 1, good_lines + 1,
                                   1ull << 32, ~0ull, rng.Next()};
        std::string field;
        wire::PutU64(field, values[rng.Below(std::size(values))]);
        mutant.replace(at, 8, field);
        break;
      }
      case 2:  // truncate inside the body (the trailer is re-added)
        mutant.resize(rng.Uniform(header, body_end - 1));
        mutant.append(8, '\0');
        break;
      default: {  // overwrite an 8-byte window with random bytes
        const size_t at = rng.Uniform(header, body_end - 8);
        std::string field;
        wire::PutU64(field, rng.Next());
        mutant.replace(at, 8, field);
        break;
      }
    }
    mutant = Reseal(std::move(mutant));

    Workload fresh_w;
    fresh_w.options.num_threads = 1;
    auto fresh = MakeEngine(3, &fresh_w);
    ASSERT_NE(fresh, nullptr);
    auto loaded = fresh->LoadSnapshotBytes(mutant);
    if (!loaded.ok()) {
      ++rejected_files;
      EXPECT_EQ(fresh->Stats().cache.entries, 0u) << "mutant " << m;
      continue;
    }
    ++loaded_files;
    const std::optional<uint64_t> lines = LineCount(mutant);
    ASSERT_TRUE(lines.has_value()) << "mutant " << m;
    EXPECT_EQ(loaded->restored + loaded->rejected, *lines) << "mutant " << m;
  }
  // The sweep must reach both the parser's error paths and its success
  // path.
  EXPECT_GT(rejected_files, 0);
  EXPECT_GT(loaded_files, 0);
}

TEST(EngineSnapshotValuePoolTest, ConstantsRemapAcrossDifferentPools) {
  // The loading pool interns other texts first, so every snapshot
  // constant lands on a different Value id than in the saving pool; the
  // string-table remap must still reproduce the same *texts*.
  auto build = [](bool skew) {
    Catalog cat;
    if (skew) {
      for (int i = 0; i < 10; ++i) cat.pool().Intern("skew" + std::to_string(i));
    }
    EXPECT_TRUE(cat.AddRelation("R", {"A", "B", "C"}).ok());
    return cat;
  };

  Catalog save_cat = build(false);
  Value lnd = save_cat.pool().Intern("LND");
  Value nyc = save_cat.pool().Intern("NYC");
  std::vector<CFD> sigma;
  auto cfd = CFD::Make(0, {0}, {PatternValue::Constant(lnd)}, 1,
                       PatternValue::Constant(nyc));
  ASSERT_TRUE(cfd.ok());
  sigma.push_back(*cfd);

  Engine save_engine(std::move(save_cat), EngineOptions{.num_threads = 1});
  ASSERT_TRUE(save_engine.RegisterSigma(sigma).ok());
  SPCView view;
  view.atoms = {0};
  view.selections = {};
  view.output = {OutputColumn::Projected("a", 0), OutputColumn::Projected("b", 1),
                 OutputColumn::Projected("c", 2)};
  auto served = save_engine.Propagate(view, 0);
  ASSERT_TRUE(served.ok()) << served.status();
  ASSERT_FALSE(served->cover->cover.empty());
  const std::string bytes = save_engine.SerializeSnapshot().bytes;

  Catalog load_cat = build(true);  // different interning order
  Value lnd2 = load_cat.pool().Intern("LND");
  Value nyc2 = load_cat.pool().Intern("NYC");
  ASSERT_NE(lnd2, lnd);
  std::vector<CFD> sigma2;
  auto cfd2 = CFD::Make(0, {0}, {PatternValue::Constant(lnd2)}, 1,
                        PatternValue::Constant(nyc2));
  ASSERT_TRUE(cfd2.ok());
  sigma2.push_back(*cfd2);
  Engine load_engine(std::move(load_cat), EngineOptions{.num_threads = 1});
  ASSERT_TRUE(load_engine.RegisterSigma(sigma2).ok());

  auto loaded = load_engine.LoadSnapshotBytes(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->restored, 1u);
  auto warm = load_engine.Propagate(view, 0);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  // Same covers by *text* (ids may differ between the pools).
  ASSERT_EQ(warm->cover->cover.size(), served->cover->cover.size());
  for (size_t i = 0; i < warm->cover->cover.size(); ++i) {
    EXPECT_EQ(warm->cover->cover[i].ToString(load_engine.catalog()),
              served->cover->cover[i].ToString(save_engine.catalog()))
        << "cover CFD " << i;
  }
}

TEST(SigmaVersionTest, FoldsRelationGroupsInFirstSeenOrder) {
  Catalog cat;
  ASSERT_TRUE(cat.AddRelation("R", {"A", "B", "C"}).ok());
  ASSERT_TRUE(cat.AddRelation("S", {"D", "E"}).ok());
  const CFD r1 = CFD::FD(0, {0}, 1).value();
  const CFD r2 = CFD::FD(0, {1}, 2).value();
  const CFD s1 = CFD::FD(1, {0}, 1).value();
  const ValuePool& pool = cat.pool();
  const SigmaVersion grouped = SigmaVersionOf(pool, {r1, r2, s1});

  // The fold of the groups' versions, groups in first-seen order...
  SigmaVersionFold fold;
  fold.Add(SigmaGroupVersion(pool, std::vector<CFD>{r1, r2}));
  fold.Add(SigmaGroupVersion(pool, std::vector<CFD>{s1}));
  EXPECT_EQ(grouped, fold.digest());
  // ...so an interleaved list versions like its grouped form, while the
  // order of the groups and the order within a group both count.
  EXPECT_EQ(SigmaVersionOf(pool, {r1, s1, r2}), grouped);
  EXPECT_NE(SigmaVersionOf(pool, {s1, r1, r2}), grouped);
  EXPECT_NE(SigmaVersionOf(pool, {r2, r1, s1}), grouped);
  EXPECT_NE(SigmaVersionOf(pool, {}), grouped);
}

TEST(EngineSnapshotEdgeTest, EmptyCacheRoundTrips) {
  // An empty cache serializes to a valid snapshot that restores zero
  // lines.
  Workload w;
  w.options.num_threads = 1;
  auto engine = MakeEngine(3, &w);
  ASSERT_NE(engine, nullptr);
  const SerializedSnapshot saved = engine->SerializeSnapshot();
  EXPECT_EQ(saved.lines, 0u);
  auto loaded = engine->LoadSnapshotBytes(saved.bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->restored, 0u);
  EXPECT_EQ(loaded->rejected, 0u);
}

/// A fresh snapshot directory for one service-level test, removed with
/// everything in it when the test ends.
class SnapshotDir {
 public:
  explicit SnapshotDir(const char* name)
      : path_(::testing::TempDir() + "cfdprop_" + name + "_" +
              std::to_string(::getpid())) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~SnapshotDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The deployment of `seed` (MakeEngine's, one Σ) opened as tenant "t"
/// of `service`; nullptr (with a test failure) when the open fails.
TenantHandle OpenTenant(CatalogService& service, uint64_t seed,
                        Workload* w) {
  Catalog cat = DeploymentCatalog(seed);
  std::vector<CFD> sigma = DeploymentSigma(cat, seed + 1);
  auto tenant = service.OpenCatalog("t", std::move(cat), {std::move(sigma)});
  EXPECT_TRUE(tenant.ok()) << tenant.status();
  if (!tenant.ok() || !AddViews((*tenant)->engine().catalog(), seed, w)) {
    return nullptr;
  }
  return *tenant;
}

ServiceOptions SpillingOptions(const SnapshotDir& dir) {
  ServiceOptions options;
  options.snapshot_dir = dir.path();
  options.engine.num_threads = 1;
  return options;
}

TEST(ServiceSnapshotFileTest, MissingFileOpensColdAndEmptyCacheRoundTrips) {
  const SnapshotDir dir("missing");
  CatalogService service(SpillingOptions(dir));
  Workload w;
  TenantHandle tenant = OpenTenant(service, 3, &w);
  ASSERT_NE(tenant, nullptr);
  // No file yet: the open is cold, and a missing file is no rejection.
  EXPECT_TRUE(tenant->snapshot_rejection().ok())
      << tenant->snapshot_rejection();
  EXPECT_EQ(tenant->engine().Stats().cache.restored, 0u);

  // An empty cache spills to a valid file that restores zero lines.
  auto spilled = service.SpillTenant("t");
  ASSERT_TRUE(spilled.ok()) << spilled.status();
  EXPECT_EQ(*spilled, 0u);
  ASSERT_TRUE(service.DropCatalog("t").ok());
  Workload again_w;
  TenantHandle again = OpenTenant(service, 3, &again_w);
  ASSERT_NE(again, nullptr);
  EXPECT_TRUE(again->snapshot_rejection().ok()) << again->snapshot_rejection();
  EXPECT_EQ(again->engine().Stats().cache.restored, 0u);
  EXPECT_EQ(again->engine().Stats().cache.rejected, 0u);
}

TEST(ServiceSnapshotFileTest, ConcurrentSpillsToOnePathAllSucceed) {
  // Regression: the snapshot writer used a fixed `path + ".tmp"` staging
  // file, so two concurrent spills to one path raced — one rename could
  // publish the other's half-written bytes, or fail outright on the
  // vanished tmp. Staging names are writer-unique, so every spill must
  // succeed and the survivor must be one complete snapshot. The writers
  // are four services sharing one directory (one service serializes
  // its own tenant's spills), each holding the same deployment.
  const SnapshotDir dir("concurrent");
  constexpr int kThreads = 4;
  constexpr int kSavesPerThread = 8;
  std::vector<std::unique_ptr<CatalogService>> services;
  uint64_t entries = 0;
  for (int t = 0; t < kThreads; ++t) {
    services.push_back(
        std::make_unique<CatalogService>(SpillingOptions(dir)));
    Workload w;
    TenantHandle tenant = OpenTenant(*services.back(), 17, &w);
    ASSERT_NE(tenant, nullptr);
    ServeAll(tenant->engine(), w, false, "warmup");
    entries = tenant->engine().Stats().cache.entries;
  }
  std::vector<Status> failures[kThreads];
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kSavesPerThread; ++i) {
          auto saved = services[t]->SpillTenant("t");
          if (!saved.ok()) failures[t].push_back(saved.status());
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (const Status& s : failures[t]) {
      ADD_FAILURE() << "thread " << t << ": " << s;
    }
  }
  // Closing the writers flushes nothing new: none is dirty since its
  // last spill.
  services.clear();

  // Whichever spill won the last rename, the published file is whole.
  CatalogService warm(SpillingOptions(dir));
  Workload warm_w;
  TenantHandle tenant = OpenTenant(warm, 17, &warm_w);
  ASSERT_NE(tenant, nullptr);
  EXPECT_TRUE(tenant->snapshot_rejection().ok())
      << tenant->snapshot_rejection();
  const CacheStats loaded = tenant->engine().Stats().cache;
  EXPECT_EQ(loaded.restored, entries);
  EXPECT_GT(loaded.restored, 0u);
  EXPECT_EQ(loaded.rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineSnapshotTest,
                         ::testing::Values(3u, 17u, 99u));

}  // namespace
}  // namespace cfdprop
