// Snapshot round-trip and corruption tests for the persistent cover
// cache (src/engine/snapshot.h).
//
// Round trips run on randomized generator workloads (the
// engine_differential_test setup): a cold engine serves every view,
// spills its cache, and a fresh engine restored from the file must
// serve every request as a cache hit with a byte-identical cover.
// Corruption tests mangle the file every way a disk can — truncation
// at every boundary, bad magic, a version bump, bit rot — and demand a
// clean rejection: an error Status, an untouched cache, no crash. A
// seeded sweep then re-seals hostile mutants behind a valid checksum so
// the line-table parser itself sees them (the suite also runs under the
// ASan/TSan/UBSan CI matrix).

#include <cstdio>
#include <unistd.h>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
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
/// views are all deterministic in the seed, so two MakeEngine calls
/// with one seed model "the same deployment restarted".
std::unique_ptr<Engine> MakeEngine(uint64_t seed, Workload* w,
                                   SecondSigma second = SecondSigma::kNone) {
  SchemaGenOptions so;
  so.num_relations = 4;
  so.min_arity = 6;
  so.max_arity = 8;
  Catalog cat = GenerateSchema(so, seed);

  CFDGenOptions co;
  co.count = 32;
  co.min_lhs = 1;
  co.max_lhs = 3;
  std::vector<CFD> sigma = GenerateCFDs(cat, co, seed + 1);
  std::vector<CFD> other;
  if (second != SecondSigma::kNone) other = GenerateCFDs(cat, co, seed + 2);

  auto engine = std::make_unique<Engine>(std::move(cat), w->options);
  if (second == SecondSigma::kBefore) {
    EXPECT_TRUE(engine->RegisterSigma(other).ok());
  }
  EXPECT_TRUE(engine->RegisterSigma(std::move(sigma)).ok());
  if (second == SecondSigma::kAfter) {
    EXPECT_TRUE(engine->RegisterSigma(other).ok());
  }

  ViewGenOptions vo;
  vo.num_projection = 5;
  vo.num_selections = 3;
  vo.num_atoms = 2;
  for (size_t i = 0; i < 6; ++i) {
    auto v = GenerateSPCView(engine->catalog(), vo, seed + 10 + i);
    EXPECT_TRUE(v.ok()) << v.status();
    if (!v.ok()) return nullptr;
    w->spc_views.push_back(std::move(v).value());
  }
  for (size_t i = 0; i + 1 < w->spc_views.size(); i += 2) {
    SPCUView u;
    u.disjuncts = {w->spc_views[i], w->spc_views[i + 1]};
    EXPECT_TRUE(u.Validate(engine->catalog()).ok());
    w->spcu_views.push_back(std::move(u));
  }
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

std::string SnapshotPath(const char* name) {
  return ::testing::TempDir() + "cfdprop_" + name + "_" +
         std::to_string(::getpid()) + ".ccsnap";
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good()) << path;
}

class EngineSnapshotTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineSnapshotTest, WarmRestartServesByteIdenticalCovers) {
  const std::string path = SnapshotPath("roundtrip");
  Workload cold_w;
  cold_w.options.num_threads = 1;
  auto cold = MakeEngine(GetParam(), &cold_w);
  ASSERT_NE(cold, nullptr);
  auto cold_covers = ServeAll(*cold, cold_w, false, "cold");

  auto saved = cold->SaveSnapshot(path);
  ASSERT_TRUE(saved.ok()) << saved.status();
  EXPECT_EQ(*saved, cold->Stats().cache.entries);
  EXPECT_GT(*saved, 0u);

  // "Restart": a fresh engine built from the same deployment spec.
  Workload warm_w;
  warm_w.options.num_threads = 1;
  auto warm = MakeEngine(GetParam(), &warm_w);
  ASSERT_NE(warm, nullptr);
  auto loaded = warm->LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->restored, *saved);
  EXPECT_EQ(loaded->rejected, 0u);
  EXPECT_EQ(warm->Stats().cache.restored, *saved);

  // Every request is a hit, and every cover is byte-identical to what
  // the cold process computed.
  auto warm_covers = ServeAll(*warm, warm_w, true, "warm");
  ASSERT_EQ(warm_covers.size(), cold_covers.size());
  for (size_t i = 0; i < cold_covers.size(); ++i) {
    EXPECT_EQ(warm_covers[i], cold_covers[i]) << "request " << i;
  }
  EXPECT_EQ(warm->Stats().cache.misses, 0u);
  std::remove(path.c_str());
}

TEST_P(EngineSnapshotTest, SaveLoadSaveIsByteIdentical) {
  // Serialize -> deserialize -> serialize must reproduce the file
  // bit-for-bit: lines are sorted and the string table is first-use
  // ordered, so equal cache content means equal bytes — the property
  // that makes the CI persistence diff meaningful.
  const std::string path1 = SnapshotPath("bytes1");
  const std::string path2 = SnapshotPath("bytes2");
  Workload w1, w2;
  w1.options.num_threads = 1;
  w2.options.num_threads = 1;
  auto a = MakeEngine(GetParam(), &w1);
  auto b = MakeEngine(GetParam(), &w2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ServeAll(*a, w1, false, "populate");

  ASSERT_TRUE(a->SaveSnapshot(path1).ok());
  auto loaded = b->LoadSnapshot(path1);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(b->SaveSnapshot(path2).ok());
  EXPECT_EQ(ReadFile(path1), ReadFile(path2));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST_P(EngineSnapshotTest, ChurnedAndRevertedSigmaStillRestores) {
  // AddCfd + RetractCfd back to the registered content: the minimized
  // set — and so its version — is the registration-time one again. A
  // restart that only registered the set must restore every line.
  const std::string path = SnapshotPath("churned");
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
  auto saved = engine->SaveSnapshot(path);
  ASSERT_TRUE(saved.ok()) << saved.status();

  Workload warm_w;
  warm_w.options.num_threads = 1;
  auto warm = MakeEngine(GetParam(), &warm_w);
  ASSERT_NE(warm, nullptr);
  ASSERT_EQ(warm->sigma_version(0), registered);
  auto loaded = warm->LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->restored, *saved);
  EXPECT_EQ(loaded->rejected, 0u);
  auto warm_covers = ServeAll(*warm, warm_w, true, "warm");
  EXPECT_EQ(warm_covers, covers);
  std::remove(path.c_str());
}

TEST_P(EngineSnapshotTest, RestoresWhateverTheRegistrationOrder) {
  // Lines carry their Σ version, not a registration slot: a loader that
  // registers the same two Σ sets in the opposite order restores every
  // line and serves only hits.
  const std::string path = SnapshotPath("order");
  Workload cold_w;
  cold_w.options.num_threads = 1;
  auto cold = MakeEngine(GetParam(), &cold_w, SecondSigma::kAfter);
  ASSERT_NE(cold, nullptr);
  auto first = ServeAll(*cold, cold_w, false, "cold first", 0);
  auto second = ServeAll(*cold, cold_w, false, "cold second", 1);
  auto saved = cold->SaveSnapshot(path);
  ASSERT_TRUE(saved.ok()) << saved.status();

  Workload warm_w;
  warm_w.options.num_threads = 1;
  auto warm = MakeEngine(GetParam(), &warm_w, SecondSigma::kBefore);
  ASSERT_NE(warm, nullptr);
  auto loaded = warm->LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->restored, *saved);
  EXPECT_EQ(loaded->rejected, 0u);
  EXPECT_EQ(ServeAll(*warm, warm_w, true, "warm first", 1), first);
  EXPECT_EQ(ServeAll(*warm, warm_w, true, "warm second", 0), second);
  EXPECT_EQ(warm->Stats().cache.misses, 0u);
  std::remove(path.c_str());
}

TEST_P(EngineSnapshotTest, ChangedSigmaRejectsEveryLine) {
  const std::string path = SnapshotPath("mismatch");
  Workload w;
  w.options.num_threads = 1;
  auto engine = MakeEngine(GetParam(), &w);
  ASSERT_NE(engine, nullptr);
  ServeAll(*engine, w, false, "populate");
  auto saved = engine->SaveSnapshot(path);
  ASSERT_TRUE(saved.ok());

  // A different seed registers a different sigma over a same-shaped
  // schema: content fingerprints differ, so nothing may restore.
  Workload other_w;
  other_w.options.num_threads = 1;
  auto other = MakeEngine(GetParam() + 7777, &other_w);
  ASSERT_NE(other, nullptr);
  const size_t pool_size_before = other->catalog().pool().size();
  auto loaded = other->LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->restored, 0u);
  EXPECT_EQ(loaded->rejected, *saved);
  EXPECT_EQ(other->Stats().cache.entries, 0u);
  EXPECT_EQ(other->Stats().cache.rejected, *saved);
  // Rejected lines intern nothing: the append-only pool is unpolluted.
  EXPECT_EQ(other->catalog().pool().size(), pool_size_before);
  std::remove(path.c_str());
}

TEST_P(EngineSnapshotTest, CorruptFilesRejectCleanlyWithoutRestoring) {
  const std::string path = SnapshotPath("corrupt");
  Workload w;
  w.options.num_threads = 1;
  auto engine = MakeEngine(GetParam(), &w);
  ASSERT_NE(engine, nullptr);
  ServeAll(*engine, w, false, "populate");
  ASSERT_TRUE(engine->SaveSnapshot(path).ok());
  const std::string good = ReadFile(path);
  ASSERT_GT(good.size(), 24u);

  auto expect_rejected = [&](const std::string& bytes, const char* what) {
    WriteFile(path, bytes);
    Workload fresh_w;
    fresh_w.options.num_threads = 1;
    auto fresh = MakeEngine(GetParam(), &fresh_w);
    ASSERT_NE(fresh, nullptr);
    auto loaded = fresh->LoadSnapshot(path);
    EXPECT_FALSE(loaded.ok()) << what;
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
    expect_rejected(bad, "version bump");
  }
  // Bit rot in the middle of the payload: caught by the checksum.
  {
    std::string bad = good;
    bad[good.size() / 2] ^= 0x01;
    expect_rejected(bad, "payload bit flip");
  }
  // The original bytes still load after all that (the tamper helper
  // rewrote the file each time).
  WriteFile(path, good);
  Workload ok_w;
  ok_w.options.num_threads = 1;
  auto ok_engine = MakeEngine(GetParam(), &ok_w);
  ASSERT_NE(ok_engine, nullptr);
  auto loaded = ok_engine->LoadSnapshot(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_GT(loaded->restored, 0u);
  std::remove(path.c_str());
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
  const std::string path = SnapshotPath("pools");
  ASSERT_TRUE(save_engine.SaveSnapshot(path).ok());

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

  auto loaded = load_engine.LoadSnapshot(path);
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
  std::remove(path.c_str());
}

TEST(EngineSnapshotEdgeTest, MissingFileIsNotFoundAndEmptyCacheRoundTrips) {
  Workload w;
  w.options.num_threads = 1;
  auto engine = MakeEngine(3, &w);
  ASSERT_NE(engine, nullptr);
  auto missing = engine->LoadSnapshot(SnapshotPath("does_not_exist"));
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // An empty cache snapshots to a valid file that restores zero lines.
  const std::string path = SnapshotPath("empty");
  auto saved = engine->SaveSnapshot(path);
  ASSERT_TRUE(saved.ok()) << saved.status();
  EXPECT_EQ(*saved, 0u);
  auto loaded = engine->LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->restored, 0u);
  EXPECT_EQ(loaded->rejected, 0u);
  std::remove(path.c_str());
}

TEST(EngineSnapshotEdgeTest, ConcurrentSavesToOnePathAllSucceed) {
  // Regression: SaveSnapshot used a fixed `path + ".tmp"` staging file,
  // so two concurrent spills of the same tenant raced — one rename
  // could publish the other's half-written bytes, or fail outright on
  // the vanished tmp. Staging names are now writer-unique, so every
  // save must succeed and the survivor must be one complete snapshot.
  Workload w;
  w.options.num_threads = 1;
  auto engine = MakeEngine(17, &w);
  ASSERT_NE(engine, nullptr);
  ServeAll(*engine, w, false, "warmup");

  const std::string path = SnapshotPath("concurrent");
  constexpr int kThreads = 4;
  constexpr int kSavesPerThread = 8;
  std::vector<Status> failures[kThreads];
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kSavesPerThread; ++i) {
          auto saved = engine->SaveSnapshot(path);
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

  // Whichever save won the last rename, the published file is whole.
  Workload warm_w;
  warm_w.options.num_threads = 1;
  auto warm = MakeEngine(17, &warm_w);
  ASSERT_NE(warm, nullptr);
  auto loaded = warm->LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->restored, engine->Stats().cache.entries);
  EXPECT_GT(loaded->restored, 0u);
  EXPECT_EQ(loaded->rejected, 0u);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineSnapshotTest,
                         ::testing::Values(3u, 17u, 99u));

}  // namespace
}  // namespace cfdprop
