// Allocation budget of the engine's miss path: PropagationCoverSPC on a
// minimized Σ with input_mincover off. This binary replaces the global
// operator new with a counting one, so the test sees every heap
// allocation a call makes, its result's included. The budget catches a
// by-value copy of Σ or of the intermediate covers creeping back in.
//
// Under ASan and TSan the sanitizer runtime owns operator new, so the
// replacement is compiled out there and the test skips.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "src/cover/propcfd_spc.h"
#include "src/gen/workload.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CFDPROP_SANITIZER_OWNS_NEW 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CFDPROP_SANITIZER_OWNS_NEW 1
#endif
#endif

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

#ifndef CFDPROP_SANITIZER_OWNS_NEW

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif

namespace cfdprop {
namespace {

// Passing Σ by value and copying Γ inside RBR made 644 allocations per
// call here; the budget is half of that.
constexpr double kMaxMeanAllocations = 322;

TEST(PropCfdAllocTest, ZipfOpenMissPathStaysWithinBudget) {
#ifdef CFDPROP_SANITIZER_OWNS_NEW
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#endif
  // zipf-open's generator sizes (|Σ| = 120, 96 views), tenant 0.
  gen::WorkloadPlan plan;
  plan.options.seed = 1;
  plan.options.num_cfds = 120;
  plan.options.num_views = 96;
  Spec spec = gen::BuildTenantSpec(plan, 0);
  auto sigma = MinCoverSigma(spec.catalog, spec.source_cfds);
  ASSERT_TRUE(sigma.ok()) << sigma.status();
  PropCoverOptions options;
  options.input_mincover = false;  // as the engine: minimized once

  uint64_t total = 0;
  size_t calls = 0;
  for (const std::string& name : spec.view_names) {
    const SPCView& view = spec.views.at(name).disjuncts.front();
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    {
      auto r = PropagationCoverSPC(spec.catalog, view, *sigma, options);
      ASSERT_TRUE(r.ok()) << name << ": " << r.status();
    }
    total += g_allocations.load(std::memory_order_relaxed) - before;
    ++calls;
  }
  ASSERT_GT(calls, 0u);
  const double mean = static_cast<double>(total) / calls;
  RecordProperty("mean_allocations", std::to_string(mean));
  EXPECT_LE(mean, kMaxMeanAllocations) << "over " << calls << " views";
}

}  // namespace
}  // namespace cfdprop
