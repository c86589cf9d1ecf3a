// Allocation bound of the wire decoders under hostile counts. Each case
// is a payload whose count field claims one element per remaining byte
// — far more than the bytes could hold once every element needs at
// least its smallest encoding. The decoder must reject it with
// InvalidArgument before the count sizes an allocation: no single heap
// allocation during the decode may exceed the payload's own size. (A
// reserve() of the claimed count would allocate count × sizeof(element),
// 120 B per byte for a SUBMIT_BATCH reply's results; on a 16 MiB frame
// that is a 1.9 GiB request that throws std::bad_alloc instead.)
//
// This binary replaces the global operator new with one that records
// the largest request. Under ASan and TSan the sanitizer runtime owns
// operator new, so the replacement is compiled out there and the test
// skips.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>

#include "src/base/wire.h"
#include "src/net/wire_protocol.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CFDPROP_SANITIZER_OWNS_NEW 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CFDPROP_SANITIZER_OWNS_NEW 1
#endif
#endif

namespace {

std::atomic<size_t> g_largest_allocation{0};

}  // namespace

#ifndef CFDPROP_SANITIZER_OWNS_NEW

void* operator new(std::size_t size) {
  size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_allocation.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
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
namespace net {
namespace {

constexpr size_t kPayloadBytes = 64 * 1024;

/// `prefix`, then a u64 count claiming one element per byte that
/// follows it, then zeros up to kPayloadBytes.
std::string ClaimOnePerRemainingByte(std::string prefix) {
  const size_t count = kPayloadBytes - prefix.size() - 8;
  wire::PutU64(prefix, count);
  prefix.resize(kPayloadBytes, '\0');
  return prefix;
}

std::string OkStatus() {
  std::string out;
  EncodeStatus(out, Status::OK());
  return out;
}

/// An OK reply status, an empty string table, one OK batch.
std::string ReplyWithOneOkBatch() {
  std::string out = OkStatus();
  wire::PutU64(out, 0);  // string table
  wire::PutU64(out, 1);  // batches
  out += OkStatus();
  return out;
}

TEST(WireDecodeAllocTest, HostileCountsRejectBeforeSizingAnAllocation) {
#ifdef CFDPROP_SANITIZER_OWNS_NEW
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#endif
  std::string tenant;
  wire::PutU32(tenant, 2);
  tenant += "eu";
  std::string one_batch = tenant;
  wire::PutU64(one_batch, 1);

  std::string cover_result = ReplyWithOneOkBatch();
  wire::PutU64(cover_result, 1);  // results
  cover_result += OkStatus();
  wire::PutU64(cover_result, 7);  // fingerprint
  wire::PutU8(cover_result, 0);   // cache_hit
  wire::PutU64(cover_result, 0);  // disjunct_hits
  wire::PutU64(cover_result, 0);  // disjunct_count
  wire::PutU8(cover_result, 0);   // cover flags

  ValuePool pool;
  struct Case {
    const char* what;
    std::string payload;
    std::function<Status(std::string_view)> decode;
  };
  auto request = [](std::string_view p) {
    return DecodeSubmitBatchRequest(p).status();
  };
  auto reply = [&pool](std::string_view p) {
    return DecodeSubmitBatchReply(p, pool).status();
  };
  auto trace = [](std::string_view p) {
    return DecodeTraceDumpReply(p).status();
  };
  const Case cases[] = {
      {"request batch count", ClaimOnePerRemainingByte(tenant), request},
      {"request view count", ClaimOnePerRemainingByte(one_batch), request},
      {"reply string count", ClaimOnePerRemainingByte(OkStatus()), reply},
      {"reply batch count",
       ClaimOnePerRemainingByte(OkStatus() + std::string(8, '\0')), reply},
      {"reply result count", ClaimOnePerRemainingByte(ReplyWithOneOkBatch()),
       reply},
      {"reply cover CFD count", ClaimOnePerRemainingByte(cover_result),
       reply},
      {"trace-dump string count", ClaimOnePerRemainingByte(OkStatus()),
       trace},
      {"trace-dump span count",
       ClaimOnePerRemainingByte(OkStatus() + std::string(8, '\0')), trace},
  };
  for (const Case& c : cases) {
    ASSERT_EQ(c.payload.size(), kPayloadBytes) << c.what;
    g_largest_allocation.store(0, std::memory_order_relaxed);
    const Status decoded = c.decode(c.payload);
    const size_t largest =
        g_largest_allocation.load(std::memory_order_relaxed);
    EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument)
        << c.what << ": " << decoded;
    EXPECT_LE(largest, kPayloadBytes) << c.what;
  }
}

}  // namespace
}  // namespace net
}  // namespace cfdprop
