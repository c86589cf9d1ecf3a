// Wire-protocol unit tests and the corruption battery (the network
// sibling of the snapshot one in engine_snapshot_test.cc): every
// malformed byte stream — truncations at each structural boundary, bad
// magic, a future version, an oversized length prefix, bit flips under
// the checksum — must surface as a clean Status, and a CoverServer fed
// such bytes must drop that connection only, never stop serving.

#include "src/net/wire_protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/net/cover_client.h"
#include "src/net/cover_server.h"
#include "src/net/socket_io.h"
#include "src/obs/exporter.h"
#include "src/parser/parser.h"

namespace cfdprop {
namespace net {
namespace {

constexpr char kSpecText[] = R"(
relation T(region, cust, tier, rep)

cfd T: [region] -> rep
cfd T: [tier] -> rep

view ByRegion = pi("r" as tag, 0.region as region, 0.rep as rep) from(T)
view GoldReps = pi("g" as tag, 0.cust as cust, 0.rep as rep) sigma(0.tier = "gold") from(T)
)";

TEST(WireProtocolTest, FrameRoundTrip) {
  const std::string payload = "hello, covers";
  std::string frame = EncodeFrame(FrameType::kMetrics, payload);
  EXPECT_EQ(frame.size(),
            kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);

  auto header = DecodeFrameHeader(frame);
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->type, FrameType::kMetrics);
  EXPECT_EQ(header->payload_len, payload.size());

  auto verified = VerifyFrame(frame);
  ASSERT_TRUE(verified.ok()) << verified.status();
  EXPECT_EQ(*verified, payload);

  // An empty payload is a legal frame (metrics/shutdown requests).
  auto empty = VerifyFrame(EncodeFrame(FrameType::kShutdown, ""));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(WireProtocolTest, CorruptionBattery) {
  const std::string frame = EncodeFrame(FrameType::kSubmitBatch, "payload!");

  // Truncation at every structural boundary (and a few mid-field).
  for (size_t cut : {size_t{0}, size_t{3}, size_t{7}, size_t{8}, size_t{12},
                     kFrameHeaderBytes, kFrameHeaderBytes + 4,
                     frame.size() - kFrameTrailerBytes, frame.size() - 1}) {
    std::string t = frame.substr(0, cut);
    if (cut < kFrameHeaderBytes) {
      EXPECT_FALSE(DecodeFrameHeader(t).ok()) << "cut at " << cut;
    }
    EXPECT_FALSE(VerifyFrame(t).ok()) << "cut at " << cut;
  }

  // Bad magic.
  {
    std::string t = frame;
    t[0] = 'X';
    auto r = DecodeFrameHeader(t);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("magic"), std::string::npos);
  }
  // Future version.
  {
    std::string t = frame;
    t[4] = 0x7f;
    auto r = DecodeFrameHeader(t);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("version"), std::string::npos);
  }
  // Unknown frame type.
  {
    std::string t = frame;
    t[8] = 0x3f;
    EXPECT_FALSE(DecodeFrameHeader(t).ok());
  }
  // Oversized length prefix: rejected straight from the header, before
  // any reader would size a buffer by it.
  {
    std::string t = frame;
    t[9] = static_cast<char>(0xff);
    t[10] = static_cast<char>(0xff);
    t[11] = static_cast<char>(0xff);
    t[12] = static_cast<char>(0xff);
    auto r = DecodeFrameHeader(t);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("frame bound"), std::string::npos);
  }
  // Bit flips in the payload and in the checksum itself.
  for (size_t at : {kFrameHeaderBytes + 1, frame.size() - 1}) {
    std::string t = frame;
    t[at] = static_cast<char>(t[at] ^ 0x40);
    auto r = VerifyFrame(t);
    ASSERT_FALSE(r.ok()) << "flip at " << at;
    EXPECT_NE(r.status().message().find("checksum"), std::string::npos);
  }
  // Length understating the payload: byte count and header disagree.
  {
    std::string t = frame;
    t[9] = 1;
    EXPECT_FALSE(VerifyFrame(t).ok());
  }
}

TEST(WireProtocolTest, StatusCodesSurviveTheTrip) {
  const Status statuses[] = {
      Status::OK(),
      Status::InvalidArgument("bad"),
      Status::NotFound("missing"),
      Status::Inconsistent("contradiction"),
      Status::ResourceExhausted("over cap"),
      Status::Unsupported("not here"),
      Status::Internal("bug"),
      Status::DeadlineExceeded("slow peer"),
  };
  for (const Status& s : statuses) {
    std::string bytes;
    EncodeStatus(bytes, s);
    size_t pos = 0;
    Status decoded;
    ASSERT_TRUE(DecodeStatus(bytes, &pos, &decoded));
    EXPECT_EQ(pos, bytes.size());
    EXPECT_EQ(decoded.code(), s.code());
    EXPECT_EQ(decoded.message(), s.message());
  }
  // Truncated status bytes fail the bounds check, never read past.
  std::string bytes;
  EncodeStatus(bytes, Status::NotFound("missing"));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    size_t pos = 0;
    Status decoded;
    EXPECT_FALSE(DecodeStatus(bytes.substr(0, cut), &pos, &decoded));
  }
}

TEST(WireProtocolTest, RequestCodecsRoundTrip) {
  OpenCatalogRequest open{"eu", "relation R(a, b)\n"};
  auto open2 = DecodeOpenCatalogRequest(EncodeOpenCatalogRequest(open));
  ASSERT_TRUE(open2.ok());
  EXPECT_EQ(open2->tenant, open.tenant);
  EXPECT_EQ(open2->spec_text, open.spec_text);

  SubmitBatchRequest submit;
  submit.tenant = "eu";
  submit.batches = {{"V1", "V2"}, {}, {"V1"}};
  auto submit2 = DecodeSubmitBatchRequest(EncodeSubmitBatchRequest(submit));
  ASSERT_TRUE(submit2.ok());
  EXPECT_EQ(submit2->tenant, submit.tenant);
  EXPECT_EQ(submit2->batches, submit.batches);

  // Truncation sweep over the submit request.
  const std::string bytes = EncodeSubmitBatchRequest(submit);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeSubmitBatchRequest(bytes.substr(0, cut)).ok());
  }
}

TEST(WireProtocolTest, TraceBlockRoundTripsThroughSubmitRequests) {
  SubmitBatchRequest request;
  request.tenant = "eu";
  request.batches = {{"ByRegion"}};

  // Absent (trace_id == 0): the block is one flag byte and decodes back
  // to an empty context.
  {
    const std::string bytes = EncodeSubmitBatchRequest(request);
    auto decoded = DecodeSubmitBatchRequest(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->trace.trace_id, 0u);
    EXPECT_EQ(decoded->trace.parent_span_id, 0u);
    EXPECT_FALSE(decoded->trace.sampled);

    // Present-unsampled costs exactly the two ids over the flag byte.
    SubmitBatchRequest traced = request;
    traced.trace.trace_id = 0x1111222233334444ull;
    EXPECT_EQ(EncodeSubmitBatchRequest(traced).size(), bytes.size() + 16);
  }

  // Present, unsampled and sampled: ids and the flag survive the trip.
  for (bool sampled : {false, true}) {
    request.trace.trace_id = 0xa1b2c3d4e5f60718ull;
    request.trace.parent_span_id = 0x1122334455667788ull;
    request.trace.sampled = sampled;
    auto decoded = DecodeSubmitBatchRequest(EncodeSubmitBatchRequest(request));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->trace.trace_id, request.trace.trace_id);
    EXPECT_EQ(decoded->trace.parent_span_id, request.trace.parent_span_id);
    EXPECT_EQ(decoded->trace.sampled, sampled);
    EXPECT_EQ(decoded->batches, request.batches);
  }
}

TEST(WireProtocolTest, TraceBlockCorruptionBattery) {
  SubmitBatchRequest request;
  request.tenant = "eu";
  request.batches = {{"ByRegion"}};
  request.trace.trace_id = 0xa1b2c3d4e5f60718ull;
  request.trace.parent_span_id = 0x1122334455667788ull;
  request.trace.sampled = true;
  const std::string bytes = EncodeSubmitBatchRequest(request);

  // Truncation at every byte of the trace block (flag + 2 x u64 at the
  // payload tail) must surface as a clean Malformed status.
  for (size_t cut = bytes.size() - 17; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeSubmitBatchRequest(bytes.substr(0, cut)).ok())
        << "cut at " << cut;
  }

  // An unknown flag value is refused.
  {
    std::string t = bytes;
    t[bytes.size() - 17] = 3;
    EXPECT_FALSE(DecodeSubmitBatchRequest(t).ok());
  }

  // flag=present with a zero trace id is contradictory (zero means "no
  // trace") and refused rather than smuggled through.
  {
    std::string t = bytes;
    for (size_t i = bytes.size() - 16; i < bytes.size() - 8; ++i) t[i] = 0;
    EXPECT_FALSE(DecodeSubmitBatchRequest(t).ok());
  }

  // Trailing garbage after a complete trace block is refused.
  EXPECT_FALSE(DecodeSubmitBatchRequest(bytes + '\0').ok());
}

TEST(WireProtocolTest, TraceDumpRoundTrip) {
  // The request must be empty; anything else is malformed.
  EXPECT_TRUE(DecodeTraceDumpRequest("").ok());
  EXPECT_FALSE(DecodeTraceDumpRequest("x").ok());

  std::vector<obs::SpanRecord> spans;
  for (int i = 0; i < 3; ++i) {
    obs::SpanRecord span;
    span.trace_id = 0x1000 + static_cast<uint64_t>(i / 2);
    span.span_id = 0x2000 + static_cast<uint64_t>(i);
    span.parent_id = i == 0 ? 0 : 0x2000;
    span.start_us = 100 + static_cast<uint64_t>(i);
    span.dur_us = 50;
    span.name = i == 0 ? "rpc" : "compute";  // repeats share a table slot
    span.tenant = "eu";
    span.annot = i == 2 ? "hits=4,misses=1" : "";
    span.shard = i;
    span.slow = i == 1;
    spans.push_back(span);
  }

  const std::string payload = EncodeTraceDumpReply(Status::OK(), spans);
  auto decoded = DecodeTraceDumpReply(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ((*decoded)[i].trace_id, spans[i].trace_id) << i;
    EXPECT_EQ((*decoded)[i].span_id, spans[i].span_id) << i;
    EXPECT_EQ((*decoded)[i].parent_id, spans[i].parent_id) << i;
    EXPECT_EQ((*decoded)[i].start_us, spans[i].start_us) << i;
    EXPECT_EQ((*decoded)[i].dur_us, spans[i].dur_us) << i;
    EXPECT_EQ((*decoded)[i].name, spans[i].name) << i;
    EXPECT_EQ((*decoded)[i].tenant, spans[i].tenant) << i;
    EXPECT_EQ((*decoded)[i].annot, spans[i].annot) << i;
    EXPECT_EQ((*decoded)[i].shard, spans[i].shard) << i;
    EXPECT_EQ((*decoded)[i].slow, spans[i].slow) << i;
  }

  // Determinism: equal span sets encode to equal bytes (the string
  // table is first-use ordered, not hash ordered).
  EXPECT_EQ(payload, EncodeTraceDumpReply(Status::OK(), spans));

  // An empty dump is a legal reply.
  auto empty = DecodeTraceDumpReply(EncodeTraceDumpReply(Status::OK(), {}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  // A non-OK reply decodes to its typed status.
  auto failed = DecodeTraceDumpReply(
      EncodeTraceDumpReply(Status::Unavailable("draining"), {}));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);

  // Truncation sweep: every prefix is refused cleanly.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(DecodeTraceDumpReply(payload.substr(0, cut)).ok())
        << "cut at " << cut;
  }

  // A span whose string index points past the table is refused (the
  // last 4 payload bytes are span 2's annot index).
  {
    std::string t = payload;
    t[t.size() - 4] = '\x7f';
    EXPECT_FALSE(DecodeTraceDumpReply(t).ok());
  }
}

TEST(WireProtocolTest, SubmitReplyCoversRemapAcrossPools) {
  // Server side: a cover whose CFDs carry pattern constants.
  Catalog server_cat;
  ASSERT_TRUE(server_cat.AddRelation("R", {"A", "B"}).ok());
  const Value lion = server_cat.pool().Intern("lion");
  const Value puma = server_cat.pool().Intern("puma");

  CFD cfd;
  cfd.relation = 0;
  cfd.lhs = {0};
  cfd.lhs_pats = {PatternValue::Constant(lion)};
  cfd.rhs = 1;
  cfd.rhs_pat = PatternValue::Constant(puma);

  EngineResult result;
  result.fingerprint = 0xfeedfacecafebeefull;
  result.cache_hit = true;
  result.disjunct_hits = 2;
  result.disjunct_count = 3;
  auto cover = std::make_shared<CachedCover>();
  cover->cover = {cfd};
  cover->truncated = true;
  result.cover = cover;

  std::vector<WireBatchResult> batches(2);
  batches[0].results.emplace_back(result);
  batches[0].results.emplace_back(Status::Internal("request blew up"));
  batches[1].status = Status::ResourceExhausted("admission: over cap");

  const std::string payload =
      EncodeSubmitBatchReply(Status::OK(), batches, server_cat.pool());

  // Client side: a pool with a *different* interning history — decoded
  // constants must remap by text, never by id.
  Catalog client_cat;
  ASSERT_TRUE(client_cat.AddRelation("R", {"A", "B"}).ok());
  client_cat.pool().Intern("zebra");
  client_cat.pool().Intern("puma");  // different id than the server's

  auto decoded = DecodeSubmitBatchReply(payload, client_cat.pool());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[1].status.code(), StatusCode::kResourceExhausted);
  ASSERT_EQ((*decoded)[0].results.size(), 2u);
  EXPECT_EQ((*decoded)[0].results[1].status().code(), StatusCode::kInternal);

  const Result<EngineResult>& r = (*decoded)[0].results[0];
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->fingerprint, result.fingerprint);
  EXPECT_TRUE(r->cache_hit);
  EXPECT_EQ(r->disjunct_hits, 2u);
  EXPECT_EQ(r->disjunct_count, 3u);
  EXPECT_TRUE(r->cover->truncated);
  ASSERT_EQ(r->cover->cover.size(), 1u);
  const CFD& got = r->cover->cover[0];
  EXPECT_EQ(client_cat.pool().Text(got.lhs_pats[0].value()), "lion");
  EXPECT_EQ(client_cat.pool().Text(got.rhs_pat.value()), "puma");

  // Deterministic bytes: re-encoding the decoded reply from the
  // client's (differently ordered) pool reproduces the payload exactly —
  // the loopback differential test's byte-identity lever.
  EXPECT_EQ(
      EncodeSubmitBatchReply(Status::OK(), *decoded, client_cat.pool()),
      payload);

  // Truncation sweep: every prefix rejects cleanly.
  for (size_t cut = 0; cut < payload.size(); cut += 3) {
    Catalog scratch;
    EXPECT_FALSE(
        DecodeSubmitBatchReply(payload.substr(0, cut), scratch.pool()).ok());
  }
}

/// Raw-socket helper: connect, send bytes, report whether the server
/// closed the connection (recv saw EOF) without answering.
bool ServerClosesOn(uint16_t port, const std::string& bytes) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_TRUE(WriteAll(fd, bytes).ok());
  // Half-close the write side: a *truncated* frame otherwise leaves the
  // server blocked waiting for the missing bytes while we wait for its
  // verdict. EOF mid-frame is exactly the truncation under test.
  ::shutdown(fd, SHUT_WR);
  char buf[64];
  ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
  ::close(fd);
  return r == 0;
}

TEST(CoverServerTest, MalformedFramesCloseOnlyTheirConnection) {
  CatalogService service{ServiceOptions{}};
  CoverServer server(service);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.OpenSpec("eu", kSpecText).ok());

  // Garbage, bad magic, a tampered checksum, an oversized length
  // prefix, a mid-frame hangup, the retired STATS type: each connection
  // dies quietly...
  EXPECT_TRUE(ServerClosesOn(server.port(), "GET / HTTP/1.1\r\n\r\n"));
  std::string frame = EncodeFrame(FrameType::kMetrics, "");
  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_TRUE(ServerClosesOn(server.port(), bad_magic));
  std::string bad_sum = frame;
  bad_sum.back() = static_cast<char>(bad_sum.back() ^ 0x01);
  EXPECT_TRUE(ServerClosesOn(server.port(), bad_sum));
  std::string huge = frame;
  huge[9] = huge[10] = huge[11] = huge[12] = static_cast<char>(0xff);
  EXPECT_TRUE(ServerClosesOn(server.port(), huge));
  EXPECT_TRUE(
      ServerClosesOn(server.port(), frame.substr(0, frame.size() - 3)));
  // Type 3 carried STATS before wire v5 and stays unassigned: a v5 peer
  // sending it is refused like any unknown type, not misread.
  const std::string retired_stats =
      EncodeFrame(static_cast<FrameType>(3), "");
  auto retired = DecodeFrameHeader(retired_stats);
  ASSERT_FALSE(retired.ok());
  EXPECT_NE(retired.status().message().find("unknown frame type 3"),
            std::string::npos)
      << retired.status();
  EXPECT_TRUE(ServerClosesOn(server.port(), retired_stats));

  // ...while the server keeps serving well-formed clients.
  CoverClientOptions client_options;
  client_options.port = server.port();
  CoverClient client(client_options);
  ASSERT_TRUE(client.Connect().ok());
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  auto stats = obs::ParseMetricsText(*metrics);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->Value("cfdprop_tenants"), 1.0);
  EXPECT_TRUE(stats->Has("cfdprop_cache_budget{tenant=\"eu\"}"));
  EXPECT_TRUE(stats->Has("cfdprop_sigma_memo_lines{tenant=\"eu\"}"));
  EXPECT_TRUE(stats->Has("cfdprop_sigma_memo_capacity{tenant=\"eu\"}"));
  EXPECT_TRUE(stats->Has("cfdprop_sigma_memo_hits_total{tenant=\"eu\"}"));
  EXPECT_EQ(stats->Value("cfdprop_sigma_memo_capacity{tenant=\"eu\"}"),
            static_cast<double>(Engine::kSigmaMemoCapacity));

  CoverServerStats net = server.Stats();
  EXPECT_EQ(net.decode_errors, 6u);
  EXPECT_GE(net.connections_accepted, 7u);
  server.Stop();
}

TEST(CoverServerTest, TypedErrorsAndShutdownHandshake) {
  CatalogService service{ServiceOptions{}};
  CoverServer server(service);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.OpenSpec("eu", kSpecText).ok());

  CoverClientOptions options;
  options.port = server.port();
  CoverClient client(options);
  ASSERT_TRUE(client.Connect().ok());

  // Unparsable spec text → InvalidArgument; re-open with identical text
  // → idempotent success (the reconnect contract); re-open with
  // *different* text → InvalidArgument; unknown tenant → NotFound;
  // unknown view → per-batch NotFound. All typed, all through the wire.
  auto bad_spec = client.OpenCatalog("xx", "relation ???");
  ASSERT_FALSE(bad_spec.ok());
  EXPECT_EQ(bad_spec.status().code(), StatusCode::kInvalidArgument);
  auto reopen = client.OpenCatalog("eu", kSpecText);
  EXPECT_TRUE(reopen.ok()) << reopen.status().ToString();
  auto dup = client.OpenCatalog("eu", std::string(kSpecText) + "\n# changed");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);

  Catalog scratch;
  auto missing_tenant = client.SubmitBatch("nope", {"ByRegion"},
                                           scratch.pool());
  ASSERT_FALSE(missing_tenant.ok());
  EXPECT_EQ(missing_tenant.status().code(), StatusCode::kNotFound);

  auto missing_view =
      client.SubmitBatch("eu", {"NoSuchView"}, scratch.pool());
  ASSERT_TRUE(missing_view.ok()) << "frame-level ok, batch-level error";
  EXPECT_EQ(missing_view->status.code(), StatusCode::kNotFound);

  EXPECT_FALSE(client.DropCatalog("nope").ok());
  EXPECT_TRUE(client.DropCatalog("eu").ok());
  auto after_drop = client.SubmitBatch("eu", {"ByRegion"}, scratch.pool());
  ASSERT_FALSE(after_drop.ok());
  EXPECT_EQ(after_drop.status().code(), StatusCode::kNotFound);

  EXPECT_FALSE(server.shutdown_requested());
  EXPECT_TRUE(client.Shutdown().ok());
  server.WaitForShutdown();
  EXPECT_TRUE(server.shutdown_requested());
  server.Stop();
}

/// Connects a raw (non-CoverClient) socket to the server.
int RawConnect(uint16_t port, int rcvbuf_bytes = 0) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf_bytes > 0) {
    // Before connect: the window is negotiated in the handshake.
    EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                           sizeof(rcvbuf_bytes)),
              0);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// Polls the server's deadline counter until it reaches `want` (bounded).
bool WaitForDeadlines(CoverServer& server, uint64_t want) {
  for (int i = 0; i < 200; ++i) {
    if (server.Stats().deadlines_exceeded >= want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return false;
}

TEST(CoverServerDeadlineTest, HungSenderMidFrameTripsTheReadDeadline) {
  CatalogService service{ServiceOptions{}};
  CoverServerOptions options;
  options.io_timeout = std::chrono::milliseconds(200);
  CoverServer server(service, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.OpenSpec("eu", kSpecText).ok());

  // Five header bytes, then silence — no close, no shutdown: the
  // classic hung peer. Without SO_RCVTIMEO this parked the connection
  // thread in recv() forever.
  const std::string frame = EncodeFrame(FrameType::kMetrics, "");
  int fd = RawConnect(server.port());
  ASSERT_TRUE(WriteAll(fd, frame.substr(0, 5)).ok());
  EXPECT_TRUE(WaitForDeadlines(server, 1));

  // The deadline is its own counter — a hung peer is not a decode error.
  CoverServerStats stats = server.Stats();
  EXPECT_EQ(stats.deadlines_exceeded, 1u);
  EXPECT_EQ(stats.decode_errors, 0u);

  // Only that connection died: the server answers a well-formed client.
  char buf[16];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0) << "server closed our fd";
  ::close(fd);
  CoverClientOptions client_options;
  client_options.port = server.port();
  CoverClient client(client_options);
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.Metrics().ok());
  server.Stop();
}

TEST(CoverServerDeadlineTest, HungReaderTripsTheSendDeadlineAndFreesTheSlot) {
  CatalogService service{ServiceOptions{}};
  CoverServerOptions options;
  options.io_timeout = std::chrono::milliseconds(300);
  // Shrink both buffers so a modest reply overfills the pipe: the
  // server's write blocks on a reader that never drains.
  options.send_buffer_bytes = 4096;
  CoverServer server(service, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.OpenSpec("eu", kSpecText).ok());

  // A legal burst whose reply (2000 covers) dwarfs the socket buffers,
  // sent by a peer that never reads.
  SubmitBatchRequest request;
  request.tenant = "eu";
  request.batches.push_back(
      std::vector<std::string>(2000, std::string("ByRegion")));
  const std::string frame = EncodeFrame(
      FrameType::kSubmitBatch, EncodeSubmitBatchRequest(request));
  int fd = RawConnect(server.port(), /*rcvbuf_bytes=*/4096);
  ASSERT_TRUE(WriteAll(fd, frame).ok());
  EXPECT_TRUE(WaitForDeadlines(server, 1));
  EXPECT_GE(server.Stats().deadlines_exceeded, 1u);
  ::close(fd);

  // The batch itself completed — the deadline fired delivering the
  // reply, after the dispatcher released the admission slot. The gauges
  // drain to zero and a fresh client gets served immediately, i.e. the
  // hung reader held neither a slot nor the server.
  for (int i = 0; i < 200; ++i) {
    const ServiceStatsSnapshot stats = service.Stats();
    if (!stats.tenants.empty() && stats.tenants[0].queued == 0 &&
        stats.tenants[0].running == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  const ServiceStatsSnapshot stats = service.Stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].queued, 0u);
  EXPECT_EQ(stats.tenants[0].running, 0u);

  CoverClientOptions client_options;
  client_options.port = server.port();
  CoverClient client(client_options);
  ASSERT_TRUE(client.Connect().ok());
  Catalog scratch;
  auto served = client.SubmitBatch("eu", {"ByRegion"}, scratch.pool());
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_TRUE(served->status.ok());
  server.Stop();
}

TEST(CoverClientDeadlineTest, SilentServerTripsTheClientIoDeadline) {
  // A listener that accepts and then never speaks.
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  CoverClientOptions options;
  options.port = ntohs(addr.sin_port);
  options.io_timeout = std::chrono::milliseconds(200);
  CoverClient client(options);
  ASSERT_TRUE(client.Connect().ok());
  auto scraped = client.Metrics();
  ASSERT_FALSE(scraped.ok());
  EXPECT_EQ(scraped.status().code(), StatusCode::kDeadlineExceeded);
  // The stream has no resync point: the client dropped the connection.
  EXPECT_FALSE(client.connected());
  ::close(lfd);
}

TEST(CoverClientDeadlineTest, ConnectHonorsTheOverallDeadline) {
  // Grab an ephemeral port, then close it so nothing listens there.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);

  // Attempts-only this would retry for ~100 s; the overall deadline
  // caps it at ~300 ms with a typed verdict.
  CoverClientOptions options;
  options.port = ntohs(addr.sin_port);
  options.connect_attempts = 1000;
  options.retry_delay = std::chrono::milliseconds(100);
  options.connect_timeout = std::chrono::milliseconds(300);
  CoverClient client(options);
  const auto t0 = std::chrono::steady_clock::now();
  Status connected = client.Connect();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(connected.ok());
  EXPECT_EQ(connected.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

}  // namespace
}  // namespace net
}  // namespace cfdprop
