// Cover-cache snapshot serialization: FingerprintSigmaSet and
// SigmaVersionOf plus the CoverCache::SaveSnapshot/LoadSnapshot
// implementations. The wire format is documented in snapshot.h; the
// CFD/pattern byte layout lives with the types themselves
// (CFD::AppendSnapshotBytes).

#include "src/engine/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/base/wire.h"
#include "src/engine/cover_cache.h"

namespace cfdprop {

namespace {

/// FNV-1a over the raw bytes: the file checksum. (Not cryptographic —
/// snapshots guard against truncation and stale state, not an
/// adversary; an untrusted file should simply not be loaded.)
uint64_t Checksum(std::string_view bytes) {
  Fnv1aHasher h;
  for (char c : bytes) h.MixByte(static_cast<uint8_t>(c));
  return h.digest();
}

constexpr uint8_t kFlagAlwaysEmpty = 1u << 0;
constexpr uint8_t kFlagTruncated = 1u << 1;

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("cover snapshot rejected: " + what);
}

/// One text-level pass over a CFD set, feeding every field to each of
/// `hashers`: relation ids, attribute positions, and pattern entries
/// with constants by their pool text.
template <typename... Hashers>
void MixSigmaSet(const ValuePool& pool, const std::vector<CFD>& cfds,
                 Hashers&... hashers) {
  auto mix = [&](auto x) { (hashers.Mix(x), ...); };
  auto mix_pattern = [&](const PatternValue& p) {
    mix(static_cast<uint64_t>(p.kind()));
    if (p.is_constant()) mix(std::string_view(pool.Text(p.value())));
  };
  mix(static_cast<uint64_t>(cfds.size()));
  for (const CFD& c : cfds) {
    mix(static_cast<uint64_t>(c.relation));
    mix(static_cast<uint64_t>(c.lhs.size()));
    for (size_t i = 0; i < c.lhs.size(); ++i) {
      mix(static_cast<uint64_t>(c.lhs[i]));
      mix_pattern(c.lhs_pats[i]);
    }
    mix(static_cast<uint64_t>(c.rhs));
    mix_pattern(c.rhs_pat);
  }
}

}  // namespace

uint64_t FingerprintSigmaSet(const ValuePool& pool,
                             const std::vector<CFD>& cfds) {
  Fnv1aHasher h;
  MixSigmaSet(pool, cfds, h);
  return h.digest();
}

SigmaVersion SigmaVersionOf(const ValuePool& pool,
                            const std::vector<CFD>& cfds) {
  Fnv1aHasher key;
  SplitMixHasher check;
  MixSigmaSet(pool, cfds, key, check);
  return SigmaVersion{key.digest(), check.digest()};
}

SerializedSnapshot CoverCache::SerializeSnapshot(const ValuePool& pool) const {
  // Copy the live lines shard by shard (shared_ptr copies, never the
  // covers themselves); serving proceeds on the other shards meanwhile.
  std::vector<Entry> lines;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    lines.insert(lines.end(), shard->lru.begin(), shard->lru.end());
  }
  // Deterministic bytes for deterministic content: fingerprints are
  // unique cache-wide, so they are a total order.
  std::sort(lines.begin(), lines.end(), [](const Entry& a, const Entry& b) {
    return a.fingerprint < b.fingerprint;
  });

  // Serialize the lines first: the string table is collected lazily in
  // first-use order, but the format places it before the lines.
  std::unordered_map<Value, uint32_t> value_slot;
  std::vector<Value> table_values;
  auto value_index = [&](Value v) {
    auto [it, inserted] =
        value_slot.emplace(v, static_cast<uint32_t>(table_values.size()));
    if (inserted) table_values.push_back(v);
    return it->second;
  };
  std::string body;
  wire::PutU64(body, lines.size());
  for (const Entry& line : lines) {
    wire::PutU64(body, line.fingerprint);
    wire::PutU64(body, line.check);
    wire::PutU64(body, line.version.key);
    wire::PutU64(body, line.version.check);
    uint8_t flags = 0;
    if (line.cover->always_empty) flags |= kFlagAlwaysEmpty;
    if (line.cover->truncated) flags |= kFlagTruncated;
    wire::PutU8(body, flags);
    wire::PutU64(body, line.cover->cover.size());
    for (const CFD& c : line.cover->cover) {
      c.AppendSnapshotBytes(body, value_index);
    }
  }

  std::string out;
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  wire::PutU32(out, kSnapshotVersion);
  wire::PutU32(out, 0);  // reserved
  wire::PutU64(out, table_values.size());
  for (Value v : table_values) {
    const std::string& text = pool.Text(v);
    wire::PutU64(out, text.size());
    out.append(text);
  }
  out.append(body);
  wire::PutU64(out, Checksum(out));
  return SerializedSnapshot{std::move(out),
                            static_cast<uint64_t>(lines.size())};
}

Result<uint64_t> CoverCache::SaveSnapshot(const std::string& path,
                                          const ValuePool& pool) const {
  SerializedSnapshot snapshot = SerializeSnapshot(pool);
  const std::string& out = snapshot.bytes;

  // Atomic publish: write a *writer-unique* sibling temp file, fsync
  // it, then rename over the target — a reader never observes a
  // half-written snapshot, a crash can't publish unsynced bytes (the
  // rename is ordered after the data reaches disk), and concurrent
  // savers to the same path (background spill policy racing a
  // DropCatalog flush, or two engines sharing a path) each own their
  // temp file instead of clobbering or remove()-ing each other's
  // in-flight write. Last rename wins, and every published file is a
  // complete, checksummed snapshot.
  static std::atomic<uint64_t> save_seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(save_seq.fetch_add(1));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return Status::InvalidArgument("cannot open " + tmp);
  size_t written = 0;
  while (written < out.size()) {
    const ssize_t w = ::write(fd, out.data() + written, out.size() - written);
    if (w < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      std::remove(tmp.c_str());
      return Status::InvalidArgument("short write to " + tmp);
    }
    written += static_cast<size_t>(w);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    std::remove(tmp.c_str());
    return Status::InvalidArgument("fsync failed on " + tmp);
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::InvalidArgument("cannot rename " + tmp + " to " + path);
  }
  return snapshot.lines;
}

Result<SnapshotLoadStats> CoverCache::LoadSnapshot(
    const std::string& path, ValuePool& pool,
    const std::vector<SigmaVersion>& live) {
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    if (!f) return Status::NotFound("cannot open " + path);
    std::string buf((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
    if (!f.eof() && !f) return Corrupt("read error on " + path);
    bytes = std::move(buf);
  }
  return LoadSnapshotBytes(bytes, pool, live);
}

Result<SnapshotLoadStats> CoverCache::LoadSnapshotBytes(
    std::string_view bytes, ValuePool& pool,
    const std::vector<SigmaVersion>& live) {
  // Header gate: magic, version, checksum — in that order, so the error
  // names the most specific cause. Everything after runs on a stream
  // the checksum already vouches for; parse failures past this point
  // mean a format bug, and still reject cleanly.
  if (bytes.size() < sizeof(kSnapshotMagic) + 8 + 8) {
    return Corrupt("file shorter than header + checksum");
  }
  if (bytes.compare(0, sizeof(kSnapshotMagic), kSnapshotMagic,
                    sizeof(kSnapshotMagic)) != 0) {
    return Corrupt("bad magic (not a cover snapshot)");
  }
  size_t pos = sizeof(kSnapshotMagic);
  uint32_t version = 0, reserved = 0;
  wire::GetU32(bytes, &pos, &version);
  wire::GetU32(bytes, &pos, &reserved);
  if (version != kSnapshotVersion) {
    return Corrupt("format version " + std::to_string(version) +
                   " (this build reads " +
                   std::to_string(kSnapshotVersion) + ")");
  }
  size_t checksum_pos = bytes.size() - 8;
  uint64_t stored_checksum = 0;
  wire::GetU64(bytes, &checksum_pos, &stored_checksum);
  if (Checksum(std::string_view(bytes).substr(0, bytes.size() - 8)) !=
      stored_checksum) {
    return Corrupt("checksum mismatch (truncated or corrupt)");
  }
  std::string_view payload(bytes.data(), bytes.size() - 8);

  uint64_t num_strings = 0;
  if (!wire::GetU64(payload, &pos, &num_strings) ||
      num_strings > (payload.size() - pos) / 8) {
    return Corrupt("string table truncated");
  }
  // Texts stay views into the file bytes; interning is lazy (below), so
  // a rejected line's constants never pollute the append-only pool —
  // loading a fully mismatched snapshot leaves the pool untouched.
  std::vector<std::string_view> texts;
  texts.reserve(num_strings);
  for (uint64_t i = 0; i < num_strings; ++i) {
    uint64_t len = 0;
    std::string_view text;
    if (!wire::GetU64(payload, &pos, &len) ||
        !wire::GetBytes(payload, &pos, len, &text)) {
      return Corrupt("string table entry truncated");
    }
    texts.push_back(text);
  }
  std::vector<Value> interned(texts.size(), kNoValue);
  std::function<Result<Value>(uint32_t)> intern_at =
      [&](uint32_t index) -> Result<Value> {
    if (index >= texts.size()) {
      return Status::InvalidArgument(
          "pattern constant index out of string-table range");
    }
    if (interned[index] == kNoValue) {
      interned[index] = pool.Intern(texts[index]);
    }
    return interned[index];
  };
  // Rejected lines still parse (the format has no per-line length to
  // skip by) but resolve to a placeholder: bounds are checked, nothing
  // interns, and the decoded cover is discarded.
  std::function<Result<Value>(uint32_t)> skip_at =
      [&](uint32_t index) -> Result<Value> {
    if (index >= texts.size()) {
      return Status::InvalidArgument(
          "pattern constant index out of string-table range");
    }
    return kNoValue;
  };

  // Parse every line before inserting any: a structurally bad file is
  // rejected whole, never half-restored. (Constants of lines accepted
  // before a — post-checksum, so practically unreachable — parse
  // failure may already have interned; the pool is append-only and
  // extra texts are harmless, unlike half a cache.)
  uint64_t num_lines = 0;
  if (!wire::GetU64(payload, &pos, &num_lines) ||
      num_lines > (payload.size() - pos) / 41) {
    return Corrupt("line table truncated");
  }
  std::vector<Entry> accepted;
  SnapshotLoadStats stats;
  for (uint64_t i = 0; i < num_lines; ++i) {
    Entry line{};
    uint8_t flags = 0;
    uint64_t cover_size = 0;
    if (!wire::GetU64(payload, &pos, &line.fingerprint) ||
        !wire::GetU64(payload, &pos, &line.check) ||
        !wire::GetU64(payload, &pos, &line.version.key) ||
        !wire::GetU64(payload, &pos, &line.version.check) ||
        !wire::GetU8(payload, &pos, &flags) ||
        !wire::GetU64(payload, &pos, &cover_size) ||
        cover_size > (payload.size() - pos) / 9) {
      return Corrupt("line " + std::to_string(i) + " truncated");
    }
    // Accept only lines computed against a Σ content the loader serves:
    // everything else is a stale cover. The check runs before the cover
    // decodes so rejected lines resolve through skip_at and never
    // intern their constants.
    const bool accept =
        std::find(live.begin(), live.end(), line.version) != live.end();
    auto cover = std::make_shared<CachedCover>();
    cover->always_empty = (flags & kFlagAlwaysEmpty) != 0;
    cover->truncated = (flags & kFlagTruncated) != 0;
    cover->cover.reserve(cover_size);
    for (uint64_t j = 0; j < cover_size; ++j) {
      auto cfd =
          CFD::FromSnapshotBytes(payload, &pos, accept ? intern_at : skip_at);
      if (!cfd.ok()) {
        return Corrupt("line " + std::to_string(i) + ": " +
                       cfd.status().message());
      }
      cover->cover.push_back(std::move(cfd).value());
    }
    if (!accept) {
      ++stats.rejected;
      continue;
    }
    line.cover = std::move(cover);
    accepted.push_back(std::move(line));
  }
  if (pos != payload.size()) {
    return Corrupt("trailing bytes after line table");
  }

  for (Entry& line : accepted) {
    Insert(line.fingerprint, line.check, std::move(line.cover),
           line.version);
  }
  stats.restored = accepted.size();
  restored_.fetch_add(stats.restored, std::memory_order_relaxed);
  rejected_.fetch_add(stats.rejected, std::memory_order_relaxed);
  return stats;
}

}  // namespace cfdprop
