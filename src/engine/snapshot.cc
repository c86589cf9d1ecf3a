// The cover codec (string table + cover bodies), FingerprintSigmaSet and
// SigmaVersionOf, and the CoverCache::SerializeSnapshot/
// LoadSnapshotBytes implementations. The byte format is documented in
// snapshot.h; the CFD/pattern byte layout lives with the types
// themselves (CFD::AppendSnapshotBytes).

#include "src/engine/snapshot.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/base/wire.h"
#include "src/cfd/sigma_groups.h"
#include "src/engine/cover_cache.h"

namespace cfdprop {

namespace {

constexpr uint8_t kFlagAlwaysEmpty = 1u << 0;
constexpr uint8_t kFlagTruncated = 1u << 1;

/// The smallest encodings the count bounds divide by: a table entry is
/// at least its u64 length, a CFD at least relation, LHS count and RHS
/// (u32 each) plus one pattern kind byte, and a snapshot line at least
/// its four u64 keys, the flags byte and the u64 CFD count.
constexpr size_t kMinStringBytes = 8;
constexpr size_t kMinCfdBytes = 4 + 4 + 4 + 1;
constexpr size_t kMinLineBytes = 4 * 8 + 1 + 8;

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("cover snapshot rejected: " + what);
}

/// One text-level pass over a CFD set, feeding every field to each of
/// `hashers`: relation ids, attribute positions, and pattern entries
/// with constants by their pool text.
template <typename... Hashers>
void MixSigmaSet(const ValuePool& pool, std::span<const CFD> cfds,
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

SigmaVersion SigmaGroupVersion(const ValuePool& pool,
                               std::span<const CFD> group) {
  Fnv1aHasher key;
  SplitMixHasher check;
  MixSigmaSet(pool, group, key, check);
  return SigmaVersion{key.digest(), check.digest()};
}

void SigmaVersionFold::Add(const SigmaVersion& group) {
  key_.Mix(group.key);
  key_.Mix(group.check);
  check_.Mix(group.key);
  check_.Mix(group.check);
  ++groups_;
}

SigmaVersion SigmaVersionFold::digest() const {
  Fnv1aHasher key = key_;
  SplitMixHasher check = check_;
  key.Mix(groups_);
  check.Mix(groups_);
  return SigmaVersion{key.digest(), check.digest()};
}

SigmaVersion SigmaVersionOf(const ValuePool& pool,
                            const std::vector<CFD>& cfds) {
  // Without a catalog the grouping validates nothing, so it cannot fail.
  const SigmaGroups groups = *SigmaGroups::Make(nullptr, cfds);
  SigmaVersionFold fold;
  for (RelationId r : groups.order()) {
    fold.Add(SigmaGroupVersion(pool, groups.group(r)));
  }
  return fold.digest();
}

bool ReadStringTable(std::string_view bytes, size_t* pos,
                     std::vector<std::string_view>* texts) {
  uint64_t count = 0;
  if (!wire::GetU64(bytes, pos, &count) ||
      count > (bytes.size() - *pos) / kMinStringBytes) {
    return false;
  }
  texts->clear();
  texts->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t len = 0;
    std::string_view text;
    if (!wire::GetU64(bytes, pos, &len) ||
        !wire::GetBytes(bytes, pos, len, &text)) {
      return false;
    }
    texts->push_back(text);
  }
  return true;
}

CoverEncoder::CoverEncoder(const ValuePool& pool)
    : pool_(pool), slot_([this](Value v) { return table_.Slot(v); }) {}

void CoverEncoder::AppendCover(std::string& out, const CachedCover& cover) {
  uint8_t flags = 0;
  if (cover.always_empty) flags |= kFlagAlwaysEmpty;
  if (cover.truncated) flags |= kFlagTruncated;
  wire::PutU8(out, flags);
  wire::PutU64(out, cover.cover.size());
  for (const CFD& c : cover.cover) c.AppendSnapshotBytes(out, slot_);
}

void CoverEncoder::AppendStringTable(std::string& out) const {
  table_.AppendTo(out, [&](Value v) -> std::string_view {
    return pool_.Text(v);
  });
}

CoverDecoder::CoverDecoder(ValuePool& pool)
    : pool_(pool), value_at_([this](uint32_t index) -> Result<Value> {
        if (index >= texts_.size()) {
          return Status::InvalidArgument(
              "pattern constant index out of string-table range");
        }
        if (index > used_) {
          return Status::InvalidArgument(
              "pattern constant index out of first-use order");
        }
        if (index == used_) ++used_;
        if (!keep_) return kNoValue;
        if (interned_[index] == kNoValue) {
          interned_[index] = pool_.Intern(texts_[index]);
        }
        return interned_[index];
      }) {}

Status CoverDecoder::ReadStringTable(std::string_view bytes, size_t* pos) {
  if (!cfdprop::ReadStringTable(bytes, pos, &texts_)) {
    return Status::InvalidArgument("string table truncated");
  }
  interned_.assign(texts_.size(), kNoValue);
  used_ = 0;
  return Status::OK();
}

Result<std::shared_ptr<CachedCover>> CoverDecoder::ReadCover(
    std::string_view bytes, size_t* pos, bool keep) {
  uint8_t flags = 0;
  uint64_t count = 0;
  if (!wire::GetU8(bytes, pos, &flags) ||
      (flags & ~(kFlagAlwaysEmpty | kFlagTruncated)) != 0 ||
      !wire::GetU64(bytes, pos, &count) ||
      count > (bytes.size() - *pos) / kMinCfdBytes) {
    return Status::InvalidArgument("cover truncated");
  }
  keep_ = keep;
  auto cover = std::make_shared<CachedCover>();
  cover->always_empty = (flags & kFlagAlwaysEmpty) != 0;
  cover->truncated = (flags & kFlagTruncated) != 0;
  cover->cover.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    CFDPROP_ASSIGN_OR_RETURN(CFD cfd,
                             CFD::FromSnapshotBytes(bytes, pos, value_at_));
    cover->cover.push_back(std::move(cfd));
  }
  return cover;
}

Status CoverDecoder::Finish() {
  if (used_ != texts_.size()) {
    return Status::InvalidArgument("string table holds an unused entry");
  }
  // Distinct texts intern to distinct Values; entries only skipped
  // covers used never interned and stay kNoValue.
  std::sort(interned_.begin(), interned_.end());
  auto repeat = std::adjacent_find(interned_.begin(), interned_.end());
  if (repeat != interned_.end() && *repeat != kNoValue) {
    return Status::InvalidArgument("string table repeats a text");
  }
  return Status::OK();
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

  CoverEncoder encoder(pool);
  std::string body;
  wire::PutU64(body, lines.size());
  for (const Entry& line : lines) {
    wire::PutU64(body, line.fingerprint);
    wire::PutU64(body, line.check);
    wire::PutU64(body, line.version.key);
    wire::PutU64(body, line.version.check);
    encoder.AppendCover(body, *line.cover);
  }

  std::string out;
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  wire::PutU32(out, kSnapshotVersion);
  wire::PutU32(out, 0);  // reserved
  encoder.AppendStringTable(out);
  out.append(body);
  wire::PutU64(out, Fnv1aChecksum(out));
  return SerializedSnapshot{std::move(out),
                            static_cast<uint64_t>(lines.size())};
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
  if (Fnv1aChecksum(bytes.substr(0, bytes.size() - 8)) != stored_checksum) {
    return Corrupt("checksum mismatch (truncated or corrupt)");
  }
  std::string_view payload(bytes.data(), bytes.size() - 8);

  CoverDecoder decoder(pool);
  if (Status table = decoder.ReadStringTable(payload, &pos); !table.ok()) {
    return Corrupt(table.message());
  }

  // Parse every line before inserting any: a structurally bad file is
  // rejected whole, never half-restored. (Constants of lines accepted
  // before a — post-checksum, so practically unreachable — parse
  // failure may already have interned; the pool is append-only and
  // extra texts are harmless, unlike half a cache.)
  uint64_t num_lines = 0;
  if (!wire::GetU64(payload, &pos, &num_lines) ||
      num_lines > (payload.size() - pos) / kMinLineBytes) {
    return Corrupt("line table truncated");
  }
  std::vector<Entry> accepted;
  SnapshotLoadStats stats;
  for (uint64_t i = 0; i < num_lines; ++i) {
    Entry line{};
    if (!wire::GetU64(payload, &pos, &line.fingerprint) ||
        !wire::GetU64(payload, &pos, &line.check) ||
        !wire::GetU64(payload, &pos, &line.version.key) ||
        !wire::GetU64(payload, &pos, &line.version.check)) {
      return Corrupt("line " + std::to_string(i) + " truncated");
    }
    // Accept only lines computed against a Σ content the loader serves:
    // everything else is a stale cover, decoded in skip mode so its
    // constants never intern.
    const bool accept =
        std::find(live.begin(), live.end(), line.version) != live.end();
    auto cover = decoder.ReadCover(payload, &pos, accept);
    if (!cover.ok()) {
      return Corrupt("line " + std::to_string(i) + ": " +
                     cover.status().message());
    }
    if (!accept) {
      ++stats.rejected;
      continue;
    }
    line.cover = std::move(cover).value();
    accepted.push_back(std::move(line));
  }
  if (pos != payload.size()) {
    return Corrupt("trailing bytes after line table");
  }
  if (Status table = decoder.Finish(); !table.ok()) {
    return Corrupt(table.message());
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
