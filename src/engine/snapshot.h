// The cover byte format: the one encoding of a propagation cover, shared
// by cover-cache snapshots (CoverCache::SerializeSnapshot /
// LoadSnapshotBytes) and the wire's SUBMIT_BATCH reply
// (src/net/wire_protocol.h), both through CoverEncoder/CoverDecoder.
//
// A snapshot holds every live cache line — fingerprint, check word, Σ
// version and the CachedCover payload — as bytes a restart restores, so
// it serves warm covers byte-identical to what the cold process
// computed. Only CatalogService reads and writes snapshot files; below
// it a snapshot is bytes.
//
// Cover codec (integers fixed-width little-endian, src/base/wire.h):
//
//   string table: count u64, then per string len u64 + raw bytes — each
//                 pattern-constant text the covers that follow use, once,
//                 in first-use order
//   cover body:   flags u8 (bit0 always_empty, bit1 truncated; any other
//                 bit rejects), CFD count u64, then each CFD via
//                 CFD::AppendSnapshotBytes with its constants as
//                 string-table indices (Value ids are process-local;
//                 decoding re-interns the texts)
//
// The decoder accepts one encoding per cover set: an index that skips
// ahead of first-use order, an entry no cover uses or a repeated text
// rejects. Every count is bounded by the bytes left before it sizes an
// allocation.
//
// Snapshot format:
//
//   magic[8] "CFDPSNP1", version u32 (kSnapshotVersion), reserved u32 0
//   string table
//   lines: count u64, then per line (sorted by fingerprint, so equal
//          cache content serializes to equal bytes): fingerprint u64,
//          check u64, Σ version key u64 + check u64 (SigmaVersionOf the
//          minimized Σ the cover was computed against; its definition
//          is part of the format), cover body
//   checksum u64: Fnv1aChecksum (src/base/hash.h) of every preceding
//          byte; catches truncation and bit rot before any line parses
//
// Load validates magic, version and checksum, then restores a line iff
// its Σ version is that of some Σ registered in the loading engine,
// whatever the registration order or mutation history. Other lines are
// rejected (they would be stale covers) and decode in skip mode, so
// their constants never intern. Any structural failure rejects the whole
// snapshot; nothing is ever partially trusted.
//
// Versioning policy: kSnapshotVersion bumps on ANY layout change, with
// no compatibility shims — a mismatch rejects and the restart
// recomputes (a snapshot is a cache). A cover codec change also bumps
// the wire's kWireVersion.

#ifndef CFDPROP_ENGINE_SNAPSHOT_H_
#define CFDPROP_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/hash.h"
#include "src/base/status.h"
#include "src/base/value.h"
#include "src/base/wire.h"
#include "src/cfd/cfd.h"

namespace cfdprop {

struct CachedCover;  // src/engine/cover_cache.h

/// First bytes of every cover snapshot file.
inline constexpr char kSnapshotMagic[8] = {'C', 'F', 'D', 'P',
                                           'S', 'N', 'P', '1'};

/// Bumped on any wire-format change; a mismatch cleanly rejects the file.
/// Version 3: a line's Σ version is the per-relation fold below, so a
/// version-2 file's lines could never match a live Σ again; the bump
/// rejects such a file wholesale instead of line by line.
inline constexpr uint32_t kSnapshotVersion = 3;

/// Content version of a minimized Σ — the engine's one notion of Σ
/// identity. Equal content has equal versions in any process, whatever
/// its interning order, and serving a cover for the wrong Σ needs a
/// 128-bit collision.
///
/// Definition: group the CFDs by relation, groups in first-seen order
/// and each group's CFDs in order. A group's version is two
/// structurally different 64-bit hashes (FNV-1a and a SplitMix
/// absorption) over one text-level pass of its CFDs (SigmaGroupVersion).
/// The set's version is the fixed fold of its non-empty groups' versions
/// in that order (SigmaVersionFold). A mutation of one relation thus
/// rehashes one group, not the whole set. `key` is not
/// FingerprintSigmaSet of the same set: that one is the flat cover
/// content hash, unchanged.
struct SigmaVersion {
  uint64_t key = 0;
  uint64_t check = 0;

  bool operator==(const SigmaVersion&) const = default;
};

/// A snapshot serialized to memory, plus its line count. The service
/// spills these bytes to its snapshot file; migration ships them over
/// the wire.
struct SerializedSnapshot {
  std::string bytes;
  /// Live lines serialized.
  uint64_t lines = 0;
};

/// Outcome of a LoadSnapshotBytes call.
struct SnapshotLoadStats {
  /// Lines inserted into the cache.
  uint64_t restored = 0;
  /// Lines skipped because no registered Σ has their Σ version.
  uint64_t rejected = 0;
};

/// Stable, pool-independent fingerprint of a CFD set: hashes relation
/// ids, attribute positions and pattern entries with constants by their
/// *text*. Order-sensitive over `cfds` (minimization is deterministic,
/// so equal registered sets fingerprint equal). This is the flat cover
/// content hash perfbench's oracle and the golden tests pin; since format
/// version 3 it differs from SigmaVersion::key of the same set.
uint64_t FingerprintSigmaSet(const ValuePool& pool,
                             const std::vector<CFD>& cfds);

/// The version of one relation's group of a minimized Σ (`group` holds
/// that relation's CFDs only, in order).
SigmaVersion SigmaGroupVersion(const ValuePool& pool,
                               std::span<const CFD> group);

/// Folds group versions, in group order, into the version of the set.
class SigmaVersionFold {
 public:
  void Add(const SigmaVersion& group);
  SigmaVersion digest() const;

 private:
  Fnv1aHasher key_;
  SplitMixHasher check_;
  uint64_t groups_ = 0;
};

/// The SigmaVersion of `cfds` (the minimized set, on catalog relation
/// ids): SigmaGroupVersion of each relation's group, folded in
/// first-seen order.
SigmaVersion SigmaVersionOf(const ValuePool& pool,
                            const std::vector<CFD>& cfds);

/// The string-table writer: Slot numbers keys in first-use order, and
/// AppendTo writes the table (count u64, then len u64 + bytes per key).
/// The cover codec keys it by Value; the wire's TRACE_DUMP reply by
/// span text.
template <typename Key>
class StringTableWriter {
 public:
  uint32_t Slot(Key key) {
    auto [it, inserted] =
        slot_.emplace(key, static_cast<uint32_t>(keys_.size()));
    if (inserted) keys_.push_back(key);
    return it->second;
  }

  /// `text_of` maps a key to its text.
  template <typename TextOf>
  void AppendTo(std::string& out, TextOf text_of) const {
    wire::PutU64(out, keys_.size());
    for (const Key& key : keys_) {
      const std::string_view text = text_of(key);
      wire::PutU64(out, text.size());
      out.append(text);
    }
  }

 private:
  std::unordered_map<Key, uint32_t> slot_;
  std::vector<Key> keys_;
};

/// The string-table reader: the texts of a table written by
/// StringTableWriter::AppendTo, as views into `bytes`. False on
/// truncation, before any count sizes an allocation.
bool ReadStringTable(std::string_view bytes, size_t* pos,
                     std::vector<std::string_view>* texts);

/// Writes cover bodies, collecting their constants into one string
/// table. The table precedes the bodies on the wire, so callers append
/// bodies to a scratch string first and the table to the output after.
class CoverEncoder {
 public:
  explicit CoverEncoder(const ValuePool& pool);
  CoverEncoder(const CoverEncoder&) = delete;
  CoverEncoder& operator=(const CoverEncoder&) = delete;

  /// Appends one cover body to `out`.
  void AppendCover(std::string& out, const CachedCover& cover);
  /// Appends the string table of every constant the bodies so far use.
  void AppendStringTable(std::string& out) const;

 private:
  const ValuePool& pool_;
  StringTableWriter<Value> table_;
  const std::function<uint32_t(Value)> slot_;
};

/// Reads a string table and the cover bodies that follow it. Constants
/// intern into `pool` lazily, on first use by a kept cover, so a
/// skipped cover never grows the append-only pool.
class CoverDecoder {
 public:
  explicit CoverDecoder(ValuePool& pool);
  CoverDecoder(const CoverDecoder&) = delete;
  CoverDecoder& operator=(const CoverDecoder&) = delete;

  /// Reads the table at bytes[*pos..]. The texts stay views into
  /// `bytes`, which must outlive every ReadCover call.
  Status ReadStringTable(std::string_view bytes, size_t* pos);
  /// Decodes one cover body. `keep` false is skip mode (a snapshot line
  /// of a Σ the loader does not serve): indices are still checked, but
  /// nothing interns and the constants decode as kNoValue.
  Result<std::shared_ptr<CachedCover>> ReadCover(std::string_view bytes,
                                                 size_t* pos,
                                                 bool keep = true);
  /// Call once, after the last cover: rejects a table with an entry no
  /// cover referenced or a text that two kept entries share.
  Status Finish();

 private:
  ValuePool& pool_;
  std::vector<std::string_view> texts_;
  std::vector<Value> interned_;
  /// Entries referenced so far; the next new index must equal it.
  uint32_t used_ = 0;
  bool keep_ = true;
  const std::function<Result<Value>(uint32_t)> value_at_;
};

}  // namespace cfdprop

#endif  // CFDPROP_ENGINE_SNAPSHOT_H_
