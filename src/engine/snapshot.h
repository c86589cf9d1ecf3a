// Persistent cover-cache snapshots: the versioned, self-validating wire
// format behind CoverCache::SaveSnapshot/LoadSnapshot and
// Engine::SaveSnapshot/LoadSnapshot.
//
// The engine's sharded LRU dies with the process, so every restart used
// to pay the full one-shot propagation cost per request. A snapshot
// spills every live cache line — fingerprint, check word, Σ version and
// the CachedCover payload — to one file that a restart restores
// atomically, serving warm covers byte-identical to what the cold
// process computed.
//
// Wire format (all integers fixed-width little-endian, see
// src/base/wire.h):
//
//   magic[8]            "CFDPSNP1"
//   version   u32       kSnapshotVersion; any other value rejects
//   reserved  u32       0
//   string table:
//     count   u64
//     per string: len u64 + raw bytes — every pattern-constant text the
//              spilled covers reference, in first-use order
//   lines:
//     count   u64
//     per line (sorted by fingerprint, so identical cache content
//              serializes to identical bytes):
//       fingerprint u64, check u64,
//       sigma version u64 key + u64 check (SigmaVersionOf the minimized
//              Σ the cover was computed against; its definition is part
//              of the format),
//       flags u8 (bit0 always_empty, bit1 truncated),
//       cover count u64, then each CFD via CFD::AppendSnapshotBytes
//       (pattern constants as string-table indices, never Value ids —
//       ids are process-local and are remapped through the table on
//       load)
//   checksum  u64       FNV-1a over every preceding byte; catches
//                       truncation and bit rot before any line parses
//
// Validation on load, in order: magic, version, checksum, then per
// line: the line restores iff its Σ version is the version of some Σ
// registered in the loading engine — whatever the registration order or
// mutation history that produced it. A changed Σ rejects its lines
// (they would be stale covers) while other lines still restore. Any
// structural failure rejects the whole file with a Status; nothing is
// ever partially trusted.
//
// Versioning policy: kSnapshotVersion bumps on ANY layout change — the
// format carries no compatibility shims, a version mismatch simply
// rejects and the restart recomputes (a snapshot is a cache, losing it
// is never incorrect).

#ifndef CFDPROP_ENGINE_SNAPSHOT_H_
#define CFDPROP_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/base/hash.h"
#include "src/base/value.h"
#include "src/cfd/cfd.h"

namespace cfdprop {

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

/// A snapshot serialized to memory: the exact bytes SaveSnapshot would
/// publish to a file, plus the line count it would report. Migration
/// ships these bytes over the wire instead of through the filesystem.
struct SerializedSnapshot {
  std::string bytes;
  /// Live lines serialized.
  uint64_t lines = 0;
};

/// Outcome of a LoadSnapshot call.
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

}  // namespace cfdprop

#endif  // CFDPROP_ENGINE_SNAPSHOT_H_
