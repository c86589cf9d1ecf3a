// Canonical fingerprints of propagation requests.
//
// The engine's cover cache is keyed by a 64-bit fingerprint of
// (canonicalized SPC view, Σ version). The Σ version is the first word
// of the minimized Σ's content version (SigmaVersionOf in
// src/engine/snapshot.h), so a request's key depends on what Σ says,
// not on which registration or mutation produced it. Canonicalization maps
// syntactic variants of the same query to one representative so that
// equivalent requests hit the same cache line:
//
//   * product atoms are put into a canonical order (products commute
//     modulo column renaming; column ids are remapped accordingly),
//   * the selection conjunction is normalized: A = B atoms are oriented
//     with the smaller column first, conjuncts are sorted and deduped,
//   * output column *names* are ignored — propagation covers are
//     positional (CFD attribute indices are output positions), so
//     renamings do not change the served cover.
//
// Constants are hashed by their pool *text*, not their Value id, so the
// fingerprint of a view does not depend on interning order.
//
// A request is identified by a RequestFingerprint: a 64-bit cache key
// plus an independently-computed 64-bit check hash over the same
// canonical serialization. The cache compares the check hash on every
// hit, so a key collision between non-equivalent requests degrades to a
// cache miss (recompute) rather than serving the wrong cover; a wrong
// serve needs both hashes to collide (~2^-128 per pair).

#ifndef CFDPROP_ENGINE_FINGERPRINT_H_
#define CFDPROP_ENGINE_FINGERPRINT_H_

#include <cstdint>

#include "src/algebra/view.h"
#include "src/schema/schema.h"

namespace cfdprop {

/// Returns the canonical representative of `view`'s equivalence class
/// under atom permutation and selection reordering: atoms sorted by
/// (relation id, selection/output footprint), selections normalized,
/// sorted and deduped. Output column names are preserved (they are
/// ignored by FingerprintSPCView, not rewritten).
SPCView CanonicalizeSPCView(const Catalog& catalog, const SPCView& view);

/// 64-bit fingerprint of the canonicalized view. Equal for equivalent
/// views (permuted selections, reordered product atoms, renamed output
/// columns); distinct with high probability otherwise.
uint64_t FingerprintSPCView(const Catalog& catalog, const SPCView& view);

/// Cache key + independent check hash of one propagation request.
struct RequestFingerprint {
  uint64_t key = 0;    // shard + index key of the cover cache
  uint64_t check = 0;  // compared on every hit; mismatch = miss
};

/// Fingerprints a full request: the canonicalized view plus the Σ
/// version (the engine passes SigmaVersion::key of the minimized set it
/// serves against; any 64-bit value works, equal values bind equal Σ).
RequestFingerprint FingerprintRequestPair(const Catalog& catalog,
                                          const SPCView& view,
                                          uint64_t sigma_version);

/// Convenience: the cache key alone.
uint64_t FingerprintRequest(const Catalog& catalog, const SPCView& view,
                            uint64_t sigma_version);

/// Fingerprint of an SPCU request. A union is identified by the
/// *multiset* of its disjuncts' SPC fingerprints: the per-disjunct pairs
/// are sorted before fusing, so two listings of the same union that only
/// reorder disjuncts share one cache line, while duplicated disjuncts
/// still count (a multiset, not a set). The fused serialization is
/// domain-separated from SerializeRequest, so a union — even a 1-disjunct
/// one — never aliases any single-disjunct SPC fingerprint.
struct UnionFingerprint {
  /// Cache key of the assembled union cover.
  RequestFingerprint fused;
  /// Per-disjunct SPC fingerprints in input order; these are exactly the
  /// keys of the engine's per-SPC cache lines, so an SPCU request with k
  /// disjuncts can be served as up to k partial hits.
  std::vector<RequestFingerprint> disjuncts;
};

/// Fingerprints an SPCU request against a Σ version (as above).
UnionFingerprint FingerprintUnionRequestPair(const Catalog& catalog,
                                             const SPCUView& view,
                                             uint64_t sigma_version);

/// Convenience: the fused cache key alone (Σ version 0).
uint64_t FingerprintSPCUView(const Catalog& catalog, const SPCUView& view);

}  // namespace cfdprop

#endif  // CFDPROP_ENGINE_FINGERPRINT_H_
