#include "src/engine/fingerprint.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "src/base/hash.h"

namespace cfdprop {

namespace {

using Hasher = Fnv1aHasher;

/// Orients a column-equality selection with the smaller column first
/// (A = B and B = A denote the same conjunct).
Selection Oriented(const Selection& s) {
  if (s.kind == Selection::Kind::kColumnEq && s.right < s.left) {
    return Selection::ColumnEq(s.right, s.left);
  }
  return s;
}

bool SelectionLess(const Catalog& catalog, const Selection& a,
                   const Selection& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.left != b.left) return a.left < b.left;
  if (a.kind == Selection::Kind::kColumnEq) return a.right < b.right;
  return catalog.pool().Text(a.value) < catalog.pool().Text(b.value);
}

bool SelectionEq(const Selection& a, const Selection& b) {
  return a.kind == b.kind && a.left == b.left &&
         (a.kind == Selection::Kind::kColumnEq ? a.right == b.right
                                               : a.value == b.value);
}

/// An atom-order-invariant signature of one product atom: its relation
/// plus how its columns are used by selections and the projection. Used
/// only to tie-break atoms of the same relation, so atoms whose local
/// footprints differ sort deterministically. Atoms with identical
/// signatures keep their input order (stable sort); for symmetric join
/// patterns (e.g. a cycle of same-relation atoms) two listings of the
/// same query can then canonicalize differently — the cost is a missed
/// cache hit, never a wrong cover. A WL-style refinement would make the
/// order truly canonical (ROADMAP).
uint64_t AtomSignature(const Catalog& catalog, const SPCView& view,
                       size_t atom) {
  const ColumnId base = view.AtomBase(catalog, atom);
  const size_t arity = catalog.relation(view.atoms[atom]).arity();

  Hasher h;
  h.Mix(static_cast<uint64_t>(view.atoms[atom]));
  // Per local column: constant selections, column-eq partner footprints
  // (partner = (relation, local offset), not an atom index), and output
  // positions.
  for (size_t k = 0; k < arity; ++k) {
    const ColumnId col = base + static_cast<ColumnId>(k);
    std::vector<std::string> consts;
    std::vector<uint64_t> partners;
    for (const Selection& s : view.selections) {
      if (s.kind == Selection::Kind::kConstantEq) {
        if (s.left == col) consts.push_back(catalog.pool().Text(s.value));
        continue;
      }
      for (ColumnId other : {s.left, s.right}) {
        ColumnId self = other == s.left ? s.right : s.left;
        if (self != col) continue;
        auto [patom, pattr] = view.Locate(catalog, other);
        partners.push_back((static_cast<uint64_t>(view.atoms[patom]) << 32) |
                           pattr);
      }
    }
    std::sort(consts.begin(), consts.end());
    std::sort(partners.begin(), partners.end());
    h.Mix(static_cast<uint64_t>(k));
    for (const std::string& c : consts) h.Mix(c);
    h.Mix(0xfeedull);
    for (uint64_t p : partners) h.Mix(p);
    h.Mix(0xbeefull);
    for (size_t i = 0; i < view.output.size(); ++i) {
      const OutputColumn& o = view.output[i];
      if (!o.is_constant && o.ec_column == col) {
        h.Mix(static_cast<uint64_t>(i));
      }
    }
  }
  return h.digest();
}

}  // namespace

SPCView CanonicalizeSPCView(const Catalog& catalog, const SPCView& view) {
  // Canonical atom order: by (relation id, footprint signature), stable
  // so equal keys keep their input order (interchangeable atoms).
  std::vector<uint64_t> sig(view.atoms.size());
  for (size_t j = 0; j < view.atoms.size(); ++j) {
    sig[j] = AtomSignature(catalog, view, j);
  }
  std::vector<size_t> order(view.atoms.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (view.atoms[a] != view.atoms[b]) return view.atoms[a] < view.atoms[b];
    return sig[a] < sig[b];
  });
  SPCView canonical = view.PermuteAtoms(catalog, order);

  // Normalize the selection conjunction: orient, sort, dedupe.
  for (Selection& s : canonical.selections) s = Oriented(s);
  std::sort(canonical.selections.begin(), canonical.selections.end(),
            [&](const Selection& a, const Selection& b) {
              return SelectionLess(catalog, a, b);
            });
  canonical.selections.erase(
      std::unique(canonical.selections.begin(), canonical.selections.end(),
                  SelectionEq),
      canonical.selections.end());
  return canonical;
}

namespace {

/// Canonical byte serialization of (canonicalized view, Σ version); both
/// request hashes are computed over this one stream. Output column
/// names are deliberately not serialized: covers are positional, so
/// renamed outputs serve the same cover.
std::string SerializeRequest(const Catalog& catalog, const SPCView& canonical,
                             uint64_t sigma_version) {
  std::string out;
  auto put = [&out](uint64_t x) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(x >> (8 * i)));
  };
  auto put_text = [&](const std::string& s) {
    put(s.size());
    out.append(s);
  };
  put(sigma_version);
  put(canonical.atoms.size());
  for (RelationId r : canonical.atoms) put(r);
  put(canonical.selections.size());
  for (const Selection& s : canonical.selections) {
    put(static_cast<uint64_t>(s.kind));
    put(s.left);
    if (s.kind == Selection::Kind::kColumnEq) {
      put(s.right);
    } else {
      put_text(catalog.pool().Text(s.value));
    }
  }
  put(canonical.output.size());
  for (const OutputColumn& o : canonical.output) {
    if (o.is_constant) {
      put(0xc0);
      put_text(catalog.pool().Text(o.value));
    } else {
      put(0x90);
      put(o.ec_column);
    }
  }
  return out;
}

uint64_t Fnv1a(const std::string& bytes) {
  Hasher h;
  h.Mix(bytes);
  return h.digest();
}

/// A second, structurally different hash over the same bytes (SplitMix
/// absorption), so a wrong cache serve needs both to collide.
uint64_t CheckHash(const std::string& bytes) {
  SplitMixHasher h;
  for (char c : bytes) h.MixByte(static_cast<uint8_t>(c));
  return h.digest();
}

}  // namespace

uint64_t FingerprintSPCView(const Catalog& catalog, const SPCView& view) {
  SPCView canonical = CanonicalizeSPCView(catalog, view);
  return Fnv1a(SerializeRequest(catalog, canonical, /*sigma_version=*/0));
}

RequestFingerprint FingerprintRequestPair(const Catalog& catalog,
                                          const SPCView& view,
                                          uint64_t sigma_version) {
  SPCView canonical = CanonicalizeSPCView(catalog, view);
  std::string bytes = SerializeRequest(catalog, canonical, sigma_version);
  return RequestFingerprint{Fnv1a(bytes), CheckHash(bytes)};
}

uint64_t FingerprintRequest(const Catalog& catalog, const SPCView& view,
                            uint64_t sigma_version) {
  return FingerprintRequestPair(catalog, view, sigma_version).key;
}

UnionFingerprint FingerprintUnionRequestPair(const Catalog& catalog,
                                             const SPCUView& view,
                                             uint64_t sigma_version) {
  UnionFingerprint out;
  out.disjuncts.reserve(view.disjuncts.size());
  for (const SPCView& d : view.disjuncts) {
    out.disjuncts.push_back(FingerprintRequestPair(catalog, d, sigma_version));
  }
  // Multiset fuse: sort copies of the per-disjunct (key, check) pairs so
  // disjunct order cannot affect the fused key, then serialize under a
  // union domain tag. SerializeRequest streams never start with this tag
  // followed by a pair count, so a union cannot alias an SPC request.
  std::vector<std::pair<uint64_t, uint64_t>> sorted;
  sorted.reserve(out.disjuncts.size());
  for (const RequestFingerprint& f : out.disjuncts) {
    sorted.emplace_back(f.key, f.check);
  }
  std::sort(sorted.begin(), sorted.end());
  std::string bytes;
  auto put = [&bytes](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<char>(x >> (8 * i)));
    }
  };
  put(0x554e494f4eull);  // "UNION" domain tag
  put(sorted.size());
  for (const auto& [key, check] : sorted) {
    put(key);
    put(check);
  }
  out.fused = RequestFingerprint{Fnv1a(bytes), CheckHash(bytes)};
  return out;
}

uint64_t FingerprintSPCUView(const Catalog& catalog, const SPCUView& view) {
  return FingerprintUnionRequestPair(catalog, view, /*sigma_version=*/0)
      .fused.key;
}

}  // namespace cfdprop
