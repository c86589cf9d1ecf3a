#include "src/cover/rbr.h"

#include <algorithm>

namespace cfdprop {

std::optional<CFD> Resolvent(const CFD& phi1, const CFD& phi2, AttrIndex a) {
  if (phi1.rhs != a) return std::nullopt;
  size_t pos = phi2.FindLhs(a);
  if (pos == SIZE_MAX) return std::nullopt;
  // Shortcutting into phi2's own RHS at A would keep A around.
  if (phi2.rhs == a) return std::nullopt;
  // Order condition t1[A] <= t2[A] (Fig. 3 line 6).
  if (!PatternValue::LessEq(phi1.rhs_pat, phi2.lhs_pats[pos])) {
    return std::nullopt;
  }

  // Build W ++ Z with parallel patterns; CFD::Make merges overlapping
  // attributes via pattern-min (the (+) operator) and fails when the min
  // is undefined.
  std::vector<AttrIndex> lhs = phi1.lhs;
  std::vector<PatternValue> pats = phi1.lhs_pats;
  for (size_t i = 0; i < phi2.lhs.size(); ++i) {
    if (i == pos) continue;
    lhs.push_back(phi2.lhs[i]);
    pats.push_back(phi2.lhs_pats[i]);
  }
  Result<CFD> made = CFD::Make(phi1.relation, std::move(lhs),
                               std::move(pats), phi2.rhs, phi2.rhs_pat);
  if (!made.ok()) return std::nullopt;  // oplus undefined
  CFD out = std::move(made).value();
  // A in W (phi1's own LHS) would survive into the resolvent; such
  // resolvents are discarded with the rest of the A-mentioning CFDs.
  if (out.Mentions(a)) return std::nullopt;
  if (out.IsTrivial()) return std::nullopt;
  return out;
}

std::optional<CFD> EncodeForbiddenPattern(RelationId relation,
                                          std::vector<AttrIndex> attrs,
                                          std::vector<PatternValue> pats,
                                          Value alt1, Value alt2,
                                          bool* unconditional) {
  *unconditional = false;
  // Merge duplicates first via a throwaway Make (wildcard RHS on an
  // arbitrary attribute keeps the LHS untouched apart from the merge).
  // An undefined merge means the pattern matches nothing: no constraint.
  if (attrs.empty()) {
    *unconditional = true;
    return std::nullopt;
  }
  const AttrIndex probe_rhs = attrs[0];
  Result<CFD> merged = CFD::Make(relation, std::move(attrs),
                                 std::move(pats), probe_rhs,
                                 PatternValue::Wildcard());
  if (!merged.ok()) return std::nullopt;
  std::vector<AttrIndex> m_attrs = std::move(merged.value().lhs);
  std::vector<PatternValue> m_pats = std::move(merged.value().lhs_pats);

  size_t c_pos = SIZE_MAX;
  for (size_t i = 0; i < m_pats.size(); ++i) {
    if (m_pats[i].is_constant()) {
      c_pos = i;
      break;
    }
  }
  if (c_pos == SIZE_MAX) {
    *unconditional = true;  // matches every tuple: relation inconsistent
    return std::nullopt;
  }
  AttrIndex c_attr = m_attrs[c_pos];
  Value e = m_pats[c_pos].value();
  Value f = alt1 != e ? alt1 : alt2;

  Result<CFD> made = CFD::Make(relation, std::move(m_attrs),
                               std::move(m_pats), c_attr,
                               PatternValue::Constant(f));
  if (!made.ok()) return std::nullopt;
  if (made.value().IsTrivial()) return std::nullopt;
  return std::move(made).value();
}

std::optional<CFD> ForbiddenResolvent(const CFD& phi1, const CFD& phi2,
                                      AttrIndex a, bool* unconditional) {
  *unconditional = false;
  if (phi1.rhs != a || phi2.rhs != a) return std::nullopt;
  if (!phi1.rhs_pat.is_constant() || !phi2.rhs_pat.is_constant()) {
    return std::nullopt;
  }
  if (phi1.rhs_pat.value() == phi2.rhs_pat.value()) return std::nullopt;

  std::vector<AttrIndex> lhs = phi1.lhs;
  std::vector<PatternValue> pats = phi1.lhs_pats;
  lhs.insert(lhs.end(), phi2.lhs.begin(), phi2.lhs.end());
  pats.insert(pats.end(), phi2.lhs_pats.begin(), phi2.lhs_pats.end());

  std::optional<CFD> out =
      EncodeForbiddenPattern(phi1.relation, std::move(lhs), std::move(pats),
                             phi1.rhs_pat.value(), phi2.rhs_pat.value(),
                             unconditional);
  if (out.has_value() && out->Mentions(a)) return std::nullopt;
  return out;
}

std::optional<CFD> ForbiddenProjection(const CFD& phif, const CFD& phip,
                                       AttrIndex a, bool* unconditional) {
  *unconditional = false;
  if (!phif.IsForbiddenPattern()) return std::nullopt;
  size_t a_pos = phif.FindLhs(a);
  if (a_pos == SIZE_MAX || !phif.lhs_pats[a_pos].is_constant()) {
    return std::nullopt;
  }
  Value e = phif.lhs_pats[a_pos].value();
  // phip must force a = e on its matches.
  if (phip.rhs != a || !phip.rhs_pat.is_constant() ||
      phip.rhs_pat.value() != e) {
    return std::nullopt;
  }

  // Merged forbidden pattern: (phif.lhs - a) (+) phip.lhs.
  std::vector<AttrIndex> lhs;
  std::vector<PatternValue> pats;
  for (size_t i = 0; i < phif.lhs.size(); ++i) {
    if (i == a_pos) continue;
    lhs.push_back(phif.lhs[i]);
    pats.push_back(phif.lhs_pats[i]);
  }
  lhs.insert(lhs.end(), phip.lhs.begin(), phip.lhs.end());
  pats.insert(pats.end(), phip.lhs_pats.begin(), phip.lhs_pats.end());

  // Two known-distinct constants from phif's own conflict.
  size_t r_pos = phif.FindLhs(phif.rhs);
  Value alt1 = phif.rhs_pat.value();
  Value alt2 = phif.lhs_pats[r_pos].value();

  std::optional<CFD> out = EncodeForbiddenPattern(
      phif.relation, std::move(lhs), std::move(pats), alt1, alt2,
      unconditional);
  if (out.has_value() && out->Mentions(a)) return std::nullopt;
  return out;
}

namespace {

/// Incrementally maintained producer/consumer degrees per attribute,
/// used to pick the drop order: next is the attribute with the fewest
/// potential resolvents (#CFDs with RHS A times #CFDs with A in LHS).
/// Any order is correct (Proposition 4.4); this one keeps intermediate
/// covers small, and keeping the counts incremental avoids rescanning
/// the cover for every remaining attribute (quadratic at Fig. 8 scale).
class AttrDegrees {
 public:
  AttrDegrees(size_t arity, const std::vector<CFD>& gamma)
      : producers_(arity, 0), consumers_(arity, 0) {
    for (const CFD& c : gamma) Add(c);
  }

  void Add(const CFD& c) {
    ++producers_[c.rhs];
    for (AttrIndex a : c.lhs) ++consumers_[a];
  }
  void Remove(const CFD& c) {
    --producers_[c.rhs];
    for (AttrIndex a : c.lhs) --consumers_[a];
  }

  AttrIndex PickNext(const std::vector<AttrIndex>& remaining) const {
    AttrIndex best = remaining.front();
    uint64_t best_score = UINT64_MAX;
    for (AttrIndex a : remaining) {
      uint64_t score = static_cast<uint64_t>(producers_[a]) * consumers_[a];
      if (score < best_score) {
        best_score = score;
        best = a;
      }
    }
    return best;
  }

 private:
  std::vector<uint32_t> producers_;
  std::vector<uint32_t> consumers_;
};

/// Partitioned MinCover (Section 4.3): minimize fixed-size chunks,
/// O(|Gamma| * k0^2) implication calls.
Result<std::vector<CFD>> PartitionedMinCover(std::vector<CFD> gamma,
                                             size_t arity, size_t k0) {
  if (gamma.size() <= k0) {
    return RemoveRedundantCFDs(std::move(gamma), arity);
  }
  std::vector<CFD> out;
  out.reserve(gamma.size());
  for (size_t begin = 0; begin < gamma.size(); begin += k0) {
    size_t end = std::min(begin + k0, gamma.size());
    std::vector<CFD> chunk(std::make_move_iterator(gamma.begin() + begin),
                           std::make_move_iterator(gamma.begin() + end));
    CFDPROP_ASSIGN_OR_RETURN(chunk,
                             RemoveRedundantCFDs(std::move(chunk), arity));
    for (CFD& c : chunk) out.push_back(std::move(c));
  }
  return out;
}

}  // namespace

Result<RBRResult> RBR(std::vector<CFD> sigma,
                      const std::vector<AttrIndex>& drop, size_t arity,
                      const RBROptions& options) {
  for (const CFD& c : sigma) {
    CFDPROP_RETURN_NOT_OK(c.Validate(arity));
    if (c.is_special_x()) {
      return Status::InvalidArgument(
          "RBR does not accept special-x CFDs; substitute representatives "
          "first (PropCFD_SPC line 9)");
    }
  }

  RBRResult result;
  std::vector<CFD> gamma = DedupeAndDropTrivial(std::move(sigma));
  std::vector<AttrIndex> remaining = drop;
  AttrDegrees degrees(arity, gamma);
  // Dedupes C, then C against Gamma, by position: no CFD is copied.
  CfdPositionSet seen;
  // Watermark for the growth-triggered intermediate minimization.
  size_t last_minimized_size = gamma.size();

  while (!remaining.empty()) {
    AttrIndex a = degrees.PickNext(remaining);
    remaining.erase(std::find(remaining.begin(), remaining.end(), a));

    // C := all nontrivial A-resolvents, including forbidden-pattern
    // resolvents from pairs of conflicting constant producers.
    std::vector<CFD> resolvents;
    seen.Clear(0);
    auto add = [&](std::optional<CFD>& r) {
      if (!r.has_value()) return;
      resolvents.push_back(std::move(*r));
      if (!seen.Insert(resolvents, resolvents.size() - 1)) {
        resolvents.pop_back();
      }
    };
    auto over_budget = [&] {
      return gamma.size() + resolvents.size() > options.max_cover_size;
    };
    for (size_t i = 0; i < gamma.size() && !result.truncated; ++i) {
      const CFD& phi1 = gamma[i];
      if (phi1.rhs != a) continue;
      for (size_t j = 0; j < gamma.size(); ++j) {
        const CFD& phi2 = gamma[j];
        std::optional<CFD> r = Resolvent(phi1, phi2, a);
        add(r);
        if (j > i) {
          bool unconditional = false;
          std::optional<CFD> fb =
              ForbiddenResolvent(phi1, phi2, a, &unconditional);
          if (unconditional) {
            result.inconsistent = true;
            result.cover.clear();
            return result;
          }
          add(fb);
        }
        // Project forbidden patterns mentioning `a` through producers
        // that force the matching constant (phi1 is the producer here).
        {
          bool unconditional = false;
          std::optional<CFD> fp =
              ForbiddenProjection(phi2, phi1, a, &unconditional);
          if (unconditional) {
            result.inconsistent = true;
            result.cover.clear();
            return result;
          }
          add(fp);
        }
        if (over_budget()) {
          if (options.on_budget == RBROptions::OnBudget::kError) {
            return Status::ResourceExhausted(
                "RBR intermediate cover exceeded max_cover_size");
          }
          result.truncated = true;
          break;
        }
      }
    }

    // Gamma := Gamma[U - {A}] ++ C. A resolvent never mentions A, so it
    // can only repeat a CFD that stays.
    std::erase_if(gamma, [&](const CFD& c) {
      if (!c.Mentions(a)) return false;
      degrees.Remove(c);
      return true;
    });
    if (!resolvents.empty()) {
      seen.Clear(gamma.size() + resolvents.size());
      for (size_t i = 0; i < gamma.size(); ++i) seen.Insert(gamma, i);
      for (CFD& r : resolvents) {
        gamma.push_back(std::move(r));
        if (seen.Insert(gamma, gamma.size() - 1)) {
          degrees.Add(gamma.back());
        } else {
          gamma.pop_back();
        }
      }
    }

    // Growth-triggered intermediate minimization (Section 4.3): the
    // point of MinCover-ing intermediate results is to bound resolution
    // blowups, so run it when the cover has grown by a partition's worth
    // of CFDs since the last minimization — amortized O(|Gamma| * k0^2)
    // overall, and never on the (common) shrinking drops.
    if (options.intermediate_mincover &&
        gamma.size() > options.mincover_partition &&
        gamma.size() >= last_minimized_size + options.mincover_partition) {
      CFDPROP_ASSIGN_OR_RETURN(
          gamma, PartitionedMinCover(std::move(gamma), arity,
                                     options.mincover_partition));
      degrees = AttrDegrees(arity, gamma);
      last_minimized_size = gamma.size();
    }
    if (result.truncated) break;
  }

  // Truncation may have left CFDs that mention un-dropped attributes;
  // remove them so the output is always over Y only.
  if (result.truncated) {
    for (AttrIndex a : remaining) {
      std::erase_if(gamma, [a](const CFD& c) { return c.Mentions(a); });
    }
  }

  result.cover = std::move(gamma);
  return result;
}

}  // namespace cfdprop
