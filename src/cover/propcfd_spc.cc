#include "src/cover/propcfd_spc.h"

#include <algorithm>
#include <optional>

#include "src/propagation/propagation.h"

namespace cfdprop {

namespace {

/// Representative choice per Fig. 2 line 8: the class representative,
/// preferring a column that is projected into the output.
std::vector<ColumnId> ChooseReps(const Catalog& catalog, const SPCView& view,
                                 const EqClasses& eq) {
  const size_t u = view.NumEcColumns(catalog);
  std::vector<bool> projected(u, false);
  for (const OutputColumn& o : view.output) {
    if (!o.is_constant) projected[o.ec_column] = true;
  }
  // Per class root: the smallest projected member if any, else the root.
  std::vector<ColumnId> choice(u, kNoAttr);
  for (ColumnId c = 0; c < u; ++c) {
    ColumnId root = eq.Rep(c);
    if (projected[c] && (choice[root] == kNoAttr || c < choice[root])) {
      choice[root] = c;
    }
  }
  std::vector<ColumnId> rep(u);
  for (ColumnId c = 0; c < u; ++c) {
    ColumnId root = eq.Rep(c);
    rep[c] = choice[root] != kNoAttr ? choice[root] : root;
  }
  return rep;
}

/// Fig. 2 lines 5-9 (Lemma 4.3) + key simplification for one source
/// CFD `c` of the product atom whose columns start at `base`: renames
/// `c` onto the Ec columns, substitutes class representatives and
/// simplifies against class keys, all in one step, so no renamed copy
/// of `c` exists. Returns nullopt when the CFD becomes
/// vacuous/trivial/redundant (implied by the Sigma_d CFDs emitted by
/// EQ2CFD), and sets *unconditional when it would force a constant
/// against a class key on every view tuple.
std::optional<CFD> SubstituteAndSimplify(const CFD& c, ColumnId base,
                                         const std::vector<ColumnId>& rep,
                                         const EqClasses& eq,
                                         bool simplify_with_keys,
                                         bool* unconditional) {
  std::vector<AttrIndex> lhs;
  std::vector<PatternValue> pats;
  lhs.reserve(c.lhs.size());
  pats.reserve(c.lhs.size());
  for (size_t i = 0; i < c.lhs.size(); ++i) {
    ColumnId col = rep[c.lhs[i] + base];
    const PatternValue& p = c.lhs_pats[i];
    Value key = eq.Key(col);
    if (simplify_with_keys && key != kNoValue) {
      if (p.is_constant() && p.value() != key) {
        // The column is always `key` on the view, so no view tuple
        // matches this LHS: the CFD is vacuous (and implied by Sigma_d).
        return std::nullopt;
      }
      // '_' or the key itself: the condition holds on every view tuple;
      // drop the attribute (agreement on a constant column is automatic).
      continue;
    }
    lhs.push_back(col);
    pats.push_back(p);
  }

  ColumnId rhs = rep[c.rhs + base];
  PatternValue rhs_pat = c.rhs_pat;
  Value rhs_key = eq.Key(rhs);
  if (simplify_with_keys && rhs_key != kNoValue) {
    if (rhs_pat.is_wildcard() ||
        (rhs_pat.is_constant() && rhs_pat.value() == rhs_key)) {
      // RHS agreement/binding already guaranteed by the constant column.
      return std::nullopt;
    }
    // Constant different from the key: the CFD asserts that no view
    // tuple matches its LHS at all. Re-encode as a forbidden-pattern
    // CFD over the LHS so the constraint survives the projection even
    // when `rhs` itself is projected out.
    // *unconditional: every view tuple matches the LHS and so would
    // need rhs = two constants (the caller reports it).
    return EncodeForbiddenPattern(kViewSchemaId, std::move(lhs),
                                  std::move(pats), rhs_pat.value(), rhs_key,
                                  unconditional);
  }

  Result<CFD> made =
      CFD::Make(kViewSchemaId, std::move(lhs), std::move(pats), rhs, rhs_pat);
  if (!made.ok()) {
    // Two LHS occurrences of one class carry incomparable constants: the
    // LHS matches no view tuple (the class columns are equal), vacuous.
    return std::nullopt;
  }
  if (made.value().IsTrivial()) return std::nullopt;
  return std::move(made).value();
}

/// Σ split by source relation, the one grouping Fig. 2 line 1 uses:
/// `order` lists the relations in first-seen order, `members[r]` the
/// positions of relation r's CFDs in Σ order.
struct RelationGroups {
  std::vector<RelationId> order;
  std::vector<std::vector<size_t>> members;  // indexed by RelationId
};

Result<RelationGroups> GroupByRelation(const Catalog& catalog,
                                       const std::vector<CFD>& sigma) {
  RelationGroups groups;
  groups.members.resize(catalog.num_relations());
  for (size_t i = 0; i < sigma.size(); ++i) {
    const RelationId r = sigma[i].relation;
    if (r >= groups.members.size()) {
      return Status::InvalidArgument("source CFD with unknown relation");
    }
    if (groups.members[r].empty()) groups.order.push_back(r);
    groups.members[r].push_back(i);
  }
  return groups;
}

/// MinCover of one relation's group, appended to `out`.
Status AppendMinCover(const Catalog& catalog, RelationId r,
                      std::vector<CFD> group, const MinCoverOptions& options,
                      std::vector<CFD>* out) {
  CFDPROP_ASSIGN_OR_RETURN(
      std::vector<CFD> mc,
      MinCover(std::move(group), catalog.relation(r).arity(),
               /*domains=*/{}, options));
  for (CFD& c : mc) out->push_back(std::move(c));
  return Status::OK();
}

}  // namespace

Result<std::vector<CFD>> MinCoverSigma(const Catalog& catalog,
                                       std::vector<CFD> sigma,
                                       const MinCoverOptions& options) {
  // Fig. 2 line 1: minimize the input per source relation, grouped in
  // first-seen order so the output order is deterministic.
  CFDPROP_ASSIGN_OR_RETURN(RelationGroups groups,
                           GroupByRelation(catalog, sigma));
  std::vector<CFD> out;
  for (RelationId r : groups.order) {
    std::vector<CFD> group;
    group.reserve(groups.members[r].size());
    for (size_t i : groups.members[r]) group.push_back(std::move(sigma[i]));
    CFDPROP_RETURN_NOT_OK(
        AppendMinCover(catalog, r, std::move(group), options, &out));
  }
  return out;
}

Result<std::vector<CFD>> MinCoverSigmaRelation(
    const Catalog& catalog, const std::vector<CFD>& prev,
    const std::vector<CFD>& sigma, RelationId relation,
    const MinCoverOptions& options) {
  // MinCover of a group reads only that group's CFDs, in order, so every
  // group but `relation`'s is already in `prev`: copy it by relation
  // tag, in `sigma`'s first-seen order, and minimize the one group left.
  CFDPROP_ASSIGN_OR_RETURN(RelationGroups groups,
                           GroupByRelation(catalog, sigma));
  CFDPROP_ASSIGN_OR_RETURN(RelationGroups kept,
                           GroupByRelation(catalog, prev));
  std::vector<CFD> out;
  out.reserve(prev.size() + 1);
  for (RelationId r : groups.order) {
    if (r != relation) {
      for (size_t i : kept.members[r]) out.push_back(prev[i]);
      continue;
    }
    std::vector<CFD> group;
    group.reserve(groups.members[r].size());
    for (size_t i : groups.members[r]) group.push_back(sigma[i]);
    CFDPROP_RETURN_NOT_OK(
        AppendMinCover(catalog, r, std::move(group), options, &out));
  }
  return out;
}

Result<SigmaV> BuildSigmaV(const Catalog& catalog, const SPCView& view,
                           const std::vector<CFD>& sigma, const EqClasses& eq,
                           bool simplify_with_keys) {
  const size_t u = view.NumEcColumns(catalog);
  if (eq.inconsistent || eq.rep.size() != u || eq.key.size() != u) {
    return Status::InvalidArgument(
        "BuildSigmaV needs the consistent EQ of the view");
  }
  SigmaV sv;
  // Lines 5-10: Sigma_V := the source CFDs renamed per product atom
  // (atom-major, Sigma order within an atom), with representatives
  // substituted and domain constraints applied in the same pass.
  sv.rep = ChooseReps(catalog, view, eq);
  for (size_t j = 0; j < view.atoms.size(); ++j) {
    const ColumnId base = view.AtomBase(catalog, j);
    for (const CFD& c : sigma) {
      if (c.relation != view.atoms[j]) continue;
      bool unconditional = false;
      std::optional<CFD> s = SubstituteAndSimplify(
          c, base, sv.rep, eq, simplify_with_keys, &unconditional);
      if (unconditional) {
        // ComputeEQ chased the tableau with sigma, where the single-tuple
        // rule binds that constant against the key: this `eq` did not
        // come from ComputeEQ.
        return Status::Internal(
            "a source CFD forces a constant against a class key on every "
            "view tuple, but EQ is consistent");
      }
      if (s.has_value()) sv.cfds.push_back(std::move(*s));
    }
  }
  sv.cfds = DedupeAndDropTrivial(std::move(sv.cfds));

  if (!simplify_with_keys) {
    // Keys were not folded into the CFDs; expose them to RBR as
    // empty-LHS constant CFDs so resolution can use them.
    for (ColumnId c = 0; c < u; ++c) {
      if (sv.rep[c] != c) continue;
      Value key = eq.Key(c);
      if (key == kNoValue) continue;
      CFD k;
      k.relation = kViewSchemaId;
      k.rhs = c;
      k.rhs_pat = PatternValue::Constant(key);
      sv.cfds.push_back(std::move(k));
    }
  }

  // Line 11's X = attr(Es) - Y. Only attributes that actually occur in
  // Sigma_V need dropping: absent attributes generate no resolvents and
  // nothing to remove.
  std::vector<bool> keep(u, false);
  for (const OutputColumn& o : view.output) {
    if (!o.is_constant) keep[sv.rep[o.ec_column]] = true;
  }
  std::vector<bool> mentioned(u, false);
  for (const CFD& c : sv.cfds) {
    for (AttrIndex a : c.lhs) mentioned[a] = true;
    mentioned[c.rhs] = true;
  }
  for (ColumnId c = 0; c < u; ++c) {
    if (mentioned[c] && !keep[c]) sv.drop.push_back(c);
  }
  return sv;
}

Result<PropCoverResult> PropagationCoverSPC(Catalog& catalog,
                                            const SPCView& view,
                                            const std::vector<CFD>& sigma,
                                            const PropCoverOptions& options) {
  CFDPROP_RETURN_NOT_OK(view.Validate(catalog));
  for (const CFD& c : sigma) {
    if (c.relation >= catalog.num_relations()) {
      return Status::InvalidArgument("source CFD with unknown relation");
    }
    CFDPROP_RETURN_NOT_OK(c.Validate(catalog.relation(c.relation).arity()));
  }

  PropCoverResult result;

  // Line 1: Sigma := MinCover(Sigma). Without it, `sigma` is only read.
  std::vector<CFD> minimized;
  if (options.input_mincover) {
    CFDPROP_ASSIGN_OR_RETURN(minimized,
                             MinCoverSigma(catalog, sigma, options.mincover));
  }
  const std::vector<CFD>& input = options.input_mincover ? minimized : sigma;
  result.input_cfds = input.size();

  // Line 2: EQ := ComputeEQ(Es, Sigma).
  CFDPROP_ASSIGN_OR_RETURN(EqClasses eq, ComputeEQ(catalog, view, input));

  // Lines 3-4: inconsistency => the Lemma 4.5 pair.
  if (eq.inconsistent) {
    result.cover = MakeEmptyViewCover(catalog, view);
    result.always_empty = true;
    return result;
  }

  // Lines 5-11: Sigma_V and the attributes RBR eliminates.
  CFDPROP_ASSIGN_OR_RETURN(
      SigmaV sv,
      BuildSigmaV(catalog, view, input, eq, options.simplify_with_keys));
  result.sigma_v_size = sv.cfds.size();
  const std::vector<ColumnId>& rep = sv.rep;
  const size_t u = sv.rep.size();

  // Line 11: Sigma_c := RBR(Sigma_V, attr(Es) - Y).
  CFDPROP_ASSIGN_OR_RETURN(RBRResult rbr,
                           RBR(std::move(sv.cfds), sv.drop, u, options.rbr));
  if (rbr.inconsistent) {
    // Elimination derived an unconditional contradiction that the
    // ComputeEQ chase missed: the view is always empty (Lemma 4.5).
    result.cover = MakeEmptyViewCover(catalog, view);
    result.always_empty = true;
    return result;
  }
  result.truncated = rbr.truncated;
  result.rbr_output_size = rbr.cover.size();

  // Map Ec representatives to output column positions: the first
  // output column of a class stands for it.
  std::vector<AttrIndex> rep_to_out(u, kNoAttr);
  for (size_t i = 0; i < view.output.size(); ++i) {
    const OutputColumn& o = view.output[i];
    if (o.is_constant) continue;
    AttrIndex& out = rep_to_out[rep[o.ec_column]];
    if (out == kNoAttr) out = static_cast<AttrIndex>(i);
  }
  std::vector<CFD> cover;
  cover.reserve(rbr.cover.size());
  for (CFD& c : rbr.cover) {
    bool ok = rep_to_out[c.rhs] != kNoAttr;
    for (AttrIndex& a : c.lhs) {
      a = rep_to_out[a];
      ok = ok && a != kNoAttr;  // defensive; RBR leaves only kept columns
    }
    if (!ok) continue;
    Result<CFD> made =
        CFD::Make(kViewSchemaId, std::move(c.lhs), std::move(c.lhs_pats),
                  rep_to_out[c.rhs], c.rhs_pat);
    if (made.ok() && !made.value().IsTrivial()) {
      cover.push_back(std::move(made).value());
    }
  }

  // Line 12: Sigma_d := EQ2CFD(EQ).
  std::vector<CFD> sigma_d = EQ2CFD(catalog, view, eq);
  for (CFD& c : sigma_d) cover.push_back(std::move(c));

  // Line 13: MinCover(Sigma_c ++ Sigma_d).
  if (options.final_mincover) {
    CFDPROP_ASSIGN_OR_RETURN(
        cover, MinCover(std::move(cover), view.OutputArity(), /*domains=*/{},
                        options.mincover));
  } else {
    cover = DedupeAndDropTrivial(std::move(cover));
  }
  result.cover = std::move(cover);
  return result;
}

Result<PropCoverResult> PropagationCoverSPCU(Catalog& catalog,
                                             const SPCUView& view,
                                             const std::vector<CFD>& sigma,
                                             const PropCoverOptions& options) {
  CFDPROP_RETURN_NOT_OK(view.Validate(catalog));
  if (view.disjuncts.size() == 1) {
    return PropagationCoverSPC(catalog, view.disjuncts[0], sigma, options);
  }

  // Line 1 hoisted above the disjunct loop: minimize once and hand every
  // disjunct (and the cross-disjunct propagation filter) the same
  // minimized set — exactly what the engine does at registration, so the
  // cached and one-shot paths assemble from identical per-disjunct
  // inputs.
  PropCoverOptions disjunct_options = options;
  std::vector<CFD> minimized;
  if (options.input_mincover) {
    CFDPROP_ASSIGN_OR_RETURN(minimized,
                             MinCoverSigma(catalog, sigma, options.mincover));
    disjunct_options.input_mincover = false;
  }
  const std::vector<CFD>& input = options.input_mincover ? minimized : sigma;
  std::vector<PropCoverResult> per_disjunct;
  per_disjunct.reserve(view.disjuncts.size());
  for (const SPCView& disjunct : view.disjuncts) {
    CFDPROP_ASSIGN_OR_RETURN(
        PropCoverResult r,
        PropagationCoverSPC(catalog, disjunct, input, disjunct_options));
    per_disjunct.push_back(std::move(r));
  }
  return AssembleUnionCover(catalog, view, input, std::move(per_disjunct),
                            options);
}

Result<PropCoverResult> AssembleUnionCover(
    Catalog& catalog, const SPCUView& view, const std::vector<CFD>& sigma,
    std::vector<PropCoverResult> per_disjunct,
    const PropCoverOptions& options) {
  if (per_disjunct.size() != view.disjuncts.size()) {
    return Status::InvalidArgument(
        "per-disjunct results do not match the union view");
  }
  if (view.disjuncts.size() == 1) {
    // Parity with PropagationCoverSPCU's single-disjunct delegation.
    return std::move(per_disjunct[0]);
  }

  // Candidates: the union of per-disjunct covers, each CFD additionally
  // guarded by its disjunct's constant output columns. Within a disjunct
  // those columns are constant, so MinCover strips conditions on them —
  // but across the union they are exactly the discriminators that make a
  // CFD propagatable (the CC = '44' of phi1 in Example 1.1).
  PropCoverResult result;
  std::vector<CFD> candidates;
  size_t empty_disjuncts = 0;
  for (size_t j = 0; j < view.disjuncts.size(); ++j) {
    const SPCView& disjunct = view.disjuncts[j];
    PropCoverResult& r = per_disjunct[j];
    result.truncated |= r.truncated;
    result.input_cfds = std::max(result.input_cfds, r.input_cfds);
    result.sigma_v_size += r.sigma_v_size;
    result.rbr_output_size += r.rbr_output_size;
    if (r.always_empty) {
      ++empty_disjuncts;
      continue;  // an always-empty disjunct constrains nothing
    }
    std::vector<std::pair<AttrIndex, Value>> guards;
    for (size_t i = 0; i < disjunct.output.size(); ++i) {
      if (disjunct.output[i].is_constant) {
        guards.emplace_back(static_cast<AttrIndex>(i),
                            disjunct.output[i].value);
      }
    }
    for (CFD& c : r.cover) {
      if (!guards.empty() && !c.is_special_x()) {
        std::vector<AttrIndex> lhs = c.lhs;
        std::vector<PatternValue> pats = c.lhs_pats;
        for (const auto& [attr, value] : guards) {
          if (c.FindLhs(attr) == SIZE_MAX) {
            lhs.push_back(attr);
            pats.push_back(PatternValue::Constant(value));
          }
        }
        Result<CFD> guarded = CFD::Make(kViewSchemaId, std::move(lhs),
                                        std::move(pats), c.rhs, c.rhs_pat);
        if (guarded.ok() && !guarded.value().IsTrivial()) {
          candidates.push_back(std::move(guarded).value());
        }
      }
      candidates.push_back(std::move(c));
    }
  }
  if (empty_disjuncts == view.disjuncts.size()) {
    result.cover = MakeEmptyViewCover(catalog, view.disjuncts[0]);
    result.always_empty = true;
    return result;
  }
  candidates = DedupeAndDropTrivial(std::move(candidates));

  // Keep the candidates propagated via the whole union (the cross-
  // disjunct pair checks are what per-disjunct covers cannot see). One
  // tester validates the view and sigma once and chases each disjunct
  // combination once for all candidates.
  std::vector<CFD> kept;
  if (!candidates.empty()) {
    CFDPROP_ASSIGN_OR_RETURN(PropagationTester tester,
                             PropagationTester::Make(catalog, view, sigma));
    for (CFD& c : candidates) {
      CFDPROP_ASSIGN_OR_RETURN(bool prop, tester.IsPropagated(c));
      if (prop) kept.push_back(std::move(c));
    }
  }
  if (options.final_mincover) {
    CFDPROP_ASSIGN_OR_RETURN(
        kept, MinCover(std::move(kept), view.OutputArity(), /*domains=*/{},
                       options.mincover));
  }
  result.cover = std::move(kept);
  return result;
}

}  // namespace cfdprop
