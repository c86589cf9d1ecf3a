#include "src/cfd/cfd.h"

#include <algorithm>

#include "src/base/wire.h"

namespace cfdprop {

Result<CFD> CFD::Make(RelationId relation, std::vector<AttrIndex> lhs,
                      std::vector<PatternValue> lhs_pats, AttrIndex rhs,
                      PatternValue rhs_pat) {
  if (lhs.size() != lhs_pats.size()) {
    return Status::InvalidArgument("lhs and lhs_pats sizes differ");
  }
  for (const PatternValue& p : lhs_pats) {
    if (p.is_special_x()) {
      return Status::InvalidArgument(
          "special variable x is only allowed via CFD::Equality");
    }
  }
  if (rhs_pat.is_special_x()) {
    return Status::InvalidArgument(
        "special variable x is only allowed via CFD::Equality");
  }

  // Sort by attribute index, keeping patterns parallel, and merge
  // duplicates, all inside the argument vectors, which then become the
  // CFD's own: Make allocates nothing. LHS are short, so an insertion
  // sort it is. The merge is order-free (min is commutative), so the
  // result does not depend on how duplicates were ordered.
  for (size_t i = 1; i < lhs.size(); ++i) {
    for (size_t j = i; j > 0 && lhs[j] < lhs[j - 1]; --j) {
      std::swap(lhs[j], lhs[j - 1]);
      std::swap(lhs_pats[j], lhs_pats[j - 1]);
    }
  }
  size_t kept = 0;
  for (size_t i = 0; i < lhs.size(); ++i) {
    if (kept > 0 && lhs[kept - 1] == lhs[i]) {
      // Duplicate LHS attribute: merge the two patterns via min.
      auto merged = PatternValue::Min(lhs_pats[kept - 1], lhs_pats[i]);
      if (!merged.has_value()) {
        return Status::InvalidArgument(
            "duplicate LHS attribute with incomparable constants");
      }
      lhs_pats[kept - 1] = *merged;
      continue;
    }
    lhs[kept] = lhs[i];
    lhs_pats[kept] = lhs_pats[i];
    ++kept;
  }
  lhs.resize(kept);
  lhs_pats.resize(kept);

  CFD out;
  out.relation = relation;
  out.rhs = rhs;
  out.rhs_pat = rhs_pat;
  out.lhs = std::move(lhs);
  out.lhs_pats = std::move(lhs_pats);

  // Canonicalization: with a constant RHS, wildcard-pattern LHS
  // attributes are redundant. Satisfaction quantifies over pairs
  // including (t, t), so (XZ -> A, (tx, _ || c)) already forces A = c on
  // every tuple matching tx alone — the agreement requirement on Z adds
  // nothing. Dropping them keeps resolution (RBR) complete: otherwise a
  // projected-out Z with no producer CFD would take this constraint with
  // it even though it survives the projection.
  if (out.rhs_pat.is_constant()) {
    size_t w = 0;
    for (size_t r = 0; r < out.lhs.size(); ++r) {
      if (out.lhs_pats[r].is_wildcard()) continue;
      out.lhs[w] = out.lhs[r];
      out.lhs_pats[w] = out.lhs_pats[r];
      ++w;
    }
    out.lhs.resize(w);
    out.lhs_pats.resize(w);
  }
  return out;
}

CFD CFD::Equality(RelationId relation, AttrIndex a, AttrIndex b) {
  CFD out;
  out.relation = relation;
  out.lhs = {a};
  out.lhs_pats = {PatternValue::SpecialX()};
  out.rhs = b;
  out.rhs_pat = PatternValue::SpecialX();
  return out;
}

CFD CFD::ConstantColumn(RelationId relation, AttrIndex a, Value c) {
  // The paper writes this as R(A -> A, ( || a)); canonically the LHS is
  // empty (the wildcard A adds nothing, see Make).
  CFD out;
  out.relation = relation;
  out.rhs = a;
  out.rhs_pat = PatternValue::Constant(c);
  return out;
}

Result<CFD> CFD::FD(RelationId relation, std::vector<AttrIndex> lhs,
                    AttrIndex rhs) {
  std::vector<PatternValue> pats(lhs.size(), PatternValue::Wildcard());
  return Make(relation, std::move(lhs), std::move(pats), rhs,
              PatternValue::Wildcard());
}

bool CFD::IsPlainFD() const {
  if (is_special_x()) return false;
  if (!rhs_pat.is_wildcard()) return false;
  for (const PatternValue& p : lhs_pats) {
    if (!p.is_wildcard()) return false;
  }
  return true;
}

bool CFD::IsTrivial() const {
  if (is_special_x()) {
    return lhs.size() == 1 && lhs[0] == rhs;
  }
  size_t pos = FindLhs(rhs);
  if (pos == SIZE_MAX) return false;
  const PatternValue& p_lhs = lhs_pats[pos];
  // (eta1 || eta2) with eta1 == eta2, or eta1 constant and eta2 == '_'.
  if (p_lhs == rhs_pat) return true;
  if (p_lhs.is_constant() && rhs_pat.is_wildcard()) return true;
  return false;
}

bool CFD::IsForbiddenPattern() const {
  if (!rhs_pat.is_constant()) return false;
  size_t pos = FindLhs(rhs);
  if (pos == SIZE_MAX) return false;
  return lhs_pats[pos].is_constant() &&
         lhs_pats[pos].value() != rhs_pat.value();
}

size_t CFD::FindLhs(AttrIndex attr) const {
  auto it = std::lower_bound(lhs.begin(), lhs.end(), attr);
  if (it != lhs.end() && *it == attr) {
    return static_cast<size_t>(it - lhs.begin());
  }
  return SIZE_MAX;
}

bool CFD::Mentions(AttrIndex attr) const {
  return rhs == attr || FindLhs(attr) != SIZE_MAX;
}

Status CFD::Validate(size_t arity) const {
  if (lhs.size() != lhs_pats.size()) {
    return Status::Internal("lhs/lhs_pats size mismatch");
  }
  if (rhs >= arity) return Status::InvalidArgument("rhs attr out of range");
  for (size_t i = 0; i < lhs.size(); ++i) {
    if (lhs[i] >= arity) {
      return Status::InvalidArgument("lhs attr out of range");
    }
    if (i > 0 && lhs[i - 1] >= lhs[i]) {
      return Status::Internal("lhs not strictly ascending");
    }
  }
  if (is_special_x()) {
    if (lhs.size() != 1 || !lhs_pats[0].is_special_x()) {
      return Status::Internal("malformed special-x CFD");
    }
  } else {
    for (const PatternValue& p : lhs_pats) {
      if (p.is_special_x()) {
        return Status::Internal("special x in a non-equality CFD");
      }
    }
  }
  return Status::OK();
}

bool CFD::operator==(const CFD& o) const {
  return relation == o.relation && lhs == o.lhs && lhs_pats == o.lhs_pats &&
         rhs == o.rhs && rhs_pat == o.rhs_pat;
}

std::string CFD::ToString(
    const ValuePool& pool,
    const std::function<std::string(AttrIndex)>& attr_name) const {
  std::string out = "([";
  for (size_t i = 0; i < lhs.size(); ++i) {
    if (i > 0) out += ", ";
    out += attr_name(lhs[i]);
  }
  out += "] -> ";
  out += attr_name(rhs);
  out += ", (";
  for (size_t i = 0; i < lhs_pats.size(); ++i) {
    if (i > 0) out += ", ";
    out += lhs_pats[i].ToString(pool);
  }
  out += " || ";
  out += rhs_pat.ToString(pool);
  out += "))";
  return out;
}

std::string CFD::ToString(const Catalog& catalog) const {
  const RelationSchema* schema = nullptr;
  std::string rel_name = "V";
  if (relation != kViewSchemaId && relation < catalog.num_relations()) {
    schema = &catalog.relation(relation);
    rel_name = schema->name();
  }
  auto name = [&](AttrIndex i) -> std::string {
    if (schema != nullptr && i < schema->arity()) return schema->attr(i).name;
    return "#" + std::to_string(i);
  };
  return rel_name + ToString(catalog.pool(), name);
}

size_t CFDHash::operator()(const CFD& c) const {
  auto mix = [](size_t h, size_t v) {
    return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  };
  size_t h = c.relation;
  auto mix_pat = [&](const PatternValue& p) {
    h = mix(h, static_cast<size_t>(p.kind()));
    if (p.is_constant()) h = mix(h, p.value());
  };
  for (size_t i = 0; i < c.lhs.size(); ++i) {
    h = mix(h, c.lhs[i]);
    mix_pat(c.lhs_pats[i]);
  }
  h = mix(h, c.rhs);
  mix_pat(c.rhs_pat);
  return h;
}

Result<std::vector<CFD>> GeneralCFD::Normalize() const {
  if (rhs.size() != rhs_pats.size()) {
    return Status::InvalidArgument("rhs and rhs_pats sizes differ");
  }
  std::vector<CFD> out;
  out.reserve(rhs.size());
  for (size_t i = 0; i < rhs.size(); ++i) {
    CFDPROP_ASSIGN_OR_RETURN(
        CFD c, CFD::Make(relation, lhs, lhs_pats, rhs[i], rhs_pats[i]));
    out.push_back(std::move(c));
  }
  return out;
}

void CFD::AppendSnapshotBytes(
    std::string& out, const std::function<uint32_t(Value)>& value_index)
    const {
  wire::PutU32(out, relation);
  wire::PutU32(out, static_cast<uint32_t>(lhs.size()));
  for (size_t i = 0; i < lhs.size(); ++i) {
    wire::PutU32(out, lhs[i]);
    lhs_pats[i].AppendSnapshotBytes(out, value_index);
  }
  wire::PutU32(out, rhs);
  rhs_pat.AppendSnapshotBytes(out, value_index);
}

Result<CFD> CFD::FromSnapshotBytes(
    std::string_view bytes, size_t* pos,
    const std::function<Result<Value>(uint32_t)>& value_at) {
  CFD c;
  uint32_t lhs_size = 0;
  if (!wire::GetU32(bytes, pos, &c.relation) ||
      !wire::GetU32(bytes, pos, &lhs_size)) {
    return Status::InvalidArgument("CFD header truncated");
  }
  // An LHS can never be wider than the encoding that claims it: each
  // attribute costs >= 5 bytes, so an absurd count is corruption, not a
  // huge allocation.
  if (lhs_size > (bytes.size() - *pos) / 5) {
    return Status::InvalidArgument("CFD lhs count exceeds remaining bytes");
  }
  c.lhs.reserve(lhs_size);
  c.lhs_pats.reserve(lhs_size);
  for (uint32_t i = 0; i < lhs_size; ++i) {
    AttrIndex attr = kNoAttr;
    if (!wire::GetU32(bytes, pos, &attr)) {
      return Status::InvalidArgument("CFD lhs truncated");
    }
    CFDPROP_ASSIGN_OR_RETURN(
        PatternValue pat,
        PatternValue::FromSnapshotBytes(bytes, pos, value_at));
    c.lhs.push_back(attr);
    c.lhs_pats.push_back(pat);
  }
  if (!wire::GetU32(bytes, pos, &c.rhs)) {
    return Status::InvalidArgument("CFD rhs truncated");
  }
  CFDPROP_ASSIGN_OR_RETURN(
      c.rhs_pat, PatternValue::FromSnapshotBytes(bytes, pos, value_at));
  return c;
}

void CfdPositionSet::Clear(size_t expected) {
  size_t capacity = 16;
  while (capacity < 2 * expected) capacity *= 2;
  slots_.assign(std::max(capacity, slots_.size()), Slot{});
  size_ = 0;
}

bool CfdPositionSet::Insert(const std::vector<CFD>& cfds, size_t i) {
  if (2 * (size_ + 1) > slots_.size()) Grow();
  const size_t hash = CFDHash{}(cfds[i]);
  const size_t mask = slots_.size() - 1;
  for (size_t s = Home(hash);; s = (s + 1) & mask) {
    Slot& slot = slots_[s];
    if (slot.position == kEmpty) {
      slot = {hash, static_cast<uint32_t>(i)};
      ++size_;
      return true;
    }
    if (slot.hash == hash && cfds[slot.position] == cfds[i]) return false;
  }
}

size_t CfdPositionSet::Home(size_t hash) const {
  // Fibonacci hashing: CFDHash's low bits are weak, the high bits of
  // its product are not.
  return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ull) >> 32) &
         (slots_.size() - 1);
}

void CfdPositionSet::Grow() {
  std::vector<Slot> old(std::max<size_t>(16, 2 * slots_.size()));
  old.swap(slots_);
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.position == kEmpty) continue;
    size_t s = Home(slot.hash);
    while (slots_[s].position != kEmpty) s = (s + 1) & mask;
    slots_[s] = slot;
  }
}

std::vector<CFD> DedupeAndDropTrivial(std::vector<CFD> cfds) {
  // Compacts in place: cfds[0, kept) are the CFDs kept so far, and `seen`
  // holds their positions, so no CFD is copied. Slot `kept` takes the
  // next candidate and stays free again when that is a duplicate.
  size_t kept = 0;
  CfdPositionSet seen;
  seen.Clear(cfds.size());
  for (size_t i = 0; i < cfds.size(); ++i) {
    if (cfds[i].IsTrivial()) continue;
    if (kept != i) cfds[kept] = std::move(cfds[i]);
    if (seen.Insert(cfds, kept)) ++kept;
  }
  cfds.resize(kept);
  return cfds;
}

}  // namespace cfdprop
