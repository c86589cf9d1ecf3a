#include "src/parser/parser.h"

#include <gtest/gtest.h>

#include "src/propagation/propagation.h"

namespace cfdprop {
namespace {

TEST(ParserTest, RelationsWithDomains) {
  auto spec = ParseSpec(
      "relation R(A, B, C)\n"
      "relation S(flag{0,1}, val)\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->catalog.num_relations(), 2u);
  const RelationSchema& s = spec->catalog.relation(1);
  EXPECT_TRUE(s.attr(0).domain.finite());
  EXPECT_EQ(s.attr(0).domain.values().size(), 2u);
  EXPECT_FALSE(s.attr(1).domain.finite());
}

TEST(ParserTest, RepeatedDomainValueRejected) {
  auto e = ParseSpec("relation S(flag{0,0,1}, val)\n");
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(e.status().message().find("flag"), std::string::npos);
}

TEST(ParserTest, SourceCFDs) {
  auto spec = ParseSpec(
      "relation R(A, B, C)\n"
      "cfd R: [A] -> B\n"
      "cfd R: [A=20, B] -> C=x\n"
      "cfd R: [] -> C=k\n"
      "eq R: A = B\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_EQ(spec->source_cfds.size(), 4u);

  const CFD& fd = spec->source_cfds[0];
  EXPECT_TRUE(fd.IsPlainFD());
  EXPECT_EQ(fd.lhs, (std::vector<AttrIndex>{0}));
  EXPECT_EQ(fd.rhs, 1u);

  const CFD& cfd = spec->source_cfds[1];
  EXPECT_EQ(cfd.lhs.size(), 1u);  // wildcard B canonicalized away
  EXPECT_TRUE(cfd.rhs_pat.is_constant());
  EXPECT_EQ(spec->catalog.pool().Text(cfd.rhs_pat.value()), "x");

  const CFD& constant = spec->source_cfds[2];
  EXPECT_TRUE(constant.lhs.empty());
  EXPECT_EQ(constant.rhs, 2u);

  EXPECT_TRUE(spec->source_cfds[3].is_special_x());
}

TEST(ParserTest, ViewWithPiSigmaFrom) {
  auto spec = ParseSpec(
      "relation R(A, B)\n"
      "relation S(C, D)\n"
      "view V = pi(0.A as a, 1.D as d, \"44\" as cc)\n"
      "         sigma(0.B = 1.C, 0.A = \"7\") from(R, S)\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_EQ(spec->views.count("V"), 1u);
  const SPCUView& v = spec->views.at("V");
  ASSERT_EQ(v.disjuncts.size(), 1u);
  const SPCView& d = v.disjuncts[0];
  EXPECT_EQ(d.atoms.size(), 2u);
  EXPECT_EQ(d.selections.size(), 2u);
  ASSERT_EQ(d.OutputArity(), 3u);
  EXPECT_EQ(d.output[0].name, "a");
  EXPECT_TRUE(d.output[2].is_constant);
  EXPECT_EQ(spec->FindViewColumn("V", "d"), 1u);
  EXPECT_EQ(spec->FindViewColumn("V", "zzz"), kNoAttr);
}

TEST(ParserTest, ViewWithoutPiProjectsAll) {
  auto spec = ParseSpec(
      "relation R(A, B)\n"
      "view V = from(R)\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->views.at("V").OutputArity(), 2u);
}

TEST(ParserTest, UnionViews) {
  auto spec = ParseSpec(
      "relation R(A, B)\n"
      "relation S(C, D)\n"
      "view V = pi(0.A as x) from(R) union pi(0.C as x) from(S)\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->views.at("V").disjuncts.size(), 2u);
}

TEST(ParserTest, ViewCFDsResolveOutputColumns) {
  auto spec = ParseSpec(
      "relation R(A, B, C)\n"
      "view V = pi(0.A as a, 0.B as b) from(R)\n"
      "cfd V: [a] -> b\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_EQ(spec->view_cfds.size(), 1u);
  EXPECT_EQ(spec->view_cfds[0].first, "V");
  EXPECT_EQ(spec->view_cfds[0].second.relation, kViewSchemaId);
  EXPECT_EQ(spec->view_cfds[0].second.lhs, (std::vector<AttrIndex>{0}));
  EXPECT_EQ(spec->view_cfds[0].second.rhs, 1u);
}

TEST(ParserTest, InsertsBuildDatabase) {
  auto spec = ParseSpec(
      "relation R(A, B)\n"
      "insert R(1, hello)\n"
      "insert R(2, \"two words\")\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  auto db = spec->MakeDatabase();
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->relation(0).size(), 2u);
  EXPECT_EQ(spec->catalog.pool().Text(db->relation(0).tuples()[1][1]),
            "two words");
}

TEST(ParserTest, CommentsAndSeparators) {
  auto spec = ParseSpec(
      "# leading comment\n"
      "relation R(A, B);  # trailing comment\n"
      ";\n"
      "cfd R: [A] -> B\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->source_cfds.size(), 1u);
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  auto e1 = ParseSpec("relation R(A, B)\ncfd Q: [A] -> B\n");
  ASSERT_FALSE(e1.ok());
  EXPECT_NE(e1.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(e1.status().message().find("unknown relation"),
            std::string::npos);

  auto e2 = ParseSpec("relation R(A, B)\ncfd R: [Z] -> B\n");
  ASSERT_FALSE(e2.ok());
  EXPECT_NE(e2.status().message().find("unknown attribute"),
            std::string::npos);

  auto e3 = ParseSpec("relation R(A, B)\ninsert R(1)\n");
  ASSERT_FALSE(e3.ok());
  EXPECT_NE(e3.status().message().find("arity"), std::string::npos);

  auto e4 = ParseSpec("bogus stuff\n");
  ASSERT_FALSE(e4.ok());

  auto e5 = ParseSpec("relation R(A, \"unterminated\n");
  ASSERT_FALSE(e5.ok());
}

TEST(ParserTest, DuplicateViewNameRejected) {
  auto e = ParseSpec(
      "relation R(A, B)\n"
      "view V = from(R)\n"
      "view V = from(R)\n");
  ASSERT_FALSE(e.ok());
  EXPECT_NE(e.status().message().find("duplicate"), std::string::npos);
}

TEST(ParserTest, FormatCFDRoundTripsThroughParser) {
  auto spec = ParseSpec(
      "relation R(A, B, C)\n"
      "cfd R: [A=20, B] -> C=x\n"
      "eq R: A = C\n");
  ASSERT_TRUE(spec.ok());
  const RelationSchema& schema = spec->catalog.relation(0);
  auto name = [&](AttrIndex i) { return schema.attr(i).name; };

  std::string text = "relation R(A, B, C)\n";
  for (const CFD& c : spec->source_cfds) {
    text += FormatCFD(c, spec->catalog.pool(), "R", name) + "\n";
  }
  auto reparsed = ParseSpec(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
  ASSERT_EQ(reparsed->source_cfds.size(), spec->source_cfds.size());
  for (size_t i = 0; i < spec->source_cfds.size(); ++i) {
    EXPECT_EQ(reparsed->source_cfds[i], spec->source_cfds[i]);
  }
}

TEST(ParserTest, SigmaMutationDirectives) {
  auto spec = ParseSpec(
      "relation R(A, B, C)\n"
      "cfd R: [A] -> B\n"
      "add-cfd R: [A=20] -> C=7\n"
      "drop-cfd R: [A] -> B\n"
      "add-cfd R: [B] -> C\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  // Declarations and mutations land in separate lists, file order kept.
  EXPECT_EQ(spec->source_cfds.size(), 1u);
  ASSERT_EQ(spec->sigma_mutations.size(), 3u);
  EXPECT_TRUE(spec->sigma_mutations[0].add);
  EXPECT_FALSE(spec->sigma_mutations[1].add);
  EXPECT_TRUE(spec->sigma_mutations[2].add);
  EXPECT_EQ(spec->sigma_mutations[1].cfd, spec->source_cfds[0]);
  EXPECT_EQ(spec->sigma_mutations[0].cfd.lhs_pats.size(), 1u);
  EXPECT_TRUE(spec->sigma_mutations[0].cfd.lhs_pats[0].is_constant());

  // Mutations target the registered source sigma, never a view.
  auto on_view = ParseSpec(
      "relation R(A, B)\n"
      "view V = from(R)\n"
      "add-cfd V: [A] -> B\n");
  EXPECT_FALSE(on_view.ok());
}

TEST(ParserTest, UnionStatementComposesDeclaredViews) {
  auto spec = ParseSpec(
      "relation R(A, B)\n"
      "relation S(C, D)\n"
      "view V1 = pi(0.A as x) sigma(0.B = \"1\") from(R)\n"
      "view V2 = pi(0.C as x) from(S)\n"
      "view V3 = pi(0.A as x) from(R) union pi(0.C as x) from(S)\n"
      "union U = V1, V2\n"
      "union W = U, V3\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->views.at("U").disjuncts.size(), 2u);
  // Members contribute all their disjuncts (U's two plus V3's two).
  EXPECT_EQ(spec->views.at("W").disjuncts.size(), 4u);
  EXPECT_EQ(spec->view_names.back(), "W");

  // Union-incompatible members (different output arity) are rejected, as
  // are unknown members and duplicate names.
  EXPECT_FALSE(ParseSpec(
                   "relation R(A, B)\n"
                   "view V1 = pi(0.A as x) from(R)\n"
                   "view V2 = pi(0.A as x, 0.B as y) from(R)\n"
                   "union U = V1, V2\n")
                   .ok());
  EXPECT_FALSE(ParseSpec("relation R(A, B)\n"
                         "union U = V9\n")
                   .ok());
  EXPECT_FALSE(ParseSpec("relation R(A, B)\n"
                         "view V1 = from(R)\n"
                         "union V1 = V1\n")
                   .ok());
}

TEST(ParserTest, ServeStatementDeclaresTheRound) {
  auto spec = ParseSpec(
      "relation R(A, B)\n"
      "cfd R: [A] -> B\n"
      "view V1 = pi(0.A as A) from(R)\n"
      "view V2 = pi(0.B as B) from(R)\n"
      "serve V2, V1, V2\n"
      "serve V1\n");  // a second statement appends
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->round_views,
            (std::vector<std::string>{"V2", "V1", "V2", "V1"}));
  EXPECT_EQ(spec->ServingRound(), spec->round_views);

  // Without a serve statement the round is every view once, in order.
  auto plain = ParseSpec(
      "relation R(A, B)\n"
      "view V1 = pi(0.A as A) from(R)\n"
      "view V2 = pi(0.B as B) from(R)\n");
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->round_views.empty());
  EXPECT_EQ(plain->ServingRound(), plain->view_names);

  // serve must name declared views.
  auto bad = ParseSpec(
      "relation R(A, B)\n"
      "view V1 = pi(0.A as A) from(R)\n"
      "serve V1, Nope\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("undeclared view 'Nope'"),
            std::string::npos);
}

TEST(ParserTest, FullPaperSpecDrivesPropagation) {
  // A compact version of examples/specs/customers.spec.
  auto spec = ParseSpec(
      "relation R1(AC, city)\n"
      "relation R3(AC, city)\n"
      "cfd R1: [AC] -> city\n"
      "cfd R3: [AC] -> city\n"
      "view V = pi(0.AC as AC, 0.city as city, \"44\" as CC) from(R1)\n"
      "   union pi(0.AC as AC, 0.city as city, \"31\" as CC) from(R3)\n"
      "cfd V: [AC] -> city\n"
      "cfd V: [CC=44, AC] -> city\n");
  ASSERT_TRUE(spec.ok()) << spec.status();

  const SPCUView& view = spec->views.at("V");
  auto r_plain = IsPropagated(spec->catalog, view, spec->source_cfds,
                              spec->view_cfds[0].second);
  auto r_cond = IsPropagated(spec->catalog, view, spec->source_cfds,
                             spec->view_cfds[1].second);
  ASSERT_TRUE(r_plain.ok() && r_cond.ok());
  EXPECT_FALSE(*r_plain);  // AC -> city fails across the union
  EXPECT_TRUE(*r_cond);    // [CC=44, AC] -> city holds
}

}  // namespace
}  // namespace cfdprop
