// Translator unit tests: lexer, OpenMP pragma parsing, the C-subset parser
// (canonical loop recognition across increment styles), and codegen checks
// on the generated text, including diagnostics for unsupported input.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <tuple>
#include <utility>

#include "translator/parser.hpp"
#include "translator/pragma.hpp"
#include "translator/token.hpp"
#include "translator/translate.hpp"

namespace parade::translator {
namespace {

// ---------------------------------------------------------------------------
// Lexer

TEST(Lexer, BasicTokens) {
  auto tokens = lex("int x = 42 + y;").value_or_die();
  ASSERT_GE(tokens.size(), 8u);
  EXPECT_EQ(tokens[0].kind, TokKind::kKeyword);
  EXPECT_EQ(tokens[0].text, "int");
  EXPECT_EQ(tokens[1].kind, TokKind::kIdent);
  EXPECT_EQ(tokens[3].kind, TokKind::kNumber);
  EXPECT_EQ(tokens.back().kind, TokKind::kEof);
}

TEST(Lexer, CommentsDropped) {
  auto tokens = lex("a /* comment */ b // trailing\nc").value_or_die();
  ASSERT_EQ(tokens.size(), 4u);  // a b c EOF
  EXPECT_EQ(tokens[2].text, "c");
}

TEST(Lexer, PragmaOmpBecomesToken) {
  auto tokens =
      lex("#pragma omp parallel for reduction(+:x)\nfor(;;);").value_or_die();
  EXPECT_EQ(tokens[0].kind, TokKind::kPragmaOmp);
  EXPECT_EQ(tokens[0].text, " parallel for reduction(+:x)");
}

TEST(Lexer, OtherHashLinesPassThrough) {
  auto tokens = lex("#include <stdio.h>\nint x;").value_or_die();
  EXPECT_EQ(tokens[0].kind, TokKind::kHashLine);
  EXPECT_EQ(tokens[0].text, "#include <stdio.h>");
}

TEST(Lexer, PragmaContinuationLines) {
  auto tokens =
      lex("#pragma omp parallel \\\n  private(x)\n;").value_or_die();
  EXPECT_EQ(tokens[0].kind, TokKind::kPragmaOmp);
  EXPECT_NE(tokens[0].text.find("private(x)"), std::string::npos);
}

TEST(Lexer, MultiCharOperators) {
  auto tokens = lex("a <<= b >>= c != d <= e && f").value_or_die();
  EXPECT_EQ(tokens[1].text, "<<=");
  EXPECT_EQ(tokens[3].text, ">>=");
  EXPECT_EQ(tokens[5].text, "!=");
}

TEST(Lexer, PunctuatorsGluedSequencesKeywordsAndColumns) {
  // Every 3- and 2-character punctuator lexes as one token, alone and glued
  // between identifiers.
  const char* const multi[] = {"<<=", ">>=", "...", "->", "++", "--", "<<",
                               ">>",  "<=",  ">=",  "==", "!=", "&&", "||",
                               "+=",  "-=",  "*=",  "/=", "%=", "&=", "^=",
                               "|="};
  for (const char* p : multi) {
    const auto alone = lex(p).value_or_die();
    ASSERT_EQ(alone.size(), 2u) << p;  // the punctuator, EOF
    EXPECT_EQ(alone[0].kind, TokKind::kPunct) << p;
    EXPECT_EQ(alone[0].text, p);
    EXPECT_EQ(alone[0].column, 1) << p;
    const auto glued = lex(std::string("a") + p + "b").value_or_die();
    ASSERT_EQ(glued.size(), 4u) << p;
    EXPECT_EQ(glued[1].text, p);
    EXPECT_EQ(glued[2].text, "b") << p;
  }

  // Glued runs split by longest match; each row is a source and its tokens
  // joined by single spaces (EOF left out).
  const std::pair<const char*, const char*> runs[] = {
      {"a+++b", "a ++ + b"},      {"x<<=y", "x <<= y"},
      {"p->q", "p -> q"},         {"i-->0", "i -- > 0"},
      {"f(...)", "f ( ... )"},    {"a..b", "a . . b"},
      {"x<<<=y", "x << <= y"},    {"a&&&b", "a && & b"},
      {"a|||b", "a || | b"},      {"a!==b", "a != = b"},
      {"a>>>=b", "a >> >= b"},    {"x=-1", "x = - 1"},
      {"a-=-b", "a -= - b"},      {"s.f->g[0]", "s . f -> g [ 0 ]"},
      {"~x^y%z?u:v", "~ x ^ y % z ? u : v"},
      {"a/=b/c", "a /= b / c"},   {"a==b=c", "a == b = c"},
  };
  for (const auto& [source, expected] : runs) {
    const auto tokens = lex(source).value_or_die();
    std::string joined;
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      joined += (i == 0 ? "" : " ") + tokens[i].text;
    }
    EXPECT_EQ(joined, expected) << source;
  }

  // Keyword/identifier boundaries: a keyword prefix does not make a keyword.
  const std::pair<const char*, TokKind> words[] = {
      {"int", TokKind::kKeyword},       {"int32_t", TokKind::kIdent},
      {"for", TokKind::kKeyword},       {"for_each", TokKind::kIdent},
      {"sizeof", TokKind::kKeyword},    {"sizeofx", TokKind::kIdent},
      {"do", TokKind::kKeyword},        {"double", TokKind::kKeyword},
      {"doubles", TokKind::kIdent},     {"_Bool", TokKind::kIdent},
      {"restrict", TokKind::kKeyword},  {"In", TokKind::kIdent},
      {"x", TokKind::kIdent},           {"while1", TokKind::kIdent},
  };
  for (const auto& [word, kind] : words) {
    const auto tokens = lex(std::string(word) + "(").value_or_die();
    ASSERT_EQ(tokens.size(), 3u) << word;
    EXPECT_EQ(tokens[0].text, word);
    EXPECT_EQ(tokens[0].kind, kind) << word;
  }

  // 1-based byte columns, restarting on every line.
  const auto tokens = lex("x<<=y;\n  p->q\n\ti-->0 ...").value_or_die();
  const std::tuple<const char*, int, int> where[] = {
      {"x", 1, 1},   {"<<=", 1, 2}, {"y", 1, 5}, {";", 1, 6},
      {"p", 2, 3},   {"->", 2, 4},  {"q", 2, 6}, {"i", 3, 2},
      {"--", 3, 3},  {">", 3, 5},   {"0", 3, 6}, {"...", 3, 8},
  };
  ASSERT_EQ(tokens.size(), std::size(where) + 1);
  for (std::size_t i = 0; i < std::size(where); ++i) {
    const auto& [text, line, column] = where[i];
    EXPECT_EQ(tokens[i].text, text);
    EXPECT_EQ(tokens[i].line, line) << text;
    EXPECT_EQ(tokens[i].column, column) << text;
  }
}

TEST(Lexer, FloatLiterals) {
  auto tokens = lex("1.5e-3 0x1F 2.0f .25").value_or_die();
  EXPECT_EQ(tokens[0].text, "1.5e-3");
  EXPECT_EQ(tokens[1].text, "0x1F");
  EXPECT_EQ(tokens[2].text, "2.0f");
  EXPECT_EQ(tokens[3].text, ".25");
}

TEST(Lexer, StringsAndChars) {
  auto tokens = lex(R"(printf("a \"b\" c\n", 'x');)").value_or_die();
  EXPECT_EQ(tokens[2].kind, TokKind::kString);
  EXPECT_EQ(tokens[4].kind, TokKind::kChar);
}

TEST(Lexer, UnterminatedCommentIsError) {
  EXPECT_FALSE(lex("a /* never closed").is_ok());
  EXPECT_FALSE(lex("\"never closed").is_ok());
}

// ---------------------------------------------------------------------------
// Pragma parsing

std::vector<std::string> names(const std::vector<ClauseVar>& vars) {
  std::vector<std::string> out;
  for (const ClauseVar& v : vars) out.push_back(v.name);
  return out;
}

TEST(Pragma, ParallelWithClauses) {
  auto d = parse_pragma(" parallel private(a, b) shared(c) default(none) "
                        "firstprivate(d) if(n > 10)",
                        1)
               .value_or_die();
  EXPECT_EQ(d.kind, DirectiveKind::kParallel);
  EXPECT_EQ(names(d.clauses.privates), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(names(d.clauses.shared), (std::vector<std::string>{"c"}));
  EXPECT_EQ(names(d.clauses.firstprivate), (std::vector<std::string>{"d"}));
  EXPECT_TRUE(d.clauses.has_default);
  EXPECT_FALSE(d.clauses.default_shared);
  EXPECT_EQ(d.clauses.if_expr, "n > 10");
}

TEST(Pragma, ParallelForAndReduction) {
  auto d = parse_pragma(" parallel for reduction(+:sum) reduction(*:prod)", 2)
               .value_or_die();
  EXPECT_EQ(d.kind, DirectiveKind::kParallelFor);
  ASSERT_EQ(d.clauses.reductions.size(), 2u);
  EXPECT_EQ(d.clauses.reductions[0].first, ReductionOp::kAdd);
  EXPECT_EQ(d.clauses.reductions[0].second.name, "sum");
  EXPECT_EQ(d.clauses.reductions[1].first, ReductionOp::kMul);
}

TEST(Pragma, ScheduleVariants) {
  auto s1 = parse_pragma(" for schedule(static)", 1).value_or_die();
  EXPECT_EQ(s1.clauses.schedule, OmpSchedule::kStatic);
  EXPECT_TRUE(s1.clauses.schedule_chunk.empty());

  auto s2 = parse_pragma(" for schedule(dynamic, 4)", 1).value_or_die();
  EXPECT_EQ(s2.clauses.schedule, OmpSchedule::kDynamic);
  EXPECT_EQ(s2.clauses.schedule_chunk, " 4");

  auto s3 = parse_pragma(" for schedule(guided) nowait", 1).value_or_die();
  EXPECT_EQ(s3.clauses.schedule, OmpSchedule::kGuided);
  EXPECT_TRUE(s3.clauses.nowait);
}

TEST(Pragma, SimpleDirectives) {
  EXPECT_EQ(parse_pragma(" barrier", 1).value_or_die().kind,
            DirectiveKind::kBarrier);
  EXPECT_EQ(parse_pragma(" master", 1).value_or_die().kind,
            DirectiveKind::kMaster);
  EXPECT_EQ(parse_pragma(" atomic", 1).value_or_die().kind,
            DirectiveKind::kAtomic);
  EXPECT_EQ(parse_pragma(" single nowait", 1).value_or_die().kind,
            DirectiveKind::kSingle);
  EXPECT_EQ(parse_pragma(" sections", 1).value_or_die().kind,
            DirectiveKind::kSections);
}

TEST(Pragma, CriticalName) {
  auto d = parse_pragma(" critical(update_sum)", 1).value_or_die();
  EXPECT_EQ(d.kind, DirectiveKind::kCritical);
  EXPECT_EQ(d.clauses.critical_name, "update_sum");
}

TEST(Pragma, FlushList) {
  auto d = parse_pragma(" flush(a, b)", 1).value_or_die();
  EXPECT_EQ(d.kind, DirectiveKind::kFlush);
  EXPECT_EQ(names(d.clauses.flush_list), (std::vector<std::string>{"a", "b"}));
}

TEST(Pragma, Diagnostics) {
  EXPECT_FALSE(parse_pragma(" teams distribute", 3).is_ok());
  EXPECT_FALSE(parse_pragma(" parallel num_threads(4)", 3).is_ok());
  EXPECT_FALSE(parse_pragma(" for reduction(sum)", 3).is_ok());  // missing ':'
  EXPECT_FALSE(parse_pragma(" for schedule(banana)", 3).is_ok());
  EXPECT_FALSE(parse_pragma(" parallel default(maybe)", 3).is_ok());
  // Errors carry the line number.
  auto bad = parse_pragma(" bogus", 17);
  ASSERT_FALSE(bad.is_ok());
  EXPECT_NE(bad.status().message().find("17"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Parser: canonical loops

struct LoopCase {
  const char* source;
  bool canonical;
  const char* step;
  bool increasing;
  bool inclusive;
};

class CanonicalLoop : public ::testing::TestWithParam<LoopCase> {};

TEST_P(CanonicalLoop, Recognition) {
  const LoopCase& c = GetParam();
  const std::string program =
      std::string("void f() { ") + c.source + " { } }";
  auto tokens = lex(program).value_or_die();
  auto unit = parse(tokens).value_or_die();
  ASSERT_EQ(unit.items.size(), 1u);
  const Stmt& body = *unit.items[0].function.body;
  ASSERT_FALSE(body.children().empty());
  const Stmt& loop = *body.child(0);
  ASSERT_EQ(loop.kind, StmtKind::kFor);
  const ForHeader& h = *loop.for_header;
  EXPECT_EQ(h.canonical, c.canonical) << c.source;
  if (c.canonical) {
    // ++/-- steps are the literal 1 with no tokens of their own.
    EXPECT_EQ(h.unit_step ? std::string("1") : unit.text(h.step), c.step);
    EXPECT_EQ(h.increasing, c.increasing);
    EXPECT_EQ(h.inclusive, c.inclusive);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Forms, CanonicalLoop,
    ::testing::Values(
        LoopCase{"for (i = 0; i < n; i++)", true, "1", true, false},
        LoopCase{"for (int i = 0; i < n; ++i)", true, "1", true, false},
        LoopCase{"for (i = 0; i <= n; i += 2)", true, "2", true, true},
        LoopCase{"for (i = n; i > 0; i--)", true, "1", false, false},
        LoopCase{"for (i = n; i >= 0; i -= 3)", true, "3", false, true},
        LoopCase{"for (i = 0; i < n; i = i + 4)", true, "4", true, false},
        LoopCase{"for (i = 0; i != n; i++)", false, "", true, false},
        LoopCase{"for (i = 0, j = 1; i < n; i++)", false, "", true, false},
        LoopCase{"for (i = 0; i < n; i *= 2)", false, "", true, false},
        LoopCase{"for (i = 0; i < n; i--)", false, "", true, false}));

TEST(Parser, NestedBlocksAndDecls) {
  const char* source = R"(
int helper(int a, double b) {
  int x = a;
  double y[10], *z;
  if (x > 0) { x = x - 1; } else { x = 0; }
  while (x) { x--; }
  return x;
}
)";
  auto unit = parse(lex(source).value_or_die()).value_or_die();
  ASSERT_EQ(unit.items.size(), 1u);
  EXPECT_EQ(unit.items[0].kind, TopItem::Kind::kFunction);
  EXPECT_EQ(unit.name(unit.items[0].function.name), "helper");
  const Stmt& body = *unit.items[0].function.body;
  EXPECT_EQ(body.child(0)->kind, StmtKind::kDecl);
  const Stmt& multi = *body.child(1);
  ASSERT_EQ(multi.kind, StmtKind::kDecl);
  const auto declarators = unit.declarators_of(*multi.decl);
  ASSERT_EQ(declarators.size(), 2u);
  EXPECT_EQ(unit.name(declarators[0].name), "y");
  EXPECT_EQ(unit.dims_of(declarators[0]).size(), 1u);
  EXPECT_EQ(unit.name(declarators[1].name), "z");
  EXPECT_EQ(declarators[1].pointer_depth, 1);
  EXPECT_EQ(body.child(2)->kind, StmtKind::kIf);
  EXPECT_TRUE(body.child(2)->has_else);
  EXPECT_EQ(body.child(3)->kind, StmtKind::kWhile);
}

TEST(Parser, PragmaAttachesToNextStatement) {
  const char* source = R"(
void f() {
#pragma omp parallel
  {
    int x;
  }
#pragma omp barrier
}
)";
  auto unit = parse(lex(source).value_or_die()).value_or_die();
  const Stmt& body = *unit.items[0].function.body;
  ASSERT_EQ(body.child_count(), 2u);
  EXPECT_EQ(body.child(0)->kind, StmtKind::kPragma);
  EXPECT_TRUE(body.child(0)->directive_has_body);
  EXPECT_EQ(body.child(1)->directive->kind, DirectiveKind::kBarrier);
  EXPECT_FALSE(body.child(1)->directive_has_body);
}

// ---------------------------------------------------------------------------
// Codegen (textual checks)

std::string must_translate(const std::string& source,
                           TranslateOptions options = {}) {
  auto result = translate_source(source, options);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return result.is_ok() ? result.value() : std::string();
}

TEST(Codegen, ParallelOutlinesToLambda) {
  const std::string out = must_translate(R"(
int main() {
#pragma omp parallel
  { int x = 0; }
  return 0;
}
)");
  EXPECT_NE(out.find("parade::parallel([&]()"), std::string::npos);
  EXPECT_NE(out.find("parade::xlat::launch"), std::string::npos);
  EXPECT_NE(out.find("__parade_user_main"), std::string::npos);
}

TEST(Codegen, GlobalArrayGoesToDsmPool) {
  const std::string out = must_translate(R"(
double grid[64][32];
int main() { grid[1][2] = 3.0; return 0; }
)");
  EXPECT_NE(out.find("parade::shmalloc(sizeof(double) * (64) * (32))"),
            std::string::npos);
  EXPECT_NE(out.find("__prep_grid.get()[1][2] = 3.0"), std::string::npos);
}

TEST(Codegen, GlobalScalarBecomesReplicated) {
  const std::string out = must_translate(R"(
double total = 1.5;
int main() { total = 2.0; return 0; }
)");
  EXPECT_NE(out.find("parade::xlat::Replicated<double> __prep_total"),
            std::string::npos);
  EXPECT_NE(out.find("__prep_total.get() = 2.0"), std::string::npos);
}

TEST(Codegen, AnalyzableCriticalUsesCollective) {
  const std::string out = must_translate(R"(
double sum;
int main() {
#pragma omp parallel
  {
#pragma omp critical
    sum += 1.0;
  }
  return 0;
}
)");
  EXPECT_NE(out.find("team_allreduce_bytes"), std::string::npos);
  EXPECT_EQ(out.find("dsm_lock"), std::string::npos);
}

TEST(Codegen, CriticalWithCallFallsBackToDsmLock) {
  const std::string out = must_translate(R"(
double sum;
double f(void);
int main() {
#pragma omp parallel
  {
#pragma omp critical
    sum += f();
  }
  return 0;
}
)");
  EXPECT_NE(out.find("parade::dsm_lock("), std::string::npos);
  EXPECT_NE(out.find("parade::dsm_unlock("), std::string::npos);
}

TEST(Codegen, SingleBroadcastsWrittenScalars) {
  const std::string out = must_translate(R"(
double seed;
int main() {
#pragma omp parallel
  {
#pragma omp single
    seed = 42.0;
  }
  return 0;
}
)");
  EXPECT_NE(out.find("parade::single_small"), std::string::npos);
  EXPECT_NE(out.find("__sgl.v0"), std::string::npos);

  // Every compound assignment is a write: `flags |= 4` travels in the
  // broadcast next to `count += 1`.
  const std::string compound = must_translate(R"(
int flags;
int count;
int main() {
#pragma omp parallel
  {
#pragma omp single
    { flags |= 4; count += 1; }
  }
  return 0;
}
)");
  EXPECT_NE(compound.find("struct __ParadeSingle { int v0; int v1; }"),
            std::string::npos);
  EXPECT_NE(compound.find("__sgl.v1 = __prep_flags.get();"), std::string::npos);

  // A prefix increment after an operator keeps its own token: glued, `+++`
  // would increment `a` instead of `b`.
  const std::string incdec = must_translate(R"(
int a;
int b;
int c;
int main() {
#pragma omp parallel
  {
#pragma omp single
    { c = a + ++b; c = c - --a; }
  }
  return 0;
}
)");
  EXPECT_NE(incdec.find("__prep_a.get() + ++ __prep_b.get();"),
            std::string::npos);
  EXPECT_NE(incdec.find("__prep_c.get() - -- __prep_a.get();"),
            std::string::npos);
  EXPECT_EQ(incdec.find("+++"), std::string::npos);
  EXPECT_EQ(incdec.find("---"), std::string::npos);
}

TEST(Parser, RenderedPrefixIncrementKeepsOperandsApart) {
  const auto toks =
      lex("x = a + ++b - --c + d++ + (e)++ + f[0]--;").value_or_die();
  // Drop the end-of-file token; render the whole statement.
  EXPECT_EQ(render_tokens(toks, 0, toks.size() - 1),
            "x = a + ++ b - -- c + d++ +(e)++ + f[0]--;");
}

TEST(Codegen, MasterGuardsOnGlobalMaster) {
  const std::string out = must_translate(R"(
int main() {
#pragma omp parallel
  {
#pragma omp master
    { int x = 1; }
  }
  return 0;
}
)");
  EXPECT_NE(out.find("parade::node_id() == 0 && parade::local_thread_id() == 0"),
            std::string::npos);
}

TEST(Codegen, OmpApiCallsRedirected) {
  const std::string out = must_translate(R"(
int main() {
  int n = omp_get_num_threads();
  double t = omp_get_wtime();
  return 0;
}
)");
  EXPECT_NE(out.find("parade::ompshim::omp_get_num_threads"),
            std::string::npos);
  EXPECT_NE(out.find("parade::ompshim::omp_get_wtime"), std::string::npos);
}

TEST(Codegen, DiagnosticsForUnsupported) {
  // Non-canonical loop under omp for.
  auto r1 = translate_source(R"(
int main() {
#pragma omp parallel
  {
#pragma omp for
    for (int i = 0; i != 10; i++) { }
  }
  return 0;
}
)");
  ASSERT_FALSE(r1.is_ok());
  EXPECT_NE(r1.status().message().find("canonical"), std::string::npos);

  // Initialized global array.
  auto r2 = translate_source("int table[3] = {1,2,3};\nint main(){return 0;}");
  ASSERT_FALSE(r2.is_ok());

  // atomic on a non-update statement.
  auto r3 = translate_source(R"(
int main() {
#pragma omp parallel
  {
#pragma omp atomic
    { int q = 0; }
  }
  return 0;
}
)");
  ASSERT_FALSE(r3.is_ok());
}

TEST(Codegen, ScheduleClauseMapsToRuntimeSchedule) {
  const std::string out = must_translate(R"(
int main() {
  int i;
#pragma omp parallel
  {
#pragma omp for schedule(dynamic, 8)
    for (i = 0; i < 100; i++) { }
  }
  return 0;
}
)");
  EXPECT_NE(out.find("kDynamic"), std::string::npos);
  EXPECT_NE(out.find("8"), std::string::npos);
}

TEST(Codegen, SectionsBecomeSwitchedChunks) {
  const std::string out = must_translate(R"(
int main() {
#pragma omp parallel sections
  {
#pragma omp section
    { int a = 1; }
#pragma omp section
    { int b = 2; }
  }
  return 0;
}
)");
  EXPECT_NE(out.find("switch (__s)"), std::string::npos);
  EXPECT_NE(out.find("case 1:"), std::string::npos);
}

}  // namespace
}  // namespace parade::translator
