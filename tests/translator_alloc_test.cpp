// Allocation budget of the translator pipeline. The global operator new is
// replaced by a counting one that counts only while this test's measured
// call runs on this test's thread, so gtest's own allocations and other
// threads never enter the figure. A program of more than 20k tokens goes
// through translate_source once to warm up; the second call's allocations
// per token must stay under kMaxAllocsPerToken. CI cannot gate translator
// time, but a return of per-token or per-node allocation shows up here as a
// several-fold jump.
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "translator/token.hpp"
#include "translator/translate.hpp"

namespace {

thread_local bool counting = false;
thread_local long allocations = 0;

}  // namespace

void* operator new(std::size_t bytes) {
  if (counting) ++allocations;
  void* p = std::malloc(bytes == 0 ? 1 : bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t bytes) { return operator new(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using parade::translator::lex;
using parade::translator::translate_source;
using parade::translator::TranslateOptions;

/// Budget for the second translate_source call, in heap allocations per
/// token of the program below: about 25% above what the pipeline measures.
constexpr double kMaxAllocsPerToken = 0.2;

/// One parallel region of each shape the translator lowers differently.
void append_regions(std::string& out, int f) {
  const std::string a = "a" + std::to_string(f % 4);
  const std::string b = "a" + std::to_string((f + 1) % 4);
  out += "#pragma omp parallel for\n"
         "  for (i = 0; i < N; i++) {\n"
         "    " + a + "[i] = " + b + "[i] * 2.0 + 1.0;\n"
         "  }\n"
         "#pragma omp parallel for reduction(+:sum)\n"
         "  for (i = 0; i < N; i++) {\n"
         "    sum += " + a + "[i] * " + b + "[i];\n"
         "  }\n"
         "#pragma omp parallel private(j)\n"
         "  {\n"
         "#pragma omp for nowait\n"
         "    for (j = 0; j < N; j++) {\n"
         "      " + a + "[j] = " + a + "[j] - 0.5;\n"
         "    }\n"
         "#pragma omp barrier\n"
         "#pragma omp single\n"
         "    {\n"
         "      total = total + " + a + "[3];\n"
         "    }\n"
         "  }\n"
         "#pragma omp parallel\n"
         "  {\n"
         "#pragma omp critical\n"
         "    {\n"
         "      hits = hits + 2;\n"
         "    }\n"
         "  }\n"
         "#pragma omp parallel for\n"
         "  for (i = 0; i < N; i++) {\n"
         "    if (" + b + "[i] > 0.5) {\n"
         "#pragma omp atomic\n"
         "      count += 1;\n"
         "    }\n"
         "  }\n"
         "#pragma omp parallel for private(j) schedule(dynamic, 4)\n"
         "  for (i = 0; i < M; i++) {\n"
         "    for (j = 0; j < M; j++) {\n"
         "      " + a + "[i * M + j] = " + b + "[j * M + i] + 1.0;\n"
         "    }\n"
         "  }\n";
}

std::string make_program(int functions) {
  std::string out =
      "#include <stdio.h>\n#define N 512\n#define M 22\n"
      "double a0[N];\ndouble a1[N];\ndouble a2[N];\ndouble a3[N];\n"
      "double sum;\ndouble total;\nlong hits;\nlong count;\n";
  for (int f = 0; f < functions; ++f) {
    out += "\nstatic void phase" + std::to_string(f) + "(void) {\n"
           "  int i, j;\n";
    append_regions(out, f);
    out += "}\n";
  }
  out += "\nint main() {\n";
  for (int f = 0; f < functions; ++f) {
    out += "  phase" + std::to_string(f) + "();\n";
  }
  out += "  printf(\"%f %f %ld %ld\\n\", sum, total, hits, count);\n"
         "  return 0;\n}\n";
  return out;
}

TEST(TranslatorAllocations, PerTokenBudget) {
  const std::string program = make_program(100);
  const auto tokens = lex(program);
  ASSERT_TRUE(tokens.is_ok());
  const double token_count = static_cast<double>(tokens.value().size());
  ASSERT_GE(token_count, 20000.0);

  const TranslateOptions options;
  const auto warm = translate_source(program, options);
  ASSERT_TRUE(warm.is_ok()) << warm.status().message();

  allocations = 0;
  counting = true;
  const auto measured = translate_source(program, options);
  counting = false;
  ASSERT_TRUE(measured.is_ok()) << measured.status().message();
  EXPECT_EQ(measured.value(), warm.value());

  const double per_token = static_cast<double>(allocations) / token_count;
  RecordProperty("allocations", static_cast<int>(allocations));
  RecordProperty("tokens", static_cast<int>(token_count));
  std::printf("translate_source: %ld allocations over %.0f tokens = %.3f "
              "per token (budget %.3f)\n",
              allocations, token_count, per_token, kMaxAllocsPerToken);
  EXPECT_LE(per_token, kMaxAllocsPerToken);
}

}  // namespace
