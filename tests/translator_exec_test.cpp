// Full-pipeline integration: translate OpenMP C programs, compile the output
// with the host compiler against the ParADE runtime, run them on a virtual
// cluster, and check their output. Paths come from the build system via
// PARADE_SOURCE_DIR / PARADE_BINARY_DIR compile definitions.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "translator/translate.hpp"

namespace parade::translator {
namespace {

namespace fs = std::filesystem;

std::string run_command(const std::string& command, int* exit_code) {
  std::string output;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    *exit_code = -1;
    return output;
  }
  char buffer[4096];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
  *exit_code = pclose(pipe);
  return output;
}

/// Translates `source` and compiles it; returns the binary, or an empty
/// path when a step failed.
fs::path translate_compile(const std::string& name, const std::string& source,
                           const TranslateOptions& options = {}) {
  auto translated = translate_source(source, options);
  EXPECT_TRUE(translated.is_ok()) << translated.status().to_string();
  if (!translated.is_ok()) return {};

  const fs::path dir = fs::temp_directory_path() / "parade-xlat-test";
  fs::create_directories(dir);
  const fs::path cpp = dir / (name + ".cpp");
  const fs::path bin = dir / name;
  std::ofstream(cpp) << translated.value();

  const std::string src_dir = PARADE_SOURCE_DIR;
  const std::string bin_dir = PARADE_BINARY_DIR;
  const std::string compile =
      "g++ -std=c++20 -I " + src_dir + "/src -O1 -o " + bin.string() + " " +
      cpp.string() + " " + bin_dir + "/src/runtime/libparade_runtime.a " +
      bin_dir + "/src/dsm/libparade_dsm.a " + bin_dir +
      "/src/mp/libparade_mp.a " + bin_dir + "/src/net/libparade_net.a " +
      bin_dir + "/src/obs/libparade_obs.a " + bin_dir +
      "/src/vtime/libparade_vtime.a " + bin_dir +
      "/src/common/libparade_common.a -lpthread";
  int code = 0;
  const std::string compile_output = run_command(compile, &code);
  EXPECT_EQ(code, 0) << "compile failed:\n" << compile_output;
  if (code != 0) return {};
  return bin;
}

/// Runs a translated binary at the given cluster shape; returns stdout.
std::string run_at(const fs::path& bin, int nodes, int threads) {
  if (bin.empty()) return "";
  const std::string run = "PARADE_NODES=" + std::to_string(nodes) +
                          " PARADE_THREADS=" + std::to_string(threads) + " " +
                          bin.string();
  int code = 0;
  const std::string output = run_command(run, &code);
  EXPECT_EQ(code, 0) << "run failed:\n" << output;
  return output;
}

/// Translates, compiles and runs `source` at the given cluster shape;
/// returns stdout.
std::string translate_compile_run(const std::string& name,
                                  const std::string& source, int nodes,
                                  int threads) {
  return run_at(translate_compile(name, source), nodes, threads);
}

TEST(TranslatorExec, PiReduction) {
  const char* source = R"(
#include <stdio.h>
static long num_steps = 100000;
double step;
int main() {
  double x, pi, sum = 0.0;
  long i;
  step = 1.0 / (double)num_steps;
#pragma omp parallel for private(x) reduction(+:sum)
  for (i = 0; i < num_steps; i++) {
    x = (i + 0.5) * step;
    sum = sum + 4.0 / (1.0 + x * x);
  }
  pi = step * sum;
  printf("pi=%.6f\n", pi);
  return 0;
}
)";
  const std::string out = translate_compile_run("pi", source, 2, 2);
  EXPECT_NE(out.find("pi=3.141593"), std::string::npos) << out;
}

TEST(TranslatorExec, SharedArrayStencilWithBarrier) {
  const char* source = R"(
#include <stdio.h>
double a[4096];
double b[4096];
int main() {
  int i;
#pragma omp parallel
  {
#pragma omp for
    for (i = 0; i < 4096; i++) a[i] = i;
#pragma omp for
    for (i = 1; i < 4095; i++) b[i] = 0.5 * (a[i-1] + a[i+1]);
  }
  printf("b[1]=%.1f b[2048]=%.1f b[4094]=%.1f\n", b[1], b[2048], b[4094]);
  return 0;
}
)";
  const std::string out = translate_compile_run("stencil", source, 2, 2);
  EXPECT_NE(out.find("b[1]=1.0 b[2048]=2048.0 b[4094]=4094.0"),
            std::string::npos)
      << out;
}

TEST(TranslatorExec, AtomicCounter) {
  const char* source = R"(
#include <stdio.h>
int hits;
int main() {
  int i;
#pragma omp parallel for
  for (i = 0; i < 100; i++) {
#pragma omp atomic
    hits += 1;
  }
  printf("hits=%d\n", hits);
  return 0;
}
)";
  const std::string out = translate_compile_run("atomic", source, 2, 2);
  EXPECT_NE(out.find("hits=100"), std::string::npos) << out;
}

// An atomic under a case label is lowered as a directive of its own, at
// the default threshold (a collective: every thread takes case 0 equally
// often) and at --threshold=1 (the DSM lock).
TEST(TranslatorExec, AtomicUnderCaseLabel) {
  const char* source = R"(
#include <stdio.h>
long count;
int main() {
  int i;
#pragma omp parallel for
  for (i = 0; i < 64; i++) {
    switch (i % 4) {
      case 0:
#pragma omp atomic
        count += 1;
        break;
      default:
        break;
    }
  }
  printf("count=%ld\n", count);
  return 0;
}
)";
  TranslateOptions conventional;
  conventional.mp_threshold_bytes = 1;
  for (const TranslateOptions& options : {TranslateOptions{}, conventional}) {
    const std::string name =
        "case_atomic_t" + std::to_string(options.mp_threshold_bytes);
    const std::string out =
        run_at(translate_compile(name, source, options), 2, 2);
    EXPECT_NE(out.find("count=16\n"), std::string::npos) << name << ": " << out;
  }
}

TEST(TranslatorExec, SingleAndMaster) {
  const char* source = R"(
#include <stdio.h>
double seed;
int main() {
#pragma omp parallel
  {
#pragma omp single
    seed = 1234.5;
#pragma omp master
    printf("seed=%.1f\n", seed);
  }
  return 0;
}
)";
  const std::string out = translate_compile_run("single", source, 3, 2);
  EXPECT_NE(out.find("seed=1234.5"), std::string::npos) << out;
}

TEST(TranslatorExec, CriticalFallbackLock) {
  // A critical section with control flow: not analyzable, must use the DSM
  // lock and still count correctly.
  const char* source = R"(
#include <stdio.h>
double values[512];
double maxv;
int main() {
  int i;
#pragma omp parallel
  {
#pragma omp for
    for (i = 0; i < 512; i++) values[i] = (i * 37) % 101;
#pragma omp for
    for (i = 0; i < 512; i++) {
#pragma omp critical
      {
        if (values[i] > maxv) { maxv = values[i]; }
      }
    }
  }
  printf("max=%.1f\n", maxv);
  return 0;
}
)";
  const std::string out = translate_compile_run("critmax", source, 2, 2);
  EXPECT_NE(out.find("max=100.0"), std::string::npos) << out;
}

// Conventional lowering (--threshold=1: every critical and atomic takes the
// DSM lock) with a lock-protected scalar on the same page as an array the
// loop writes outside the lock. No update may be lost at any shape.
TEST(TranslatorExec, DsmLockedScalarsBesideUnlockedWrites) {
  const char* reduced = R"(
#include <stdio.h>
int count;
int seen[256];
int main(void) {
  int i;
#pragma omp parallel for
  for (i = 0; i < 256; i++) {
    seen[i] = i;
#pragma omp critical
    count += 1;
  }
  printf("count=%d\n", count);
  return 0;
}
)";
  std::ifstream in(std::string(PARADE_SOURCE_DIR) +
                   "/tests/translator_inputs/sync_scalars.c");
  const std::string sync_scalars{std::istreambuf_iterator<char>(in), {}};
  ASSERT_FALSE(sync_scalars.empty());

  TranslateOptions conventional;
  conventional.mp_threshold_bytes = 1;
  const fs::path reduced_bin =
      translate_compile("locked_count", reduced, conventional);
  const fs::path scalars_bin =
      translate_compile("sync_scalars_t1", sync_scalars, conventional);
  for (const int nodes : {2, 4}) {
    for (const int threads : {1, 2}) {
      const std::string shape = std::to_string(nodes) + "x" +
                                std::to_string(threads);
      const std::string reduced_out = run_at(reduced_bin, nodes, threads);
      EXPECT_NE(reduced_out.find("count=256\n"), std::string::npos)
          << shape << ": " << reduced_out;
      const std::string scalars_out = run_at(scalars_bin, nodes, threads);
      EXPECT_NE(scalars_out.find("count=256 total=128.0\n"), std::string::npos)
          << shape << ": " << scalars_out;
    }
  }
}

TEST(TranslatorExec, LastprivateAndFirstprivate) {
  const char* source = R"(
#include <stdio.h>
int main() {
  int i;
  double last = -1.0;
  double base = 10.0;
  double t = 0.0;
#pragma omp parallel
  {
#pragma omp for firstprivate(base) lastprivate(last) private(t)
    for (i = 0; i < 64; i++) {
      t = base + i;
      last = t;
    }
  }
  printf("last=%.1f\n", last);
  return 0;
}
)";
  const std::string out = translate_compile_run("lastpriv", source, 2, 2);
  EXPECT_NE(out.find("last=73.0"), std::string::npos) << out;
}

TEST(TranslatorExec, Sections) {
  const char* source = R"(
#include <stdio.h>
int a;
int b;
int main() {
#pragma omp parallel sections
  {
#pragma omp section
    a = 11;
#pragma omp section
    b = 22;
  }
  printf("a+b=%d\n", a + b);
  return 0;
}
)";
  const std::string out = translate_compile_run("sections", source, 2, 1);
  EXPECT_NE(out.find("a+b=33"), std::string::npos) << out;
}

TEST(TranslatorExec, GuidedScheduleLoop) {
  const char* source = R"(
#include <stdio.h>
double total;
int main() {
  int i;
#pragma omp parallel for schedule(guided) reduction(+:total)
  for (i = 1; i <= 1000; i++) {
    total += (double)i;
  }
  printf("total=%.0f\n", total);
  return 0;
}
)";
  const std::string out = translate_compile_run("guided", source, 2, 2);
  EXPECT_NE(out.find("total=500500"), std::string::npos) << out;
}


TEST(TranslatorExec, FullHelmholtzProgram) {
  // The real openmp.org-style Helmholtz program from the paper's evaluation,
  // straight through translate -> compile -> run, compared against the
  // library implementation's behaviour (residual shrinks, interior value
  // converges toward the exact solution u=(1-x^2)(1-y^2), which is 1.0 at
  // the grid center... for a 64x64 grid, u[32][32] is near the center).
  std::ifstream in(std::string(PARADE_SOURCE_DIR) +
                   "/tests/translator_inputs/helmholtz.c");
  ASSERT_TRUE(in.good());
  std::string source((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  const std::string out = translate_compile_run("helmholtz", source, 2, 2);
  // 100 Jacobi sweeps on 64^2: residual must be small and the center value
  // must have moved well off zero toward ~0.94 (partial convergence).
  double residual = 1e9, center = 0.0;
  ASSERT_EQ(std::sscanf(out.c_str(), "residual=%lf\nu[32][32]=%lf", &residual,
                        &center),
            2)
      << out;
  EXPECT_LT(residual, 1e-4);
  EXPECT_GT(center, 0.05);  // 100 plain-Jacobi sweeps: partial convergence
  EXPECT_LT(center, 1.1);
}

TEST(TranslatorExec, OutputIdenticalAcrossClusterShapes) {
  // The same translated program must print identical results at different
  // cluster shapes (modulo nothing: integer arithmetic only).
  const char* source = R"(
#include <stdio.h>
long fib[64];
int main() {
  int i;
#pragma omp parallel
  {
#pragma omp single
    { fib[0] = 0; fib[1] = 1; }
  }
  /* serial recurrence executed redundantly on every node */
  for (i = 2; i < 64; i++) fib[i] = fib[i-1] + fib[i-2];
  long total = 0;
#pragma omp parallel for reduction(+:total)
  for (i = 0; i < 64; i++) total += fib[i] % 1000003;
  printf("total=%ld\n", total);
  return 0;
}
)";
  const std::string a = translate_compile_run("shapes_a", source, 1, 1);
  const std::string b = translate_compile_run("shapes_b", source, 4, 2);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}


TEST(TranslatorExec, OmpLockApi) {
  const char* source = R"(
#include <stdio.h>
int total;
int main() {
  int i;
  omp_lock_t lock;
  omp_init_lock(&lock);
#pragma omp parallel for
  for (i = 0; i < 40; i++) {
    omp_set_lock(&lock);
    total = total + 1;
    omp_unset_lock(&lock);
  }
  omp_destroy_lock(&lock);
  printf("total=%d\n", total);
  return 0;
}
)";
  const std::string out = translate_compile_run("omplock", source, 2, 2);
  EXPECT_NE(out.find("total=40"), std::string::npos) << out;
}

TEST(TranslatorExec, ThreadprivateWithCopyin) {
  const char* source = R"(
#include <stdio.h>
double scratch;
#pragma omp threadprivate(scratch)
double result;
int main() {
  scratch = 3.5;  /* master's value, copied into every thread */
#pragma omp parallel copyin(scratch)
  {
#pragma omp critical
    result += scratch;
  }
  printf("result=%.1f\n", result);
  return 0;
}
)";
  const std::string out = translate_compile_run("tp", source, 2, 2);
  // 4 threads each contribute the copied-in 3.5.
  EXPECT_NE(out.find("result=14.0"), std::string::npos) << out;
}

}  // namespace
}  // namespace parade::translator
