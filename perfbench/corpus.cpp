#include "corpus.hpp"

#include <sstream>
#include <utility>

namespace perfbench {
namespace {

constexpr int kArrays = 6;
constexpr int kReductionVars = 4;

/// splitmix64: a fixed, portable sequence (std distributions differ between
/// standard libraries, which would make the corpus host-dependent).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27U)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31U);
  }
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }

 private:
  std::uint64_t state_;
};

std::string array(Rng& rng) { return "a" + std::to_string(rng.below(kArrays)); }

/// A positive literal such as "1.25", built from integers so no locale or
/// float formatting can change the text.
std::string constant(Rng& rng) {
  const int cents = 1 + rng.below(399);
  std::string frac = std::to_string(cents % 100);
  if (frac.size() < 2) frac = "0" + frac;
  return std::to_string(cents / 100) + "." + frac;
}

std::string op(Rng& rng) {
  static const char* const kOps[] = {"+", "-", "*"};
  return kOps[rng.below(3)];
}

constexpr int kTemplates = 6;

void emit_region(std::ostringstream& out, Rng& rng, int kind) {
  const std::string dst = array(rng);
  const std::string src = array(rng);
  const std::string c = constant(rng);
  switch (kind) {
    case 0:  // element-wise parallel loop
      out << "#pragma omp parallel for\n"
          << "  for (i = 0; i < N; i++) {\n"
          << "    " << dst << "[i] = " << src << "[i] " << op(rng) << " " << c
          << ";\n"
          << "  }\n";
      break;
    case 1: {  // dot-product reduction
      const std::string s = "s" + std::to_string(rng.below(kReductionVars));
      out << "#pragma omp parallel for reduction(+:" << s << ")\n"
          << "  for (i = 0; i < N; i++) {\n"
          << "    " << s << " += " << dst << "[i] * " << src << "[i];\n"
          << "  }\n";
      break;
    }
    case 2:  // worksharing loop without its barrier, then barrier + single
      out << "#pragma omp parallel private(j)\n"
          << "  {\n"
          << "#pragma omp for nowait\n"
          << "    for (j = 0; j < N; j++) {\n"
          << "      " << dst << "[j] = " << dst << "[j] " << op(rng) << " " << c
          << ";\n"
          << "    }\n"
          << "#pragma omp barrier\n"
          << "#pragma omp single\n"
          << "    {\n"
          << "      total = total + " << dst << "[" << rng.below(512) << "];\n"
          << "    }\n"
          << "  }\n";
      break;
    case 3:  // analyzable critical section on a shared counter
      out << "#pragma omp parallel\n"
          << "  {\n"
          << "#pragma omp critical\n"
          << "    {\n"
          << "      hits = hits + " << 1 + rng.below(4) << ";\n"
          << "    }\n"
          << "  }\n";
      break;
    case 4:  // conditional atomic update inside a parallel loop
      out << "#pragma omp parallel for\n"
          << "  for (i = 0; i < N; i++) {\n"
          << "    if (" << src << "[i] > " << c << ") {\n"
          << "#pragma omp atomic\n"
          << "      count += 1;\n"
          << "    }\n"
          << "  }\n";
      break;
    default:  // two-level loop nest with a private inner index
      out << "#pragma omp parallel for private(j)\n"
          << "  for (i = 0; i < M; i++) {\n"
          << "    for (j = 0; j < M; j++) {\n"
          << "      " << dst << "[i * M + j] = " << src << "[j * M + i] "
          << op(rng) << " " << c << ";\n"
          << "    }\n"
          << "  }\n";
      break;
  }
}

}  // namespace

std::string generate_program(std::uint64_t seed, int index,
                             const CorpusShape& shape) {
  Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(index));
  std::ostringstream out;
  out << "/* perfbench translate corpus: seed " << seed << ", program "
      << index << " */\n"
      << "#include <stdio.h>\n"
      << "#define N 512\n"
      << "#define M 22\n";
  for (int a = 0; a < kArrays; ++a) out << "double a" << a << "[N];\n";
  for (int s = 0; s < kReductionVars; ++s) out << "double s" << s << ";\n";
  out << "double total;\n"
      << "long hits;\n"
      << "long count;\n";

  const int functions = (shape.regions_per_program + shape.regions_per_function - 1) /
                        shape.regions_per_function;
  // Templates are dealt in shuffled rounds of all kTemplates kinds, so every
  // seed translates the same construct mix and only the order and operands
  // vary.
  int round[kTemplates];
  int emitted = 0;
  for (int f = 0; f < functions; ++f) {
    out << "\nstatic void phase" << f << "(void) {\n"
        << "  int i, j;\n";
    for (int r = 0; r < shape.regions_per_function &&
                    emitted < shape.regions_per_program;
         ++r, ++emitted) {
      const int slot = emitted % kTemplates;
      if (slot == 0) {
        for (int k = 0; k < kTemplates; ++k) round[k] = k;
        for (int k = kTemplates - 1; k > 0; --k) std::swap(round[k], round[rng.below(k + 1)]);
      }
      emit_region(out, rng, round[slot]);
    }
    out << "}\n";
  }

  out << "\nint main() {\n"
      << "  int i;\n"
      << "  for (i = 0; i < N; i++) {\n"
      << "    a0[i] = i * 0.5;\n"
      << "  }\n";
  for (int f = 0; f < functions; ++f) out << "  phase" << f << "();\n";
  out << "  printf(\"%f %f %ld %ld\\n\", total, s0 + s1 + s2 + s3, hits, count);\n"
      << "  return 0;\n"
      << "}\n";
  return out.str();
}

std::vector<std::string> generate_corpus(std::uint64_t seed,
                                         const CorpusShape& shape) {
  std::vector<std::string> programs;
  programs.reserve(static_cast<std::size_t>(shape.programs));
  for (int p = 0; p < shape.programs; ++p) {
    programs.push_back(generate_program(seed, p, shape));
  }
  return programs;
}

}  // namespace perfbench
