// parade_omcc: the ParADE OpenMP translator CLI.
//
//   parade_omcc input.c [-o output.cpp] [--threshold=BYTES] [--no-main]
//   parade_omcc input.c --analyze[=json] [--threshold=BYTES]
//
// Translates an OpenMP C program into a ParADE C++ program. Compile the
// output against the ParADE runtime (see README "Translator" section).
// With --analyze the translator runs diagnose-only: the semantic analysis
// report (docs/ANALYZER.md) goes to stdout and the exit code is 1 when any
// error-severity finding exists. --threshold sets the paper §5.2.1
// small-data threshold that alone decides collective vs DSM lock for each
// critical/atomic.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "translator/analyze.hpp"
#include "translator/translate.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: parade_omcc <input.c> [-o <output.cpp>] "
               "[--threshold=BYTES] [--no-main] "
               "[--analyze[=json]]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string output;
  bool analyze_only = false;
  bool analyze_json = false;
  parade::translator::TranslateOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o") {
      if (i + 1 >= argc) return usage();
      output = argv[++i];
    } else if (arg.rfind("--threshold=", 0) == 0) {
      auto bytes =
          parade::translator::parse_threshold_bytes(arg.substr(12));
      if (!bytes.is_ok()) {
        std::fprintf(stderr, "parade_omcc: %s\n",
                     bytes.status().to_string().c_str());
        return 2;
      }
      options.mp_threshold_bytes = bytes.value();
    } else if (arg == "--analyze") {
      analyze_only = true;
    } else if (arg == "--analyze=json") {
      analyze_only = true;
      analyze_json = true;
    } else if (arg == "--no-main") {
      options.emit_main_wrapper = false;
    } else if (arg.rfind("-", 0) == 0) {
      return usage();
    } else {
      if (!input.empty()) return usage();
      input = arg;
    }
  }
  if (input.empty()) return usage();

  std::ifstream in(input);
  if (!in) {
    std::fprintf(stderr, "parade_omcc: cannot open %s\n", input.c_str());
    return 1;
  }
  std::ostringstream source;
  source << in.rdbuf();

  if (analyze_only) {
    parade::translator::AnalyzeOptions analyze_options;
    analyze_options.mp_threshold_bytes = options.mp_threshold_bytes;
    auto analysis =
        parade::translator::analyze_source(source.str(), analyze_options);
    if (!analysis.is_ok()) {
      std::fprintf(stderr, "parade_omcc: %s: %s\n", input.c_str(),
                   analysis.status().to_string().c_str());
      return 1;
    }
    const std::string report = analyze_json
                                   ? analysis.value().to_json(input)
                                   : analysis.value().to_text(input);
    std::fputs(report.c_str(), stdout);
    if (analyze_json) std::fputs("\n", stdout);
    return analysis.value().has_errors() ? 1 : 0;
  }

  auto translated = parade::translator::translate_source(source.str(), options);
  if (!translated.is_ok()) {
    std::fprintf(stderr, "parade_omcc: %s: %s\n", input.c_str(),
                 translated.status().to_string().c_str());
    return 1;
  }

  if (output.empty()) {
    std::fputs(translated.value().c_str(), stdout);
  } else {
    std::ofstream out(output);
    if (!out) {
      std::fprintf(stderr, "parade_omcc: cannot write %s\n", output.c_str());
      return 1;
    }
    out << translated.value();
  }
  return 0;
}
