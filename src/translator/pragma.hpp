// OpenMP 1.0 (C/C++) directive and clause parsing (paper §4: the translator
// follows the OpenMP 1.0 C/C++ API).
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "translator/token.hpp"

namespace parade::translator {

enum class DirectiveKind {
  kParallel,
  kParallelFor,
  kParallelSections,
  kFor,
  kSections,
  kSection,
  kSingle,
  kMaster,
  kCritical,
  kAtomic,
  kBarrier,
  kFlush,
  kOrdered,
  kThreadprivate,
};

enum class ReductionOp { kAdd, kSub, kMul, kAnd, kOr, kXor, kLAnd, kLOr };

enum class OmpSchedule { kStatic, kDynamic, kGuided, kRuntime };

/// A variable named in a clause list. parse_pragma fills the name; the
/// parser sets `sym` to the name's id in the unit when it attaches the
/// directive.
struct ClauseVar {
  std::string name;
  Sym sym = kNoSym;

  friend bool operator==(const ClauseVar& v, std::string_view name) {
    return v.name == name;
  }
};

struct Clauses {
  std::vector<ClauseVar> shared;
  std::vector<ClauseVar> privates;
  std::vector<ClauseVar> firstprivate;
  std::vector<ClauseVar> lastprivate;
  std::vector<std::pair<ReductionOp, ClauseVar>> reductions;
  std::vector<ClauseVar> copyin;
  std::vector<ClauseVar> flush_list;  // flush(list), threadprivate(list)
  bool has_default = false;
  bool default_shared = true;  // default(shared) vs default(none)
  bool nowait = false;
  bool has_schedule = false;
  OmpSchedule schedule = OmpSchedule::kStatic;
  std::string schedule_chunk;  // expression text, empty if absent
  std::string if_expr;         // if(expr) text, empty if absent
  std::string critical_name;   // critical(name)
};

struct Directive {
  DirectiveKind kind = DirectiveKind::kBarrier;
  Clauses clauses;
  int line = 0;
};

/// Parses the text after "#pragma omp". Reports unknown directives/clauses as
/// errors with the offending token (translator diagnostics, tested).
Result<Directive> parse_pragma(const std::string& text, int line);

const char* to_string(DirectiveKind kind);
/// The C operator token for a reduction op ("+", "&&", ...).
const char* reduction_operator(ReductionOp op);
/// The identity value literal for a reduction op ("0", "1", "~0", ...).
const char* reduction_identity(ReductionOp op);

}  // namespace parade::translator
