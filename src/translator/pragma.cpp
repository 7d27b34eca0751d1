#include "translator/pragma.hpp"

#include <cctype>
#include <string_view>

#include "translator/token.hpp"

namespace parade::translator {
namespace {

/// Tiny cursor over the pragma text.
class Cursor {
 public:
  explicit Cursor(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool eof() {
    skip_ws();
    return pos_ >= text_.size();
  }

  /// Reads an identifier; empty if none.
  std::string_view ident() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    return std::string_view(text_).substr(start, pos_ - start);
  }

  bool accept(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  /// Reads up to the matching ')' assuming the '(' was consumed; handles
  /// nested parentheses. Returns the inner text.
  std::string_view until_close_paren() {
    const std::size_t start = pos_;
    int depth = 1;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '(') ++depth;
      if (c == ')' && --depth == 0) {
        return std::string_view(text_).substr(start, pos_ - 1 - start);
      }
    }
    return std::string_view(text_).substr(start);  // unbalanced; caller reports
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;

 public:
  std::size_t pos() const { return pos_; }
  void set_pos(std::size_t pos) { pos_ = pos; }
};

/// Appends the comma-separated items of `text`, blanks removed, to `into`.
void split_list(std::string_view text, std::vector<ClauseVar>& into) {
  std::string current;
  for (const char c : text) {
    if (c == ',') {
      if (!current.empty()) into.push_back({std::move(current)});
      current.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      current += c;
    }
  }
  if (!current.empty()) into.push_back({std::move(current)});
}

Status parse_clauses(Cursor& cursor, DirectiveKind kind, Clauses& out,
                     int line) {
  auto err = [line](const std::string& message) {
    return make_error(ErrorCode::kInvalidArgument,
                      message + " at line " + std::to_string(line));
  };

  while (!cursor.eof()) {
    // Skip optional commas between clauses.
    if (cursor.accept(',')) continue;
    const std::string_view name = cursor.ident();
    if (name.empty()) return err("unexpected character in pragma");

    auto expect_list = [&](std::vector<ClauseVar>& into) -> Status {
      if (!cursor.accept('(')) {
        return err("clause '" + std::string(name) + "' needs (list)");
      }
      split_list(cursor.until_close_paren(), into);
      return Status::ok();
    };

    if (name == "shared") {
      if (Status s = expect_list(out.shared); !s) return s;
    } else if (name == "private") {
      if (Status s = expect_list(out.privates); !s) return s;
    } else if (name == "firstprivate") {
      if (Status s = expect_list(out.firstprivate); !s) return s;
    } else if (name == "lastprivate") {
      if (Status s = expect_list(out.lastprivate); !s) return s;
    } else if (name == "copyin") {
      if (Status s = expect_list(out.copyin); !s) return s;
    } else if (name == "default") {
      if (!cursor.accept('(')) return err("default needs (shared|none)");
      const std::string_view value = cursor.until_close_paren();
      out.has_default = true;
      if (value == "shared") {
        out.default_shared = true;
      } else if (value == "none") {
        out.default_shared = false;
      } else {
        return err("default(" + std::string(value) + ") is not shared|none");
      }
    } else if (name == "reduction") {
      if (!cursor.accept('(')) return err("reduction needs (op:list)");
      const std::string_view inner = cursor.until_close_paren();
      const std::size_t colon = inner.find(':');
      if (colon == std::string::npos) return err("reduction missing ':'");
      std::string op_text;
      for (const char c : inner.substr(0, colon)) {
        if (!std::isspace(static_cast<unsigned char>(c))) op_text += c;
      }
      ReductionOp op;
      if (text_is(op_text, "+")) op = ReductionOp::kAdd;
      else if (text_is(op_text, "-")) op = ReductionOp::kSub;
      else if (text_is(op_text, "*")) op = ReductionOp::kMul;
      else if (text_is(op_text, "&")) op = ReductionOp::kAnd;
      else if (text_is(op_text, "|")) op = ReductionOp::kOr;
      else if (text_is(op_text, "^")) op = ReductionOp::kXor;
      else if (text_is(op_text, "&&")) op = ReductionOp::kLAnd;
      else if (text_is(op_text, "||")) op = ReductionOp::kLOr;
      else return err("unknown reduction operator '" + op_text + "'");
      std::vector<ClauseVar> vars;
      split_list(inner.substr(colon + 1), vars);
      for (ClauseVar& var : vars) out.reductions.emplace_back(op, std::move(var));
    } else if (name == "schedule") {
      if (!cursor.accept('(')) return err("schedule needs (kind[,chunk])");
      const std::string_view inner = cursor.until_close_paren();
      const std::size_t comma = inner.find(',');
      std::string kind_text;
      for (const char c : inner.substr(0, comma)) {
        if (!std::isspace(static_cast<unsigned char>(c))) kind_text += c;
      }
      out.has_schedule = true;
      if (text_is(kind_text, "static")) {
        out.schedule = OmpSchedule::kStatic;
      } else if (text_is(kind_text, "dynamic")) {
        out.schedule = OmpSchedule::kDynamic;
      } else if (text_is(kind_text, "guided")) {
        out.schedule = OmpSchedule::kGuided;
      } else if (text_is(kind_text, "runtime")) {
        out.schedule = OmpSchedule::kRuntime;
      } else {
        return err("unknown schedule kind '" + kind_text + "'");
      }
      if (comma != std::string::npos) {
        out.schedule_chunk = inner.substr(comma + 1);
      }
    } else if (name == "nowait") {
      out.nowait = true;
    } else if (name == "if") {
      if (!cursor.accept('(')) return err("if needs (expr)");
      out.if_expr = cursor.until_close_paren();
    } else if (name == "ordered") {
      // Accepted and ignored (the paper's translator supports static
      // scheduling only; ordered degenerates).
    } else {
      return err("unsupported clause '" + std::string(name) + "' on " +
                 std::string(to_string(kind)));
    }
  }
  return Status::ok();
}

}  // namespace

Result<Directive> parse_pragma(const std::string& text, int line) {
  Cursor cursor(text);
  Directive directive;
  directive.line = line;

  const std::string_view first = cursor.ident();
  auto err = [line](const std::string& message) {
    return make_error(ErrorCode::kInvalidArgument,
                      message + " at line " + std::to_string(line));
  };

  if (first == "parallel") {
    // parallel | parallel for | parallel sections
    const std::size_t saved = cursor.pos();
    const std::string_view second = cursor.ident();
    if (second == "for") {
      directive.kind = DirectiveKind::kParallelFor;
    } else if (second == "sections") {
      directive.kind = DirectiveKind::kParallelSections;
    } else {
      cursor.set_pos(saved);
      directive.kind = DirectiveKind::kParallel;
    }
  } else if (first == "for") {
    directive.kind = DirectiveKind::kFor;
  } else if (first == "sections") {
    directive.kind = DirectiveKind::kSections;
  } else if (first == "section") {
    directive.kind = DirectiveKind::kSection;
  } else if (first == "single") {
    directive.kind = DirectiveKind::kSingle;
  } else if (first == "master") {
    directive.kind = DirectiveKind::kMaster;
  } else if (first == "critical") {
    directive.kind = DirectiveKind::kCritical;
    if (cursor.accept('(')) {
      directive.clauses.critical_name = cursor.until_close_paren();
    }
  } else if (first == "atomic") {
    directive.kind = DirectiveKind::kAtomic;
  } else if (first == "barrier") {
    directive.kind = DirectiveKind::kBarrier;
  } else if (first == "flush") {
    directive.kind = DirectiveKind::kFlush;
    if (cursor.accept('(')) {
      split_list(cursor.until_close_paren(), directive.clauses.flush_list);
    }
  } else if (first == "ordered") {
    directive.kind = DirectiveKind::kOrdered;
  } else if (first == "threadprivate") {
    directive.kind = DirectiveKind::kThreadprivate;
    if (cursor.accept('(')) {
      split_list(cursor.until_close_paren(), directive.clauses.flush_list);
    }
  } else {
    return err("unknown OpenMP directive '" + std::string(first) + "'");
  }

  if (Status s = parse_clauses(cursor, directive.kind, directive.clauses, line);
      !s) {
    return s;
  }
  return directive;
}

const char* to_string(DirectiveKind kind) {
  switch (kind) {
    case DirectiveKind::kParallel: return "parallel";
    case DirectiveKind::kParallelFor: return "parallel for";
    case DirectiveKind::kParallelSections: return "parallel sections";
    case DirectiveKind::kFor: return "for";
    case DirectiveKind::kSections: return "sections";
    case DirectiveKind::kSection: return "section";
    case DirectiveKind::kSingle: return "single";
    case DirectiveKind::kMaster: return "master";
    case DirectiveKind::kCritical: return "critical";
    case DirectiveKind::kAtomic: return "atomic";
    case DirectiveKind::kBarrier: return "barrier";
    case DirectiveKind::kFlush: return "flush";
    case DirectiveKind::kOrdered: return "ordered";
    case DirectiveKind::kThreadprivate: return "threadprivate";
  }
  return "?";
}

const char* reduction_operator(ReductionOp op) {
  switch (op) {
    case ReductionOp::kAdd: return "+";
    case ReductionOp::kSub: return "-";
    case ReductionOp::kMul: return "*";
    case ReductionOp::kAnd: return "&";
    case ReductionOp::kOr: return "|";
    case ReductionOp::kXor: return "^";
    case ReductionOp::kLAnd: return "&&";
    case ReductionOp::kLOr: return "||";
  }
  return "?";
}

const char* reduction_identity(ReductionOp op) {
  switch (op) {
    case ReductionOp::kAdd: return "0";
    case ReductionOp::kSub: return "0";
    case ReductionOp::kMul: return "1";
    case ReductionOp::kAnd: return "~0";
    case ReductionOp::kOr: return "0";
    case ReductionOp::kXor: return "0";
    case ReductionOp::kLAnd: return "1";
    case ReductionOp::kLOr: return "0";
  }
  return "0";
}

}  // namespace parade::translator
