#include "translator/hints.hpp"

#include <cstdlib>
#include <map>
#include <set>

#include "translator/analyze.hpp"

namespace parade::translator {

const char* to_string(SharingPattern pattern) {
  switch (pattern) {
    case SharingPattern::kReadMostly: return "read_mostly";
    case SharingPattern::kProducerConsumer: return "producer_consumer";
    case SharingPattern::kMigratory: return "migratory";
    case SharingPattern::kPingPong: return "ping_pong";
  }
  return "unknown";
}

const SymbolHint* ProtocolHints::find(const std::string& name) const {
  for (const SymbolHint& h : symbols) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

SymbolHint* ProtocolHints::find(const std::string& name) {
  for (SymbolHint& h : symbols) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

namespace {

/// Strict integer-literal parse ("1000000", "0x40"); false on anything else.
bool parse_literal(const std::string& text, long long* out) {
  std::string trimmed;
  for (char c : text) {
    if (c != ' ') trimmed += c;
  }
  if (trimmed.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(trimmed.c_str(), &end, 0);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

LiteralBounds::LiteralBounds(const TranslationUnit& unit) {
  for (const TopItem& item : unit.items) {
    if (item.kind != TopItem::Kind::kDecl) continue;
    for (const Declarator& d : item.stmt->declarators) {
      long long v = 0;
      if (!d.is_function && d.array_dims.empty() && !d.init.empty() &&
          parse_literal(d.init.text, &v)) {
        literals_[d.name] = v;
      }
    }
  }
}

bool LiteralBounds::resolve(const std::string& text, long long* out) const {
  if (parse_literal(text, out)) return true;
  std::string trimmed;
  for (char c : text) {
    if (c != ' ') trimmed += c;
  }
  auto it = literals_.find(trimmed);
  if (it != literals_.end()) {
    *out = it->second;
    return true;
  }
  return false;
}

long long LiteralBounds::trip_count(const ForHeader& h) const {
  if (!h.canonical) return 0;
  long long lo = 0;
  long long hi = 0;
  long long step = 1;
  if (!resolve(h.lower.text, &lo) || !resolve(h.upper.text, &hi) ||
      !resolve(h.step.text, &step) || step == 0) {
    return 0;
  }
  long long span = h.increasing ? hi - lo : lo - hi;
  if (h.inclusive) ++span;
  if (span <= 0) return 0;
  const long long abs_step = step < 0 ? -step : step;
  return (span + abs_step - 1) / abs_step;
}

namespace {

/// Affine per-construct access accounting for one file-scope symbol.
struct FootprintAcc {
  std::size_t reads = 0;   // syntactic occurrences inside parallel constructs
  std::size_t writes = 0;
  std::size_t footprint = 0;  // largest per-construct affine byte estimate
};

/// Walks the unit once, resolving loop trip counts from literal bounds
/// (including file-scope `= literal` initializers like num_steps = 1000000)
/// and attributing each global access to its enclosing parallel construct.
class FootprintWalker {
 public:
  FootprintWalker(const Analysis& analysis, const TranslationUnit& unit)
      : analysis_(analysis), bounds_(unit) {}

  void run(const TranslationUnit& unit) {
    for (const TopItem& item : unit.items) {
      if (item.kind != TopItem::Kind::kFunction) continue;
      if (item.function.body) visit(*item.function.body);
    }
  }

  const std::map<std::string, FootprintAcc>& accs() const { return accs_; }

 private:
  struct LoopCtx {
    std::string var;
    std::size_t trips = 0;  // 0 = statically unknown
  };

  void account_text(const Expr& expr) {
    if (region_line_ == 0) return;
    const AccessScan& acc = expr.access();
    std::set<std::string> touched;
    for (const std::string& r : acc.reads) {
      auto g = analysis_.globals.find(r);
      if (g == analysis_.globals.end()) continue;
      accs_[r].reads += 1;
      touched.insert(r);
    }
    for (const AccessScan::Write& wr : acc.writes) {
      if (wr.deref) continue;
      auto g = analysis_.globals.find(wr.name);
      if (g == analysis_.globals.end()) continue;
      accs_[wr.name].writes += 1;
      touched.insert(wr.name);
    }
    for (const std::string& name : touched) {
      const VarClass& vc = analysis_.globals.at(name);
      FootprintAcc& a = accs_[name];
      std::size_t bytes = vc.byte_size;  // default: the whole object
      if (vc.placement == Placement::kDsmArray) {
        const std::size_t elem = sizeof_declared(vc.type, 0, {});
        if (elem > 0) {
          std::size_t trips = 1;
          bool affine = acc.subscripted(name);
          for (const LoopCtx& l : loops_) {
            if (!acc.subscripted_by(name, l.var)) continue;
            if (l.trips == 0) {
              affine = false;
              break;
            }
            trips *= l.trips;
          }
          if (affine) {
            std::size_t est = elem * trips;
            if (vc.byte_size > 0 && est > vc.byte_size) est = vc.byte_size;
            bytes = est;
          }
        }
      }
      if (bytes > a.footprint) a.footprint = bytes;
    }
  }

  void visit(const Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kRaw:
        account_text(stmt.text);
        return;
      case StmtKind::kDecl:
        for (const Declarator& d : stmt.declarators) account_text(d.init);
        return;
      case StmtKind::kFor: {
        const ForHeader& h = stmt.for_header;
        account_text(h.init_text);
        account_text(h.cond_text);
        account_text(h.incr_text);
        loops_.push_back(
            LoopCtx{h.canonical ? h.loop_var : "",
                    static_cast<std::size_t>(bounds_.trip_count(h))});
        for (const StmtPtr& child : stmt.children) {
          if (child) visit(*child);
        }
        loops_.pop_back();
        return;
      }
      case StmtKind::kIf:
      case StmtKind::kWhile:
      case StmtKind::kDoWhile:
      case StmtKind::kSwitch:
        account_text(stmt.cond);
        break;
      case StmtKind::kPragma: {
        const Directive& d = stmt.directive;
        const bool opens_region = d.kind == DirectiveKind::kParallel ||
                                  d.kind == DirectiveKind::kParallelFor ||
                                  d.kind == DirectiveKind::kParallelSections;
        if (opens_region) {
          const int saved = region_line_;
          region_line_ = d.line;
          for (const StmtPtr& child : stmt.children) {
            if (child) visit(*child);
          }
          region_line_ = saved;
          return;
        }
        break;
      }
      default:
        break;
    }
    for (const StmtPtr& child : stmt.children) {
      if (child) visit(*child);
    }
  }

  const Analysis& analysis_;
  LiteralBounds bounds_;
  std::map<std::string, FootprintAcc> accs_;
  std::vector<LoopCtx> loops_;
  int region_line_ = 0;  // 0 = serial code (no protocol traffic accounted)
};

}  // namespace

void synthesize_hints(const TranslationUnit& unit,
                      const AnalyzeOptions& options, Analysis* analysis) {
  ProtocolHints hints;
  FootprintWalker walker(*analysis, unit);
  walker.run(unit);

  for (const auto& [name, acc] : walker.accs()) {
    const VarClass& vc = analysis->globals.at(name);
    SymbolHint h;
    h.name = name;
    h.byte_size = vc.byte_size;
    h.reads = acc.reads;
    h.writes = acc.writes;
    h.footprint_bytes = acc.footprint;
    // Update-vs-invalidate prior: read-dominated small data amortizes the
    // eager update; write-dominated or large data is cheaper invalidated.
    h.prefer_update = vc.byte_size > 0 &&
                      vc.byte_size <= 4 * options.mp_threshold_bytes &&
                      acc.writes > 0 && acc.reads >= 2 * acc.writes;
    hints.symbols.push_back(std::move(h));
  }
  analysis->hints = std::move(hints);

  // Promotion: a sync site that fell back to the DSM lock *only* because of
  // the raw size threshold flips to the collective when the access pattern
  // prefers the update path. This replaces the static comparison as the
  // final word on collective-vs-DSM lowering.
  for (auto& [line, dec] : analysis->sync_sites) {
    (void)line;
    if (dec.collective || !dec.threshold_fallback || dec.var.empty()) {
      continue;
    }
    const SymbolHint* h = analysis->hints.find(dec.var);
    if (h != nullptr && h->prefer_update) {
      dec.collective = true;
      dec.reason = "promoted to update-by-collective by protocol-hint "
                   "synthesis: " +
                   std::to_string(h->reads) + " read(s) per " +
                   std::to_string(h->writes) + " write(s) on a " +
                   std::to_string(h->byte_size) +
                   " B scalar favor the update path";
    }
  }
}

}  // namespace parade::translator
