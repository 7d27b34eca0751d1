#include "translator/dataflow.hpp"

#include <vector>

namespace parade::translator {

FlowResult solve_dataflow(const Cfg& cfg, const DataflowProblem& problem) {
  const std::size_t n = cfg.blocks.size();
  FlowResult result;
  result.in.assign(n, BitSet(problem.bits));
  result.out.assign(n, BitSet(problem.bits));

  const bool forward = problem.direction == FlowDirection::kForward;
  const std::size_t boundary_block =
      forward ? static_cast<std::size_t>(Cfg::kEntry)
              : static_cast<std::size_t>(Cfg::kExit);

  if (problem.meet == MeetOp::kIntersect) {
    // Interior blocks start at top so the first meet is not poisoned by a
    // not-yet-visited predecessor's bottom value.
    for (std::size_t b = 0; b < n; ++b) {
      if (b == boundary_block) continue;
      result.in[b].set_all();
      result.out[b].set_all();
    }
  }
  if (problem.boundary.size() == problem.bits) {
    result.in[boundary_block] = problem.boundary;
  }

  auto edges_in = [&](std::size_t b) {
    return forward ? cfg.preds(b) : cfg.succs(b);
  };
  auto edges_out = [&](std::size_t b) {
    return forward ? cfg.succs(b) : cfg.preds(b);
  };

  auto apply_transfer = [&](std::size_t b) {
    BitSet out = result.in[b];
    if (b < problem.transfer.size()) {
      const Transfer& t = problem.transfer[b];
      if (t.kill.size() == problem.bits) out.subtract(t.kill);
      if (t.gen.size() == problem.bits) out |= t.gen;
    }
    if (out != result.out[b]) {
      result.out[b] = std::move(out);
      return true;
    }
    return false;
  };

  // FIFO worklist: a vector read from `head`. At most n blocks wait at a
  // time, so dropping the consumed prefix once it reaches n keeps it short.
  std::vector<std::size_t> work;
  work.reserve(2 * n);
  std::size_t head = 0;
  std::vector<char> queued(n, 1);
  for (std::size_t b = 0; b < n; ++b) work.push_back(b);

  while (head < work.size()) {
    if (head >= n) {
      work.erase(work.begin(), work.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
    const std::size_t b = work[head++];
    queued[b] = 0;
    ++result.iterations;

    if (b != boundary_block && !edges_in(b).empty()) {
      BitSet in(problem.bits);
      if (problem.meet == MeetOp::kIntersect) in.set_all();
      for (const int p : edges_in(b)) {
        if (problem.meet == MeetOp::kUnion) {
          in |= result.out[static_cast<std::size_t>(p)];
        } else {
          in &= result.out[static_cast<std::size_t>(p)];
        }
      }
      result.in[b] = std::move(in);
    }

    if (apply_transfer(b)) {
      for (const int s : edges_out(b)) {
        if (queued[static_cast<std::size_t>(s)] == 0) {
          queued[static_cast<std::size_t>(s)] = 1;
          work.push_back(static_cast<std::size_t>(s));
        }
      }
    }
  }
  return result;
}

}  // namespace parade::translator
