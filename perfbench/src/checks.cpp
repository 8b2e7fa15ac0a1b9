#include "checks.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

namespace {

std::string op_text(const CounterOp& op) {
  std::string text = "p";
  text += std::to_string(op.pid);
  text += '[';
  text += std::to_string(op.invoked);
  text += ',';
  text += std::to_string(op.returned);
  text += "]=";
  text += std::to_string(op.value);
  return text;
}

}  // namespace

std::vector<std::string> check_counter(const std::vector<CounterOp>& ops,
                                       std::int64_t final_value,
                                       std::int64_t max_pending) {
  std::vector<std::string> bad;
  std::vector<std::int64_t> values;
  values.reserve(ops.size());
  for (const auto& op : ops) values.push_back(op.value);
  std::sort(values.begin(), values.end());
  const auto dup = std::adjacent_find(values.begin(), values.end());
  if (dup != values.end()) {
    bad.push_back("counter: value " + std::to_string(*dup) +
                  " returned twice");
  }
  if (!values.empty() && (values.front() < 0 || values.back() >= final_value)) {
    bad.push_back("counter: a returned value lies outside [0, final " +
                  std::to_string(final_value) + ")");
  }
  const auto completed = static_cast<std::int64_t>(ops.size());
  if (final_value < completed || final_value > completed + max_pending) {
    bad.push_back("counter: final value " + std::to_string(final_value) +
                  " is not within [" + std::to_string(completed) + ", " +
                  std::to_string(completed + max_pending) +
                  "] for the completed operations");
  }

  // Real-time order: sweep the ops by invocation, folding in every op
  // that returned no later than the current invocation; the largest
  // folded value must be below the current op's value.
  std::vector<const CounterOp*> by_inv, by_ret;
  for (const auto& op : ops) {
    by_inv.push_back(&op);
    by_ret.push_back(&op);
  }
  std::sort(by_inv.begin(), by_inv.end(),
            [](auto* a, auto* b) { return a->invoked < b->invoked; });
  std::sort(by_ret.begin(), by_ret.end(),
            [](auto* a, auto* b) { return a->returned < b->returned; });
  std::size_t folded = 0;
  const CounterOp* max_before = nullptr;
  for (const CounterOp* b : by_inv) {
    while (folded < by_ret.size() && by_ret[folded]->returned <= b->invoked) {
      const CounterOp* a = by_ret[folded++];
      if (a != b && (max_before == nullptr || a->value > max_before->value)) {
        max_before = a;
      }
    }
    if (max_before != nullptr && max_before->value >= b->value) {
      bad.push_back("counter: real-time inversion, " + op_text(*max_before) +
                    " returned before " + op_text(*b) + " was invoked");
      break;
    }
  }
  return bad;
}

std::vector<std::string> check_completion_gaps(
    const std::vector<CounterOp>& ops, const std::vector<int>& pids,
    std::uint64_t from, std::uint64_t to, std::uint64_t bound) {
  std::vector<std::string> bad;
  for (const int p : pids) {
    std::vector<std::uint64_t> done;
    for (const auto& op : ops) {
      if (op.pid == p && op.returned >= from && op.returned <= to) {
        done.push_back(op.returned);
      }
    }
    std::sort(done.begin(), done.end());
    std::uint64_t prev = from, worst = 0;
    for (const auto t : done) {
      worst = std::max(worst, t - prev);
      prev = t;
    }
    worst = std::max(worst, to - prev);
    if (worst > bound) {
      bad.push_back("progress: timely p" + std::to_string(p) + " went " +
                    std::to_string(worst) +
                    " steps without a completion (bound " +
                    std::to_string(bound) + ")");
    }
  }
  return bad;
}

std::vector<std::string> check_queue(const std::vector<std::int64_t>& prefill,
                                     const std::vector<QueueOp>& ops,
                                     const std::vector<std::int64_t>& drained,
                                     std::size_t max_pending) {
  std::vector<std::string> bad;
  std::unordered_set<std::int64_t> entered(prefill.begin(), prefill.end());
  std::size_t enqueues = 0, dequeues = 0;
  for (const auto& op : ops) {
    if (!op.enqueue) continue;
    ++enqueues;
    if (!entered.insert(op.item).second) {
      bad.push_back("queue: item " + std::to_string(op.item) +
                    " enqueued twice");
    }
  }

  // Where each item left: its dequeue, or the drain.
  struct Exit {
    const QueueOp* deq = nullptr;  ///< null = found by the drain
  };
  std::unordered_map<std::int64_t, Exit> left;
  bool empty_reported = false;
  for (const auto& op : ops) {
    if (op.enqueue) continue;
    if (op.item == -1) {
      if (prefill.size() > max_pending && !empty_reported) {
        bad.push_back("queue: a dequeue found the queue empty although " +
                      std::to_string(prefill.size()) +
                      " items were prefilled");
        empty_reported = true;
      }
      continue;
    }
    ++dequeues;
    if (!entered.count(op.item)) {
      bad.push_back("queue: dequeued item " + std::to_string(op.item) +
                    " was never enqueued");
    }
    if (!left.emplace(op.item, Exit{&op}).second) {
      bad.push_back("queue: item " + std::to_string(op.item) +
                    " left the queue twice");
    }
  }
  for (const auto item : drained) {
    if (!entered.count(item)) {
      bad.push_back("queue: drained item " + std::to_string(item) +
                    " was never enqueued");
    }
    if (!left.emplace(item, Exit{}).second) {
      bad.push_back("queue: item " + std::to_string(item) +
                    " left the queue twice");
    }
  }
  for (const auto item : entered) {
    if (!left.count(item)) {
      bad.push_back("queue: item " + std::to_string(item) + " was lost");
      break;
    }
  }
  const std::size_t expect = prefill.size() + enqueues - dequeues;
  if (drained.size() != expect) {
    bad.push_back("queue: drain found " + std::to_string(drained.size()) +
                  " items, expected prefill + enqueues - dequeues = " +
                  std::to_string(expect));
  }

  // Per-producer FIFO: walk each producer's items in enqueue order.
  std::map<std::int64_t, std::map<std::int64_t, Exit>> by_producer;
  for (const auto& [item, exit] : left) {
    by_producer[item / kItemStride][item % kItemStride] = exit;
  }
  for (const auto& [producer, items] : by_producer) {
    std::uint64_t latest_inv = 0;
    bool any_deq = false, drained_earlier = false;
    for (const auto& [seq, exit] : items) {
      if (exit.deq == nullptr) {
        drained_earlier = true;
        continue;
      }
      if (drained_earlier ||
          (any_deq && exit.deq->returned < latest_inv)) {
        bad.push_back("queue: producer " + std::to_string(producer) +
                      " item " + std::to_string(seq) +
                      " left before an earlier item of the same producer");
        break;
      }
      latest_inv = std::max(latest_inv, exit.deq->invoked);
      any_deq = true;
    }
  }
  // Within the drain itself each producer's items stay in order.
  std::map<std::int64_t, std::int64_t> last_seq;
  for (const auto item : drained) {
    const auto producer = item / kItemStride, seq = item % kItemStride;
    auto it = last_seq.find(producer);
    if (it != last_seq.end() && it->second > seq) {
      bad.push_back("queue: the drain returned producer " +
                    std::to_string(producer) + "'s items out of order");
      break;
    }
    last_seq[producer] = seq;
  }
  return bad;
}

std::vector<std::string> check_service(std::uint64_t submitted,
                                       std::uint64_t completed,
                                       std::int64_t state, bool joint_ok,
                                       const std::string& label) {
  std::vector<std::string> bad;
  if (completed > submitted) {
    bad.push_back(label + ": completed " + std::to_string(completed) +
                  " > submitted " + std::to_string(submitted));
  }
  if (state < 0 || static_cast<std::uint64_t>(state) < completed) {
    bad.push_back(label + ": service state " + std::to_string(state) +
                  " is below the completed count " +
                  std::to_string(completed));
  }
  if (!joint_ok) {
    bad.push_back(label + ": the joint SLO + conformance verdict failed");
  }
  return bad;
}

}  // namespace perfbench
