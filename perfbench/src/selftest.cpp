// Self-test of the benchmark's own checks: each check must pass a clean
// history and fail the same history with one corruption. A check that
// accepts a corrupted history cannot be trusted to catch a real fault.
#include <cstdio>
#include <functional>

#include "bench.hpp"
#include "checks.hpp"

namespace perfbench {

namespace {

/// Three processes taking turns: op i runs over [10i, 10i + 5] and
/// returns value i.
std::vector<CounterOp> clean_counter() {
  std::vector<CounterOp> ops;
  for (int i = 0; i < 30; ++i) {
    const auto t = static_cast<std::uint64_t>(10 * i);
    ops.push_back({i % 3, t, t + 5, i});
  }
  return ops;
}

/// Two producers interleaving enqueues, one consumer dequeuing in FIFO
/// order after them; items 6..7 of each producer stay for the drain,
/// behind two prefilled items that the first dequeues take.
struct QueueHistory {
  std::vector<std::int64_t> prefill;
  std::vector<QueueOp> ops;
  std::vector<std::int64_t> drained;
};

QueueHistory clean_queue() {
  QueueHistory h;
  h.prefill = {make_item(9, 0), make_item(9, 1)};
  std::uint64_t t = 0;
  std::vector<std::int64_t> fifo = h.prefill;
  for (int seq = 0; seq < 8; ++seq) {
    for (int producer = 0; producer < 2; ++producer) {
      const std::int64_t item = make_item(producer, seq);
      h.ops.push_back({producer, t, t + 2, true, item});
      fifo.push_back(item);
      t += 3;
    }
  }
  // Dequeue all but the last four items, in FIFO order.
  for (std::size_t i = 0; i + 4 < fifo.size(); ++i) {
    h.ops.push_back({2, t, t + 2, false, fifo[i]});
    t += 3;
  }
  h.drained.assign(fifo.end() - 4, fifo.end());
  return h;
}

std::vector<QueueOp>::iterator find_deq(QueueHistory& h, std::int64_t item) {
  for (auto it = h.ops.begin(); it != h.ops.end(); ++it) {
    if (!it->enqueue && it->item == item) return it;
  }
  return h.ops.end();
}

struct Case {
  const char* name;
  std::function<std::vector<std::string>()> run;
  bool expect_pass;
};

}  // namespace

Outcome run_self_test() {
  std::vector<Case> cases;
  cases.push_back({"counter: clean history passes",
                   [] { return check_counter(clean_counter(), 30, 3); }, true});
  cases.push_back({"counter: duplicated value fails", [] {
                     auto ops = clean_counter();
                     ops[7].value = ops[6].value;
                     return check_counter(ops, 30, 3);
                   }, false});
  cases.push_back({"counter: real-time inversion fails", [] {
                     auto ops = clean_counter();
                     std::swap(ops[4].value, ops[20].value);
                     return check_counter(ops, 30, 3);
                   }, false});
  cases.push_back({"counter: final value below completed fails",
                   [] { return check_counter(clean_counter(), 29, 3); },
                   false});
  cases.push_back({"progress: gaps within bound pass", [] {
                     return check_completion_gaps(clean_counter(), {0, 1, 2},
                                                  0, 295, 40);
                   }, true});
  cases.push_back({"progress: a starved timely process fails", [] {
                     auto ops = clean_counter();
                     std::erase_if(ops, [](const CounterOp& op) {
                       return op.pid == 1 && op.invoked > 50 &&
                              op.invoked < 250;
                     });
                     return check_completion_gaps(ops, {0, 1, 2}, 0, 295, 40);
                   }, false});
  cases.push_back({"queue: clean history passes", [] {
                     auto h = clean_queue();
                     return check_queue(h.prefill, h.ops, h.drained, 1);
                   }, true});
  cases.push_back({"queue: lost item fails", [] {
                     auto h = clean_queue();
                     h.drained.pop_back();
                     return check_queue(h.prefill, h.ops, h.drained, 1);
                   }, false});
  cases.push_back({"queue: item dequeued twice fails", [] {
                     auto h = clean_queue();
                     auto it = find_deq(h, make_item(0, 3));
                     QueueOp again = *it;
                     again.invoked = again.returned = 1000;
                     h.ops.push_back(again);
                     return check_queue(h.prefill, h.ops, h.drained, 1);
                   }, false});
  cases.push_back({"queue: item both dequeued and drained fails", [] {
                     auto h = clean_queue();
                     h.drained.push_back(make_item(1, 2));
                     return check_queue(h.prefill, h.ops, h.drained, 1);
                   }, false});
  cases.push_back({"queue: per-producer reorder fails", [] {
                     auto h = clean_queue();
                     auto a = find_deq(h, make_item(0, 2));
                     auto b = find_deq(h, make_item(0, 4));
                     std::swap(a->item, b->item);
                     return check_queue(h.prefill, h.ops, h.drained, 1);
                   }, false});
  cases.push_back({"queue: a later item leaving before a drained one fails",
                   [] {
                     auto h = clean_queue();
                     // Producer 0's item 7 is dequeued while item 6 stays.
                     auto it = find_deq(h, make_item(1, 5));
                     it->item = make_item(0, 7);
                     for (auto& d : h.drained) {
                       if (d == make_item(0, 7)) d = make_item(1, 5);
                     }
                     return check_queue(h.prefill, h.ops, h.drained, 1);
                   }, false});
  cases.push_back({"queue: empty dequeue despite prefill fails", [] {
                     auto h = clean_queue();
                     h.ops.push_back({2, 2000, 2002, false, -1});
                     return check_queue(h.prefill, h.ops, h.drained, 1);
                   }, false});
  cases.push_back({"service: clean counts pass",
                   [] { return check_service(100, 90, 95, true, "svc"); },
                   true});
  cases.push_back({"service: state below completed fails",
                   [] { return check_service(100, 90, 89, true, "svc"); },
                   false});
  cases.push_back({"service: completed above submitted fails",
                   [] { return check_service(80, 90, 95, true, "svc"); },
                   false});
  cases.push_back({"service: failed joint verdict fails",
                   [] { return check_service(100, 90, 95, false, "svc"); },
                   false});

  Outcome out;
  for (const auto& c : cases) {
    const auto found = c.run();
    const bool passed = found.empty();
    const bool ok = passed == c.expect_pass;
    std::printf("%-4s %s%s%s\n", ok ? "ok" : "BAD", c.name,
                found.empty() ? "" : "  -> ",
                found.empty() ? "" : found.front().c_str());
    out.check(ok, std::string("self-test: ") + c.name +
                      (c.expect_pass ? " (rejected a clean history)"
                                     : " (accepted a corrupted history)"));
    ++out.attempted;
  }
  return out;
}

}  // namespace perfbench
