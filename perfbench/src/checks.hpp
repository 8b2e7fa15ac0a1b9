// The benchmark's own output checks. Each takes a history the workload
// recorded and returns one message per violated property (empty = the
// history passes). They compute the properties themselves; nothing is
// compared against a stored copy. selftest.cpp feeds each of them a
// corrupted history to show that it fails.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One completed fetch-and-add(1): the step (or op index) at which it
/// was invoked and returned, and the value before the add.
struct CounterOp {
  int pid = 0;
  std::uint64_t invoked = 0;
  std::uint64_t returned = 0;
  std::int64_t value = 0;
};

/// All returned values are distinct, and if op a returned no later than
/// op b was invoked (a != b), a's value is below b's. Every value lies
/// in [0, final_value), and final_value exceeds the completed count by
/// at most `max_pending` operations still in flight.
std::vector<std::string> check_counter(const std::vector<CounterOp>& ops,
                                       std::int64_t final_value,
                                       std::int64_t max_pending);

/// Each pid in `pids` completes an operation at least once in every
/// window of `bound` steps inside [from, to].
std::vector<std::string> check_completion_gaps(
    const std::vector<CounterOp>& ops, const std::vector<int>& pids,
    std::uint64_t from, std::uint64_t to, std::uint64_t bound);

/// Queue items carry their producer and per-producer sequence number.
inline constexpr std::int64_t kItemStride = 1LL << 32;
inline std::int64_t make_item(int producer, std::int64_t seq) {
  return static_cast<std::int64_t>(producer) * kItemStride + seq;
}

/// One completed queue operation; `item` is the value enqueued, or the
/// value a dequeue returned (-1 = the queue was empty).
struct QueueOp {
  int pid = 0;
  std::uint64_t invoked = 0;
  std::uint64_t returned = 0;
  bool enqueue = false;
  std::int64_t item = 0;
};

/// No item is lost or duplicated; each producer's items leave in the
/// order they were enqueued (no later item's dequeue returns before an
/// earlier item's dequeue was invoked, and no later item leaves while an
/// earlier one stays for the drain); no dequeue finds the queue empty
/// while more than `max_pending` items were prefilled; and the final
/// drain holds exactly prefill + enqueues - successful dequeues items.
std::vector<std::string> check_queue(const std::vector<std::int64_t>& prefill,
                                     const std::vector<QueueOp>& ops,
                                     const std::vector<std::int64_t>& drained,
                                     std::size_t max_pending);

/// Completed <= submitted, completed <= the service state (every
/// completed request was applied at least once), and the run's joint
/// SLO + conformance verdict passed.
std::vector<std::string> check_service(std::uint64_t submitted,
                                       std::uint64_t completed,
                                       std::int64_t state, bool joint_ok,
                                       const std::string& label);

}  // namespace perfbench
