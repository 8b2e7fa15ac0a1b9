#include "sim/trace.hpp"

#include <algorithm>
#include <bit>

#include "util/hash.hpp"

namespace tbwf::sim {

const char* to_string(RegKind kind) {
  switch (kind) {
    case RegKind::Atomic:    return "atomic";
    case RegKind::Safe:      return "safe";
    case RegKind::Abortable: return "abortable";
  }
  return "?";
}

namespace {

/// log2 of the bits per step for n processes: the smallest power of two
/// whose bit width fits n-1, at least 1 bit.
unsigned width_shift_for(int n) {
  TBWF_ASSERT(n >= 1 && n <= Trace::kMaxProcesses,
              "trace supports 1..65536 processes");
  const unsigned bits = std::bit_width(static_cast<unsigned>(n - 1));
  return bits <= 1 ? 0u : std::bit_width(bits - 1);
}

}  // namespace

Trace::Trace(int n)
    : n_(n),
      width_shift_(width_shift_for(n)),
      lane_shift_(6 - width_shift_),
      lane_mask_((Step{64} >> width_shift_) - 1),
      owner_mask_(~0ULL >> (64 - (1u << width_shift_))),
      lane_ones_(~0ULL / owner_mask_),
      lane_high_(lane_ones_ << ((1u << width_shift_) - 1)),
      crashed_at_(n, kNever),
      crash_count_(n, 0),
      restart_count_(n, 0) {}

std::uint64_t Trace::lanes_holding(std::uint64_t x, Pid p) const {
  // A lane of y is zero iff it holds p. Adding the low bits of each lane
  // to all-ones carries into the lane's high bit iff they are non-zero;
  // OR-ing y back in covers the high bit itself. No carry crosses lanes.
  const std::uint64_t y = x ^ (lane_ones_ * static_cast<std::uint64_t>(p));
  const std::uint64_t low = ~lane_high_;
  return ~(((y & low) + low) | y) & lane_high_;
}

template <class F>
void Trace::for_each_word(Step from, Step to, F&& f) const {
  TBWF_ASSERT(from <= to && to <= len_, "window out of range");
  if (from == to) return;
  const Step first = from >> lane_shift_;
  const Step last = (to - 1) >> lane_shift_;
  // The unused lanes of the last word read as pid 0: mask them out.
  const std::uint64_t head = ~0ULL << ((from & lane_mask_) << width_shift_);
  const unsigned tail_bits =
      static_cast<unsigned>(((to - 1) & lane_mask_) + 1) << width_shift_;
  const std::uint64_t tail = tail_bits == 64 ? ~0ULL : (1ULL << tail_bits) - 1;
  for (Step w = first; w <= last; ++w) {
    std::uint64_t valid = lane_high_;
    if (w == first) valid &= head;
    if (w == last) valid &= tail;
    f(w << lane_shift_, word(w), valid);
  }
}

Step Trace::steps_of_in(Pid p, Step from, Step to) const {
  TBWF_ASSERT(p >= 0 && p < n_, "pid out of range");
  Step count = 0;
  for_each_word(from, to, [&](Step, std::uint64_t x, std::uint64_t valid) {
    count += static_cast<Step>(std::popcount(lanes_holding(x, p) & valid));
  });
  return count;
}

Step Trace::max_gap_in(Pid p, Step from, Step to) const {
  TBWF_ASSERT(p >= 0 && p < n_, "pid out of range");
  Step best = 0;
  Step next = from;  // the first step after p's latest step
  for_each_word(from, to, [&](Step base, std::uint64_t x, std::uint64_t valid) {
    for (std::uint64_t m = lanes_holding(x, p) & valid; m != 0; m &= m - 1) {
      const Step s =
          base + (static_cast<Step>(std::countr_zero(m)) >> width_shift_);
      best = std::max(best, s - next);
      next = s + 1;
    }
  });
  return std::max(best, to - next);
}

Step Trace::max_gap(Pid p) const {
  // Over the whole run the gap is len_ exactly when p took no step.
  const Step gap = max_gap_in(p, 0, len_);
  return gap == len_ ? kNever : gap;
}

TimelinessVerdict Trace::timeliness(Pid p) const {
  TimelinessVerdict v;
  v.crashed = crashed(p);
  v.steps_taken = steps_of(p);
  const Step gap = max_gap(p);
  v.empirical_bound = (gap == kNever) ? kNever : gap + 1;
  return v;
}

std::vector<Pid> Trace::timely_set(Step bound) const {
  std::vector<Pid> result;
  for (Pid p = 0; p < n_; ++p) {
    if (timeliness(p).timely_with_bound(bound)) result.push_back(p);
  }
  return result;
}

std::uint64_t Trace::digest() const {
  std::uint64_t h = util::hash_mix(util::kFnvOffset, len_);
  for_each_word(0, len_, [&](Step, std::uint64_t x, std::uint64_t valid) {
    const unsigned width = 1u << width_shift_;
    for (unsigned shift = 0; shift < 64 && (valid >> shift) != 0;
         shift += width) {
      h = util::hash_mix(h, (x >> shift) & owner_mask_);
    }
  });
  h = util::hash_mix(h, fault_log_.size());
  for (const FaultEvent& ev : fault_log_) {
    h = util::hash_mix(h, ev.at);
    h = util::hash_mix(h, ev.pid);
    h = util::hash_mix(h, ev.restart);
  }
  return h;
}

}  // namespace tbwf::sim
