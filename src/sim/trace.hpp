// Run trace: which process took each global step, plus crash times.
//
// The trace is the ground truth for the paper's timeliness definitions
// (Definitions 1-2): process p is timely with bound i iff every window of
// i consecutive steps contains a step of p. For a finite run we report
// the smallest such empirical bound; experiment harnesses compare it
// against the bound the schedule was asked to guarantee.
//
// The step log is a schedule: one pid per step, so it needs only w bits
// per step, where w is the smallest power of two (1, 2, 4, 8 or 16) whose
// bit width fits n-1. Each 64-bit word packs 64/w step owners, and words
// live in fixed-size blocks: growth appends a block and never copies
// earlier steps. Window queries scan a word at a time: a lane-match mask,
// popcount for counts, count-trailing-zeros to walk p's steps for gaps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/types.hpp"
#include "util/assert.hpp"

namespace tbwf::sim {

/// Verdict about one process's timeliness over a finite trace.
struct TimelinessVerdict {
  bool crashed = false;
  Step steps_taken = 0;
  /// Smallest i such that every window of i consecutive global steps in
  /// the run contains a step of p. Infinite (max uint64) if p took no
  /// steps at all.
  Step empirical_bound = 0;

  /// Timely relative to a target bound (and not crashed).
  bool timely_with_bound(Step bound) const {
    return !crashed && steps_taken > 0 && empirical_bound <= bound;
  }
};

/// One crash or restart, in the order it was applied to the world. The
/// ordered log is the ground truth the chaos conformance checker (and
/// the apply-order regression tests) read back.
struct FaultEvent {
  Step at = 0;
  Pid pid = kNoPid;
  bool restart = false;  ///< false = crash, true = restart
};

class Trace {
 public:
  /// Largest n the packed log supports: owners are at most 16 bits wide.
  static constexpr int kMaxProcesses = 1 << 16;

  explicit Trace(int n);

  void record_step(Pid p) {
#ifndef NDEBUG
    TBWF_ASSERT(p >= 0 && p < n_, "pid out of range");
#endif
    const Step i = len_++;
    const Step word = i >> lane_shift_;
    const Step lane = i & lane_mask_;
    if (lane == 0 && (word & kBlockMask) == 0) {
      blocks_.emplace_back(kBlockWords, 0);
    }
    blocks_.back()[word & kBlockMask] |= static_cast<std::uint64_t>(p)
                                         << (lane << width_shift_);
  }
  void record_crash(Pid p) {
    crashed_at_[p] = now();
    ++crash_count_[p];
    fault_log_.push_back(FaultEvent{now(), p, /*restart=*/false});
  }
  void record_restart(Pid p) {
    crashed_at_[p] = kNever;
    ++restart_count_[p];
    fault_log_.push_back(FaultEvent{now(), p, /*restart=*/true});
  }

  Step now() const { return len_; }
  int n() const { return n_; }
  bool empty() const { return len_ == 0; }

  Pid step_owner(Step s) const {
    return static_cast<Pid>((word(s >> lane_shift_) >>
                             ((s & lane_mask_) << width_shift_)) &
                            owner_mask_);
  }

  /// Bits stored per step (w above).
  unsigned bits_per_step() const { return 1u << width_shift_; }
  /// Bytes held by the step log: whole blocks, the last one partly used.
  std::size_t storage_bytes() const {
    return blocks_.size() * kBlockWords * sizeof(std::uint64_t);
  }

  /// Currently crashed (i.e. crashed and not subsequently restarted).
  bool crashed(Pid p) const { return crashed_at_[p] != kNever; }
  /// Time of the latest crash p has not recovered from; kNever if alive.
  Step crash_time(Pid p) const { return crashed_at_[p]; }

  std::uint64_t crash_count(Pid p) const { return crash_count_[p]; }
  std::uint64_t restart_count(Pid p) const { return restart_count_[p]; }

  /// Every crash/restart in application order.
  const std::vector<FaultEvent>& fault_log() const { return fault_log_; }

  /// Number of steps taken by p over the whole run.
  Step steps_of(Pid p) const { return steps_of_in(p, 0, len_); }

  /// Number of steps taken by p in the half-open window [from, to).
  Step steps_of_in(Pid p, Step from, Step to) const;

  /// Maximum number of consecutive steps *not* taken by p, including the
  /// prefix before p's first step and the suffix after p's last step.
  /// kNever if p took no step.
  Step max_gap(Pid p) const;

  /// max_gap restricted to the half-open window [from, to): the longest
  /// run of non-p steps inside the window, counting the stretch from
  /// `from` to p's first step and from p's last step to `to`. If p takes
  /// no step in the window this is the window length (not kNever);
  /// callers distinguish "starved" from "absent" via steps_of_in.
  Step max_gap_in(Pid p, Step from, Step to) const;

  TimelinessVerdict timeliness(Pid p) const;

  /// Processes whose empirical bound is <= `bound` and did not crash.
  std::vector<Pid> timely_set(Step bound) const;

  /// Order-sensitive 64-bit digest of the whole trace: every step owner
  /// in sequence plus the fault log. Two runs are schedule-identical iff
  /// their digests match (up to hash collision); the replay-determinism
  /// regression tests pin seeded runs to this. Equal to
  /// util::hash_range over the owners (length first, each owner widened
  /// to 64 bits), then the fault log.
  std::uint64_t digest() const;

  static constexpr Step kNever = std::numeric_limits<Step>::max();

  /// Words per block: 8 KiB blocks.
  static constexpr Step kBlockWords = 1024;

 private:
  static constexpr Step kBlockMask = kBlockWords - 1;
  static constexpr unsigned kBlockShift = 10;
  static_assert(Step{1} << kBlockShift == kBlockWords);

  std::uint64_t word(Step w) const {
    return blocks_[w >> kBlockShift][w & kBlockMask];
  }
  /// High bit of every lane of `x` that holds p.
  std::uint64_t lanes_holding(std::uint64_t x, Pid p) const;
  /// Calls f(base, x, valid) for each word overlapping [from, to): `base`
  /// is the step in lane 0 of word `x`, `valid` the high bits of the
  /// lanes inside the window.
  template <class F>
  void for_each_word(Step from, Step to, F&& f) const;

  int n_;
  unsigned width_shift_;  ///< log2 of the bits per step
  unsigned lane_shift_;   ///< log2 of the steps per word
  Step lane_mask_;        ///< steps per word - 1
  std::uint64_t owner_mask_;
  std::uint64_t lane_ones_;  ///< lowest bit of every lane
  std::uint64_t lane_high_;  ///< highest bit of every lane
  Step len_ = 0;
  std::vector<std::vector<std::uint64_t>> blocks_;
  std::vector<Step> crashed_at_;
  std::vector<std::uint64_t> crash_count_;
  std::vector<std::uint64_t> restart_count_;
  std::vector<FaultEvent> fault_log_;
};

}  // namespace tbwf::sim
