// Differential test of the packed step log: every sim::Trace query is
// checked against a naive reference that keeps one std::uint16_t per step
// and answers each query with a plain loop, over seeded random pid
// sequences. Lengths are chosen to end on, and one step past, a word
// boundary and a block boundary, for every packing width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/trace.hpp"
#include "util/hash.hpp"

namespace tbwf {
namespace {

using sim::FaultEvent;
using sim::Pid;
using sim::Step;
using sim::Trace;

constexpr Step kNever = Trace::kNever;

/// The reference: one owner per step, every query a straight loop.
struct RefTrace {
  std::vector<std::uint16_t> steps;

  Step steps_of_in(Pid p, Step from, Step to) const {
    Step count = 0;
    for (Step s = from; s < to; ++s) count += steps[s] == p ? 1 : 0;
    return count;
  }

  /// Longest run of non-p steps in [from, to), counting both ends.
  Step max_gap_in(Pid p, Step from, Step to) const {
    Step best = 0;
    Step gap = 0;
    for (Step s = from; s < to; ++s) {
      if (steps[s] == p) {
        best = std::max(best, gap);
        gap = 0;
      } else {
        ++gap;
      }
    }
    return std::max(best, gap);
  }

  Step max_gap(Pid p) const {
    if (steps_of_in(p, 0, steps.size()) == 0) return kNever;
    return max_gap_in(p, 0, steps.size());
  }

  std::uint64_t digest(const std::vector<FaultEvent>& faults) const {
    std::uint64_t h = util::hash_range(util::kFnvOffset, steps);
    h = util::hash_mix(h, faults.size());
    for (const FaultEvent& ev : faults) {
      h = util::hash_mix(h, ev.at);
      h = util::hash_mix(h, ev.pid);
      h = util::hash_mix(h, ev.restart);
    }
    return h;
  }
};

/// Seeded pid sequence: half uniform draws, half runs of one pid with
/// geometric lengths so gaps longer than a word show up.
std::vector<std::uint16_t> random_pids(int n, Step len, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pid(0, n - 1);
  std::geometric_distribution<int> run(0.02);
  std::vector<std::uint16_t> out;
  out.reserve(len);
  bool bursty = false;
  while (out.size() < len) {
    if (out.size() % 512 == 0) bursty = (rng() & 1) != 0;
    const auto p = static_cast<std::uint16_t>(pid(rng));
    const Step reps = bursty ? static_cast<Step>(run(rng)) + 1 : 1;
    for (Step i = 0; i < reps && out.size() < len; ++i) out.push_back(p);
  }
  return out;
}

Trace make_trace(int n, const std::vector<std::uint16_t>& pids) {
  Trace t(n);
  for (const auto p : pids) t.record_step(p);
  return t;
}

Step steps_per_word(const Trace& t) { return 64 / t.bits_per_step(); }
Step steps_per_block(const Trace& t) {
  return Trace::kBlockWords * steps_per_word(t);
}

/// Pids worth checking: all of them for small n, else the two ends plus
/// a seeded sample.
std::vector<Pid> probe_pids(int n, std::mt19937_64& rng) {
  std::vector<Pid> out;
  if (n <= 20) {
    for (Pid p = 0; p < n; ++p) out.push_back(p);
    return out;
  }
  out = {0, 1, n - 2, n - 1};
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<Pid>(rng() % n));
  return out;
}

/// Every query of `t` against `ref`, on the whole run and on random,
/// empty and whole-run windows.
void expect_matches(const Trace& t, const RefTrace& ref, std::uint64_t seed) {
  const Step len = ref.steps.size();
  const int n = t.n();
  ASSERT_EQ(t.now(), len);
  ASSERT_EQ(t.empty(), len == 0);
  for (Step s = 0; s < len; ++s) {
    ASSERT_EQ(t.step_owner(s), ref.steps[s]) << "step " << s;
  }

  std::mt19937_64 rng(seed);
  const std::vector<Pid> pids = probe_pids(n, rng);
  for (const Pid p : pids) {
    EXPECT_EQ(t.steps_of(p), ref.steps_of_in(p, 0, len)) << "p" << p;
    EXPECT_EQ(t.max_gap(p), ref.max_gap(p)) << "p" << p;
    const sim::TimelinessVerdict v = t.timeliness(p);
    EXPECT_EQ(v.steps_taken, ref.steps_of_in(p, 0, len)) << "p" << p;
    const Step gap = ref.max_gap(p);
    EXPECT_EQ(v.empirical_bound, gap == kNever ? kNever : gap + 1)
        << "p" << p;
  }

  std::vector<std::pair<Step, Step>> windows = {{0, len}, {0, 0},
                                                {len, len}};
  if (len > 0) {
    for (int i = 0; i < 12; ++i) {
      Step a = rng() % (len + 1);
      Step b = rng() % (len + 1);
      if (a > b) std::swap(a, b);
      windows.emplace_back(a, b);
      windows.emplace_back(a, a);
      // Short windows inside one or two words.
      windows.emplace_back(a, std::min(len, a + rng() % 70));
    }
  }
  for (const auto& [from, to] : windows) {
    for (const Pid p : pids) {
      EXPECT_EQ(t.steps_of_in(p, from, to), ref.steps_of_in(p, from, to))
          << "p" << p << " [" << from << "," << to << ")";
      EXPECT_EQ(t.max_gap_in(p, from, to), ref.max_gap_in(p, from, to))
          << "p" << p << " [" << from << "," << to << ")";
    }
  }

  for (const Step bound : {Step{1}, Step{2}, Step{n + 1ULL}, Step{64},
                           len + 1}) {
    std::vector<Pid> expect;
    for (Pid p = 0; p < n; ++p) {
      const Step gap = ref.max_gap(p);
      if (!t.crashed(p) && gap != kNever && gap + 1 <= bound) {
        expect.push_back(p);
      }
    }
    EXPECT_EQ(t.timely_set(bound), expect) << "bound " << bound;
  }

  EXPECT_EQ(t.digest(), ref.digest(t.fault_log()));
}

class TraceDifferential : public ::testing::TestWithParam<int> {};

TEST_P(TraceDifferential, QueriesMatchReferenceAtWordAndBlockBoundaries) {
  const int n = GetParam();
  const Trace probe(n);
  const Step word = steps_per_word(probe);
  const Step block = steps_per_block(probe);
  const std::vector<Step> lengths = {0,         1,         word - 1,
                                     word,      word + 1,  3 * word + 5,
                                     block - 1, block,     block + 1,
                                     2 * block, 2 * block + 1};
  const std::vector<std::uint16_t> pids =
      random_pids(n, 2 * block + 1, 1000 + static_cast<std::uint64_t>(n));
  for (const Step len : lengths) {
    SCOPED_TRACE(::testing::Message() << "n=" << n << " len=" << len);
    RefTrace ref;
    ref.steps.assign(pids.begin(), pids.begin() + static_cast<long>(len));
    expect_matches(make_trace(n, ref.steps), ref, len * 31 + n);
  }
}

TEST_P(TraceDifferential, LastPartialWordEndingInEitherExtremePid) {
  const int n = GetParam();
  const Trace probe(n);
  const Step word = steps_per_word(probe);
  // The unused lanes of the last word read as pid 0, so a run ending in
  // pid 0 or pid n-1 in a partial word is where reading past the last
  // step would show.
  for (const Pid last : {Pid{0}, static_cast<Pid>(n - 1)}) {
    for (const Step len : {word + 1, 2 * word + word / 2, 5 * word - 1}) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << n << " len=" << len << " last=" << last);
      RefTrace ref;
      ref.steps = random_pids(n, len, 7 * len + static_cast<Step>(last));
      // Keep pid 0 out of the body so any phantom pid-0 lane is counted.
      if (n > 1) {
        for (auto& p : ref.steps) {
          if (p == 0) p = static_cast<std::uint16_t>(n - 1);
        }
      }
      ref.steps.back() = static_cast<std::uint16_t>(last);
      expect_matches(make_trace(n, ref.steps), ref, len + 3);
    }
  }
}

TEST_P(TraceDifferential, DigestFoldsFaultLogAfterSteps) {
  const int n = GetParam();
  std::mt19937_64 rng(99 + static_cast<std::uint64_t>(n));
  RefTrace ref;
  Trace t(n);
  ref.steps = random_pids(n, 3000, 5 + static_cast<std::uint64_t>(n));
  for (Step s = 0; s < ref.steps.size(); ++s) {
    t.record_step(ref.steps[s]);
    if (s % 700 == 13) t.record_crash(static_cast<Pid>(rng() % n));
    if (s % 700 == 400) t.record_restart(static_cast<Pid>(rng() % n));
  }
  ASSERT_FALSE(t.fault_log().empty());
  expect_matches(t, ref, 17);
}

INSTANTIATE_TEST_SUITE_P(Widths, TraceDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 16, 17, 256, 257));

TEST(Trace, BitsPerStepIsSmallestPowerOfTwoFittingMaxPid) {
  const std::vector<std::pair<int, unsigned>> cases = {
      {1, 1},  {2, 1},   {3, 2},   {4, 2},    {5, 4},     {6, 4},
      {8, 4},  {16, 4},  {17, 8},  {256, 8},  {257, 16},  {65536, 16}};
  for (const auto& [n, w] : cases) {
    EXPECT_EQ(Trace(n).bits_per_step(), w) << "n=" << n;
  }
}

TEST(Trace, StorageIsPackedWordsPlusAtMostOneBlock) {
  for (const int n : {2, 6, 17, 300}) {
    Trace t(n);
    EXPECT_EQ(t.storage_bytes(), 0u);
    const Step block_bytes = Trace::kBlockWords * sizeof(std::uint64_t);
    for (Step s = 0; s < 3 * steps_per_block(t) + 11; ++s) {
      t.record_step(static_cast<Pid>(s % n));
      const Step words = (t.now() * t.bits_per_step() + 63) / 64;
      ASSERT_LE(t.storage_bytes(), words * 8 + block_bytes)
          << "n=" << n << " steps=" << t.now();
    }
  }
}

TEST(Trace, CopiesAreIndependent) {
  Trace a(5);
  for (Step s = 0; s < 5000; ++s) a.record_step(static_cast<Pid>(s % 5));
  const std::uint64_t before = a.digest();
  Trace b = a;
  EXPECT_EQ(b.digest(), before);
  for (Step s = 0; s < 3000; ++s) b.record_step(4);
  EXPECT_EQ(a.digest(), before);
  EXPECT_EQ(a.now(), 5000u);
  EXPECT_EQ(b.now(), 8000u);
  EXPECT_EQ(b.max_gap(0), 3004u);
}

TEST(Trace, LargestPidSurvivesPacking) {
  Trace t(Trace::kMaxProcesses);
  t.record_step(Trace::kMaxProcesses - 1);
  t.record_step(0);
  EXPECT_EQ(t.step_owner(0), Trace::kMaxProcesses - 1);
  EXPECT_EQ(t.step_owner(1), 0);
  EXPECT_EQ(t.steps_of(Trace::kMaxProcesses - 1), 1u);
}

TEST(TraceDeathTest, ProcessCountOutOfRangeAborts) {
  EXPECT_DEATH({ Trace t(0); }, "1..65536 processes");
  EXPECT_DEATH({ Trace t(Trace::kMaxProcesses + 1); }, "1..65536 processes");
}

TEST(TraceDeathTest, RecordStepRejectsForeignPidInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "record_step checks its pid only when NDEBUG is unset";
#else
  Trace t(4);
  EXPECT_DEATH(t.record_step(4), "pid out of range");
  EXPECT_DEATH(t.record_step(-1), "pid out of range");
#endif
}

TEST(TraceDeathTest, QueriesRejectForeignPid) {
  Trace t(4);
  for (Step s = 0; s < 100; ++s) t.record_step(static_cast<Pid>(s % 4));
  EXPECT_DEATH(t.steps_of(4), "pid out of range");
  EXPECT_DEATH(t.steps_of_in(sim::kNoPid, 0, 10), "pid out of range");
  EXPECT_DEATH(t.max_gap(-1), "pid out of range");
  EXPECT_DEATH(t.max_gap_in(4, 0, 10), "pid out of range");
  EXPECT_DEATH(t.timeliness(4), "pid out of range");
}

}  // namespace
}  // namespace tbwf
