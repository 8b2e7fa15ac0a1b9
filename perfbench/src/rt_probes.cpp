// The rt layer's primitives, each timed in isolation on one thread: the
// lease cycle (LeaseElector::try_lead + release), a solo
// RtQaUniversal::invoke, an RtAbortableReg access, and the whole solo
// path through RtTbwfObject::invoke. Each figure is the best 50 ms
// window's ns per call. Every call's result is checked.
#include "layers.hpp"
#include "qa/sequential_type.hpp"
#include "rt/rt_qa.hpp"
#include "rt/rt_registers.hpp"
#include "rt/rt_tbwf.hpp"

namespace perfbench {

using namespace tbwf;

namespace {

constexpr std::uint64_t kWindowNs = 50000000;  // 50 ms
/// Calls between clock reads inside a window.
constexpr std::uint64_t kBatch = 256;

/// Run `body` (kBatch calls per invocation) in 50 ms windows for
/// `seconds`; return the best window's ns per call.
template <class Body>
double best_ns_per_call(double seconds, Body&& body) {
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  double best = 0.0;
  do {
    const std::uint64_t t0 = now_ns();
    std::uint64_t calls = 0, t1 = t0;
    while (t1 - t0 < kWindowNs) {
      body();
      calls += kBatch;
      t1 = now_ns();
    }
    const double ns = static_cast<double>(t1 - t0) / static_cast<double>(calls);
    if (best == 0.0 || ns < best) best = ns;
  } while (now_ns() < end);
  return best;
}

}  // namespace

void rt_layer_probes(std::map<std::string, double>& m, double seconds,
                     Outcome& out) {
  const double share = seconds / 10.0;
  {
    rt::LeaseElector elector(std::chrono::microseconds(50));
    std::uint64_t lost = 0;
    m["rt.lease_cycle_ns"] = best_ns_per_call(share, [&] {
      for (std::uint64_t i = 0; i < kBatch; ++i) {
        lost += elector.try_lead(0) ? 0 : 1;
        elector.release(0);
      }
    });
    out.check(lost == 0 && elector.owner() == rt::LeaseElector::kNoOwner,
              "rt: a solo lease cycle failed or left the lease held");
  }
  {
    rt::RtQaUniversal<qa::Counter> qa(1, 0);
    std::int64_t expect = 0;
    std::uint64_t bad = 0;
    m["rt.qa_invoke_ns"] = best_ns_per_call(share, [&] {
      for (std::uint64_t i = 0; i < kBatch; ++i) {
        const auto r = qa.invoke(0, qa::Counter::Op{1});
        if (!r.ok() || r.value != expect++) ++bad;
      }
    });
    out.check(bad == 0 && qa.frontier_snapshot().state == expect,
              "rt: a solo RtQaUniversal invoke failed or was lost");
  }
  {
    rt::RtAbortableReg<std::int64_t> reg(0);
    std::int64_t last = 0;
    std::uint64_t bad = 0;
    m["rt.abortable_access_ns"] = best_ns_per_call(share, [&] {
      for (std::uint64_t i = 0; i < kBatch; i += 2) {
        if (!reg.write(++last)) ++bad;
        const auto v = reg.read();
        if (!v || *v != last) ++bad;
      }
    });
    out.check(bad == 0, "rt: a solo RtAbortableReg access aborted or lied");
  }
  {
    rt::RtTbwfObject<qa::Counter> obj(1, 0);
    std::int64_t expect = 0;
    std::uint64_t bad = 0;
    m["rt.tbwf_invoke_ns"] = best_ns_per_call(share, [&] {
      for (std::uint64_t i = 0; i < kBatch; ++i) {
        if (obj.invoke(0, qa::Counter::Op{1}) != expect++) ++bad;
      }
    });
    out.check(bad == 0 && obj.qa().frontier_snapshot().state == expect,
              "rt: a solo RtTbwfObject invoke returned a wrong value");
  }
}

}  // namespace perfbench
