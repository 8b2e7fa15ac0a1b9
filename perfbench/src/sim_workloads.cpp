// The benchmark's workloads: tbwf_degrading, batched_queue and
// leader_service, all on the simulator. Every step-denominated figure is a pure function of
// (--seed, --seconds): --seconds sets a fixed number of simulated steps
// (or soak calls), sized to take about that long on the reference host.
// Wall-clock costs are per-layer figures of the traced run, where each
// is the fastest of many equal slices.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "checks.hpp"
#include "core/tbwf.hpp"
#include "layers.hpp"
#include "omega/candidate_drivers.hpp"
#include "omega/omega_registers.hpp"
#include "qa/qa_batched.hpp"
#include "registers/abort_policy.hpp"
#include "sim/faultplan.hpp"
#include "sim/schedule.hpp"
#include "soak/soak.hpp"

namespace perfbench {

using namespace tbwf;

namespace {

/// Whole slices of `slice` steps for a budget of `per_second` steps per
/// second of --seconds (at least one slice).
sim::Step budget_steps(const RunConfig& cfg, sim::Step per_second,
                       sim::Step slice) {
  const auto slices = static_cast<sim::Step>(
      std::llround(cfg.seconds * static_cast<double>(per_second) /
                   static_cast<double>(slice)));
  return std::max<sim::Step>(1, slices) * slice;
}

sim::World::Options world_options(bool trace) {
  sim::World::Options options;
  options.track_accesses = trace;
  return options;
}

/// Quantile of a LogHistogram with linear interpolation inside the
/// bucket that holds the nearest-rank sample (the histogram itself only
/// reports bucket upper bounds). Reconstructs the bucket's rank range by
/// bisecting the histogram's own quantile().
double hist_quantile(const soak::LogHistogram& h, double q) {
  using H = soak::LogHistogram;
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  const auto value_at = [&](std::uint64_t rank) {  // 1-based
    return h.quantile((static_cast<double>(rank) - 0.5) /
                      static_cast<double>(n));
  };
  const auto k = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))), 1,
      n);
  const std::size_t bucket = H::index_of(value_at(k));
  const std::uint64_t lo = H::bucket_lower(bucket);
  const std::uint64_t hi = H::bucket_upper(bucket);
  std::uint64_t a = 1, b = k;  // first rank inside the bucket
  while (a < b) {
    const std::uint64_t mid = (a + b) / 2;
    if (value_at(mid) >= lo) b = mid; else a = mid + 1;
  }
  std::uint64_t c = k, d = n;  // last rank inside the bucket
  while (c < d) {
    const std::uint64_t mid = (c + d + 1) / 2;
    if (value_at(mid) <= hi) c = mid; else d = mid - 1;
  }
  const double width = static_cast<double>(hi - lo + 1);
  const double within = (static_cast<double>(k - a) + 0.5) /
                        static_cast<double>(c - a + 1);
  return static_cast<double>(lo) + within * width;
}

/// Step latency quantiles (invoke to return) of ops that lie inside
/// [from, to).
template <class Op>
std::vector<double> latencies(const std::vector<Op>& ops, sim::Step from,
                              sim::Step to, const std::vector<int>& pids) {
  std::vector<double> out;
  for (const auto& op : ops) {
    if (op.invoked < from || op.returned >= to) continue;
    if (std::find(pids.begin(), pids.end(), op.pid) == pids.end()) continue;
    out.push_back(static_cast<double>(op.returned - op.invoked));
  }
  return out;
}

template <class Op>
std::uint64_t returned_in(const std::vector<Op>& ops, sim::Step from,
                          sim::Step to) {
  return static_cast<std::uint64_t>(
      std::count_if(ops.begin(), ops.end(), [&](const Op& op) {
        return op.returned >= from && op.returned < to;
      }));
}

std::vector<int> all_pids(int n) {
  std::vector<int> pids;
  for (int p = 0; p < n; ++p) pids.push_back(p);
  return pids;
}

/// The traced run's measurement: the traced rig steps through the same
/// window as the untraced run, slice by slice, interleaved with an
/// untraced twin of the same rig so both see the same host phases; the
/// ratio of their fastest slices is the tracing overhead.
struct TracedWindow {
  double untraced_rate = 0.0;
  double traced_rate = 0.0;
  double overhead() const {
    return traced_rate > 0 ? untraced_rate / traced_rate - 1.0 : 0.0;
  }
};

TracedWindow run_traced(sim::World& twin, LayerTrace& trace, sim::Step total,
                        sim::Step slice) {
  SliceTimer untraced, traced;
  trace.start();
  for (sim::Step done = 0; done < total; done += slice) {
    untraced.begin();
    twin.run(slice);
    untraced.end(static_cast<double>(slice));
    traced.begin();
    trace.run_slice(slice);
    traced.end(static_cast<double>(slice));
  }
  return {untraced.best_rate(), traced.best_rate()};
}

/// Layer metrics every sim workload shares, from the trace's totals.
void common_layer_metrics(std::map<std::string, double>& m,
                          const LayerTrace& trace, double ops,
                          std::uint64_t aborts) {
  const auto& t = trace.totals();
  const double steps = static_cast<double>(t.steps);
  const double accesses = static_cast<double>(t.accesses());
  const double mstep = steps / 1e6;
  m["sim.ns_per_step"] = per(static_cast<double>(t.step_ns), steps);
  m["sim.local_steps_per_op"] = per(static_cast<double>(t.local_steps), ops);
  m["registers.accesses_per_op"] = per(accesses, ops);
  m["registers.aborts_per_op"] = per(static_cast<double>(aborts), ops);
  m["registers.ns_per_access"] =
      per(static_cast<double>(t.step_ns - t.local_ns), accesses);
  m["monitor.hb_accesses_per_mstep"] =
      per(static_cast<double>(t.accesses(RegFamily::kMonitorHb)), mstep);
  m["omega.counter_reads_per_mstep"] = per(
      static_cast<double>(
          t.reads[static_cast<std::size_t>(RegFamily::kCounter)]),
      mstep);
  m["omega.msg_accesses_per_op"] =
      per(static_cast<double>(t.accesses(RegFamily::kMsg)), ops);
  m["omega.hb_accesses_per_op"] =
      per(static_cast<double>(t.accesses(RegFamily::kHbChannel)), ops);
  m["omega.ns_share"] =
      per(static_cast<double>(t.ns_of(RegFamily::kMsg) +
                              t.ns_of(RegFamily::kHbChannel) +
                              t.ns_of(RegFamily::kCounter)),
          static_cast<double>(t.step_ns));
  m["qa.reg_accesses_per_op"] =
      per(static_cast<double>(t.accesses(RegFamily::kQaRecord) +
                              t.accesses(RegFamily::kQaAnnounce)),
          ops);
  m["qa.ns_per_op"] = per(static_cast<double>(t.ns_of(RegFamily::kQaRecord) +
                                              t.ns_of(RegFamily::kQaAnnounce)),
                          ops);
}

/// Shared tail of every traced sim run: the attribution cross-check, the
/// trace file, the overhead line and the metrics.
void finish_trace(Outcome& out, const RunConfig& cfg, const LayerTrace& trace,
                  const TracedWindow& window, std::map<std::string, double> m) {
  out.check(trace.totals().accesses() == trace.world_accesses(),
            "trace: per-layer accesses " +
                std::to_string(trace.totals().accesses()) +
                " != World::total_reads() + total_writes() " +
                std::to_string(trace.world_accesses()));
  out.check(trace.totals().accesses(RegFamily::kOther) == 0,
            "trace: accesses to registers outside every named layer");
  std::map<std::string, double> extra = m;
  extra["trace.untraced_steps_per_s"] = window.untraced_rate;
  extra["trace.traced_steps_per_s"] = window.traced_rate;
  extra["trace.overhead"] = window.overhead();
  std::printf("trace overhead: %.1f%% (fastest slice %.0f steps/s untraced, "
              "%.0f traced)\n",
              100.0 * window.overhead(), window.untraced_rate,
              window.traced_rate);
  rt_layer_probes(m, cfg.seconds, out);
  if (!cfg.trace_out.empty()) {
    out.check(trace.write_json(cfg.trace_out, cfg.workload, extra,
                                     cfg.provenance),
              "trace: cannot write " + cfg.trace_out);
  }
  emit_layer_metrics(out, m);
}

// ===========================================================================
// tbwf_degrading: the Theorem 15 stack (Figure 6 Omega-Delta over
// abortable registers + T_QA over abortable registers + Figure 7), E1
// shape: 4 timely processes and 2 with growing silent gaps, all looping
// on counter increments.
// ===========================================================================

constexpr int kTbwfN = 6;
constexpr int kTbwfTimely = 4;
constexpr sim::Step kTbwfWarmup = 2000000;
constexpr sim::Step kTbwfPerSecond = 4000000;
constexpr sim::Step kTbwfSlice = 250000;
/// Stated liveness bound: every timely process completes an operation
/// at least once per this many steps of the measured window (the E1
/// runs see gaps below 70k).
constexpr sim::Step kTbwfGapBound = 250000;
constexpr double kTbwfAbort = 0.5;

using TbwfSys = core::TbwfSystem<qa::Counter, qa::AbortableBase>;
using TbwfObj = core::TbwfObject<qa::Counter, qa::AbortableBase>;

struct TbwfRig {
  static std::vector<sim::ActivitySpec> specs() {
    std::vector<sim::ActivitySpec> s;
    for (int i = 0; i < kTbwfN; ++i) {
      s.push_back(i < kTbwfTimely
                      ? sim::ActivitySpec::timely(4 * kTbwfN)
                      : sim::ActivitySpec::growing_flicker(2000 + 500 * i,
                                                           400 + 100 * i));
    }
    return s;
  }

  TbwfRig(std::uint64_t seed, bool trace)
      : w(kTbwfN,
          std::make_unique<sim::TimelinessSchedule>(specs(),
                                                    sub_seed(seed, 0)),
          world_options(trace)),
        qa_policy(sub_seed(seed, 1), kTbwfAbort, kTbwfAbort, 0.5),
        omega_policy(sub_seed(seed, 2), kTbwfAbort, kTbwfAbort, 0.5),
        sys(w, 0, core::OmegaBackend::AbortableRegisters, &qa_policy,
            &omega_policy),
        pending(kTbwfN, false) {
    for (sim::Pid p = 0; p < kTbwfN; ++p) {
      w.spawn(p, "worker",
              [this](sim::SimEnv& env) { return worker(env, *this); });
    }
  }

  static sim::Task worker(sim::SimEnv& env, TbwfRig& rig) {
    const sim::Pid p = env.pid();
    for (;;) {
      const sim::Step invoked = env.now();
      rig.pending[p] = true;
      const auto v =
          co_await rig.sys.object().invoke(env, qa::Counter::Op{1});
      rig.pending[p] = false;
      rig.ops.push_back({p, invoked, env.now(), v});
    }
  }

  sim::World w;
  registers::ProbabilisticAbortPolicy qa_policy;
  registers::ProbabilisticAbortPolicy omega_policy;
  TbwfSys sys;
  std::vector<bool> pending;
  std::vector<CounterOp> ops;
};

void check_tbwf(Outcome& out, TbwfRig& rig, sim::Step from, sim::Step to) {
  out.attempted = rig.ops.size();
  const auto final_value = rig.sys.object().qa().peek_frontier().state;
  out.absorb(check_counter(rig.ops, final_value, kTbwfN));
  std::vector<int> timely = all_pids(kTbwfTimely);
  out.absorb(check_completion_gaps(rig.ops, timely, from, to, kTbwfGapBound));
  out.check(returned_in(rig.ops, from, to) > 0,
            "tbwf: no operation completed in the measured window");
}

}  // namespace

Outcome run_tbwf_degrading(const RunConfig& cfg) {
  Outcome out;
  const sim::Step total = budget_steps(cfg, kTbwfPerSecond, kTbwfSlice);
  const sim::Step from = kTbwfWarmup, to = kTbwfWarmup + total;
  const std::vector<int> timely = all_pids(kTbwfTimely);

  if (!cfg.trace) {
    TbwfRig rig(cfg.seed, false);
    rig.w.run(kTbwfWarmup);
    const double setup_s = seconds_since_start();
    rig.w.run(total);
    check_tbwf(out, rig, from, to);
    const auto lat = latencies(rig.ops, from, to, timely);
    out.add("setup_s", setup_s, "s");
    out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    out.add("ops_per_mstep",
            static_cast<double>(returned_in(rig.ops, from, to)) * 1e6 /
                static_cast<double>(total),
            "ops/Mstep");
    out.add("op_steps_p50", quantile(lat, 0.50), "steps");
    out.add("op_steps_p99", quantile(lat, 0.99), "steps");
    return out;
  }

  TbwfRig twin(cfg.seed, false);
  TbwfRig rig(cfg.seed, true);
  twin.w.run(kTbwfWarmup);
  rig.w.run(kTbwfWarmup);
  std::uint64_t leading = 0, waiting = 0, leader_changes = 0;
  std::vector<sim::Pid> last_leader(kTbwfN, omega::kNoLeader);
  for (sim::Pid p = 0; p < kTbwfN; ++p) {
    last_leader[p] = rig.sys.omega_io(p).leader;
  }
  LayerTrace trace(rig.w, [&](sim::Pid p) {
    const sim::Pid leader = rig.sys.omega_io(p).leader;
    if (leader != last_leader[p]) {
      ++leader_changes;
      last_leader[p] = leader;
    }
    if (rig.pending[p]) ++(leader == p ? leading : waiting);
  });
  std::uint64_t publishes0 = 0;
  for (sim::Pid p = 0; p < kTbwfN; ++p) {
    publishes0 += rig.sys.object().qa().publishes(p);
  }
  const std::uint64_t aborts0 =
      rig.w.total_read_aborts() + rig.w.total_write_aborts();
  const TracedWindow window = run_traced(twin.w, trace, total, kTbwfSlice);
  check_tbwf(out, rig, from, to);
  out.check(twin.ops.size() == rig.ops.size(),
            "trace: the traced run diverged from its untraced twin");

  const double ops = static_cast<double>(returned_in(rig.ops, from, to));
  std::uint64_t publishes = 0;
  for (sim::Pid p = 0; p < kTbwfN; ++p) {
    publishes += rig.sys.object().qa().publishes(p);
  }
  std::map<std::string, double> m;
  common_layer_metrics(
      m, trace, ops,
      rig.w.total_read_aborts() + rig.w.total_write_aborts() - aborts0);
  m["omega.leader_changes"] = static_cast<double>(leader_changes);
  m["qa.publishes_per_op"] = per(static_cast<double>(publishes - publishes0),
                                 ops);
  m["core.leader_wait_steps_per_op"] = per(static_cast<double>(waiting), ops);
  m["core.leading_steps_per_op"] = per(static_cast<double>(leading), ops);
  finish_trace(out, cfg, trace, window, m);
  return out;
}

// ===========================================================================
// batched_queue: BatchedQaUniversal<Queue> with 8 processes under a
// seeded RandomSchedule, prefilled; each process alternates enqueue and
// dequeue through the saturating apply() surface. No Omega-Delta.
// ===========================================================================

namespace {

constexpr int kQueueN = 8;
constexpr int kPrefill = 64;
constexpr sim::Step kQueueWarmup = 200000;
constexpr sim::Step kQueuePerSecond = 400000;
constexpr sim::Step kQueueSlice = 100000;
/// Steps the workers get to finish their pending ops after the stop.
constexpr sim::Step kQueueQuiesce = 2000000;

using QueueObj = qa::BatchedQaUniversal<qa::Queue>;

struct QueueRig {
  /// The prefill is producer kQueueN's sequence 0..kPrefill-1.
  static std::vector<std::int64_t> prefill_items() {
    std::vector<std::int64_t> items;
    for (int i = 0; i < kPrefill; ++i) items.push_back(make_item(kQueueN, i));
    return items;
  }
  static qa::Queue::State prefilled() {
    const auto items = prefill_items();
    return qa::Queue::State(items.begin(), items.end());
  }

  QueueRig(std::uint64_t seed, bool trace)
      : w(kQueueN, std::make_unique<sim::RandomSchedule>(sub_seed(seed, 0)),
          world_options(trace)),
        obj(w, prefilled()) {
    for (sim::Pid p = 0; p < kQueueN; ++p) {
      w.spawn(p, "worker",
              [this](sim::SimEnv& env) { return worker(env, *this); });
    }
  }

  static sim::Task worker(sim::SimEnv& env, QueueRig& rig) {
    const sim::Pid p = env.pid();
    std::int64_t seq = 0;
    for (std::uint64_t k = 0; !rig.stop; ++k) {
      const sim::Step invoked = env.now();
      if (k % 2 == 0) {
        const std::int64_t item = make_item(p, seq++);
        const auto r = co_await rig.obj.apply(env, qa::Queue::enqueue(item));
        if (r != item) ++rig.bad_enqueue_results;
        rig.ops.push_back({p, invoked, env.now(), true, item});
      } else {
        const auto r = co_await rig.obj.apply(env, qa::Queue::dequeue());
        rig.ops.push_back({p, invoked, env.now(), false, r});
      }
    }
  }

  static sim::Task drainer(sim::SimEnv& env, QueueRig& rig) {
    for (;;) {
      const auto r = co_await rig.obj.apply(env, qa::Queue::dequeue());
      if (r == -1) break;
      rig.drained.push_back(r);
    }
    rig.drain_done = true;
  }

  sim::World w;
  QueueObj obj;
  bool stop = false;
  bool drain_done = false;
  std::uint64_t bad_enqueue_results = 0;
  std::vector<QueueOp> ops;
  std::vector<std::int64_t> drained;
};

/// Stop the workers, let them finish their pending ops, drain the queue
/// from one process, and check the whole history.
void drain_and_check(Outcome& out, QueueRig& rig) {
  rig.stop = true;
  const sim::Step quiesced = rig.w.run(kQueueQuiesce);
  out.check(quiesced < kQueueQuiesce,
            "queue: workers did not finish their pending ops");
  rig.w.spawn(0, "drain",
              [&rig](sim::SimEnv& env) { return QueueRig::drainer(env, rig); });
  rig.w.run(kQueueQuiesce);
  out.check(rig.drain_done, "queue: the drain did not finish");
  out.check(rig.bad_enqueue_results == 0,
            "queue: an enqueue returned another value than its item");
  out.attempted = rig.ops.size();
  out.absorb(check_queue(QueueRig::prefill_items(), rig.ops, rig.drained,
                         kQueueN));
}

}  // namespace

Outcome run_batched_queue(const RunConfig& cfg) {
  Outcome out;
  const sim::Step total = budget_steps(cfg, kQueuePerSecond, kQueueSlice);
  const sim::Step from = kQueueWarmup, to = kQueueWarmup + total;
  const std::vector<int> everyone = all_pids(kQueueN);

  if (!cfg.trace) {
    QueueRig rig(cfg.seed, false);
    rig.w.run(kQueueWarmup);
    const double setup_s = seconds_since_start();
    rig.w.run(total);
    const auto lat = latencies(rig.ops, from, to, everyone);
    const auto completed = returned_in(rig.ops, from, to);
    drain_and_check(out, rig);
    out.add("setup_s", setup_s, "s");
    out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    out.add("ops_per_mstep",
            static_cast<double>(completed) * 1e6 / static_cast<double>(total),
            "ops/Mstep");
    out.add("op_steps_p50", quantile(lat, 0.50), "steps");
    out.add("op_steps_p99", quantile(lat, 0.99), "steps");
    return out;
  }

  QueueRig twin(cfg.seed, false);
  QueueRig rig(cfg.seed, true);
  twin.w.run(kQueueWarmup);
  rig.w.run(kQueueWarmup);
  LayerTrace trace(rig.w);
  const auto snapshot = [&rig](auto member) {
    std::uint64_t sum = 0;
    for (sim::Pid p = 0; p < kQueueN; ++p) sum += member(p);
    return sum;
  };
  const auto writes = [&](sim::Pid p) { return rig.obj.shared_writes(p); };
  const auto combines = [&](sim::Pid p) { return rig.obj.combines(p); };
  const auto fast = [&](sim::Pid p) { return rig.obj.fast_completions(p); };
  const auto publishes = [&](sim::Pid p) {
    return rig.obj.inner().publishes(p);
  };
  const std::uint64_t writes0 = snapshot(writes), combines0 = snapshot(combines),
                      fast0 = snapshot(fast), publishes0 = snapshot(publishes);
  const std::uint64_t aborts0 =
      rig.w.total_read_aborts() + rig.w.total_write_aborts();
  const TracedWindow window = run_traced(twin.w, trace, total, kQueueSlice);
  const double ops = static_cast<double>(returned_in(rig.ops, from, to));
  std::map<std::string, double> m;
  common_layer_metrics(
      m, trace, ops,
      rig.w.total_read_aborts() + rig.w.total_write_aborts() - aborts0);
  m["qa.publishes_per_op"] =
      per(static_cast<double>(snapshot(publishes) - publishes0), ops);
  m["qa.shared_writes_per_op"] =
      per(static_cast<double>(snapshot(writes) - writes0), ops);
  m["qa.ops_per_combine"] =
      per(ops, static_cast<double>(snapshot(combines) - combines0));
  m["qa.fast_path_share"] =
      per(static_cast<double>(snapshot(fast) - fast0), ops);
  out.check(twin.ops.size() == rig.ops.size(),
            "trace: the traced run diverged from its untraced twin");
  drain_and_check(out, rig);
  finish_trace(out, cfg, trace, window, m);
  return out;
}

// ===========================================================================
// leader_service: the sim leader-routed service at full scale
// (soak::run_sim_soak), Omega-Delta on atomic registers (Figure 3 +
// activity monitors), seeded fault-plan churn. The untraced run times
// whole run_sim_soak calls; the traced run assembles the same service
// from its public classes and checks that it reproduces the call.
// ===========================================================================

namespace {

/// run_sim_soak calls per second of --seconds (one call is 6M steps).
constexpr double kSoakCallsPerSecond = 0.7;
constexpr sim::Step kSoakSlice = 100000;

/// The k-th soak seed of a run (k < 64).
std::uint64_t soak_seed(std::uint64_t seed, int k) {
  return seed * 64 + static_cast<std::uint64_t>(k);
}

soak::SimSoakOptions soak_options(std::uint64_t seed) {
  return soak::SimSoakOptions::full(seed, soak::SimBackend::kAtomic);
}

/// run_sim_soak's atomic-backend, flicker-mode assembly: the fault plan,
/// the chaos-wrapped schedule, Figure 3 Omega-Delta, the candidate
/// drivers, and the service on every pid but the flickering spare.
struct ServiceRig {
  static sim::FaultPlan::GenOptions gen_options(
      const soak::SimSoakOptions& o) {
    sim::FaultPlan::GenOptions gen;
    gen.n = o.n;
    gen.horizon = o.horizon;
    gen.quiet_tail = 0.4;
    gen.max_crash_cycles = 2;
    gen.max_stutters = 2;
    gen.p_restart = 0.9;
    return gen;
  }

  ServiceRig(const soak::SimSoakOptions& o, bool trace)
      : plan(sim::FaultPlan::generate(o.seed, gen_options(o))),
        w(o.n,
          plan.wrap(std::make_unique<sim::RandomSchedule>(o.seed * 991 + 7)),
          world_options(trace)),
        omega(w) {
    omega.install_all();
    for (sim::Pid p = 0; p < o.n; ++p) {
      omega::OmegaIO* io = &omega.io(p);
      if (p == o.n - 1) {
        w.spawn(p, "cand", [io](sim::SimEnv& env) {
          return omega::canonical_repeated_candidate(env, *io, 30000, 30000);
        });
      } else {
        w.spawn(p, "cand", [io](sim::SimEnv& env) {
          return omega::permanent_candidate(env, *io);
        });
      }
    }
    soak::SimServiceOptions service = o.service;
    for (sim::Pid p = 0; p < o.n - 1; ++p) service.client_pids.push_back(p);
    svc.emplace(
        w,
        [this](sim::Pid p) -> const omega::OmegaIO& { return omega.io(p); },
        service);
    svc->install();
    plan.install(w);
  }

  sim::FaultPlan plan;
  sim::World w;
  omega::OmegaRegisters omega;
  std::optional<soak::SimLeaderService> svc;
};

}  // namespace

Outcome run_leader_service(const RunConfig& cfg) {
  Outcome out;
  const auto check_call = [&out](const soak::SimSoakResult& r,
                                 std::uint64_t seed) {
    out.absorb(check_service(r.stats.submitted, r.stats.completed,
                             r.state_value, r.joint.ok(),
                             "leader_service seed " + std::to_string(seed)));
    out.attempted += r.stats.completed;
  };

  if (!cfg.trace) {
    // Warm-up: one quick-scale call on a seed outside the measured ones.
    const std::uint64_t warm = soak_seed(cfg.seed, 63);
    check_call(soak::run_sim_soak(
                   soak::SimSoakOptions::quick(warm, soak::SimBackend::kAtomic)),
               warm);
    const double setup_s = seconds_since_start();
    const int calls = std::max(
        2, static_cast<int>(std::lround(cfg.seconds * kSoakCallsPerSecond)));
    soak::LogHistogram commit;
    std::uint64_t completed = 0, steps = 0;
    for (int k = 0; k < calls; ++k) {
      const std::uint64_t s = soak_seed(cfg.seed, k);
      const soak::SimSoakResult r = soak::run_sim_soak(soak_options(s));
      check_call(r, s);
      commit.merge(r.stats.commit);
      completed += r.stats.completed;
      steps += r.run_end;
    }
    out.add("setup_s", setup_s, "s");
    out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    // A request is this workload's op; its latency is submission to
    // the commit watermark covering it.
    out.add("ops_per_mstep",
            static_cast<double>(completed) * 1e6 / static_cast<double>(steps),
            "ops/Mstep");
    out.add("op_steps_p50", hist_quantile(commit, 0.50), "steps");
    out.add("op_steps_p99", hist_quantile(commit, 0.99), "steps");
    return out;
  }

  const std::uint64_t s = soak_seed(cfg.seed, 0);
  const soak::SimSoakOptions options = soak_options(s);
  const soak::SimSoakResult reference = soak::run_sim_soak(options);
  check_call(reference, s);
  ServiceRig twin(options, false);
  ServiceRig rig(options, true);
  std::uint64_t leader_changes = 0;
  std::vector<sim::Pid> last_leader(options.n, omega::kNoLeader);
  LayerTrace trace(rig.w, [&](sim::Pid p) {
    const sim::Pid leader = rig.omega.io(p).leader;
    if (leader != last_leader[p]) {
      ++leader_changes;
      last_leader[p] = leader;
    }
  });
  const TracedWindow window =
      run_traced(twin.w, trace, options.run_steps, kSoakSlice);
  rig.svc->finish(rig.w.now());
  const soak::ServiceStats stats = rig.svc->stats();
  const auto& avail = rig.svc->availability();
  for (ServiceRig* r : {&twin, &rig}) {
    out.check(r->w.trace().digest() == reference.trace_digest &&
                  r->svc->stats().completed == reference.stats.completed &&
                  r->svc->state_value() == reference.state_value,
              "trace: the assembled service does not reproduce run_sim_soak");
  }
  const double requests = static_cast<double>(stats.completed);
  std::map<std::string, double> m;
  common_layer_metrics(m, trace, requests,
                       rig.w.total_read_aborts() + rig.w.total_write_aborts());
  m["omega.leader_changes"] = static_cast<double>(leader_changes);
  m["soak.route_steps_p50"] = hist_quantile(stats.route, 0.50);
  m["soak.ack_steps_p50"] = hist_quantile(stats.ack, 0.50);
  m["soak.svc_accesses_per_request"] = per(
      static_cast<double>(trace.totals().accesses(RegFamily::kService)),
      requests);
  m["soak.outage_windows"] = static_cast<double>(avail.windows().size());
  m["soak.unavailable_steps"] =
      static_cast<double>(avail.total_unavailable());
  finish_trace(out, cfg, trace, window, m);
  return out;
}

}  // namespace perfbench
