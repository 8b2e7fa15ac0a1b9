// Layer attribution for the traced run, from outside the program.
//
// The world is built with WorldOptions::track_accesses, so every step
// leaves the register accesses it made in World::last_step_accesses().
// A step observer assigns each access to a layer by its register's name
// (QaReg/QaAnn: qa; MsgRegister, HbRegister, CounterRegister: omega;
// Hb: monitor; Svc*: soak), and LayerTrace::run_slice() times each
// World::step() and charges the step's time to the layer whose access it
// completed (or opened), or to "local" when it touched no register. Counts and
// times are kept per slice in memory and written out at the end as
// Chrome trace-event JSON.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sim/world.hpp"

namespace perfbench {

namespace sim = tbwf::sim;

/// Register families, told apart by register name.
enum class RegFamily : std::uint8_t {
  kQaRecord,   ///< QaReg[p]: the QA slot round's records
  kQaAnnounce, ///< QaAnn[p]: the batched engine's announce cells
  kMsg,        ///< MsgRegister[p,q]: Figure 4 message channels
  kHbChannel,  ///< HbRegister{1,2}[p,q]: Figure 5 heartbeat channels
  kCounter,    ///< CounterRegister[p]: Figure 3 counters
  kMonitorHb,  ///< Hb[q,p]: activity-monitor heartbeats
  kService,    ///< Svc*: the leader service's registers
  kOther,
  kCount,
};

inline constexpr std::size_t kFamilies =
    static_cast<std::size_t>(RegFamily::kCount);

RegFamily family_of(const std::string& register_name);
const char* to_string(RegFamily family);

class LayerTrace {
 public:
  /// Called from the step observer, while active, with the stepping pid.
  using StepHook = std::function<void(sim::Pid)>;

  /// `world` must have been built with track_accesses on.
  explicit LayerTrace(sim::World& world, StepHook hook = nullptr);
  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  /// Start counting; also snapshots the world's access totals.
  void start();
  /// Run `steps` timed steps as one slice.
  void run_slice(sim::Step steps);

  struct Counts {
    std::array<std::uint64_t, kFamilies> reads{};
    std::array<std::uint64_t, kFamilies> writes{};
    std::array<std::uint64_t, kFamilies> ns{};  ///< step time charged
    std::uint64_t steps = 0;
    std::uint64_t local_steps = 0;  ///< steps touching no register
    std::uint64_t local_ns = 0;
    std::uint64_t step_ns = 0;  ///< sum of timed World::step() calls

    std::uint64_t accesses(RegFamily f) const {
      const auto i = static_cast<std::size_t>(f);
      return reads[i] + writes[i];
    }
    std::uint64_t accesses() const;
    std::uint64_t ns_of(RegFamily f) const {
      return ns[static_cast<std::size_t>(f)];
    }
  };

  const Counts& totals() const { return totals_; }
  /// Completed register operations the world itself counted since
  /// start(): World::total_reads() + total_writes().
  std::uint64_t world_accesses() const;
  /// Write the slices as Chrome trace-event JSON; `extra` lands in the
  /// run span's args, `provenance` (a JSON object, may be empty) in the
  /// file's metadata. Returns false if the file cannot be written.
  bool write_json(const std::string& path, const std::string& run_name,
                  const std::map<std::string, double>& extra,
                  const std::string& provenance) const;

 private:
  void observe(sim::Pid p);
  RegFamily family(std::uint32_t reg);

  sim::World& world_;
  StepHook hook_;
  bool active_ = false;
  std::vector<RegFamily> families_;
  /// Family charged with the current step's time (kCount = local).
  RegFamily step_family_ = RegFamily::kCount;
  std::uint64_t base_accesses_ = 0;
  std::uint64_t t_start_ = 0;
  Counts totals_;
  struct Slice {
    std::uint64_t t0 = 0, t1 = 0;
    Counts delta;
  };
  std::vector<Slice> slices_;
};

/// The per-layer metrics every traced run prints, in order, with units.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricSpec>& layer_metric_specs();

/// Emit every per-layer metric: the measured ones, and 0 for a layer the
/// workload leaves idle. Unknown names in `measured` fail the run.
void emit_layer_metrics(Outcome& out,
                        const std::map<std::string, double>& measured);

/// The rt layer's primitives timed in isolation on one thread (rt.*
/// metrics), spending about seconds / 10 on each (rt_probes.cpp).
void rt_layer_probes(std::map<std::string, double>& m, double seconds,
                     Outcome& out);

/// Per-op / per-Mstep ratio helpers (0 when the base is 0).
inline double per(double count, double base) {
  return base > 0 ? count / base : 0.0;
}

}  // namespace perfbench
