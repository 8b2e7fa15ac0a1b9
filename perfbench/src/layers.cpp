#include "layers.hpp"

#include <cstdio>
#include <fstream>
#include <set>

namespace perfbench {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

RegFamily family_of(const std::string& name) {
  if (starts_with(name, "QaReg[")) return RegFamily::kQaRecord;
  if (starts_with(name, "QaAnn[")) return RegFamily::kQaAnnounce;
  if (starts_with(name, "MsgRegister[")) return RegFamily::kMsg;
  if (starts_with(name, "HbRegister")) return RegFamily::kHbChannel;
  if (starts_with(name, "CounterRegister[")) return RegFamily::kCounter;
  if (starts_with(name, "Hb[")) return RegFamily::kMonitorHb;
  if (starts_with(name, "Svc")) return RegFamily::kService;
  return RegFamily::kOther;
}

const char* to_string(RegFamily family) {
  switch (family) {
    case RegFamily::kQaRecord: return "qa.record";
    case RegFamily::kQaAnnounce: return "qa.announce";
    case RegFamily::kMsg: return "omega.msg";
    case RegFamily::kHbChannel: return "omega.hb";
    case RegFamily::kCounter: return "omega.counter";
    case RegFamily::kMonitorHb: return "monitor.hb";
    case RegFamily::kService: return "soak.svc";
    case RegFamily::kOther: return "other";
    case RegFamily::kCount: break;
  }
  return "local";
}

std::uint64_t LayerTrace::Counts::accesses() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kFamilies; ++i) sum += reads[i] + writes[i];
  return sum;
}

LayerTrace::LayerTrace(sim::World& world, StepHook hook)
    : world_(world), hook_(std::move(hook)) {
  world_.add_step_observer([this](sim::Step, sim::Pid p) { observe(p); });
}

RegFamily LayerTrace::family(std::uint32_t reg) {
  while (families_.size() <= reg) {
    families_.push_back(family_of(
        world_.cell_info(static_cast<std::uint32_t>(families_.size())).name));
  }
  return families_[reg];
}

void LayerTrace::observe(sim::Pid p) {
  step_family_ = RegFamily::kCount;
  if (!active_) return;
  bool completed = false;
  for (const auto& access : world_.last_step_accesses()) {
    const RegFamily f = family(access.reg);
    if (!access.invocation) {
      const auto i = static_cast<std::size_t>(f);
      (access.write ? totals_.writes : totals_.reads)[i]++;
      // The code resumed by a response belongs to the layer that
      // awaited it; that layer is charged for the step.
      step_family_ = f;
      completed = true;
    } else if (!completed) {
      step_family_ = f;
    }
  }
  if (hook_) hook_(p);
}

void LayerTrace::start() {
  active_ = true;
  base_accesses_ = world_.total_reads() + world_.total_writes();
  t_start_ = now_ns();
}

void LayerTrace::run_slice(sim::Step steps) {
  const Counts before = totals_;
  Slice slice;
  slice.t0 = now_ns();
  for (sim::Step i = 0; i < steps; ++i) {
    const std::uint64_t t0 = now_ns();
    if (!world_.step()) break;
    const std::uint64_t dt = now_ns() - t0;
    ++totals_.steps;
    totals_.step_ns += dt;
    if (step_family_ == RegFamily::kCount) {
      ++totals_.local_steps;
      totals_.local_ns += dt;
    } else {
      totals_.ns[static_cast<std::size_t>(step_family_)] += dt;
    }
  }
  slice.t1 = now_ns();
  for (std::size_t i = 0; i < kFamilies; ++i) {
    slice.delta.reads[i] = totals_.reads[i] - before.reads[i];
    slice.delta.writes[i] = totals_.writes[i] - before.writes[i];
    slice.delta.ns[i] = totals_.ns[i] - before.ns[i];
  }
  slice.delta.steps = totals_.steps - before.steps;
  slice.delta.local_steps = totals_.local_steps - before.local_steps;
  slice.delta.local_ns = totals_.local_ns - before.local_ns;
  slice.delta.step_ns = totals_.step_ns - before.step_ns;
  slices_.push_back(slice);
}

std::uint64_t LayerTrace::world_accesses() const {
  return world_.total_reads() + world_.total_writes() - base_accesses_;
}

bool LayerTrace::write_json(const std::string& path,
                            const std::string& run_name,
                            const std::map<std::string, double>& extra,
                            const std::string& provenance) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto us = [this](std::uint64_t t) {
    return static_cast<double>(t - t_start_) / 1000.0;
  };
  const std::uint64_t t_end = slices_.empty() ? t_start_ : slices_.back().t1;
  out << "{\"metadata\":" << (provenance.empty() ? "{}" : provenance)
      << ",\n\"traceEvents\":[\n";
  // The run span; every slice span is its child (same pid/tid, nested
  // in time), and each slice's args split its time and accesses by
  // layer: a layer's self time is its ns, "local" is the remainder.
  out << "{\"name\":\"" << run_name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":"
      << us(t_end) << ",\"args\":{";
  bool first = true;
  for (const auto& [k, v] : extra) {
    out << (first ? "" : ",") << "\"" << k << "\":" << v;
    first = false;
  }
  out << "}}";
  std::size_t index = 0;
  for (const auto& s : slices_) {
    out << ",\n{\"name\":\"slice " << index++
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.t0)
        << ",\"dur\":" << static_cast<double>(s.t1 - s.t0) / 1000.0
        << ",\"args\":{\"steps\":" << s.delta.steps
        << ",\"local.steps\":" << s.delta.local_steps
        << ",\"local.ns\":" << s.delta.local_ns;
    for (std::size_t i = 0; i < kFamilies; ++i) {
      const char* f = to_string(static_cast<RegFamily>(i));
      out << ",\"" << f << ".accesses\":"
          << s.delta.reads[i] + s.delta.writes[i] << ",\"" << f
          << ".ns\":" << s.delta.ns[i];
    }
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

const std::vector<LayerMetricSpec>& layer_metric_specs() {
  static const std::vector<LayerMetricSpec> specs = {
      {"sim.ns_per_step", "ns"},
      {"sim.local_steps_per_op", "steps/op"},
      {"registers.accesses_per_op", "accesses/op"},
      {"registers.aborts_per_op", "aborts/op"},
      {"registers.ns_per_access", "ns"},
      {"monitor.hb_accesses_per_mstep", "accesses/Mstep"},
      {"omega.counter_reads_per_mstep", "reads/Mstep"},
      {"omega.msg_accesses_per_op", "accesses/op"},
      {"omega.hb_accesses_per_op", "accesses/op"},
      {"omega.ns_share", "fraction"},
      {"omega.leader_changes", "count"},
      {"qa.publishes_per_op", "writes/op"},
      {"qa.reg_accesses_per_op", "accesses/op"},
      {"qa.shared_writes_per_op", "writes/op"},
      {"qa.ops_per_combine", "ops/combine"},
      {"qa.fast_path_share", "fraction"},
      {"qa.ns_per_op", "ns"},
      {"core.leader_wait_steps_per_op", "steps/op"},
      {"core.leading_steps_per_op", "steps/op"},
      {"soak.route_steps_p50", "steps"},
      {"soak.ack_steps_p50", "steps"},
      {"soak.svc_accesses_per_request", "accesses/req"},
      {"soak.outage_windows", "count"},
      {"soak.unavailable_steps", "steps"},
      {"rt.lease_cycle_ns", "ns"},
      {"rt.qa_invoke_ns", "ns"},
      {"rt.abortable_access_ns", "ns"},
      {"rt.tbwf_invoke_ns", "ns"},
  };
  return specs;
}

void emit_layer_metrics(Outcome& out,
                        const std::map<std::string, double>& measured) {
  std::set<std::string> known;
  for (const auto& spec : layer_metric_specs()) {
    known.insert(spec.name);
    const auto it = measured.find(spec.name);
    out.add(spec.name, it == measured.end() ? 0.0 : it->second, spec.unit);
  }
  for (const auto& [name, value] : measured) {
    out.check(known.count(name) == 1,
              "trace: per-layer metric " + name + " is not declared");
  }
}

}  // namespace perfbench
