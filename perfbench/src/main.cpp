// perfbench: one named workload per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--provenance <json>]
//   perfbench --self-test
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones. Exits 1 if any output check failed, 2 on bad usage or an error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {
const std::uint64_t kProcessStart = now_ns();
}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since_start() {
  return static_cast<double>(now_ns() - kProcessStart) / 1e9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

void SliceTimer::end(double units) {
  const std::uint64_t ns = now_ns() - t0_;
  if (ns == 0) return;
  best_rate_ = std::max(best_rate_, units * 1e9 / static_cast<double>(ns));
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + (k + 1) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const auto& m : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", json_escape(m.name).c_str(), m.value,
                json_escape(m.unit).c_str());
    first = false;
  }
  std::printf("}}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<tbwf_degrading|batched_queue|leader_service> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--provenance <json>]\n       perfbench --self-test\n",
               why);
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(cfg.seconds > 0 && cfg.seconds <= 120)) {
        return usage("--seconds takes a number in (0, 120]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      cfg.trace = value == "1";
    } else if (arg == "--trace-out") {
      cfg.trace_out = value;
    } else if (arg == "--provenance") {
      cfg.provenance = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }

  try {
    Outcome out;
    if (self_test) {
      out = run_self_test();
    } else {
      if (!cfg.provenance.empty()) {
        std::printf("provenance: %s\n", cfg.provenance.c_str());
      }
      std::printf("build: %s, %s\n", PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
      if (cfg.workload == "tbwf_degrading") {
        out = run_tbwf_degrading(cfg);
      } else if (cfg.workload == "batched_queue") {
        out = run_batched_queue(cfg);
      } else if (cfg.workload == "leader_service") {
        out = run_leader_service(cfg);
      } else {
        return usage(("unknown workload '" + cfg.workload + "'").c_str());
      }
    }
    for (const auto& m : out.metrics) {
      out.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
    }
    for (const auto& m : out.metrics) {
      std::printf("%-32s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    for (const auto& p : out.problems) std::printf("CHECK FAILED: %s\n", p.c_str());
    std::fflush(stdout);
    print_result(out);
    return out.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
