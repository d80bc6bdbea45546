// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload auth_mixed|enroll --seed N
//             --seconds S --trace 0|1 [--workdir DIR] [--smoke]
//
// Detail lines start with "# "; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}.  Exits 1 when
// a correctness check failed, 2 on bad arguments or an error.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--workload" && has_value) {
        options.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        options.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        options.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        options.trace = std::stoi(argv[++i]) != 0;
      } else if (arg == "--workdir" && has_value) {
        options.workdir = argv[++i];
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (options.workload.empty() || !(options.seconds > 0.0)) return usage();

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }

  std::string attribution = "{";
  for (std::size_t i = 0; i < result.attribution.size(); ++i) {
    attribution += (i ? ", \"" : "\"") + result.attribution[i].first +
                   "\": \"" + json_escape(result.attribution[i].second) + "\"";
  }
  std::printf("# attribution %s}\n", attribution.c_str());
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const perfbench::Metric& m : result.quality) {
    std::printf("# quality %s = %s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("# metric %s = %s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }

  std::string metrics;
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    metrics += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
