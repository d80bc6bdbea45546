// Command-line experiment runner: evaluate the P2Auth pipeline under an
// arbitrary configuration without writing code.
//
//   run_experiment [--users N] [--case one|double3|double2]
//                  [--channels 1..4] [--rate HZ] [--boost] [--no-pin]
//                  [--third-party N] [--enroll N] [--test N]
//                  [--wearing inner|back] [--activity static|walking]
//                  [--seed S] [--report PATH] [--trace PATH]
//                  [--audit-log PATH] [--prometheus PATH] [--drift]
//                  [--scenario NAME] [--week N]
//
// --scenario applies a named daily-life condition to every *test*
// attempt (see sim/scenarios.hpp: rest, elevated, recovering, walking,
// typing-move, gain-shift, loose-strap); --week ages the test-time
// physiology N weeks past enrollment (template-aging sweeps).
//
// Prints per-user and mean accuracy / TRR for the configuration, i.e. a
// custom row of the paper's Fig. 10-style tables.  A machine-readable
// run report (results + pipeline metrics, one histogram per span) is
// written to --report (default run_experiment_report.json); --trace
// additionally dumps the full span timeline in Chrome trace-event format
// (load it in chrome://tracing or https://ui.perfetto.dev).
//
// Observability extras: --audit-log records every authentication
// decision into a CRC-framed flight-recorder log (inspect it with
// tools/audit_inspect), --prometheus writes the final metrics snapshot
// in Prometheus text exposition format, and --drift runs the online
// FRR/FAR drift monitor against the enrollment baselines and embeds its
// verdict (live estimates + typed alerts) in the run report.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "backend/policy.hpp"
#include "core/evaluation.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

using namespace p2auth;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--users N] [--case one|double3|double2] "
               "[--channels 1..4]\n"
               "          [--rate HZ] [--boost] [--no-pin] "
               "[--third-party N]\n"
               "          [--enroll N] [--test N] [--wearing inner|back] "
               "[--seed S]\n"
               "          [--activity static|walking] [--report PATH] "
               "[--trace PATH]\n"
               "          [--audit-log PATH] [--prometheus PATH] "
               "[--drift]\n"
               "          [--scenario NAME] [--week N]\n",
               argv0);
  std::exit(2);
}

long parse_long(const char* argv0, const char* value) {
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') usage(argv0);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentConfig cfg;
  cfg.seed = 1;
  std::string report_path = "run_experiment_report.json";
  std::string trace_path;
  std::string audit_path;
  std::string prometheus_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--users") {
      cfg.population.num_users = static_cast<std::size_t>(
          parse_long(argv[0], next()));
    } else if (arg == "--case") {
      const std::string c = next();
      if (c == "one") {
        cfg.test_case = keystroke::InputCase::kOneHanded;
      } else if (c == "double3") {
        cfg.test_case = keystroke::InputCase::kTwoHandedThree;
      } else if (c == "double2") {
        cfg.test_case = keystroke::InputCase::kTwoHandedTwo;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--channels") {
      cfg.sensors = ppg::SensorConfig::with_channels(
          static_cast<std::size_t>(parse_long(argv[0], next())));
    } else if (arg == "--rate") {
      cfg.sensors.rate_hz = static_cast<double>(parse_long(argv[0], next()));
    } else if (arg == "--boost") {
      cfg.privacy_boost = true;
    } else if (arg == "--no-pin") {
      cfg.no_pin = true;
      cfg.enroll_entries = 18;
    } else if (arg == "--third-party") {
      cfg.third_party_samples =
          static_cast<std::size_t>(parse_long(argv[0], next()));
    } else if (arg == "--enroll") {
      cfg.enroll_entries =
          static_cast<std::size_t>(parse_long(argv[0], next()));
    } else if (arg == "--test") {
      cfg.test_entries =
          static_cast<std::size_t>(parse_long(argv[0], next()));
    } else if (arg == "--wearing") {
      const std::string w = next();
      if (w == "inner") {
        cfg.wearing = ppg::WearingPosition::kInnerWrist;
      } else if (w == "back") {
        cfg.wearing = ppg::WearingPosition::kBackOfWrist;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(parse_long(argv[0], next()));
    } else if (arg == "--activity") {
      const std::string a = next();
      if (a == "static") {
        cfg.test_activity = ppg::ActivityState::kStatic;
      } else if (a == "walking") {
        cfg.test_activity = ppg::ActivityState::kWalking;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--report") {
      report_path = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--audit-log") {
      audit_path = next();
    } else if (arg == "--prometheus") {
      prometheus_path = next();
    } else if (arg == "--drift") {
      cfg.monitor_drift = true;
    } else if (arg == "--scenario") {
      const std::string name = next();
      const auto scenario = sim::scenario_by_name(name);
      if (!scenario) {
        std::fprintf(stderr,
                     "unknown scenario '%s' (rest, elevated, recovering, "
                     "walking, typing-move, gain-shift, loose-strap)\n",
                     name.c_str());
        usage(argv[0]);
      }
      // Preserve a week set by an earlier --week (order-independent).
      const std::size_t week = cfg.test_scenario.week;
      cfg.test_scenario = *scenario;
      cfg.test_scenario.week = week;
    } else if (arg == "--week") {
      cfg.test_scenario.week =
          static_cast<std::size_t>(parse_long(argv[0], next()));
    } else {
      usage(argv[0]);
    }
  }

  std::printf("Running: %zu users, %zu channels @ %.0f Hz, enroll %zu / "
              "test %zu, third-party %zu%s%s\n\n",
              cfg.population.num_users, cfg.sensors.channels.size(),
              cfg.sensors.rate_hz, cfg.enroll_entries, cfg.test_entries,
              cfg.third_party_samples, cfg.privacy_boost ? ", boost" : "",
              cfg.no_pin ? ", no-PIN" : "");

  // Flight recorder: every authentication decision of the sweep lands in
  // the audit log; uninstalled before destruction (see obs/audit.hpp).
  std::unique_ptr<obs::AuditRecorder> recorder;
  if (!audit_path.empty()) {
    try {
      recorder = std::make_unique<obs::AuditRecorder>(audit_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    obs::install_audit_recorder(recorder.get());
  }

  const core::ExperimentResult result = run_experiment(cfg);

  if (recorder) {
    obs::install_audit_recorder(nullptr);
    recorder->flush();
    const obs::AuditStats stats = recorder->stats();
    std::printf("audit log: %llu decisions (%llu dropped) -> %s\n",
                static_cast<unsigned long long>(stats.written),
                static_cast<unsigned long long>(stats.dropped),
                audit_path.c_str());
  }
  util::Table table(
      {"user", "accuracy", "TRR (random)", "TRR (emulating)"});
  for (const auto& u : result.per_user) {
    table.begin_row()
        .cell("user" + std::to_string(u.user_id))
        .cell(100.0 * u.metrics.accuracy(), 1)
        .cell(100.0 * u.metrics.trr_random(), 1)
        .cell(100.0 * u.metrics.trr_emulating(), 1);
  }
  table.begin_row()
      .cell("mean")
      .cell(100.0 * result.mean_accuracy(), 1)
      .cell(100.0 * result.mean_trr_random(), 1)
      .cell(100.0 * result.mean_trr_emulating(), 1);
  table.print(std::cout, "Results (%)");

  // Structured run report: configuration, headline results and the
  // pipeline metrics collected during the run (one histogram per span).
  obs::Report report("run_experiment");
  obs::Json config = obs::Json::object();
  config.set("users", static_cast<std::uint64_t>(cfg.population.num_users));
  config.set("channels",
             static_cast<std::uint64_t>(cfg.sensors.channels.size()));
  config.set("rate_hz", cfg.sensors.rate_hz);
  config.set("enroll_entries", static_cast<std::uint64_t>(cfg.enroll_entries));
  config.set("test_entries", static_cast<std::uint64_t>(cfg.test_entries));
  config.set("third_party_samples",
             static_cast<std::uint64_t>(cfg.third_party_samples));
  config.set("privacy_boost", cfg.privacy_boost);
  config.set("no_pin", cfg.no_pin);
  config.set("seed", static_cast<std::uint64_t>(cfg.seed));
  report.root().set("config", std::move(config));
  // SIMD backend the hot kernels dispatched to for this run.
  report.set("backend",
             std::string(p2auth::backend::kernels().name));
  report.set("mean_accuracy", result.mean_accuracy());
  report.set("mean_trr_random", result.mean_trr_random());
  report.set("mean_trr_emulating", result.mean_trr_emulating());
  report.add_table("per_user", table);
  if (result.drift.has_value()) {
    report.root().set("drift", result.drift->summary());
    const auto alerts = result.drift->check();
    std::printf("\ndrift monitor: est. FRR %.3f, est. FAR %.3f, "
                "%zu alert(s)\n",
                result.drift->estimated_frr(),
                result.drift->estimated_far(), alerts.size());
    for (const auto& alert : alerts) {
      std::printf("  [%s] %s\n", obs::drift_alert_slug(alert.kind),
                  alert.detail.c_str());
    }
  }
  report.attach_metrics(obs::snapshot_metrics());
  if (!prometheus_path.empty()) {
    std::ofstream prom(prometheus_path);
    if (!prom) {
      std::fprintf(stderr, "error: cannot open %s\n",
                   prometheus_path.c_str());
      return 1;
    }
    obs::write_prometheus_text(prom, obs::snapshot_metrics());
    std::printf("prometheus metrics written to %s\n",
                prometheus_path.c_str());
  }
  try {
    report.write_file(report_path);
    std::printf("\nrun report written to %s\n", report_path.c_str());
    if (!trace_path.empty()) {
      obs::write_chrome_trace_file(trace_path);
      std::printf("chrome trace written to %s (open in chrome://tracing)\n",
                  trace_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
