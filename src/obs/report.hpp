// Structured run reports: a machine-readable JSON artifact (BENCH_*.json
// and friends) replacing free-text bench output, so perf figures can be
// tracked across commits.  A report is an ordered JSON object with a
// fixed envelope:
//
//   {
//     "schema": "p2auth.report.v1",
//     "name": "<report name>",
//     "values": { ... },            // set()
//     "tables": { ... },            // add_table()
//     "metrics": { ... }            // attach_metrics()
//   }
//
// Sections appear only when populated; everything is deterministic given
// the same inputs (no timestamps unless the caller adds one).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace p2auth::util {
class Table;
}  // namespace p2auth::util

namespace p2auth::obs {

class Report {
 public:
  explicit Report(std::string name);

  const std::string& name() const noexcept { return name_; }

  // Full access to the document for callers with bespoke structure.
  Json& root() noexcept { return root_; }

  // Sets a scalar (or prebuilt Json) under "values".
  Report& set(const std::string& key, Json value);

  // Embeds a rendered util::Table under "tables" as
  // {"columns": [...], "rows": [[...], ...]} (cells are the table's
  // formatted strings).
  Report& add_table(const std::string& key, const util::Table& table);

  // Embeds a metrics snapshot: counters and gauges verbatim, histograms
  // (every span's among them) as {count, mean_us, min_us, max_us,
  // p50_us, p95_us, p99_us}.
  Report& attach_metrics(const MetricsSnapshot& metrics);

  void write(std::ostream& os) const;
  // Throws std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;
  std::string to_json(int indent = 2) const;

 private:
  // Returns the named top-level section, creating it on first use.
  Json& section(const std::string& key);

  std::string name_;
  Json root_;
};

}  // namespace p2auth::obs
