#include "obs/report.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "util/table.hpp"

namespace p2auth::obs {

Report::Report(std::string name)
    : name_(std::move(name)), root_(Json::object()) {
  root_.set("schema", "p2auth.report.v1");
  root_.set("name", name_);
}

Json& Report::section(const std::string& key) {
  if (Json* existing = const_cast<Json*>(root_.find(key))) {
    return *existing;
  }
  return root_.set(key, Json::object());
}

Report& Report::set(const std::string& key, Json value) {
  section("values").set(key, std::move(value));
  return *this;
}

Report& Report::add_table(const std::string& key, const util::Table& table) {
  Json doc = Json::object();
  Json columns = Json::array();
  for (const std::string& c : table.header()) columns.push(c);
  doc.set("columns", std::move(columns));
  Json rows = Json::array();
  for (const std::vector<std::string>& row : table.rows()) {
    Json cells = Json::array();
    for (const std::string& cell : row) cells.push(cell);
    rows.push(std::move(cells));
  }
  doc.set("rows", std::move(rows));
  section("tables").set(key, std::move(doc));
  return *this;
}

Report& Report::attach_metrics(const MetricsSnapshot& metrics) {
  Json doc = Json::object();
  Json counters = Json::object();
  for (const auto& [name, value] : metrics.counters) {
    counters.set(name, value);
  }
  doc.set("counters", std::move(counters));
  Json gauges = Json::object();
  for (const auto& [name, value] : metrics.gauges) {
    gauges.set(name, value);
  }
  doc.set("gauges", std::move(gauges));
  Json histograms = Json::object();
  for (const auto& [name, h] : metrics.histograms) {
    Json entry = Json::object();
    entry.set("count", h.count);
    entry.set("mean_us", h.mean_us());
    entry.set("min_us", h.min_us);
    entry.set("max_us", h.max_us);
    entry.set("p50_us", h.p50_us());
    entry.set("p95_us", h.p95_us());
    entry.set("p99_us", h.p99_us());
    histograms.set(name, std::move(entry));
  }
  doc.set("histograms", std::move(histograms));
  root_.set("metrics", std::move(doc));
  return *this;
}

void Report::write(std::ostream& os) const {
  root_.dump(os, 2);
  os << '\n';
}

void Report::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("Report::write_file: cannot open " + path);
  }
  write(os);
  if (!os) {
    throw std::runtime_error("Report::write_file: write failed: " + path);
  }
}

std::string Report::to_json(int indent) const {
  return root_.dump_string(indent) + "\n";
}

}  // namespace p2auth::obs
