#include "obs/prometheus.hpp"

#include <cctype>
#include <cmath>
#include <ostream>
#include <sstream>

namespace p2auth::obs {
namespace {

// Prometheus floats: integral values print without a decimal point,
// everything else with enough digits to round-trip; non-finite values
// use the exposition-format spellings.
void write_value(std::ostream& os, double value) {
  if (std::isnan(value)) {
    os << "NaN";
    return;
  }
  if (std::isinf(value)) {
    os << (value > 0 ? "+Inf" : "-Inf");
    return;
  }
  if (value == static_cast<double>(static_cast<std::int64_t>(value)) &&
      std::fabs(value) < 1e15) {
    os << static_cast<std::int64_t>(value);
    return;
  }
  std::ostringstream tmp;
  tmp.precision(17);
  tmp << value;
  os << tmp.str();
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out = "p2auth_";
  if (!name.empty() &&
      std::isdigit(static_cast<unsigned char>(name.front()))) {
    out.push_back('_');
  }
  for (char c : name) {
    const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_';
    out.push_back(legal ? c : '_');
  }
  return out;
}

void write_prometheus_text(std::ostream& os,
                           const MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    const std::string mangled = prometheus_name(name) + "_total";
    os << "# TYPE " << mangled << " counter\n";
    os << mangled << " " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string mangled = prometheus_name(name);
    os << "# TYPE " << mangled << " gauge\n";
    os << mangled << " ";
    write_value(os, value);
    os << "\n";
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    // Histograms observe microseconds; a name that already says so
    // (pool.task_us) keeps a single unit suffix.
    std::string mangled = prometheus_name(name);
    if (!mangled.ends_with("_us")) mangled += "_us";
    os << "# TYPE " << mangled << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kHistogramBoundsUs.size(); ++i) {
      cumulative += hist.buckets[i];
      os << mangled << "_bucket{le=\"";
      write_value(os, kHistogramBoundsUs[i]);
      os << "\"} " << cumulative << "\n";
    }
    cumulative += hist.buckets[kHistogramBoundsUs.size()];
    os << mangled << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
    os << mangled << "_sum ";
    write_value(os, hist.sum_us);
    os << "\n";
    os << mangled << "_count " << hist.count << "\n";
  }
}

std::string prometheus_text(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  write_prometheus_text(os, snapshot);
  return os.str();
}

}  // namespace p2auth::obs
