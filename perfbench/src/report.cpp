#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace perfbench {

std::size_t tail_rank(std::size_t samples) {
  if (samples == 0) return 0;
  if (samples <= kTailBeyond) return samples - 1;
  const auto capped = static_cast<std::size_t>(
      std::floor(kTailCap * static_cast<double>(samples - 1)));
  return std::min(samples - kTailBeyond - 1, capped);
}

namespace {

Tail tail_at(std::size_t samples, double value) {
  Tail t;
  t.samples = samples;
  t.value = value;
  t.supported = samples > kTailBeyond;
  t.percentile = samples == 0 ? 0
                              : 100.0 *
                                    static_cast<double>(tail_rank(samples) + 1) /
                                    static_cast<double>(samples);
  return t;
}

}  // namespace

double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median_of(std::vector<double> v) {
  return quantile_of(std::move(v), 0.5);
}

double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

Tail tail_of(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  return tail_at(v.size(), v[tail_rank(v.size())]);
}

const std::vector<MetricDef> kEndToEndMetrics = {
    {"seeds_per_s", "1/s"},
    {"deal_latency_ms_iqm", "ms"},
    {"deal_latency_ms_tail", "ms"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

const std::vector<MetricDef> kPerLayerMetrics = {
    {"exp.seed_us_p50", "us"},
    {"exp.seed_us_p99", "us"},
    {"exp.pool_busy_frac", "frac"},
    {"proto.run_us.universal", "us"},
    {"proto.run_us.time-bounded", "us"},
    {"proto.run_us.atomic", "us"},
    {"proto.run_us.weak-trusted", "us"},
    {"proto.run_us.weak-contract", "us"},
    {"proto.run_us.weak-committee", "us"},
    {"sim.events_per_seed", "count"},
    {"sim.events_per_s", "1/s"},
    {"net.msgs_per_seed", "count"},
    {"net.drops_per_seed", "count"},
    {"props.check_us", "us"},
    {"props.trace_events_per_seed", "count"},
    {"props.early_stop_frac", "frac"},
    {"crypto.make_keys_us", "us"},
    {"crypto.verify_quorum_us", "us"},
    {"consensus.sim_reference_us", "us"},
    {"consensus.cert_signers", "count"},
    {"consensus.decision_ms_p25", "ms"},
    {"net.client_dial_ms", "ms"},
    {"net.dialback_ms", "ms"},
    {"net.first_cert_ms", "ms"},
    {"net.frames", "count"},
    {"net.dial_attempts", "count"},
    {"net.reconnects", "count"},
    {"net.sends_dropped", "count"},
    {"wire.cert_bytes", "B"},
    {"wire.cert_roundtrip_us", "us"},
    {"wal.append_us", "us"},
    {"wal.open_us", "us"},
    {"wal.records_per_notary", "count"},
    {"wal.bytes_per_notary", "B"},
    {"proc.spawn_ms", "ms"},
    {"proc.notary_exit_nonzero", "count"},
    {"trace.overhead_pct", "%"},
};

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  return 0;
}

void Result::add_all(const std::vector<MetricDef>& defs,
                     const MetricValues& values) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const MetricDef& d : defs) known = known || name == d.name;
    if (!known) throw std::logic_error("unlisted metric " + name);
  }
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    metrics_.push_back({d.name, it == values.end() ? 0.0 : it->second, d.unit});
  }
}

void Result::print(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
  for (const Metric& m : metrics_) {
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // %.17g keeps every digit of the measured double.
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
