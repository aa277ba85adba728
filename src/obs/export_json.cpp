#include "obs/export_json.hpp"

#include <cstdio>

namespace abc::obs {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

void append_trace(std::string& out, const Trace& t) {
  out += "{\"request_id\":" + std::to_string(t.request_id);
  out += ",\"tenant\":" + std::to_string(t.tenant);
  out += ",\"op\":" + std::to_string(t.op);
  out += ",\"admit_ns\":" + std::to_string(t.admit_ns);
  out += ",\"dequeue_ns\":" + std::to_string(t.dequeue_ns);
  out += ",\"engine_start_ns\":" + std::to_string(t.engine_start_ns);
  out += ",\"engine_end_ns\":" + std::to_string(t.engine_end_ns);
  out += ",\"respond_ns\":" + std::to_string(t.respond_ns);
  out += ",\"queue_wait_ns\":" + std::to_string(t.queue_wait_ns());
  out += ",\"total_ns\":" + std::to_string(t.total_ns());
  out += ",\"ks_decompositions\":" + std::to_string(t.ks_decompositions);
  out += ",\"ks_accumulations\":" + std::to_string(t.ks_accumulations);
  out += ",\"ks_hoist_reuses\":" + std::to_string(t.ks_hoist_reuses);
  out += '}';
}

void append_traces(std::string& out, const std::vector<Trace>& traces) {
  out += '[';
  bool first = true;
  for (const Trace& t : traces) {
    if (!first) out += ',';
    first = false;
    append_trace(out, t);
  }
  out += ']';
}

}  // namespace

std::string stats_json(const MetricsSnapshot& snap, const TraceRing* traces) {
  std::string out;
  out.reserve(4096);
  out += "{\"metrics_enabled\":";
  out += kMetricsEnabled ? "true" : "false";

  out += ",\"counters\":{";
  bool first = true;
  for (const CounterValue& c : snap.counters) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, c.name);
    out += ':' + std::to_string(c.value);
  }
  out += '}';

  out += ",\"gauges\":{";
  first = true;
  for (const GaugeValue& g : snap.gauges) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, g.name);
    out += ':' + std::to_string(g.value);
  }
  out += '}';

  out += ",\"histograms\":{";
  first = true;
  for (const HistogramValue& h : snap.histograms) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, h.name);
    out += ":{\"count\":" + std::to_string(h.count);
    out += ",\"sum\":" + std::to_string(h.sum);
    out += ",\"p50\":";
    append_double(out, h.quantile(0.50));
    out += ",\"p95\":";
    append_double(out, h.quantile(0.95));
    out += ",\"p99\":";
    append_double(out, h.quantile(0.99));
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < kHistBuckets; ++i) {
      if (i != 0) out += ',';
      out += std::to_string(h.buckets[i]);
    }
    out += "]}";
  }
  out += '}';

  out += ",\"histogram_layout\":{\"buckets\":" + std::to_string(kHistBuckets);
  out += ",\"lower_bounds\":[";
  for (std::size_t i = 0; i < kHistBuckets; ++i) {
    if (i != 0) out += ',';
    out += std::to_string(hist_bucket_lower(i));
  }
  out += "]}";

  if (traces != nullptr) {
    out += ",\"traces\":{\"slow_threshold_ns\":" +
           std::to_string(traces->slow_threshold_ns());
    out += ",\"slow_count\":" + std::to_string(traces->slow_count());
    out += ",\"recent\":";
    append_traces(out, traces->recent());
    out += ",\"slow\":";
    append_traces(out, traces->slow());
    out += '}';
  }

  out += '}';
  return out;
}

}  // namespace abc::obs
