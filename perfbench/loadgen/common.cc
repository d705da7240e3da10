#include "loadgen/common.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace vzb {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string MetricSet::Json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    out << (i ? ", " : "") << "\"" << JsonEscape(order_[i])
        << "\": {\"value\": " << (std::isfinite(value) ? value : 0.0)
        << ", \"unit\": \"" << JsonEscape(unit) << "\"}";
  }
  out << "}";
  return out.str();
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out.precision(12);
  for (const Span& span : spans_) {
    out << "{\"id\": " << span.id << ", \"parent\": " << span.parent
        << ", \"name\": \"" << JsonEscape(span.name)
        << "\", \"start_us\": " << span.start_us
        << ", \"end_us\": " << span.end_us << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace vzb
