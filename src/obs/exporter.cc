#include "src/obs/exporter.h"

#include <cstdlib>

namespace cfdprop {
namespace obs {

std::string RenderMetricsText(const MetricsRegistry& registry) {
  return registry.RenderText();
}

namespace {

/// Returns the index one past the series key: past the matching `}`
/// when the line carries labels (quote- and escape-aware, since label
/// values may contain spaces or braces), else past the bare name.
size_t KeyEnd(std::string_view line) {
  size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  if (i == line.size() || line[i] == ' ') return i;
  bool in_quotes = false;
  for (++i; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_quotes = false;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == '}') {
      return i + 1;
    }
  }
  return line.size();
}

/// "line N: <text>" — what every parse error names.
std::string LineRef(size_t line_no, std::string_view line) {
  return "line " + std::to_string(line_no) + ": '" + std::string(line) + "'";
}

}  // namespace

double ParsedMetrics::Sum(std::string_view family) const {
  double sum = 0.0;
  // Every series of `family` is among the contiguous keys that start
  // with it; longer names sharing the prefix ("family_count") are
  // skipped, not summed.
  for (auto it = values.lower_bound(std::string(family)); it != values.end();
       ++it) {
    const std::string& key = it->first;
    if (key.compare(0, family.size(), family) != 0) break;
    if (key.size() == family.size() || key[family.size()] == '{') {
      sum += it->second;
    }
  }
  return sum;
}

Result<ParsedMetrics> ParseMetricsText(std::string_view text) {
  ParsedMetrics out;
  size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const size_t nl = text.find('\n');
    std::string_view line =
        nl == std::string_view::npos ? text : text.substr(0, nl);
    text = nl == std::string_view::npos ? std::string_view()
                                        : text.substr(nl + 1);
    if (line.empty()) continue;
    if (line[0] == '#') {
      constexpr std::string_view kTypePrefix = "# TYPE ";
      if (line.substr(0, kTypePrefix.size()) == kTypePrefix) {
        std::string_view rest = line.substr(kTypePrefix.size());
        const size_t space = rest.find(' ');
        if (space == std::string_view::npos) {
          return Status::InvalidArgument("malformed # TYPE line " +
                                         std::to_string(line_no));
        }
        out.types[std::string(rest.substr(0, space))] =
            std::string(rest.substr(space + 1));
      }
      continue;  // # HELP and other comments
    }
    const size_t key_end = KeyEnd(line);
    if (key_end == 0 || key_end >= line.size() || line[key_end] != ' ') {
      return Status::InvalidArgument("malformed series at line " +
                                     std::to_string(line_no));
    }
    const std::string key(line.substr(0, key_end));
    const std::string value_text(line.substr(key_end + 1));
    char* end = nullptr;
    const double value = std::strtod(value_text.c_str(), &end);
    if (value_text.empty() || end != value_text.c_str() + value_text.size()) {
      return Status::InvalidArgument("unparseable value at " +
                                     LineRef(line_no, line));
    }
    if (!out.values.emplace(key, value).second) {
      return Status::InvalidArgument("duplicate series at " +
                                     LineRef(line_no, line));
    }
  }
  return out;
}

}  // namespace obs
}  // namespace cfdprop
