// Text-exposition entry points: RenderMetricsText is the library-level
// scrape (the METRICS wire frame and --metrics-dump both funnel into
// it), and ParseMetricsText reads the format back — used by the
// round-trip tests and by anything that wants to diff two scrapes.

#ifndef CFDPROP_OBS_EXPORTER_H_
#define CFDPROP_OBS_EXPORTER_H_

#include <map>
#include <string>
#include <string_view>

#include "src/base/status.h"
#include "src/obs/metrics.h"

namespace cfdprop {
namespace obs {

/// Renders the registry (owned metrics + collectors) as Prometheus-
/// style text exposition. One registry snapshot per call.
std::string RenderMetricsText(const MetricsRegistry& registry);

/// A parsed scrape: series are keyed by their exact exposition text up
/// to the value (`name` or `name{labels}`), types by family name.
struct ParsedMetrics {
  std::map<std::string, std::string> types;
  std::map<std::string, double> values;

  /// 0.0 when absent; exposition never carries negative series here.
  double Value(std::string_view series) const {
    auto it = values.find(std::string(series));
    return it == values.end() ? 0.0 : it->second;
  }
  bool Has(std::string_view series) const {
    return values.count(std::string(series)) > 0;
  }
  /// Sum over every series of `family` whatever its labels (tenant,
  /// shard, ...): `Sum("cfdprop_admitted_total")` is the cluster-wide
  /// admitted count. 0.0 when the family has no series.
  double Sum(std::string_view family) const;
};

/// Parses text exposition as produced by RenderMetricsText. Unknown
/// comment lines are skipped; a malformed series line — including a
/// value with trailing bytes ("12abc") and a series key seen twice — is
/// an InvalidArgument naming the line.
Result<ParsedMetrics> ParseMetricsText(std::string_view text);

}  // namespace obs
}  // namespace cfdprop

#endif  // CFDPROP_OBS_EXPORTER_H_
