#include "core/pathology.h"

#include "analysis/derive.h"
#include "analysis/engine.h"

namespace scent::core {

std::vector<MultiAsIid> find_multi_as_iids(const ObservationStore& store,
                                           const routing::BgpTable& bgp,
                                           const PathologyOptions& options) {
  // One fused pass instead of two attribution scans per multi-AS MAC; the
  // per-AS distinct-day lists in the aggregate table carry everything the
  // classification needs (bench_micro's analysis guard asserts equality
  // with the legacy scan).
  analysis::AnalysisOptions analysis_options;
  analysis_options.collect_targets = false;
  analysis_options.collect_sightings = false;
  const analysis::AggregateTable table =
      analysis::analyze(store, &bgp, analysis_options);
  return analysis::multi_as_iids(table, options);
}

}  // namespace scent::core
