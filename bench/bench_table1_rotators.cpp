// bench_table1_rotators - reproduces Table 1 and the §4 discovery funnel.
//
// Paper: the three-stage funnel (seed -> expansion -> density -> two-snapshot
// rotation detection) finds 12,885 rotating /48s; AS8881 (Versatel, DE)
// dominates with ~40% of them, Germany leads countries with ~46%, and >100
// ASes across 25 countries rotate. Of 19.4M discovered addresses, 14.8M are
// EUI-64 with only 6.2M unique IIDs.
//
// Shape to reproduce (absolute counts are vantage-scale artifacts):
//   * one AS dominates the rotating-/48 count by a wide margin,
//   * its country dominates the country ranking,
//   * dozens of ASes / ~20+ countries have at least one rotating /48,
//   * EUI-64 addresses >> unique IIDs (rotation observed mid-funnel).
#include <iostream>

#include "bench_util.h"

namespace {

void print_groups(const char* title,
                  const std::vector<scent::core::RotatorGroup>& groups,
                  std::size_t top_n) {
  scent::core::TextTable table{{std::string{title}, "# /48"}};
  std::uint64_t total = 0;
  std::uint64_t shown = 0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    total += groups[i].count;
    if (i < top_n) {
      table.add_row({groups[i].key, std::to_string(groups[i].count)});
      shown += groups[i].count;
    }
  }
  if (groups.size() > top_n) {
    table.add_row({std::to_string(groups.size() - top_n) + " others",
                   std::to_string(total - shown)});
  }
  table.add_row({"Total", std::to_string(total)});
  std::printf("\n");
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  scent::bench::parse_threads(argc, argv);
  using namespace scent;
  bench::banner("Table 1 - top ASNs and countries by rotating /48 prefixes",
                "AS8881 ~40% of 12,885 rotating /48s; DE ~46%; >100 ASes, "
                "25 countries; 14.8M EUI-64 addrs vs 6.2M unique IIDs");

  bench::Pipeline pipeline;

  const auto by_asn =
      core::rotators_by_asn(pipeline.funnel.rotating_48s,
                            pipeline.world.internet.bgp());
  const auto by_country =
      core::rotators_by_country(pipeline.funnel.rotating_48s,
                                pipeline.world.internet.bgp());

  print_groups("ASN", by_asn, 5);
  print_groups("Country", by_country, 5);

  std::printf("\nFunnel accounting (paper: 19.4M addrs, 14.8M EUI-64, "
              "6.2M unique IIDs):\n");
  std::printf("  discovered addresses : %llu\n",
              static_cast<unsigned long long>(pipeline.funnel.total_addresses));
  std::printf("  EUI-64 addresses     : %llu (%.0f%%)\n",
              static_cast<unsigned long long>(pipeline.funnel.eui64_addresses),
              100.0 * static_cast<double>(pipeline.funnel.eui64_addresses) /
                  static_cast<double>(pipeline.funnel.total_addresses));
  std::printf("  unique EUI-64 IIDs   : %llu\n",
              static_cast<unsigned long long>(pipeline.funnel.unique_iids));
  std::printf("  rotating ASes        : %zu across %zu countries\n",
              by_asn.size(), by_country.size());

  const bool versatel_dominates =
      !by_asn.empty() && by_asn[0].key == "8881";
  const bool de_dominates =
      !by_country.empty() && by_country[0].key == "DE";
  const bool rotation_observed =
      pipeline.funnel.eui64_addresses > pipeline.funnel.unique_iids;
  std::printf("\nshape check: versatel_top=%s country_DE_top=%s "
              "eui64>uniqueIIDs=%s asns>=20=%s\n",
              versatel_dominates ? "yes" : "NO",
              de_dominates ? "yes" : "NO", rotation_observed ? "yes" : "NO",
              by_asn.size() >= 20 ? "yes" : "NO");

  pipeline.print_telemetry();
  return versatel_dominates && de_dominates && rotation_observed ? 0 : 1;
}
