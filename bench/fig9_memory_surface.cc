/**
 * @file
 * Figure 9 (Appendix B): FlowStats throughput as a function of
 * mem-bench's working-set size and cache access rate.
 * Paper: below ~6 MB competing WSS the throughput barely moves;
 * above it, CAR becomes the dominant factor.
 */

#include "common.hh"

using namespace tomur;
using namespace tomur::bench;

int
main()
{
    printHeader("Figure 9: FlowStats vs competing (WSS, CAR)",
                "two regimes around the 6 MB LLC: WSS-dominated "
                "below, CAR-dominated above");
    BenchEnv env;
    auto defaults = traffic::TrafficProfile::defaults();
    const auto &w = env.workload("FlowStats", defaults);

    const double cars[] = {5e6, 10e6, 20e6, 40e6, 80e6, 100e6};
    std::vector<std::string> header = {"WSS \\ CAR"};
    for (double car : cars)
        header.push_back(strf("%.0fM", car / 1e6));
    AsciiTable table(header);

    for (double wss : {1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 20.0, 40.0}) {
        std::vector<std::string> row = {strf("%.0f MB", wss)};
        for (double car : cars) {
            nfs::MemBenchConfig cfg;
            cfg.wssBytes = wss * 1024 * 1024;
            cfg.targetAccessRate = car;
            auto wb = nfs::memBenchProfile(
                cfg, traffic::TrafficProfile{16, 1500, 0.0});
            auto ms = env.bed.run({w, wb});
            row.push_back(
                strf("%.0fK", ms[0].truthThroughput / 1e3));
        }
        table.addRow(std::move(row));
    }
    table.print(stdout);
    return 0;
}
