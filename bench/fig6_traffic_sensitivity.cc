/**
 * @file
 * Figure 6: FlowStats throughput as a function of traffic
 * attributes.
 * Paper (a): throughput falls piece-wise with the flow count (hash
 * table vs LLC) and the drop deepens with the competitor's WSS;
 * (b): packet size is irrelevant for this header-only NF.
 */

#include "common.hh"

using namespace tomur;
using namespace tomur::bench;

int
main()
{
    printHeader("Figure 6: FlowStats traffic sensitivity",
                "(a) piece-wise drop with flow count; "
                "(b) flat in packet size");
    BenchEnv env;
    auto defaults = traffic::TrafficProfile::defaults();

    std::printf("\n(a) throughput (Kpps) vs flow count, co-located "
                "with mem-bench (CAR 40M):\n");
    const double wss_list[] = {10.0, 30.0, 50.0};
    std::vector<std::string> header = {"flows \\ bench WSS"};
    for (double wss : wss_list)
        header.push_back(strf("%.0f MB", wss));
    AsciiTable a(header);
    for (double flows :
         {1e3, 5e3, 10e3, 20e3, 40e3, 80e3, 160e3, 320e3, 500e3}) {
        std::vector<std::string> row = {strf("%.0fK", flows / 1e3)};
        auto p = defaults.withAttribute(
            traffic::Attribute::FlowCount, flows);
        for (double wss : wss_list) {
            nfs::MemBenchConfig cfg;
            cfg.wssBytes = wss * 1024 * 1024;
            cfg.targetAccessRate = 40e6;
            auto wb = nfs::memBenchProfile(
                cfg, traffic::TrafficProfile{16, 1500, 0.0});
            auto ms = env.bed.run({env.workload("FlowStats", p), wb});
            row.push_back(
                strf("%.0fK", ms[0].truthThroughput / 1e3));
        }
        a.addRow(std::move(row));
    }
    a.print(stdout);

    std::printf("\n(b) solo throughput (Kpps) vs packet size "
                "(16K flows):\n");
    AsciiTable b({"packet size (B)", "throughput (Kpps)"});
    for (double size : {64.0, 256.0, 512.0, 1024.0, 1500.0}) {
        auto p = defaults.withAttribute(
            traffic::Attribute::PacketSize, size);
        b.addRow({fmtDouble(size, 0),
                  strf("%.0fK", env.solo("FlowStats", p) / 1e3)});
    }
    b.print(stdout);
    return 0;
}
