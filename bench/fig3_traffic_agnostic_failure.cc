/**
 * @file
 * Figure 3: traffic-agnostic models break as traffic changes.
 * Paper (a): FlowStats's throughput-vs-CAR curve shifts with the
 * traffic profile, so one fixed-traffic curve cannot serve all.
 * Paper (b): SLOMO models trained at the default profile suffer
 * large errors when tested over 100 random profiles with up to 500K
 * flows (medians ~15-40%).
 */

#include "common.hh"

using namespace tomur;
using namespace tomur::bench;

int
main()
{
    printHeader("Figure 3: fixed-traffic models vs changing traffic",
                "(a) contention sensitivity depends on the traffic "
                "profile; (b) large errors on unseen profiles");
    BenchEnv env;
    auto defaults = traffic::TrafficProfile::defaults();

    // ---- (a) FlowStats vs CAR in three traffic profiles ----
    std::printf("\n(a) FlowStats throughput (Kpps) vs mem-bench "
                "CAR:\n");
    const double flows_list[] = {4e3, 64e3, 320e3};
    std::vector<std::string> header = {"CAR \\ flows"};
    for (double f : flows_list)
        header.push_back(strf("%.0fK flows", f / 1e3));
    AsciiTable a(header);
    for (double car : {5e6, 20e6, 40e6, 60e6, 80e6, 100e6}) {
        std::vector<std::string> row = {strf("%.0fM", car / 1e6)};
        for (double flows : flows_list) {
            auto p = defaults.withAttribute(
                traffic::Attribute::FlowCount, flows);
            nfs::MemBenchConfig cfg;
            cfg.wssBytes = 12.0 * 1024 * 1024;
            cfg.targetAccessRate = car;
            auto wb = nfs::memBenchProfile(
                cfg, traffic::TrafficProfile{16, 1500, 0.0});
            auto ms = env.bed.run({env.workload("FlowStats", p), wb});
            row.push_back(
                strf("%.0fK", ms[0].truthThroughput / 1e3));
        }
        a.addRow(std::move(row));
    }
    a.print(stdout);

    // ---- (b) SLOMO error distribution over random profiles ----
    std::printf("\n(b) SLOMO error under random flow counts "
                "(up to 500K):\n");
    slomo::SlomoTrainer strainer(*env.lib);
    AsciiTable b({"NF", "error distribution (%)"});
    for (const char *name :
         {"FlowStats", "FlowClassifier", "FlowTracker"}) {
        auto model = strainer.train(env.nf(name), defaults);
        AccuracyTracker acc;
        Rng rng = env.rng.split();
        for (int i = 0; i < 40; ++i) {
            auto p = defaults.withAttribute(
                traffic::Attribute::FlowCount,
                rng.uniform(1e3, 500e3));
            const auto &bench = env.lib->randomMemBench(rng);
            auto ms = env.bed.run(
                {env.workload(name, p), bench.workload});
            acc.add(name, ms[0].throughput,
                    model.predict({bench.level}, p));
        }
        b.addRow({name, boxRow(acc.errors(name))});
    }
    b.print(stdout);
    return 0;
}
