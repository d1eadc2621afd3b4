/**
 * @file
 * Figure 5: throughput of synthetic pipeline and run-to-completion
 * NFs as a function of competing CAR (memory) and competing regex
 * match rate.
 * Paper (O1): the pipeline NF plateaus when regex contention is high
 * — its slowest stage rules, so it ignores memory contention.
 * Paper (O2): the run-to-completion NF degrades monotonically in
 * both dimensions (compounded contention).
 */

#include "common.hh"

using namespace tomur;
using namespace tomur::bench;

namespace {

void
sweep(BenchEnv &env, framework::ExecutionPattern pattern)
{
    auto nf = nfs::makeSyntheticNf1(env.dev, pattern);
    auto defaults = traffic::TrafficProfile::defaults();
    auto w = env.trainer->workloadOf(*nf, defaults);

    const double rates[] = {0.0, 150e3, 300e3, 450e3, 600e3};
    std::vector<std::string> header = {"CAR \\ bench rate"};
    for (double r : rates)
        header.push_back(strf("%.0fK", r / 1e3));
    AsciiTable table(header);

    for (double car : {0.0, 15e6, 30e6, 45e6, 60e6}) {
        std::vector<std::string> row = {strf("%.0fM", car / 1e6)};
        for (double rate : rates) {
            std::vector<framework::WorkloadProfile> deploy = {w};
            if (car > 0.0) {
                nfs::MemBenchConfig cfg;
                cfg.wssBytes = 12.0 * 1024 * 1024;
                cfg.targetAccessRate = car;
                deploy.push_back(nfs::memBenchProfile(
                    cfg, traffic::TrafficProfile{16, 1500, 0.0}));
            }
            if (rate > 0.0) {
                nfs::RegexBenchConfig cfg;
                cfg.requestRate = rate;
                auto rb = nfs::makeRegexBench(env.dev, cfg);
                deploy.push_back(
                    env.trainer->workloadOf(*rb, defaults));
            }
            auto ms = env.bed.run(deploy);
            row.push_back(
                strf("%.0fK", ms[0].truthThroughput / 1e3));
        }
        table.addRow(std::move(row));
    }
    std::printf("\n%s NF:\n", framework::patternName(pattern));
    table.print(stdout);
}

} // namespace

int
main()
{
    printHeader("Figure 5: execution patterns under joint contention",
                "pipeline plateaus at the slowest stage; "
                "run-to-completion compounds both contention sources");
    BenchEnv env;
    sweep(env, framework::ExecutionPattern::Pipeline);
    sweep(env, framework::ExecutionPattern::RunToCompletion);
    return 0;
}
