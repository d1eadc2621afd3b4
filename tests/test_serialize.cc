/**
 * @file
 * Serialization round trips: saved and reloaded models predict
 * bit-identically, and malformed inputs are rejected.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hh"
#include "ml/gbr.hh"
#include "ml/linreg.hh"
#include "nfs/registry.hh"
#include "regex/ruleset.hh"
#include "tomur/profiler.hh"

namespace tomur {
namespace {

ml::Dataset
sampleData(int n, std::uint64_t seed)
{
    Rng rng(seed);
    ml::Dataset d({"a", "b", "c"});
    for (int i = 0; i < n; ++i) {
        double a = rng.uniform(0, 10), b = rng.uniform(0, 10),
               c = rng.uniform(0, 10);
        d.add({a, b, c}, a * 2 + (b > 5 ? 3 : 0) + 0.1 * c);
    }
    return d;
}

TEST(Serialize, GbrRoundTripBitIdentical)
{
    auto data = sampleData(300, 7);
    ml::GradientBoostingRegressor gbr;
    gbr.fit(data);

    std::stringstream ss;
    gbr.save(ss);
    ml::GradientBoostingRegressor loaded;
    ASSERT_TRUE(loaded.load(ss));

    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        std::vector<double> x = {rng.uniform(0, 10),
                                 rng.uniform(0, 10),
                                 rng.uniform(0, 10)};
        EXPECT_EQ(gbr.predict(x), loaded.predict(x));
    }
}

TEST(Serialize, LinRegRoundTrip)
{
    ml::LinearRegression lr;
    lr.fit1d({0, 1, 2, 3}, {5, 7, 9, 11});
    std::stringstream ss;
    lr.save(ss);
    ml::LinearRegression loaded;
    ASSERT_TRUE(loaded.load(ss));
    EXPECT_EQ(lr.predict1d(42.0), loaded.predict1d(42.0));
    EXPECT_EQ(lr.intercept(), loaded.intercept());
}

TEST(Serialize, MalformedInputsRejected)
{
    ml::GradientBoostingRegressor gbr;
    std::stringstream bad1("not_a_model 3");
    EXPECT_FALSE(gbr.load(bad1));
    std::stringstream bad2("gbr 2 0.5 0.1\ntree 1\n0 0 1 5 -1\n");
    // child index 5 out of range
    EXPECT_FALSE(gbr.load(bad2));
    std::stringstream truncated("gbr 2 0.5 0.1\ntree 1\n");
    EXPECT_FALSE(gbr.load(truncated));

    ml::LinearRegression lr;
    std::stringstream bad3("linreg 3 1.0 2.0");
    EXPECT_FALSE(lr.load(bad3)); // missing coefficients
}

TEST(Serialize, MalformedTreeGraphsRejected)
{
    // Each body is in range child-wise but could not be walked from
    // the root to a leaf: predict() would spin, index nodes_[-1] or
    // find no node at all.
    const char *bodies[] = {
        "tree 0\n",                                         // empty
        "tree 1\n0 0.5 1 0 0\n",                           // self-loop
        "tree 3\n0 0.5 0 1 2\n0 0.5 0 0 2\n-1 0 1 -1 -1\n", // back edge
        "tree 2\n0 0.5 0 -1 1\n-1 0 1 -1 -1\n",           // missing child
        "tree 1\n-1 0 1 0 -1\n",                           // leaf child
        "tree 1\n-2 0 1 -1 -1\n",                          // bad leaf tag
    };
    for (const char *tree : bodies) {
        ml::GradientBoostingRegressor gbr;
        std::stringstream ss(std::string("gbr 1 0.5 0.1\n") + tree);
        EXPECT_FALSE(gbr.load(ss)) << tree;
    }
    // A well-formed three-node tree still loads and predicts.
    ml::GradientBoostingRegressor gbr;
    std::stringstream ok(
        "gbr 1 0.5 0.1\ntree 3\n1 2.5 0 1 2\n-1 0 10 -1 -1\n"
        "-1 0 20 -1 -1\n");
    ASSERT_TRUE(gbr.load(ok));
    EXPECT_EQ(gbr.maxFeature(), 1);
    EXPECT_DOUBLE_EQ(gbr.predict({0.0, 1.0}), 0.5 + 0.1 * 10);
    EXPECT_DOUBLE_EQ(gbr.predict({0.0, 3.0}), 0.5 + 0.1 * 20);
}

TEST(Serialize, SaveBeforeFitPanics)
{
    ml::GradientBoostingRegressor gbr;
    std::stringstream ss;
    EXPECT_DEATH(gbr.save(ss), "before fit");
}

TEST(Serialize, TomurModelRoundTrip)
{
    // Train a real (small-quota) model, persist it, reload it, and
    // check predictions match exactly on fresh inputs.
    auto rules = regex::defaultRuleSet();
    framework::DeviceSet dev;
    dev.regex = std::make_shared<framework::RegexDevice>(rules);
    dev.compression =
        std::make_shared<framework::CompressionDevice>();
    dev.crypto = std::make_shared<framework::CryptoDevice>();
    sim::Testbed bed(hw::blueField2(), {});
    core::BenchLibrary lib(bed, dev, rules);
    core::TomurTrainer trainer(lib);

    auto defaults = traffic::TrafficProfile::defaults();
    auto nf = nfs::makeNids(dev);
    core::TrainOptions opts;
    opts.adaptive.quota = 50;
    auto model = trainer.train(*nf, defaults, opts);

    std::stringstream ss;
    ASSERT_TRUE(model.save(ss));
    core::TomurModel loaded;
    ASSERT_TRUE(loaded.load(ss));

    EXPECT_EQ(loaded.nfName(), model.nfName());
    EXPECT_EQ(loaded.pattern(), model.pattern());
    ASSERT_EQ(loaded.accelModel(hw::AccelKind::Regex).has_value(),
              model.accelModel(hw::AccelKind::Regex).has_value());

    Rng rng(5);
    for (int i = 0; i < 10; ++i) {
        auto p = defaults
                     .withAttribute(traffic::Attribute::Mtbr,
                                    rng.uniform(0, 1100))
                     .withAttribute(traffic::Attribute::FlowCount,
                                    rng.uniform(1e3, 5e5));
        const auto &bench = lib.randomMemBench(rng);
        const auto &rx = lib.accelBench(hw::AccelKind::Regex,
                                        rng.uniform(1e5, 4e5), 800.0);
        std::vector<core::ContentionLevel> levels = {bench.level,
                                                     rx.level};
        EXPECT_EQ(model.predict(levels, p),
                  loaded.predict(levels, p));
        EXPECT_EQ(model.soloThroughput(p), loaded.soloThroughput(p));
    }
}

TEST(Serialize, TomurModelRejectsWrongVersion)
{
    core::TomurModel m;
    std::stringstream ss("tomur_model 99\n");
    auto st = m.load(ss);
    EXPECT_FALSE(st);
    EXPECT_NE(st.message().find("version"), std::string::npos);
}

} // namespace
} // namespace tomur
