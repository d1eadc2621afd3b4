#include "nfs/bench_nfs.hh"

#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "net/packet.hh"
#include "nfs/common_elements.hh"

namespace tomur::nfs {

namespace fw = framework;

namespace {

double
reuseFor(MemAccessMode mode)
{
    switch (mode) {
      case MemAccessMode::Stream:
        return 0.05;
      case MemAccessMode::Step:
        return 0.5;
      case MemAccessMode::Random:
        return 1.0;
    }
    return 1.0;
}

/**
 * The mem-bench loop body: one "packet" performs a batch of real
 * array accesses over a working set of the configured size.
 */
class MemBenchElement : public Element
{
  public:
    explicit MemBenchElement(const MemBenchConfig &cfg)
        : Element("MemBench"), cfg_(cfg),
          region_{"membench_array", cfg.wssBytes, reuseFor(cfg.mode)},
          rng_(0xbe7c4)
    {
    }

    Verdict
    process(net::Packet &, CostContext &ctx) override
    {
        // Back the region with a real (bounded) array so accesses are
        // genuine work, while the modeled WSS follows the config.
        // Allocated on first use: building the NF only to read its
        // identity (memBenchProfile) costs no backing store.
        if (array_.empty()) {
            array_.resize(static_cast<std::size_t>(std::min(
                              cfg_.wssBytes, 4.0 * 1024 * 1024)) /
                              8,
                          1);
        }
        std::uint64_t acc = 0;
        std::size_t n = array_.size();
        for (int i = 0; i < 16 && n > 0; ++i)
            acc += array_[rng_.uniformInt(n)];
        (void)acc;
        charge(ctx);
        return Verdict::Forward;
    }

    /** The cost one iteration records: the part of process() that
     *  memBenchProfile replays without touching the array. */
    void
    charge(CostContext &ctx) const
    {
        ctx.addInstructions(cfg_.instructionsPerAccess *
                            cfg_.accessesPerIteration);
        // Writes to force cache-line ownership: 1/4 of accesses.
        ctx.addMemAccess(region_, cfg_.accessesPerIteration * 0.75,
                         cfg_.accessesPerIteration * 0.25);
    }

    std::vector<MemRegion>
    regions() const override
    {
        return {region_};
    }

  private:
    MemBenchConfig cfg_;
    MemRegion region_;
    Rng rng_;
    std::vector<std::uint64_t> array_;
};

/** regex-bench body: submit one scan request per iteration. */
class RegexBenchElement : public Element
{
  public:
    explicit RegexBenchElement(std::shared_ptr<fw::RegexDevice> regex)
        : Element("RegexBench"), regex_(std::move(regex))
    {
    }

    Verdict
    process(net::Packet &pkt, CostContext &ctx) override
    {
        ctx.addInstructions(fw::cost::accelSubmit +
                            fw::cost::accelReap);
        regex_->scan(pkt.payload(), ctx);
        return Verdict::Forward;
    }

  private:
    std::shared_ptr<fw::RegexDevice> regex_;
};

/** compression-bench body. */
class CompressionBenchElement : public Element
{
  public:
    CompressionBenchElement(
        std::shared_ptr<fw::CompressionDevice> comp,
        double request_bytes)
        : Element("CompressionBench"), comp_(std::move(comp)),
          requestBytes_(request_bytes)
    {
    }

    Verdict
    process(net::Packet &pkt, CostContext &ctx) override
    {
        ctx.addInstructions(fw::cost::accelSubmit +
                            fw::cost::accelReap);
        auto payload = pkt.payload();
        if (requestBytes_ > 0.0) {
            // Build (and reuse) an oversized request buffer by
            // repeating the payload to the configured size.
            std::size_t target =
                static_cast<std::size_t>(requestBytes_);
            if (buffer_.size() != target) {
                buffer_.clear();
                while (buffer_.size() < target && !payload.empty()) {
                    std::size_t take = std::min(
                        payload.size(), target - buffer_.size());
                    buffer_.insert(buffer_.end(), payload.begin(),
                                   payload.begin() + take);
                }
                buffer_.resize(target, 0x5a);
            }
            comp_->compress(buffer_, ctx);
        } else {
            comp_->compress(payload, ctx);
        }
        return Verdict::Forward;
    }

  private:
    std::shared_ptr<fw::CompressionDevice> comp_;
    double requestBytes_;
    std::vector<std::uint8_t> buffer_;
};

/** crypto-bench body. */
class CryptoBenchElement : public Element
{
  public:
    CryptoBenchElement(std::shared_ptr<fw::CryptoDevice> crypto,
                       double request_bytes)
        : Element("CryptoBench"), crypto_(std::move(crypto)),
          requestBytes_(request_bytes)
    {
    }

    Verdict
    process(net::Packet &pkt, CostContext &ctx) override
    {
        ctx.addInstructions(fw::cost::accelSubmit +
                            fw::cost::accelReap);
        auto payload = pkt.payload();
        if (requestBytes_ > 0.0) {
            std::size_t target =
                static_cast<std::size_t>(requestBytes_);
            if (buffer_.size() != target) {
                buffer_.assign(target, 0x42);
            }
            crypto_->encrypt(buffer_, ctx);
        } else {
            crypto_->encrypt(payload, ctx);
        }
        return Verdict::Forward;
    }

  private:
    std::shared_ptr<fw::CryptoDevice> crypto_;
    double requestBytes_;
    std::vector<std::uint8_t> buffer_;
};

} // namespace

std::unique_ptr<fw::NetworkFunction>
makeMemBench(const MemBenchConfig &cfg)
{
    // Encode the configuration in the instance name: distinct
    // contention levels must stay distinct to name-keyed caches.
    auto nf = std::make_unique<fw::NetworkFunction>(
        strf("mem-bench(%.0fK,%.0fK,%.0f,%d)",
             cfg.wssBytes / 1024.0, cfg.targetAccessRate / 1e3,
             cfg.instructionsPerAccess, static_cast<int>(cfg.mode)),
        fw::ExecutionPattern::RunToCompletion);
    nf->add(std::make_unique<MemBenchElement>(cfg));
    if (cfg.targetAccessRate > 0.0 && cfg.accessesPerIteration > 0.0)
        nf->setPacedRate(cfg.targetAccessRate /
                         cfg.accessesPerIteration);
    return nf;
}

fw::WorkloadProfile
memBenchProfile(const MemBenchConfig &cfg,
                const traffic::TrafficProfile &traffic,
                const fw::ProfileOptions &opts)
{
    if (opts.samplePackets == 0)
        fatal("memBenchProfile: zero sample packets");
    if (traffic.flowCount == 0)
        fatal("memBenchProfile: zero flows");
    // Identity (name, pattern, cores, pacing) and the per-iteration
    // cost both come from the NF itself; its backing array is never
    // allocated because no packet is processed.
    auto nf = makeMemBench(cfg);
    const auto &bench =
        static_cast<const MemBenchElement &>(*nf->elements().front());
    // Every generated frame has the profile's size (UDP framing, as
    // TrafficGen builds them); the payload bytes are never read.
    const double frame = static_cast<double>(
        net::PacketBuilder::frameSize(
            net::PacketBuilder::payloadForFrame(traffic.packetSize,
                                                net::IpProto::Udp),
            net::IpProto::Udp));
    // Replay the measurement phase's accumulation packet by packet so
    // the sums round exactly as profileWorkload's do.
    fw::CostContext ctx;
    double frame_bytes = 0.0;
    for (std::size_t i = 0; i < opts.samplePackets; ++i) {
        frame_bytes += frame;
        bench.charge(ctx);
    }
    return fw::summarizeProfile(*nf, traffic, ctx, opts.samplePackets,
                                frame_bytes, 0);
}

std::unique_ptr<fw::NetworkFunction>
makeRegexBench(const fw::DeviceSet &dev, const RegexBenchConfig &cfg)
{
    auto nf = std::make_unique<fw::NetworkFunction>(
        strf("regex-bench(%.0f,%d)", cfg.requestRate, cfg.queues),
        fw::ExecutionPattern::RunToCompletion);
    nf->add(std::make_unique<ParseElement>());
    nf->add(std::make_unique<RegexBenchElement>(dev.regex));
    nf->setQueueCount(hw::AccelKind::Regex, cfg.queues);
    if (cfg.requestRate > 0.0)
        nf->setPacedRate(cfg.requestRate);
    return nf;
}

std::unique_ptr<fw::NetworkFunction>
makeCompressionBench(const fw::DeviceSet &dev,
                     const CompressionBenchConfig &cfg)
{
    auto nf = std::make_unique<fw::NetworkFunction>(
        strf("compression-bench(%.0f,%d,%.0f)", cfg.requestRate,
             cfg.queues, cfg.requestBytes),
        fw::ExecutionPattern::RunToCompletion);
    nf->add(std::make_unique<ParseElement>());
    nf->add(std::make_unique<CompressionBenchElement>(
        dev.compression, cfg.requestBytes));
    nf->setQueueCount(hw::AccelKind::Compression, cfg.queues);
    if (cfg.requestRate > 0.0)
        nf->setPacedRate(cfg.requestRate);
    return nf;
}

std::unique_ptr<fw::NetworkFunction>
makeCryptoBench(const fw::DeviceSet &dev, const CryptoBenchConfig &cfg)
{
    auto nf = std::make_unique<fw::NetworkFunction>(
        strf("crypto-bench(%.0f,%d,%.0f)", cfg.requestRate,
             cfg.queues, cfg.requestBytes),
        fw::ExecutionPattern::RunToCompletion);
    nf->add(std::make_unique<ParseElement>());
    nf->add(std::make_unique<CryptoBenchElement>(dev.crypto,
                                                 cfg.requestBytes));
    nf->setQueueCount(hw::AccelKind::Crypto, cfg.queues);
    if (cfg.requestRate > 0.0)
        nf->setPacedRate(cfg.requestRate);
    return nf;
}

} // namespace tomur::nfs
