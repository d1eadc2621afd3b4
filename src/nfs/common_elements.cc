#include "nfs/common_elements.hh"

namespace tomur::nfs {

namespace fw = framework;

const MemRegion &
packetPoolRegion()
{
    // DMA packet buffer pool; kept warm by DDIO-like behaviour, so it
    // competes for LLC like any other resident region.
    static const MemRegion pool{"pkt_pool", 256.0 * 1024, 1.0};
    return pool;
}

ParseElement::ParseElement()
    : Element("Parse"), pktPool_(packetPoolRegion())
{
}

Verdict
ParseElement::process(net::Packet &pkt, CostContext &ctx)
{
    ctx.addInstructions(fw::cost::parseHeaders);
    // Header lines: eth+ip+l4 span ~1 cache line, plus descriptor.
    ctx.addMemAccess(pktPool_, 2.0, 0.0);
    auto eth = pkt.eth();
    if (!eth || eth->etherType != net::etherTypeIpv4) {
        ++dropped_;
        return Verdict::Drop;
    }
    auto tuple = pkt.fiveTuple();
    if (!tuple) {
        ++dropped_;
        return Verdict::Drop;
    }
    return Verdict::Forward;
}

std::vector<MemRegion>
ParseElement::regions() const
{
    return {pktPool_};
}

TtlElement::TtlElement()
    : Element("TtlDec"), pktPool_(packetPoolRegion())
{
}

Verdict
TtlElement::process(net::Packet &pkt, CostContext &ctx)
{
    ctx.addInstructions(fw::cost::checksum);
    ctx.addMemAccess(pktPool_, 1.0, 1.0);
    if (!pkt.decrementTtl())
        return Verdict::Drop;
    return Verdict::Forward;
}

MacRewriteElement::MacRewriteElement()
    : Element("MacRewrite"), pktPool_(packetPoolRegion())
{
}

Verdict
MacRewriteElement::process(net::Packet &pkt, CostContext &ctx)
{
    ctx.addInstructions(30);
    ctx.addMemAccess(pktPool_, 0.0, 1.0);
    auto eth = pkt.eth();
    if (!eth)
        return Verdict::Drop;
    net::EthHeader h = *eth;
    h.dst = net::MacAddr::fromId(h.dst.bytes[5] + 1u);
    net::writeEth(pkt.bytes().data(), h);
    return Verdict::Forward;
}

PayloadTouchElement::PayloadTouchElement(double passes)
    : Element("PayloadTouch"), passes_(passes),
      payloadRegion_{"payload_stream", 64.0 * 1024, 0.0}
{
}

Verdict
PayloadTouchElement::process(net::Packet &pkt, CostContext &ctx)
{
    auto payload = pkt.payload();
    double bytes = static_cast<double>(payload.size()) * passes_;
    // Genuine walk: fold payload into a checksum so the work is real.
    std::uint32_t acc = 0;
    for (std::uint8_t b : payload)
        acc = acc * 31 + b;
    (void)acc;
    ctx.addInstructions(fw::cost::perByteTouch * bytes);
    // Streaming reads, one per cache line.
    ctx.addMemAccess(payloadRegion_, bytes / 64.0, 0.0);
    return Verdict::Forward;
}

} // namespace tomur::nfs
