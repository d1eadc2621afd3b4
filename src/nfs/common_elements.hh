/**
 * @file
 * Elements shared by several NFs: header parsing/validation, TTL
 * handling, MAC rewriting, CPU payload touching.
 */

#ifndef TOMUR_NFS_COMMON_ELEMENTS_HH
#define TOMUR_NFS_COMMON_ELEMENTS_HH

#include "framework/element.hh"

namespace tomur::nfs {

using framework::CostContext;
using framework::Element;
using framework::MemRegion;
using framework::Verdict;

/**
 * Parse and validate Ethernet/IPv4/L4 headers; drops anything that is
 * not well-formed IPv4 UDP/TCP. First element of every NF.
 */
class ParseElement : public Element
{
  public:
    ParseElement();
    Verdict process(net::Packet &pkt, CostContext &ctx) override;

    std::vector<MemRegion> regions() const override;

    /** Count of malformed packets dropped (diagnostics). */
    std::uint64_t dropped() const { return dropped_; }
    void reset() override { dropped_ = 0; }

  private:
    MemRegion pktPool_;
    std::uint64_t dropped_ = 0;
};

/** Decrement IPv4 TTL, drop on expiry, refresh checksum. */
class TtlElement : public Element
{
  public:
    TtlElement();
    Verdict process(net::Packet &pkt, CostContext &ctx) override;

  private:
    MemRegion pktPool_;
};

/** Rewrite destination MAC for the chosen next hop. */
class MacRewriteElement : public Element
{
  public:
    MacRewriteElement();
    Verdict process(net::Packet &pkt, CostContext &ctx) override;

  private:
    MemRegion pktPool_;
};

/**
 * CPU-side payload pass (copy/checksum-like work): cost scales with
 * payload size, streaming memory behaviour.
 */
class PayloadTouchElement : public Element
{
  public:
    /** @param passes how many times the payload is walked */
    explicit PayloadTouchElement(double passes = 1.0);
    Verdict process(net::Packet &pkt, CostContext &ctx) override;

  private:
    double passes_;
    MemRegion payloadRegion_;
};

/** Shared packet-buffer-pool region descriptor (one static
 *  instance, so per-packet accounting copies nothing). */
const MemRegion &packetPoolRegion();

} // namespace tomur::nfs

#endif // TOMUR_NFS_COMMON_ELEMENTS_HH
