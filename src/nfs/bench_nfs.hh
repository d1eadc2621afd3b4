/**
 * @file
 * Synthetic benchmark NFs (paper §6): mem-bench, regex-bench and
 * compression-bench apply configurable contention on the memory
 * subsystem and accelerators. They are the profiling workhorses —
 * training data for the per-resource models comes from co-running
 * target NFs with these at swept contention levels.
 */

#ifndef TOMUR_NFS_BENCH_NFS_HH
#define TOMUR_NFS_BENCH_NFS_HH

#include <memory>

#include "framework/accel_dev.hh"
#include "framework/nf.hh"
#include "framework/profile.hh"

namespace tomur::nfs {

/** mem-bench memory access patterns. */
enum class MemAccessMode
{
    Stream, ///< sequential, no temporal reuse
    Step,   ///< strided with partial reuse
    Random, ///< uniform random over the working set (full reuse)
};

/** mem-bench configuration (§6: pattern, speed, array size). */
struct MemBenchConfig
{
    double wssBytes = 8.0 * 1024 * 1024;
    /** Target cache access rate in accesses/s (the paper's CAR). */
    double targetAccessRate = 20e6;
    MemAccessMode mode = MemAccessMode::Random;
    /** Accesses per iteration ("packet") of the bench loop. */
    double accessesPerIteration = 64.0;
    /**
     * Compute intensity: instructions executed per memory access.
     * Swept independently of the access rate so the synthetic
     * competitor corpus decorrelates instruction-side counters (IRT,
     * IPC) from cache pressure — real competitors vary widely here.
     */
    double instructionsPerAccess = 4.0;
};

/** Build a mem-bench instance. */
std::unique_ptr<framework::NetworkFunction>
makeMemBench(const MemBenchConfig &cfg);

/**
 * A mem-bench's workload profile in closed form: exactly (bitwise)
 * what profileWorkload(*makeMemBench(cfg), traffic, ruleset, opts)
 * returns, without building a packet or running the bench loop. The
 * bench never reads packets, so its demand is a function of its
 * configuration, the frame size and opts.samplePackets alone (no
 * ruleset is needed at any MTBR). Pinned against the executed
 * profile by BenchNfs.MemBenchClosedFormMatchesExecutedProfile.
 */
framework::WorkloadProfile
memBenchProfile(const MemBenchConfig &cfg,
                const traffic::TrafficProfile &traffic,
                const framework::ProfileOptions &opts = {});

/** regex-bench configuration (§6: processing rate, MTBR). */
struct RegexBenchConfig
{
    /** Offered request rate (requests/s); 0 = closed loop. */
    double requestRate = 0.0;
    /** Payload bytes per request. */
    double payloadBytes = 1434.0;
    /** Request queues toward the accelerator. */
    int queues = 1;
};

/**
 * Build a regex-bench instance. The per-request match count (and so
 * the service time) is controlled by the MTBR of the traffic profile
 * it is profiled under.
 */
std::unique_ptr<framework::NetworkFunction>
makeRegexBench(const framework::DeviceSet &dev,
               const RegexBenchConfig &cfg);

/** compression-bench configuration. */
struct CompressionBenchConfig
{
    double requestRate = 0.0; ///< 0 = closed loop
    int queues = 1;
    /**
     * Bytes per compression request; 0 uses the traffic payload as
     * is. Larger requests raise the bench's per-request service time
     * — calibration runs need it "high enough" that the target NF is
     * accelerator-bound at equilibrium (§4.1.1).
     */
    double requestBytes = 0.0;
};

/** Build a compression-bench instance. */
std::unique_ptr<framework::NetworkFunction>
makeCompressionBench(const framework::DeviceSet &dev,
                     const CompressionBenchConfig &cfg);

/** crypto-bench configuration. */
struct CryptoBenchConfig
{
    double requestRate = 0.0; ///< 0 = closed loop
    int queues = 1;
    /** Bytes per crypto request; 0 uses the traffic payload. */
    double requestBytes = 0.0;
};

/** Build a crypto-bench instance. */
std::unique_ptr<framework::NetworkFunction>
makeCryptoBench(const framework::DeviceSet &dev,
                const CryptoBenchConfig &cfg);

} // namespace tomur::nfs

#endif // TOMUR_NFS_BENCH_NFS_HH
