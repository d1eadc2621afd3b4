/**
 * @file
 * Text serialization of trained Tomur models. Offline training is
 * the expensive step (testbed co-runs); persisted models let online
 * components (placement, diagnosis) start instantly.
 *
 * Format (version 2): a header line
 *
 *     tomur_model <version> <body-bytes> <fnv1a64-checksum-hex>
 *
 * followed by exactly <body-bytes> bytes of body. The length +
 * checksum let load() reject truncated or bit-flipped files with a
 * descriptive error before parsing anything; inside the body every
 * section is validated against named bounds, and a parse failure
 * names the section so a corrupt model file is diagnosable. Loading
 * never mutates the destination model until the whole file has been
 * validated.
 */

#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "common/serial.hh"
#include "common/strutil.hh"
#include "tomur/predictor.hh"

namespace tomur::core {

namespace {

/** Serialization format version save() writes and load() accepts. */
constexpr int kFormatVersion = 2;

/** Upper bound on seed-averaged ensemble sizes (memory and solo
 *  model sections). Real ensembles hold 3 models (§7.1); anything
 *  beyond this is a corrupt or hostile count. */
constexpr std::size_t kMaxEnsembleModels = 64;

/** Upper bound on an accelerator model's effective queue count; the
 *  calibration clamps estimates to (0, 64) (accel_model.cc). */
constexpr int kMaxAccelQueues = 64;

/** Upper bound on the serialized body size (16 MiB). A trained
 *  model is a few hundred KiB; a larger declared length means a
 *  corrupt header and must not drive an allocation. */
constexpr std::size_t kMaxBodyBytes = 16u << 20;

Status
sectionError(const char *section, const std::string &detail)
{
    return Status::corruptData(strf("%s section: %s", section,
                                    detail.c_str()));
}

/** Why a loaded ensemble cannot be fed `width` features, if so. */
std::optional<std::string>
featureOutOfRange(const ml::GradientBoostingRegressor &m,
                  std::size_t width)
{
    int f = m.maxFeature();
    if (f < 0 || static_cast<std::size_t>(f) < width)
        return std::nullopt;
    return strf("split on feature %d of a %zu-feature model", f,
                width);
}

} // namespace

std::uint64_t
modelBodyChecksum(std::string_view body)
{
    return fnv1a64(body);
}

Status
MemoryModel::save(std::ostream &out) const
{
    if (!fitted_) {
        return Status::failedPrecondition(
            "MemoryModel::save before fit");
    }
    out << "memory_model " << models_.size() << " "
        << (opts_.trafficAware ? 1 : 0) << "\n";
    for (const auto &m : models_)
        m.save(out);
    return Status::ok();
}

Status
MemoryModel::load(std::istream &in)
{
    if (!expectToken(in, "memory_model")) {
        return sectionError("memory model",
                            "missing 'memory_model' tag");
    }
    std::size_t count = 0;
    int traffic_aware = 0;
    in >> count >> traffic_aware;
    if (!in)
        return sectionError("memory model", "unreadable header");
    if (count == 0 || count > kMaxEnsembleModels) {
        return sectionError(
            "memory model",
            strf("ensemble size %zu outside [1, %zu]", count,
                 kMaxEnsembleModels));
    }
    // Splits may only read features the model is fed.
    const std::size_t width = traffic_aware != 0
        ? memoryFeatureNames().size()
        : hw::PerfCounters::featureNames().size();
    std::vector<ml::GradientBoostingRegressor> models(count);
    for (std::size_t i = 0; i < count; ++i) {
        if (!models[i].load(in)) {
            return sectionError(
                "memory model",
                strf("sub-model %zu of %zu failed to parse", i + 1,
                     count));
        }
        if (auto bad = featureOutOfRange(models[i], width)) {
            return sectionError("memory model",
                                strf("sub-model %zu of %zu: %s", i + 1,
                                     count, bad->c_str()));
        }
    }
    models_ = std::move(models);
    opts_.seeds = static_cast<int>(count);
    opts_.trafficAware = traffic_aware != 0;
    fitted_ = true;
    return Status::ok();
}

Status
AccelQueueModel::save(std::ostream &out) const
{
    if (!calibrated_) {
        return Status::failedPrecondition(
            "AccelQueueModel::save before calibrate");
    }
    out << "accel_model " << queues_ << " ";
    writeSerialDouble(out, t0_);
    out << " ";
    writeSerialDouble(out, byteSlope_);
    out << " ";
    writeSerialDouble(out, matchSlope_);
    out << "\n";
    return Status::ok();
}

Status
AccelQueueModel::load(std::istream &in)
{
    if (!expectToken(in, "accel_model")) {
        return sectionError("accelerator model",
                            "missing 'accel_model' tag");
    }
    int queues = 0;
    double t0 = 0.0, bs = 0.0, ms = 0.0;
    in >> queues >> t0 >> bs >> ms;
    if (!in)
        return sectionError("accelerator model", "unreadable fields");
    if (queues < 1 || queues > kMaxAccelQueues) {
        return sectionError(
            "accelerator model",
            strf("queue count %d outside [1, %d]", queues,
                 kMaxAccelQueues));
    }
    queues_ = queues;
    t0_ = t0;
    byteSlope_ = bs;
    matchSlope_ = ms;
    calibrated_ = true;
    return Status::ok();
}

Status
TomurModel::save(std::ostream &out) const
{
    // Serialize the body first so the header can carry its length
    // and checksum.
    std::ostringstream body;
    body << "nf " << (nfName_.empty() ? "-" : nfName_) << "\n";
    body << "pattern "
         << (pattern_ == framework::ExecutionPattern::Pipeline
                 ? "pl"
                 : "rtc")
         << "\n";
    body << "health " << (health_.soloDegraded ? 1 : 0) << " "
         << (health_.memoryDegraded ? 1 : 0);
    for (int k = 0; k < hw::numAccelKinds; ++k)
        body << " " << (health_.accelDegraded[k] ? 1 : 0);
    body << "\n";
    if (auto s = memory_.save(body); !s)
        return s.withContext("TomurModel::save");
    body << "solo_models " << soloModels_.size() << "\n";
    for (const auto &m : soloModels_)
        m.save(body);
    for (int k = 0; k < hw::numAccelKinds; ++k) {
        body << "accel " << k << " " << (accel_[k] ? 1 : 0) << "\n";
        if (accel_[k]) {
            if (auto s = accel_[k]->save(body); !s)
                return s.withContext("TomurModel::save");
        }
    }

    std::string bytes = body.str();
    out << "tomur_model " << kFormatVersion << " " << bytes.size()
        << " " << std::hex << modelBodyChecksum(bytes) << std::dec
        << "\n";
    out << bytes;
    if (!out)
        return Status::ioError("TomurModel::save: stream write failed");
    return Status::ok();
}

Status
TomurModel::load(std::istream &in)
{
    // ---- Header: magic, version, body length, checksum ----
    if (!expectToken(in, "tomur_model")) {
        return Status::corruptData(
            "header section: missing 'tomur_model' tag");
    }
    int version = 0;
    in >> version;
    if (!in || version != kFormatVersion) {
        return Status::corruptData(strf(
            "header section: unsupported format version %d "
            "(expected %d)",
            version, kFormatVersion));
    }
    std::size_t body_bytes = 0;
    std::string checksum_hex;
    in >> body_bytes >> checksum_hex;
    if (!in) {
        return Status::corruptData(
            "header section: unreadable length/checksum");
    }
    if (body_bytes == 0 || body_bytes > kMaxBodyBytes) {
        return Status::corruptData(
            strf("header section: body length %zu outside [1, %zu]",
                 body_bytes, kMaxBodyBytes));
    }
    std::uint64_t declared = 0;
    try {
        std::size_t pos = 0;
        declared = std::stoull(checksum_hex, &pos, 16);
        if (pos != checksum_hex.size())
            throw std::invalid_argument(checksum_hex);
    } catch (const std::exception &) {
        return Status::corruptData(
            strf("header section: bad checksum token '%s'",
                 checksum_hex.c_str()));
    }
    in.get(); // the newline ending the header line

    std::string bytes(body_bytes, '\0');
    in.read(bytes.data(), static_cast<std::streamsize>(body_bytes));
    if (in.gcount() != static_cast<std::streamsize>(body_bytes)) {
        return Status::corruptData(
            strf("header section: truncated body (%zd of %zu bytes)",
                 static_cast<std::ptrdiff_t>(in.gcount()),
                 body_bytes));
    }
    std::uint64_t actual = modelBodyChecksum(bytes);
    if (actual != declared) {
        return Status::corruptData(strf(
            "checksum mismatch: body hashes to %llx, header says "
            "%llx (file damaged in transit or storage)",
            static_cast<unsigned long long>(actual),
            static_cast<unsigned long long>(declared)));
    }

    // ---- Body: parse into temporaries, commit only on success ----
    std::istringstream body(bytes);
    if (!expectToken(body, "nf"))
        return Status::corruptData("nf section: missing 'nf' tag");
    std::string name;
    body >> name;
    if (!body)
        return Status::corruptData("nf section: missing NF name");
    if (!expectToken(body, "pattern")) {
        return Status::corruptData(
            "pattern section: missing 'pattern' tag");
    }
    std::string pat;
    body >> pat;
    if (pat != "pl" && pat != "rtc") {
        return Status::corruptData(strf(
            "pattern section: unknown execution pattern '%s'",
            pat.c_str()));
    }

    if (!expectToken(body, "health")) {
        return Status::corruptData(
            "health section: missing 'health' tag");
    }
    ModelHealth health;
    int solo_deg = 0, mem_deg = 0;
    body >> solo_deg >> mem_deg;
    if (!body)
        return Status::corruptData("health section: unreadable flags");
    health.soloDegraded = solo_deg != 0;
    health.memoryDegraded = mem_deg != 0;
    for (int k = 0; k < hw::numAccelKinds; ++k) {
        int deg = 0;
        body >> deg;
        if (!body) {
            return Status::corruptData(
                "health section: unreadable accelerator flags");
        }
        health.accelDegraded[k] = deg != 0;
    }

    MemoryModel memory;
    if (auto s = memory.load(body); !s)
        return s;

    if (!expectToken(body, "solo_models")) {
        return Status::corruptData(
            "solo models section: missing 'solo_models' tag");
    }
    std::size_t n_solo = 0;
    body >> n_solo;
    if (!body) {
        return Status::corruptData(
            "solo models section: unreadable count");
    }
    if (n_solo == 0 || n_solo > kMaxEnsembleModels) {
        return Status::corruptData(
            strf("solo models section: ensemble size %zu outside "
                 "[1, %zu]",
                 n_solo, kMaxEnsembleModels));
    }
    std::vector<ml::GradientBoostingRegressor> solos(n_solo);
    for (std::size_t i = 0; i < n_solo; ++i) {
        if (!solos[i].load(body)) {
            return Status::corruptData(
                strf("solo models section: sub-model %zu of %zu "
                     "failed to parse",
                     i + 1, n_solo));
        }
        // The solo model reads the traffic vector only.
        if (auto bad = featureOutOfRange(
                solos[i], static_cast<std::size_t>(
                              traffic::numAttributes))) {
            return sectionError("solo models",
                                strf("sub-model %zu of %zu: %s", i + 1,
                                     n_solo, bad->c_str()));
        }
    }

    std::optional<AccelQueueModel> accel[hw::numAccelKinds];
    for (int k = 0; k < hw::numAccelKinds; ++k) {
        if (!expectToken(body, "accel")) {
            return Status::corruptData(strf(
                "accelerator section %d: missing 'accel' tag", k));
        }
        int idx = -1, present = 0;
        body >> idx >> present;
        if (!body || idx != k) {
            return Status::corruptData(strf(
                "accelerator section %d: bad kind index", k));
        }
        if (present) {
            AccelQueueModel m;
            if (auto s = m.load(body); !s)
                return s.withContext(
                    strf("accelerator section %d", k));
            accel[k] = std::move(m);
        }
    }

    nfName_ = name == "-" ? std::string() : name;
    pattern_ = pat == "pl"
        ? framework::ExecutionPattern::Pipeline
        : framework::ExecutionPattern::RunToCompletion;
    health_ = health;
    memory_ = std::move(memory);
    soloModels_ = std::move(solos);
    for (int k = 0; k < hw::numAccelKinds; ++k)
        accel_[k] = std::move(accel[k]);
    return Status::ok();
}

} // namespace tomur::core
