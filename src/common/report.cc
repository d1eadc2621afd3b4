#include "common/report.hh"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>

#include "common/strutil.hh"

namespace tomur {

namespace {

/** Monitor wire names, in MonitorEventKind order. Kept as literals:
 *  common/ sits below tomur/ in the layering, so the renderer parses
 *  the serialized stream rather than including the monitor header. */
const char *const kEventNames[5] = {
    "DRIFT_DETECTED",
    "ACCURACY_DEGRADED",
    "TRAFFIC_SHIFT",
    "RECALIBRATION_RECOMMENDED",
    "ACCURACY_RECOVERED",
};

/** Supervisor wire names, in SupervisorEventKind order (same
 *  layering note as above). */
const char *const kSupervisorEventNames[9] = {
    "RECALIBRATION_STARTED",
    "RECALIBRATION_SUCCEEDED",
    "RECALIBRATION_FAILED",
    "BREAKER_OPENED",
    "BREAKER_HALF_OPEN",
    "BREAKER_CLOSED",
    "DEADLINE_MISSED",
    "RETRY_BUDGET_EXHAUSTED",
    "CHECKPOINT_WRITTEN",
};

/** Most recent raw event lines kept in the digest. */
constexpr std::size_t kLastEvents = 8;

} // namespace

const char *const kVerdictNames[7] = {
    "ok", "shed", "throttled", "deadline",
    "error", "parse", "dropped",
};

namespace {

/** Extract the string value of "key" from a flat JSON line. */
std::string
jsonField(const std::string &line, const std::string &key)
{
    std::string tag = "\"" + key + "\":\"";
    auto pos = line.find(tag);
    if (pos == std::string::npos)
        return "";
    pos += tag.size();
    std::string out;
    while (pos < line.size() && line[pos] != '"') {
        if (line[pos] == '\\' && pos + 1 < line.size())
            ++pos; // keep the escaped char, drop the backslash
        out.push_back(line[pos]);
        ++pos;
    }
    return out;
}

/** Extract the numeric value of "key" from a flat JSON line. */
double
jsonNumber(const std::string &line, const std::string &key,
           double fallback = 0.0)
{
    std::string tag = "\"" + key + "\":";
    auto pos = line.find(tag);
    if (pos == std::string::npos)
        return fallback;
    return std::strtod(line.c_str() + pos + tag.size(), nullptr);
}

/** Extract an unsigned integer "key" from a flat JSON line (0 when
 *  absent); exact for 64-bit ids and nanosecond timestamps. */
std::uint64_t
jsonUnsigned(const std::string &line, const std::string &key)
{
    std::string tag = "\"" + key + "\":";
    auto pos = line.find(tag);
    if (pos == std::string::npos)
        return 0;
    return std::strtoull(line.c_str() + pos + tag.size(), nullptr, 10);
}

std::string
htmlEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '&':
            out += "&amp;";
            break;
          case '<':
            out += "&lt;";
            break;
          case '>':
            out += "&gt;";
            break;
          case '"':
            out += "&quot;";
            break;
          default:
            out.push_back(c);
        }
    }
    return out;
}

} // namespace

std::vector<MetricSample>
parseMetricsText(const std::string &body)
{
    std::vector<MetricSample> out;
    std::istringstream in(body);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        // Histogram bucket series would swamp the table; the _sum
        // and _count series carry the aggregate.
        if (line.find("_bucket{") != std::string::npos)
            continue;
        auto space = line.rfind(' ');
        if (space == std::string::npos || space == 0)
            continue;
        MetricSample s;
        s.name = line.substr(0, space);
        s.value = std::strtod(line.c_str() + space + 1, nullptr);
        out.push_back(std::move(s));
    }
    return out;
}

std::vector<TraceNameStats>
parseTraceJsonl(const std::string &body)
{
    struct SpanTimes
    {
        std::string name;
        std::uint64_t parent = 0, start = 0, end = 0;
    };
    std::map<std::string, TraceNameStats> by_name;
    std::map<std::uint64_t, SpanTimes> spans; ///< by span id
    std::istringstream in(body);
    std::string line;
    while (std::getline(in, line)) {
        std::string name = jsonField(line, "name");
        if (name.empty())
            continue;
        auto &st = by_name[name];
        st.name = name;
        ++st.count;
        auto dur = jsonUnsigned(line, "dur_ns");
        st.totalDurNs += dur;
        if (auto id = jsonUnsigned(line, "id"); id != 0) {
            auto start = jsonUnsigned(line, "start_ns");
            spans[id] = {name, jsonUnsigned(line, "parent"), start,
                         start + dur};
        }
    }

    // Self time: a span's duration minus the union of its children's
    // intervals (clipped to the span), the same fold as perfbench.
    std::map<std::uint64_t,
             std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children;
    for (const auto &[id, sp] : spans) {
        if (sp.parent != 0)
            children[sp.parent].emplace_back(sp.start, sp.end);
    }
    for (const auto &[id, sp] : spans) {
        std::uint64_t covered = 0;
        if (auto it = children.find(id); it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::uint64_t reach = sp.start;
            for (auto [a, b] : iv) {
                a = std::max(a, reach);
                b = std::min(b, sp.end);
                if (b > a) {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        by_name[sp.name].selfDurNs += (sp.end - sp.start) - covered;
    }

    std::vector<TraceNameStats> out;
    out.reserve(by_name.size());
    for (auto &kv : by_name)
        out.push_back(std::move(kv.second));
    std::sort(out.begin(), out.end(),
              [](const TraceNameStats &a, const TraceNameStats &b) {
                  if (a.totalDurNs != b.totalDurNs)
                      return a.totalDurNs > b.totalDurNs;
                  return a.name < b.name;
              });
    return out;
}

MonitorDigest
parseMonitorJsonl(const std::string &body)
{
    MonitorDigest d;
    std::istringstream in(body);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("{\"summary\":") == 0) {
            d.summaryLine = line;
            if (line.find("\"recovery\":{") != std::string::npos) {
                d.hasRecovery = true;
                d.recoveryCount = jsonNumber(line, "count");
                d.recoveryMeanSamples = std::strtod(
                    jsonField(line, "mean").c_str(), nullptr);
                d.recoveryMaxSamples = jsonNumber(line, "max");
                d.recoveryOpen = jsonNumber(line, "open") != 0.0;
            }
            continue;
        }
        if (line.find("{\"supervisor_summary\":") == 0) {
            d.hasSupervisor = true;
            d.supervisorSummaryLine = line;
            d.deadlineMisses =
                jsonNumber(line, "deadline_misses");
            continue;
        }
        std::string sup = jsonField(line, "supervisor_event");
        if (!sup.empty()) {
            d.hasSupervisor = true;
            for (int k = 0; k < 9; ++k) {
                if (sup == kSupervisorEventNames[k]) {
                    ++d.supervisorEventCounts[k];
                    break;
                }
            }
            d.lastEvents.push_back(line);
            if (d.lastEvents.size() > kLastEvents)
                d.lastEvents.erase(d.lastEvents.begin());
            continue;
        }
        std::string kind = jsonField(line, "event");
        if (kind.empty())
            continue;
        for (int k = 0; k < 5; ++k) {
            if (kind == kEventNames[k]) {
                ++d.eventCounts[k];
                break;
            }
        }
        d.lastEvents.push_back(line);
        if (d.lastEvents.size() > kLastEvents)
            d.lastEvents.erase(d.lastEvents.begin());
    }
    return d;
}

SloDigest
parseSloJsonl(const std::string &body)
{
    SloDigest d;
    std::istringstream in(body);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("{\"slo_summary\":") == 0) {
            d.hasSummary = true;
            d.eventsDropped = jsonNumber(line, "events_dropped");
            // The objectives array is a nested list on one line;
            // carve it out and digest each {...} element with the
            // flat-field helpers (every field inside is scalar).
            std::string open = "\"objectives\":[";
            auto start = line.find(open);
            if (start == std::string::npos)
                continue;
            start += open.size();
            auto end = line.find(']', start);
            if (end == std::string::npos)
                continue;
            std::string arr = line.substr(start, end - start);
            std::size_t pos = 0;
            while (pos < arr.size()) {
                auto close = arr.find('}', pos);
                if (close == std::string::npos)
                    break;
                std::string obj = arr.substr(pos, close + 1 - pos);
                SloObjectiveRow row;
                row.name = jsonField(obj, "name");
                row.kind = jsonField(obj, "kind");
                row.target = std::strtod(
                    jsonField(obj, "target").c_str(), nullptr);
                row.total = jsonNumber(obj, "total");
                row.bad = jsonNumber(obj, "bad");
                row.fastBurn = std::strtod(
                    jsonField(obj, "fast_burn").c_str(), nullptr);
                row.slowBurn = std::strtod(
                    jsonField(obj, "slow_burn").c_str(), nullptr);
                row.budgetRemaining = std::strtod(
                    jsonField(obj, "budget_remaining").c_str(),
                    nullptr);
                row.burning =
                    obj.find("\"burning\":true") != std::string::npos;
                row.burnEvents = jsonNumber(obj, "burn_events");
                row.recoveredEvents =
                    jsonNumber(obj, "recovered_events");
                if (!row.name.empty())
                    d.objectives.push_back(std::move(row));
                pos = close + 1;
                if (pos < arr.size() && arr[pos] == ',')
                    ++pos;
            }
            continue;
        }
        std::string kind = jsonField(line, "event");
        if (kind == "SLO_BURN")
            ++d.burnEvents;
        else if (kind == "SLO_RECOVERED")
            ++d.recoveredEvents;
        else
            continue;
        d.lastEvents.push_back(line);
        if (d.lastEvents.size() > kLastEvents)
            d.lastEvents.erase(d.lastEvents.begin());
    }
    return d;
}

AccessDigest
parseAccessJsonl(const std::string &body)
{
    AccessDigest d;
    std::istringstream in(body);
    std::string line;
    while (std::getline(in, line)) {
        std::string verdict = jsonField(line, "verdict");
        if (verdict.empty())
            continue;
        ++d.records;
        int status = static_cast<int>(jsonNumber(line, "status"));
        int cls = status / 100;
        d.statusClass[(cls >= 1 && cls <= 5) ? cls : 0] += 1;
        for (int k = 0; k < 7; ++k) {
            if (verdict == kVerdictNames[k]) {
                ++d.verdictCounts[k];
                break;
            }
        }
        if (line.find("\"deadline_miss\":true") != std::string::npos)
            ++d.deadlineMisses;
        d.totalHandleMs += jsonNumber(line, "handle_ms");
    }
    return d;
}

ChaosDigest
parseChaosJsonl(const std::string &body)
{
    ChaosDigest d;
    std::istringstream in(body);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"chaos_summary\"") != std::string::npos) {
            d.hasSummary = true;
            d.crashes = jsonNumber(line, "crashes");
            d.resumes = jsonNumber(line, "resumes");
            d.faultsInjected = jsonNumber(line, "faults_injected");
            d.determinismReruns =
                jsonNumber(line, "determinism_reruns");
            d.shrinkIterations =
                jsonNumber(line, "shrink_iterations");
            continue;
        }
        if (line.find("\"chaos_plan\"") == std::string::npos)
            continue;
        ++d.plans;
        auto violations = static_cast<std::size_t>(
            jsonNumber(line, "violations"));
        d.violations += violations;
        if (violations > 0) {
            ++d.violatingPlans;
            d.violatingLines.push_back(line);
            if (d.violatingLines.size() > kLastEvents)
                d.violatingLines.erase(d.violatingLines.begin());
        }
        // Walk the verdicts object: "name":"pass" / "name":"FAIL".
        std::string open = "\"verdicts\":{";
        auto start = line.find(open);
        if (start == std::string::npos)
            continue;
        start += open.size();
        auto end = line.find('}', start);
        if (end == std::string::npos)
            continue;
        std::string obj = line.substr(start, end - start);
        std::size_t pos = 0;
        while ((pos = obj.find('"', pos)) != std::string::npos) {
            auto nameEnd = obj.find('"', pos + 1);
            if (nameEnd == std::string::npos)
                break;
            std::string name = obj.substr(pos + 1,
                                          nameEnd - pos - 1);
            auto valStart = obj.find('"', nameEnd + 1);
            if (valStart == std::string::npos)
                break;
            auto valEnd = obj.find('"', valStart + 1);
            if (valEnd == std::string::npos)
                break;
            std::string val =
                obj.substr(valStart + 1, valEnd - valStart - 1);
            ChaosInvariantRow *row = nullptr;
            for (auto &r : d.invariants) {
                if (r.name == name) {
                    row = &r;
                    break;
                }
            }
            if (!row) {
                d.invariants.push_back({name, 0, 0});
                row = &d.invariants.back();
            }
            if (val == "pass")
                ++row->passes;
            else
                ++row->failures;
            pos = valEnd + 1;
        }
    }
    return d;
}

Result<std::string>
renderReport(const ReportArtifacts &artifacts,
             const ReportOptions &opts)
{
    if (artifacts.metricsText.empty() &&
        artifacts.traceJsonl.empty() &&
        artifacts.monitorJsonl.empty() &&
        artifacts.sloJsonl.empty() &&
        artifacts.accessJsonl.empty() &&
        artifacts.chaosJsonl.empty()) {
        return Status::invalidArgument(
            "no artifacts to render (metrics, trace, monitor, SLO, "
            "access, and chaos streams are all empty)");
    }

    auto metric_samples = parseMetricsText(artifacts.metricsText);
    auto trace_stats = parseTraceJsonl(artifacts.traceJsonl);
    auto monitor = parseMonitorJsonl(artifacts.monitorJsonl);
    auto slo = parseSloJsonl(artifacts.sloJsonl);
    auto access = parseAccessJsonl(artifacts.accessJsonl);
    auto chaos = parseChaosJsonl(artifacts.chaosJsonl);
    bool have_monitor = !artifacts.monitorJsonl.empty();
    bool have_slo = !artifacts.sloJsonl.empty();
    bool have_access = access.records > 0;
    bool have_chaos = chaos.plans > 0;

    std::string out;
    if (!opts.html) {
        out += "== " + opts.title + " ==\n";
        if (have_monitor) {
            out += "\n-- Monitor events --\n";
            for (int k = 0; k < 5; ++k) {
                out += strf("%-26s %zu\n", kEventNames[k],
                            monitor.eventCounts[k]);
            }
            if (monitor.hasRecovery) {
                out += "\n-- Recovery (regime change -> recovered "
                       "accuracy) --\n";
                out += strf("%-26s %.0f\n", "recoveries",
                            monitor.recoveryCount);
                out += strf("%-26s %.1f\n",
                            "mean recovery (samples)",
                            monitor.recoveryMeanSamples);
                out += strf("%-26s %.0f\n",
                            "max recovery (samples)",
                            monitor.recoveryMaxSamples);
                out += strf("%-26s %s\n", "open regime",
                            monitor.recoveryOpen ? "yes" : "no");
            }
            if (!monitor.lastEvents.empty()) {
                out += "recent events:\n";
                for (const auto &e : monitor.lastEvents)
                    out += "  " + e + "\n";
            }
            if (!monitor.summaryLine.empty())
                out += "summary: " + monitor.summaryLine + "\n";
        }
        if (monitor.hasSupervisor) {
            out += "\n-- Supervisor events --\n";
            for (int k = 0; k < 9; ++k) {
                out += strf("%-26s %zu\n", kSupervisorEventNames[k],
                            monitor.supervisorEventCounts[k]);
            }
            out += strf("deadline misses            %.0f\n",
                        monitor.deadlineMisses);
            if (!monitor.supervisorSummaryLine.empty()) {
                out += "supervisor summary: " +
                       monitor.supervisorSummaryLine + "\n";
            }
        }
        if (have_slo) {
            out += "\n-- SLO objectives --\n";
            out += strf("%-24s %-12s %8s %8s %6s %9s %9s %7s %s\n",
                        "name", "kind", "target", "total", "bad",
                        "fast", "slow", "budget", "state");
            for (const auto &o : slo.objectives) {
                out += strf(
                    "%-24s %-12s %8.4f %8.0f %6.0f %9.3f %9.3f "
                    "%7.3f %s\n",
                    o.name.c_str(), o.kind.c_str(), o.target,
                    o.total, o.bad, o.fastBurn, o.slowBurn,
                    o.budgetRemaining,
                    o.burning ? "BURNING" : "ok");
            }
            out += strf("%-26s %zu\n", "SLO_BURN",
                        slo.burnEvents);
            out += strf("%-26s %zu\n", "SLO_RECOVERED",
                        slo.recoveredEvents);
            if (slo.eventsDropped > 0) {
                out += strf("%-26s %.0f\n", "events dropped",
                            slo.eventsDropped);
            }
            if (!slo.lastEvents.empty()) {
                out += "recent slo events:\n";
                for (const auto &e : slo.lastEvents)
                    out += "  " + e + "\n";
            }
        }
        if (have_access) {
            out += strf("\n-- Access log (%zu records) --\n",
                        access.records);
            static const char *const cls[6] = {
                "no answer", "1xx", "2xx", "3xx", "4xx", "5xx"};
            for (int k = 0; k < 6; ++k) {
                if (access.statusClass[k] > 0)
                    out += strf("%-26s %zu\n", cls[k],
                                access.statusClass[k]);
            }
            std::string verdicts;
            for (int k = 0; k < 7; ++k) {
                if (access.verdictCounts[k] == 0)
                    continue;
                if (!verdicts.empty())
                    verdicts += " ";
                verdicts += strf("%s=%zu", kVerdictNames[k],
                                 access.verdictCounts[k]);
            }
            out += "verdicts: " + verdicts + "\n";
            out += strf("%-26s %zu\n", "deadline misses",
                        access.deadlineMisses);
            std::size_t answered = access.records -
                                   access.statusClass[0];
            if (answered > 0) {
                out += strf("%-26s %.3f\n", "mean handle ms",
                            access.totalHandleMs /
                                static_cast<double>(answered));
            }
        }
        if (have_chaos) {
            out += strf("\n-- Chaos campaign (%zu plans) --\n",
                        chaos.plans);
            out += strf("%-26s %10s %10s\n", "invariant", "pass",
                        "fail");
            for (const auto &r : chaos.invariants) {
                out += strf("%-26s %10zu %10zu\n", r.name.c_str(),
                            r.passes, r.failures);
            }
            out += strf("%-26s %zu (%zu plans)\n", "violations",
                        chaos.violations, chaos.violatingPlans);
            if (chaos.hasSummary) {
                out += strf("%-26s %.0f\n", "crashes injected",
                            chaos.crashes);
                out += strf("%-26s %.0f\n", "checkpoint resumes",
                            chaos.resumes);
                out += strf("%-26s %.0f\n", "faults injected",
                            chaos.faultsInjected);
                out += strf("%-26s %.0f\n", "determinism re-runs",
                            chaos.determinismReruns);
                out += strf("%-26s %.0f\n", "shrink iterations",
                            chaos.shrinkIterations);
            }
            if (!chaos.violatingLines.empty()) {
                out += "violating plans:\n";
                for (const auto &l : chaos.violatingLines)
                    out += "  " + l + "\n";
            }
        }
        if (!trace_stats.empty()) {
            out += strf("\n-- Trace spans (%zu names) --\n",
                        trace_stats.size());
            out += strf("%-40s %10s %12s %12s\n", "name", "count",
                        "total ms", "self ms");
            for (const auto &t : trace_stats) {
                out += strf("%-40s %10zu %12.3f %12.3f\n",
                            t.name.c_str(), t.count,
                            static_cast<double>(t.totalDurNs) / 1e6,
                            static_cast<double>(t.selfDurNs) / 1e6);
            }
        }
        if (!metric_samples.empty()) {
            out += strf("\n-- Metrics (%zu series) --\n",
                        metric_samples.size());
            for (const auto &m : metric_samples)
                out += strf("%-56s %s\n", m.name.c_str(),
                            fmtDouble(m.value, 6).c_str());
        }
        return out;
    }

    // Self-contained HTML: inline style, no external assets.
    out += "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">";
    out += "<title>" + htmlEscape(opts.title) + "</title>\n";
    out += "<style>body{font-family:monospace;margin:2em;}"
           "table{border-collapse:collapse;margin-bottom:2em;}"
           "th,td{border:1px solid #999;padding:4px 8px;"
           "text-align:left;}th{background:#eee;}"
           "h2{border-bottom:2px solid #333;}</style></head><body>\n";
    out += "<h1>" + htmlEscape(opts.title) + "</h1>\n";
    if (have_monitor) {
        out += "<h2>Monitor events</h2>\n<table>"
               "<tr><th>kind</th><th>count</th></tr>\n";
        for (int k = 0; k < 5; ++k) {
            out += strf("<tr><td>%s</td><td>%zu</td></tr>\n",
                        kEventNames[k], monitor.eventCounts[k]);
        }
        out += "</table>\n";
        if (monitor.hasRecovery) {
            out += "<h2>Recovery</h2>\n<table>"
                   "<tr><th>recoveries</th>"
                   "<th>mean (samples)</th><th>max (samples)</th>"
                   "<th>open regime</th></tr>\n";
            out += strf("<tr><td>%.0f</td><td>%.1f</td>"
                        "<td>%.0f</td><td>%s</td></tr>\n",
                        monitor.recoveryCount,
                        monitor.recoveryMeanSamples,
                        monitor.recoveryMaxSamples,
                        monitor.recoveryOpen ? "yes" : "no");
            out += "</table>\n";
        }
        if (!monitor.lastEvents.empty()) {
            out += "<h2>Recent events</h2>\n<pre>";
            for (const auto &e : monitor.lastEvents)
                out += htmlEscape(e) + "\n";
            out += "</pre>\n";
        }
        if (!monitor.summaryLine.empty()) {
            out += "<h2>Summary</h2>\n<pre>" +
                   htmlEscape(monitor.summaryLine) + "</pre>\n";
        }
        if (monitor.hasSupervisor) {
            out += "<h2>Supervisor events</h2>\n<table>"
                   "<tr><th>kind</th><th>count</th></tr>\n";
            for (int k = 0; k < 9; ++k) {
                out += strf("<tr><td>%s</td><td>%zu</td></tr>\n",
                            kSupervisorEventNames[k],
                            monitor.supervisorEventCounts[k]);
            }
            out += strf("<tr><td>deadline misses</td>"
                        "<td>%.0f</td></tr>\n",
                        monitor.deadlineMisses);
            out += "</table>\n";
            if (!monitor.supervisorSummaryLine.empty()) {
                out += "<h2>Supervisor summary</h2>\n<pre>" +
                       htmlEscape(monitor.supervisorSummaryLine) +
                       "</pre>\n";
            }
        }
    }
    if (have_slo) {
        out += "<h2>SLO objectives</h2>\n<table>"
               "<tr><th>name</th><th>kind</th><th>target</th>"
               "<th>total</th><th>bad</th><th>fast burn</th>"
               "<th>slow burn</th><th>budget</th>"
               "<th>state</th></tr>\n";
        for (const auto &o : slo.objectives) {
            out += strf("<tr><td>%s</td><td>%s</td><td>%.4f</td>"
                        "<td>%.0f</td><td>%.0f</td><td>%.3f</td>"
                        "<td>%.3f</td><td>%.3f</td>"
                        "<td>%s</td></tr>\n",
                        htmlEscape(o.name).c_str(),
                        htmlEscape(o.kind).c_str(), o.target,
                        o.total, o.bad, o.fastBurn, o.slowBurn,
                        o.budgetRemaining,
                        o.burning ? "BURNING" : "ok");
        }
        out += "</table>\n";
        out += strf("<p>SLO_BURN events: %zu &middot; "
                    "SLO_RECOVERED events: %zu</p>\n",
                    slo.burnEvents, slo.recoveredEvents);
        if (!slo.lastEvents.empty()) {
            out += "<h2>Recent SLO events</h2>\n<pre>";
            for (const auto &e : slo.lastEvents)
                out += htmlEscape(e) + "\n";
            out += "</pre>\n";
        }
    }
    if (have_access) {
        out += strf("<h2>Access log (%zu records)</h2>\n",
                    access.records);
        out += "<table><tr><th>outcome</th><th>count</th></tr>\n";
        static const char *const cls[6] = {
            "no answer", "1xx", "2xx", "3xx", "4xx", "5xx"};
        for (int k = 0; k < 6; ++k) {
            if (access.statusClass[k] > 0)
                out += strf("<tr><td>%s</td><td>%zu</td></tr>\n",
                            cls[k], access.statusClass[k]);
        }
        for (int k = 0; k < 7; ++k) {
            if (access.verdictCounts[k] > 0)
                out += strf("<tr><td>verdict %s</td>"
                            "<td>%zu</td></tr>\n",
                            kVerdictNames[k],
                            access.verdictCounts[k]);
        }
        out += strf("<tr><td>deadline misses</td>"
                    "<td>%zu</td></tr>\n",
                    access.deadlineMisses);
        out += "</table>\n";
    }
    if (have_chaos) {
        out += strf("<h2>Chaos campaign (%zu plans)</h2>\n",
                    chaos.plans);
        out += "<table><tr><th>invariant</th><th>pass</th>"
               "<th>fail</th></tr>\n";
        for (const auto &r : chaos.invariants) {
            out += strf("<tr><td>%s</td><td>%zu</td>"
                        "<td>%zu</td></tr>\n",
                        htmlEscape(r.name).c_str(), r.passes,
                        r.failures);
        }
        out += "</table>\n";
        out += strf("<p>violations: %zu (%zu plans)",
                    chaos.violations, chaos.violatingPlans);
        if (chaos.hasSummary) {
            out += strf(" &middot; crashes %.0f &middot; resumes "
                        "%.0f &middot; faults %.0f &middot; "
                        "determinism re-runs %.0f &middot; shrink "
                        "iterations %.0f",
                        chaos.crashes, chaos.resumes,
                        chaos.faultsInjected,
                        chaos.determinismReruns,
                        chaos.shrinkIterations);
        }
        out += "</p>\n";
        if (!chaos.violatingLines.empty()) {
            out += "<h2>Violating plans</h2>\n<pre>";
            for (const auto &l : chaos.violatingLines)
                out += htmlEscape(l) + "\n";
            out += "</pre>\n";
        }
    }
    if (!trace_stats.empty()) {
        out += "<h2>Trace spans</h2>\n<table>"
               "<tr><th>name</th><th>count</th>"
               "<th>total ms</th><th>self ms</th></tr>\n";
        for (const auto &t : trace_stats) {
            out += strf("<tr><td>%s</td><td>%zu</td>"
                        "<td>%.3f</td><td>%.3f</td></tr>\n",
                        htmlEscape(t.name).c_str(), t.count,
                        static_cast<double>(t.totalDurNs) / 1e6,
                        static_cast<double>(t.selfDurNs) / 1e6);
        }
        out += "</table>\n";
    }
    if (!metric_samples.empty()) {
        out += "<h2>Metrics</h2>\n<table>"
               "<tr><th>series</th><th>value</th></tr>\n";
        for (const auto &m : metric_samples) {
            out += strf("<tr><td>%s</td><td>%s</td></tr>\n",
                        htmlEscape(m.name).c_str(),
                        fmtDouble(m.value, 6).c_str());
        }
        out += "</table>\n";
    }
    out += "</body></html>\n";
    return out;
}

} // namespace tomur
