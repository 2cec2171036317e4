/**
 * @file
 * Result line, statistics, host facts and span recorder (report.hpp).
 */
#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "machine/machine.hpp"
#include "support/trace.hpp"

namespace polymage::perfbench {

namespace {

const Clock::time_point kStart = Clock::now();

/** Open thread spans of the calling thread, innermost last. */
thread_local std::vector<int> tlsOpen;

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::int64_t
sinceStartNs(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                kStart)
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const auto lo = std::size_t(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / double(v.size()));
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KB
}

std::string
hostFactsJson()
{
    std::string gxx;
    if (FILE *p = popen("g++ --version 2>/dev/null", "r")) {
        char buf[256];
        if (std::fgets(buf, sizeof buf, p) != nullptr)
            gxx = buf;
        pclose(p);
    }
    while (!gxx.empty() && (gxx.back() == '\n' || gxx.back() == '\r'))
        gxx.pop_back();
    const machine::MachineInfo &m = machine::machineInfo();
    obs::JsonWriter w;
    w.beginObject();
    w.key("nproc").value(std::int64_t(sysconf(_SC_NPROCESSORS_ONLN)));
    w.key("hardware_concurrency")
        .value(std::int64_t(std::thread::hardware_concurrency()));
    w.key("gxx").value(gxx);
    w.key("l1d_kb").value(m.l1dBytes / 1024);
    w.key("l2_kb").value(m.l2Bytes / 1024);
    w.key("l3_kb").value(m.l3Bytes / 1024);
    w.key("isa").value(m.isa);
    w.key("vector_bits").value(m.vectorBits);
    w.key("machine_source").value(m.source);
    w.endObject();
    return w.str();
}

void
Result::add(const std::string &name, double value,
            const std::string &unit)
{
    if (!std::isfinite(value)) {
        std::fprintf(stderr, "metric %s is not finite; failing\n",
                     name.c_str());
        fail("non-finite metric " + name);
        return;
    }
    metrics_.push_back({name, value, unit});
}

void
Result::attempt(bool ok, std::int64_t n)
{
    attempted_ += n;
    if (!ok)
        failed_ += n;
}

void
Result::fail(const std::string &why)
{
    std::fprintf(stderr, "FAILED: %s\n", why.c_str());
    attempted_ += 1;
    failed_ += 1;
}

std::string
Result::json() const
{
    std::string s = "{\"correct\": ";
    s += correct() ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted_);
    s += ", \"failed\": " + std::to_string(failed_);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        if (i > 0)
            s += ", ";
        s += "\"" + metrics_[i].name + "\": {\"value\": " +
             fmt(metrics_[i].value) + ", \"unit\": \"" +
             metrics_[i].unit + "\"}";
    }
    s += "}}";
    return s;
}

Tracer::Scope::Scope(Tracer &t, const char *layer, std::string name)
    : tracer_(t)
{
    if (t.enabled_)
        index_ = t.open(layer, std::move(name));
}

Tracer::Scope::~Scope()
{
    if (index_ >= 0)
        tracer_.close(index_);
}

int
Tracer::open(const char *layer, std::string name)
{
    const std::int64_t now = sinceStartNs(Clock::now());
    const auto self =
        std::hash<std::thread::id>()(std::this_thread::get_id());
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.layer = layer;
    s.name = std::move(name);
    s.startNs = now;
    s.endNs = now;
    s.parent = tlsOpen.empty() ? -1 : tlsOpen.back();
    s.tid = tids_.emplace(self, int(tids_.size()) + 1).first->second;
    spans_.push_back(std::move(s));
    const int index = int(spans_.size()) - 1;
    tlsOpen.push_back(index);
    return index;
}

void
Tracer::close(int index)
{
    const std::int64_t now = sinceStartNs(Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[std::size_t(index)].endNs = now;
    if (!tlsOpen.empty() && tlsOpen.back() == index)
        tlsOpen.pop_back();
}

int
Tracer::record(const char *layer, const std::string &name,
               Clock::time_point start, Clock::time_point end,
               int parent, bool async, std::int64_t id)
{
    if (!enabled_)
        return -1;
    const auto self =
        std::hash<std::thread::id>()(std::this_thread::get_id());
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.layer = layer;
    s.name = name;
    s.startNs = sinceStartNs(start);
    s.endNs = std::max(s.startNs, sinceStartNs(end));
    s.parent = parent;
    s.tid = tids_.emplace(self, int(tids_.size()) + 1).first->second;
    s.async = async;
    s.id = id;
    if (!async && parent < 0 && !tlsOpen.empty())
        s.parent = tlsOpen.back();
    spans_.push_back(std::move(s));
    return int(spans_.size()) - 1;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::map<std::string, double>
Tracer::selfMsByLayer() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childNs[std::size_t(s.parent)] += s.endNs - s.startNs;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::int64_t self =
            std::max<std::int64_t>(0, s.endNs - s.startNs - childNs[i]);
        out[s.layer] += double(self) * 1e-6;
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path);
    if (!os)
        return false;
    // Trace-event format: "X" complete events for thread spans,
    // nestable async "b"/"e" pairs (one id per request or frame) for
    // spans that cross threads.  Timestamps are microseconds.
    auto us = [](std::int64_t ns) { return fmt(double(ns) * 1e-3); };
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };
    for (const auto &[hash, tid] : tids_) {
        (void)hash;
        sep();
        os << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
              "\"tid\": "
           << tid << ", \"args\": {\"name\": \"thread " << tid
           << "\"}}";
    }
    for (const Span &s : spans_) {
        const std::string common =
            "\"name\": \"" + obs::jsonEscape(s.name) + "\", \"pid\": 1, "
            "\"tid\": " + std::to_string(s.tid);
        if (!s.async) {
            sep();
            os << "{\"ph\": \"X\", \"cat\": \"" << s.layer << "\", "
               << common << ", \"ts\": " << us(s.startNs)
               << ", \"dur\": " << us(s.endNs - s.startNs) << "}";
            continue;
        }
        const std::string id = std::to_string(s.id);
        const std::string args =
            ", \"args\": {\"layer\": \"" + s.layer + "\"}";
        sep();
        os << "{\"ph\": \"b\", \"cat\": \"async\", \"id\": " << id << ", "
           << common << ", \"ts\": " << us(s.startNs) << args << "}";
        sep();
        os << "{\"ph\": \"e\", \"cat\": \"async\", \"id\": " << id << ", "
           << common << ", \"ts\": " << us(s.endNs) << "}";
    }
    os << "\n]}\n";
    return bool(os);
}

} // namespace polymage::perfbench
