/**
 * @file
 * Measurement plumbing of the benchmark driver: order statistics, the
 * result line (metrics with units, attempted/failed counts), host
 * facts, and the span recorder of traced runs, which writes Chrome
 * trace-event JSON and sums self time per layer.
 */
#ifndef POLYMAGE_PERFBENCH_REPORT_HPP
#define POLYMAGE_PERFBENCH_REPORT_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace polymage::perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two time points. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Quantile @p q in [0, 1] with linear interpolation between order
 * statistics; 0 for an empty sample. */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Geometric mean of positive values (0 when empty). */
double geomean(const std::vector<double> &v);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** nproc, g++ version and cache sizes, as one JSON object. */
std::string hostFactsJson();

/** The result line a run prints last. */
class Result
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);
    /** Count one operation; @p ok false marks it failed. */
    void attempt(bool ok = true, std::int64_t n = 1);
    void fail(const std::string &why);
    bool correct() const { return failed_ == 0 && attempted_ > 0; }
    /** The JSON object of the final stdout line. */
    std::string json() const;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
};

/**
 * Spans recorded by the benchmark around its calls into each layer.
 * Disabled recorders ignore every call.  Thread spans nest on the
 * calling thread; async spans (a request from submit to callback)
 * start and end on different threads and carry an id.  Kept in memory
 * and written once, at exit.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}
    bool enabled() const { return enabled_; }

    /** RAII thread span: from construction to destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *layer, std::string name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        /** Index of the span (-1 when tracing is off). */
        int index() const { return index_; }

      private:
        Tracer &tracer_;
        int index_ = -1;
    };

    /**
     * Record a finished span of @p layer over [start, end]; @p parent
     * is a span index or -1.  Returns the new span's index (-1 when
     * tracing is off).  @p async marks a cross-thread span with id
     * @p id (children of an async span are async too).
     */
    int record(const char *layer, const std::string &name,
               Clock::time_point start, Clock::time_point end,
               int parent = -1, bool async = false,
               std::int64_t id = 0);

    /** Sum of span self time (duration minus direct children) per
     * layer, in ms. */
    std::map<std::string, double> selfMsByLayer() const;

    /** Write every span as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

    std::size_t size() const;

  private:
    struct Span
    {
        std::string layer;
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;
        int tid = 0;
        bool async = false;
        std::int64_t id = 0;
    };
    int open(const char *layer, std::string name);
    void close(int index);

    bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::map<std::uint64_t, int> tids_;
};

/** Process-relative nanoseconds of a time point (trace time base). */
std::int64_t sinceStartNs(Clock::time_point t);

} // namespace polymage::perfbench

#endif // POLYMAGE_PERFBENCH_REPORT_HPP
