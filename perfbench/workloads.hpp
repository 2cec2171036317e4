/**
 * @file
 * The benchmark's workloads (README.md in this directory describes
 * each one, its metrics, and why it was chosen).
 */
#ifndef POLYMAGE_PERFBENCH_WORKLOADS_HPP
#define POLYMAGE_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "apps.hpp"
#include "report.hpp"
#include "runtime/executor.hpp"

namespace polymage::perfbench {

/** Command-line settings of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the timed phase. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
};

/** paper_stencil / paper_pyramid: the given paper apps built once,
 * then run back to back in a seeded order. */
void runBatch(const RunOptions &opts,
              const std::vector<std::string> &appKeys, Result &result,
              Tracer &tracer);

/** serve_mixed: open-loop requests plus two video streams through
 * one serve::Engine. */
void runServeMixed(const RunOptions &opts, Result &result,
                   Tracer &tracer);

/** Thread count of every timed batch run. */
constexpr int kThreads = 4;

/**
 * Record @p exe's compile-phase spans as children of the span
 * @p parent, laid out from @p start (as async spans with id
 * @p asyncId when that is not negative, for builds that ran
 * concurrently); returns the summed front-end (non-jit, top-level)
 * seconds and sets @p jitSeconds.
 */
double importBuildTrace(Tracer &tracer, const rt::Executable &exe,
                        Clock::time_point start, int parent,
                        double &jitSeconds, std::int64_t asyncId = -1);

/**
 * Compare @p got, the outputs of @p app at shape @p s, with
 * interp::evaluate (checkOutputs); false, with a message on stderr,
 * on a mismatch or an exception.
 */
bool checkAgainstInterp(const App &app, const std::vector<rt::Buffer> &got,
                        const Shape &s, Tracer &tracer,
                        const std::string &label);

/** Compile-path facts of one executable a workload built. */
struct CompileFacts
{
    std::string key;
    double frontendMs = 0.0;
    double jitS = 0.0;
    double sourceKb = 0.0;
    double groups = 0.0;
    double slots = 0.0;
    double scratchKb = 0.0;
    double explicitFraction = 0.0;
    double interiorFraction = 0.0;
};

CompileFacts compileFacts(const std::string &key, const rt::Executable &exe,
                          double frontendS, double jitS);

/** Direct-call timings of one app at one shape (0: not measured). */
struct RunFacts
{
    std::string key;
    double ms1 = 0.0;
    double ms4 = 0.0;
    double topPhaseShare = 0.0;
    /** LPT 4-thread prediction over the measured 4-thread median. */
    double lptError = 0.0;
    double htunedMs = 0.0;
    double libstyleMs = 0.0;
};

/**
 * Time @p exe on @p s at one thread, its phases and tasks through
 * @p taskExe (a build with a task-granular entry; a failure when
 * null), and the app's comparators.  @p ms4 is the app's 4-thread
 * median, measured here when not positive.
 */
RunFacts measureRun(const App &app, const rt::Executable &exe,
                    const rt::Executable *taskExe, const Shape &s,
                    std::vector<rt::Buffer> &outs, double ms4,
                    Tracer &tracer, Result &result);

/**
 * Add the per-layer metrics every traced run prints, aggregated over
 * the workload: sums of the compile-path sizes and times, means of
 * the fractions and shares, geometric means of the timings and
 * ratios.  Per-app values go to "# " lines.
 */
void addLayerMetrics(Result &result, const std::vector<CompileFacts> &built,
                     const std::vector<RunFacts> &ran);

/** Layers whose self time every traced run reports. */
inline const char *const kTracedLayers[] = {
    "bench", "pipeline", "core", "codegen", "runtime", "interp",
    "comparators"};

} // namespace polymage::perfbench

#endif // POLYMAGE_PERFBENCH_WORKLOADS_HPP
