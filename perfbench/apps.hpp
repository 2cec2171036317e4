/**
 * @file
 * The paper applications as the benchmark runs them: Table 2 sizes
 * and tuned compile options (the same as bench::paperBenchmarks), with
 * every synthetic input drawn from the benchmark seed, plus the
 * reduced check shape each executable is re-run at against the
 * reference interpreter.
 */
#ifndef POLYMAGE_PERFBENCH_APPS_HPP
#define POLYMAGE_PERFBENCH_APPS_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "comparators/comparators.hpp"
#include "driver/compiler.hpp"
#include "interp/interpreter.hpp"
#include "runtime/buffer.hpp"

namespace polymage::perfbench {

/** Concrete parameters and inputs of one pipeline call. */
struct Shape
{
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    std::vector<std::int64_t> params;
    std::vector<rt::Buffer> inputs;

    std::vector<const rt::Buffer *> inputPtrs() const;
};

/** Comparator run on a Shape's inputs (vectorised H-tuned or
 * OpenCV-style); empty when the app has none. */
using Comparator = std::function<cmp::CmpResult(const Shape &)>;

/** One paper application. */
struct App
{
    /** Metric key: unsharp, bilateral, harris, camera, pyramid,
     * multiscale, laplacian. */
    std::string key;
    /** Paper Table 2 size (rows, cols). */
    std::int64_t paperRows = 0;
    std::int64_t paperCols = 0;
    /** Tuned options of the batch workloads (bench_util.hpp). */
    CompileOptions tuned;
    /** Interpreter-check tolerance (app sweep values). */
    double tol = 1e-4;
    /** Pyramid level count; 0 for single-level apps. */
    int levels = 0;
    /** Local Laplacian intensity levels. */
    int k = 8;

    /** Specification with estimates at @p rows x @p cols. */
    dsl::PipelineSpec spec(std::int64_t rows, std::int64_t cols) const;
    /** Parameters and seeded inputs at @p rows x @p cols. */
    Shape shape(std::int64_t rows, std::int64_t cols,
                std::uint64_t seed) const;
    /** Shape at @p scale of the paper size (multiple-of-64 rounding
     * as in bench_util.hpp). */
    Shape scaledShape(double scale, std::uint64_t seed) const;
    Comparator htuned() const;
    Comparator libstyle() const;
};

/** All seven paper apps, Table 2 order. */
std::vector<App> paperApps();

/** The paper app named @p key; throws on unknown keys. */
App paperApp(const std::string &key);

/** Round to a multiple of @p mult, at least @p mult. */
std::int64_t scaled(std::int64_t size, double scale, std::int64_t mult = 64);

/** Largest element difference over all outputs; +inf on a shape or
 * count mismatch. */
double maxOutputDiff(const std::vector<rt::Buffer> &a,
                     const std::vector<rt::Buffer> &b);

/** Outcome of comparing a program's outputs with the interpreter's. */
struct CheckResult
{
    bool ok = false;
    double maxDiff = 0.0;
    /** Unsharp elements that took the other side of the threshold. */
    int thresholdFlips = 0;
};

/**
 * Compare @p got, computed by @p app at shape @p s, with the reference
 * evaluation @p ref of graph @p g: every element within app.tol.
 *
 * Unsharp's mask is discontinuous.  Where the reference's
 * |I - blurx| lies within 1e-6 of the 0.01 threshold, float code whose
 * blur rounds differently may take the other branch of the select
 * (measured: 3 of 40 seeds at 256x256).  Such an element passes only
 * when it equals that other branch (I or the reference's sharpen
 * value) within app.tol, and is counted in thresholdFlips.
 */
CheckResult checkOutputs(const App &app, const pg::PipelineGraph &g,
                         const Shape &s, const std::vector<rt::Buffer> &got,
                         const interp::EvalResult &ref);

} // namespace polymage::perfbench

#endif // POLYMAGE_PERFBENCH_APPS_HPP
