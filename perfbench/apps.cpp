/**
 * @file
 * Paper application table of the benchmark (see apps.hpp).
 */
#include "apps.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "apps/apps.hpp"
#include "runtime/synth.hpp"

namespace polymage::perfbench {

namespace {

/** Independent synth seed for input @p slot of a run seeded @p seed
 * (splitmix64 finaliser). */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t slot)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + slot + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

App
makeApp(const std::string &key, std::int64_t rows, std::int64_t cols,
        std::vector<std::int64_t> tiles, double overlap, double tol,
        int levels = 0)
{
    App a;
    a.key = key;
    a.paperRows = rows;
    a.paperCols = cols;
    if (!tiles.empty())
        a.tuned.grouping.tileSizes = std::move(tiles);
    if (overlap > 0)
        a.tuned.grouping.overlapThreshold = overlap;
    a.tol = tol;
    a.levels = levels;
    return a;
}

} // namespace

std::vector<const rt::Buffer *>
Shape::inputPtrs() const
{
    std::vector<const rt::Buffer *> v;
    for (const rt::Buffer &b : inputs)
        v.push_back(&b);
    return v;
}

std::int64_t
scaled(std::int64_t size, double scale, std::int64_t mult)
{
    const auto v = std::int64_t(double(size) * scale);
    return std::max<std::int64_t>(mult, (v / mult) * mult);
}

dsl::PipelineSpec
App::spec(std::int64_t rows, std::int64_t cols) const
{
    if (key == "unsharp")
        return apps::buildUnsharpMask(rows, cols);
    if (key == "bilateral")
        return apps::buildBilateralGrid(rows, cols);
    if (key == "harris")
        return apps::buildHarris(rows, cols);
    if (key == "camera")
        return apps::buildCameraPipeline(rows, cols);
    if (key == "pyramid")
        return apps::buildPyramidBlend(rows, cols, levels);
    if (key == "multiscale")
        return apps::buildMultiscaleInterp(rows, cols, levels);
    if (key == "laplacian")
        return apps::buildLocalLaplacian(rows, cols, levels, k);
    throw std::invalid_argument("unknown app " + key);
}

Shape
App::shape(std::int64_t rows, std::int64_t cols, std::uint64_t seed) const
{
    namespace synth = rt::synth;
    Shape s;
    s.rows = rows;
    s.cols = cols;
    const std::uint64_t s0 = subSeed(seed, 0), s1 = subSeed(seed, 1);
    if (levels > 0)
        s.params = apps::pyramidParams(rows, cols, levels);
    else
        s.params = {rows, cols};
    if (key == "unsharp") {
        s.inputs.push_back(synth::photoRgb(rows + 4, cols + 4, s0));
    } else if (key == "bilateral" || key == "laplacian") {
        s.inputs.push_back(synth::photo(rows, cols, s0));
    } else if (key == "harris") {
        s.inputs.push_back(synth::photo(rows + 2, cols + 2, s0));
    } else if (key == "camera") {
        s.inputs.push_back(synth::bayerRaw(rows + 4, cols + 4, s0));
    } else if (key == "pyramid") {
        s.inputs.push_back(synth::photo(rows, cols, s0));
        s.inputs.push_back(synth::photo(rows, cols, s1));
        s.inputs.push_back(synth::blendMask(rows, cols));
    } else if (key == "multiscale") {
        s.inputs.push_back(synth::sparseAlpha(rows, cols, 1.0 / 16, s0));
    } else {
        throw std::invalid_argument("unknown app " + key);
    }
    return s;
}

Shape
App::scaledShape(double scale, std::uint64_t seed) const
{
    return shape(scaled(paperRows, scale), scaled(paperCols, scale),
                 seed);
}

Comparator
App::htuned() const
{
    const int lv = levels, kk = k;
    if (key == "unsharp")
        return [](const Shape &s) {
            return cmp::htunedUnsharp(s.inputs[0], true);
        };
    if (key == "bilateral")
        return [](const Shape &s) {
            return cmp::htunedBilateral(s.inputs[0], true);
        };
    if (key == "harris")
        return [](const Shape &s) {
            return cmp::htunedHarris(s.inputs[0], true);
        };
    if (key == "camera")
        return [](const Shape &s) {
            return cmp::htunedCamera(s.inputs[0], true);
        };
    if (key == "pyramid")
        return [lv](const Shape &s) {
            return cmp::htunedPyramidBlend(s.inputs[0], s.inputs[1],
                                           s.inputs[2], lv, true);
        };
    if (key == "multiscale")
        return [lv](const Shape &s) {
            return cmp::htunedInterp(s.inputs[0], lv, true);
        };
    if (key == "laplacian")
        return [lv, kk](const Shape &s) {
            return cmp::htunedLocalLaplacian(s.inputs[0], lv, kk, true);
        };
    return {};
}

Comparator
App::libstyle() const
{
    const int lv = levels;
    if (key == "unsharp")
        return [](const Shape &s) {
            return cmp::libstyleUnsharp(s.inputs[0]);
        };
    if (key == "harris")
        return [](const Shape &s) {
            return cmp::libstyleHarris(s.inputs[0]);
        };
    if (key == "pyramid")
        return [lv](const Shape &s) {
            return cmp::libstylePyramidBlend(s.inputs[0], s.inputs[1],
                                             s.inputs[2], lv);
        };
    return {};
}

std::vector<App>
paperApps()
{
    // Multiscale's level count follows its size, as in bench_util.hpp.
    int ms_levels = 8;
    while (ms_levels > 2 && (1536 >> (ms_levels - 1)) < 4)
        --ms_levels;
    return {
        makeApp("unsharp", 2048, 2048, {32, 512}, 0, 1e-4),
        makeApp("bilateral", 2560, 1536, {32, 256}, 0, 1e-4),
        makeApp("harris", 6400, 6400, {32, 256}, 0, 1e-3),
        makeApp("camera", 2528, 1920, {64, 256}, 0, 1.0),
        makeApp("pyramid", 2048, 2048, {}, 0, 1e-3, 4),
        makeApp("multiscale", 2560, 1536, {64, 256}, 0.5, 1e-3,
                ms_levels),
        makeApp("laplacian", 2560, 1536, {64, 256}, 0.5, 1e-3, 4),
    };
}

App
paperApp(const std::string &key)
{
    for (App &a : paperApps())
        if (a.key == key)
            return a;
    throw std::invalid_argument("unknown app " + key);
}

double
maxOutputDiff(const std::vector<rt::Buffer> &a,
              const std::vector<rt::Buffer> &b)
{
    if (a.size() != b.size())
        return std::numeric_limits<double>::infinity();
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].dims() != b[i].dims())
            return std::numeric_limits<double>::infinity();
        const double d = a[i].maxAbsDiff(b[i]);
        worst = std::isnan(d) ? std::numeric_limits<double>::infinity()
                              : std::max(worst, d);
    }
    return worst;
}

CheckResult
checkOutputs(const App &app, const pg::PipelineGraph &g, const Shape &s,
             const std::vector<rt::Buffer> &got,
             const interp::EvalResult &ref)
{
    CheckResult c;
    c.maxDiff = maxOutputDiff(got, ref.outputs);
    c.ok = c.maxDiff <= app.tol;
    if (c.ok || app.key != "unsharp" || !std::isfinite(c.maxDiff))
        return c;
    // Stage names and threshold as defined in apps/unsharp.cpp.
    const rt::Buffer *blurx = nullptr, *sharpen = nullptr;
    for (const pg::Stage &st : g.stages()) {
        if (st.name() == "blurx")
            blurx = &ref.stageBuffers.at(st.callable->id());
        if (st.name() == "sharpen")
            sharpen = &ref.stageBuffers.at(st.callable->id());
    }
    const rt::Buffer &in = s.inputs[0];
    const rt::Buffer &out = got[0], &want = ref.outputs[0];
    if (blurx == nullptr || sharpen == nullptr ||
        in.dims() != out.dims() || blurx->dims() != out.dims())
        return c;
    const double threshold = 0.01, margin = 1e-6;
    for (std::int64_t i = 0; i < out.numel(); ++i) {
        const double v = out.loadAsDouble(i);
        if (std::fabs(v - want.loadAsDouble(i)) <= app.tol)
            continue;
        const double x = in.loadAsDouble(i);
        const bool atThreshold =
            std::fabs(std::fabs(x - blurx->loadAsDouble(i)) - threshold) <=
            margin;
        const bool otherBranch =
            std::fabs(v - x) <= app.tol ||
            std::fabs(v - sharpen->loadAsDouble(i)) <= app.tol;
        if (!atThreshold || !otherBranch)
            return c;
        ++c.thresholdFlips;
    }
    c.ok = true;
    return c;
}

} // namespace polymage::perfbench
