/**
 * @file
 * Batch workloads (paper_stencil, paper_pyramid): each paper app is
 * built once, cold, at its Table 2 size with its tuned options; the
 * apps then run back to back in a seeded order at four OpenMP threads
 * for the timed phase.  Outputs are checked against the reference
 * interpreter at a reduced shape outside the timed phase.  A traced
 * run adds the per-layer measurements: 1-thread medians, per-phase
 * and per-task times through the task-granular entry, the LPT
 * prediction, and the comparators.
 */
#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <thread>

#include "apps.hpp"
#include "interp/interpreter.hpp"
#include "workloads.hpp"

namespace polymage::perfbench {

namespace {

/** Reduced shape every batch executable is re-run at for the
 * interpreter check: not a tile multiple, so edge tiles run too.
 * Multiscale keeps its 8 levels only from 512 pixels up. */
std::pair<std::int64_t, std::int64_t>
checkSize(const App &app)
{
    if (app.key == "multiscale")
        return {512, 520};
    return {200, 296};
}

/** Everything the batch driver keeps per app. */
struct AppRun
{
    App app;
    Shape shape;
    Shape check;
    std::optional<rt::Executable> exe;
    std::vector<rt::Buffer> outs;
    /** Output of the first warm-up run; the timed runs must match. */
    std::vector<rt::Buffer> first;
    std::vector<double> msUntraced;
    std::vector<double> msTraced;
    double frontendS = 0.0;
    double jitS = 0.0;
    std::uint64_t allocsBefore = 0;
    std::uint64_t allocsAfter = 0;
};

/** Layer of a compile-phase span of Executable::trace(); the
 * alignment/scaling attempts nested under `grouping` are core too. */
const char *
compilePhaseLayer(const std::string &span)
{
    if (span == "jit")
        return "runtime";
    if (span == "codegen")
        return "codegen";
    if (span == "graph_build" || span == "inline" ||
        span == "bounds_check")
        return "pipeline";
    return "core";
}

} // namespace

double
importBuildTrace(Tracer &tracer, const rt::Executable &exe,
                 Clock::time_point start, int parent, double &jitSeconds,
                 std::int64_t asyncId)
{
    const std::vector<obs::Span> &spans = exe.trace();
    jitSeconds = 0.0;
    double frontend = 0.0;
    std::int64_t origin = 0;
    if (!spans.empty()) {
        origin = spans.front().startNs;
        for (const obs::Span &s : spans)
            origin = std::min(origin, s.startNs);
    }
    std::map<int, int> index; // span id -> tracer index
    for (const obs::Span &s : spans) {
        if (s.depth == 0) {
            if (s.name == "jit")
                jitSeconds += s.seconds();
            else
                frontend += s.seconds();
        }
        if (!tracer.enabled())
            continue;
        const auto b = start + std::chrono::nanoseconds(s.startNs - origin);
        const auto e = b + std::chrono::nanoseconds(
                               std::max<std::int64_t>(0, s.durationNs));
        const auto it = index.find(s.parent);
        const int par = it != index.end() ? it->second : parent;
        index[s.id] = tracer.record(compilePhaseLayer(s.name), s.name, b,
                                    e, par, asyncId >= 0, asyncId);
    }
    return frontend;
}

bool
checkAgainstInterp(const App &app, const std::vector<rt::Buffer> &got,
                   const Shape &s, Tracer &tracer, const std::string &label)
{
    try {
        const pg::PipelineGraph g = pg::PipelineGraph::build(
            app.spec(app.paperRows, app.paperCols));
        interp::EvalResult ref;
        {
            Tracer::Scope span(tracer, "interp", "interp::evaluate " + label);
            ref = interp::evaluate(g, s.params, s.inputPtrs());
        }
        const CheckResult c = checkOutputs(app, g, s, got, ref);
        if (c.thresholdFlips > 0)
            std::printf("# %s: %d element(s) on the mask threshold took "
                        "the other branch\n",
                        label.c_str(), c.thresholdFlips);
        if (c.ok)
            return true;
        std::fprintf(stderr, "check %s: max diff %g > tol %g\n",
                     label.c_str(), c.maxDiff, app.tol);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "check %s: %s\n", label.c_str(), e.what());
    }
    return false;
}

void
runBatch(const RunOptions &opts, const std::vector<std::string> &appKeys,
         Result &result, Tracer &tracer)
{
    omp_set_num_threads(kThreads);
    std::mt19937_64 rng(opts.seed);

    // ---- Set-up: inputs, cold builds, warm-up -----------------------
    std::vector<AppRun> runs;
    for (const std::string &key : appKeys) {
        AppRun r;
        r.app = paperApp(key);
        {
            Tracer::Scope span(tracer, "bench", "synth " + key);
            r.shape = r.app.scaledShape(1.0, opts.seed);
            const auto [cr, cc] = checkSize(r.app);
            r.check = r.app.shape(cr, cc, opts.seed);
        }
        runs.push_back(std::move(r));
    }
    rt::JitOptions jit;
    jit.cache = false;
    for (AppRun &r : runs) {
        const dsl::PipelineSpec spec =
            r.app.spec(r.app.paperRows, r.app.paperCols);
        const auto t0 = Clock::now();
        Tracer::Scope span(tracer, "runtime",
                           "Executable::build " + r.app.key);
        r.exe.emplace(rt::Executable::build(spec, r.app.tuned, jit));
        r.frontendS = importBuildTrace(tracer, *r.exe, t0, span.index(),
                                       r.jitS);
    }
    for (AppRun &r : runs) {
        Tracer::Scope span(tracer, "runtime", "warm-up " + r.app.key);
        r.first = r.exe->run(r.shape.params, r.shape.inputPtrs());
        r.outs = r.first;
        for (int i = 0; i < 3; ++i)
            r.exe->runInto(r.shape.params, r.shape.inputPtrs(), r.outs);
        r.allocsBefore = r.exe->memoryStats().poolBlockAllocs;
    }
    const double setupS = double(sinceStartNs(Clock::now())) * 1e-9;

    // ---- Timed phase ---------------------------------------------------
    // Whole rounds, each a fresh seeded permutation of the apps.  A
    // traced run spends the first half untraced and the second half
    // traced, so the tracing overhead is measured in one process.
    double pixels = 0.0;
    auto timedPhase = [&](double budget, bool traced) {
        std::vector<std::size_t> order(runs.size());
        std::iota(order.begin(), order.end(), 0);
        const auto t0 = Clock::now();
        while (seconds(t0, Clock::now()) < budget) {
            std::shuffle(order.begin(), order.end(), rng);
            for (std::size_t i : order) {
                AppRun &r = runs[i];
                bool ok = true;
                const auto a = Clock::now();
                try {
                    std::optional<Tracer::Scope> span;
                    if (traced)
                        span.emplace(tracer, "runtime",
                                     "runInto " + r.app.key);
                    r.exe->runInto(r.shape.params, r.shape.inputPtrs(),
                                   r.outs);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "%s: %s\n", r.app.key.c_str(),
                                 e.what());
                    ok = false;
                }
                const double ms = seconds(a, Clock::now()) * 1e3;
                result.attempt(ok);
                if (!ok)
                    continue;
                (traced ? r.msTraced : r.msUntraced).push_back(ms);
                pixels += double(r.shape.rows * r.shape.cols);
            }
        }
        return seconds(t0, Clock::now());
    };
    const double timedS =
        timedPhase(opts.trace ? opts.seconds / 2 : opts.seconds, false);
    const double untracedPixels = pixels;
    if (opts.trace)
        timedPhase(opts.seconds / 2, true);
    for (AppRun &r : runs)
        r.allocsAfter = r.exe->memoryStats().poolBlockAllocs;

    // ---- Output checks (outside the timed phase) ---------------------
    // The executables run the check shapes one after another (each
    // uses every thread); the interpreter runs for all apps at once.
    std::vector<std::vector<rt::Buffer>> got(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        AppRun &r = runs[i];
        const double d = maxOutputDiff(r.outs, r.first);
        const bool stable = d <= r.app.tol;
        if (!stable)
            std::fprintf(stderr, "%s: timed output drifted by %g\n",
                         r.app.key.c_str(), d);
        result.attempt(stable);
        try {
            Tracer::Scope span(tracer, "runtime",
                               "Executable::run " + r.app.key);
            got[i] = r.exe->run(r.check.params, r.check.inputPtrs());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "check run %s: %s\n", r.app.key.c_str(),
                         e.what());
        }
    }
    std::vector<char> matches(runs.size(), 0);
    {
        std::vector<std::thread> checkers;
        for (std::size_t i = 0; i < runs.size(); ++i)
            checkers.emplace_back([&, i] {
                matches[i] = checkAgainstInterp(runs[i].app, got[i],
                                                runs[i].check, tracer,
                                                runs[i].app.key);
            });
        for (std::thread &t : checkers)
            t.join();
    }
    for (char m : matches)
        result.attempt(m != 0);

    std::vector<double> p50, p90;
    for (const AppRun &r : runs) {
        p50.push_back(median(r.msUntraced));
        p90.push_back(quantile(r.msUntraced, 0.9));
        std::printf("# %-10s images %4zu  p50 %9.3f ms  p90 %9.3f ms\n",
                    r.app.key.c_str(), r.msUntraced.size(), p50.back(),
                    p90.back());
    }

    if (!opts.trace) {
        result.add("setup_s", setupS, "s");
        result.add("latency_ms_p50", geomean(p50), "ms");
        result.add("latency_ms_tail", geomean(p90), "ms");
        result.add("mpix_s", untracedPixels * 1e-6 / timedS, "Mpix/s");
        result.add("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    // ---- Per-layer measurements (traced run only) ---------------------
    // Task-granular builds for the phase and task timings; built side
    // by side since their compile time is not measured.
    std::vector<std::optional<rt::Executable>> taskExes(runs.size());
    {
        Tracer::Scope span(tracer, "runtime", "Executable::build taskABI");
        std::vector<std::thread> builders;
        for (std::size_t i = 0; i < runs.size(); ++i)
            builders.emplace_back([&, i] {
                CompileOptions o = runs[i].app.tuned;
                o.codegen.taskABI = true;
                try {
                    taskExes[i].emplace(rt::Executable::build(
                        runs[i].app.spec(runs[i].app.paperRows,
                                         runs[i].app.paperCols),
                        o, jit));
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "taskABI build %s: %s\n",
                                 runs[i].app.key.c_str(), e.what());
                }
            });
        for (std::thread &t : builders)
            t.join();
    }

    std::vector<CompileFacts> built;
    std::vector<RunFacts> ran;
    double allocs = 0.0, poolPeakMb = 0.0;
    std::vector<double> tracedP50;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        AppRun &r = runs[i];
        built.push_back(compileFacts(r.app.key, *r.exe, r.frontendS, r.jitS));
        ran.push_back(measureRun(r.app, *r.exe,
                                 taskExes[i] ? &*taskExes[i] : nullptr,
                                 r.shape, r.outs, p50[i], tracer, result));
        allocs += double(r.allocsAfter - r.allocsBefore);
        poolPeakMb +=
            double(r.exe->memoryStats().poolPeakBytesInUse) / (1 << 20);
        tracedP50.push_back(median(r.msTraced));
    }
    addLayerMetrics(result, built, ran);
    result.add("runtime.pool_allocs_timed", allocs, "count");
    result.add("runtime.pool_peak_mb", poolPeakMb, "MB");
    const double untracedP50 = geomean(p50);
    result.add("trace.overhead_pct",
               (geomean(tracedP50) - untracedP50) / untracedP50 * 100.0,
               "%");
}

} // namespace polymage::perfbench
