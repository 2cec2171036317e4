/**
 * @file
 * Per-layer measurements shared by every workload (workloads.hpp):
 * compile-path facts of each executable a workload built, direct-call
 * runtime and comparator timings of each app it runs, and their
 * aggregation into the one set of per-layer metrics every traced run
 * prints.  Per-app values go to "# " detail lines.
 */
#include <omp.h>

#include <algorithm>
#include <cstdio>

#include "runtime/scaling.hpp"
#include "workloads.hpp"

namespace polymage::perfbench {

namespace {

/** Median of @p reps timed calls after one warm-up call, in ms. */
template <typename Fn>
double
medianMs(int reps, Fn &&fn)
{
    fn();
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        fn();
        ms.push_back(seconds(t0, Clock::now()) * 1e3);
    }
    return median(ms);
}

/** Per-phase shares and LPT prediction from the task-granular entry
 * of a taskABI build. */
struct TaskMeasures
{
    double topPhaseShare = 0.0;
    double lptSeconds4 = 0.0;
};

TaskMeasures
measureTasks(const rt::Executable &exe, const Shape &s, Tracer &tracer,
             const std::string &key)
{
    rt::BufferPool pool;
    std::vector<rt::Buffer> outs = exe.run(s.params, s.inputPtrs());
    rt::TaskInvocation inv =
        exe.prepareTasks(s.params, s.inputPtrs(), outs, pool);
    const std::vector<long long> counts = inv.phaseCounts();
    auto runAll = [&] {
        for (std::size_t p = 0; p < counts.size(); ++p)
            if (counts[p] > 0)
                inv.run((long long)p, 0, counts[p] - 1);
    };
    runAll(); // warm: slot pages, caches
    // Per-phase time: median of three whole-pipeline passes.
    std::vector<std::vector<double>> phaseS(counts.size());
    for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t p = 0; p < counts.size(); ++p) {
            if (counts[p] <= 0)
                continue;
            Tracer::Scope span(tracer, "runtime",
                               "TaskInvocation::run " + key + " phase " +
                                   std::to_string(p));
            const auto t0 = Clock::now();
            inv.run((long long)p, 0, counts[p] - 1);
            phaseS[p].push_back(seconds(t0, Clock::now()));
        }
    }
    TaskMeasures m;
    double total = 0.0, top = 0.0;
    for (const auto &v : phaseS) {
        const double t = median(v);
        total += t;
        top = std::max(top, t);
    }
    m.topPhaseShare = total > 0 ? top / total : 0.0;
    // Per-task costs, one task at a time, for the LPT model.
    rt::TaskProfile prof;
    for (std::size_t p = 0; p < counts.size(); ++p) {
        for (long long i = 0; i < counts[p]; ++i) {
            const auto t0 = Clock::now();
            inv.run((long long)p, i, i);
            prof.costs.push_back(seconds(t0, Clock::now()));
            prof.phase.push_back((long long)p);
        }
    }
    m.lptSeconds4 = rt::predictTime(prof, kThreads);
    return m;
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / double(v.size());
}

} // namespace

CompileFacts
compileFacts(const std::string &key, const rt::Executable &exe,
             double frontendS, double jitS)
{
    const cg::GeneratedCode &code = exe.info().code;
    const rt::MemoryStats mem = exe.memoryStats();
    CompileFacts f;
    f.key = key;
    f.frontendMs = frontendS * 1e3;
    f.jitS = jitS;
    f.sourceKb = double(code.source.size()) / 1024.0;
    f.groups = double(exe.info().grouping.groups.size());
    f.slots = double(mem.slots);
    f.scratchKb = double(mem.scratchBytesPerTile) / 1024.0;
    f.explicitFraction = code.explicitFraction();
    f.interiorFraction = code.interiorFraction();
    return f;
}

RunFacts
measureRun(const App &app, const rt::Executable &exe,
           const rt::Executable *taskExe, const Shape &s,
           std::vector<rt::Buffer> &outs, double ms4, Tracer &tracer,
           Result &result)
{
    const std::string &k = app.key;
    RunFacts f;
    f.key = k;
    auto runInto = [&](const char *what) {
        Tracer::Scope span(tracer, "runtime", std::string(what) + k);
        exe.runInto(s.params, s.inputPtrs(), outs);
    };
    if (ms4 <= 0)
        ms4 = medianMs(7, [&] { runInto("runInto 4t "); });
    f.ms4 = ms4;
    omp_set_num_threads(1);
    f.ms1 = medianMs(5, [&] { runInto("runInto 1t "); });
    omp_set_num_threads(kThreads);

    if (taskExe != nullptr && taskExe->hasTaskEntry()) {
        const TaskMeasures tm = measureTasks(*taskExe, s, tracer, k);
        f.topPhaseShare = tm.topPhaseShare;
        f.lptError = tm.lptSeconds4 * 1e3 / ms4;
    } else {
        result.fail("no task-granular build of " + k);
    }

    if (const Comparator h = app.htuned())
        f.htunedMs = medianMs(5, [&] {
            Tracer::Scope span(tracer, "comparators", "htuned " + k);
            h(s);
        });
    if (const Comparator l = app.libstyle())
        f.libstyleMs = medianMs(5, [&] {
            Tracer::Scope span(tracer, "comparators", "libstyle " + k);
            l(s);
        });
    return f;
}

void
addLayerMetrics(Result &result, const std::vector<CompileFacts> &built,
                const std::vector<RunFacts> &ran)
{
    double frontendMs = 0, sourceKb = 0, jitS = 0, groups = 0, slots = 0,
           scratchKb = 0;
    std::vector<double> explicitF, interiorF;
    for (const CompileFacts &f : built) {
        std::printf("# built %-10s groups %3.0f slots %3.0f scratch %8.1f "
                    "KB/tile source %7.1f KB explicit %.3f interior %.3f "
                    "jit %.2f s\n",
                    f.key.c_str(), f.groups, f.slots, f.scratchKb,
                    f.sourceKb, f.explicitFraction, f.interiorFraction,
                    f.jitS);
        frontendMs += f.frontendMs;
        sourceKb += f.sourceKb;
        jitS += f.jitS;
        groups += f.groups;
        slots += f.slots;
        scratchKb += f.scratchKb;
        explicitF.push_back(f.explicitFraction);
        interiorF.push_back(f.interiorFraction);
    }
    result.add("driver.frontend_ms", frontendMs, "ms");
    result.add("codegen.source_kb", sourceKb, "KB");
    result.add("runtime.jit_s", jitS, "s");
    result.add("core.groups", groups, "count");
    result.add("core.slots", slots, "count");
    result.add("core.scratch_kb_per_tile", scratchKb, "KB");
    result.add("codegen.explicit_fraction", mean(explicitF), "ratio");
    result.add("codegen.interior_fraction", mean(interiorF), "ratio");

    std::vector<double> ms1, speedup, topShare, lptError, htuned, vsHtuned,
        libstyle;
    for (const RunFacts &f : ran) {
        std::printf("# ran   %-10s 1t %9.3f ms 4t %9.3f ms top phase "
                    "%.3f lpt/measured %.3f htuned %.3f ms libstyle "
                    "%.3f ms\n",
                    f.key.c_str(), f.ms1, f.ms4, f.topPhaseShare,
                    f.lptError, f.htunedMs, f.libstyleMs);
        ms1.push_back(f.ms1);
        speedup.push_back(f.ms1 / f.ms4);
        topShare.push_back(f.topPhaseShare);
        lptError.push_back(f.lptError);
        if (f.htunedMs > 0) {
            htuned.push_back(f.htunedMs);
            vsHtuned.push_back(f.htunedMs / f.ms4);
        }
        if (f.libstyleMs > 0)
            libstyle.push_back(f.libstyleMs);
    }
    result.add("runtime.ms_1t", geomean(ms1), "ms");
    result.add("runtime.speedup_4t", geomean(speedup), "x");
    result.add("runtime.top_phase_share", mean(topShare), "ratio");
    result.add("runtime.lpt_error", geomean(lptError), "ratio");
    result.add("comparators.htuned_ms", geomean(htuned), "ms");
    result.add("comparators.vs_htuned", geomean(vsHtuned), "x");
    result.add("comparators.libstyle_ms", geomean(libstyle), "ms");
}

} // namespace polymage::perfbench
