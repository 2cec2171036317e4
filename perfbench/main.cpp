/**
 * @file
 * Benchmark driver: runs one workload and prints the result line.
 *
 *   perfbench --workload <paper_stencil|paper_pyramid|serve_mixed>
 *             --seed N --seconds S --trace 0|1 [--trace-out PATH]
 *
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics.  With --trace 0 the metrics are the
 * end-to-end ones; with --trace 1 they are the per-layer ones, the
 * per-layer self times, and the tracing overhead, and the spans are
 * written as Chrome trace-event JSON to --trace-out.  Every workload
 * prints the same metric names (BENCHMARK.json lists them).  Lines before it
 * (prefixed "# ") carry host facts and per-app detail.
 */
#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "workloads.hpp"

using namespace polymage::perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    std::string traceOut;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--workload")
            opts.workload = v;
        else if (flag == "--seed")
            opts.seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            opts.seconds = std::atof(v);
        else if (flag == "--trace")
            opts.trace = std::strcmp(v, "0") != 0;
        else if (flag == "--trace-out")
            traceOut = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (opts.seconds <= 0)
        usage("--seconds must be positive");
    if (opts.trace && traceOut.empty())
        usage("--trace 1 needs --trace-out");

    // The benchmark itself pins OpenMP (a direct libgomp dependency), so
    // JIT modules never load or unload the runtime.
    omp_set_num_threads(kThreads);

    std::printf("# host %s\n", hostFactsJson().c_str());
    std::printf("# workload %s seed %llu seconds %g trace %d\n",
                opts.workload.c_str(), (unsigned long long)opts.seed,
                opts.seconds, int(opts.trace));
    std::fflush(stdout);

    Result result;
    Tracer tracer(opts.trace);
    try {
        if (opts.workload == "paper_stencil")
            runBatch(opts, {"unsharp", "bilateral", "harris", "camera"},
                     result, tracer);
        else if (opts.workload == "paper_pyramid")
            runBatch(opts, {"pyramid", "multiscale", "laplacian"}, result,
                     tracer);
        else if (opts.workload == "serve_mixed")
            runServeMixed(opts, result, tracer);
        else
            usage(("unknown workload " + opts.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    if (opts.trace) {
        std::map<std::string, double> self = tracer.selfMsByLayer();
        for (const char *layer : kTracedLayers) {
            result.add("trace.self_ms." + std::string(layer), self[layer],
                       "ms");
            self.erase(layer);
        }
        for (const auto &[layer, ms] : self)
            std::printf("# trace self time %s %.3f ms\n", layer.c_str(), ms);
        if (!tracer.writeChromeTrace(traceOut)) {
            std::fprintf(stderr, "cannot write %s\n", traceOut.c_str());
            return 1;
        }
        std::printf("# trace %s (%zu spans)\n", traceOut.c_str(),
                    tracer.size());
    }
    std::printf("%s\n", result.json().c_str());
    return 0;
}
