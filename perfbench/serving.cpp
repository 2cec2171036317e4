/**
 * @file
 * serve_mixed: one serve::Engine with default options over a registry
 * of shape-generic serving variants, compiled cold during set-up.  A
 * single generator thread sends an open-loop Poisson schedule of
 * requests (app and shape drawn from the seed) and, interleaved by
 * due time, the 30 fps frames of two temporal_denoise 720p streaming
 * sessions.  Every latency is timed from the request's or frame's due
 * time, so generator lateness and queueing both count.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <random>
#include <thread>

#include "apps/apps.hpp"
#include "core/stream_plan.hpp"
#include "interp/stream_ref.hpp"
#include "runtime/synth.hpp"
#include "serve/engine.hpp"
#include "workloads.hpp"

namespace polymage::perfbench {

namespace {

/** Offered request rate of the open loop. */
constexpr double kRequestRate = 100.0;
/** Goodput counts requests and frames that complete OK within this
 * latency of their due time. */
constexpr double kLatencyLimitMs = 50.0;
constexpr double kFrameRate = 30.0;
/** Request latencies are summarised per window of the schedule (about
 * 100 requests each) and the windows' quantiles reduced to their
 * median, so a burst of host load that slows a few windows does not
 * move the run's figure. */
constexpr double kWindowS = 1.0;
constexpr int kStreams = 2;
/** Distinct pre-synthesised frames cycled through by each stream. */
constexpr int kFramesPerStream = 6;
constexpr std::int64_t kStreamRows = 720, kStreamCols = 1280;
const char *const kServedApps[] = {"unsharp", "harris", "camera",
                                   "laplacian"};
const double kServedScales[] = {0.25, 0.125};
/** Async span ids of the concurrent variant builds (requests and
 * frames use their schedule index). */
constexpr std::int64_t kBuildSpanIds = 1000000;

std::shared_ptr<const rt::Buffer>
borrow(const rt::Buffer &b)
{
    return {std::shared_ptr<const rt::Buffer>(), &b};
}

/** One request or frame of the open-loop schedule. */
struct Event
{
    double dueS = 0.0;
    /** Request: index into the (app, shape) table; frame: -1 - stream. */
    int target = 0;
    /** Frame number within its stream (frames only). */
    long long frame = 0;
};

/** Completion record of one event, written by its callback. */
struct Outcome
{
    bool ok = false;
    double latencyMs = 0.0;
    double queueMs = 0.0;
    double runMs = 0.0;
};

/** A request target: one app at one shape. */
struct Target
{
    std::string app;
    double scale = 0.0;
    Shape shape;
    double tol = 0.0;
};

/** Counts completions so the generator can wait for the tail. */
class Completion
{
  public:
    void done()
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++count_;
        cv_.notify_all();
    }
    bool waitFor(std::size_t n, double timeoutS)
    {
        std::unique_lock<std::mutex> lock(mu_);
        return cv_.wait_for(lock, std::chrono::duration<double>(timeoutS),
                            [&] { return count_ >= n; });
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::size_t count_ = 0;
};

/** Seeded schedule over [0, durationS): Poisson requests, paced
 * frames (streams offset by half a frame interval). */
std::vector<Event>
makeSchedule(std::mt19937_64 &rng, double durationS, int targets)
{
    std::vector<Event> ev;
    std::exponential_distribution<double> gap(kRequestRate);
    std::uniform_int_distribution<int> pick(0, targets - 1);
    for (double t = gap(rng); t < durationS; t += gap(rng))
        ev.push_back({t, pick(rng), 0});
    for (int s = 0; s < kStreams; ++s)
        for (long long f = 0;; ++f) {
            const double t =
                (double(f) + double(s) / kStreams) / kFrameRate;
            if (t >= durationS)
                break;
            ev.push_back({t, -1 - s, f});
        }
    std::stable_sort(ev.begin(), ev.end(),
                     [](const Event &a, const Event &b) {
                         return a.dueS < b.dueS;
                     });
    return ev;
}

/** Measurements of one open-loop phase. */
struct PhaseResult
{
    std::vector<Event> events;
    std::vector<Outcome> outcomes;
    std::vector<double> lateMs;
    /** Length of the schedule. */
    double scheduleS = 0.0;
    /** From the schedule start to the last completion. */
    double durationS = 0.0;
    bool drained = true;
};

} // namespace

void
runServeMixed(const RunOptions &opts, Result &result, Tracer &tracer)
{
    std::mt19937_64 rng(opts.seed);

    // ---- Set-up: registry of serving variants, compiled cold ----------
    serve::RegistryOptions ropts;
    ropts.jit.cache = false;
    auto registry = std::make_shared<serve::PipelineRegistry>(ropts);
    std::vector<Target> targets;
    for (const char *name : kServedApps) {
        const App app = paperApp(name);
        registry->add(name, app.spec(app.paperRows, app.paperCols),
                      CompileOptions::serving());
        for (double scale : kServedScales) {
            Tracer::Scope span(tracer, "bench", "synth " +
                                                    std::string(name));
            targets.push_back(
                {name, scale, app.scaledShape(scale, opts.seed), app.tol});
        }
    }
    const dsl::PipelineSpec denoiseSpec =
        apps::buildTemporalDenoise(kStreamRows, kStreamCols);
    registry->add("denoise", denoiseSpec, CompileOptions::serving());

    // Warm the registry the way a server starts: every variant
    // compiles at once on the registry's background threads.
    std::vector<CompileFacts> built;
    {
        Tracer::Scope span(tracer, "serve", "PipelineRegistry::prepare");
        const auto t0 = Clock::now();
        const std::vector<std::string> names = registry->names();
        std::vector<std::shared_future<serve::PipelineRegistry::ExecutablePtr>>
            pending;
        for (const std::string &name : names)
            pending.push_back(
                registry->prepare(name, CompileOptions::serving()));
        for (std::size_t i = 0; i < pending.size(); ++i) {
            const serve::PipelineRegistry::ExecutablePtr exe =
                pending[i].get();
            double jit = 0.0;
            const double frontend =
                importBuildTrace(tracer, *exe, t0, span.index(), jit,
                                 kBuildSpanIds + std::int64_t(i));
            built.push_back(compileFacts(names[i], *exe, frontend, jit));
        }
    }

    std::vector<std::vector<rt::Buffer>> frames(kStreams);
    for (int s = 0; s < kStreams; ++s) {
        Tracer::Scope span(tracer, "bench", "synth frames");
        for (int f = 0; f < kFramesPerStream; ++f)
            frames[std::size_t(s)].push_back(rt::synth::photo(
                kStreamRows + 2, kStreamCols + 2,
                opts.seed * 1000 + std::uint64_t(s * 100 + f)));
    }

    std::fprintf(stderr, "# serve_mixed: variants compiled\n");
    serve::Engine engine(registry); // default EngineOptions
    std::vector<std::shared_ptr<serve::StreamSession>> sessions;
    for (int s = 0; s < kStreams; ++s)
        sessions.push_back(engine.openStream(
            "denoise", {kStreamRows, kStreamCols}));

    auto makeRequest = [&](const Target &t) {
        serve::Request req;
        req.pipeline = t.app;
        req.params = t.shape.params;
        for (const rt::Buffer &b : t.shape.inputs)
            req.inputs.push_back(borrow(b));
        return req;
    };

    // Warm-up: every (app, shape) three times, each stream three
    // frames.  The first response per target is kept for the check.
    std::vector<serve::Response> firstResponse;
    for (const Target &t : targets) {
        for (int i = 0; i < 3; ++i) {
            serve::Response r = engine.submit(makeRequest(t)).get();
            if (i == 0)
                firstResponse.push_back(std::move(r));
        }
    }
    for (int s = 0; s < kStreams; ++s) {
        Completion warm;
        for (int f = 0; f < 3; ++f)
            engine.submitFrame(sessions[std::size_t(s)],
                               {borrow(frames[std::size_t(s)][0])},
                               [&](const serve::StreamFrameResult &) {
                                   warm.done();
                               });
        if (!warm.waitFor(3, 60.0)) {
            // The callbacks reference `warm`: never leave it behind.
            std::fprintf(stderr, "warm-up frames did not finish\n");
            std::abort();
        }
    }

    std::fprintf(stderr, "# serve_mixed: warm\n");
    const serve::ServeSnapshot before = engine.metrics();
    const serve::RegistryStats regBefore = registry->stats();
    const double setupS = double(sinceStartNs(Clock::now())) * 1e-9;

    // ---- Timed phase: the open loop -----------------------------------
    auto openLoop = [&](double durationS, bool traced) {
        PhaseResult ph;
        ph.scheduleS = durationS;
        ph.events = makeSchedule(rng, durationS, int(targets.size()));
        ph.outcomes.resize(ph.events.size());
        ph.lateMs.reserve(ph.events.size());
        Completion completion;
        const auto start = Clock::now() + std::chrono::milliseconds(5);
        for (std::size_t i = 0; i < ph.events.size(); ++i) {
            const Event &ev = ph.events[i];
            const auto due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(ev.dueS));
            std::this_thread::sleep_until(due);
            const auto sent = Clock::now();
            ph.lateMs.push_back(seconds(due, sent) * 1e3);
            Outcome *out = &ph.outcomes[i];
            const std::int64_t id = std::int64_t(i);
            if (ev.target >= 0) {
                const Target &t = targets[std::size_t(ev.target)];
                const std::string label = t.app + " @" +
                                          std::to_string(t.shape.rows) +
                                          "x" +
                                          std::to_string(t.shape.cols);
                engine.submit(
                    makeRequest(t),
                    [&, out, due, sent, id, label,
                     traced](serve::Response r) {
                        const auto now = Clock::now();
                        out->ok = r.ok();
                        out->latencyMs = seconds(due, now) * 1e3;
                        out->queueMs = r.queueSeconds * 1e3;
                        out->runMs = r.runSeconds * 1e3;
                        if (!r.ok())
                            std::fprintf(stderr, "request %s: %s\n",
                                         label.c_str(), r.error.c_str());
                        if (traced) {
                            const int p = tracer.record(
                                "serve", "Engine::submit " + label, sent,
                                now, -1, true, id);
                            const auto q =
                                sent + std::chrono::duration_cast<
                                           Clock::duration>(
                                           std::chrono::duration<double>(
                                               r.queueSeconds));
                            tracer.record("serve", "queue", sent, q, p,
                                          true, id);
                            tracer.record(
                                "runtime", "run", q,
                                q + std::chrono::duration_cast<
                                        Clock::duration>(
                                        std::chrono::duration<double>(
                                            r.runSeconds)),
                                p, true, id);
                        }
                        completion.done();
                    });
            } else {
                const int s = -1 - ev.target;
                const rt::Buffer &frame =
                    frames[std::size_t(s)]
                          [std::size_t(ev.frame % kFramesPerStream)];
                engine.submitFrame(
                    sessions[std::size_t(s)], {borrow(frame)},
                    [&, out, due, sent, id,
                     traced](const serve::StreamFrameResult &r) {
                        const auto now = Clock::now();
                        out->ok = r.ok();
                        out->latencyMs = seconds(due, now) * 1e3;
                        out->queueMs = r.queueSeconds * 1e3;
                        out->runMs = r.runSeconds * 1e3;
                        if (!r.ok())
                            std::fprintf(stderr, "frame: %s\n",
                                         r.error.c_str());
                        if (traced) {
                            const int p = tracer.record(
                                "serve", "submitFrame denoise", sent, now,
                                -1, true, id);
                            tracer.record(
                                "runtime", "stream step",
                                now - std::chrono::duration_cast<
                                          Clock::duration>(
                                          std::chrono::duration<double>(
                                              r.runSeconds)),
                                now, p, true, id);
                        }
                        completion.done();
                    });
            }
        }
        ph.drained = completion.waitFor(ph.events.size(), 60.0);
        // Goodput window: from the schedule start to the last
        // completion, so a backlog that drains late lowers it.
        ph.durationS = seconds(start, Clock::now());
        return ph;
    };

    PhaseResult untraced = openLoop(
        opts.trace ? opts.seconds / 2 : opts.seconds, false);
    if (!untraced.drained) {
        // Callbacks still reference this frame's state: never return
        // with requests in flight.
        std::fprintf(stderr, "open loop did not drain; aborting\n");
        std::abort();
    }
    PhaseResult traced;
    if (opts.trace) {
        traced = openLoop(opts.seconds / 2, true);
        if (!traced.drained) {
            std::fprintf(stderr, "open loop did not drain; aborting\n");
            std::abort();
        }
    }
    const serve::ServeSnapshot after = engine.metrics();
    const serve::RegistryStats regAfter = registry->stats();
    double ringKb = 0.0;
    for (const auto &s : sessions) {
        ringKb += double(s->memoryStats().ringBytes) / 1024.0;
        engine.closeStream(s);
    }

    std::fprintf(stderr, "# serve_mixed: timed phase done\n");
    // ---- Checks (outside the timed phase) ----------------------------
    // One response per (app, shape).  The 1/8-size responses are
    // checked against the reference interpreter, on one thread each;
    // the interpreter needs 15-20 s for Harris at 1/4 size, so the
    // 1/4-size responses are checked against a direct run of the same
    // compiled variant instead, which covers the engine path.
    std::vector<char> verdict(targets.size(), 0);
    {
        std::vector<std::thread> checkers;
        for (std::size_t i = 0; i < targets.size(); ++i) {
            if (!firstResponse[i].ok()) {
                std::fprintf(stderr, "warm-up %s: %s\n",
                             targets[i].app.c_str(),
                             firstResponse[i].error.c_str());
                continue;
            }
            checkers.emplace_back([&, i] {
                const Target &t = targets[i];
                const serve::Response &r = firstResponse[i];
                const std::string label = t.app + " @" +
                                          std::to_string(t.shape.rows) +
                                          "x" +
                                          std::to_string(t.shape.cols);
                if (t.scale == kServedScales[1]) {
                    verdict[i] = checkAgainstInterp(
                        paperApp(t.app), r.outputs, t.shape, tracer, label);
                    return;
                }
                try {
                    Tracer::Scope span(tracer, "runtime",
                                       "Executable::run " + label);
                    const double d = maxOutputDiff(
                        r.outputs, registry->get(t.app)->run(
                                       t.shape.params, t.shape.inputPtrs()));
                    verdict[i] = d <= t.tol;
                    if (!verdict[i])
                        std::fprintf(stderr,
                                     "check %s vs direct run: diff %g\n",
                                     label.c_str(), d);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "check %s: %s\n", label.c_str(),
                                 e.what());
                }
            });
        }
        for (std::thread &th : checkers)
            th.join();
    }
    for (char v : verdict)
        result.attempt(v != 0);
    std::fprintf(stderr, "# serve_mixed: requests checked\n");
    {
        // Stream frames: a small session on the same variant against
        // the reference streaming evaluator.
        const std::int64_t R = 48, C = 64;
        std::vector<rt::Buffer> in;
        for (int f = 0; f < 5; ++f)
            in.push_back(rt::synth::photo(R + 2, C + 2,
                                          opts.seed * 7919 + f));
        auto session = engine.openStream("denoise", {R, C});
        const auto declared = std::size_t(session->declaredOutputs());
        std::vector<std::vector<rt::Buffer>> got(in.size());
        for (std::size_t f = 0; f < in.size(); ++f)
            engine.submitFrame(
                session, {borrow(in[f])},
                [&got, f, declared](const serve::StreamFrameResult &r) {
                    // Outputs are borrowed: copy the declared ones.
                    if (r.ok())
                        got[f].assign(r.outputs->begin(),
                                      r.outputs->begin() +
                                          std::ptrdiff_t(declared));
                });
        engine.closeStream(session);
        const core::StreamLowering sl = core::lowerStream(denoiseSpec);
        std::vector<std::vector<const rt::Buffer *>> ins;
        for (const rt::Buffer &b : in)
            ins.push_back({&b});
        std::vector<std::vector<rt::Buffer>> ref;
        {
            Tracer::Scope span(tracer, "interp", "interp::evaluateStream");
            ref = interp::evaluateStream(pg::PipelineGraph::build(sl.spec),
                                         sl.plan, {R, C}, ins);
        }
        for (std::size_t f = 0; f < in.size(); ++f) {
            const double d = maxOutputDiff(got[f], ref[f]);
            if (d > 1e-4)
                std::fprintf(stderr, "stream frame %zu: diff %g\n", f, d);
            result.attempt(d <= 1e-4);
        }
    }

    // ---- Metrics --------------------------------------------------------
    auto summarize = [&](const PhaseResult &ph, bool count) {
        struct S
        {
            std::vector<double> req, reqQueue, reqRun, frame, frameQueue,
                frameRun;
            /** Request latencies by schedule window (kWindowS). */
            std::vector<std::vector<double>> reqByWindow;
            std::size_t good = 0, failed = 0;
            /** Output pixels of requests and frames done in time. */
            double goodPixels = 0.0;
        } s;
        s.reqByWindow.resize(
            std::size_t(std::max(1.0, std::floor(ph.scheduleS / kWindowS))));
        for (std::size_t i = 0; i < ph.events.size(); ++i) {
            const Outcome &o = ph.outcomes[i];
            if (count)
                result.attempt(o.ok);
            if (!o.ok) {
                ++s.failed;
                continue;
            }
            const bool inTime = o.latencyMs <= kLatencyLimitMs;
            if (ph.events[i].target >= 0) {
                const Shape &sh =
                    targets[std::size_t(ph.events[i].target)].shape;
                s.req.push_back(o.latencyMs);
                s.reqByWindow[std::min(
                                  s.reqByWindow.size() - 1,
                                  std::size_t(ph.events[i].dueS / kWindowS))]
                    .push_back(o.latencyMs);
                s.reqQueue.push_back(o.queueMs);
                s.reqRun.push_back(o.runMs);
                if (inTime) {
                    ++s.good;
                    s.goodPixels += double(sh.rows * sh.cols);
                }
            } else {
                s.frame.push_back(o.latencyMs);
                s.frameQueue.push_back(o.queueMs);
                s.frameRun.push_back(o.runMs);
                if (inTime)
                    s.goodPixels += double(kStreamRows * kStreamCols);
            }
        }
        return s;
    };
    const auto u = summarize(untraced, true);
    std::printf("# requests %zu frames %zu failed %zu  generator late "
                "p50 %.3f ms p99 %.3f ms max %.3f ms\n",
                u.req.size(), u.frame.size(), u.failed,
                median(untraced.lateMs), quantile(untraced.lateMs, 0.99),
                quantile(untraced.lateMs, 1.0));
    // Median over the windows of each window's quantile @p q.
    auto windowed = [](const std::vector<std::vector<double>> &byWindow,
                       double q) {
        std::vector<double> v;
        for (const std::vector<double> &w : byWindow)
            if (!w.empty())
                v.push_back(quantile(w, q));
        return median(v);
    };
    std::printf("# request pooled p50 %.3f p90 %.3f p99 %.3f ms  goodput "
                "%.2f req/s within %g ms  frame p99 %.3f ms\n",
                median(u.req), quantile(u.req, 0.9), quantile(u.req, 0.99),
                double(u.good) / untraced.durationS, kLatencyLimitMs,
                quantile(u.frame, 0.99));

    if (!opts.trace) {
        result.add("setup_s", setupS, "s");
        result.add("latency_ms_p50", windowed(u.reqByWindow, 0.5), "ms");
        result.add("latency_ms_tail", windowed(u.reqByWindow, 0.9), "ms");
        result.add("mpix_s", u.goodPixels * 1e-6 / untraced.durationS,
                   "Mpix/s");
        result.add("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    const auto t = summarize(traced, true);

    // ---- Per-layer measurements (traced run only) ---------------------
    // Direct calls of each served app's variant at its 1/4-size shape;
    // serving variants carry the task-granular entry themselves.
    std::vector<RunFacts> ran;
    for (const Target &tg : targets) {
        if (tg.scale != kServedScales[0])
            continue;
        const auto exe = registry->get(tg.app);
        std::vector<rt::Buffer> outs =
            exe->run(tg.shape.params, tg.shape.inputPtrs());
        ran.push_back(measureRun(paperApp(tg.app), *exe, exe.get(),
                                 tg.shape, outs, 0.0, tracer, result));
    }
    addLayerMetrics(result, built, ran);
    result.add("runtime.pool_allocs_timed",
               double(after.poolBlockAllocs - before.poolBlockAllocs),
               "count");
    result.add("runtime.pool_peak_mb",
               double(after.poolPeakBytesInUse) / (1 << 20), "MB");
    result.add("trace.overhead_pct",
               (median(t.req) - median(u.req)) / median(u.req) * 100.0,
               "%");

    // Engine, registry and stream counters: serve_mixed only, so they
    // are detail lines rather than metrics.
    std::vector<double> late = untraced.lateMs;
    late.insert(late.end(), traced.lateMs.begin(), traced.lateMs.end());
    std::printf(
        "# serve queue p50 %.3f p99 %.3f ms  run p50 %.3f p99 %.3f ms  "
        "peak queue depth %lld  failed %zu  tier-1 served %llu\n",
        median(u.reqQueue), quantile(u.reqQueue, 0.99), median(u.reqRun),
        quantile(u.reqRun, 0.99), (long long)after.peakQueueDepth,
        u.failed + t.failed,
        (unsigned long long)(after.interpServed - before.interpServed));
    std::printf(
        "# serve mean batch %.3f  steals %llu  registry misses %llu  "
        "generator late p99 %.3f ms\n",
        after.batches == 0
            ? 0.0
            : double(after.batchedRequests) / double(after.batches),
        (unsigned long long)(after.scheduler.steals -
                             before.scheduler.steals),
        (unsigned long long)(regAfter.misses - regBefore.misses),
        quantile(late, 0.99));
    std::printf("# stream run p50 %.3f ms  queue p99 %.3f ms  rings %.1f "
                "KB\n",
                median(u.frameRun), quantile(u.frameQueue, 0.99), ringKb);
}

} // namespace polymage::perfbench
