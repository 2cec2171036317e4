/**
 * @file
 * Keeps the JIT's scratch directories inside the benchmark's build
 * tree.  The JIT loader makes each module's directory with
 * mkdtemp("/tmp/polymage_jit_XXXXXX"); this definition, linked into
 * the benchmark executable ahead of libc, makes it under $TMPDIR
 * instead (run.py points TMPDIR into .bench_build/).  Every other
 * template, or an unset TMPDIR, goes to libc's mkdtemp unchanged.
 */
#include <dlfcn.h>

#include <cstdlib>
#include <cstring>
#include <string>

namespace {

const char kJitPrefix[] = "/tmp/polymage_jit_";

using MkdtempFn = char *(*)(char *);

MkdtempFn
libcMkdtemp()
{
    static const MkdtempFn fn =
        reinterpret_cast<MkdtempFn>(dlsym(RTLD_NEXT, "mkdtemp"));
    return fn;
}

} // namespace

extern "C" char *
mkdtemp(char *tmpl) noexcept
{
    const char *base = std::getenv("TMPDIR");
    if (base == nullptr || *base == '\0' ||
        std::strncmp(tmpl, kJitPrefix, sizeof kJitPrefix - 1) != 0)
        return libcMkdtemp()(tmpl);
    // The loader copies the returned path at once, and each thread
    // builds one module at a time, so one buffer per thread suffices.
    thread_local std::string path;
    path = std::string(base) + "/" + (tmpl + std::strlen("/tmp/"));
    return libcMkdtemp()(path.data());
}
