#include <gtest/gtest.h>

#include <cstdlib>
#include <dlfcn.h>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "runtime/jit.hpp"
#include "support/diagnostics.hpp"

namespace polymage::rt {
namespace {

/** Scoped env var; restores the previous value on destruction. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv()
    {
        if (old_.has_value())
            setenv(name_, old_->c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> old_;
};

/** A fresh private cache dir routed through POLYMAGE_JIT_CACHE_DIR. */
class ScopedCacheDir
{
  public:
    ScopedCacheDir()
    {
        char tmpl[] = "/tmp/polymage_jit_cache_test_XXXXXX";
        dir_ = mkdtemp(tmpl);
        env_ = std::make_unique<ScopedEnv>("POLYMAGE_JIT_CACHE_DIR",
                                           dir_);
    }
    ~ScopedCacheDir()
    {
        env_.reset();
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    const std::string &path() const { return dir_; }

    std::size_t
    sharedObjects() const
    {
        std::size_t n = 0;
        for (const auto &e :
             std::filesystem::directory_iterator(dir_)) {
            if (e.path().extension() == ".so")
                ++n;
        }
        return n;
    }

  private:
    std::string dir_;
    std::unique_ptr<ScopedEnv> env_;
};

TEST(Jit, CompileAndCall)
{
    JitModule mod = JitModule::compile(
        "extern \"C\" int pm_test_add(int a, int b) { return a + b; }\n");
    auto fn = reinterpret_cast<int (*)(int, int)>(
        mod.symbol("pm_test_add"));
    EXPECT_EQ(fn(2, 40), 42);
}

TEST(Jit, MissingSymbolThrows)
{
    JitModule mod = JitModule::compile(
        "extern \"C\" void pm_present() {}\n");
    EXPECT_NO_THROW(mod.symbol("pm_present"));
    EXPECT_THROW(mod.symbol("pm_absent"), InternalError);
}

TEST(Jit, CompileErrorIncludesDiagnostics)
{
    try {
        JitModule::compile("this is not C++\n");
        FAIL() << "expected InternalError";
    } catch (const InternalError &e) {
        // The exception carries the compiler invocation and log.
        EXPECT_NE(std::string(e.what()).find("JIT compilation failed"),
                  std::string::npos);
    }
}

TEST(Jit, MoveTransfersOwnership)
{
    JitModule a = JitModule::compile(
        "extern \"C\" int pm_seven() { return 7; }\n");
    JitModule b = std::move(a);
    auto fn = reinterpret_cast<int (*)()>(b.symbol("pm_seven"));
    EXPECT_EQ(fn(), 7);
}

TEST(Jit, ObjectCacheHitSkipsCompiler)
{
    ScopedCacheDir cache;
    const std::string src =
        "extern \"C\" int pm_cached() { return 11; }\n";

    JitModule first = JitModule::compile(src);
    EXPECT_FALSE(first.fromCache());
    EXPECT_EQ(cache.sharedObjects(), 1u);

    JitModule second = JitModule::compile(src);
    EXPECT_TRUE(second.fromCache());
    EXPECT_EQ(cache.sharedObjects(), 1u);
    auto fn = reinterpret_cast<int (*)()>(second.symbol("pm_cached"));
    EXPECT_EQ(fn(), 11);
    // The cached module carries the generated source for inspection.
    EXPECT_FALSE(second.sourcePath().empty());
}

TEST(Jit, ObjectCacheKeyCoversFlags)
{
    ScopedCacheDir cache;
    const std::string src =
        "extern \"C\" int pm_flagged() { return 5; }\n";
    JitModule a = JitModule::compile(src);
    // A different flag set must miss and add a second entry.
    JitOptions opts;
    opts.vectorize = false;
    JitModule b = JitModule::compile(src, opts);
    EXPECT_FALSE(b.fromCache());
    EXPECT_EQ(cache.sharedObjects(), 2u);
}

TEST(Jit, ObjectCacheOptOut)
{
    ScopedCacheDir cache;
    const std::string src =
        "extern \"C\" int pm_uncached() { return 3; }\n";
    JitOptions opts;
    opts.cache = false;
    JitModule a = JitModule::compile(src, opts);
    EXPECT_FALSE(a.fromCache());
    EXPECT_EQ(cache.sharedObjects(), 0u);

    // Process-wide kill switch.
    ScopedEnv off("POLYMAGE_JIT_CACHE", "0");
    JitModule b = JitModule::compile(src);
    EXPECT_FALSE(b.fromCache());
    EXPECT_EQ(cache.sharedObjects(), 0u);
}

TEST(Jit, ConcurrentWritersPublishOneCleanEntry)
{
    ScopedCacheDir cache;
    const std::string src =
        "extern \"C\" int pm_race() { return 9; }\n";

    // Both threads miss (the file does not exist yet), both compile,
    // and both publish to the same cache path.  The atomic-rename
    // publish must leave exactly one complete entry and no temp
    // droppings, whichever writer wins.
    std::optional<JitModule> a, b;
    std::thread ta([&] { a = JitModule::compile(src); });
    std::thread tb([&] { b = JitModule::compile(src); });
    ta.join();
    tb.join();

    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(reinterpret_cast<int (*)()>(a->symbol("pm_race"))(), 9);
    EXPECT_EQ(reinterpret_cast<int (*)()>(b->symbol("pm_race"))(), 9);

    EXPECT_EQ(cache.sharedObjects(), 1u);
    for (const auto &e :
         std::filesystem::directory_iterator(cache.path()))
        EXPECT_EQ(e.path().filename().string().find(".tmp."),
                  std::string::npos)
            << "leftover temp file " << e.path();

    // The published entry is loadable by a third compilation.
    JitModule c = JitModule::compile(src);
    EXPECT_TRUE(c.fromCache());
    EXPECT_EQ(reinterpret_cast<int (*)()>(c.symbol("pm_race"))(), 9);
}

TEST(Jit, OpenMPAvailableInJitCode)
{
    JitModule mod = JitModule::compile(
        "#include <omp.h>\n"
        "extern \"C\" int pm_threads() { return omp_get_max_threads(); "
        "}\n");
    auto fn = reinterpret_cast<int (*)()>(mod.symbol("pm_threads"));
    EXPECT_GE(fn(), 1);
}

TEST(Jit, OpenMPRuntimeOutlivesModule)
{
    // test_runtime makes no OpenMP call of its own, so the first JIT
    // module is what brings the OpenMP runtime into the process.  Its
    // pool threads stay parked after the module is destroyed; the
    // runtime must stay mapped for them.  num_threads(4) starts the
    // pool even on a single-core host.
    const auto teamSize = [](const std::string &name) {
        return "#include <omp.h>\n"
               "extern \"C\" int " +
               name +
               "() {\n"
               "  int n = 0;\n"
               "#pragma omp parallel num_threads(4)\n"
               "  {\n"
               "#pragma omp single\n"
               "    n = omp_get_num_threads();\n"
               "  }\n"
               "  return n;\n"
               "}\n";
    };
    {
        JitModule first = JitModule::compile(teamSize("pm_team_first"));
        auto fn = reinterpret_cast<int (*)()>(
            first.symbol("pm_team_first"));
        EXPECT_EQ(fn(), 4);
    }
    void *gomp = dlopen("libgomp.so.1", RTLD_NOW | RTLD_NOLOAD);
    EXPECT_NE(gomp, nullptr)
        << "the OpenMP runtime was unloaded with the module";
    if (gomp != nullptr)
        dlclose(gomp);

    JitModule second = JitModule::compile(teamSize("pm_team_second"));
    auto fn = reinterpret_cast<int (*)()>(
        second.symbol("pm_team_second"));
    EXPECT_EQ(fn(), 4);
}

} // namespace
} // namespace polymage::rt
