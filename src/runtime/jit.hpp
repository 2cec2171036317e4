/**
 * @file
 * JIT harness: compiles generated C++ with the system compiler into a
 * shared object and loads it, mirroring how PolyMage's generated code
 * was built with icc in the paper (here: g++ -O3 -march=native
 * -fopenmp).
 */
#ifndef POLYMAGE_RUNTIME_JIT_HPP
#define POLYMAGE_RUNTIME_JIT_HPP

#include <memory>
#include <string>

namespace polymage::rt {

/** Flags for the downstream C++ compiler. */
struct JitOptions
{
    std::string compiler = "g++";
    std::string optLevel = "-O3";
    bool nativeArch = true;
    bool openmp = true;
    /** When false, auto-vectorisation is disabled (-fno-tree-vectorize). */
    bool vectorize = true;
    /** Keep the temp directory (sources, errors) for inspection. */
    bool keepFiles = false;
    std::string extraFlags;
    /**
     * Use the persistent object cache: shared objects are keyed by a
     * hash of (source, flags, compiler version) and stored under
     * $XDG_CACHE_HOME/polymage/jit, so rebuilding an unchanged pipeline
     * skips the compiler entirely.  Disable per-module here or
     * process-wide with POLYMAGE_JIT_CACHE=0.
     */
    bool cache = true;
};

/** A compiled and loaded shared object. */
class JitModule
{
  public:
    /**
     * Compile @p source and load the resulting shared object.
     * @throws InternalError with the compiler diagnostics on failure.
     */
    static JitModule compile(const std::string &source,
                             const JitOptions &opts = {});

    JitModule(JitModule &&) noexcept;
    JitModule &operator=(JitModule &&) noexcept;
    JitModule(const JitModule &) = delete;
    JitModule &operator=(const JitModule &) = delete;
    /** Unloads the module, but never the OpenMP runtime it may have
     * brought in: that stays loaded for the rest of the process. */
    ~JitModule();

    /** Resolve a symbol; throws InternalError when missing. */
    void *symbol(const std::string &name) const;

    /** Path of the generated source file. */
    const std::string &sourcePath() const { return sourcePath_; }

    /** True when the shared object was loaded from the persistent
     * cache without invoking the compiler. */
    bool fromCache() const { return fromCache_; }

  private:
    JitModule() = default;

    void *handle_ = nullptr;
    std::string dir_;
    std::string sourcePath_;
    bool keep_ = false;
    bool fromCache_ = false;
};

} // namespace polymage::rt

#endif // POLYMAGE_RUNTIME_JIT_HPP
