/**
 * @file
 * In-memory span recorder for traced runs (--trace 1).
 *
 * Spans are opened and closed by the benchmark around its own calls
 * into the library's public functions (nothing inside the library is
 * instrumented). Each span carries its name, start, end, thread and
 * parent (the span open on the same thread when it started); a span's
 * self time is its duration minus that of its children. Spans live in
 * per-thread buffers and are written to a JSON file when the run ends.
 * While tracing is off, a Scope costs one relaxed load.
 */

#ifndef COBENCH_TRACE_H
#define COBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cobench {

class Tracer
{
  public:
    /** The process-wide recorder. */
    static Tracer &instance();

    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** RAII span on the calling thread. */
    class Scope
    {
      public:
        explicit Scope(const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        int index_ = -1;
    };

    /** A span whose bounds were measured elsewhere (e.g. search
     *  batches seen by an observer), parented to the caller's open
     *  span. Times are nowSec() values. */
    void add(const char *name, double start, double end);

    /** Per-name totals over every recorded span. */
    struct Totals
    {
        int64_t count = 0;
        double totalSec = 0.0;
        double selfSec = 0.0;
    };
    std::map<std::string, Totals> totals() const;

    /** Write spans, per-name totals and @p headerJson (an object
     *  merged in as "header"). @return false on I/O failure. */
    bool write(const std::string &path, const std::string &headerJson) const;

  private:
    struct Span
    {
        const char *name;
        double start;
        double end;
        int parent;
    };
    struct Buffer
    {
        int thread = 0;
        std::vector<Span> spans;
        std::vector<int> open;
    };

    Buffer &local();
    int push(const char *name, double start, double end);
    void close(int index);

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

} // namespace cobench

#endif // COBENCH_TRACE_H
