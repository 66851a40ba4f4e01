/**
 * @file
 * In-memory span recording for the benchmark's traced runs.
 *
 * The benchmark wraps every call it makes into a simulator layer (IR
 * build, instrumentation, verification, Machine set-up, Machine::run,
 * stat snapshotting, teardown) in a span: name, start, end, parent, and
 * the id of the program run it belongs to. Spans stay in memory while a
 * pass runs; a layer's self time is its spans' durations minus the part
 * covered by their children. Untraced runs pass a null recorder, so the
 * scopes cost nothing but a branch.
 */

#ifndef IFPBENCH_SPANS_HH
#define IFPBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ifpbench {

/** Nanoseconds on the steady clock. */
int64_t nowNs();

class SpanRecorder
{
  public:
    struct Span
    {
        const char *name;
        int64_t startNs;
        int64_t endNs;
        /** Index of the enclosing span, or -1 for a root. */
        int32_t parent;
        /** Program run the span belongs to. */
        uint32_t run;
    };

    int32_t open(const char *name, int32_t parent, uint32_t run);
    void close(int32_t id) { spans_[id].endNs = nowNs(); }
    void clear() { spans_.clear(); }

    const std::vector<Span> &spans() const { return spans_; }

    /** Σ self time per span name, in ns; sums to rootTotalNs(). */
    std::map<std::string, int64_t> selfTimesNs() const;
    /** Σ durations of the root spans, in ns. */
    int64_t rootTotalNs() const;

    /** Write the spans as Chrome trace-event JSON (Perfetto-readable). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** Opens a span on construction and closes it on destruction; a no-op
 *  when the recorder is null. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *rec, const char *name, int32_t parent,
              uint32_t run)
        : rec_(rec), id_(rec ? rec->open(name, parent, run) : -1)
    {
    }
    ~SpanScope()
    {
        if (rec_)
            rec_->close(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int32_t id() const { return id_; }

  private:
    SpanRecorder *rec_;
    int32_t id_;
};

} // namespace ifpbench

#endif // IFPBENCH_SPANS_HH
