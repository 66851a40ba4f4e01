#include "spans.hh"

#include <chrono>
#include <cstdio>

namespace ifpbench {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int32_t
SpanRecorder::open(const char *name, int32_t parent, uint32_t run)
{
    spans_.push_back({name, nowNs(), 0, parent, run});
    return static_cast<int32_t>(spans_.size() - 1);
}

std::map<std::string, int64_t>
SpanRecorder::selfTimesNs() const
{
    std::map<std::string, int64_t> self;
    for (const Span &s : spans_) {
        int64_t dur = s.endNs - s.startNs;
        self[s.name] += dur;
        if (s.parent >= 0)
            self[spans_[s.parent].name] -= dur;
    }
    return self;
}

int64_t
SpanRecorder::rootTotalNs() const
{
    int64_t total = 0;
    for (const Span &s : spans_) {
        if (s.parent < 0)
            total += s.endNs - s.startNs;
    }
    return total;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    int64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
    std::fprintf(f, "{\"traceEvents\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"ph\": \"X\", \"name\": \"%s\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d, "
                     "\"run\": %u}}",
                     i ? "," : "", s.name, (s.startNs - t0) / 1e3,
                     (s.endNs - s.startNs) / 1e3, i, s.parent, s.run);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace ifpbench
