#include "trace.h"

#include <cstdio>

#include "common.h"
#include "util/json.h"

namespace cobench {

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

Tracer::Buffer &
Tracer::local()
{
    thread_local Buffer *buf = nullptr;
    if (!buf) {
        std::lock_guard<std::mutex> lk(mu_);
        buffers_.push_back(std::make_unique<Buffer>());
        buf = buffers_.back().get();
        buf->thread = static_cast<int>(buffers_.size()) - 1;
    }
    return *buf;
}

int
Tracer::push(const char *name, double start, double end)
{
    Buffer &b = local();
    int parent = b.open.empty() ? -1 : b.open.back();
    std::lock_guard<std::mutex> lk(mu_); // totals()/write() may read
    b.spans.push_back({name, start, end, parent});
    return static_cast<int>(b.spans.size()) - 1;
}

void
Tracer::close(int index)
{
    Buffer &b = local();
    double end = nowSec();
    std::lock_guard<std::mutex> lk(mu_);
    b.spans[index].end = end;
    b.open.pop_back();
}

Tracer::Scope::Scope(const char *name)
{
    Tracer &t = instance();
    if (!t.enabled())
        return;
    index_ = t.push(name, nowSec(), 0.0);
    t.local().open.push_back(index_);
}

Tracer::Scope::~Scope()
{
    if (index_ >= 0)
        instance().close(index_);
}

void
Tracer::add(const char *name, double start, double end)
{
    if (enabled())
        push(name, start, end);
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::map<std::string, Totals> out;
    for (const auto &buf : buffers_) {
        std::vector<double> childSec(buf->spans.size(), 0.0);
        for (const Span &s : buf->spans)
            if (s.parent >= 0 && s.end > 0.0)
                childSec[s.parent] += s.end - s.start;
        for (size_t i = 0; i < buf->spans.size(); ++i) {
            const Span &s = buf->spans[i];
            if (s.end <= 0.0)
                continue; // still open
            Totals &t = out[s.name];
            ++t.count;
            t.totalSec += s.end - s.start;
            t.selfSec += s.end - s.start - childSec[i];
        }
    }
    return out;
}

bool
Tracer::write(const std::string &path, const std::string &headerJson) const
{
    std::map<std::string, Totals> sums = totals();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"header\":%s,\n\"totals\":{", headerJson.c_str());
    bool first = true;
    for (const auto &[name, t] : sums) {
        std::fprintf(f,
                     "%s\n\"%s\":{\"count\":%lld,\"total_s\":%.9g,"
                     "\"self_s\":%.9g}",
                     first ? "" : ",", name.c_str(),
                     static_cast<long long>(t.count), t.totalSec, t.selfSec);
        first = false;
    }
    std::fprintf(f, "},\n\"spans\":[");
    first = true;
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &buf : buffers_) {
        for (const Span &s : buf->spans) {
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"thread\":%d,"
                         "\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d}",
                         first ? "" : ",", s.name, buf->thread, s.start,
                         s.end, s.parent);
            first = false;
        }
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace cobench
