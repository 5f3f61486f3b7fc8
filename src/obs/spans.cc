#include "obs/spans.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

namespace vtrans::obs {

void
SpanTracer::recordComplete(Span span)
{
    span.kind = Span::Kind::Complete;
    std::lock_guard<std::mutex> lock(mu_);
    bufferLocked().push_back(std::move(span));
}

void
SpanTracer::recordEvent(Span span)
{
    std::lock_guard<std::mutex> lock(mu_);
    bufferLocked().push_back(std::move(span));
}

void
SpanTracer::recordCounter(Span span)
{
    span.kind = Span::Kind::Counter;
    std::lock_guard<std::mutex> lock(mu_);
    bufferLocked().push_back(std::move(span));
}

void
SpanTracer::setTrackName(int64_t pid, int64_t tid, const std::string& name)
{
    std::lock_guard<std::mutex> lock(mu_);
    track_names_[{pid, tid}] = name;
}

std::vector<Span>&
SpanTracer::bufferLocked()
{
    return buffers_[std::this_thread::get_id()];
}

std::vector<Span>
SpanTracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> all;
    for (const auto& [tid, buffer] : buffers_) {
        all.insert(all.end(), buffer.begin(), buffer.end());
    }
    return all;
}

size_t
SpanTracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    for (const auto& [tid, buffer] : buffers_) {
        n += buffer.size();
    }
    return n;
}

void
SpanTracer::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.clear();
    track_names_.clear();
}

namespace {

void
appendEscaped(std::ostringstream* os, const std::string& s)
{
    for (char c : s) {
        switch (c) {
        case '"': *os << "\\\""; break;
        case '\\': *os << "\\\\"; break;
        case '\n': *os << "\\n"; break;
        case '\t': *os << "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                // Other control characters never appear in our names;
                // drop them rather than emit invalid JSON.
                break;
            }
            *os << c;
        }
    }
}

void
appendSpanJson(std::ostringstream* os, const Span& span)
{
    const char* ph = "X";
    switch (span.kind) {
    case Span::Kind::Complete: ph = "X"; break;
    case Span::Kind::AsyncBegin: ph = "b"; break;
    case Span::Kind::AsyncEnd: ph = "e"; break;
    case Span::Kind::Instant: ph = "i"; break;
    case Span::Kind::Counter: ph = "C"; break;
    }
    *os << "{\"ph\":\"" << ph << "\",\"cat\":\"";
    appendEscaped(os, span.category);
    *os << "\",\"name\":\"";
    appendEscaped(os, span.name);
    *os << "\",\"pid\":" << span.pid << ",\"tid\":" << span.tid
        << ",\"ts\":" << span.ts_us;
    if (span.kind == Span::Kind::Complete) {
        *os << ",\"dur\":" << span.dur_us;
    }
    if (span.kind == Span::Kind::AsyncBegin ||
        span.kind == Span::Kind::AsyncEnd) {
        *os << ",\"id\":" << span.id;
    }
    if (span.kind == Span::Kind::Instant) {
        *os << ",\"s\":\"t\"";
    }
    *os << ",\"args\":{";
    bool first_arg = true;
    for (const auto& [key, value] : span.values) {
        if (!first_arg) {
            *os << ",";
        }
        first_arg = false;
        *os << "\"";
        appendEscaped(os, key);
        // Non-finite doubles are not representable in JSON.
        *os << "\":" << (std::isfinite(value) ? value : 0.0);
    }
    for (const auto& [key, value] : span.args) {
        if (!first_arg) {
            *os << ",";
        }
        first_arg = false;
        *os << "\"";
        appendEscaped(os, key);
        *os << "\":\"";
        appendEscaped(os, value);
        *os << "\"";
    }
    *os << "}}";
}

} // namespace

std::string
SpanTracer::toChromeTrace() const
{
    std::map<std::pair<int64_t, int64_t>, std::string> names;
    std::vector<Span> all;
    {
        std::lock_guard<std::mutex> lock(mu_);
        names = track_names_;
        for (const auto& [tid, buffer] : buffers_) {
            all.insert(all.end(), buffer.begin(), buffer.end());
        }
    }
    std::ostringstream os;
    os << "{\"traceEvents\":[";
    bool first = true;
    for (const auto& [track, name] : names) {
        if (!first) {
            os << ",";
        }
        first = false;
        os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":"
           << track.first << ",\"tid\":" << track.second
           << ",\"args\":{\"name\":\"";
        appendEscaped(&os, name);
        os << "\"}}";
    }
    for (const Span& span : all) {
        if (!first) {
            os << ",";
        }
        first = false;
        appendSpanJson(&os, span);
    }
    os << "],\"displayTimeUnit\":\"ms\"}";
    return os.str();
}

bool
SpanTracer::writeChromeTrace(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    out << toChromeTrace() << "\n";
    return static_cast<bool>(out.flush());
}

SpanTracer::Scoped::Scoped(SpanTracer* tracer, std::string category,
                           std::string name)
    : tracer_(tracer)
{
    if (tracer_ == nullptr) {
        return;
    }
    span_.category = std::move(category);
    span_.name = std::move(name);
    span_.tid = threadTid();
    span_.ts_us = wallNowUs();
}

SpanTracer::Scoped::~Scoped()
{
    if (tracer_ == nullptr) {
        return;
    }
    span_.dur_us = wallNowUs() - span_.ts_us;
    tracer_->recordComplete(std::move(span_));
}

void
SpanTracer::Scoped::arg(std::string key, std::string value)
{
    if (tracer_ == nullptr) {
        return;
    }
    span_.args.emplace_back(std::move(key), std::move(value));
}

double
wallNowUs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return std::chrono::duration<double, std::micro>(clock::now() - epoch)
        .count();
}

int64_t
threadTid()
{
    static std::atomic<int64_t> next{1};
    thread_local int64_t tid = next.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

} // namespace vtrans::obs
