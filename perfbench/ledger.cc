#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

double
LedgerSummary::accounted() const
{
    double sum = unattributed;
    for (const auto& [name, seconds] : self) {
        sum += seconds;
    }
    return sum;
}

LedgerSummary
summarize(const std::vector<SpanRecord>& spans, double wall)
{
    LedgerSummary out;
    out.wall = wall;
    std::vector<double> child_time(spans.size(), 0.0);
    double top_level = 0.0;
    for (const SpanRecord& s : spans) {
        if (s.parent < 0) {
            top_level += std::clamp(s.end, 0.0, wall)
                         - std::clamp(s.start, 0.0, wall);
            continue;
        }
        // A child counts only for the part of it inside its parent.
        const SpanRecord& p = spans[s.parent];
        const double lo = std::max(s.start, p.start);
        const double hi = std::min(s.end, p.end);
        child_time[s.parent] += std::max(0.0, hi - lo);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord& s = spans[i];
        out.self[s.name] += (s.end - s.start) - child_time[i];
        ++out.count[s.name];
    }
    out.unattributed = wall - top_level;
    return out;
}

Ledger::Ledger(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{
}

double
Ledger::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - origin_)
        .count();
}

int
Ledger::begin(const std::string& name, uint64_t job)
{
    if (!enabled_) {
        return -1;
    }
    SpanRecord s;
    s.name = name;
    s.job = job;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
Ledger::end(int span)
{
    if (span < 0) {
        return;
    }
    spans_[span].end = now();
    // Spans close innermost first; closing an outer span closes any
    // inner one left open (it ends at the same instant).
    while (!open_.empty()) {
        const int top = open_.back();
        open_.pop_back();
        if (top == span) {
            break;
        }
        spans_[top].end = spans_[span].end;
    }
}

double
Ledger::total(const std::string& name) const
{
    double sum = 0.0;
    for (const SpanRecord& s : spans_) {
        if (s.name == name) {
            sum += s.end - s.start;
        }
    }
    return sum;
}

bool
Ledger::writeChromeTrace(const std::string& path,
                         const std::string& metadata) const
{
    std::ofstream out(path);
    if (!out) {
        return false;
    }
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata
        << ",\"traceEvents\":[";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"name\":\"",
                      i == 0 ? "" : ",", s.start * 1e6,
                      (s.end - s.start) * 1e6);
        out << buf << s.name << "\",\"args\":{\"job\":" << s.job
            << ",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out.flush());
}

} // namespace perfbench
