#include "trace/probe.h"

#include "common/status.h"

namespace vtrans::trace {

thread_local ProbeSink* g_sink = nullptr;

namespace detail {

thread_local BatchCursor g_cursor;

namespace {

/// Backing storage for this thread's batch buffer. Owned here (not in the
/// cursor) so the hot emit path only touches the three cursor pointers.
thread_local std::vector<ProbeEvent> t_batch_storage;

} // namespace

void
flushBatch()
{
    BatchCursor& cur = g_cursor;
    const size_t count = static_cast<size_t>(cur.pos - cur.begin);
    cur.pos = cur.begin;
    if (count > 0 && g_sink != nullptr) {
        g_sink->onBatch(cur.begin, count);
    }
}

} // namespace detail

void
setSink(ProbeSink* sink, uint32_t batch_capacity)
{
    VT_ASSERT(sink == nullptr || batch_capacity >= 2,
              "probe batch capacity must be at least 2, got ",
              batch_capacity);
    flush();
    ProbeSink* old = g_sink;
    if (old != nullptr) {
        // The barrier: pending events are delivered; let the old sink
        // finish consuming them before anyone reads its results.
        old->onDetach();
    }
    g_sink = sink;
    if (sink == nullptr) {
        detail::g_cursor = detail::BatchCursor{};
        return;
    }
    std::vector<ProbeEvent>& storage = detail::t_batch_storage;
    if (storage.size() < batch_capacity) {
        storage.resize(batch_capacity);
    }
    detail::g_cursor.begin = storage.data();
    detail::g_cursor.pos = storage.data();
    detail::g_cursor.end = storage.data() + batch_capacity;
}

void
flush()
{
    if (detail::g_cursor.pos != nullptr) {
        detail::flushBatch();
    }
}

void
ProbeSink::onBatch(const ProbeEvent* events, size_t count)
{
    for (size_t i = 0; i < count; ++i) {
        const ProbeEvent& e = events[i];
        switch (e.kind) {
        case ProbeEvent::kBlock:
            onBlock(*e.site);
            break;
        case ProbeEvent::kBlockBranch:
            onBlock(*e.site);
            onBranch(*e.site, (e.flags & 1) != 0);
            break;
        case ProbeEvent::kLoad:
            onLoad(e.addr, e.aux);
            break;
        case ProbeEvent::kStore:
            onStore(e.addr, e.aux);
            break;
        default:
            VT_PANIC("corrupt probe event kind ", static_cast<int>(e.kind));
        }
    }
}

TeeSink::TeeSink(std::vector<ProbeSink*> sinks)
{
    for (ProbeSink* sink : sinks) {
        add(sink);
    }
}

void
TeeSink::add(ProbeSink* sink)
{
    VT_ASSERT(sink != nullptr, "cannot chain a null probe sink");
    flush();
    sinks_.push_back(sink);
}

void
TeeSink::onBlock(const CodeSite& site)
{
    for (ProbeSink* sink : sinks_) {
        sink->onBlock(site);
    }
}

void
TeeSink::onBranch(const CodeSite& site, bool taken)
{
    for (ProbeSink* sink : sinks_) {
        sink->onBranch(site, taken);
    }
}

void
TeeSink::onLoad(uint64_t addr, uint32_t bytes)
{
    for (ProbeSink* sink : sinks_) {
        sink->onLoad(addr, bytes);
    }
}

void
TeeSink::onStore(uint64_t addr, uint32_t bytes)
{
    for (ProbeSink* sink : sinks_) {
        sink->onStore(addr, bytes);
    }
}

void
TeeSink::onBatch(const ProbeEvent* events, size_t count)
{
    // Forward the batch whole: each sink consumes the identical event
    // sequence in the identical order; only the (unobservable)
    // interleaving between independent sinks is batch-grained.
    for (ProbeSink* sink : sinks_) {
        sink->onBatch(events, count);
    }
}

void
TeeSink::onDetach()
{
    for (ProbeSink* sink : sinks_) {
        sink->onDetach();
    }
}

SiteRegistry&
registry()
{
    static SiteRegistry instance;
    return instance;
}

SimArena&
arena()
{
    thread_local SimArena instance;
    return instance;
}

CodeSite&
SiteRegistry::define(std::string name, uint32_t bytes, uint32_t instructions,
                     SiteKind kind)
{
    VT_ASSERT(bytes > 0, "code site must have non-zero size: ", name);
    std::lock_guard<std::mutex> lock(mu_);
    CodeSite* site = &storage_.emplace_back();
    site->id = static_cast<uint32_t>(sites_.size());
    site->name = std::move(name);
    site->bytes = bytes * kCodeScale;
    site->instructions = instructions;
    site->kind = kind;
    site->address = next_address_;
    next_address_ += site->bytes + kDefaultColdPadding;
    sites_.push_back(site);
    return *site;
}

void
SiteRegistry::resetLayout()
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t addr = kTextBase;
    for (CodeSite* site : sites_) {
        site->address = addr;
        site->invert = false;
        addr += site->bytes + kDefaultColdPadding;
    }
    next_address_ = addr;
}

} // namespace vtrans::trace
