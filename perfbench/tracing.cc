#include "tracing.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <utility>

#include "common/error.h"

namespace perfbench {
namespace {

/** This thread's open spans, innermost last. */
thread_local std::vector<std::uint32_t> t_stack;

using Interval = std::pair<std::int64_t, std::int64_t>;

/** Length of the union of @p intervals clipped to [lo, hi). */
std::int64_t
unionLength(std::vector<Interval> intervals, std::int64_t lo,
            std::int64_t hi)
{
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t cursor = lo;
    for (auto [start, end] : intervals) {
        start = std::max(start, cursor);
        end = std::min(end, hi);
        if (end > start) {
            covered += end - start;
            cursor = end;
        }
    }
    return covered;
}

void
jsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            os << ' ';
        else
            os << c;
    }
    os << '"';
}

} // namespace

std::uint32_t
Tracer::intern(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = name_ids_.emplace(
        name, static_cast<std::uint32_t>(names_.size()));
    if (inserted)
        names_.push_back(name);
    return it->second;
}

std::uint32_t
Tracer::open(std::uint32_t name)
{
    Span span;
    span.name = name;
    span.start_ns = nowNs();
    std::uint32_t id;
    {
        std::lock_guard<std::mutex> lock(mu_);
        span.parent = t_stack.empty() ? worker_parent_ : t_stack.back();
        id = static_cast<std::uint32_t>(spans_.size() + 1);
        span.id = id;
        spans_.push_back(span);
    }
    t_stack.push_back(id);
    return id;
}

void
Tracer::close(std::uint32_t id)
{
    // Spans close in reverse order of opening (ScopedSpan scopes, or an
    // explicit open/close bracketing them), so @p id is the top.
    std::int64_t end = nowNs();
    t_stack.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = end;
}

void
Tracer::record(std::uint32_t name, std::int64_t start_ns,
               std::int64_t end_ns, std::uint32_t parent)
{
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    spans_.push_back(span);
}

TraceSummary
Tracer::summarize(std::uint32_t root,
                  const std::vector<std::string> &excluded) const
{
    std::lock_guard<std::mutex> lock(mu_);
    CBS_EXPECT(root >= 1 && root <= spans_.size(), "no root span");
    const Span &top = spans_[root - 1];
    CBS_EXPECT(top.end_ns >= 0, "root span still open");

    std::vector<std::vector<std::uint32_t>> children(spans_.size() + 1);
    for (const Span &span : spans_)
        if (span.parent != 0)
            children[span.parent].push_back(span.id);
    std::set<std::uint32_t> excluded_names;
    for (const std::string &name : excluded) {
        auto it = name_ids_.find(name);
        if (it != name_ids_.end())
            excluded_names.insert(it->second);
    }

    TraceSummary out;
    std::int64_t cut = 0;
    std::vector<Interval> leaves;
    std::vector<std::uint32_t> todo = children[root];
    while (!todo.empty()) {
        const Span &span = spans_[todo.back() - 1];
        todo.pop_back();
        CBS_EXPECT(span.end_ns >= 0,
                   "span " << names_[span.name] << " left open");
        if (excluded_names.count(span.name)) {
            cut += span.end_ns - span.start_ns;
            continue;
        }
        const std::vector<std::uint32_t> &kids = children[span.id];
        std::vector<Interval> covered;
        covered.reserve(kids.size());
        for (std::uint32_t kid : kids) {
            const Span &child = spans_[kid - 1];
            covered.emplace_back(child.start_ns, child.end_ns);
            todo.push_back(kid);
        }
        std::int64_t duration = span.end_ns - span.start_ns;
        std::int64_t self =
            duration - unionLength(std::move(covered), span.start_ns,
                                   span.end_ns);
        const std::string &name = names_[span.name];
        out.self_s[name] += static_cast<double>(self) * 1e-9;
        out.total_s[name] += static_cast<double>(duration) * 1e-9;
        if (kids.empty())
            leaves.emplace_back(span.start_ns, span.end_ns);
    }
    std::int64_t wall = top.end_ns - top.start_ns - cut;
    out.wall_s = static_cast<double>(wall) * 1e-9;
    if (wall > 0)
        out.closure =
            static_cast<double>(unionLength(std::move(leaves),
                                            top.start_ns, top.end_ns)) /
            static_cast<double>(wall);
    return out;
}

void
Tracer::writeJson(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path, std::ios::trunc);
    CBS_EXPECT(out, "cannot open " << path);
    for (const Span &span : spans_) {
        out << "{\"run\": ";
        jsonString(out, run_id_);
        out << ", \"id\": " << span.id << ", \"parent\": " << span.parent
            << ", \"name\": ";
        jsonString(out, names_[span.name]);
        out << ", \"start_ns\": " << span.start_ns
            << ", \"end_ns\": " << span.end_ns << "}\n";
    }
    CBS_EXPECT(out, "failed writing " << path);
}

TracedShardable::TracedShardable(cbs::ShardableAnalyzer &inner,
                                 Tracer &tracer,
                                 const std::string &kernel_span,
                                 const std::string &finalize_span)
    : inner_(&inner), tracer_(tracer),
      kernel_(tracer.intern(kernel_span)),
      finalize_(tracer.intern(finalize_span)),
      merge_(tracer.intern("parallel.merge"))
{
}

TracedShardable::TracedShardable(
    std::unique_ptr<cbs::ShardableAnalyzer> owned, Tracer &tracer,
    std::uint32_t kernel, std::uint32_t finalize, std::uint32_t merge)
    : owned_(std::move(owned)), inner_(owned_.get()), tracer_(tracer),
      kernel_(kernel), finalize_(finalize), merge_(merge)
{
}

void
TracedShardable::consume(const cbs::IoRequest &req)
{
    ScopedSpan span(&tracer_, kernel_);
    inner_->consume(req);
}

void
TracedShardable::consumeBatch(std::span<const cbs::IoRequest> batch)
{
    ScopedSpan span(&tracer_, kernel_);
    inner_->consumeBatch(batch);
}

void
TracedShardable::consumeColumns(const cbs::RequestBatch &batch)
{
    ScopedSpan span(&tracer_, kernel_);
    inner_->consumeColumns(batch);
}

void
TracedShardable::finalize()
{
    ScopedSpan span(&tracer_, finalize_);
    inner_->finalize();
}

std::unique_ptr<cbs::ShardableAnalyzer>
TracedShardable::clone() const
{
    return std::unique_ptr<cbs::ShardableAnalyzer>(new TracedShardable(
        inner_->clone(), tracer_, kernel_, finalize_, merge_));
}

void
TracedShardable::mergeFrom(const cbs::ShardableAnalyzer &shard)
{
    ScopedSpan span(&tracer_, merge_);
    inner_->mergeFrom(*cbs::shardCast<TracedShardable>(shard).inner_);
}

void
TracedShardable::serialize(cbs::snap::Sink &sink) const
{
    inner_->serialize(sink);
}

void
TracedShardable::deserialize(cbs::snap::Source &source)
{
    inner_->deserialize(source);
}

} // namespace perfbench
