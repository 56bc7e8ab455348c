/**
 * @file
 * Benchmark-side tracing: spans recorded around each call the
 * benchmark makes into a cbs layer, kept in memory and written out
 * when the traced run ends.
 *
 * A span is (id, parent, name, start, end). Spans opened on one thread
 * nest by a per-thread stack; spans opened on a pipeline worker thread
 * take the tracer's worker parent (the pass that started the workers).
 * Nothing here touches the program: the decorators below wrap the
 * public TraceSource and ShardableAnalyzer interfaces, which is all the
 * untraced shipped path sees too.
 */

#ifndef CBS_PERFBENCH_TRACING_H
#define CBS_PERFBENCH_TRACING_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "trace/trace_source.h"

namespace perfbench {

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::uint32_t id = 0;     //!< 1-based; 0 means "no span"
    std::uint32_t parent = 0;
    std::uint32_t name = 0;   //!< Tracer::intern id
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1; //!< -1 while open
};

/** Per-layer figures derived from one traced call. */
struct TraceSummary
{
    /** Span name -> summed self time (duration minus the part of it
     *  its child spans cover), seconds. */
    std::map<std::string, double> self_s;
    /** Span name -> summed duration, seconds. */
    std::map<std::string, double> total_s;
    /** Root duration minus excluded (probe) spans, seconds. */
    double wall_s = 0;
    /** Share of wall_s covered by the union of leaf spans. */
    double closure = 0;
};

class Tracer
{
  public:
    explicit Tracer(std::string run_id) : run_id_(std::move(run_id)) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Stable id for a span name; call outside hot loops. */
    std::uint32_t intern(const std::string &name);

    /** Open a span on this thread; returns its id. */
    std::uint32_t open(std::uint32_t name);

    /** Close span @p id, the innermost open span of this thread. */
    void close(std::uint32_t id);

    /** Record an already-measured interval as a closed span. */
    void record(std::uint32_t name, std::int64_t start_ns,
                std::int64_t end_ns, std::uint32_t parent);

    /** Parent for spans opened on threads with an empty stack. */
    void
    setWorkerParent(std::uint32_t id)
    {
        std::lock_guard<std::mutex> lock(mu_);
        worker_parent_ = id;
    }

    /** Self times and closure of the tree under @p root; spans named
     *  in @p excluded (and their subtrees) are cut from the wall. */
    TraceSummary summarize(std::uint32_t root,
                           const std::vector<std::string> &excluded) const;

    /** Write every span as JSON lines to @p path. */
    void writeJson(const std::string &path) const;

  private:
    std::string run_id_;
    mutable std::mutex mu_;
    std::vector<std::string> names_;
    std::map<std::string, std::uint32_t> name_ids_;
    std::vector<Span> spans_;
    std::uint32_t worker_parent_ = 0;
};

/** RAII span; a null tracer makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, std::uint32_t name)
        : tracer_(tracer), id_(tracer ? tracer->open(name) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    Tracer *tracer_;
    std::uint32_t id_;
};

/** Spans every nextBatch/nextColumns call of a borrowed source. */
class TracedSource : public cbs::TraceSource
{
  public:
    TracedSource(cbs::TraceSource &inner, Tracer &tracer,
                 const std::string &span_name)
        : inner_(inner), tracer_(tracer),
          name_(tracer.intern(span_name))
    {
    }

    bool next(cbs::IoRequest &req) override { return inner_.next(req); }
    void reset() override { inner_.reset(); }
    std::uint64_t sizeHint() const override { return inner_.sizeHint(); }

  protected:
    std::size_t
    nextBatchImpl(std::vector<cbs::IoRequest> &out,
                  std::size_t max_requests) override
    {
        ScopedSpan span(&tracer_, name_);
        return inner_.nextBatch(out, max_requests);
    }

    std::size_t
    nextColumnsImpl(cbs::RequestBatch &out,
                    std::size_t max_requests) override
    {
        ScopedSpan span(&tracer_, name_);
        return inner_.nextColumns(out, max_requests);
    }

  private:
    cbs::TraceSource &inner_;
    Tracer &tracer_;
    std::uint32_t name_;
};

/**
 * Spans a shardable analyzer's kernel calls, its finalize and its
 * merges (parallel.merge). Clones wrap the inner clone, so shard
 * replicas are traced too.
 */
class TracedShardable : public cbs::ShardableAnalyzer
{
  public:
    /** Borrow @p inner (the caller keeps it alive); kernel calls span
     *  as @p kernel_span, finalize as @p finalize_span. */
    TracedShardable(cbs::ShardableAnalyzer &inner, Tracer &tracer,
                    const std::string &kernel_span,
                    const std::string &finalize_span);

    void consume(const cbs::IoRequest &req) override;
    void consumeBatch(std::span<const cbs::IoRequest> batch) override;
    void consumeColumns(const cbs::RequestBatch &batch) override;
    void finalize() override;
    std::string name() const override { return inner_->name(); }

    std::unique_ptr<cbs::ShardableAnalyzer> clone() const override;
    void mergeFrom(const cbs::ShardableAnalyzer &shard) override;
    void serialize(cbs::snap::Sink &sink) const override;
    void deserialize(cbs::snap::Source &source) override;

  private:
    TracedShardable(std::unique_ptr<cbs::ShardableAnalyzer> owned,
                    Tracer &tracer, std::uint32_t kernel,
                    std::uint32_t finalize, std::uint32_t merge);

    std::unique_ptr<cbs::ShardableAnalyzer> owned_;
    cbs::ShardableAnalyzer *inner_;
    Tracer &tracer_;
    std::uint32_t kernel_;
    std::uint32_t finalize_;
    std::uint32_t merge_;
};

} // namespace perfbench

#endif // CBS_PERFBENCH_TRACING_H
