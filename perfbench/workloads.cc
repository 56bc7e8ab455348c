#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include <sys/resource.h>

#include "analysis/cache_mrc.h"
#include "analysis/parallel_pipeline.h"
#include "analysis/volume_classes.h"
#include "analysis/workload_summary.h"
#include "app/analysis_run.h"
#include "app/compare.h"
#include "common/error.h"
#include "common/flat_map.h"
#include "obs/metrics.h"
#include "serve/serve.h"
#include "snapshot/snapshot.h"
#include "synth/models.h"
#include "synth/population.h"
#include "trace/cbt2.h"
#include "trace/csv.h"
#include "trace/open.h"
#include "trace/tailing.h"
#include "tracing.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace cbs;

// -- workload shapes --------------------------------------------------
//
// alicloud-analyze       AliCloud population, CSV, serial runAnalysis
//                        with the volume classifier (cbs_tool analyze).
// alicloud-msrc-compare  AliCloud vs MSRC, both CBT2, runCompare with
//                        two shards and the exact MRC cache pass.
// alicloud-serve         runServe draining a written AliCloud CSV in
//                        124 tumbling windows of about five trace-hours.
//
// Each trace is the first kXxxRecords records of a population spec
// sized to a somewhat larger expected count (see generate()).

constexpr std::size_t kAliVolumes = 100;
constexpr double kAliRequests = 2.0e6;
constexpr std::uint64_t kAliRecords = 2000000;
constexpr std::size_t kMsrcVolumes = 36;
constexpr double kMsrcRequests = 1.0e6;
constexpr std::uint64_t kMsrcRecords = 850000;
constexpr double kServeRequests = 5.0e5;
constexpr std::uint64_t kServeRecords = 500000;
constexpr std::uint64_t kServeWindows = 124;
constexpr std::size_t kShards = 2;

const char *const kAnalyze = "alicloud-analyze";
const char *const kCompare = "alicloud-msrc-compare";
const char *const kServe = "alicloud-serve";

std::string
path(const std::string &dir, const char *name)
{
    return dir + "/" + name;
}

// -- small helpers ----------------------------------------------------

double
seconds(std::int64_t start_ns, std::int64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/** User plus system CPU time of this process (all its threads). */
double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

struct Fnv
{
    std::uint64_t h = 1469598103934665603ULL;
    void
    add(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ULL;
        }
    }
    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

std::string
readFile(const std::string &p)
{
    std::ifstream in(p, std::ios::binary);
    CBS_EXPECT(in, "cannot open " << p);
    std::ostringstream buf;
    buf << in.rdbuf();
    return std::move(buf).str();
}

void
writeFile(const std::string &p, const std::string &bytes)
{
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    CBS_EXPECT(out, "cannot open " << p);
    out << bytes;
    CBS_EXPECT(out, "failed writing " << p);
}

/** Stream @p p into @p fnv in bounded memory. */
void
hashFile(const std::string &p, Fnv &fnv)
{
    std::ifstream in(p, std::ios::binary);
    CBS_EXPECT(in, "cannot open " << p);
    std::vector<char> buf(1 << 16);
    while (in) {
        in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        fnv.add(buf.data(), static_cast<std::size_t>(in.gcount()));
    }
}

/** Byte equality of two files in bounded memory. */
bool
sameFile(const std::string &a, const std::string &b)
{
    if (fs::file_size(a) != fs::file_size(b))
        return false;
    std::ifstream ia(a, std::ios::binary), ib(b, std::ios::binary);
    std::vector<char> ba(1 << 16), bb(1 << 16);
    while (ia && ib) {
        ia.read(ba.data(), static_cast<std::streamsize>(ba.size()));
        ib.read(bb.data(), static_cast<std::streamsize>(bb.size()));
        if (ia.gcount() != ib.gcount() ||
            !std::equal(ba.begin(), ba.begin() + ia.gcount(), bb.begin()))
            return false;
    }
    return true;
}

/** Check @p output against the stored reference bytes. */
void
checkAgainst(RunReport &report, const std::string &output,
             const std::string &reference_path)
{
    Fnv fnv;
    fnv.add(output.data(), output.size());
    report.digest = fnv.hex();
    report.ok = output == readFile(reference_path);
    if (!report.ok)
        report.why = "output differs from " + reference_path;
}

/**
 * Generate the first @p limit records of @p spec's trace for @p seed
 * and encode them with the writer the format calls for, as `cbs_tool
 * generate` does.
 *
 * The volume population (sizes, intensities, mixes) is drawn once from
 * a fixed seed, and so are the request streams of the heaviest volumes,
 * which carry kFixedLoadShare of the expected requests. @p seed redraws
 * the streams of all other volumes. These choices keep the input's size
 * steady across seeds: a fresh population of 100 heavy-tailed volumes
 * changes the state size by 2x, and the stochastic bursts of a few heavy
 * volumes move the record count by up to 30% and peak RSS by up to 25%.
 * The limits sit below every total seen in 30 seeds.
 */
void
generate(const PopulationSpec &spec, std::uint64_t seed,
         std::uint64_t limit, const std::string &out_path, bool cbt2)
{
    constexpr std::uint64_t kPopulationSeed = 1;
    constexpr double kFixedLoadShare = 0.95;
    std::vector<VolumeProfile> profiles =
        sampleProfiles(spec, kPopulationSeed);
    std::vector<VolumeProfile *> by_load;
    double total = 0;
    for (VolumeProfile &profile : profiles) {
        by_load.push_back(&profile);
        total += profile.expectedRequests();
    }
    std::sort(by_load.begin(), by_load.end(), [](auto *a, auto *b) {
        return a->expectedRequests() > b->expectedRequests();
    });
    double fixed = 0;
    for (VolumeProfile *profile : by_load) {
        if (fixed < kFixedLoadShare * total) {
            fixed += profile->expectedRequests();
            continue;
        }
        profile->seed = mix64(profile->seed ^ mix64(seed));
    }
    auto source = makeTrace(profiles);
    std::ofstream out(out_path, cbt2 ? std::ios::binary : std::ios::out);
    CBS_EXPECT(out, "cannot open " << out_path);
    IoRequest req;
    std::uint64_t count = 0;
    if (cbt2) {
        Cbt2Writer writer(out);
        while (count++ < limit && source->next(req))
            writer.write(req);
        writer.finish();
    } else {
        AliCloudCsvWriter writer(out);
        while (count++ < limit && source->next(req))
            writer.write(req);
    }
    out.close();
    CBS_EXPECT(out, "failed writing " << out_path);
}

/** Re-encode any trace as CBT2, as `cbs_tool convert` does. */
void
convertToCbt2(const std::string &in_path, const std::string &out_path)
{
    TraceOpenOptions open_options;
    auto opened = openTraceSource(in_path, open_options);
    std::ofstream out(out_path, std::ios::binary);
    CBS_EXPECT(out, "cannot open " << out_path);
    Cbt2Writer writer(out);
    std::vector<IoRequest> batch;
    while (opened->source().nextBatch(batch, 8192) > 0)
        for (const IoRequest &req : batch)
            writer.write(req);
    writer.finish();
    out.close();
    CBS_EXPECT(out, "failed writing " << out_path);
}

/** Serialized size of each analyzer in @p analyzers, recorded as
 *  @p prefix + name + "_bytes" (summed over repeated calls). */
void
probeState(const std::vector<ShardableAnalyzer *> &analyzers,
           const std::string &prefix, std::map<std::string, double> &out)
{
    for (const ShardableAnalyzer *analyzer : analyzers) {
        snap::Sink sink;
        analyzer->serialize(sink);
        out[prefix + analyzer->name() + "_bytes"] +=
            static_cast<double>(sink.size());
    }
}

/** Fold a traced call's span summary into the report's layers. */
void
addSpanLayers(RunReport &report, const TraceSummary &summary)
{
    for (const auto &[name, value] : summary.self_s)
        if (name != "bench.state_probe")
            report.layers[name + "_s"] += value;
    report.layers["bench.span_closure"] = summary.closure;
    report.seconds = summary.wall_s;
}

// -- alicloud-analyze -------------------------------------------------

std::string
classesLine(const VolumeClassifier &classifier)
{
    std::string line = "volume_classes:";
    for (std::uint32_t n : classifier.histogram())
        line += " " + std::to_string(n);
    return line + "\n";
}

RunReport
runAnalyze(const std::string &dir, Tracer *tracer)
{
    const std::string trace = path(dir, "trace.csv");
    RunReport report;
    std::string output;
    if (tracer == nullptr) {
        app::AnalysisRunOptions options;
        options.path = trace;
        options.classify_volumes = true;
        const double cpu0 = cpuSeconds();
        std::int64_t t0 = nowNs();
        app::AnalysisRunResult result = app::runAnalysis(options);
        CBS_EXPECT(!result.empty(), "empty trace");
        std::ostringstream json;
        result.summary->writeJson(json);
        report.seconds = seconds(t0, nowNs());
        report.cpu_seconds = cpuSeconds() - cpu0;
        report.records = result.summary->basic.stats().requests();
        output = std::move(json).str() + classesLine(*result.classifier);
    } else {
        // The same layers runAnalysis composes for a serial CSV run
        // with the classifier, driven here so each call is spanned.
        Tracer &tr = *tracer;
        const std::uint32_t root = tr.open(tr.intern("bench.run"));
        TraceOpenOptions open_options;
        open_options.format = sniffTraceFormat(trace);
        auto opened = openTraceSource(trace, open_options);
        std::uint64_t count = 0;
        TimeUs last = 0;
        {
            ScopedSpan span(tracer, tr.intern("trace.extent_scan"));
            std::vector<IoRequest> batch;
            while (opened->source().nextBatch(batch, 8192) > 0) {
                count += batch.size();
                last = batch.back().timestamp;
            }
            opened->source().reset();
        }
        CBS_EXPECT(count > 0, "empty trace");
        WorkloadSummaryOptions summary_options;
        summary_options.duration = last + 1;
        WorkloadSummary summary(summary_options);
        VolumeClassifier classifier(100, summary_options.block_size);

        std::vector<ShardableAnalyzer *> shardable =
            summary.shardableAnalyzers();
        std::vector<Analyzer *> analyzers(shardable.begin(),
                                          shardable.end());
        analyzers.push_back(&classifier);
        std::vector<std::uint32_t> kernel, finalize;
        for (Analyzer *analyzer : analyzers) {
            kernel.push_back(
                tr.intern("analysis.kernel." + analyzer->name()));
            finalize.push_back(
                tr.intern("analysis.finalize." + analyzer->name()));
        }
        const std::uint32_t partition = tr.intern("analysis.partition");
        TracedSource source(opened->source(), tr, "trace.decode");
        RequestBatch batch;
        batch.reserve(4096);
        std::uint64_t batches = 0;
        while (std::size_t n = source.nextColumns(batch, 4096)) {
            {
                ScopedSpan span(tracer, partition);
                batch.volumeRuns();
            }
            for (std::size_t i = 0; i < analyzers.size(); ++i) {
                ScopedSpan span(tracer, kernel[i]);
                analyzers[i]->consumeColumns(batch);
            }
            ++batches;
            report.records += n;
        }
        {
            ScopedSpan span(tracer, tr.intern("bench.state_probe"));
            probeState(shardable, "analysis.state.", report.layers);
        }
        for (std::size_t i = 0; i < analyzers.size(); ++i) {
            ScopedSpan span(tracer, finalize[i]);
            analyzers[i]->finalize();
        }
        std::ostringstream json;
        {
            ScopedSpan span(tracer, tr.intern("analysis.emit"));
            summary.writeJson(json);
        }
        tr.close(root);
        addSpanLayers(report, tr.summarize(root, {"bench.state_probe"}));
        report.layers["analysis.batches"] = static_cast<double>(batches);
        report.layers["trace.bad_records"] =
            static_cast<double>(opened->reader().badRecords());
        output = std::move(json).str() + classesLine(classifier);
    }
    checkAgainst(report, output, path(dir, "ref.out"));
    return report;
}

// -- alicloud-msrc-compare --------------------------------------------

std::vector<std::string>
comparePaths(const std::string &dir)
{
    return {path(dir, "alicloud.cbt2"), path(dir, "msrc.cbt2")};
}

app::CompareOptions
compareOptions(const std::string &dir)
{
    app::CompareOptions options;
    options.paths = comparePaths(dir);
    app::CacheSimOptions cache;
    cache.mode = app::CacheSimMode::Mrc;
    options.base.cache = cache;
    return options;
}

/** Shard balance and waits from the registry a traced pass fills. */
void
shardLayers(obs::MetricsRegistry &registry, RunReport &report)
{
    double most = 0, total = 0, idle_ns = 0, waits = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
        for (const char *prefix : {"parallel", "parallel.mrc"}) {
            std::string lane =
                std::string(prefix) + ".shard." + std::to_string(s);
            idle_ns += static_cast<double>(
                registry.counter(lane + ".idle_ns").value());
            waits += static_cast<double>(
                registry.counter(lane + ".queue_full_waits").value());
        }
        double records = static_cast<double>(
            registry.counter("parallel.shard." + std::to_string(s) +
                             ".records")
                .value());
        most = std::max(most, records);
        total += records;
    }
    double skew = total > 0 ? most / (total / kShards) : 0;
    report.layers["parallel.shard_skew"] =
        std::max(report.layers["parallel.shard_skew"], skew);
    report.layers["parallel.shard_idle_s"] += idle_ns * 1e-9;
    report.layers["parallel.queue_full_waits"] += waits;
}

/** runAnalysis for one compare input (threads=2, MRC cache pass),
 *  composed from its layers with every call spanned. */
app::AnalysisRunResult
tracedCompareRun(const std::string &trace, Tracer &tr,
                 std::uint32_t root, RunReport &report)
{
    app::AnalysisRunResult result;
    result.format = sniffTraceFormat(trace);
    TraceOpenOptions open_options;
    open_options.format = result.format;
    auto opened = openTraceSource(trace, open_options);
    {
        ScopedSpan span(&tr, tr.intern("trace.extent_scan"));
        Cbt2Reader *reader = opened->cbt2();
        CBS_EXPECT(reader != nullptr, "compare inputs are CBT2");
        result.record_count = reader->declaredCount();
        result.last_timestamp = reader->maxTimestamp();
    }
    CBS_EXPECT(result.record_count > 0, "empty trace");
    WorkloadSummaryOptions summary_options;
    summary_options.duration = result.last_timestamp + 1;
    result.summary = std::make_unique<WorkloadSummary>(summary_options);
    WorkloadSummary &summary = *result.summary;

    std::vector<std::unique_ptr<TracedShardable>> traced;
    std::vector<Analyzer *> analyzers;
    for (ShardableAnalyzer *analyzer : summary.shardableAnalyzers()) {
        traced.push_back(std::make_unique<TracedShardable>(
            *analyzer, tr, "analysis.kernel." + analyzer->name(),
            "analysis.finalize." + analyzer->name()));
        analyzers.push_back(traced.back().get());
    }
    obs::MetricsRegistry registry;
    ParallelOptions parallel;
    parallel.shards = kShards;
    parallel.metrics = &registry;
    parallel.finalize = false; // the state probe reads pre-finalize state
    TracedSource source(opened->source(), tr, "trace.decode");
    tr.setWorkerParent(root);
    runPipelineParallel(source, analyzers, parallel);
    {
        ScopedSpan span(&tr, tr.intern("bench.state_probe"));
        probeState(summary.shardableAnalyzers(), "analysis.state.",
                   report.layers);
    }
    for (Analyzer *analyzer : analyzers)
        analyzer->finalize();

    auto mrc = std::make_unique<CacheMrcAnalyzer>(
        std::vector<double>{0.01, 0.10}, summary_options.block_size);
    TracedShardable traced_mrc(*mrc, tr, "cache.kernel",
                               "analysis.finalize.cache_mrc");
    opened->source().reset();
    {
        ScopedSpan pass(&tr, tr.intern("cache.mrc_pass"));
        tr.setWorkerParent(pass.id());
        ParallelOptions mrc_pass = parallel;
        mrc_pass.metrics_prefix += ".mrc";
        runPipelineParallel(source, {&traced_mrc}, mrc_pass);
    }
    tr.setWorkerParent(root);
    {
        ScopedSpan span(&tr, tr.intern("bench.state_probe"));
        snap::Sink sink;
        mrc->serialize(sink);
        report.layers["cache.state_bytes"] +=
            static_cast<double>(sink.size());
    }
    traced_mrc.finalize();
    summary.setCacheSim(mrc.get());
    result.cache_sim = std::move(mrc);

    shardLayers(registry, report);
    report.records += summary.basic.stats().requests();
    report.layers["trace.bad_records"] +=
        static_cast<double>(opened->reader().badRecords());
    return result;
}

RunReport
runCompare(const std::string &dir, Tracer *tracer)
{
    RunReport report;
    std::string output;
    if (tracer == nullptr) {
        app::CompareOptions options = compareOptions(dir);
        options.base.threads = kShards;
        const double cpu0 = cpuSeconds();
        std::int64_t t0 = nowNs();
        app::CompareResult result = app::runCompare(options);
        CBS_EXPECT(!result.anyEmpty(), "empty trace");
        std::ostringstream json;
        app::writeCompareJson(json, result);
        report.seconds = seconds(t0, nowNs());
        report.cpu_seconds = cpuSeconds() - cpu0;
        for (const app::AnalysisRunResult &run : result.runs)
            report.records += run.summary->basic.stats().requests();
        output = std::move(json).str();
    } else {
        Tracer &tr = *tracer;
        const std::uint32_t root = tr.open(tr.intern("bench.run"));
        app::CompareResult result;
        result.paths = comparePaths(dir);
        for (const std::string &trace : result.paths)
            result.runs.push_back(
                tracedCompareRun(trace, tr, root, report));
        std::ostringstream json;
        {
            ScopedSpan span(tracer, tr.intern("app.compare_render"));
            app::writeCompareJson(json, result);
        }
        tr.close(root);
        TraceSummary summary = tr.summarize(root, {"bench.state_probe"});
        addSpanLayers(report, summary);
        // The MRC pass is reported inclusive: its self time is only the
        // scatter its decode and kernel children do not cover.
        report.layers["cache.mrc_pass_s"] =
            summary.total_s["cache.mrc_pass"];
        output = std::move(json).str();
    }
    checkAgainst(report, output, path(dir, "ref.out"));
    return report;
}

// -- alicloud-serve ---------------------------------------------------

struct ServeMeta
{
    std::uint64_t records = 0;
    TimeUs last_timestamp = 0;
    TimeUs window_span = 0;    //!< kServeWindows spans cover the trace
    std::uint64_t windows = 0; //!< distinct windows holding records
};

ServeMeta
readMeta(const std::string &dir)
{
    ServeMeta meta;
    std::istringstream in(readFile(path(dir, "meta.txt")));
    in >> meta.records >> meta.last_timestamp >> meta.window_span >>
        meta.windows;
    CBS_EXPECT(in, "malformed meta.txt in " << dir);
    return meta;
}

ServeOptions
serveOptions(const std::string &dir, const ServeMeta &meta)
{
    ServeOptions options;
    options.out_dir = path(dir, "out");
    options.source_id = path(dir, "trace.csv");
    options.summary.duration = meta.last_timestamp + 1;
    options.window_span = meta.window_span;
    options.idle_exit_polls = 1; // the file is complete: idle = the end
    options.sleep = [](std::uint64_t) {};
    options.cumulative_partial = path(dir, "out/cumulative.cbss");
    // No periodic checkpoints and no metrics registry (so no
    // metrics.prom): each would replace a live file by rename, which
    // ext4 flushes to disk. On the machine this was sized on, those
    // flushes took 60-80% of a call, and their latency drifted 1.5-2x
    // over minutes, beyond any bound a run could hold. The one final
    // checkpoint goes to a new file; serveSideLayers() times a
    // checkpoint write over the live file.
    return options;
}

/** One poll gap: from a nextBatch return to the next call. */
struct Gap
{
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::size_t records = 0;  //!< records the poll delivered
    std::uint64_t closes = 0; //!< windows runServe closed in the gap
};

/**
 * runServe's outer source. It replays the supervisor's window cadence
 * from the delivered records, so it knows which poll gap closed a
 * window (publish latency). Costs two clock reads per poll plus a
 * timestamp scan of each batch.
 */
class ServeProbe : public TraceSource
{
  public:
    ServeProbe(TraceSource &inner, const ServeOptions &options,
               Tracer *tracer, std::uint32_t root)
        : inner_(inner), span_(options.window_span), tracer_(tracer),
          root_(root), poll_(tracer ? tracer->intern("trace.decode") : 0)
    {
    }

    bool next(IoRequest &req) override { return inner_.next(req); }
    void reset() override { inner_.reset(); }

    std::vector<double> publish_ms;
    std::vector<Gap> gaps;
    std::int64_t last_return_ns = -1;

  protected:
    std::size_t
    nextBatchImpl(std::vector<IoRequest> &out,
                  std::size_t max_requests) override
    {
        std::int64_t call = nowNs();
        if (last_return_ns >= 0) {
            pending_.start_ns = last_return_ns;
            pending_.end_ns = call;
            for (std::uint64_t i = 0; i < pending_.closes; ++i)
                publish_ms.push_back(
                    static_cast<double>(call - last_return_ns) * 1e-6);
            if (tracer_)
                gaps.push_back(pending_);
        }
        std::size_t n = inner_.nextBatch(out, max_requests);
        last_return_ns = nowNs();
        if (tracer_)
            tracer_->record(poll_, call, last_return_ns, root_);

        pending_ = Gap{};
        pending_.records = n;
        for (std::size_t i = 0; i < n;) {
            TimeUs window_end = static_cast<TimeUs>(window_ + 1) * span_;
            std::size_t j = i;
            while (j < n && out[j].timestamp < window_end)
                ++j;
            if (j < n) {
                ++pending_.closes;
                window_ = out[j].timestamp / span_;
            }
            i = j;
        }
        return n;
    }

  private:
    TraceSource &inner_;
    TimeUs span_;
    Tracer *tracer_;
    std::uint32_t root_;
    std::uint32_t poll_;
    std::uint64_t window_ = 0;
    Gap pending_;
};

/**
 * Split each poll gap into feed and window close spans. The feed cost
 * per record comes from the gaps that closed no window; in a gap that
 * did, the remainder past its feed share is window close time.
 */
void
recordGapSpans(const std::vector<Gap> &gaps, Tracer &tr,
               std::uint32_t root)
{
    double feed_ns = 0, feed_records = 0;
    for (const Gap &gap : gaps)
        if (gap.closes == 0) {
            feed_ns += static_cast<double>(gap.end_ns - gap.start_ns);
            feed_records += static_cast<double>(gap.records);
        }
    const double per_record = feed_records > 0 ? feed_ns / feed_records : 0;

    const std::uint32_t feed = tr.intern("serve.feed");
    const std::uint32_t close = tr.intern("serve.window_close");
    for (const Gap &gap : gaps) {
        std::int64_t at = gap.end_ns;
        if (gap.closes > 0)
            at = std::min(gap.end_ns,
                          gap.start_ns +
                              static_cast<std::int64_t>(
                                  per_record *
                                  static_cast<double>(gap.records)));
        tr.record(feed, gap.start_ns, at, root);
        if (at < gap.end_ns)
            tr.record(close, at, gap.end_ns, root);
    }
}

/**
 * Time the three checkpoint steps on the run's final state: read the
 * last CBSSRV1 file, re-encode both bundles, write it back in place.
 * Also re-encodes every window partial for the window encode cost.
 */
void
serveSideLayers(const std::string &dir, const ServeOptions &options,
                RunReport &report)
{
    const std::string ckpt_path = path(dir, "out/current.ckpt");
    std::int64_t t0 = nowNs();
    ServeCheckpoint ck = readServeCheckpoint(ckpt_path);
    report.layers["serve.checkpoint_read_s"] = seconds(t0, nowNs());
    report.layers["serve.checkpoint_bytes"] =
        static_cast<double>(fs::file_size(ckpt_path));

    WorkloadSummary cumulative(options.summary), window(options.summary);
    SnapshotProvenance prov_cum =
        decodeSnapshot(ck.cumulative.data(), ck.cumulative.size(),
                       "cumulative", cumulative)
            .provenance;
    SnapshotProvenance prov_win =
        decodeSnapshot(ck.window.data(), ck.window.size(), "window",
                       window)
            .provenance;
    ServeCheckpoint copy;
    copy.committed_offset = ck.committed_offset;
    copy.committed_records = ck.committed_records;
    copy.window_index = ck.window_index;
    t0 = nowNs();
    copy.cumulative = encodeSnapshot(cumulative, prov_cum);
    copy.window = encodeSnapshot(window, prov_win);
    report.layers["serve.checkpoint_encode_s"] = seconds(t0, nowNs());
    if (copy.cumulative != ck.cumulative || copy.window != ck.window) {
        report.ok = false;
        report.why = "checkpoint state does not re-encode identically";
    }
    // Over the existing file, as every checkpoint after the first is:
    // the rename then replaces a live file.
    t0 = nowNs();
    writeServeCheckpoint(ckpt_path, copy);
    report.layers["serve.checkpoint_write_s"] = seconds(t0, nowNs());

    double encode_s = 0, bytes = 0;
    for (const std::string &partial :
         listSnapshotDirectory(options.out_dir)) {
        if (fs::path(partial).filename() == "cumulative.cbss")
            continue;
        std::vector<unsigned char> raw = readSnapshotBytes(partial);
        WorkloadSummary bundle(options.summary);
        SnapshotProvenance prov =
            decodeSnapshot(raw.data(), raw.size(), partial, bundle)
                .provenance;
        t0 = nowNs();
        std::vector<unsigned char> again = encodeSnapshot(bundle, prov);
        encode_s += seconds(t0, nowNs());
        bytes += static_cast<double>(again.size());
    }
    report.layers["snapshot.window_encode_s"] = encode_s;
    report.layers["snapshot.window_bytes"] = bytes;
}

/**
 * Per-analyzer attribution for serve, which has no seam for spans
 * inside runServe: replay the run's input through the same two
 * bundles with runServe's batch size, window split and row kernels,
 * spanning each analyzer call, each window finalize and each window's
 * JSON. The replay does no file I/O; its window JSON must equal the
 * files the run wrote, which shows it did the run's analysis work.
 */
void
serveReplayLayers(const ServeOptions &options, Tracer &tr,
                  RunReport &report)
{
    const std::uint32_t root = tr.open(tr.intern("bench.serve_replay"));
    WorkloadSummary cumulative(options.summary);
    auto window = std::make_unique<WorkloadSummary>(options.summary);
    std::vector<std::uint32_t> kernel, finalize;
    for (ShardableAnalyzer *analyzer : cumulative.shardableAnalyzers()) {
        kernel.push_back(tr.intern("analysis.kernel." + analyzer->name()));
        finalize.push_back(
            tr.intern("analysis.finalize." + analyzer->name()));
    }
    const std::uint32_t emit = tr.intern("analysis.emit");
    std::uint64_t index = 0;
    bool window_ok = true;
    auto closeWindow = [&] {
        std::vector<ShardableAnalyzer *> analyzers =
            window->shardableAnalyzers();
        for (std::size_t i = 0; i < analyzers.size(); ++i) {
            ScopedSpan span(&tr, finalize[i]);
            analyzers[i]->finalize();
        }
        std::ostringstream json;
        {
            ScopedSpan span(&tr, emit);
            window->writeJson(json);
        }
        char name[32];
        std::snprintf(name, sizeof name, "/window-%06llu.json",
                      static_cast<unsigned long long>(index));
        if (json.str() != readFile(options.out_dir + name))
            window_ok = false;
        window = std::make_unique<WorkloadSummary>(options.summary);
    };
    auto consume = [&](WorkloadSummary &bundle,
                       std::span<const IoRequest> slice) {
        std::vector<ShardableAnalyzer *> analyzers =
            bundle.shardableAnalyzers();
        for (std::size_t i = 0; i < analyzers.size(); ++i) {
            ScopedSpan span(&tr, kernel[i]);
            analyzers[i]->consumeBatch(slice);
        }
    };
    TailingCsvSource tail(options.source_id);
    std::vector<IoRequest> batch;
    bool open_records = false;
    while (std::size_t n = tail.nextBatch(batch, options.batch_records)) {
        for (std::size_t i = 0; i < n;) {
            TimeUs window_end =
                static_cast<TimeUs>(index + 1) * options.window_span;
            std::size_t j = i;
            while (j < n && batch[j].timestamp < window_end)
                ++j;
            if (j > i) {
                std::span<const IoRequest> slice(batch.data() + i, j - i);
                consume(cumulative, slice);
                consume(*window, slice);
                open_records = true;
            }
            if (j < n) {
                closeWindow();
                index = batch[j].timestamp / options.window_span;
                open_records = false;
            }
            i = j;
        }
    }
    if (open_records)
        closeWindow();
    tr.close(root);
    probeState(cumulative.shardableAnalyzers(), "analysis.state.",
               report.layers);
    for (const auto &[name, value] : tr.summarize(root, {}).self_s)
        if (name != "bench.serve_replay")
            report.layers[name + "_s"] += value;
    if (!window_ok && report.ok) {
        report.ok = false;
        report.why = "serve replay disagrees with the run's window JSON";
    }
}

RunReport
runServeWorkload(const std::string &dir, Tracer *tracer)
{
    const ServeMeta meta = readMeta(dir);
    ServeOptions options = serveOptions(dir, meta);
    fs::remove_all(options.out_dir);
    fs::create_directories(options.out_dir);

    RunReport report;
    std::uint32_t root = 0;
    if (tracer)
        root = tracer->open(tracer->intern("bench.run"));
    const double cpu0 = cpuSeconds();
    std::int64_t t0 = nowNs();
    TailingCsvSource tail(options.source_id);
    ServeProbe probe(tail, options, tracer, root);
    ServeResult result = runServe(probe, tail, options);
    std::int64_t t1 = nowNs();
    report.seconds = seconds(t0, t1);
    report.cpu_seconds = cpuSeconds() - cpu0;
    report.records = result.records;
    report.publish_ms = std::move(probe.publish_ms);
    if (tracer) {
        tracer->record(tracer->intern("serve.flush"),
                       probe.last_return_ns, t1, root);
        recordGapSpans(probe.gaps, *tracer, root);
        tracer->close(root);
        addSpanLayers(report, tracer->summarize(root, {}));
        report.layers["trace.bad_records"] =
            static_cast<double>(tail.badRecords());
        report.layers["serve.windows"] =
            static_cast<double>(result.windows);
        report.layers["serve.polls"] = static_cast<double>(result.polls);
        report.layers["serve.checkpoints"] =
            static_cast<double>(result.checkpoints);
    }

    // Checks: exact cumulative state, and record and window counts.
    report.ok = true;
    if (result.degraded) {
        report.ok = false;
        report.why = "serve degraded: " + result.degraded_reason;
    } else if (result.records != meta.records) {
        report.ok = false;
        report.why = "serve consumed " + std::to_string(result.records) +
                     " of " + std::to_string(meta.records) + " records";
    } else if (result.windows != meta.windows) {
        report.ok = false;
        report.why = "serve closed " + std::to_string(result.windows) +
                     " windows, expected " + std::to_string(meta.windows);
    } else if (!sameFile(options.cumulative_partial,
                         path(dir, "ref.cbss"))) {
        report.ok = false;
        report.why = "cumulative partial differs from the batch partial";
    }
    Fnv fnv;
    std::vector<std::string> files;
    for (const auto &entry : fs::directory_iterator(options.out_dir)) {
        std::string name = entry.path().filename().string();
        if (name.rfind("window-", 0) == 0 || name == "cumulative.cbss")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    for (const std::string &file : files) {
        fnv.add(file.data(), file.size());
        hashFile(file, fnv);
    }
    report.digest = fnv.hex();
    if (tracer) {
        serveSideLayers(dir, options, report);
        serveReplayLayers(options, *tracer, report);
    }
    fs::remove_all(options.out_dir);
    return report;
}

} // namespace

bool
knownWorkload(const std::string &workload)
{
    return workload == kAnalyze || workload == kCompare ||
           workload == kServe;
}

std::vector<double>
setupWorkload(const std::string &workload, const std::string &dir,
              std::uint64_t seed, int reps)
{
    struct Input
    {
        PopulationSpec spec;
        std::uint64_t limit;
        const char *name;
        bool cbt2;
    };
    std::vector<Input> inputs;
    if (workload == kAnalyze) {
        inputs.push_back(
            {aliCloudSpanSpec(SpanScale{kAliVolumes, kAliRequests}),
             kAliRecords, "trace.csv", false});
    } else if (workload == kCompare) {
        inputs.push_back(
            {aliCloudSpanSpec(SpanScale{kAliVolumes, kAliRequests}),
             kAliRecords, "alicloud.cbt2", true});
        inputs.push_back(
            {msrcSpanSpec(SpanScale{kMsrcVolumes, kMsrcRequests}),
             kMsrcRecords, "msrc.cbt2", true});
    } else {
        inputs.push_back(
            {aliCloudSpanSpec(SpanScale{kAliVolumes, kServeRequests}),
             kServeRecords, "trace.csv", false});
    }
    fs::create_directories(dir);
    std::vector<double> times;
    for (int rep = 0; rep < reps; ++rep) {
        // Each repetition writes new files: rewriting one in place
        // would make the filesystem flush the old blocks inside the
        // timed region on some mounts (ext4 replace-via-truncate).
        const std::string suffix = ".rep" + std::to_string(rep);
        std::int64_t t0 = nowNs();
        for (const Input &input : inputs)
            generate(input.spec, seed, input.limit,
                     path(dir, input.name) + suffix, input.cbt2);
        times.push_back(seconds(t0, nowNs()));
    }
    for (const Input &input : inputs) {
        const std::string target = path(dir, input.name);
        for (int rep = 0; rep + 1 < reps; ++rep)
            fs::remove(target + ".rep" + std::to_string(rep));
        fs::rename(target + ".rep" + std::to_string(reps - 1), target);
    }
    return times;
}

void
referenceWorkload(const std::string &workload, const std::string &dir)
{
    if (workload == kAnalyze) {
        // Other encoding, row kernels.
        convertToCbt2(path(dir, "trace.csv"), path(dir, "ref.cbt2"));
        app::AnalysisRunOptions options;
        options.path = path(dir, "ref.cbt2");
        options.columnar = false;
        options.classify_volumes = true;
        app::AnalysisRunResult result = app::runAnalysis(options);
        CBS_EXPECT(!result.empty(), "empty trace");
        std::ostringstream json;
        result.summary->writeJson(json);
        writeFile(path(dir, "ref.out"),
                  std::move(json).str() + classesLine(*result.classifier));
        fs::remove(path(dir, "ref.cbt2"));
    } else if (workload == kCompare) {
        // Serial pipeline, row kernels.
        app::CompareOptions options = compareOptions(dir);
        options.base.columnar = false;
        app::CompareResult result = app::runCompare(options);
        CBS_EXPECT(!result.anyEmpty(), "empty trace");
        std::ostringstream json;
        app::writeCompareJson(json, result);
        writeFile(path(dir, "ref.out"), std::move(json).str());
    } else {
        // Batch reader, row kernels, pre-finalize partial.
        ServeMeta meta;
        TraceOpenOptions open_options;
        auto opened =
            openTraceSource(path(dir, "trace.csv"), open_options);
        std::vector<IoRequest> batch;
        while (opened->source().nextBatch(batch, 8192) > 0) {
            meta.records += batch.size();
            meta.last_timestamp = batch.back().timestamp;
        }
        CBS_EXPECT(meta.records > 0, "empty trace");
        meta.window_span =
            (meta.last_timestamp + kServeWindows) / kServeWindows;
        opened->source().reset();
        std::uint64_t window = 0;
        while (opened->source().nextBatch(batch, 8192) > 0) {
            for (const IoRequest &req : batch) {
                std::uint64_t w = req.timestamp / meta.window_span;
                if (meta.windows == 0 || w != window)
                    ++meta.windows;
                window = w;
            }
        }
        app::AnalysisRunOptions options;
        options.path = path(dir, "trace.csv");
        options.columnar = false;
        options.duration_us = meta.last_timestamp + 1;
        options.emit_partial = path(dir, "ref.cbss");
        app::runAnalysis(options);
        writeFile(path(dir, "meta.txt"),
                  std::to_string(meta.records) + " " +
                      std::to_string(meta.last_timestamp) + " " +
                      std::to_string(meta.window_span) + " " +
                      std::to_string(meta.windows) + "\n");
    }
}

RunReport
runWorkload(const std::string &workload, const std::string &dir,
            bool traced, const std::string &run_id,
            const std::string &spans_path)
{
    std::unique_ptr<Tracer> tracer;
    if (traced)
        tracer = std::make_unique<Tracer>(run_id);
    RunReport report;
    if (workload == kAnalyze)
        report = runAnalyze(dir, tracer.get());
    else if (workload == kCompare)
        report = runCompare(dir, tracer.get());
    else
        report = runServeWorkload(dir, tracer.get());
    if (tracer) {
        report.layers["trace.records"] =
            static_cast<double>(report.records);
        tracer->writeJson(spans_path);
    }
    return report;
}

} // namespace perfbench
