/**
 * @file
 * The three benchmark workloads. Each has three steps, run as separate
 * processes by run.py so that every timed call gets its own peak RSS:
 *
 *   setup      generate the input from the seed and encode it to disk
 *              with the repo's writers (what `cbs_tool generate` and
 *              `convert` do); timed, repeated, reported as setup_s.
 *   reference  compute the expected output once per seed on a
 *              different path (row kernels, serial, other format);
 *              untimed.
 *   run        one timed call of the shipped entry point, then the
 *              output check against the reference. Traced runs drive
 *              the same layers from the benchmark's own code with
 *              spans around every layer call.
 */

#ifndef CBS_PERFBENCH_WORKLOADS_H
#define CBS_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** What one run step measured; printed as one JSON line. */
struct RunReport
{
    std::uint64_t records = 0; //!< records the call turned into output
    double seconds = 0;        //!< the timed call, untraced or traced
    double cpu_seconds = 0;    //!< its user+system CPU time (untraced)
    bool ok = false;           //!< output matched the reference
    std::string why;           //!< first mismatch, when !ok
    std::string digest;        //!< FNV-1a of the outputs (hex)
    /** Serve: per-window publish latencies, milliseconds. */
    std::vector<double> publish_ms;
    /** Traced runs: per-layer metrics by BENCHMARK.json name. */
    std::map<std::string, double> layers;
};

/** Names accepted by the functions below. */
bool knownWorkload(const std::string &workload);

/** Generate + encode @p reps times into @p dir; returns each rep's
 *  seconds. */
std::vector<double> setupWorkload(const std::string &workload,
                                  const std::string &dir,
                                  std::uint64_t seed, int reps);

/** Compute and store the reference outputs in @p dir. */
void referenceWorkload(const std::string &workload,
                       const std::string &dir);

/** One timed call plus its output check. A traced run writes its spans
 *  to @p spans_path. */
RunReport runWorkload(const std::string &workload, const std::string &dir,
                      bool traced, const std::string &run_id,
                      const std::string &spans_path);

} // namespace perfbench

#endif // CBS_PERFBENCH_WORKLOADS_H
