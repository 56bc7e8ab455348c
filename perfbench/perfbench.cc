// cbs_perfbench: the per-process steps of the shipped-path benchmark.
// run.py drives it; each step prints one JSON object on stdout.
//
//   cbs_perfbench machine
//   cbs_perfbench setup     --workload W --dir D --seed N --reps K
//   cbs_perfbench reference --workload W --dir D
//   cbs_perfbench run       --workload W --dir D [--traced]
//                           [--run-id ID] [--spans PATH]

#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "common/simd.h"
#include "workloads.h"

namespace {

void
printNumber(double v)
{
    if (std::isfinite(v))
        std::printf("%.17g", v);
    else
        std::printf("null");
}

void
printString(const std::string &s)
{
    std::putchar('"');
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::putchar('\\');
        std::putchar(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    std::putchar('"');
}

void
printReport(const perfbench::RunReport &report)
{
    std::printf("{\"records\": %llu, \"seconds\": ",
                static_cast<unsigned long long>(report.records));
    printNumber(report.seconds);
    std::printf(", \"cpu_seconds\": ");
    printNumber(report.cpu_seconds);
    std::printf(", \"ok\": %s, \"why\": ", report.ok ? "true" : "false");
    printString(report.why);
    std::printf(", \"digest\": ");
    printString(report.digest);
    std::printf(", \"publish_ms\": [");
    const char *sep = "";
    for (double ms : report.publish_ms) {
        std::printf("%s", sep);
        printNumber(ms);
        sep = ", ";
    }
    std::printf("], \"layers\": {");
    sep = "";
    for (const auto &[name, value] : report.layers) {
        std::printf("%s", sep);
        printString(name);
        std::printf(": ");
        printNumber(value);
        sep = ", ";
    }
    std::printf("}}\n");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: cbs_perfbench machine | setup|reference|run "
                 "--workload W --dir D [--seed N] [--reps K] [--traced] "
                 "[--run-id ID] [--spans PATH]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string step = argv[1];
    if (step == "machine") {
        std::printf("{\"compiler\": ");
        printString(PERFBENCH_COMPILER);
        std::printf(", \"build_type\": ");
        printString(PERFBENCH_BUILD_TYPE);
        std::printf(", \"simd\": ");
        printString(cbs::simdVariant());
        std::printf("}\n");
        return 0;
    }

    std::map<std::string, std::string> flags;
    bool traced = false;
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--traced") {
            traced = true;
        } else if (flag.rfind("--", 0) == 0 && i + 1 < argc) {
            flags[flag] = argv[++i];
        } else {
            return usage();
        }
    }
    const std::string workload = flags["--workload"];
    const std::string dir = flags["--dir"];
    if (!perfbench::knownWorkload(workload) || dir.empty())
        return usage();

    try {
        if (step == "setup") {
            std::uint64_t seed = std::stoull(flags["--seed"]);
            int reps = flags.count("--reps") ? std::stoi(flags["--reps"]) : 1;
            if (reps < 1)
                return usage();
            std::printf("{\"setup_s\": [");
            const char *sep = "";
            for (double s :
                 perfbench::setupWorkload(workload, dir, seed, reps)) {
                std::printf("%s", sep);
                printNumber(s);
                sep = ", ";
            }
            std::printf("]}\n");
        } else if (step == "reference") {
            perfbench::referenceWorkload(workload, dir);
            std::printf("{\"ok\": true}\n");
        } else if (step == "run") {
            printReport(perfbench::runWorkload(
                workload, dir, traced, flags["--run-id"], flags["--spans"]));
        } else {
            return usage();
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cbs_perfbench %s: %s\n", step.c_str(),
                     e.what());
        return 1;
    }
    return 0;
}
