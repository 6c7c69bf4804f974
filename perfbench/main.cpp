// PlugVolt benchmark binary (driven by run.py).
//
//   perfbench <sweep|serve|campaign> <seed> <seconds> <trace 0|1>
//
// Runs one workload for <seconds> of whole rounds, checks its outputs
// against independent computations, and prints the result JSON as the
// last stdout line: the end-to-end metrics, or with trace 1 the
// per-layer metrics.  Every workload prints the same metrics.  The
// workload's own figures and the simulated fingerprints go to stderr in
// every run; with trace 1 the spans go to _out/trace-<workload>-<seed>.jsonl
// and the figures to _out/figures-<workload>-<seed>.json.
#include <malloc.h>
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>

#include "bench.hpp"
#include "util/log.hpp"

using namespace perfbench;

namespace {

/// `"name": {"value": v, "unit": "u"}, ...` (a JSON object's members).
void print_metrics(std::FILE* f, const std::vector<Metric>& metrics) {
    bool first = true;
    for (const Metric& m : metrics) {
        std::fprintf(f, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", first ? "" : ", ",
                     m.name.c_str(), m.value, m.unit.c_str());
        first = false;
    }
}

/// Peak resident set of this process image, in MB (VmHWM; unlike
/// getrusage's ru_maxrss it does not carry over the size of the process
/// that exec'd this one).
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    const std::int64_t t0_ns = now_ns();
    if (argc != 5) {
        std::fprintf(stderr, "usage: perfbench <sweep|serve|campaign> <seed> <seconds> <trace>\n");
        return 2;
    }
    // One malloc arena: peak RSS then does not depend on which worker
    // thread happened to run which campaign cell.
    mallopt(M_ARENA_MAX, 1);
    const std::string workload = argv[1];
    Run run;
    run.seed = std::strtoull(argv[2], nullptr, 0);
    run.seconds = std::strtod(argv[3], nullptr);
    run.trace = std::atoi(argv[4]) != 0;
    run.t0_ns = t0_ns;
    run.spans = SpanLog(run.trace);
    run.out_dir = "_out/run-" + std::to_string(::getpid());
    void (*body)(Run&) = nullptr;
    if (workload == "sweep") body = run_sweep;
    else if (workload == "serve") body = run_serve;
    else if (workload == "campaign") body = run_campaign;
    if (body == nullptr || run.seconds <= 0.0) {
        std::fprintf(stderr, "unknown workload '%s' or bad --seconds\n", workload.c_str());
        return 2;
    }
    pv::set_log_level(pv::LogLevel::Error);
    std::filesystem::remove_all(run.out_dir);
    std::filesystem::create_directories(run.out_dir);
    try {
        body(run);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench %s: %s\n", workload.c_str(), e.what());
        std::filesystem::remove_all(run.out_dir);
        return 1;
    }
    std::filesystem::remove_all(run.out_dir);

    std::fprintf(stderr, "%s seed %llu fingerprints:", workload.c_str(),
                 static_cast<unsigned long long>(run.seed));
    for (const auto& [name, fp] : run.report.fingerprints)
        std::fprintf(stderr, " %s=%016llx", name.c_str(), static_cast<unsigned long long>(fp));
    std::fprintf(stderr, "\n%s seed %llu figures: {", workload.c_str(),
                 static_cast<unsigned long long>(run.seed));
    print_metrics(stderr, run.report.figures);
    std::fprintf(stderr, "}\n");
    if (run.trace) {
        const std::string figures =
            "_out/figures-" + workload + "-" + std::to_string(run.seed) + ".json";
        std::FILE* f = std::fopen(figures.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", figures.c_str());
            return 1;
        }
        std::fprintf(f, "{");
        print_metrics(f, run.report.figures);
        std::fprintf(f, "}\n");
        if (std::fclose(f) != 0) return 1;
        const std::string path =
            "_out/trace-" + workload + "-" + std::to_string(run.seed) + ".jsonl";
        if (!run.spans.write(path, run.t0_ns)) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::fprintf(stderr, "%zu spans -> %s\n", run.spans.spans().size(), path.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                run.tally.correct ? "true" : "false",
                static_cast<unsigned long long>(run.tally.attempted),
                static_cast<unsigned long long>(run.tally.failed));
    if (run.trace) {
        print_metrics(stdout, run.report.per_layer);
    } else {
        std::vector<Metric> e2e = {{"setup_s", run.setup_s, "s"},
                                   {"peak_rss_mb", peak_rss_mb(), "MB"}};
        e2e.insert(e2e.end(), run.report.end_to_end.begin(), run.report.end_to_end.end());
        print_metrics(stdout, e2e);
    }
    std::printf("}}\n");
    return run.tally.correct ? 0 : 1;
}
