// Shared pieces of the PlugVolt benchmark: the operation tally, the span
// log of the traced mode, the host clocks and the metric report.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/// CPU time of the calling thread, in ms.  Time the host gives to other
/// processes is not counted, which is what keeps per-cell figures of a
/// sharded run comparable between runs.
inline double thread_cpu_ms() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Linear-interpolated quantile.
inline double quantile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double idx = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

/// Timing samples in storage that is sized and written before the timed
/// loop, so that the peak RSS does not grow with the number of rounds a
/// run fits.  Samples past the capacity are dropped.
class Series {
public:
    explicit Series(std::size_t capacity = 1 << 13) : v_(capacity, 0.0) {}
    void push_back(double x) {
        if (n_ < v_.size()) v_[n_++] = x;
    }
    /// Linear-interpolated quantile of the samples so far (sorts them in
    /// place).
    [[nodiscard]] double quantile(double p) {
        if (n_ == 0) return 0.0;
        const auto end = v_.begin() + static_cast<std::ptrdiff_t>(n_);
        std::sort(v_.begin(), end);
        const double idx = p * static_cast<double>(n_ - 1);
        const std::size_t lo = static_cast<std::size_t>(idx);
        const std::size_t hi = std::min(lo + 1, n_ - 1);
        return v_[lo] + (v_[hi] - v_[lo]) * (idx - static_cast<double>(lo));
    }

private:
    std::vector<double> v_;
    std::size_t n_ = 0;
};

/// Host noise on a shared box only ever adds time, so a host time is
/// reported as the 2nd percentile of its samples and a rate as the 98th:
/// the speed the code reaches whenever the host is quiet, which is what
/// repeats between runs (see README.md, "Noise and estimators").
inline double fast_time(Series& v) { return v.quantile(0.02); }
inline double fast_rate(Series& v) { return v.quantile(0.98); }

inline double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double sum = 0.0;
    for (const double x : v) sum += x;
    return sum / static_cast<double>(v.size());
}

/// Attempted/failed operations and the run's correctness flag.  An
/// operation is one checked result of a timed round (`op`); a run-level
/// property checked outside the rounds is an `invariant` and clears
/// `correct` when it does not hold.
class Tally {
public:
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;

    void op(bool ok, const std::string& what) {
        ++attempted;
        if (ok) return;
        ++failed;
        if (reported_.insert(what).second) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
    void invariant(bool ok, const std::string& what) {
        if (ok) return;
        correct = false;
        if (reported_.insert("check: " + what).second)
            std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }

private:
    std::set<std::string> reported_;
};

/// Spans of the traced mode: (name, start, end, parent) around the
/// benchmark's own calls into the library.  Disabled, it records nothing.
/// One log per thread; the sharded campaign merges its workers' logs.
class SpanLog {
public:
    struct Span {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::int64_t parent = -1;  ///< index into the same log, -1 = root
        std::uint64_t thread = 0;
    };

    explicit SpanLog(bool enabled, std::uint64_t thread = 0)
        : enabled_(enabled), thread_(thread) {}

    [[nodiscard]] bool enabled() const { return enabled_; }

    std::int64_t open(std::string name) {
        if (!enabled_) return -1;
        const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({std::move(name), now_ns(), 0, parent, thread_});
        stack_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
        return stack_.back();
    }
    void close(std::int64_t id) {
        if (id < 0) return;
        spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
        stack_.pop_back();
    }

    /// Sum of the durations of every span called `name`, in ms.
    [[nodiscard]] double total_ms(const std::string& name) const {
        double sum = 0.0;
        for (const Span& s : spans_)
            if (s.name == name) sum += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        return sum;
    }
    /// Sum over spans called `name` of their duration minus that of
    /// their direct children called `child`, in ms.
    [[nodiscard]] double self_ms(const std::string& name, const std::string& child) const {
        std::map<std::int64_t, double> child_ms;
        for (const Span& s : spans_)
            if (s.name == child && s.parent >= 0)
                child_ms[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
        double sum = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            if (s.name != name) continue;
            sum += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
            const auto it = child_ms.find(static_cast<std::int64_t>(i));
            if (it != child_ms.end()) sum -= it->second;
        }
        return sum;
    }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    /// Append another thread's log, keeping its parent links.
    void absorb(const SpanLog& other) {
        const std::int64_t base = static_cast<std::int64_t>(spans_.size());
        for (Span s : other.spans_) {
            if (s.parent >= 0) s.parent += base;
            spans_.push_back(std::move(s));
        }
    }

    /// JSON lines: one span per line, times relative to `t0_ns`.
    bool write(const std::string& path, std::int64_t t0_ns) const {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) return false;
        for (const Span& s : spans_)
            std::fprintf(f,
                         "{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                         "\"parent\": %lld, \"thread\": %llu}\n",
                         s.name.c_str(), static_cast<double>(s.start_ns - t0_ns) / 1e3,
                         static_cast<double>(s.end_ns - t0_ns) / 1e3,
                         static_cast<long long>(s.parent),
                         static_cast<unsigned long long>(s.thread));
        return std::fclose(f) == 0;
    }

private:
    bool enabled_;
    std::uint64_t thread_;
    std::vector<Span> spans_;
    std::vector<std::int64_t> stack_;
};

/// RAII span.
class Scoped {
public:
    Scoped(SpanLog& log, std::string name) : log_(log), id_(log.open(std::move(name))) {}
    ~Scoped() { log_.close(id_); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

private:
    SpanLog& log_;
    std::int64_t id_;
};

/// A metric: name, value, unit.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What a workload hands back.  The result line carries only metrics
/// every workload measures (BENCHMARK.json lists them): the end-to-end
/// ones untraced, the per-layer ones traced.  A workload's own figures
/// (per-mode map times, job rates, cube time, the simulated Table 2 and
/// Sec. 5 figures, its layers' spans and counters) go to stderr, and in
/// a traced run also to _out/figures-<workload>-<seed>.json.  The
/// simulated fingerprints let two builds be compared for identical
/// simulated results.
struct Report {
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    std::vector<Metric> figures;
    std::vector<std::pair<std::string, std::uint64_t>> fingerprints;

    void e2e(const std::string& name, double value, const std::string& unit) {
        end_to_end.push_back({name, value, unit});
    }
    void layer(const std::string& name, double value, const std::string& unit) {
        per_layer.push_back({name, value, unit});
    }
    void figure(const std::string& name, double value, const std::string& unit) {
        figures.push_back({name, value, unit});
    }
    void fingerprint(const std::string& name, std::uint64_t value) {
        fingerprints.push_back({name, value});
    }
};

/// The simulation work behind a set of cells or cube cells, for the
/// sim.* metrics every workload reports.
struct SimWork {
    double host_ms = 0.0;
    double sim_us = 0.0;
    std::uint64_t events = 0;

    void report(Report& r) const {
        r.layer("sim.events_per_host_ms", static_cast<double>(events) / host_ms, "1/ms");
        r.layer("sim.sim_us_per_host_ms", sim_us / host_ms, "us/ms");
    }
};

/// The safe-state maps a workload characterizes directly (outside any
/// daemon or campaign engine), for the plugvolt.* metrics every workload
/// reports.
struct MapWork {
    double host_ms = 0.0;
    std::uint64_t maps = 0, cells = 0, crash_probes = 0;

    void report(Report& r) const {
        const double n = static_cast<double>(maps);
        r.layer("plugvolt.map_ms", host_ms / n, "ms");
        r.layer("plugvolt.cells_per_map", static_cast<double>(cells) / n, "count");
        r.layer("plugvolt.crash_probes_per_map", static_cast<double>(crash_probes) / n, "count");
    }
};

/// Everything a workload gets from main().
struct Run {
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string out_dir;        ///< private scratch directory of this run
    std::int64_t t0_ns = 0;     ///< entry into main() (steady clock)
    double setup_s = 0.0;       ///< set by setup_done()
    Tally tally;
    SpanLog spans{false};
    Report report;

    /// Call once, right before the first timed operation.
    void setup_done() { setup_s = static_cast<double>(now_ns() - t0_ns) / 1e9; }
};

void run_sweep(Run& run);
void run_serve(Run& run);
void run_campaign(Run& run);

}  // namespace perfbench
