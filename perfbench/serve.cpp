// `serve` workload: CampaignDaemon generations on a private state
// directory, on one thread.
//
// A generation starts a daemon on an empty directory, submits a stream of
// 10 mV jobs (Bisection and Adaptive Characterize jobs, small Fleet jobs,
// one Campaign slice, one job that fails its first attempt, and one
// submit the full queue rejects), and steps them with three restarts:
// a clean one after the third job, one that kills the sixth job from
// the progress hook so the next daemon adopts its partial engine journal,
// and a clean one at the end.  DVFS verdicts are asked for from the
// progress hook (mid-flight), after every job, and in one idle batch.
// Set-up runs every job spec directly through its engine: the fingerprints
// and maps every generation is checked against.
#include <filesystem>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "fleet/fleet_orchestrator.hpp"
#include "infer/adaptive_planner.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "replay.hpp"
#include "resilience/journal.hpp"
#include "serve/daemon.hpp"
#include "serve/guard_band.hpp"
#include "serve/job_wal.hpp"
#include "sim/cpu_profile.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace pv;
namespace fs = std::filesystem;

namespace {

/// Thrown from the progress hook to kill a daemon mid-job.  Not a
/// std::exception, so the daemon's retry loop lets it through.
struct KillSignal {};

constexpr std::size_t kJobs = 8;            ///< accepted jobs per generation
constexpr std::size_t kCleanRestartAfter = 3;
constexpr std::size_t kKilledJob = 5;       ///< killed at its second unit
constexpr std::uint64_t kMidflightBatch = 8;
constexpr std::uint64_t kBetweenBatch = 64;
constexpr std::uint64_t kIdleBatch = 4096;
/// CampaignDaemon derives a Fleet job's lot seed with this tag.
constexpr std::uint64_t kLotSeedTag = 0xC0DE'0006;

std::vector<serve::JobSpec> job_stream(std::uint64_t seed) {
    using serve::JobKind;
    const struct {
        JobKind kind;
        std::uint8_t mode;
        std::uint64_t profile;
    } shape[kJobs] = {
        {JobKind::Characterize, 1, 0}, {JobKind::Characterize, 2, 1},
        {JobKind::Fleet, 1, 2},        {JobKind::Characterize, 1, 2},
        {JobKind::Campaign, 1, 0},     {JobKind::Characterize, 2, 0},
        {JobKind::Fleet, 2, 1},        {JobKind::Characterize, 1, 1},
    };
    std::vector<serve::JobSpec> jobs;
    for (std::size_t i = 0; i < kJobs; ++i) {
        serve::JobSpec spec;  // 10 mV
        spec.kind = shape[i].kind;
        spec.sweep_mode = shape[i].mode;
        spec.profile_index = shape[i].profile;
        spec.seed = mix_seed(seed, 100 + i);
        spec.units = 2;
        spec.campaign_attacks = 1;
        spec.campaign_defenses = 2;
        if (i == 3) spec.inject_fail_attempts = 1;
        jobs.push_back(spec);
    }
    return jobs;
}

/// The same spec run directly through its engine, with no daemon and no
/// journal.
struct Direct {
    std::uint64_t fingerprint = 0;
    std::optional<plugvolt::SafeStateMap> raw;     ///< Characterize only
    std::optional<plugvolt::SafeStateMap> served;  ///< raw after guard-band widening
    /// Characterize only: the sweep's configuration, cost and probe log.
    plugvolt::ParallelCharacterizerConfig config;
    double ms = 0.0;
    std::uint64_t cells = 0, crash_probes = 0;
    std::vector<plugvolt::ProbeLogEntry> probe_log;
};

Direct run_direct(const serve::JobSpec& spec, SpanLog& log) {
    const sim::CpuProfile profile = sim::paper_profiles()[spec.profile_index];
    Direct d;
    switch (spec.kind) {
        case serve::JobKind::Characterize: {
            Scoped span(log, "serve.direct.characterize");
            plugvolt::ParallelCharacterizerConfig cfg;
            cfg.cell.offset_step = Millivolts{spec.char_step_mv};
            cfg.workers = 1;
            cfg.mode = static_cast<plugvolt::SweepMode>(spec.sweep_mode);
            cfg.seed = spec.seed;
            if (cfg.mode == plugvolt::SweepMode::Adaptive) cfg.planner = infer::adaptive_planner();
            plugvolt::ParallelCharacterizer chr(profile, cfg);
            const auto t = Clock::now();
            plugvolt::SafeStateMap map = chr.characterize();
            d.ms = ms_since(t);
            d.config = chr.config();
            d.cells = chr.stats().cells_evaluated;
            d.crash_probes = chr.stats().crash_probes;
            d.probe_log = chr.adaptive_probe_log();
            d.fingerprint = plugvolt::state_hash(map);
            d.served = serve::widen_uncertain_rows(map, chr.planned_rows(), cfg.cell.offset_step).map;
            d.raw = std::move(map);
            break;
        }
        case serve::JobKind::Fleet: {
            Scoped span(log, "serve.direct.fleet");
            fleet::LotConfig lot_config;
            lot_config.lot_seed = mix_seed(spec.seed, kLotSeedTag);
            const fleet::SiliconLot lot(profile, lot_config);
            fleet::FleetConfig cfg;
            cfg.units = spec.units;
            cfg.sweep.cell.offset_step = Millivolts{spec.char_step_mv};
            cfg.sweep.mode = static_cast<plugvolt::SweepMode>(spec.sweep_mode);
            cfg.sweep.seed = spec.seed;
            cfg.workers = 1;
            fleet::FleetOrchestrator orchestrator(lot, cfg);
            d.fingerprint = fleet::state_hash(orchestrator.characterize());
            break;
        }
        case serve::JobKind::Campaign: {
            Scoped span(log, "serve.direct.campaign");
            campaign::CampaignConfig cfg;
            cfg.attacks.assign(campaign::all_attacks().begin(),
                               campaign::all_attacks().begin() +
                                   static_cast<std::ptrdiff_t>(spec.campaign_attacks));
            cfg.defenses.assign(campaign::all_defenses().begin(),
                                campaign::all_defenses().begin() +
                                    static_cast<std::ptrdiff_t>(spec.campaign_defenses));
            cfg.profiles = {profile};
            cfg.seed = spec.seed;
            cfg.workers = 1;
            cfg.char_step = Millivolts{spec.char_step_mv};
            cfg.tuning.scan_step = Millivolts{8.0};  // the daemon's job tuning
            cfg.tuning.probe_ops = 20'000;
            cfg.tuning.runs_per_offset = 8;
            campaign::CampaignEngine engine(cfg);
            d.fingerprint = engine.run().fingerprint();
            break;
        }
    }
    return d;
}

struct Request {
    Megahertz f;
    Millivolts depth;
};

struct Samples {
    Series step_slot_ms[kJobs];  ///< per generation, by job slot
    Series resume_ms[3];         ///< per generation, by restart
    Series idle_rate;            ///< verdicts/s of each idle batch
    Series submit_us{1 << 16};
    double verdict_ms[2] = {0, 0};  ///< idle, mid-flight (incl. between jobs)
    std::uint64_t verdicts[2] = {0, 0};
    std::map<serve::JobKind, Series> step_ms = {{serve::JobKind::Characterize, Series(1 << 15)},
                                                {serve::JobKind::Fleet, Series(1 << 14)},
                                                {serve::JobKind::Campaign, Series(1 << 13)}};
    std::uint64_t units = 0, jobs = 0;
    Series wal_replay_ms;
    std::uint64_t wal_bytes = 0, state_bytes = 0;
    std::optional<std::uint64_t> final_queue;  ///< queue_fingerprint of generation 1
};

class Generation {
public:
    Generation(Run& run, const std::vector<serve::JobSpec>& jobs,
               const std::vector<Direct>& direct,
               const std::vector<std::vector<Request>>& requests, Samples& s)
        : run_(run), jobs_(jobs), direct_(direct), requests_(requests), s_(s) {
        config_.state_dir = run.out_dir + "/state";
    }

    void operator()() {
        fs::remove_all(config_.state_dir);
        auto daemon = std::make_unique<serve::CampaignDaemon>(config_);
        const serve::DvfsVerdict first = daemon->request_undervolt(Megahertz{2000.0},
                                                                   Millivolts{-10.0});
        run_.tally.op(first.decision == serve::DvfsDecision::Denied,
                      "daemon served a verdict before its first commit");
        for (const serve::JobSpec& spec : jobs_) {
            const auto t = Clock::now();
            ids_.push_back(daemon->submit(spec));
            s_.submit_us.push_back(1000.0 * ms_since(t));
        }
        const std::uint64_t rejected = daemon->submit(jobs_.front());
        attach_hook(*daemon, kJobs);

        std::size_t done = 0;
        for (; done < kCleanRestartAfter; ++done) step(*daemon, done);
        daemon = restart(std::move(daemon), true, 0);
        for (; done < kKilledJob; ++done) step(*daemon, done);
        attach_hook(*daemon, kKilledJob);
        bool killed = false;
        try {
            (void)daemon->step();
        } catch (const KillSignal&) {
            killed = true;
        }
        run_.tally.op(killed, "job " + std::to_string(kKilledJob) + " was not interrupted");
        daemon = restart(std::move(daemon), false, 1);
        for (; done < kJobs; ++done) step(*daemon, done);
        run_.tally.op(!daemon->step(), "the queue is not empty after the last job");
        daemon = restart(std::move(daemon), true, 2);
        const std::uint64_t queue = daemon->queue_fingerprint();
        if (!s_.final_queue) s_.final_queue = queue;
        run_.tally.invariant(queue == *s_.final_queue,
                             "a generation ended with another queue than the first");

        // Idle verdicts, then the queue against the direct runs.
        verdict_batch(*daemon, kIdleBatch, 0);
        const std::vector<serve::JobRecord> records = daemon->jobs();
        run_.tally.op(records.size() == kJobs + 1, "the daemon lost or invented a job");
        for (const serve::JobRecord& r : records) {
            if (r.id == rejected) {
                run_.tally.op(r.state == serve::JobState::Rejected,
                              "a submit past the queue depth was not rejected");
                continue;
            }
            const std::size_t i = index_of(r.id);
            run_.tally.op(r.state == serve::JobState::Completed &&
                              r.result_fingerprint == direct_[i].fingerprint,
                          "job " + std::to_string(i) + " fingerprint != direct engine run");
            s_.units += r.progress_units;
            ++s_.jobs;
        }
        if (run_.trace) state_sizes();
    }

private:
    std::size_t index_of(std::uint64_t id) const {
        return static_cast<std::size_t>(std::find(ids_.begin(), ids_.end(), id) - ids_.begin());
    }

    /// The job whose map the daemon should be serving once the first
    /// `done` jobs have completed: the last Characterize job among them.
    std::optional<std::size_t> committed(std::size_t done) const {
        std::optional<std::size_t> last;
        for (std::size_t i = 0; i < done; ++i)
            if (jobs_[i].kind == serve::JobKind::Characterize) last = i;
        return last;
    }

    /// `n` verdicts cycling the committed map's frequency table, each
    /// checked against the direct map of the job it should come from.
    void verdict_batch(serve::CampaignDaemon& daemon, std::uint64_t n, int slot) {
        const std::optional<std::size_t> source = committed(completed_);
        const std::vector<Request>& reqs =
            requests_[source ? jobs_[*source].profile_index : 0];
        std::vector<serve::DvfsVerdict> got(n);
        const auto t = Clock::now();
        for (std::uint64_t k = 0; k < n; ++k) {
            const Request& q = reqs[(cursor_ + k) % reqs.size()];
            got[k] = daemon.request_undervolt(q.f, q.depth);
        }
        const double ms = ms_since(t);
        s_.verdict_ms[slot] += ms;
        s_.verdicts[slot] += n;
        if (slot == 0) s_.idle_rate.push_back(1000.0 * static_cast<double>(n) / ms);
        bool ok = true;
        for (std::uint64_t k = 0; k < n && ok; ++k) {
            const Request& q = reqs[(cursor_ + k) % reqs.size()];
            const serve::DvfsVerdict& v = got[k];
            if (!source) {
                ok = v.decision == serve::DvfsDecision::Denied;
                continue;
            }
            const Direct& d = direct_[*source];
            const Millivolts limit = d.served->safe_limit(q.f, config_.guard);
            const bool grant = q.depth >= limit;
            ok = v.source_job == ids_[*source] &&
                 v.decision == (grant ? serve::DvfsDecision::Granted
                                      : serve::DvfsDecision::Clamped) &&
                 v.applied == (grant ? q.depth : limit) &&
                 v.applied >= d.raw->safe_limit(q.f, config_.guard);
        }
        cursor_ += n;
        run_.tally.op(ok, slot == 0 ? "an idle verdict differs from the direct map"
                                    : "a verdict is not from the last committed job");
    }

    void attach_hook(serve::CampaignDaemon& daemon, std::size_t kill_job) {
        daemon.set_progress([this, &daemon, kill_job](const serve::JobRecord& job,
                                                      std::uint64_t units) {
            if (index_of(job.id) == kill_job && units == 2) throw KillSignal{};
            verdict_batch(daemon, kMidflightBatch, 1);
        });
    }

    void step(serve::CampaignDaemon& daemon, std::size_t i) {
        const serve::JobKind kind = jobs_[i].kind;
        const auto t = Clock::now();
        bool stepped = false;
        {
            Scoped span(run_.spans, std::string("serve.step.") + serve::to_string(kind));
            stepped = daemon.step();
        }
        const double ms = ms_since(t);
        s_.step_ms.at(kind).push_back(ms);
        s_.step_slot_ms[i].push_back(ms);
        run_.tally.op(stepped, "the daemon had no job " + std::to_string(i) + " to run");
        completed_ = i + 1;
        verdict_batch(daemon, kBetweenBatch, 1);
    }

    /// Tear the daemon down and start a new one on the same directory.
    std::unique_ptr<serve::CampaignDaemon> restart(std::unique_ptr<serve::CampaignDaemon> old,
                                                   bool clean, int slot) {
        const std::uint64_t fp = old->queue_fingerprint();
        const serve::DvfsVerdict before = old->request_undervolt(Megahertz{2000.0},
                                                                 Millivolts{-400.0});
        old.reset();
        const auto t = Clock::now();
        std::unique_ptr<serve::CampaignDaemon> fresh;
        {
            Scoped span(run_.spans, "serve.resume");
            fresh = std::make_unique<serve::CampaignDaemon>(config_);
        }
        s_.resume_ms[slot].push_back(ms_since(t));
        run_.tally.op((!clean || fresh->queue_fingerprint() == fp) &&
                          fresh->stats().rehydration_drops == 0 &&
                          fresh->request_undervolt(Megahertz{2000.0}, Millivolts{-400.0}) ==
                              before,
                      clean ? "a clean restart changed the queue or the verdicts"
                            : "a killed restart changed the verdicts");
        attach_hook(*fresh, kJobs);
        return fresh;
    }

    void state_sizes() {
        const std::string wal = config_.state_dir + "/daemon.wal";
        const std::string copy = run_.out_dir + "/daemon.wal.copy";
        fs::copy_file(wal, copy, fs::copy_options::overwrite_existing);
        const auto t = Clock::now();
        {
            Scoped span(run_.spans, "serve.wal_replay");
            const serve::JobWal replay = serve::JobWal::resume(copy);
            run_.tally.invariant(replay.records().size() == kJobs + 1,
                                 "the WAL copy does not replay every job");
        }
        s_.wal_replay_ms.push_back(ms_since(t));
        s_.wal_bytes = fs::file_size(wal);
        s_.state_bytes = 0;
        for (const auto& entry : fs::directory_iterator(config_.state_dir))
            if (entry.is_regular_file()) s_.state_bytes += entry.file_size();
    }

    Run& run_;
    const std::vector<serve::JobSpec>& jobs_;
    const std::vector<Direct>& direct_;
    const std::vector<std::vector<Request>>& requests_;
    Samples& s_;
    serve::DaemonConfig config_;
    std::vector<std::uint64_t> ids_;
    std::size_t completed_ = 0;
    std::uint64_t cursor_ = 0;
};

/// A characterize_with sweep whose rows are committed to a journal the
/// benchmark owns: the per-commit cost of the resilience layer.
void commit_costs(Run& run, const serve::JobSpec& spec, const Direct& direct,
                  std::vector<double>& commit_us, std::uint64_t& bytes, std::uint64_t& commits) {
    plugvolt::ParallelCharacterizerConfig cfg;
    cfg.cell.offset_step = Millivolts{spec.char_step_mv};
    cfg.workers = 1;
    cfg.mode = static_cast<plugvolt::SweepMode>(spec.sweep_mode);
    cfg.seed = spec.seed;
    if (cfg.mode == plugvolt::SweepMode::Adaptive) cfg.planner = infer::adaptive_planner();
    plugvolt::ParallelCharacterizer chr(sim::paper_profiles()[spec.profile_index], cfg);
    resilience::SweepJournal journal(run.out_dir + "/commit.pvj", chr.journal_header());
    const plugvolt::SafeStateMap map =
        chr.characterize_with({}, [&](const resilience::RowRecord& row) {
            const auto t = Clock::now();
            journal.commit(row);
            commit_us.push_back(1000.0 * ms_since(t));
        });
    run.tally.invariant(plugvolt::state_hash(map) == direct.fingerprint,
                        "a journaled characterize_with map != the direct map");
    bytes += journal.bytes_written();
    commits += journal.commits();
}

}  // namespace

void run_serve(Run& run) {
    const std::vector<serve::JobSpec> jobs = job_stream(run.seed);
    std::vector<Direct> direct;
    for (const serve::JobSpec& spec : jobs) direct.push_back(run_direct(spec, run.spans));
    std::vector<std::vector<Request>> requests;
    Rng rng(mix_seed(run.seed, 7));
    for (const sim::CpuProfile& profile : sim::paper_profiles()) {
        std::vector<Request> reqs;
        const auto table = profile.frequency_table();
        for (std::size_t i = 0; i < 16 * table.size(); ++i)
            reqs.push_back({table[i % table.size()],
                            Millivolts{-static_cast<double>(rng.uniform_below(301))}});
        requests.push_back(std::move(reqs));
    }
    std::vector<double> commit_us;
    std::uint64_t commit_bytes = 0, commits = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (jobs[i].kind == serve::JobKind::Characterize)
            commit_costs(run, jobs[i], direct[i], commit_us, commit_bytes, commits);
    run.setup_done();

    Samples s;
    std::uint64_t generations = 0;
    const auto start = Clock::now();
    do {
        Generation(run, jobs, direct, requests, s)();
        ++generations;
    } while (ms_since(start) < 1000.0 * run.seconds);
    std::fprintf(stderr, "serve: %llu generations\n", static_cast<unsigned long long>(generations));
    for (std::size_t i = 0; i < jobs.size(); ++i)
        run.report.fingerprint("job" + std::to_string(i), direct[i].fingerprint);

    // Each job slot and each restart at the fast end of its samples.
    double stream_ms = 0.0, resume_ms = 0.0;
    for (Series& ms : s.step_slot_ms) stream_ms += fast_time(ms);
    for (Series& ms : s.resume_ms) resume_ms += fast_time(ms) / 3.0;
    run.report.e2e("op_ms", stream_ms / static_cast<double>(kJobs), "ms");
    run.report.figure("jobs_per_s", 1000.0 * static_cast<double>(kJobs) / stream_ms, "1/s");
    run.report.figure("verdicts_per_s", fast_rate(s.idle_rate), "1/s");
    run.report.figure("resume_ms", resume_ms, "ms");

    // The directly run Characterize specs: the plugvolt.* metrics, and a
    // fresh-boot replay of the Adaptive ones' probes for the sim.* ones.
    MapWork map_work;
    SimWork sim_work;
    std::uint64_t windows = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].kind != serve::JobKind::Characterize) continue;
        map_work.host_ms += direct[i].ms;
        ++map_work.maps;
        map_work.cells += direct[i].cells;
        map_work.crash_probes += direct[i].crash_probes;
        if (direct[i].probe_log.empty()) continue;
        run.tally.invariant(
            replay_probe_log(sim::paper_profiles()[jobs[i].profile_index], direct[i].config,
                             direct[i].probe_log, sim_work, windows),
            "job " + std::to_string(i) + ": an adaptive probe does not replay");
    }
    map_work.report(run.report);
    sim_work.report(run.report);

    run.report.figure("serve.submit_us", s.submit_us.quantile(0.5), "us");
    for (const serve::JobKind kind :
         {serve::JobKind::Characterize, serve::JobKind::Fleet, serve::JobKind::Campaign})
        run.report.figure(std::string("serve.step_ms.") + serve::to_string(kind),
                          fast_time(s.step_ms.at(kind)), "ms");
    run.report.figure("serve.units_per_job",
                      static_cast<double>(s.units) / static_cast<double>(s.jobs), "count");
    if (run.trace) {
        for (const char* kind : {"characterize", "fleet", "campaign"})
            run.report.figure(std::string("serve.direct_ms.") + kind,
                              run.spans.total_ms(std::string("serve.direct.") + kind), "ms");
    }
    run.report.figure("resilience.commit_us", quantile(commit_us, 0.5), "us");
    run.report.figure("resilience.bytes_per_commit",
                      static_cast<double>(commit_bytes) / static_cast<double>(commits), "bytes");
    run.report.figure("serve.verdict_ns.idle",
                      1e6 * s.verdict_ms[0] / static_cast<double>(s.verdicts[0]), "ns");
    run.report.figure("serve.verdict_ns.midflight",
                      1e6 * s.verdict_ms[1] / static_cast<double>(s.verdicts[1]), "ns");
    if (run.trace) {
        run.report.figure("serve.wal_replay_ms", fast_time(s.wal_replay_ms), "ms");
        run.report.figure("serve.wal_bytes", static_cast<double>(s.wal_bytes), "bytes");
        run.report.figure("serve.state_bytes", static_cast<double>(s.state_bytes), "bytes");
    }
}

}  // namespace perfbench
