// `campaign` workload: the 8 attack x 9 defence x 3 profile cube at the
// published AttackTuning, sharded over at most 4 worker threads, plus the
// noise-free Table 2 SPEC run and the Sec. 5 turnaround injections.
//
// Set-up characterizes the three defence maps (CampaignEngine::map_for)
// and ends with one untimed warm-up pass, whose results every later pass
// must reproduce.  A round is one whole cube pass; every cell is timed on
// its worker thread.  The simulated Table 2 and Sec. 5 figures are
// deterministic, so they are computed once, after the timed passes.
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "os/kernel.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "plugvolt/turnaround.hpp"
#include "util/rng.hpp"
#include "workload/spec_suite.hpp"

namespace perfbench {

using namespace pv;
using campaign::AttackKind;
using campaign::DefenseKind;

namespace {

/// The deterministic efficacy claims of campaign_demo's check_efficacy.
/// The Minefield zero-stepping bypass is probabilistic (it needs the
/// fault on the last mul of the window) and is counted, not asserted.
std::string efficacy_violation(const campaign::CampaignCellResult& cell) {
    const AttackKind atk = cell.spec.attack;
    const DefenseKind def = cell.spec.defense;
    const attack::AttackResult& r = cell.attack_result;
    const bool software_attack =
        atk != AttackKind::VoltPillager && atk != AttackKind::BenignUndervolt;
    const bool leaked = r.faults_observed > 0 || r.weaponized;
    if (def == DefenseKind::None && atk == AttackKind::Plundervolt && !r.weaponized)
        return "plundervolt must weaponize with no defense";
    if ((def == DefenseKind::PollingMaximalSafe || def == DefenseKind::Microcode ||
         def == DefenseKind::MsrClamp) &&
        software_attack && leaked)
        return "write-enforcing deployments must block every software attack";
    if (def == DefenseKind::PollingSafeLimit &&
        (atk == AttackKind::Plundervolt || atk == AttackKind::VoltJockey ||
         atk == AttackKind::V0ltpwn || atk == AttackKind::V0ltpwnSgxStep) &&
        leaked)
        return "polling module must block the published attack families";
    if ((def == DefenseKind::PollingSafeLimit || def == DefenseKind::PollingMaximalSafe ||
         def == DefenseKind::PollingRestoreZero) &&
        atk == AttackKind::VoltPillager &&
        (!cell.polling || cell.polling->rail_watch_detections == 0))
        return "rail watchdog must detect VoltPillager injection";
    if (atk == AttackKind::BenignUndervolt) {
        if (def == DefenseKind::AccessControl && cell.verdict != "DENIED")
            return "access control must deny benign undervolting";
        if ((def == DefenseKind::PollingSafeLimit || def == DefenseKind::PollingNoRailWatch ||
             def == DefenseKind::None) &&
            cell.verdict != "full")
            return "benign undervolting must stay full";
        if ((def == DefenseKind::PollingMaximalSafe || def == DefenseKind::Microcode ||
             def == DefenseKind::MsrClamp) &&
            cell.verdict != "clamped" && cell.verdict != "full")
            return "maximal-safe deployments clamp but never deny benign undervolts";
    }
    if (def == DefenseKind::Minefield && atk == AttackKind::V0ltpwn && r.weaponized)
        return "minefield must deflect the un-stepped V0LTpwn fault";
    if (cell.verdict.find("machine dead") != std::string::npos)
        return "cell exhausted its retries with a dead machine";
    return "";
}

std::uint64_t counter(const campaign::CampaignCellResult& cell, const std::string& name) {
    const auto it = cell.metrics.values().find(name);
    return it == cell.metrics.values().end() ? 0 : it->second.count;
}

double gauge(const campaign::CampaignCellResult& cell, const std::string& name) {
    const auto it = cell.metrics.values().find(name);
    return it == cell.metrics.values().end() ? 0.0 : it->second.value;
}

struct CellTime {
    double cpu_ms = 0.0;
    double wall_ms = 0.0;
};

/// One cube pass over `threads` workers; cells are taken heaviest
/// attack first so the pass ends with short cells on every worker.
std::vector<campaign::CampaignCellResult> cube_pass(campaign::CampaignEngine& engine,
                                                    const std::vector<campaign::CellSpec>& order,
                                                    unsigned threads,
                                                    std::vector<CellTime>& times,
                                                    std::vector<SpanLog>& logs) {
    std::vector<campaign::CampaignCellResult> results(order.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(threads);
    const auto worker = [&](unsigned w) {
        try {
            for (std::size_t i = next++; i < order.size(); i = next++) {
                const campaign::CellSpec& spec = order[i];
                const double cpu0 = thread_cpu_ms();
                const auto t = Clock::now();
                {
                    Scoped span(logs[w], std::string("campaign.cell.") +
                                             campaign::to_string(spec.attack));
                    results[spec.index] = engine.run_cell(spec);
                }
                times[spec.index] = {thread_cpu_ms() - cpu0, ms_since(t)};
            }
        } catch (...) {
            errors[w] = std::current_exception();
        }
    };
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < threads; ++w) pool.emplace_back(worker, w);
    for (std::thread& t : pool) t.join();
    for (const std::exception_ptr& e : errors)
        if (e) std::rethrow_exception(e);
    return results;
}

/// Simulated, deterministic figures: the noise-free Table 2 slowdown
/// and the Sec. 5 turnaround of the polling module, both on Comet Lake.
struct Simulated {
    double spec_pct = 0.0;
    double msr_us = 0.0;
    std::vector<double> exposure_us, detect_us;
    MapWork map;  ///< the Table 2 map's characterization
};

Simulated simulate_polling(Run& run) {
    Simulated out;
    // Table 2, noise-free: the polling module's SPEC slowdown is the
    // poll-body cost stolen from each poll interval.
    const sim::CpuProfile comet = sim::cometlake_i7_10510u();
    plugvolt::ParallelCharacterizerConfig map_cfg;
    map_cfg.cell.offset_step = Millivolts{5.0};
    map_cfg.workers = 1;
    map_cfg.run_inline = true;
    map_cfg.seed = mix_seed(run.seed, 0x7AB1E2);
    plugvolt::ParallelCharacterizer characterizer(comet, map_cfg);
    const auto t_map = Clock::now();
    const plugvolt::SafeStateMap comet_map = characterizer.characterize();
    out.map = {ms_since(t_map), 1, characterizer.stats().cells_evaluated,
               characterizer.stats().crash_probes};
    const plugvolt::PollingConfig polling;
    workload::SpecSuiteConfig spec_cfg;
    spec_cfg.units = 200;
    spec_cfg.noise_fraction = 0.0;
    spec_cfg.seed = mix_seed(run.seed, 0x5BEC);
    std::vector<workload::SpecScore> scores;
    {
        Scoped span(run.spans, "workload.spec_suite");
        scores = workload::SpecSuite(comet, spec_cfg).run(comet_map, polling);
    }
    std::vector<double> slowdowns;
    for (const workload::SpecScore& s : scores) {
        slowdowns.push_back(s.base_slowdown());
        slowdowns.push_back(s.peak_slowdown());
    }
    bool non_negative = !slowdowns.empty();
    for (const double s : slowdowns) non_negative = non_negative && s >= 0.0;
    run.tally.invariant(non_negative, "a noise-free Table 2 slowdown is negative");
    out.spec_pct = 100.0 * mean(slowdowns);
    double analytic_pct = 0.0;
    for (const Megahertz f : {Megahertz{comet.freq_max.value() - 300.0}, comet.freq_max}) {
        const plugvolt::TurnaroundBreakdown b = plugvolt::estimate_turnaround(
            comet, polling, f, Millivolts{-200.0}, comet_map.safe_limit(f));
        analytic_pct += 50.0 * b.msr_access.microseconds() / polling.interval.microseconds();
        out.msr_us += 0.5 * b.msr_access.microseconds();
    }
    run.tally.invariant(std::fabs(out.spec_pct - analytic_pct) <= 0.05 * analytic_pct,
                        "Table 2 mean slowdown " + std::to_string(out.spec_pct) +
                            " % != poll-body cost / interval " + std::to_string(analytic_pct) +
                            " %");

    // Sec. 5: unsafe 0x150 writes mid-band on a live kernel module; the
    // exposure is injection to rail back above the onset.
    for (std::uint64_t trial = 0; trial < 40; ++trial) {
        sim::Machine machine(comet, mix_seed(run.seed, 0x5EC5 + trial));
        os::Kernel kernel(machine);
        auto module = std::make_shared<plugvolt::PollingModule>(comet_map, polling);
        kernel.load_module(module);
        machine.advance(microseconds(1.0 + 1.7 * static_cast<double>(trial)));
        const Megahertz f = trial % 2 == 0 ? comet.freq_max : from_ghz(2.4);
        const auto& row = comet_map.rows()[static_cast<std::size_t>(
            (f.value() - comet_map.rows().front().freq.value()) / 100.0)];
        const Millivolts inject{0.5 * (row.onset.value() + row.crash.value())};
        const plugvolt::MeasuredTurnaround m =
            plugvolt::measure_turnaround(kernel, *module, comet_map, f, inject);
        const double detect = (m.detected_at - m.injected_at).microseconds();
        run.tally.invariant(m.detected && !m.crashed &&
                                detect <= polling.interval.microseconds(),
                            "injection " + std::to_string(trial) +
                                " not detected within one poll interval");
        out.exposure_us.push_back(m.exposure().microseconds());
        out.detect_us.push_back(detect);
    }

    return out;
}

}  // namespace

void run_campaign(Run& run) {
    campaign::CampaignConfig config;  // published AttackTuning, 2 mV maps
    config.seed = run.seed;
    config.workers = 1;
    campaign::CampaignEngine engine(config);
    const unsigned threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));

    // Set-up: the three defence maps every cell is armed with.
    const auto t_maps = Clock::now();
    {
        Scoped span(run.spans, "campaign.maps");
        for (std::size_t p = 0; p < config.profiles.size(); ++p) (void)engine.map_for(p);
    }
    const double maps_ms = ms_since(t_maps);
    std::vector<campaign::CellSpec> order = engine.cells();
    std::stable_sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
        const auto heavy = [](AttackKind k) {
            return k == AttackKind::V0ltpwn || k == AttackKind::V0ltpwnSgxStep;
        };
        return heavy(a.attack) && !heavy(b.attack);
    });
    std::vector<SpanLog> logs;
    for (unsigned w = 0; w < threads; ++w) logs.emplace_back(run.trace, w + 1);
    std::vector<campaign::CampaignCellResult> first;
    const auto check = [&](const std::vector<campaign::CampaignCellResult>& cells) {
        for (const campaign::CampaignCellResult& cell : cells) {
            const std::string where = std::string(campaign::to_string(cell.spec.attack)) +
                                      " vs " + campaign::to_string(cell.spec.defense) +
                                      " on " + cell.profile_name;
            const std::string violation = efficacy_violation(cell);
            run.tally.op(violation.empty(), where + ": " + violation);
            run.tally.invariant(campaign::fingerprint(cell) ==
                                    campaign::fingerprint(first[cell.spec.index]),
                                where + " changed between passes");
        }
    };
    // The warm-up pass: a set-up of a few seconds spans many of the host's
    // speed switches, so its time repeats far better than that of the maps
    // alone (a few ms, landing in one speed state or the other).
    {
        std::vector<CellTime> warm_up(order.size());
        first = cube_pass(engine, order, threads, warm_up, logs);
        check(first);
    }
    run.setup_done();

    std::vector<std::vector<CellTime>> passes;
    const auto start = Clock::now();
    do {
        std::vector<CellTime> times(order.size());
        const std::vector<campaign::CampaignCellResult> cells =
            cube_pass(engine, order, threads, times, logs);
        passes.push_back(std::move(times));
        check(cells);
    } while (ms_since(start) < 1000.0 * run.seconds);
    for (SpanLog& log : logs) run.spans.absorb(log);
    const Simulated sim = simulate_polling(run);

    // cube_s: per cell, the fastest of its passes (CPU time of its
    // worker thread), summed over the cube.
    double cube_ms = 0.0;
    std::map<AttackKind, double> attack_ms;
    for (std::size_t c = 0; c < first.size(); ++c) {
        double best = passes[0][c].cpu_ms;
        for (const auto& pass : passes) best = std::min(best, pass[c].cpu_ms);
        cube_ms += best;
        attack_ms[first[c].spec.attack] += best;
    }
    double wall_pass_ms = 1e300;
    for (const auto& pass : passes) {
        double sum = 0.0;
        for (const CellTime& t : pass) sum += t.wall_ms;
        wall_pass_ms = std::min(wall_pass_ms, sum);
    }

    campaign::CampaignReport report;
    report.seed = config.seed;
    report.n_attacks = config.attacks.size();
    report.n_defenses = config.defenses.size();
    report.n_profiles = config.profiles.size();
    report.cells = first;
    std::uint64_t events = 0, polls = 0, bypasses = 0;
    double virtual_us = 0.0;
    for (const campaign::CampaignCellResult& cell : first) {
        events += counter(cell, "machine.events_dispatched");
        virtual_us += gauge(cell, "cell_virtual_us");
        if (cell.polling) polls += cell.polling->polls;
        if (cell.spec.defense == DefenseKind::Minefield &&
            cell.spec.attack == AttackKind::V0ltpwnSgxStep && cell.attack_result.weaponized)
            ++bypasses;
    }
    run.report.fingerprint("cube_report", report.fingerprint());
    run.report.fingerprint("cube_virtual_us", static_cast<std::uint64_t>(std::llround(virtual_us)));
    std::fprintf(stderr, "campaign: %zu passes, %zu/%zu minefield zero-step bypasses; pass CPU s:",
                 passes.size(), static_cast<std::size_t>(bypasses), config.profiles.size());
    for (const auto& pass : passes) {
        double sum = 0.0;
        for (const CellTime& t : pass) sum += t.cpu_ms;
        std::fprintf(stderr, " %.2f", sum / 1000.0);
    }
    std::fprintf(stderr, "\n");

    run.report.e2e("op_ms", cube_ms / static_cast<double>(first.size()), "ms");
    sim.map.report(run.report);
    SimWork{cube_ms, virtual_us, events}.report(run.report);

    run.report.figure("cube_s", cube_ms / 1000.0, "s");
    run.report.figure("spec_overhead_pct", sim.spec_pct, "%");
    run.report.figure("turnaround_us", mean(sim.exposure_us), "us");
    for (const auto& [attack, ms] : attack_ms)
        run.report.figure(std::string("campaign.attack_s.") + campaign::to_string(attack),
                          ms / 1000.0, "s");
    run.report.figure("campaign.cells_wall_s", wall_pass_ms / 1000.0, "s");
    run.report.figure("campaign.maps_ms", maps_ms, "ms");
    run.report.figure("campaign.events", static_cast<double>(events), "count");
    run.report.figure("campaign.minefield_bypasses", static_cast<double>(bypasses), "count");
    run.report.figure("polling.polls", static_cast<double>(polls), "count");
    run.report.figure("os.msr_access_us", sim.msr_us, "us");
    run.report.figure("plugvolt.detect_us", mean(sim.detect_us), "us");
}

}  // namespace perfbench
