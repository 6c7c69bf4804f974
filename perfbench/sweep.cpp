// `sweep` workload: the paper's Algorithm 2 at its own resolution (1 mV,
// 10^6 imul per cell, -300 mV floor) on one thread, with no I/O.
//
// A round characterizes four maps -- one per paper profile, seeded from
// the run seed, plus the fixed Comet Lake map on which Bisection misses a
// faulting row -- each in Exhaustive, Bisection and Adaptive mode in
// turn, then four jittered Comet Lake lots of 16 units with adaptive warm
// starts and one fleet worker.  Set-up builds the inputs and the lots'
// cold characterize_unit references.
#include <cmath>

#include "bench.hpp"
#include "fleet/fleet_orchestrator.hpp"
#include "infer/adaptive_planner.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "replay.hpp"
#include "sim/cpu_profile.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace pv;
using plugvolt::SweepMode;

namespace {

/// Bisection and the Adaptive anchor report row 16 (2.0 GHz) of this
/// Comet Lake map fault-free although Exhaustive finds onset -299 mV.
/// Both certifications are counted as failed in every round.
constexpr std::uint64_t kMissSeed = 0xbe1b67d3e6055f33ULL;
constexpr std::uint64_t kLots = 4;
constexpr std::uint64_t kLotUnits = 16;
const char* const kModes[3] = {"exhaustive", "bisection", "adaptive"};

struct MapInput {
    std::string name;
    sim::CpuProfile profile;
    std::uint64_t seed = 0;
};

/// The Adaptive planner, wrapped in traced mode so that planner time
/// and probe time can be told apart.
plugvolt::AdaptivePlannerFn planner(SpanLog& log) {
    plugvolt::AdaptivePlannerFn inner = infer::adaptive_planner();
    if (!log.enabled()) return inner;
    return [inner, &log](const plugvolt::AdaptiveContext& ctx,
                         const plugvolt::CellProbeFn& probe) {
        Scoped span(log, "infer.plan");
        const plugvolt::CellProbeFn traced = [&](std::size_t row, std::uint64_t step) {
            Scoped probe_span(log, "infer.probe");
            return probe(row, step);
        };
        return inner(ctx, traced);
    };
}

plugvolt::ParallelCharacterizerConfig sweep_config(SweepMode mode, std::uint64_t seed,
                                                   SpanLog& log) {
    plugvolt::ParallelCharacterizerConfig cfg;  // 1 mV, 10^6 imul, -300 mV floor
    cfg.workers = 1;
    cfg.run_inline = true;
    cfg.mode = mode;
    cfg.seed = seed;
    if (mode == SweepMode::Adaptive) cfg.planner = planner(log);
    return cfg;
}

/// Crash and onset of a row as 1-based offset steps; a row that never
/// crashes (its crash is the sentinel one step below the floor) or never
/// faults reports steps + 1.
std::pair<long, long> steps_of(const plugvolt::FreqCharacterization& row, long steps) {
    return {std::lround(-row.crash.value()), row.fault_free
                                                 ? steps + 1
                                                 : std::lround(-row.onset.value())};
}

struct Samples {
    /// Host time of every map, by mode and input.
    std::map<std::string, Series> map_ms[3];
    std::uint64_t cells[3] = {0, 0, 0};
    std::uint64_t crashes[3] = {0, 0, 0};
    std::uint64_t interpolated = 0;
    std::uint64_t maps = 0;
    MapWork map_work;
    /// Host time of every lot unit, by lot and unit.
    std::vector<std::vector<Series>> unit_ms =
        std::vector<std::vector<Series>>(kLots, std::vector<Series>(kLotUnits, Series(1 << 10)));
    std::uint64_t lot_cells = 0, lot_crashes = 0, lot_warm_rows = 0, lot_units = 0;
};

/// First-round results, which every later round must reproduce.
struct FirstRound {
    std::vector<std::uint64_t> hashes;
    std::vector<plugvolt::ParallelCharacterizerConfig> adaptive_configs;
    std::vector<std::vector<plugvolt::ProbeLogEntry>> probe_logs;
};

void map_round(Run& run, const std::vector<MapInput>& inputs, Samples& s, FirstRound& first,
               bool first_round) {
    std::size_t k = 0;
    for (const MapInput& in : inputs) {
        plugvolt::SafeStateMap maps[3] = {plugvolt::SafeStateMap("", Millivolts{-300.0}),
                                          plugvolt::SafeStateMap("", Millivolts{-300.0}),
                                          plugvolt::SafeStateMap("", Millivolts{-300.0})};
        std::vector<plugvolt::PlannedRow> planned;
        std::uint64_t ex_cells = 0;
        for (int m = 0; m < 3; ++m) {
            plugvolt::ParallelCharacterizer chr(
                in.profile, sweep_config(static_cast<SweepMode>(m), in.seed, run.spans));
            const auto t = Clock::now();
            {
                Scoped span(run.spans, std::string("plugvolt.map.") + kModes[m]);
                maps[m] = chr.characterize();
            }
            const double ms = ms_since(t);
            s.map_ms[m][in.name].push_back(ms);
            s.cells[m] += chr.stats().cells_evaluated;
            s.crashes[m] += chr.stats().crash_probes;
            s.map_work.host_ms += ms;
            ++s.map_work.maps;
            s.map_work.cells += chr.stats().cells_evaluated;
            s.map_work.crash_probes += chr.stats().crash_probes;
            if (m == 0) ex_cells = chr.stats().cells_evaluated;
            if (m == 2) {
                s.interpolated += chr.stats().rows_interpolated;
                planned = chr.planned_rows();
                if (first_round) {
                    first.adaptive_configs.push_back(chr.config());
                    first.probe_logs.push_back(chr.adaptive_probe_log());
                }
            }
            const std::uint64_t h = plugvolt::state_hash(maps[m]);
            if (first_round) first.hashes.push_back(h);
            else run.tally.invariant(first.hashes[k] == h, in.name + " map changed between rounds");
            ++k;
        }
        ++s.maps;

        // Exhaustive is the reference; every check is one operation.
        const plugvolt::SafeStateMap& ex = maps[0];
        const long steps = 300;
        std::uint64_t expect_cells = 0;
        bool ordered = true;
        for (int m = 0; m < 3; ++m)
            for (const auto& row : maps[m].rows())
                if (!row.fault_free && row.crash.value() > row.onset.value()) ordered = false;
        for (const auto& row : ex.rows())
            expect_cells += static_cast<std::uint64_t>(std::min(steps_of(row, steps).first, steps));
        run.tally.op(ordered, in.name + ": a row crashes shallower than its onset");
        run.tally.op(ex_cells == expect_cells,
                     in.name + ": exhaustive cells_evaluated != sum of crash steps");
        run.tally.op(plugvolt::state_hash(maps[1]) == plugvolt::state_hash(ex),
                     in.name + ": bisection map != exhaustive map");
        bool adaptive_ok = planned.size() == ex.rows().size();
        for (std::size_t r = 0; adaptive_ok && r < ex.rows().size(); ++r) {
            const auto e = steps_of(ex.rows()[r], steps);
            const auto a = steps_of(maps[2].rows()[r], steps);
            const long dc = std::labs(e.first - a.first), don = std::labs(e.second - a.second);
            if (planned[r].anchored ? (dc != 0 || don != 0) : (dc > 1 || don > 1))
                adaptive_ok = false;
        }
        run.tally.op(adaptive_ok, in.name + ": adaptive row off the exhaustive map");
    }
}

/// A jittered lot, its fleet configuration and each unit's cold map hash.
struct Lot {
    fleet::SiliconLot lot;
    fleet::FleetConfig config;
    std::vector<std::uint64_t> cold;
};

void lot_round(Run& run, const Lot& lot, std::vector<Series>& unit_ms, Samples& s) {
    const std::vector<std::uint64_t>& cold = lot.cold;
    fleet::FleetOrchestrator orchestrator(lot.lot, lot.config);
    std::vector<std::uint64_t> warm(cold.size(), 0);
    auto t = Clock::now();
    {
        Scoped span(run.spans, "fleet.lot");
        (void)orchestrator.characterize(
            [&](std::uint64_t unit, const plugvolt::SafeStateMap& map) {
                unit_ms[unit].push_back(ms_since(t));
                warm[unit] = plugvolt::state_hash(map);
                t = Clock::now();
            });
    }
    for (std::size_t u = 0; u < cold.size(); ++u)
        run.tally.op(warm[u] == cold[u],
                     "lot unit " + std::to_string(u) + ": warm map != characterize_unit");
    s.lot_cells += orchestrator.stats().cells_evaluated;
    s.lot_crashes += orchestrator.stats().crash_probes;
    s.lot_warm_rows += orchestrator.stats().warm_rows;
    s.lot_units += cold.size();
}

/// Replays every probe of the first round's Adaptive maps on a freshly
/// booted Machine and checks the outcome is the logged one.  The sim.*
/// figures cover the whole replay.
void replay_probes(Run& run, const std::vector<MapInput>& inputs, const FirstRound& first) {
    SimWork work;
    std::uint64_t cells = 0, windows = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        run.tally.invariant(replay_probe_log(inputs[i].profile, first.adaptive_configs[i],
                                             first.probe_logs[i], work, windows),
                            inputs[i].name + ": an adaptive probe does not replay");
        cells += first.probe_logs[i].size();
    }
    work.report(run.report);
    const double n = static_cast<double>(std::max<std::uint64_t>(cells, 1));
    run.report.figure("sim.cell_replay_us", 1000.0 * work.host_ms / n, "us");
    run.report.figure("sim.events_per_cell", static_cast<double>(work.events) / n, "count");
    run.report.figure("sim.batch_windows_per_cell", static_cast<double>(windows) / n, "count");
}

}  // namespace

void run_sweep(Run& run) {
    std::vector<MapInput> inputs;
    const auto profiles = sim::paper_profiles();
    for (std::size_t p = 0; p < profiles.size(); ++p)
        inputs.push_back({profiles[p].codename + "#seeded", profiles[p], mix_seed(run.seed, p)});
    inputs.push_back({"Comet Lake#0xbe1b67d3e6055f33", sim::cometlake_i7_10510u(), kMissSeed});

    std::vector<Lot> lots;
    for (std::uint64_t l = 0; l < kLots; ++l) {
        fleet::LotConfig lot_config;
        lot_config.lot_seed = mix_seed(run.seed, 0x107 + l);
        fleet::FleetConfig fleet_config;
        fleet_config.units = kLotUnits;
        fleet_config.sweep.mode = SweepMode::Adaptive;  // 1 mV, planner attached by the fleet
        fleet_config.sweep.seed = mix_seed(run.seed, 0xF1EE7 + l);
        fleet_config.workers = 1;  // hints then do not depend on completion order
        Lot lot{fleet::SiliconLot(sim::cometlake_i7_10510u(), lot_config), fleet_config, {}};
        const fleet::FleetOrchestrator reference(lot.lot, fleet_config);
        for (std::uint64_t u = 0; u < kLotUnits; ++u)
            lot.cold.push_back(plugvolt::state_hash(reference.characterize_unit(u)));
        lots.push_back(std::move(lot));
    }
    run.setup_done();

    Samples s;
    FirstRound first;
    std::uint64_t rounds = 0;
    const auto start = Clock::now();
    do {
        map_round(run, inputs, s, first, rounds == 0);
        for (std::size_t l = 0; l < lots.size(); ++l) lot_round(run, lots[l], s.unit_ms[l], s);
        ++rounds;
    } while (ms_since(start) < 1000.0 * run.seconds);
    std::fprintf(stderr, "sweep: %llu rounds\n", static_cast<unsigned long long>(rounds));

    const double maps = static_cast<double>(s.maps);
    const double units = static_cast<double>(s.lot_units);
    for (std::size_t i = 0; i < inputs.size(); ++i)
        for (int m = 0; m < 3; ++m)
            run.report.fingerprint(inputs[i].name + "/" + kModes[m], first.hashes[3 * i + m]);
    for (std::size_t l = 0; l < lots.size(); ++l) {
        std::uint64_t lot_fp = 0;
        for (const std::uint64_t h : lots[l].cold) lot_fp = mix_seed(lot_fp, h);
        run.report.fingerprint("lot" + std::to_string(l), lot_fp);
    }

    // op_ms: every map (input and mode) and every lot unit at the fast
    // end of its own samples, averaged over the characterizations of a
    // round.  The per-mode figures average each mode over the four maps.
    double round_ms = 0.0, ops = 0.0, unit_fast_ms = 0.0;
    for (int m = 0; m < 3; ++m) {
        double sum = 0.0;
        for (auto& [name, ms] : s.map_ms[m]) sum += fast_time(ms);
        round_ms += sum;
        ops += static_cast<double>(s.map_ms[m].size());
        run.report.figure(std::string(kModes[m]) + "_map_ms",
                          sum / static_cast<double>(s.map_ms[m].size()), "ms");
    }
    for (auto& lot : s.unit_ms)
        for (Series& ms : lot) unit_fast_ms += fast_time(ms);
    round_ms += unit_fast_ms;
    ops += static_cast<double>(kLots * kLotUnits);
    run.report.e2e("op_ms", round_ms / ops, "ms");

    run.report.figure("adaptive_probes_per_map", static_cast<double>(s.cells[2]) / maps, "cells");
    run.report.figure("adaptive_reboots_per_map", static_cast<double>(s.crashes[2]) / maps,
                      "probes");
    run.report.figure("fleet_probes_per_unit", static_cast<double>(s.lot_cells) / units, "cells");

    s.map_work.report(run.report);
    replay_probes(run, inputs, first);
    for (int m = 0; m < 2; ++m) {
        run.report.figure(std::string("plugvolt.cells.") + kModes[m],
                          static_cast<double>(s.cells[m]) / maps, "count");
        if (run.trace)
            run.report.figure(std::string("plugvolt.cell_us.") + kModes[m],
                              1000.0 *
                                  run.spans.total_ms(std::string("plugvolt.map.") + kModes[m]) /
                                  static_cast<double>(s.cells[m]),
                              "us");
    }
    run.report.figure("plugvolt.crash_probes.bisection", static_cast<double>(s.crashes[1]) / maps,
                      "count");
    if (run.trace) {
        run.report.figure("infer.plan_self_ms",
                          run.spans.self_ms("infer.plan", "infer.probe") / maps, "ms");
        run.report.figure("infer.probe_ms", run.spans.total_ms("infer.probe") / maps, "ms");
    }
    run.report.figure("infer.rows_interpolated", static_cast<double>(s.interpolated) / maps,
                      "count");
    run.report.figure("fleet.unit_ms", unit_fast_ms / static_cast<double>(kLots * kLotUnits),
                      "ms");
    run.report.figure("fleet.warm_rows_per_unit", static_cast<double>(s.lot_warm_rows) / units,
                      "count");
    run.report.figure("fleet.crash_probes_per_unit", static_cast<double>(s.lot_crashes) / units,
                      "count");
}

}  // namespace perfbench
