// Fresh-boot replay of an Adaptive sweep's probe log, shared by the
// sweep and serve workloads: each logged probe is re-run as a single
// cell on a newly booted Machine (reset, frequency pin, cell) and must
// give the logged outcome.
#pragma once

#include "bench.hpp"
#include "os/kernel.hpp"
#include "plugvolt/characterizer.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Replays every entry of `log`, adding the cells' host time, simulated
/// time and Machine statistics to `work` and `windows`.  True when every
/// probe repeats its logged faults and crash flag.
inline bool replay_probe_log(const pv::sim::CpuProfile& profile,
                             const pv::plugvolt::ParallelCharacterizerConfig& cfg,
                             const std::vector<pv::plugvolt::ProbeLogEntry>& log,
                             SimWork& work, std::uint64_t& windows) {
    using namespace pv;
    const auto table = profile.frequency_table();
    bool same = !log.empty();
    for (const plugvolt::ProbeLogEntry& e : log) {
        os::WorkerContext ctx = os::make_worker_context(profile, 0);
        plugvolt::Characterizer chr(*ctx.kernel, cfg.cell);
        const sim::Machine::Stats before = ctx.machine->stats();
        const auto t = Clock::now();
        ctx.machine->reset(mix_seed(mix_seed(cfg.seed, e.row), e.step));
        const Picoseconds booted = ctx.machine->now();
        const Megahertz f = table[e.row];
        chr.pin_frequency(f);
        const plugvolt::CellResult cell = chr.test_cell_pinned(f, chr.offset_at_step(e.step));
        work.host_ms += ms_since(t);
        work.sim_us += (ctx.machine->now() - booted).microseconds();
        const sim::Machine::Stats after = ctx.machine->stats();
        work.events += after.events_dispatched - before.events_dispatched;
        windows += after.batch_windows - before.batch_windows;
        same = same && cell.faults == e.faults && cell.crashed == e.crashed;
    }
    return same;
}

}  // namespace perfbench
