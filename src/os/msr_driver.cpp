#include "os/msr_driver.hpp"

#include <cstdio>
#include <utility>

#include "sim/ocm.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"

namespace pv::os {
namespace {

/// An IPI that times out burns its wait budget before failing — the
/// caller stalls far longer than a clean access (the PMFault "wedged
/// mailbox" shape).  Charged as a multiple of the clean access cost.
constexpr std::uint64_t kTimeoutStallMultiplier = 50;

std::string describe(const char* op, std::uint32_t addr, MsrStatus status) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s 0x%x: %s", op, addr, to_string(status));
    return buf;
}

}  // namespace

const char* to_string(MsrStatus status) {
    switch (status) {
        case MsrStatus::Ok: return "ok";
        case MsrStatus::IoError: return "io-error";
        case MsrStatus::Busy: return "busy";
        case MsrStatus::Timeout: return "timeout";
    }
    return "?";
}

MsrDriver::MsrDriver(sim::Machine& machine) : machine_(machine) {}

MsrObserver* MsrDriver::set_observer(MsrObserver* observer) {
    return std::exchange(observer_, observer);
}

resilience::FaultInjector* MsrDriver::set_fault_injector(
    resilience::FaultInjector* injector) {
    return std::exchange(injector_, injector);
}

void MsrDriver::charge(unsigned cpu, std::uint64_t cycles) {
    total_cycles_ += cycles;
    machine_.add_steal(cpu, Cycles{cycles});
}

Cycles MsrDriver::read_cost(bool remote) const {
    const auto& c = machine_.profile().costs;
    return Cycles{c.rdmsr_cycles + (remote ? c.ipi_cycles : 0)};
}

Cycles MsrDriver::write_cost(bool remote) const {
    const auto& c = machine_.profile().costs;
    return Cycles{c.wrmsr_cycles + (remote ? c.ipi_cycles : 0)};
}

MsrReadResult MsrDriver::try_rdmsr(unsigned caller_cpu, unsigned target_cpu,
                                   std::uint32_t addr) {
    const std::uint64_t cost = read_cost(caller_cpu != target_cpu).value();
    charge(caller_cpu, cost);
    if (injector_ != nullptr) {
        using resilience::FaultKind;
        if (injector_->should_inject(FaultKind::RdmsrTimeout)) {
            charge(caller_cpu, cost * kTimeoutStallMultiplier);
            ++faults_.read_timeouts;
            PV_TRACE_EVENT(trace::EventKind::EnvFaultInjected, "rdmsr-timeout",
                           machine_.now().value(), addr, target_cpu);
            return {MsrStatus::Timeout, 0, false};
        }
        if (injector_->should_inject(FaultKind::RdmsrError)) {
            ++faults_.read_errors;
            PV_TRACE_EVENT(trace::EventKind::EnvFaultInjected, "rdmsr-error",
                           machine_.now().value(), addr, target_cpu);
            return {MsrStatus::IoError, 0, false};
        }
    }
    const std::uint64_t value = machine_.read_msr(target_cpu, addr);
    std::uint64_t served = value;
    bool stale = false;
    if (injector_ != nullptr) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(target_cpu) << 32) | addr;
        if (injector_->should_inject(resilience::FaultKind::StaleRead)) {
            // A torn read races the PCU's update and sees the previous
            // value of this MSR; with no previous value on record the
            // read is trivially coherent.
            const auto it = last_value_.find(key);
            if (it != last_value_.end()) {
                served = it->second;
                stale = true;
                ++faults_.stale_reads;
                PV_TRACE_EVENT(trace::EventKind::EnvFaultInjected, "stale-read",
                               machine_.now().value(), addr, served);
            }
        }
        last_value_[key] = value;
    }
    PV_TRACE_EVENT_FINE(trace::EventKind::MsrRead, "rdmsr", machine_.now().value(), addr,
                        served);
    if (observer_ != nullptr) observer_->on_rdmsr(caller_cpu, target_cpu, addr, served);
    return {MsrStatus::Ok, served, stale};
}

MsrWriteResult MsrDriver::try_wrmsr(unsigned caller_cpu, unsigned target_cpu,
                                    std::uint32_t addr, std::uint64_t value) {
    const std::uint64_t cost = write_cost(caller_cpu != target_cpu).value();
    charge(caller_cpu, cost);
    if (injector_ != nullptr) {
        using resilience::FaultKind;
        if (addr == sim::kMsrOcMailbox &&
            injector_->should_inject(FaultKind::MailboxBusy)) {
            ++faults_.mailbox_busy;
            PV_TRACE_EVENT(trace::EventKind::EnvFaultInjected, "mailbox-busy",
                           machine_.now().value(), addr, target_cpu);
            return {MsrStatus::Busy, false};
        }
        if (injector_->should_inject(FaultKind::WrmsrTimeout)) {
            charge(caller_cpu, cost * kTimeoutStallMultiplier);
            ++faults_.write_timeouts;
            PV_TRACE_EVENT(trace::EventKind::EnvFaultInjected, "wrmsr-timeout",
                           machine_.now().value(), addr, target_cpu);
            return {MsrStatus::Timeout, false};
        }
        if (injector_->should_inject(FaultKind::WrmsrError)) {
            ++faults_.write_errors;
            PV_TRACE_EVENT(trace::EventKind::EnvFaultInjected, "wrmsr-error",
                           machine_.now().value(), addr, target_cpu);
            return {MsrStatus::IoError, false};
        }
    }
    PV_TRACE_EVENT_FINE(trace::EventKind::MsrWrite, "wrmsr", machine_.now().value(), addr,
                        value);
    // Observed BEFORE the machine applies it, so an auditor's machine-
    // level hook can tell driver traffic from out-of-band injection.
    if (observer_ != nullptr) observer_->on_wrmsr(caller_cpu, target_cpu, addr, value);
    // The stale-read cache is deliberately NOT updated here: it tracks
    // last READ values, so a torn read after a write serves the pre-write
    // value — exactly the poll-races-the-PCU shape being modelled.
    return {MsrStatus::Ok, machine_.write_msr(target_cpu, addr, value)};
}

MsrReadResult MsrDriver::try_ioctl_rdmsr(unsigned caller_cpu, unsigned target_cpu,
                                         std::uint32_t addr) {
    charge(caller_cpu, machine_.profile().costs.ioctl_overhead_cycles);
    return try_rdmsr(caller_cpu, target_cpu, addr);
}

MsrWriteResult MsrDriver::try_ioctl_wrmsr(unsigned caller_cpu, unsigned target_cpu,
                                          std::uint32_t addr, std::uint64_t value) {
    charge(caller_cpu, machine_.profile().costs.ioctl_overhead_cycles);
    return try_wrmsr(caller_cpu, target_cpu, addr, value);
}

bool MsrDriver::ioctl_wrmsr(unsigned caller_cpu, unsigned target_cpu, std::uint32_t addr,
                            std::uint64_t value) {
    const MsrWriteResult r = try_ioctl_wrmsr(caller_cpu, target_cpu, addr, value);
    if (r.status != MsrStatus::Ok)
        throw DriverError(describe("ioctl wrmsr", addr, r.status));
    return r.applied;
}

}  // namespace pv::os
