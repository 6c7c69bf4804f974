#include "campaign/journal.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "trace/trace.hpp"

namespace pv::campaign {
namespace {

constexpr std::uint8_t kCellKind = 2;
constexpr std::uint8_t kAttemptKind = 3;

using resilience::FrameLog;
using resilience::PayloadReader;
using resilience::put_f64;
using resilience::put_str;
using resilience::put_u32;
using resilience::put_u64;
using resilience::put_u8;

std::string encode_header_tail(const CampaignJournalHeader& header) {
    std::string tail;
    put_u64(tail, header.seed);
    put_u64(tail, header.cells);
    return tail;
}

void encode_metrics(std::string& payload, const trace::MetricsSnapshot& metrics) {
    put_u32(payload, static_cast<std::uint32_t>(metrics.size()));
    for (const auto& [name, v] : metrics.values()) {
        put_str(payload, name);
        put_u8(payload, static_cast<std::uint8_t>(v.kind));
        put_u64(payload, v.count);
        put_f64(payload, v.value);
        put_u32(payload, static_cast<std::uint32_t>(v.bounds.size()));
        for (const double b : v.bounds) put_f64(payload, b);
        put_u32(payload, static_cast<std::uint32_t>(v.buckets.size()));
        for (const std::uint64_t c : v.buckets) put_u64(payload, c);
    }
}

void decode_metrics(PayloadReader& r, trace::MetricsSnapshot& metrics) {
    const std::uint32_t entries = r.u32();
    for (std::uint32_t i = 0; i < entries && r.ok(); ++i) {
        const std::string name = r.str_lp();
        trace::MetricValue v;
        v.kind = static_cast<trace::MetricValue::Kind>(r.u8());
        v.count = r.u64();
        v.value = r.f64();
        const std::uint32_t n_bounds = r.u32();  // 0 once a read has failed
        v.bounds.reserve(n_bounds);
        for (std::uint32_t b = 0; b < n_bounds && r.ok(); ++b) v.bounds.push_back(r.f64());
        const std::uint32_t n_buckets = r.u32();
        v.buckets.reserve(n_buckets);
        for (std::uint32_t b = 0; b < n_buckets && r.ok(); ++b)
            v.buckets.push_back(r.u64());
        metrics.set(name, std::move(v));
    }
}

std::string encode_attempt_payload(std::uint64_t cell_index,
                                   std::uint32_t attempts_failed) {
    std::string payload;
    put_u64(payload, cell_index);
    put_u32(payload, attempts_failed);
    return payload;
}

std::string encode_cell_payload(const CampaignCellResult& cell) {
    std::string payload;
    put_u64(payload, static_cast<std::uint64_t>(cell.spec.index));
    put_u8(payload, static_cast<std::uint8_t>(cell.spec.attack));
    put_u8(payload, static_cast<std::uint8_t>(cell.spec.defense));
    put_u64(payload, static_cast<std::uint64_t>(cell.spec.profile_index));
    put_u64(payload, cell.spec.seed);
    put_str(payload, cell.profile_name);
    const attack::AttackResult& r = cell.attack_result;
    put_str(payload, r.attack_name);
    put_u64(payload, r.faults_observed);
    put_u8(payload, r.weaponized ? 1 : 0);
    put_str(payload, r.weaponization);
    put_u32(payload, r.crashes);
    put_u64(payload, r.writes_attempted);
    put_u64(payload, r.writes_effective);
    put_u64(payload, static_cast<std::uint64_t>(r.started.value()));
    put_u64(payload, static_cast<std::uint64_t>(r.finished.value()));
    put_str(payload, r.notes);
    put_u8(payload, cell.polling.has_value() ? 1 : 0);
    if (cell.polling) {
        const plugvolt::PollingMetrics& p = *cell.polling;
        put_u64(payload, p.polls);
        put_u64(payload, p.detections);
        put_u64(payload, p.restore_writes);
        put_u64(payload, p.freq_drops);
        put_u64(payload, p.rail_watch_detections);
        put_u64(payload, p.read_retries);
        put_u64(payload, p.write_retries);
        put_u64(payload, p.stale_reads);
        put_u64(payload, p.missed_polls);
        put_u64(payload, p.fail_closed_clamps);
        put_u64(payload, static_cast<std::uint64_t>(p.last_detection.value()));
    }
    put_u64(payload, cell.audit_violations);
    put_u64(payload, cell.audited_accesses);
    put_u64(payload, cell.machine_state_hash);
    put_u32(payload, cell.attempts);
    put_u32(payload, cell.machine_rebuilds);
    put_str(payload, cell.verdict);
    encode_metrics(payload, cell.metrics);
    return payload;
}

/// Decode a cell payload; the caller checks r.done() before using it.
void decode_cell(PayloadReader& r, CampaignCellResult& cell) {
    cell.spec.index = static_cast<std::size_t>(r.u64());
    cell.spec.attack = static_cast<AttackKind>(r.u8());
    cell.spec.defense = static_cast<DefenseKind>(r.u8());
    cell.spec.profile_index = static_cast<std::size_t>(r.u64());
    cell.spec.seed = r.u64();
    cell.profile_name = r.str_lp();
    attack::AttackResult& ar = cell.attack_result;
    ar.attack_name = r.str_lp();
    ar.faults_observed = r.u64();
    ar.weaponized = r.u8() != 0;
    ar.weaponization = r.str_lp();
    ar.crashes = r.u32();
    ar.writes_attempted = r.u64();
    ar.writes_effective = r.u64();
    ar.started = Picoseconds{static_cast<std::int64_t>(r.u64())};
    ar.finished = Picoseconds{static_cast<std::int64_t>(r.u64())};
    ar.notes = r.str_lp();
    if (r.u8() != 0) {
        plugvolt::PollingMetrics p;
        p.polls = r.u64();
        p.detections = r.u64();
        p.restore_writes = r.u64();
        p.freq_drops = r.u64();
        p.rail_watch_detections = r.u64();
        p.read_retries = r.u64();
        p.write_retries = r.u64();
        p.stale_reads = r.u64();
        p.missed_polls = r.u64();
        p.fail_closed_clamps = r.u64();
        p.last_detection = Picoseconds{static_cast<std::int64_t>(r.u64())};
        cell.polling = p;
    }
    cell.audit_violations = r.u64();
    cell.audited_accesses = r.u64();
    cell.machine_state_hash = r.u64();
    cell.attempts = r.u32();
    cell.machine_rebuilds = r.u32();
    cell.verdict = r.str_lp();
    decode_metrics(r, cell.metrics);
}

}  // namespace

CampaignJournal::CampaignJournal(const std::string& path,
                                 const CampaignJournalHeader& header)
    : header_(header),
      log_(FrameLog::open(path, header.config_hash, encode_header_tail(header),
                          std::bind_front(&CampaignJournal::replay, this))) {
    header_.config_hash = log_.config_hash();
}

bool CampaignJournal::replay(std::uint8_t kind, PayloadReader& r) {
    MutexLock lock(mutex_);
    switch (kind) {
        case resilience::kHeaderKind: {
            const std::uint64_t seed = r.u64();
            const std::uint64_t cells = r.u64();
            if (!r.done()) return false;
            header_.seed = seed;
            header_.cells = cells;
            return true;
        }
        case kCellKind: {
            CampaignCellResult cell;
            decode_cell(r, cell);
            if (!r.done()) return false;
            cells_.push_back(std::move(cell));
            return true;
        }
        case kAttemptKind: {
            const std::uint64_t index = r.u64();
            const std::uint32_t failed = r.u32();
            if (!r.done()) return false;
            std::uint32_t& slot = attempts_[index];
            slot = std::max(slot, failed);
            return true;
        }
        default: return false;
    }
}

void CampaignJournal::commit_cell(const CampaignCellResult& cell) {
    MutexLock lock(mutex_);
    log_.append(kCellKind, encode_cell_payload(cell));
    cells_.push_back(cell);
    PV_TRACE_EVENT(trace::EventKind::JournalCommit, "campaign-cell-commit", 0,
                   static_cast<std::uint64_t>(cell.spec.index), log_.logical_bytes());
}

void CampaignJournal::commit_attempt(std::uint64_t cell_index,
                                     std::uint32_t attempts_failed) {
    MutexLock lock(mutex_);
    log_.append(kAttemptKind, encode_attempt_payload(cell_index, attempts_failed));
    std::uint32_t& slot = attempts_[cell_index];
    slot = std::max(slot, attempts_failed);
}

std::vector<CampaignCellResult> CampaignJournal::cells() const {
    MutexLock lock(mutex_);
    return cells_;
}

std::uint32_t CampaignJournal::attempts_failed(std::uint64_t cell_index) const {
    MutexLock lock(mutex_);
    const auto it = attempts_.find(cell_index);
    return it == attempts_.end() ? 0 : it->second;
}

bool CampaignJournal::tail_dropped() const {
    MutexLock lock(mutex_);
    return log_.tail_dropped();
}

}  // namespace pv::campaign
