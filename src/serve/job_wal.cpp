#include "serve/job_wal.hpp"

#include <algorithm>
#include <functional>
#include <utility>

namespace pv::serve {
namespace {

constexpr std::uint8_t kSubmittedKind = 2;
constexpr std::uint8_t kStartedKind = 3;
constexpr std::uint8_t kAttemptFailedKind = 4;
constexpr std::uint8_t kFinishedKind = 5;
constexpr std::uint8_t kRejectedKind = 6;

using resilience::FrameLog;
using resilience::PayloadReader;
using resilience::put_f64;
using resilience::put_str;
using resilience::put_u32;
using resilience::put_u64;
using resilience::put_u8;

std::string encode_id_payload(std::uint64_t id) {
    std::string payload;
    put_u64(payload, id);
    return payload;
}

std::string encode_attempt_payload(std::uint64_t id, std::uint32_t attempts) {
    std::string payload;
    put_u64(payload, id);
    put_u32(payload, attempts);
    return payload;
}

std::string encode_finished_payload(const JobRecord& record) {
    std::string payload;
    put_u64(payload, record.id);
    put_u8(payload, static_cast<std::uint8_t>(record.state));
    put_u64(payload, record.result_fingerprint);
    put_u32(payload, record.attempts);
    put_u64(payload, record.progress_units);
    put_str(payload, record.detail);
    return payload;
}

std::string encode_spec_payload(std::uint64_t id, const JobSpec& spec) {
    std::string payload;
    put_u64(payload, id);
    put_u8(payload, static_cast<std::uint8_t>(spec.kind));
    put_u64(payload, spec.seed);
    put_u64(payload, spec.profile_index);
    put_f64(payload, spec.char_step_mv);
    put_u8(payload, spec.sweep_mode);
    put_u64(payload, spec.units);
    put_u64(payload, spec.deadline_units);
    put_u64(payload, spec.campaign_attacks);
    put_u64(payload, spec.campaign_defenses);
    put_u32(payload, spec.inject_fail_attempts);
    return payload;
}

void decode_spec(PayloadReader& r, JobSpec& spec) {
    spec.kind = static_cast<JobKind>(r.u8());
    spec.seed = r.u64();
    spec.profile_index = r.u64();
    spec.char_step_mv = r.f64();
    spec.sweep_mode = r.u8();
    spec.units = r.u64();
    spec.deadline_units = r.u64();
    spec.campaign_attacks = r.u64();
    spec.campaign_defenses = r.u64();
    spec.inject_fail_attempts = r.u32();
}

}  // namespace

JobWal::JobWal(const std::string& path, const std::uint64_t* config_hash)
    : log_(config_hash != nullptr
               ? FrameLog::open(path, *config_hash, {},
                                std::bind_front(&JobWal::replay, this))
               : FrameLog::resume(path, std::bind_front(&JobWal::replay, this))) {
    records_.reserve(replayed_.size());
    for (auto& [id, record] : replayed_) records_.push_back(std::move(record));
    replayed_ = {};
}

JobWal JobWal::open(const std::string& path, std::uint64_t config_hash) {
    return JobWal(path, &config_hash);
}

JobWal JobWal::resume(const std::string& path) { return JobWal(path, nullptr); }

bool JobWal::replay(std::uint8_t kind, PayloadReader& r) {
    if (kind == resilience::kHeaderKind) return r.done();  // no format tail
    const std::uint64_t id = r.u64();  // every record frame leads with the job id
    switch (kind) {
        case kSubmittedKind: {
            JobSpec spec;
            decode_spec(r, spec);
            if (!r.done()) return false;
            JobRecord& record = replayed_[id];
            record.id = id;
            record.spec = spec;
            record.state = JobState::Queued;
            next_id_ = std::max(next_id_, id + 1);
            return true;
        }
        case kRejectedKind:
            if (!r.done()) return false;
            replayed_[id].state = JobState::Rejected;
            return true;
        case kStartedKind:
            // An execution began; without a finished frame the job
            // replays as Queued and is re-run on resume.
            return r.done();
        case kAttemptFailedKind: {
            const std::uint32_t attempts = r.u32();
            if (!r.done()) return false;
            JobRecord& record = replayed_[id];
            record.attempts = std::max(record.attempts, attempts);
            return true;
        }
        case kFinishedKind: {
            JobRecord finished;
            finished.id = id;
            finished.state = static_cast<JobState>(r.u8());
            finished.result_fingerprint = r.u64();
            finished.attempts = r.u32();
            finished.progress_units = r.u64();
            finished.detail = r.str_lp();
            if (!r.done()) return false;
            JobRecord& record = replayed_[id];
            finished.spec = record.spec;
            record = std::move(finished);
            return true;
        }
        default: return false;
    }
}

void JobWal::submitted(std::uint64_t id, const JobSpec& spec) {
    log_.append(kSubmittedKind, encode_spec_payload(id, spec));
    next_id_ = std::max(next_id_, id + 1);
}

void JobWal::rejected(std::uint64_t id) {
    log_.append(kRejectedKind, encode_id_payload(id));
}

void JobWal::started(std::uint64_t id) {
    log_.append(kStartedKind, encode_id_payload(id));
}

void JobWal::attempt_failed(std::uint64_t id, std::uint32_t attempts) {
    log_.append(kAttemptFailedKind, encode_attempt_payload(id, attempts));
}

void JobWal::finished(const JobRecord& record) {
    log_.append(kFinishedKind, encode_finished_payload(record));
}

}  // namespace pv::serve
