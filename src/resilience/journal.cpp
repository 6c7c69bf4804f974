#include "resilience/journal.hpp"

#include <functional>
#include <utility>

#include "trace/trace.hpp"

namespace pv::resilience {
namespace {

constexpr std::uint8_t kRowKind = 2;

std::string encode_header_tail(const JournalHeader& header) {
    std::string tail;
    put_u64(tail, header.seed);
    put_f64(tail, header.sweep_floor_mv);
    put_str(tail, header.system_name);
    return tail;
}

std::string encode_row_payload(const RowRecord& record) {
    std::string payload;
    put_u64(payload, record.row_index);
    put_f64(payload, record.freq_mhz);
    put_f64(payload, record.onset_mv);
    put_f64(payload, record.crash_mv);
    put_u8(payload, record.fault_free ? 1 : 0);
    put_u64(payload, record.cells);
    put_u64(payload, record.crashes);
    return payload;
}

}  // namespace

SweepJournal::SweepJournal(std::string path, JournalHeader header, JournalOptions options)
    : header_(std::move(header)),
      log_(std::move(path), header_.config_hash, encode_header_tail(header_), options) {}

SweepJournal::SweepJournal(const std::string& path, const JournalHeader* header,
                           JournalOptions options)
    : header_(header != nullptr ? *header : JournalHeader{}),
      log_(header != nullptr
               ? FrameLog::open(path, header->config_hash, encode_header_tail(*header),
                                std::bind_front(&SweepJournal::replay, this), options)
               : FrameLog::resume(path, std::bind_front(&SweepJournal::replay, this),
                                  options)) {
    header_.config_hash = log_.config_hash();
}

SweepJournal SweepJournal::resume(const std::string& path, JournalOptions options) {
    return SweepJournal(path, nullptr, options);
}

SweepJournal SweepJournal::open(const std::string& path, JournalHeader header,
                                JournalOptions options) {
    return SweepJournal(path, &header, options);
}

bool SweepJournal::replay(std::uint8_t kind, PayloadReader& r) {
    if (kind == kHeaderKind) {
        JournalHeader header;
        header.seed = r.u64();
        header.sweep_floor_mv = r.f64();
        header.system_name = r.str_lp();
        if (!r.done()) return false;
        header_ = std::move(header);
        return true;
    }
    if (kind != kRowKind) return false;
    RowRecord rec;
    rec.row_index = r.u64();
    rec.freq_mhz = r.f64();
    rec.onset_mv = r.f64();
    rec.crash_mv = r.f64();
    rec.fault_free = r.u8() != 0;
    rec.cells = r.u64();
    rec.crashes = r.u64();
    if (!r.done()) return false;
    rows_.push_back(rec);
    return true;
}

void SweepJournal::commit(const RowRecord& record) {
    log_.append(kRowKind, encode_row_payload(record));
    rows_.push_back(record);
    PV_TRACE_EVENT(trace::EventKind::JournalCommit, "journal-commit", 0,
                   record.row_index, log_.logical_bytes());
}

}  // namespace pv::resilience
