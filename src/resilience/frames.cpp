#include "resilience/frames.hpp"

#include <bit>
#include <fstream>
#include <utility>

#include "resilience/crc32.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"

namespace pv::resilience {
namespace {

constexpr char kMagic0 = 'P';
constexpr char kMagic1 = 'V';
/// The header-prefix version every log format writes and resume accepts.
constexpr std::uint32_t kLogVersion = 1;

}  // namespace

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u32(std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_f64(std::string& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

void put_str(std::string& out, std::string_view s) {
    put_u32(out, static_cast<std::uint32_t>(s.size()));
    out += s;
}

double PayloadReader::f64() { return std::bit_cast<double>(take(8)); }

std::string PayloadReader::str(std::size_t n) {
    if (pos_ + n > bytes_.size()) {
        ok_ = false;
        return {};
    }
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
}

std::uint64_t PayloadReader::take(std::size_t n) {
    if (pos_ + n > bytes_.size()) {
        ok_ = false;
        return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i]))
             << (8 * i);
    pos_ += n;
    return v;
}

std::string encode_frame(std::uint8_t kind, const std::string& payload) {
    std::string out;
    out.reserve(kFrameOverhead + payload.size());
    out.push_back(kMagic0);
    out.push_back(kMagic1);
    put_u8(out, kind);
    put_u32(out, static_cast<std::uint32_t>(payload.size()));
    put_u32(out, crc32(payload));
    out += payload;
    return out;
}

ScannedFrame scan_frame(std::string_view bytes) {
    ScannedFrame f;
    if (bytes.size() < kFrameOverhead) return f;
    if (bytes[0] != kMagic0 || bytes[1] != kMagic1) return f;
    const auto kind = static_cast<std::uint8_t>(bytes[2]);
    std::uint32_t len = 0;
    for (std::size_t i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[3 + i]))
               << (8 * i);
    std::uint32_t crc = 0;
    for (std::size_t i = 0; i < 4; ++i)
        crc |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[7 + i]))
               << (8 * i);
    if (len > kMaxFramePayload || kFrameOverhead + len > bytes.size()) return f;
    const std::string_view payload = bytes.substr(kFrameOverhead, len);
    if (crc32(payload) != crc) return f;
    f.valid = true;
    f.kind = kind;
    f.payload = payload;
    f.size = kFrameOverhead + len;
    return f;
}

FrameLog::FrameLog(std::string path, JournalOptions options)
    : path_(std::move(path)), options_(options) {
    options_.io_retry.validate();
}

FrameLog::FrameLog(std::string path, std::uint64_t config_hash,
                   std::string_view header_tail, JournalOptions options)
    : FrameLog(std::move(path), options) {
    config_hash_ = config_hash;
    std::string header;
    put_u32(header, kLogVersion);
    put_u64(header, config_hash);
    header += header_tail;
    // Creating the log is the caller's decision to start a run, not a
    // mid-run commit: written unconditionally and atomically.
    const std::string image = encode_frame(kHeaderKind, header);
    atomic_write_file(path_, image);
    bytes_written_ = logical_bytes_ = image.size();
}

FrameLog FrameLog::resume(std::string path, const Fold& fold, JournalOptions options) {
    FrameLog log(std::move(path), options);
    const std::string bytes = read_file(log.path_);
    const ScannedFrame head = scan_frame(bytes);
    if (!head.valid || head.kind != kHeaderKind)
        throw JournalError("no valid header frame in " + log.path_);
    PayloadReader header(head.payload);
    const std::uint32_t version = header.u32();
    log.config_hash_ = header.u64();
    if (header.ok() && version != kLogVersion)
        throw JournalError("unsupported version " + std::to_string(version) + " in " +
                           log.path_);
    if (!header.ok() || !fold(kHeaderKind, header))
        throw JournalError("malformed header frame in " + log.path_);
    std::size_t pos = head.size;
    while (pos < bytes.size()) {
        const ScannedFrame f = scan_frame(std::string_view(bytes).substr(pos));
        if (!f.valid || f.kind == kHeaderKind) break;  // torn tail from here on
        PayloadReader payload(f.payload);
        if (!fold(f.kind, payload)) break;  // unknown kind, or CRC collided with garbage
        pos += f.size;
    }
    log.tail_dropped_ = pos < bytes.size();
    log.logical_bytes_ = pos;
    if (log.tail_dropped_) {
        // Scrub the torn bytes so commits land after the last intact
        // frame, not after garbage the decoder would stop at.
        atomic_write_file(log.path_, std::string_view(bytes).substr(0, pos));
        log.bytes_written_ += pos;
    }
    return log;
}

FrameLog FrameLog::open(std::string path, std::uint64_t config_hash,
                        std::string_view header_tail, const Fold& fold,
                        JournalOptions options) {
    if (!file_exists(path))
        return FrameLog(std::move(path), config_hash, header_tail, options);
    FrameLog log = resume(std::move(path), fold, options);
    if (log.config_hash_ != config_hash)
        throw ConfigError(log.path_ + " belongs to a different configuration");
    return log;
}

void FrameLog::append(std::uint8_t kind, const std::string& payload) {
    const std::string frame = encode_frame(kind, payload);
    // The log never waits between attempts, so the backoff seed is moot.
    RetrySchedule sched(options_.io_retry, 0);
    while (sched.next_attempt()) {
        if (sched.attempts() > 1) ++io_retries_;
        if (options_.file_faults != nullptr &&
            options_.file_faults->should_inject(FaultKind::FileWriteError)) {
            PV_TRACE_EVENT(trace::EventKind::EnvFaultInjected, "journal-write-fault", 0,
                           static_cast<std::uint64_t>(FaultKind::FileWriteError),
                           commits_);
            continue;
        }
        std::ofstream out(path_, std::ios::binary | std::ios::app);
        out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
        out.flush();
        if (!out) throw JournalError("append failed on " + path_);
        bytes_written_ += frame.size();
        logical_bytes_ += frame.size();
        ++commits_;
        return;
    }
    throw JournalError("commit to " + path_ + " failed after " +
                       std::to_string(options_.io_retry.max_attempts) + " attempts");
}

}  // namespace pv::resilience
