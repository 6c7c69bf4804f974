// PlugVolt — the CRC-framed record log every journal is built on.
//
// The sweep journal (journal.hpp), the campaign cell journal and the
// daemon's job-queue WAL share one on-disk shape:
//
//   frame  := magic:u16 ('P','V')  kind:u8  payload_len:u32  crc:u32  payload
//   file   := header-frame record-frame*
//   header := version:u32  config_hash:u64  tail                  (kind 1)
//
// `FrameLog` owns that shape: the header prefix, the version check, the
// config-hash guard, torn-tail recovery and fault-injected commit retry.
// A format contributes only its header tail, its record kinds and a
// replay fold that decodes each frame once.  Replay stops at the first
// frame that is torn (bad magic/length/CRC) or that the fold rejects
// (unknown kind, failed decode) — everything after is a crash artifact
// and is scrubbed from the file so later appends cannot land after
// garbage.
//
// Each commit appends and flushes one frame.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "resilience/fault_injection.hpp"
#include "resilience/retry.hpp"

namespace pv::resilience {

constexpr std::size_t kFrameOverhead = 2 + 1 + 4 + 4;  // magic + kind + len + crc
/// Frames larger than this are rejected as corrupt rather than parsed
/// (a flipped length byte must not make the decoder swallow the file).
constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/// Little-endian payload writers.  Doubles travel as bit patterns so
/// replayed records are bit-exact — the state_hash contract.
void put_u8(std::string& out, std::uint8_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_f64(std::string& out, double v);
/// Length-prefixed string: u32 byte count + raw bytes.
void put_str(std::string& out, std::string_view s);

/// Bounds-checked little-endian reader over one payload.  A read past
/// the end clears ok() and returns zero; decoders check done() once at
/// the end instead of guarding every field.
class PayloadReader {
public:
    explicit PayloadReader(std::string_view bytes) : bytes_(bytes) {}

    [[nodiscard]] bool ok() const { return ok_; }
    /// Every read succeeded and consumed the payload exactly.
    [[nodiscard]] bool done() const { return ok_ && pos_ == bytes_.size(); }

    std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(take(4)); }
    std::uint64_t u64() { return take(8); }
    double f64();

    std::string str(std::size_t n);
    /// Length-prefixed counterpart of put_str.
    std::string str_lp() { return str(u32()); }

private:
    std::uint64_t take(std::size_t n);

    std::string_view bytes_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/// Wrap a payload in one CRC frame.
[[nodiscard]] std::string encode_frame(std::uint8_t kind, const std::string& payload);

/// One frame scanned off the head of `bytes`; valid == false means the
/// bytes at this position are not an intact frame (torn tail).
struct ScannedFrame {
    bool valid = false;
    std::uint8_t kind = 0;
    std::string_view payload;
    std::size_t size = 0;
};

[[nodiscard]] ScannedFrame scan_frame(std::string_view bytes);

/// Kind of the header frame in every log format.
constexpr std::uint8_t kHeaderKind = 1;

struct JournalOptions {
    /// Optional injected-fault source for commits (FileWriteError
    /// opportunities); not owned, may be nullptr.
    FaultInjector* file_faults = nullptr;
    /// Commit retry budget against injected file faults.
    RetryPolicy io_retry{};
};

/// The CRC-framed append-only write-ahead log.  One instance owns one
/// file.  Record semantics (what the payload bytes mean) belong to the
/// caller's fold; this class owns the header prefix, durability,
/// torn-tail recovery, and fault-injected commit retry.
class FrameLog {
public:
    /// Replay fold: decode one frame and apply it to the caller's state.
    /// Called first with kHeaderKind and the reader positioned at the
    /// header tail, then once per record frame in file order.  Return
    /// false, without applying anything, for an unknown kind or a
    /// payload that does not decode exactly (PayloadReader::done()): a
    /// record frame then starts the torn tail, a header is malformed.
    using Fold = std::function<bool(std::uint8_t kind, PayloadReader& payload)>;

    /// Start a fresh log at `path` (truncating any previous file).  The
    /// header frame is written atomically, so a half-written header can
    /// never exist.
    FrameLog(std::string path, std::uint64_t config_hash, std::string_view header_tail,
             JournalOptions options = {});

    /// Reopen an existing log: replay its frames through `fold`, scrub
    /// any torn tail from the file, and position for further appends.
    /// Throws JournalError when the file has no valid header frame or an
    /// unsupported version.
    [[nodiscard]] static FrameLog resume(std::string path, const Fold& fold,
                                         JournalOptions options = {});

    /// resume() when `path` exists, refusing (ConfigError) a log written
    /// under another config_hash; otherwise start a fresh log.
    [[nodiscard]] static FrameLog open(std::string path, std::uint64_t config_hash,
                                       std::string_view header_tail, const Fold& fold,
                                       JournalOptions options = {});

    /// Make one record durable (write-ahead: callers append BEFORE
    /// acting on the record).  Retries injected file faults up to the
    /// io_retry budget, then throws JournalError.
    void append(std::uint8_t kind, const std::string& payload);

    [[nodiscard]] std::uint64_t config_hash() const { return config_hash_; }
    /// True when resume() dropped a torn tail.
    [[nodiscard]] bool tail_dropped() const { return tail_dropped_; }

    /// I/O accounting: size of the valid log, bytes actually written,
    /// commits and fault retries.
    [[nodiscard]] std::uint64_t commits() const { return commits_; }
    [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
    [[nodiscard]] std::uint64_t logical_bytes() const { return logical_bytes_; }
    [[nodiscard]] std::uint64_t io_retries() const { return io_retries_; }

private:
    FrameLog(std::string path, JournalOptions options);

    std::string path_;
    JournalOptions options_;
    std::uint64_t config_hash_ = 0;
    bool tail_dropped_ = false;
    std::uint64_t commits_ = 0;
    std::uint64_t bytes_written_ = 0;
    std::uint64_t logical_bytes_ = 0;
    std::uint64_t io_retries_ = 0;
};

}  // namespace pv::resilience
