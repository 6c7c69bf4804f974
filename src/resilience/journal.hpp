// PlugVolt — write-ahead sweep journal.
//
// A real Algorithm 2 characterization is a sequence of crash-reboot
// cycles (deep offsets kill the machine — that is the *point* of the
// sweep), so losing all progress on a crash is not an edge case, it is
// the common case.  The journal makes every completed frequency row
// durable before the sweep moves on; after a crash, the resumed sweep
// adopts journaled rows verbatim and recomputes only the rest, and the
// per-cell seeding scheme guarantees the final map is bit-identical to
// an uninterrupted run's.
//
// On-disk format, a FrameLog (frames.hpp: CRC frames, shared header
// prefix, torn tails dropped and scrubbed on resume):
//
//   file   := header-frame row-frame*
//   header := version:u32  config_hash:u64  seed:u64  sweep_floor:f64(bits)
//             name_len:u32  name bytes                       (kind = 1)
//   row    := row_index:u64  freq_mhz:f64  onset_mv:f64  crash_mv:f64
//             fault_free:u8  cells:u64  crashes:u64           (kind = 2)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "resilience/frames.hpp"

namespace pv::resilience {

/// Identity of the sweep a journal belongs to.  `config_hash` is the
/// producer's configuration fingerprint; resume refuses a journal whose
/// hash does not match (adopting rows probed under a different protocol
/// would silently corrupt the map).
struct JournalHeader {
    std::uint64_t config_hash = 0;
    std::uint64_t seed = 0;
    double sweep_floor_mv = 0.0;
    std::string system_name;

    friend bool operator==(const JournalHeader&, const JournalHeader&) = default;
};

/// One journaled frequency row: the characterization result plus the
/// probe-cost counters (so resumed sweeps report honest statistics).
struct RowRecord {
    std::uint64_t row_index = 0;
    double freq_mhz = 0.0;
    double onset_mv = 0.0;
    double crash_mv = 0.0;
    bool fault_free = false;
    std::uint64_t cells = 0;
    std::uint64_t crashes = 0;

    friend bool operator==(const RowRecord&, const RowRecord&) = default;
};

/// The write-ahead journal.  One instance owns one file.
class SweepJournal {
public:
    /// Start a fresh journal at `path` (truncating any previous file).
    SweepJournal(std::string path, JournalHeader header, JournalOptions options = {});

    /// Reopen an existing journal: replay its rows, scrub any torn tail
    /// from the file, and position for further commits.  Throws
    /// JournalError when the file has no valid header.
    [[nodiscard]] static SweepJournal resume(const std::string& path,
                                             JournalOptions options = {});

    /// resume() when `path` exists (ConfigError when it was written
    /// under another config_hash), otherwise a fresh journal.
    [[nodiscard]] static SweepJournal open(const std::string& path, JournalHeader header,
                                           JournalOptions options = {});

    /// Make one completed row durable (write-ahead: callers commit
    /// BEFORE acting on the row).  Retries injected file faults up to
    /// the io_retry budget, then throws JournalError.
    void commit(const RowRecord& record);

    [[nodiscard]] const JournalHeader& header() const { return header_; }
    /// Rows durable in this journal (replayed + committed), in commit order.
    [[nodiscard]] const std::vector<RowRecord>& rows() const { return rows_; }
    /// True when resume() dropped a torn tail.
    [[nodiscard]] bool tail_dropped() const { return log_.tail_dropped(); }

    /// I/O accounting: valid journal size, bytes actually written,
    /// commits and fault retries.
    [[nodiscard]] std::uint64_t commits() const { return log_.commits(); }
    [[nodiscard]] std::uint64_t bytes_written() const { return log_.bytes_written(); }
    [[nodiscard]] std::uint64_t logical_bytes() const { return log_.logical_bytes(); }
    [[nodiscard]] std::uint64_t io_retries() const { return log_.io_retries(); }

private:
    /// Replay body of resume() (no `header`) and open().
    SweepJournal(const std::string& path, const JournalHeader* header,
                 JournalOptions options);
    bool replay(std::uint8_t kind, PayloadReader& payload);

    JournalHeader header_;
    std::vector<RowRecord> rows_;
    FrameLog log_;  // last: its replay fills the members above
};

}  // namespace pv::resilience
