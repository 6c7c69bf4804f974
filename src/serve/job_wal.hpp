// PlugVolt — the daemon's job-queue write-ahead log.
//
// The shared record log (resilience/frames.hpp FrameLog): a header
// frame pins the daemon's config hash, then one frame per queue
// transition, appended BEFORE the in-memory state changes.  kill -9 at
// any byte boundary leaves at worst a torn tail, which replay drops
// and scrubs; everything before it replays into the exact queue the
// killed daemon had made durable.
//
// Frame kinds:
//   1 header         version, daemon config hash (no format tail)
//   2 submitted      id + the full JobSpec
//   3 started        id              (an execution began)
//   4 attempt_failed id, attempts    (cumulative failed executions)
//   5 finished       id, terminal state, fingerprint, attempts, units, detail
//   6 rejected       id              (admission control said no)
//
// Replay semantics: a `started` frame without a matching `finished`
// means the daemon died mid-execution — the job replays as Queued and is
// re-run on resume, where its own engine journal (cell/row granularity)
// fast-forwards the work already made durable.  `attempt_failed` frames
// replay max-wins, so a resumed job re-enters its retry loop at the same
// execution index an uninterrupted run would be at.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "resilience/frames.hpp"
#include "serve/job.hpp"
#include "util/flat_map.hpp"

namespace pv::serve {

/// The queue WAL.  NOT thread-safe: the daemon serializes every append
/// under its own mutex.  Throws JournalError / IoError like the other
/// journals (see resilience/frames.hpp).
class JobWal {
public:
    /// Open the WAL at `path`: resume it when it exists (ConfigError
    /// when it belongs to another `config_hash`), else start a fresh one.
    [[nodiscard]] static JobWal open(const std::string& path, std::uint64_t config_hash);

    /// Recover a WAL off disk: CRC-validate every frame, drop and scrub
    /// a torn tail, replay the queue.
    [[nodiscard]] static JobWal resume(const std::string& path);

    void submitted(std::uint64_t id, const JobSpec& spec);
    void rejected(std::uint64_t id);
    void started(std::uint64_t id);
    void attempt_failed(std::uint64_t id, std::uint32_t attempts);
    void finished(const JobRecord& record);

    [[nodiscard]] std::uint64_t config_hash() const { return log_.config_hash(); }

    /// The replayed queue, in job-id order, as of opening the WAL;
    /// terminal jobs carry their journaled fingerprint, unfinished ones
    /// replay as Queued.
    [[nodiscard]] const std::vector<JobRecord>& records() const { return records_; }

    /// One past the highest journaled job id (1 on an empty WAL).
    [[nodiscard]] std::uint64_t next_id() const { return next_id_; }

    [[nodiscard]] bool tail_dropped() const { return log_.tail_dropped(); }

private:
    JobWal(const std::string& path, const std::uint64_t* config_hash);
    bool replay(std::uint8_t kind, resilience::PayloadReader& payload);

    /// Replay keyed by id (emptied into records_ once open): the sorted
    /// FlatMap yields id-ordered records.
    FlatMap<std::uint64_t, JobRecord> replayed_;
    std::vector<JobRecord> records_;
    std::uint64_t next_id_ = 1;
    resilience::FrameLog log_;  // last: its replay fills the members above
};

}  // namespace pv::serve
