// PlugVolt — cell-granular campaign write-ahead journal.
//
// The sweep journal (resilience/journal.hpp) made characterization rows
// durable; a campaign cube is the same crash-surface one level up — a
// full quick cube is hundreds of cells, each a multi-attempt attack
// run, and the daemon re-runs cubes continuously.  This journal extends
// the WAL to CELL granularity on the shared record log (FrameLog):
//
//   file    := header-frame (cell-frame | attempt-frame)*
//   header  := version:u32  config_hash:u64  seed:u64  cells:u64  (kind 1)
//   cell    := the full CampaignCellResult, bit-exact (doubles as bit
//              patterns, metrics snapshot included)              (kind 2)
//   attempt := cell_index:u64  attempts_failed:u32               (kind 3)
//
// A cell frame is committed when the cell completes (write-ahead:
// BEFORE the engine reports it); a resumed run adopts journaled cells
// verbatim and re-runs only the rest — bit-identical, because every
// cell is a pure function of (config, cell index).
//
// Attempt frames close the retry-stream resume gap: when a cell's
// machine dies mid-attempt the engine journals how many attempts have
// failed so far, so a resumed run fast-forwards the RetrySchedule past
// the journaled dead attempts instead of replaying them.  The final
// result is bit-identical either way (attempt outcomes are pure in
// (config, cell, attempt)); the frame makes the resumed run *do* the
// same remaining work and keeps `machine_rebuilds`/backoff accounting
// exact under FaultPlan-driven env-fault exhaustion.
//
// Attempt frames may be committed from worker threads (a sharded run
// retries inside the pool); all journal access is mutex-guarded.  The
// frame ORDER across threads is scheduling-dependent, but replay keys
// every frame by cell index, so the reconstructed state — and every
// fingerprint derived from it — is not.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "resilience/frames.hpp"
#include "util/flat_map.hpp"
#include "util/mutex.hpp"

namespace pv::campaign {

/// Identity of the campaign a journal belongs to.  `config_hash` is
/// CampaignEngine::config_hash(); resume refuses a journal whose hash
/// does not match (adopting cells run under a different cube, tuning or
/// fault plan would silently corrupt the report).
struct CampaignJournalHeader {
    std::uint64_t config_hash = 0;
    std::uint64_t seed = 0;
    std::uint64_t cells = 0;  ///< cube size, |attacks|·|defenses|·|profiles|

    friend bool operator==(const CampaignJournalHeader&,
                           const CampaignJournalHeader&) = default;
};

/// The campaign WAL.  One instance owns one file.  commit_cell and
/// commit_attempt are thread-safe (sharded runs commit attempt frames
/// from pool workers); the read accessors snapshot under the same lock.
class CampaignJournal {
public:
    /// Open the journal at `path`.  An existing file is resumed: its
    /// cells and attempt counts are replayed and any torn tail is
    /// scrubbed.  Throws JournalError when it has no valid header and
    /// ConfigError when it was written under another config_hash.  A
    /// missing file starts a fresh journal with `header`.
    CampaignJournal(const std::string& path, const CampaignJournalHeader& header);

    /// Make one completed cell durable (write-ahead: the engine commits
    /// BEFORE reporting the cell).  The cell payload carries every field
    /// campaign::fingerprint() mixes, doubles as bit patterns, so a
    /// replayed cell has the committed cell's fingerprint.
    void commit_cell(const CampaignCellResult& cell);

    /// Record that `attempts_failed` attempts of cell `cell_index` have
    /// ended with a dead machine (monotonic per cell; the largest
    /// journaled value wins on replay).
    void commit_attempt(std::uint64_t cell_index, std::uint32_t attempts_failed);

    [[nodiscard]] const CampaignJournalHeader& header() const { return header_; }

    /// Completed cells durable in this journal, in commit order.
    [[nodiscard]] std::vector<CampaignCellResult> cells() const;
    /// Journaled dead-attempt count for one cell (0 when none recorded).
    [[nodiscard]] std::uint32_t attempts_failed(std::uint64_t cell_index) const;

    /// True when opening dropped a torn tail.
    [[nodiscard]] bool tail_dropped() const;

private:
    bool replay(std::uint8_t kind, resilience::PayloadReader& payload);

    mutable Mutex mutex_;
    CampaignJournalHeader header_;  // immutable after construction
    std::vector<CampaignCellResult> cells_ PV_GUARDED_BY(mutex_);
    FlatMap<std::uint64_t, std::uint32_t> attempts_ PV_GUARDED_BY(mutex_);
    resilience::FrameLog log_ PV_GUARDED_BY(mutex_);  // last: its replay fills the above
};

}  // namespace pv::campaign
