// Crash-resilience layer: CRC framing, the shared record log and its
// three formats (sweep journal, campaign cell journal, daemon job WAL),
// deterministic environment fault injection, bounded retry, and the
// fail-safe degradation paths they feed (characterizer mailbox retry,
// journaled resume, polling fail-closed clamp).
#include "resilience/crc32.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/frames.hpp"
#include "resilience/journal.hpp"
#include "resilience/retry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "os/msr_driver.hpp"
#include "plugvolt/parallel_characterizer.hpp"
#include "plugvolt/polling_module.hpp"
#include "prop/prop.hpp"
#include "serve/job_wal.hpp"
#include "sim/ocm.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"

namespace pv::resilience {
namespace {

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "pv_" + name + ".pvj";
}

// ---------------------------------------------------------------- crc32

TEST(Crc32, KnownAnswerAndIncrementalComposition) {
    // The standard CRC-32 check value.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0u);
    // Feeding the stream in two chunks must equal the one-shot digest.
    const std::string text = "plug your volt";
    EXPECT_EQ(crc32(std::string_view(text).substr(5),
                    crc32(std::string_view(text).substr(0, 5))),
              crc32(text));
}

// ---------------------------------------------------------------- retry

TEST(RetryPolicy, RejectsBrokenParameters) {
    RetryPolicy p;
    p.max_attempts = 0;
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.jitter = 1.0;  // jitter must stay below 1
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.multiplier = 1.1;
    p.jitter = 0.25;  // violates multiplier >= 1 + jitter
    EXPECT_THROW(p.validate(), ConfigError);
    p = {};
    p.max_delay = Picoseconds{0};  // below base_delay
    EXPECT_THROW(p.validate(), ConfigError);
}

TEST(RetryPolicy, BackoffIsMonotoneAndBounded) {
    // The contract the characterizer/polling/journal retries lean on:
    // for ANY seed the delay sequence never shrinks and never exceeds
    // max_delay.  Checked over seeded random (seed, policy) samples.
    PROP_CHECK(0xB0FF, 300,
               [](std::int64_t seed, std::int64_t base_us, std::int64_t jitter_pct) {
                   RetryPolicy p;
                   p.max_attempts = 8;
                   p.base_delay = microseconds(static_cast<double>(base_us));
                   p.jitter = static_cast<double>(jitter_pct) / 100.0;
                   p.multiplier = 1.0 + p.jitter + 0.5;
                   p.max_delay = milliseconds(1.0);
                   p.validate();
                   Picoseconds prev{-1};
                   for (unsigned k = 0; k < 8; ++k) {
                       const Picoseconds d =
                           p.backoff(k, static_cast<std::uint64_t>(seed));
                       if (d < prev || d > p.max_delay || d < Picoseconds{0})
                           return false;
                       prev = d;
                   }
                   return true;
               },
               prop::IntDomain{0, 1 << 20}, prop::IntDomain{1, 50},
               prop::IntDomain{0, 90});
}

TEST(RetrySchedule, GrantsExactBudgetWithZeroFirstBackoff) {
    RetryPolicy p;
    p.max_attempts = 4;
    RetrySchedule sched(p, /*seed=*/7);
    unsigned grants = 0;
    Picoseconds first{-1};
    while (sched.next_attempt()) {
        if (grants == 0) first = sched.backoff();
        ++grants;
    }
    EXPECT_EQ(grants, 4u);
    EXPECT_EQ(first, Picoseconds{0});
    // Budget stays spent.
    EXPECT_FALSE(sched.next_attempt());
}

TEST(RetrySchedule, BackoffsReplayBitExactlyFromSeed) {
    RetryPolicy p;
    p.max_attempts = 6;
    std::vector<std::int64_t> a, b;
    for (int run = 0; run < 2; ++run) {
        RetrySchedule sched(p, /*seed=*/0xFEED);
        auto& out = run == 0 ? a : b;
        while (sched.next_attempt()) out.push_back(sched.backoff().value());
    }
    EXPECT_EQ(a, b);
}

// ------------------------------------------------------- fault injector

TEST(FaultInjector, PlanValidationAndEmptiness) {
    FaultPlan plan;
    EXPECT_TRUE(plan.empty());
    plan.set_rate(FaultKind::RdmsrError, 1.5);
    EXPECT_THROW(plan.validate(), ConfigError);
    plan.set_rate(FaultKind::RdmsrError, 0.5);
    EXPECT_FALSE(plan.empty());
    plan.validate();
}

TEST(FaultInjector, DecisionsReplayBitExactlyAfterReseed) {
    FaultPlan plan;
    plan.set_rate(FaultKind::RdmsrError, 0.3);
    plan.set_rate(FaultKind::StaleRead, 0.7);
    FaultInjector injector(plan);
    injector.reseed(0xCE11);
    std::vector<bool> first;
    for (int i = 0; i < 64; ++i) {
        first.push_back(injector.should_inject(FaultKind::RdmsrError));
        first.push_back(injector.should_inject(FaultKind::StaleRead));
    }
    injector.reseed(0xCE11);
    for (std::size_t i = 0; i < first.size(); i += 2) {
        EXPECT_EQ(injector.should_inject(FaultKind::RdmsrError), first[i]);
        EXPECT_EQ(injector.should_inject(FaultKind::StaleRead), first[i + 1]);
    }
}

TEST(FaultInjector, KindStreamsAreIndependent) {
    // Interleaving draws of another kind must not perturb a kind's own
    // decision sequence (each kind indexes its own splitmix64 stream).
    FaultPlan plan;
    plan.set_rate(FaultKind::WrmsrError, 0.4);
    plan.set_rate(FaultKind::MailboxBusy, 0.4);
    FaultInjector pure(plan);
    pure.reseed(42);
    std::vector<bool> expected;
    for (int i = 0; i < 32; ++i)
        expected.push_back(pure.should_inject(FaultKind::WrmsrError));

    FaultInjector mixed(plan);
    mixed.reseed(42);
    for (int i = 0; i < 32; ++i) {
        (void)mixed.should_inject(FaultKind::MailboxBusy);
        EXPECT_EQ(mixed.should_inject(FaultKind::WrmsrError), expected[static_cast<std::size_t>(i)]);
        (void)mixed.should_inject(FaultKind::MailboxBusy);
    }
}

TEST(FaultInjector, RateEndpointsAndCounters) {
    FaultPlan plan;
    plan.set_rate(FaultKind::RdmsrTimeout, 1.0);
    FaultInjector injector(plan);
    for (int i = 0; i < 16; ++i) {
        EXPECT_TRUE(injector.should_inject(FaultKind::RdmsrTimeout));
        EXPECT_FALSE(injector.should_inject(FaultKind::WrmsrError));  // rate 0
    }
    EXPECT_EQ(injector.injected(FaultKind::RdmsrTimeout), 16u);
    EXPECT_EQ(injector.opportunities(FaultKind::RdmsrTimeout), 16u);
    EXPECT_EQ(injector.injected(FaultKind::WrmsrError), 0u);
    EXPECT_EQ(injector.opportunities(FaultKind::WrmsrError), 16u);
    EXPECT_EQ(injector.injected_total(), 16u);
}

// ----------------------------------------------------------- record logs
//
// SweepJournal, CampaignJournal and JobWal are each one FrameLog.  The
// byte-image tests write an image to disk and reopen it through the
// format's own resume path, so they run the replay production runs.

RowRecord sample_row(std::uint64_t i) {
    return RowRecord{
        .row_index = i,
        .freq_mhz = 400.0 + 100.0 * static_cast<double>(i),
        .onset_mv = -140.0 - static_cast<double>(i),
        .crash_mv = -190.0 - static_cast<double>(i),
        .fault_free = (i % 3) == 0,
        .cells = 10 + i,
        .crashes = i % 2,
    };
}

JournalHeader sample_header(const std::string& name) {
    JournalHeader header;
    header.config_hash = 0xDEADBEEFCAFE;
    header.seed = 0x5EED;
    header.sweep_floor_mv = -300.0;
    header.system_name = name;
    return header;
}

/// A cell with every optional part present: polling counters and a
/// metrics snapshot holding a counter, a gauge and a histogram.
campaign::CampaignCellResult sample_cell(std::uint64_t i) {
    campaign::CampaignCellResult cell;
    cell.spec.index = i;
    cell.spec.attack = campaign::AttackKind::VoltJockey;
    cell.spec.defense = campaign::DefenseKind::PollingMaximalSafe;
    cell.spec.profile_index = 2;
    cell.spec.seed = 0xFACE'0000 + i;
    cell.profile_name = "Comet Lake";
    cell.attack_result.attack_name = "voltjockey";
    cell.attack_result.faults_observed = 3;
    cell.attack_result.weaponized = true;
    cell.attack_result.weaponization = "key";
    cell.attack_result.crashes = 2;
    cell.attack_result.writes_attempted = 40;
    cell.attack_result.writes_effective = 9;
    cell.attack_result.started = Picoseconds{1'000};
    cell.attack_result.finished = Picoseconds{9'000'000};
    cell.attack_result.notes = "n";
    plugvolt::PollingMetrics p;
    p.polls = 100;
    p.detections = 4;
    p.restore_writes = 4;
    p.freq_drops = 1;
    p.rail_watch_detections = 2;
    p.read_retries = 3;
    p.write_retries = 5;
    p.stale_reads = 6;
    p.missed_polls = 7;
    p.fail_closed_clamps = 8;
    p.last_detection = Picoseconds{77'000};
    cell.polling = p;
    cell.audit_violations = 1;
    cell.audited_accesses = 50;
    cell.machine_state_hash = 0x0123'4567'89AB'CDEF;
    cell.attempts = 3;
    cell.machine_rebuilds = 2;
    cell.verdict = "faults leaked (3)";
    cell.metrics.set_counter("cell.attempts", 3);
    cell.metrics.set_gauge("cell.duration_us", 9.5);
    trace::MetricValue h;
    h.kind = trace::MetricValue::Kind::Histogram;
    h.count = 4;
    h.value = 12.25;
    h.bounds = {1.0, 10.0};
    h.buckets = {1, 2, 1};
    cell.metrics.set("polling.latency_us", h);
    return cell;
}

constexpr campaign::CampaignJournalHeader kCampaignHeader{0xCAFE'F00D'0000'0001, 0x5EED,
                                                          216};

serve::JobSpec sample_spec() {
    serve::JobSpec spec;
    spec.kind = serve::JobKind::Fleet;
    spec.seed = 0x5EED;
    spec.profile_index = 1;
    spec.char_step_mv = 5.0;
    spec.sweep_mode = 2;
    spec.units = 4;
    spec.deadline_units = 90;
    spec.campaign_attacks = 2;
    spec.campaign_defenses = 3;
    spec.inject_fail_attempts = 1;
    return spec;
}

serve::JobRecord sample_finished() {
    serve::JobRecord record;
    record.id = 1;
    record.spec = sample_spec();
    record.state = serve::JobState::Completed;
    record.result_fingerprint = 0xFEED'BEEF;
    record.attempts = 2;
    record.progress_units = 4;
    record.detail = "4 units";
    return record;
}

constexpr std::uint64_t kWalConfigHash = 0xDAE'0000'0000'0042;

/// Commit record `i` of a fixed WAL history that uses every frame kind.
void commit_wal_record(serve::JobWal& wal, std::size_t i) {
    switch (i) {
        case 0: wal.submitted(1, sample_spec()); break;
        case 1: wal.started(1); break;
        case 2: wal.attempt_failed(1, 1); break;
        case 3: wal.finished(sample_finished()); break;
        case 4: wal.submitted(2, serve::JobSpec{}); break;
        case 5: wal.rejected(2); break;
        case 6: wal.submitted(3, serve::JobSpec{}); break;
        default: wal.started(3); break;
    }
}

/// What reopening a log replayed: a canonical description of the
/// format's state, and whether a torn tail was dropped.
struct Replayed {
    std::string state;
    bool tail_dropped = false;
};

/// One record-log format under test.  `write` starts a fresh log at
/// `path` holding the header and the first `n` records of the format's
/// fixed history; `reopen` replays `path`.
struct LogFormat {
    std::string name;
    std::size_t records = 0;
    std::function<void(const std::string& path, std::size_t n)> write;
    std::function<Replayed(const std::string& path)> reopen;
};

std::vector<LogFormat> log_formats() {
    LogFormat sweep{"sweep", 6, {}, {}};
    sweep.write = [](const std::string& path, std::size_t n) {
        SweepJournal journal(path, sample_header("format"));
        for (std::size_t i = 0; i < n; ++i) journal.commit(sample_row(i));
    };
    sweep.reopen = [](const std::string& path) {
        const SweepJournal journal = SweepJournal::resume(path);
        std::ostringstream os;
        EXPECT_EQ(journal.header(), sample_header("format"));
        for (const RowRecord& row : journal.rows())
            os << row.row_index << ' ' << row.freq_mhz << ' ' << row.onset_mv << ' '
               << row.crash_mv << ' ' << row.fault_free << ' ' << row.cells << ' '
               << row.crashes << ';';
        return Replayed{os.str(), journal.tail_dropped()};
    };

    // Cells and attempt frames alternate; attempt frame i is for cell i.
    LogFormat cube{"campaign", 6, {}, {}};
    cube.write = [](const std::string& path, std::size_t n) {
        std::remove(path.c_str());
        campaign::CampaignJournal journal(path, kCampaignHeader);
        for (std::size_t i = 0; i < n; ++i) {
            if (i % 2 == 0)
                journal.commit_cell(sample_cell(i));
            else
                journal.commit_attempt(i, static_cast<std::uint32_t>(i));
        }
    };
    cube.reopen = [](const std::string& path) {
        const campaign::CampaignJournal journal(path, kCampaignHeader);
        EXPECT_EQ(journal.header(), kCampaignHeader);
        std::ostringstream os;
        for (const campaign::CampaignCellResult& cell : journal.cells())
            os << "cell " << campaign::fingerprint(cell) << ';';
        for (std::uint64_t i = 0; i < 8; ++i) os << journal.attempts_failed(i) << ';';
        return Replayed{os.str(), journal.tail_dropped()};
    };

    LogFormat wal{"wal", 8, {}, {}};
    wal.write = [](const std::string& path, std::size_t n) {
        std::remove(path.c_str());
        serve::JobWal log = serve::JobWal::open(path, kWalConfigHash);
        for (std::size_t i = 0; i < n; ++i) commit_wal_record(log, i);
    };
    wal.reopen = [](const std::string& path) {
        const serve::JobWal log = serve::JobWal::resume(path);
        EXPECT_EQ(log.config_hash(), kWalConfigHash);
        std::ostringstream os;
        os << "next " << log.next_id() << ';';
        for (const serve::JobRecord& r : log.records())
            os << r.id << ' ' << serve::to_string(r.state) << ' ' << r.attempts << ' '
               << r.result_fingerprint << ' ' << r.progress_units << ' ' << r.detail << ' '
               << (r.spec == sample_spec()) << ';';
        return Replayed{os.str(), log.tail_dropped()};
    };
    return {sweep, cube, wal};
}

/// Replayed state and end offset of every record prefix of `format`'s
/// history; leaves the whole history on disk at `path`.
struct Prefixes {
    std::vector<std::string> state;
    std::vector<std::size_t> end;
};

Prefixes prefixes(const LogFormat& format, const std::string& path) {
    Prefixes p;
    for (std::size_t n = 0; n <= format.records; ++n) {
        format.write(path, n);
        p.end.push_back(static_cast<std::size_t>(std::filesystem::file_size(path)));
        const Replayed replayed = format.reopen(path);
        EXPECT_FALSE(replayed.tail_dropped);
        p.state.push_back(replayed.state);
    }
    return p;
}

TEST(Journal, HeaderAndRowsRoundTrip) {
    const std::string path = temp_path("round_trip");
    const JournalHeader header = sample_header("test-system, with comma");
    {
        SweepJournal journal(path, header);
        for (std::uint64_t i = 0; i < 5; ++i) journal.commit(sample_row(i));
    }
    const SweepJournal replay = SweepJournal::resume(path);
    EXPECT_EQ(replay.header(), header);
    ASSERT_EQ(replay.rows().size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(replay.rows()[i], sample_row(i));
    EXPECT_FALSE(replay.tail_dropped());
    std::remove(path.c_str());
}

TEST(Journal, RowRoundTripProperty) {
    // Commit/resume round-trip over random row records, bit-exact
    // doubles included (they travel as bit patterns).
    const std::string path = temp_path("row_property");
    PROP_CHECK(0xB17'0001, 200,
               [&path](std::int64_t a, std::int64_t b, std::int64_t c) {
                   RowRecord r;
                   r.row_index = static_cast<std::uint64_t>(a);
                   r.freq_mhz = 400.0 + static_cast<double>(b) * 0.37;
                   r.onset_mv = -static_cast<double>(c) * 0.013;
                   r.crash_mv = r.onset_mv - 40.0;
                   r.fault_free = (a % 2) == 0;
                   r.cells = static_cast<std::uint64_t>(b);
                   r.crashes = static_cast<std::uint64_t>(c % 3);
                   SweepJournal(path, JournalHeader{}).commit(r);
                   const SweepJournal replay = SweepJournal::resume(path);
                   return replay.rows().size() == 1 && replay.rows()[0] == r &&
                          !replay.tail_dropped();
               },
               prop::IntDomain{0, 1'000'000}, prop::IntDomain{0, 1 << 20},
               prop::IntDomain{0, 100'000});
    std::remove(path.c_str());
}

TEST(Journal, TruncationAtAnyPointRecoversTheIntactPrefix) {
    // The write-ahead contract: however many bytes survive a crash,
    // replay recovers every fully committed record, drops the torn tail
    // and scrubs it from the file — it never throws past a valid header
    // and never fabricates.
    for (const LogFormat& format : log_formats()) {
        SCOPED_TRACE(format.name);
        const std::string path = temp_path("trunc_" + format.name);
        const Prefixes p = prefixes(format, path);
        const std::string bytes = read_file(path);
        for (std::size_t cut = p.end.front(); cut < bytes.size(); ++cut) {
            atomic_write_file(path, std::string_view(bytes).substr(0, cut));
            const auto k = static_cast<std::size_t>(
                std::upper_bound(p.end.begin(), p.end.end(), cut) - p.end.begin() - 1);
            const Replayed replayed = format.reopen(path);
            EXPECT_EQ(replayed.state, p.state[k]) << "cut at " << cut;
            EXPECT_EQ(replayed.tail_dropped, cut != p.end[k]) << "cut at " << cut;
            EXPECT_EQ(std::filesystem::file_size(path), p.end[k]) << "cut at " << cut;
        }
        std::remove(path.c_str());
    }
}

TEST(Journal, CorruptedRowByteDropsThatRowAndBeyond) {
    for (const LogFormat& format : log_formats()) {
        SCOPED_TRACE(format.name);
        const std::string path = temp_path("flip_" + format.name);
        const Prefixes p = prefixes(format, path);
        std::string bytes = read_file(path);
        bytes[(p.end[2] + p.end[3]) / 2] ^= 0x40;  // inside record 2's frame
        atomic_write_file(path, bytes);
        const Replayed replayed = format.reopen(path);
        EXPECT_TRUE(replayed.tail_dropped);
        EXPECT_EQ(replayed.state, p.state[2]);
        std::remove(path.c_str());
    }
}

TEST(Journal, MissingOrMalformedHeaderThrows) {
    for (const LogFormat& format : log_formats()) {
        SCOPED_TRACE(format.name);
        const std::string path = temp_path("header_" + format.name);
        const Prefixes p = prefixes(format, path);
        const std::string bytes = read_file(path);
        const ScannedFrame header = scan_frame(bytes);
        ASSERT_TRUE(header.valid);
        std::string version_2(header.payload);
        version_2[0] = 2;
        for (const std::string& image :
             {std::string(), std::string("not a journal at all"),
              // A record frame first is not a log either.
              bytes.substr(p.end.front()),
              // Nor is a header of a version this code does not write.
              encode_frame(kHeaderKind, version_2) + bytes.substr(p.end.front())}) {
            atomic_write_file(path, image);
            EXPECT_THROW((void)format.reopen(path), JournalError);
        }
        std::remove(path.c_str());
    }
}

TEST(Journal, OpenResumesOrStartsFreshAndGuardsTheConfigHash) {
    const std::string path = temp_path("open");
    std::remove(path.c_str());
    const JournalHeader header = sample_header("open");
    SweepJournal::open(path, header).commit(sample_row(0));
    {
        SweepJournal journal = SweepJournal::open(path, header);
        EXPECT_EQ(journal.header(), header);
        ASSERT_EQ(journal.rows().size(), 1u);
        journal.commit(sample_row(1));
    }
    EXPECT_EQ(SweepJournal::open(path, header).rows().size(), 2u);
    JournalHeader other = header;
    other.config_hash ^= 1;
    EXPECT_THROW((void)SweepJournal::open(path, other), ConfigError);

    campaign::CampaignJournalHeader other_cube = kCampaignHeader;
    other_cube.config_hash ^= 1;
    std::remove(path.c_str());
    { const campaign::CampaignJournal journal(path, kCampaignHeader); }
    EXPECT_THROW((void)campaign::CampaignJournal(path, other_cube), ConfigError);

    std::remove(path.c_str());
    (void)serve::JobWal::open(path, kWalConfigHash);
    EXPECT_THROW((void)serve::JobWal::open(path, kWalConfigHash ^ 1), ConfigError);
    std::remove(path.c_str());
}

TEST(Journal, CampaignCellCodecKeepsTheFingerprint) {
    // Every field campaign::fingerprint() mixes survives the cell codec,
    // the metrics snapshot included.
    const std::string path = temp_path("cell_codec");
    std::remove(path.c_str());
    campaign::CampaignCellResult plain = sample_cell(4);
    plain.polling.reset();
    plain.metrics = {};
    {
        campaign::CampaignJournal journal(path, kCampaignHeader);
        journal.commit_cell(sample_cell(3));
        journal.commit_cell(plain);
    }
    const campaign::CampaignJournal journal(path, kCampaignHeader);
    const std::vector<campaign::CampaignCellResult> cells = journal.cells();
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(campaign::fingerprint(cells[0]), campaign::fingerprint(sample_cell(3)));
    EXPECT_EQ(cells[0].metrics, sample_cell(3).metrics);
    EXPECT_EQ(cells[0].polling.has_value(), true);
    EXPECT_EQ(campaign::fingerprint(cells[1]), campaign::fingerprint(plain));
    EXPECT_FALSE(cells[1].polling.has_value());
    EXPECT_TRUE(cells[1].metrics.empty());
    std::remove(path.c_str());
}

TEST(Journal, CampaignAttemptFramesReplayMaxWins) {
    // Attempt frames from pool workers may land out of order; the
    // largest journaled count per cell wins, live and on replay.
    const std::string path = temp_path("attempts");
    std::remove(path.c_str());
    {
        campaign::CampaignJournal journal(path, kCampaignHeader);
        journal.commit_attempt(3, 1);
        journal.commit_attempt(5, 1);
        journal.commit_attempt(3, 4);
        journal.commit_attempt(3, 2);
        EXPECT_EQ(journal.attempts_failed(3), 4u);
    }
    const campaign::CampaignJournal journal(path, kCampaignHeader);
    EXPECT_EQ(journal.attempts_failed(3), 4u);
    EXPECT_EQ(journal.attempts_failed(5), 1u);
    EXPECT_EQ(journal.attempts_failed(7), 0u);
    EXPECT_TRUE(journal.cells().empty());
    std::remove(path.c_str());
}

/// The image at `path` has the pinned length and CRC-32, as the first
/// release of its format wrote it.
void expect_pinned(const std::string& path, std::size_t size, std::uint32_t crc) {
    const std::string bytes = read_file(path);
    EXPECT_EQ(bytes.size(), size);
    EXPECT_EQ(crc32(bytes), crc);
}

TEST(Journal, FormatsMatchTheirPinnedBytes) {
    // Logs written before the formats moved onto the shared replay must
    // still resume: each format encodes a header plus one record of
    // every kind to the pinned bytes, and replays them back.
    const std::string path = temp_path("pinned");
    JournalHeader header = sample_header("pin-part");
    header.config_hash = 0xC0FF'EE00'1234'5678;
    const RowRecord row{.row_index = 7, .freq_mhz = 2300.0, .onset_mv = -141.0,
                        .crash_mv = -196.5, .fault_free = false, .cells = 23,
                        .crashes = 1};
    SweepJournal(path, header).commit(row);
    expect_pinned(path, 51 + 60, 0x76C3E40Du);  // header + row frame
    const SweepJournal sweep = SweepJournal::resume(path);
    EXPECT_EQ(sweep.header(), header);
    EXPECT_EQ(sweep.rows(), std::vector<RowRecord>{row});

    std::remove(path.c_str());
    {
        campaign::CampaignJournal journal(path, kCampaignHeader);
        journal.commit_cell(sample_cell(5));
        journal.commit_attempt(6, 2);
    }
    expect_pinned(path, 39 + 442 + 23, 0xA01335EDu);  // header + cell + attempt frame
    const campaign::CampaignJournal cube(path, kCampaignHeader);
    ASSERT_EQ(cube.cells().size(), 1u);
    EXPECT_EQ(campaign::fingerprint(cube.cells()[0]),
              campaign::fingerprint(sample_cell(5)));
    EXPECT_EQ(cube.attempts_failed(6), 2u);

    std::remove(path.c_str());
    {
        serve::JobWal wal = serve::JobWal::open(path, kWalConfigHash);
        for (std::size_t i = 0; i < 6; ++i) commit_wal_record(wal, i);
    }
    // header, submitted, started, attempt_failed, finished, submitted, rejected
    expect_pinned(path, 23 + 81 + 19 + 23 + 51 + 81 + 19, 0xE5DD2659u);
    const serve::JobWal wal = serve::JobWal::resume(path);
    EXPECT_EQ(wal.next_id(), 3u);
    ASSERT_EQ(wal.records().size(), 2u);
    const serve::JobRecord& done = wal.records()[0];
    const serve::JobRecord expect = sample_finished();
    EXPECT_EQ(done.spec, expect.spec);
    EXPECT_EQ(done.state, expect.state);
    EXPECT_EQ(done.result_fingerprint, expect.result_fingerprint);
    EXPECT_EQ(done.attempts, expect.attempts);
    EXPECT_EQ(done.progress_units, expect.progress_units);
    EXPECT_EQ(done.detail, expect.detail);
    EXPECT_EQ(wal.records()[1].spec, serve::JobSpec{});
    EXPECT_EQ(wal.records()[1].state, serve::JobState::Rejected);
    std::remove(path.c_str());
}

TEST(SweepJournal, CommitResumeScrubsTornTail) {
    const std::string path = temp_path("torn_tail");
    const JournalHeader header = sample_header("scrub");
    {
        SweepJournal journal(path, header, JournalOptions{});
        journal.commit(sample_row(0));
        journal.commit(sample_row(1));
    }
    // Crash mid-commit: the first 7 bytes of a row frame after the last
    // intact frame.
    {
        std::string bytes = read_file(path);
        bytes += encode_frame(2, std::string(61, '\0')).substr(0, 7);
        atomic_write_file(path, bytes);
    }
    SweepJournal recovered = SweepJournal::resume(path, JournalOptions{});
    EXPECT_TRUE(recovered.tail_dropped());
    ASSERT_EQ(recovered.rows().size(), 2u);
    EXPECT_EQ(recovered.header(), header);
    // The scrub rewrote the file so append-mode commits land cleanly.
    recovered.commit(sample_row(2));
    SweepJournal again = SweepJournal::resume(path, JournalOptions{});
    EXPECT_FALSE(again.tail_dropped());
    ASSERT_EQ(again.rows().size(), 3u);
    EXPECT_EQ(again.rows()[2], sample_row(2));
    std::remove(path.c_str());
}

TEST(SweepJournal, InjectedFileFaultsRetryThenExhaust) {
    const std::string path = temp_path("file_faults");
    FaultPlan plan;
    plan.set_rate(FaultKind::FileWriteError, 0.6);
    FaultInjector injector(plan);
    JournalOptions options;
    options.file_faults = &injector;
    options.io_retry.max_attempts = 10;
    const JournalHeader header = sample_header("faulty-disk");
    {
        SweepJournal journal(path, header, options);
        for (std::uint64_t i = 0; i < 8; ++i) journal.commit(sample_row(i));
        EXPECT_GT(journal.io_retries(), 0u);
    }
    EXPECT_EQ(SweepJournal::resume(path, JournalOptions{}).rows().size(), 8u);

    // A disk that always fails exhausts the bounded budget.
    FaultPlan dead;
    dead.set_rate(FaultKind::FileWriteError, 1.0);
    FaultInjector dead_injector(dead);
    JournalOptions doomed;
    doomed.file_faults = &dead_injector;
    doomed.io_retry.max_attempts = 3;
    SweepJournal journal(path + ".doomed", header, doomed);
    EXPECT_THROW(journal.commit(sample_row(0)), JournalError);
    std::remove(path.c_str());
    std::remove((path + ".doomed").c_str());
}

// ------------------------------------------------------ driver injection

TEST(MsrDriverFaults, StatusesSurfaceAndLegacyApiThrows) {
    test::MachineRig rig(11);
    FaultPlan plan;
    plan.set_rate(FaultKind::RdmsrError, 1.0);
    plan.set_rate(FaultKind::WrmsrError, 1.0);
    FaultInjector injector(plan);
    rig.kernel.msr().set_fault_injector(&injector);

    const os::MsrReadResult r = rig.kernel.msr().try_rdmsr(0, 0, sim::kMsrPerfStatus);
    EXPECT_EQ(r.status, os::MsrStatus::IoError);
    EXPECT_EQ(rig.kernel.msr().try_ioctl_rdmsr(0, 0, sim::kMsrPerfStatus).status,
              os::MsrStatus::IoError);
    EXPECT_EQ(rig.kernel.msr().fault_counters().read_errors, 2u);
    // ioctl_wrmsr, the one throwing access, raises what try_* reports.
    EXPECT_THROW((void)rig.kernel.msr().ioctl_wrmsr(0, 0, sim::kMsrOcMailbox, 0),
                 DriverError);
    EXPECT_EQ(rig.kernel.msr().fault_counters().write_errors, 1u);

    // Detaching restores the clean path bit-for-bit.
    rig.kernel.msr().set_fault_injector(nullptr);
    EXPECT_EQ(rig.kernel.msr().try_rdmsr(0, 0, sim::kMsrPerfStatus).status,
              os::MsrStatus::Ok);
}

TEST(MsrDriverFaults, MailboxBusyOnlyHitsTheMailbox) {
    test::MachineRig rig(12);
    FaultPlan plan;
    plan.set_rate(FaultKind::MailboxBusy, 1.0);
    FaultInjector injector(plan);
    rig.kernel.msr().set_fault_injector(&injector);

    EXPECT_EQ(rig.kernel.msr().try_wrmsr(0, 0, sim::kMsrPerfCtl, std::uint64_t{0x8} << 8).status,
              os::MsrStatus::Ok);
    const auto raw = sim::encode_offset(Millivolts{-10.0}, sim::VoltagePlane::Core);
    EXPECT_EQ(rig.kernel.msr().try_wrmsr(0, 0, sim::kMsrOcMailbox, raw).status,
              os::MsrStatus::Busy);
    EXPECT_EQ(rig.kernel.msr().fault_counters().mailbox_busy, 1u);
}

TEST(MsrDriverFaults, TimeoutBurnsExtraCycles) {
    test::MachineRig rig(13);
    FaultPlan plan;
    plan.set_rate(FaultKind::RdmsrTimeout, 1.0);
    FaultInjector injector(plan);
    const std::uint64_t before = rig.kernel.msr().total_cost_cycles();
    (void)rig.kernel.msr().try_rdmsr(0, 0, sim::kMsrPerfStatus);
    const std::uint64_t clean = rig.kernel.msr().total_cost_cycles() - before;

    rig.kernel.msr().set_fault_injector(&injector);
    const std::uint64_t mid = rig.kernel.msr().total_cost_cycles();
    EXPECT_EQ(rig.kernel.msr().try_rdmsr(0, 0, sim::kMsrPerfStatus).status,
              os::MsrStatus::Timeout);
    EXPECT_GT(rig.kernel.msr().total_cost_cycles() - mid, clean);
}

TEST(MsrDriverFaults, StaleReadServesThePreviousValue) {
    test::MachineRig rig(14);
    FaultPlan plan;
    plan.set_rate(FaultKind::StaleRead, 1.0);
    FaultInjector injector(plan);
    rig.kernel.msr().set_fault_injector(&injector);

    // First read has no history: trivially coherent.
    const os::MsrReadResult first = rig.kernel.msr().try_rdmsr(0, 0, sim::kMsrOcMailbox);
    EXPECT_EQ(first.status, os::MsrStatus::Ok);
    EXPECT_FALSE(first.stale);

    // Change the MSR, then read: the torn read serves the OLD value.
    const auto raw = sim::encode_offset(Millivolts{-25.0}, sim::VoltagePlane::Core);
    ASSERT_EQ(rig.kernel.msr().try_wrmsr(0, 0, sim::kMsrOcMailbox, raw).status,
              os::MsrStatus::Ok);
    const os::MsrReadResult second = rig.kernel.msr().try_rdmsr(0, 0, sim::kMsrOcMailbox);
    EXPECT_EQ(second.status, os::MsrStatus::Ok);
    EXPECT_TRUE(second.stale);
    EXPECT_EQ(second.value, first.value);
    EXPECT_EQ(rig.kernel.msr().fault_counters().stale_reads, 1u);

    // clear_stale_cache() forgets the history (the per-cell boundary).
    rig.kernel.msr().clear_stale_cache();
    const os::MsrReadResult third = rig.kernel.msr().try_rdmsr(0, 0, sim::kMsrOcMailbox);
    EXPECT_FALSE(third.stale);
}

// ----------------------------------------------- characterizer retries

TEST(CharacterizerRetry, AbsorbsMailboxFaultsWithinBudget) {
    test::MachineRig rig(21);
    FaultPlan plan;
    plan.set_rate(FaultKind::MailboxBusy, 0.8);
    FaultInjector injector(plan);
    injector.reseed(0xAB5);
    rig.kernel.msr().set_fault_injector(&injector);

    plugvolt::CharacterizerConfig config;
    config.offset_step = Millivolts{5.0};
    config.retry.max_attempts = 12;
    plugvolt::Characterizer characterizer(rig.kernel, config);
    const plugvolt::CellResult cell =
        characterizer.test_cell(rig.machine.profile().freq_base, Millivolts{-20.0});
    EXPECT_FALSE(cell.crashed);
    EXPECT_GT(characterizer.msr_retries(), 0u);
}

TEST(CharacterizerRetry, ExhaustedBudgetRaisesDriverError) {
    test::MachineRig rig(22);
    FaultPlan plan;
    plan.set_rate(FaultKind::MailboxBusy, 1.0);
    FaultInjector injector(plan);
    rig.kernel.msr().set_fault_injector(&injector);

    plugvolt::CharacterizerConfig config;
    config.offset_step = Millivolts{5.0};
    config.retry.max_attempts = 3;
    plugvolt::Characterizer characterizer(rig.kernel, config);
    EXPECT_THROW((void)characterizer.test_cell(rig.machine.profile().freq_base,
                                               Millivolts{-20.0}),
                 DriverError);
}

// ------------------------------------------------- journaled sweeps

plugvolt::ParallelCharacterizerConfig sweep_config(std::uint64_t seed) {
    plugvolt::ParallelCharacterizerConfig config;
    config.cell.offset_step = Millivolts{10.0};
    config.workers = 2;
    config.mode = plugvolt::SweepMode::Bisection;
    config.seed = seed;
    return config;
}

/// Thrown by a progress callback to model the process dying mid-sweep.
struct KillSignal {};

TEST(JournaledSweep, MatchesPlainSweepAndResumesForFree) {
    const sim::CpuProfile profile = sim::skylake_i5_6500();
    const std::string path = temp_path("journaled_sweep");
    plugvolt::ParallelCharacterizer engine(profile, sweep_config(0x90AD));

    const std::uint64_t plain_hash = plugvolt::state_hash(engine.characterize());

    SweepJournal journal(path, engine.journal_header(), JournalOptions{});
    EXPECT_EQ(plugvolt::state_hash(engine.characterize(journal)), plain_hash);
    EXPECT_EQ(engine.stats().journal_commits, journal.rows().size());
    EXPECT_GT(engine.stats().journal_bytes, 0u);

    // Resuming a COMPLETE journal adopts every row: zero probes.
    SweepJournal full = SweepJournal::resume(path, JournalOptions{});
    EXPECT_EQ(plugvolt::state_hash(engine.characterize(full)), plain_hash);
    EXPECT_EQ(engine.stats().cells_evaluated, 0u);
    EXPECT_EQ(engine.stats().rows_resumed, engine.stats().rows);
    std::remove(path.c_str());
}

TEST(JournaledSweep, KillMidSweepThenResumeIsBitIdentical) {
    const sim::CpuProfile profile = sim::skylake_i5_6500();
    const std::string path = temp_path("kill_resume");
    plugvolt::ParallelCharacterizer engine(profile, sweep_config(0xC1A5));

    const std::uint64_t reference = plugvolt::state_hash(engine.characterize());

    {
        SweepJournal journal(path, engine.journal_header(), JournalOptions{});
        std::size_t delivered = 0;
        EXPECT_THROW((void)engine.characterize(
                         journal,
                         [&delivered](const plugvolt::FreqCharacterization&) {
                             if (++delivered == 3) throw KillSignal{};
                         }),
                     KillSignal);
    }
    SweepJournal recovered = SweepJournal::resume(path, JournalOptions{});
    EXPECT_GE(recovered.rows().size(), 3u);
    EXPECT_EQ(plugvolt::state_hash(engine.characterize(recovered)), reference);
    EXPECT_GE(engine.stats().rows_resumed, 3u);
    std::remove(path.c_str());
}

TEST(JournaledSweep, ConfigMismatchIsRejected) {
    const sim::CpuProfile profile = sim::skylake_i5_6500();
    const std::string path = temp_path("config_mismatch");
    plugvolt::ParallelCharacterizer engine(profile, sweep_config(1));
    SweepJournal journal(path, engine.journal_header(), JournalOptions{});

    plugvolt::ParallelCharacterizer other(profile, sweep_config(2));
    EXPECT_NE(engine.config_hash(), other.config_hash());
    EXPECT_THROW((void)other.characterize(journal), ConfigError);
    std::remove(path.c_str());
}

TEST(JournaledSweep, InjectedFaultSweepReplaysAcrossWorkerCounts) {
    const sim::CpuProfile profile = sim::skylake_i5_6500();
    FaultPlan plan;
    plan.set_rate(FaultKind::MailboxBusy, 0.2);
    plan.set_rate(FaultKind::StaleRead, 0.1);

    auto config = sweep_config(0xFA15);
    config.fault_plan = plan;
    config.cell.retry.max_attempts = 8;

    plugvolt::ParallelCharacterizer two(profile, config);
    const std::uint64_t hash_two = plugvolt::state_hash(two.characterize());
    const std::uint64_t faults_two = two.stats().env_faults;
    EXPECT_GT(faults_two, 0u);
    EXPECT_GT(two.stats().msr_retries, 0u);

    config.workers = 4;
    plugvolt::ParallelCharacterizer four(profile, config);
    EXPECT_EQ(plugvolt::state_hash(four.characterize()), hash_two);
    EXPECT_EQ(four.stats().env_faults, faults_two);
    EXPECT_EQ(four.stats().msr_retries, two.stats().msr_retries);
}

// ------------------------------------------------ polling fail-closed

TEST(PollingFailClosed, ReadStarvationClampsToMaximalSafe) {
    // The acceptance property: with every status read failing, the
    // module must NEVER dwell unclamped on unknown state beyond its
    // retry budget — each abandoned poll fail-closes to the maximal
    // safe state.
    test::MachineRig rig(31);
    auto module =
        std::make_shared<plugvolt::PollingModule>(test::comet_map(), plugvolt::PollingConfig{});
    rig.kernel.load_module(module);

    FaultPlan plan;
    plan.set_rate(FaultKind::RdmsrError, 1.0);
    FaultInjector injector(plan);
    rig.kernel.msr().set_fault_injector(&injector);

    rig.machine.advance(milliseconds(1.0));

    const plugvolt::PollingMetrics& m = module->metrics();
    EXPECT_GT(m.polls, 0u);
    EXPECT_EQ(m.missed_polls, m.polls);           // every poll lost its reads
    EXPECT_EQ(m.fail_closed_clamps, m.missed_polls);  // ...and every one clamped
    EXPECT_GT(m.read_retries, 0u);
    EXPECT_EQ(m.detections, 0u);  // it never classified garbage as a reading

    const auto req = sim::decode_offset(rig.machine.read_msr(0, sim::kMsrOcMailbox));
    ASSERT_TRUE(req.has_value());
    // Compare against the mailbox-quantized maximal safe offset (the
    // encoding rounds to 1/1024 V steps).
    const Millivolts maximal =
        module->map().maximal_safe_offset(module->config().guard_band);
    const auto quantized =
        sim::decode_offset(sim::encode_offset(maximal, sim::VoltagePlane::Core));
    ASSERT_TRUE(quantized.has_value());
    EXPECT_DOUBLE_EQ(req->offset.value(), quantized->offset.value());
}

TEST(PollingFailClosed, TransientFaultsAreAbsorbedByRetry) {
    // A flaky-but-not-dead environment: reads fail often but the retry
    // budget covers them, so polls complete and nothing fail-closes.
    test::MachineRig rig(32);
    plugvolt::PollingConfig config;
    config.driver_retry.max_attempts = 12;
    auto module = std::make_shared<plugvolt::PollingModule>(test::comet_map(), config);
    rig.kernel.load_module(module);

    FaultPlan plan;
    plan.set_rate(FaultKind::RdmsrError, 0.4);
    FaultInjector injector(plan);
    rig.kernel.msr().set_fault_injector(&injector);

    rig.machine.advance(milliseconds(1.0));

    const plugvolt::PollingMetrics& m = module->metrics();
    EXPECT_GT(m.polls, 0u);
    EXPECT_GT(m.read_retries, 0u);
    EXPECT_EQ(m.missed_polls, 0u);
    EXPECT_EQ(m.fail_closed_clamps, 0u);
}

TEST(PollingFailClosed, StaleReadsAreCountedButHarmlessAtRest) {
    test::MachineRig rig(33);
    auto module = std::make_shared<plugvolt::PollingModule>(test::comet_map(),
                                                            plugvolt::PollingConfig{});
    rig.kernel.load_module(module);

    FaultPlan plan;
    plan.set_rate(FaultKind::StaleRead, 0.5);
    FaultInjector injector(plan);
    rig.kernel.msr().set_fault_injector(&injector);

    rig.machine.advance(milliseconds(1.0));

    const plugvolt::PollingMetrics& m = module->metrics();
    EXPECT_GT(m.stale_reads, 0u);
    EXPECT_EQ(m.missed_polls, 0u);
    // A machine at rest reads the same values stale or fresh: no false
    // detections.
    EXPECT_EQ(m.detections, 0u);
}

// --------------------------------------------------- atomic persistence

TEST(AtomicPersistence, SafeStateMapFileRoundTripIsBitExact) {
    const plugvolt::SafeStateMap& map = test::comet_map();
    const std::string path = ::testing::TempDir() + "pv_map_roundtrip.csv";
    map.save_csv(path);
    const plugvolt::SafeStateMap loaded =
        plugvolt::SafeStateMap::load_csv(path, map.system_name(), map.sweep_floor());
    EXPECT_EQ(plugvolt::state_hash(loaded), plugvolt::state_hash(map));
    // The temp file used for atomicity does not outlive the write.
    EXPECT_FALSE(file_exists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(AtomicPersistence, FsioReadWriteAndMissingFile) {
    const std::string path = ::testing::TempDir() + "pv_fsio_probe.txt";
    atomic_write_file(path, "first");
    atomic_write_file(path, "second");  // overwrite is atomic too
    EXPECT_EQ(read_file(path), "second");
    EXPECT_TRUE(file_exists(path));
    std::remove(path.c_str());
    EXPECT_FALSE(file_exists(path));
    EXPECT_THROW((void)read_file(path), IoError);
}

}  // namespace
}  // namespace pv::resilience
