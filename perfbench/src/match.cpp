/**
 * @file
 * match-churn and match-growth: generated batch schedules replayed on
 * fresh serial and parallel Rete matchers, timed by the wall clock.
 */

#include <algorithm>
#include <cstdio>

#include "core/parallel_matcher.hpp"
#include "core/telemetry.hpp"
#include "rete/matcher.hpp"
#include "rete/network.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using psm::core::Matcher;
using psm::core::ParallelOptions;
using psm::core::ParallelReteMatcher;
using psm::rete::Network;
using psm::rete::NetworkOptions;
using psm::rete::ReteMatcher;
namespace tel = psm::telemetry;

/**
 * One replay is n_streams independent change streams, each n_batches
 * long and fed to its own fresh matcher. The match cost of one churn
 * stream depends strongly on the elements its seed happens to keep in
 * working memory (modelled instructions per change range over 2x
 * between seeds, and long streams drift into far costlier states), so
 * churn averages many short streams; growth costs the same on every
 * seed and needs one long stream to grow its working memory.
 */
struct MatchSpec
{
    psm::workloads::SystemPreset preset;
    double remove_fraction;
    int n_streams;
    int n_batches; ///< batches per stream
};

MatchSpec
specFor(bool growth)
{
    if (growth)
        return {psm::workloads::growthPreset(), 0.04, 1, 1000};
    return {psm::workloads::presetByName("daa"), 0.5, 16, 500};
}

/** Replays of each kind per run: at least kMinReplays, then more
 *  until 85% of the run has gone or kLoggedBatches batches are timed. */
constexpr std::size_t kMinReplays = 10;
constexpr std::size_t kLoggedBatches = 400'000;

/** Copies of the input streams, each at its own heap addresses. */
constexpr int kLayouts = 4;

/** Traced/untraced parallel replay pairs behind core.trace_overhead. */
constexpr int kOverheadPairs = 5;

using Keys = std::vector<std::pair<int, std::vector<psm::ops5::TimeTag>>>;

std::unique_ptr<Matcher>
makeSerial(const Schedule &s)
{
    return std::make_unique<ReteMatcher>(
        std::make_shared<Network>(s.program, NetworkOptions::fullSharing()));
}

std::unique_ptr<Matcher>
makeParallel(const Schedule &s)
{
    return std::make_unique<ParallelReteMatcher>(
        s.program, ParallelOptions::hostDefaults());
}

/**
 * Replays every stream on a fresh matcher from @p make, wrapped in a
 * TimedMatcher that appends each batch's wall time (µs) to @p batch_us
 * and records a span per batch when @p tracer is on. @p keys gets each
 * stream's final conflict set and @p stats the summed counters.
 * @p keep, when set, receives the first stream's matcher, with
 * telemetry enabled.
 */
void
replayAll(const std::vector<Schedule> &streams,
          std::unique_ptr<Matcher> (*make)(const Schedule &), Tracer &tracer,
          const char *span, std::vector<double> &batch_us,
          std::vector<Keys> &keys, psm::core::MatchStats &stats,
          std::unique_ptr<Matcher> *keep = nullptr)
{
    keys.clear();
    stats = {};
    for (const Schedule &s : streams) {
        std::unique_ptr<Matcher> m = make(s);
        if (keep != nullptr && !*keep)
            m->enableTelemetry();
        TimedMatcher timed(*m, tracer, span, &batch_us);
        for (const auto &batch : s.batches)
            timed.processChanges(batch);
        keys.push_back(conflictKeys(m->conflictSet()));
        stats += m->stats();
        if (keep != nullptr && !*keep)
            *keep = std::move(m);
    }
}

/**
 * Per-batch wall times (µs) of up to kLoggedBatches batches, one row
 * per replay. Every row is allocated and written up front, so the
 * benchmark's own memory (3.2 MB) is the same however many replays a
 * run manages, and peak_rss_mb moves only with the matchers'.
 */
struct BatchLog
{
    std::vector<std::vector<double>> rows;
    std::size_t used = 0;

    explicit BatchLog(std::size_t batches)
        : rows(std::max(kMinReplays, kLoggedBatches / batches),
               std::vector<double>(batches))
    {
        for (auto &r : rows)
            r.clear(); // keeps the written capacity
    }

    std::vector<double> &next() { return rows[used++]; }
    bool full() const { return used == rows.size(); }
};

/**
 * The wall seconds of one replay from the first @p n of repeated ones
 * (per replay, every batch's time in µs): the sum over batches of each
 * batch's median time. Batch i does the same work in every replay, so
 * its median drops the host stalls that hit it in a minority of the
 * replays, while a stall of a few milliseconds lands in most whole
 * replays. Over five runs on a shared host, the median of whole-replay
 * times spread by up to 70% and their fastest decile by up to 97%,
 * where this spread by at most 18%.
 */
double
replayCost(const std::vector<std::vector<double>> &replays, std::size_t n)
{
    double us = 0.0;
    std::vector<double> column(n);
    for (std::size_t b = 0; b < replays.front().size(); ++b) {
        for (std::size_t r = 0; r < n; ++r)
            column[r] = replays[r][b];
        us += median(column);
    }
    return us / 1e6;
}

} // namespace

void
runMatch(const Options &opt, Report &rep, Tracer &tracer, bool growth)
{
    const MatchSpec spec = specFor(growth);
    rep.note("preset", spec.preset.name);
    rep.note("streams_per_replay", std::to_string(spec.n_streams) + " of " +
                                       std::to_string(spec.n_batches) +
                                       " batches");
    rep.note("changes_per_batch",
             std::to_string(spec.preset.changes_per_firing));
    rep.note("parallel_workers",
             std::to_string(ParallelOptions::hostDefaults().n_workers));

    // ---- set-up, repeated; the last one's objects are kept ----------
    auto makeStreams = [&](const auto &program) {
        std::vector<Schedule> out;
        for (int k = 0; k < spec.n_streams; ++k)
            out.push_back(makeSchedule(
                spec.preset, program,
                opt.seed * static_cast<std::uint64_t>(spec.n_streams) + k,
                spec.n_batches, spec.remove_fraction));
        return out;
    };
    SetupTimes setup;
    std::vector<Schedule> streams;
    for (int r = 0; r < kSetupRepeats; ++r) {
        const Clock::time_point t0 = Clock::now();
        auto program = makeProgram(spec.preset);
        streams = makeStreams(program);
        const Clock::time_point t1 = Clock::now();
        auto net =
            std::make_shared<Network>(program, NetworkOptions::fullSharing());
        const Clock::time_point t2 = Clock::now();
        ReteMatcher serial(net);
        const Clock::time_point t3 = Clock::now();
        ParallelReteMatcher parallel(program, ParallelOptions::hostDefaults());
        const Clock::time_point t4 = Clock::now();
        setup.total_s.push_back(secondsBetween(t0, t4));
        setup.program_ms.push_back(msBetween(t0, t1));
        setup.network_ms.push_back(msBetween(t1, t2));
        setup.pool_ms.push_back(msBetween(t2, t3));
        setup.workers_ms.push_back(msBetween(t3, t4));
    }
    setup.report(rep);
    std::uint64_t changes_per_replay = 0;
    std::size_t batches_per_replay = 0;
    for (const Schedule &s : streams) {
        changes_per_replay += s.changes;
        batches_per_replay += s.batches.size();
    }
    rep.note("wm_changes_per_replay", std::to_string(changes_per_replay));

    // Identical copies of the streams at other heap addresses. Where
    // the working-memory elements happen to lie moves a replay's speed
    // by up to ~20% from one process to the next; rounds rotate through
    // the copies so that each run averages over several layouts.
    std::vector<std::vector<Schedule>> layouts;
    layouts.push_back(std::move(streams));
    for (int c = 1; c < kLayouts; ++c)
        layouts.push_back(makeStreams(layouts.front().front().program));

    const double budget = opt.seconds;
    const Clock::time_point run_start = Clock::now();
    auto elapsed = [&] { return secondsBetween(run_start, Clock::now()); };

    // ---- wall-clock replays -----------------------------------------
    // Rounds of one serial and one parallel replay on fresh matchers,
    // so both kinds see the whole run. No spans here, even on a traced
    // run: the rates and true_speedup are those of untraced replays.
    Tracer untraced(false);
    BatchLog serial_us(batches_per_replay), parallel_us(batches_per_replay);
    std::vector<Keys> want, keys;
    psm::core::MatchStats serial_stats, parallel_stats;
    while (parallel_us.used < kMinReplays ||
           (elapsed() < 0.85 * budget && !parallel_us.full())) {
        const std::vector<Schedule> &streams =
            layouts[parallel_us.used % kLayouts];
        replayAll(streams, makeSerial, untraced, "rete.processChanges",
                  serial_us.next(), keys, serial_stats);
        if (want.empty())
            want = keys;
        else if (keys != want)
            rep.fail("serial replay conflict set differs between replays");
        replayAll(streams, makeParallel, untraced, "core.processChanges",
                  parallel_us.next(), keys, parallel_stats);
        if (keys != want)
            rep.fail("parallel conflict set != serial after replay " +
                     std::to_string(parallel_us.used));
        rep.tally.attempted += 2 * batches_per_replay;
    }
    const auto changes = static_cast<double>(changes_per_replay);
    const double serial_rate =
        changes / replayCost(serial_us.rows, serial_us.used);
    const double parallel_rate =
        changes / replayCost(parallel_us.rows, parallel_us.used);
    rep.e2eMetric("serial_wme_changes_per_s", serial_rate, "changes/s");
    rep.e2eMetric("parallel_wme_changes_per_s", parallel_rate, "changes/s");
    auto range = [&](const BatchLog &log) {
        std::vector<double> rates;
        for (std::size_t r = 0; r < log.used; ++r) {
            double us = 0.0;
            for (double b : log.rows[r])
                us += b;
            rates.push_back(changes / us * 1e6);
        }
        std::sort(rates.begin(), rates.end());
        return std::to_string(rates.front()) + " .. " +
               std::to_string(rates.back());
    };
    rep.note("replays", std::to_string(parallel_us.used) +
                            " serial and parallel each; whole replays ran "
                            "at serial " +
                            range(serial_us) + ", parallel " +
                            range(parallel_us) + " changes/s");

    if (!opt.trace)
        return;

    // ---- traced replays: per-batch spans + matcher telemetry --------
    // Traced and untraced parallel replays alternate, kOverheadPairs of
    // each, so trace_overhead compares the same statistic over like
    // samples. The telemetry ratios come from the first traced
    // replay's first stream.
    std::vector<double> serial_batch_us;
    replayAll(layouts.front(), makeSerial, tracer, "rete.processChanges",
              serial_batch_us, keys, serial_stats);
    std::unique_ptr<Matcher> parallel_kept;
    std::vector<std::vector<double>> traced_us, untraced_us;
    for (int k = 0; k < kOverheadPairs; ++k) {
        replayAll(layouts.front(), makeParallel, untraced,
                  "core.processChanges", untraced_us.emplace_back(), keys,
                  parallel_stats);
        if (keys != want)
            rep.fail("untraced parallel conflict set != serial");
        replayAll(layouts.front(), makeParallel, tracer,
                  "core.processChanges", traced_us.emplace_back(), keys,
                  parallel_stats, k == 0 ? &parallel_kept : nullptr);
        if (keys != want)
            rep.fail("traced parallel conflict set != serial");
    }
    rep.tally.attempted += (1 + 2 * kOverheadPairs) * batches_per_replay;

    const auto ch = static_cast<double>(serial_stats.changes_processed);
    rep.layerMetric("rete.batch_us.p50", percentile(serial_batch_us, 50));
    rep.layerMetric("rete.batch_us.p99", percentile(serial_batch_us, 99));
    rep.layerMetric("rete.comparisons_per_change",
                    ratio(serial_stats.comparisons, ch));
    rep.layerMetric("rete.tokens_per_change",
                    ratio(serial_stats.tokens_built, ch));
    rep.layerMetric("rete.activations_per_change",
                    ratio(serial_stats.activations, ch));
    rep.layerMetric("rete.instructions_per_change",
                    ratio(serial_stats.instructions, ch));

    const tel::RegistrySnapshot t = parallel_kept->telemetry()->snapshot();
    auto c = [&](tel::Counter k) { return static_cast<double>(t.counter(k)); };
    const double batches = c(tel::Counter::Batches);
    rep.layerMetric("core.batch_us.p50", percentile(traced_us.front(), 50));
    rep.layerMetric("core.batch_us.p99", percentile(traced_us.front(), 99));
    rep.layerMetric("core.true_speedup", ratio(parallel_rate, serial_rate));
    rep.layerMetric("core.sharing_loss",
                    ratio(parallel_stats.instructions, serial_stats.instructions));
    rep.layerMetric("core.tasks_per_change",
                    ratio(c(tel::Counter::TasksExecuted),
                          c(tel::Counter::ChangesProcessed)));
    rep.layerMetric("core.queued_task_share",
                    ratio(c(tel::Counter::QueuePushes),
                          c(tel::Counter::TasksExecuted)));
    rep.layerMetric("core.instr_per_task",
                    t.histogram(tel::Histogram::TaskCostInstr).mean());
    rep.layerMetric(
        "core.park_ns_per_batch",
        ratio(static_cast<double>(t.histogram(tel::Histogram::ParkNanos).sum),
              batches));
    rep.layerMetric("core.idle_spins_per_batch",
                    ratio(c(tel::Counter::IdleSpins), batches));
    rep.layerMetric("core.join_lock_contended_ratio",
                    ratio(c(tel::Counter::JoinLockContended),
                          c(tel::Counter::JoinLockAcquires)));
    rep.layerMetric("core.not_lock_contended_ratio",
                    ratio(c(tel::Counter::NotLockContended),
                          c(tel::Counter::NotLockAcquires)));
    // Rates are inverse times: traced rate / untraced rate.
    rep.layerMetric("core.trace_overhead",
                    ratio(replayCost(untraced_us, kOverheadPairs),
                          replayCost(traced_us, kOverheadPairs)));
}

} // namespace perfbench
