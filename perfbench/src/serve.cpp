/**
 * @file
 * serve-durable: one in-process SessionPool (8 sessions, nproc - 1
 * server threads, WAL fsync policy `batch`, periodic checkpoints, no
 * drain checkpoint) fed open loop. A reference-rate phase is followed
 * by a restart (restore = true over the last periodic snapshot plus
 * the WAL tail), then the capacity ladder runs on the restored pool.
 * Every answer and every session's final state is checked against a
 * serial core::Engine fed the same request log.
 */

#include <unistd.h>

#include <condition_variable>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>

#include "loadgen.hpp"
#include "rete/matcher.hpp"
#include "serve/session_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace tel = psm::telemetry;
using psm::serve::PoolOptions;
using psm::serve::Request;
using psm::serve::SessionPool;

constexpr std::size_t kSessions = 8;
constexpr std::size_t kTemplates = 4096;
constexpr double kRefRate = 8000.0;   ///< req/s in the reference phase
constexpr double kLimitUs = 20000.0;  ///< p99 limit of the capacity rule
constexpr std::size_t kStepMin = 2000;
constexpr std::size_t kWindow = 4000; ///< requests per latency window
const Ladder kLadder{4000.0, kLadderRatio, 64};
constexpr std::uint64_t kCheckpointEvery = 256; ///< batches per session
constexpr int kRestores = 5;

PoolOptions
poolOptions(const std::string &dir, bool restore)
{
    PoolOptions po;
    po.n_sessions = kSessions;
    const unsigned hc = std::thread::hardware_concurrency();
    po.n_threads = hc > 1 ? hc - 1 : 1;
    // Deep queues and no shedding: overload shows as latency and
    // backlog, never as rejections.
    po.queue_capacity = 1u << 20;
    po.durability.dir = dir;
    po.durability.fsync = psm::durable::FsyncPolicy::Batch;
    po.durability.checkpoint.every_batches = kCheckpointEvery;
    po.durability.checkpoint.on_drain = false;
    po.restore = restore;
    po.autostart = !restore;
    return po;
}

/**
 * Submits entries to a pool. A completion thread takes the answers in
 * whatever order they finish: it waits briefly on the oldest
 * outstanding future, then sweeps all of them, so one stalled session
 * (say, mid-checkpoint) does not hold back the answers of the others.
 */
class PoolClient
{
  public:
    PoolClient(const std::vector<Template> &templates, std::deque<Entry> &log,
               Tally &tally, Tracer &tracer)
        : templates_(templates), log_(log), tally_(tally), tracer_(tracer),
          thread_([this] { collect(); })
    {}

    ~PoolClient()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            stop_ = true;
        }
        cv_.notify_one();
        thread_.join();
    }

    /** Points the client at a pool incarnation; sample times are
     *  microseconds since @p epoch. */
    void attach(SessionPool *pool, Clock::time_point epoch)
    {
        pool_ = pool;
        epoch_ = epoch;
        ++generation_;
    }

    bool
    submit(std::size_t i, Entry &e)
    {
        ++tally_.attempted;
        Request req;
        switch (e.kind) {
          case RequestKind::Assert: {
            const Template &t = templates_[e.tmpl];
            req = Request::makeAssert(t.cls, t.fields);
            break;
          }
          case RequestKind::Retract: {
            // The pointer handle is only valid in the pool incarnation
            // that answered the assert; across a restart, retract by tag.
            const Entry &t = log_[static_cast<std::size_t>(e.target)];
            req = t.generation == generation_
                      ? Request::makeRetract(t.wme)
                      : Request::makeRetractTag(t.tag);
            break;
          }
          case RequestKind::Run:
            req = Request::makeRun(e.run_cycles);
            break;
        }
        psm::serve::Submit sub = pool_->submit(e.session, std::move(req));
        if (!sub.accepted())
            return false;
        e.generation = generation_;
        {
            std::lock_guard<std::mutex> lk(mu_);
            inbox_.push_back({i, &e, std::move(sub.response)});
        }
        cv_.notify_one();
        return true;
    }

  private:
    struct Outstanding
    {
        std::size_t index;
        Entry *entry;
        std::future<psm::serve::Response> response;
    };

    void
    finish(Outstanding &o)
    {
        Entry &e = *o.entry;
        const psm::serve::Response r = o.response.get();
        e.sample.done_us =
            e.sample.submit_us + static_cast<double>(r.latency.count());
        e.expired = r.deadline_expired;
        e.sample.ok = !r.deadline_expired;
        e.tag = r.tag;
        e.wme = r.wme;
        e.retracted = r.retracted;
        e.firings = r.run.firings;
        if (tracer_.enabled()) {
            auto at = [&](double us) {
                return epoch_ + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double, std::micro>(
                                        us));
            };
            tracer_.record(e.kind == RequestKind::Assert    ? "serve.assert"
                           : e.kind == RequestKind::Retract ? "serve.retract"
                                                            : "serve.run",
                           at(e.sample.submit_us), at(e.sample.done_us), 0,
                           o.index + 1);
        }
        e.ready.store(true, std::memory_order_release);
    }

    void
    collect()
    {
        std::vector<Outstanding> open;
        for (;;) {
            {
                std::unique_lock<std::mutex> lk(mu_);
                if (open.empty())
                    cv_.wait(lk, [&] { return stop_ || !inbox_.empty(); });
                if (stop_ && inbox_.empty() && open.empty())
                    return;
                for (Outstanding &o : inbox_)
                    open.push_back(std::move(o));
                inbox_.clear();
            }
            if (open.empty())
                continue;
            open.front().response.wait_for(std::chrono::microseconds(50));
            std::size_t kept = 0;
            for (Outstanding &o : open) {
                if (o.response.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready)
                    finish(o);
                else
                    open[kept++] = std::move(o);
            }
            open.resize(kept);
        }
    }

    const std::vector<Template> &templates_;
    std::deque<Entry> &log_;
    Tally &tally_;
    Tracer &tracer_;
    SessionPool *pool_ = nullptr;
    Clock::time_point epoch_{};
    std::uint32_t generation_ = 0;

    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Outstanding> inbox_;
    bool stop_ = false;
    std::thread thread_;
};

std::vector<EngineImage>
poolImages(SessionPool &pool)
{
    std::vector<EngineImage> out;
    for (std::size_t s = 0; s < pool.sessionCount(); ++s)
        out.push_back(imageOf(pool.engine(s)));
    return out;
}

double
p50Of(const std::deque<Entry> &log, std::size_t first, std::size_t last,
      RequestKind kind)
{
    std::vector<double> v;
    for (std::size_t i = first; i < last; ++i)
        if (log[i].kind == kind)
            v.push_back(dueLatency(log[i].sample));
    return percentile(std::move(v), 50);
}

} // namespace

void
runServe(const Options &opt, Report &rep, Tracer &tracer)
{
    const psm::workloads::SystemPreset preset = psm::workloads::tinyPreset();
    const std::string root = fs::absolute(opt.out_dir).string() +
                             "/serve-state-" + std::to_string(::getpid());
    std::error_code ec;
    fs::remove_all(root, ec);
    fs::create_directories(root);
    const std::string dir = root + "/pool";

    rep.note("sessions", std::to_string(kSessions));
    rep.note("server_threads",
             std::to_string(poolOptions(dir, false).n_threads));
    rep.note("fsync_policy", "batch");
    rep.note("checkpoint", "every " + std::to_string(kCheckpointEvery) +
                               " batches per session, none on drain");
    rep.note("state_dir_fs", filesystemOf(root));
    rep.note("mix", mixNote());

    // ---- set-up, repeated; the last pool is kept --------------------
    SetupTimes setup;
    std::shared_ptr<const psm::ops5::Program> program;
    std::vector<Template> templates;
    std::unique_ptr<SessionPool> pool;
    for (int r = 0; r < kSetupRepeats; ++r) {
        pool.reset();
        fs::remove_all(dir, ec);
        const Clock::time_point t0 = Clock::now();
        program = makeProgram(preset);
        templates = makeTemplates(preset, *program, opt.seed, kTemplates);
        const Clock::time_point t1 = Clock::now();
        pool = std::make_unique<SessionPool>(program, poolOptions(dir, false));
        const Clock::time_point t2 = Clock::now();
        setup.total_s.push_back(secondsBetween(t0, t2));
        setup.program_ms.push_back(msBetween(t0, t1));
        setup.pool_ms.push_back(msBetween(t1, t2));
        // Server threads start inside the pool constructor.
        setup.workers_ms.push_back(0.0);
        // One session's network compile, outside the timed set-up.
        const Clock::time_point n0 = Clock::now();
        psm::serve::makeMatcher(program, {});
        setup.network_ms.push_back(msBetween(n0, Clock::now()));
    }
    setup.report(rep);

    std::deque<Entry> log;
    RequestGen gen(templates.size(), kSessions, opt.seed);
    const Clock::time_point epoch = Clock::now();
    OpenLoop loop(log, gen, tracer, "serve.submit", epoch);
    PoolClient client(templates, log, rep.tally, tracer);
    client.attach(pool.get(), epoch);
    std::uint64_t arrival_seed = opt.seed * 7919ULL;

    // ---- reference phase --------------------------------------------
    progress("serve: reference phase");
    // 30% of the run, and at least two latency windows.
    const auto n_ref = std::max(
        2 * kWindow, static_cast<std::size_t>(kRefRate * 0.3 * opt.seconds));
    std::vector<double> submit_us;
    const OpenLoop::Range ref_range = loop.phase(
        kRefRate, n_ref, ++arrival_seed,
        [&](std::size_t i, Entry &e) { return client.submit(i, e); },
        &submit_us);
    const std::size_t ref_first = ref_range.first, ref_last = ref_range.last;
    const SessionPool::Stats ref_stats = pool->stats();
    const std::vector<Sample> ref_samples = loop.samples(ref_first, ref_last);
    const LatencySummary ref = summarize(ref_samples);
    const WindowedLatency ref_w = windowed(ref_samples, kWindow);
    rep.e2eMetric("req_p50_us", ref_w.p50_us, "us");
    rep.e2eMetric("req_p99_us", ref_w.p99_us, "us");
    rep.note("reference_rate",
             std::to_string(static_cast<int>(kRefRate)) + " req/s, " +
                 std::to_string(n_ref) + " requests; p50/p99 are medians over " +
                 std::to_string(ref_w.windows) + " windows of " +
                 std::to_string(kWindow) + " (whole phase: p50 " +
                 std::to_string(ref.p50_us) + ", p99 " +
                 std::to_string(ref.p99_us) + " us)");

    // Backlog at the last submit: admitted - completed.
    const double backlog_end = static_cast<double>(
        ref_stats.admitted - ref_stats.completed);

    // ---- restart ----------------------------------------------------
    progress("serve: restart");
    pool->drain();
    const std::vector<EngineImage> before = poolImages(*pool);
    const tel::RegistrySnapshot ref_tel = pool->metrics().snapshot();
    std::uint64_t ref_changes = 0;
    double wm_total = 0;
    for (std::size_t s = 0; s < kSessions; ++s) {
        ref_changes += pool->engine(s).matcher().stats().changes_processed;
        wm_total += static_cast<double>(
            pool->engine(s).workingMemory().liveCount());
    }
    pool.reset();

    std::vector<double> restore_s;
    std::uint64_t wal_records_replayed = 0;
    double state_restored = 0;
    for (int r = 0; r < kRestores; ++r) {
        pool.reset();
        const Clock::time_point t0 = Clock::now();
        const std::uint32_t span = tracer.open("durable.restore", t0);
        pool = std::make_unique<SessionPool>(program, poolOptions(dir, true));
        const Clock::time_point t1 = Clock::now();
        tracer.close(span, t1);
        // Images are read before start(), while the pool is quiesced.
        if (r == 0) {
            compareImages(poolImages(*pool), before, "restored pool", rep);
            for (std::size_t s = 0; s < kSessions; ++s) {
                const auto &st = pool->recoveryStats(s);
                wal_records_replayed += st.wal_records_replayed;
                state_restored += st.state_restored ? 1.0 : 0.0;
                if (!st.recovered)
                    rep.fail("session " + std::to_string(s) +
                             " recovered nothing");
            }
            ++rep.tally.attempted;
        }
        const Clock::time_point t2 = Clock::now();
        pool->start();
        const Clock::time_point t3 = Clock::now();
        restore_s.push_back(secondsBetween(t0, t1) + secondsBetween(t2, t3));
    }
    rep.e2eMetric("recovery_s", percentile(restore_s, kFastTimePct), "s");
    rep.note("recovery", "pool rebuilt with restore=true, fastest of " +
                             std::to_string(kRestores) + " (median " +
                             std::to_string(median(restore_s)) + " s); " +
                             std::to_string(wal_records_replayed) +
                             " WAL records replayed across sessions");
    pool.reset();

    // ---- capacity ladder --------------------------------------------
    // Every search runs on its own pool restored from a copy of the
    // post-restart state, fed the same request stream, so the searches
    // of one run are comparable and working memory does not drift.
    const RequestGen gen_after_ref = gen;
    std::unique_ptr<RequestGen> branch_gen;
    std::unique_ptr<OpenLoop> branch_loop;
    std::vector<LogRange> branches;
    std::vector<std::vector<EngineImage>> branch_images;
    const std::string branch_dir = root + "/branch";
    measureCapacity(
        rep, kLadder, kLimitUs,
        [&](double rate) {
            progress("serve: ladder step " + std::to_string(rate));
            const auto n = std::max(
                kStepMin, static_cast<std::size_t>(rate * kStepSeconds));
            // Past twice the requests due within the latency limit, or
            // twice the limit behind schedule, the step has failed; stop
            // feeding the queue.
            const auto max_backlog =
                static_cast<std::size_t>(2 * rate * kLimitUs / 1e6) + 100;
            const OpenLoop::Range r = branch_loop->phase(
                rate, n, ++arrival_seed,
                [&](std::size_t i, Entry &e) { return client.submit(i, e); },
                nullptr, max_backlog, 2 * kLimitUs);
            StepVerdict v =
                judgeStep(loop.samples(r.first, r.last), rate, kLimitUs);
            v.aborted = r.aborted;
            v.ok = v.ok && !r.aborted;
            return v;
        },
        [&](int) {
            fs::remove_all(branch_dir, ec);
            fs::copy(dir, branch_dir, fs::copy_options::recursive);
            pool = std::make_unique<SessionPool>(
                program, poolOptions(branch_dir, true));
            pool->start();
            client.attach(pool.get(), epoch);
            branch_gen = std::make_unique<RequestGen>(gen_after_ref);
            branch_loop = std::make_unique<OpenLoop>(
                log, *branch_gen, tracer, "serve.submit", epoch);
            branches.emplace_back(log.size(), log.size());
        },
        [&](int) {
            pool->drain();
            branch_images.push_back(poolImages(*pool));
            pool.reset();
            branches.back().second = log.size();
        });
    {
        std::string sizes;
        for (const EngineImage &im : branch_images.back())
            sizes += std::to_string(im.wm.size()) + "/" +
                     std::to_string(im.cs.size()) + " ";
        rep.note("final_wm/conflict_set_per_session", sizes);
    }
    countFailures(log, rep.tally);
    rep.e2eMetric("peak_rss_mb", peakRssMb(), "MiB");

    // ---- oracle: serial Engines per session over the request log ----
    progress("serve: oracle replays");
    const LogRange ref_log{ref_first, ref_last};
    OracleRun serial;
    for (std::size_t k = 0; k < branches.size(); ++k) {
        OracleRun o = replayLog(
            program, log, {ref_log, branches[k]}, kSessions, templates, rep,
            "serial oracle");
        if (k == 0) {
            compareImages(before, o.at_first,
                          "pool before restart vs oracle", rep);
            serial = std::move(o);
        }
        compareImages(branch_images[k], k == 0 ? serial.images : o.images,
                      "pool after capacity search " + std::to_string(k + 1) +
                          " vs oracle",
                      rep);
    }
    fs::remove_all(root, ec);

    if (!opt.trace)
        return;

    // ---- per-layer metrics ------------------------------------------
    rep.layerMetric("serve.submit_us.p50", percentile(submit_us, 50));
    rep.layerMetric("serve.submit_us.p99", percentile(submit_us, 99));
    rep.layerMetric("serve.requests_per_batch",
                    ratio(static_cast<double>(ref_stats.completed),
                          static_cast<double>(ref_stats.batches)));
    rep.layerMetric("serve.assert_p50_us",
                    p50Of(log, ref_first, ref_last, RequestKind::Assert));
    rep.layerMetric("serve.retract_p50_us",
                    p50Of(log, ref_first, ref_last, RequestKind::Retract));
    rep.layerMetric("serve.run_p50_us",
                    p50Of(log, ref_first, ref_last, RequestKind::Run));
    rep.layerMetric(
        "serve.queue_depth.p50",
        ref_tel.histogram(tel::Histogram::ServeQueueDepth).percentile(50));
    rep.layerMetric("serve.backlog_end", backlog_end);
    const double attempted = static_cast<double>(rep.tally.attempted);
    rep.layerMetric("serve.rejected_ratio",
                    ratio(static_cast<double>(rep.tally.rejected), attempted));
    rep.layerMetric("serve.expired_ratio",
                    ratio(static_cast<double>(rep.tally.expired), attempted));
    rep.layerMetric("serve.generator_late_us.p99", ref.late_p99_us);

    const auto &ck = ref_tel.histogram(tel::Histogram::DurableCheckpointMs);
    rep.layerMetric(
        "durable.wal_bytes_per_change",
        ratio(static_cast<double>(
                  ref_tel.counter(tel::Counter::DurableWalBytes)),
              static_cast<double>(ref_changes)));
    rep.layerMetric(
        "durable.wal_append_us.p50",
        ref_tel.histogram(tel::Histogram::DurableWalAppendUs).percentile(50));
    rep.layerMetric("durable.checkpoint_ms.p50", ck.percentile(50));
    rep.layerMetric("durable.checkpoint_ms.max", static_cast<double>(ck.max));
    rep.layerMetric(
        "durable.snapshot_bytes_per_wme",
        ratio(ref_tel.histogram(tel::Histogram::DurableSnapshotBytes).mean(),
              wm_total / kSessions));
    rep.layerMetric("durable.wal_records_replayed",
                    static_cast<double>(wal_records_replayed));
    rep.layerMetric("durable.state_restored_share", state_restored / kSessions);
}

} // namespace perfbench
