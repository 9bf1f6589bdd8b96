/**
 * @file
 * cluster-hop: the in-process Router over two forked, non-durable
 * worker processes, sent the serving mix (retract by tag) over one
 * pipelined client connection at one fixed reference rate. The traced
 * run then sends the same requests at the same due times straight to
 * a worker, so the router hop can be read off as a difference.
 */

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <mutex>
#include <thread>
#include <unordered_map>

#include "cluster/load_driver.hpp"
#include "cluster/router.hpp"
#include "cluster/worker.hpp"
#include "loadgen.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using psm::cluster::Client;
using psm::cluster::ClusterError;
using psm::cluster::Router;
using psm::cluster::RouterOptions;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kSessions = 8;
constexpr std::uint64_t kFirstGsid = 1;
constexpr std::uint64_t kDirectGsid = 1001; ///< direct-to-worker sessions
constexpr std::size_t kTemplates = 4096;
constexpr double kRefRate = 2000.0;   ///< req/s in the reference phase
constexpr std::size_t kWindow = 2000; ///< requests per latency window

struct Child
{
    pid_t pid = -1;
    std::uint16_t port = 0;
};

/** Forks one worker process; it reports its port through a pipe and
 *  serves until killed (or until this process dies). Must be called
 *  while this process has a single thread. */
Child
forkWorker(const std::shared_ptr<const psm::ops5::Program> &program,
           std::uint32_t slot)
{
    int pfd[2];
    if (::pipe(pfd) != 0)
        throw std::runtime_error("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        ::close(pfd[0]);
        try {
            psm::cluster::WorkerOptions wo;
            wo.slot = slot;
            wo.queue_capacity = 1u << 20;
            psm::cluster::Worker w(program, wo);
            const std::uint16_t port = w.port();
            w.start();
            (void)!::write(pfd[1], &port, sizeof port);
            ::close(pfd[1]);
            for (;;)
                ::pause();
        } catch (...) {
        }
        ::_exit(11);
    }
    ::close(pfd[1]);
    Child c;
    c.pid = pid;
    const ssize_t n = ::read(pfd[0], &c.port, sizeof c.port);
    ::close(pfd[0]);
    if (n != static_cast<ssize_t>(sizeof c.port)) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        throw std::runtime_error("cluster worker failed to start");
    }
    return c;
}

void
reap(std::vector<Child> &children)
{
    for (const Child &c : children)
        ::kill(c.pid, SIGKILL);
    for (const Child &c : children)
        ::waitpid(c.pid, nullptr, 0);
    children.clear();
}

/**
 * Stops the router and kills and reaps the workers on every way out of
 * a scope. That closes the far end of every client connection, so it
 * must run before a client's destructor joins its reader: declare it
 * after the clients.
 */
struct Teardown
{
    std::unique_ptr<Router> &router;
    std::vector<Child> &workers;

    ~Teardown()
    {
        if (router)
            router->stop();
        reap(workers);
    }
};

/**
 * One pipelined client connection: the generator thread sends, a
 * reader thread matches each reply to its entry by request id. A
 * routed error or a lost connection marks the entry failed.
 */
class PipelinedClient
{
  public:
    PipelinedClient(std::uint16_t port, const psm::ops5::Program &program,
                    const std::vector<Template> &templates,
                    std::deque<Entry> &log, std::uint64_t first_gsid,
                    Tally &tally, Tracer &tracer, Clock::time_point epoch)
        : client_("127.0.0.1", port), program_(program),
          templates_(templates), log_(log), first_gsid_(first_gsid),
          tally_(tally), tracer_(tracer), epoch_(epoch)
    {}

    ~PipelinedClient() { stop(); }

    /** One synchronous no-op per session (retract of tag 0): opens
     *  every shard on its worker and proves the path answers. */
    void
    warmUp()
    {
        psm::serve::WireRequest req;
        req.kind = RequestKind::Retract;
        for (std::size_t s = 0; s < kSessions; ++s) {
            const Client::Reply r = client_.submit(first_gsid_ + s, req);
            if (r.error || !r.resp.accepted())
                throw ClusterError("warm-up request failed: " +
                                   r.error_text);
        }
    }

    void
    startReader()
    {
        reader_ = std::thread([this] { readLoop(); });
    }

    bool
    submit(std::size_t i, Entry &e)
    {
        ++tally_.attempted;
        psm::serve::Request req;
        psm::ops5::TimeTag tag = 0;
        switch (e.kind) {
          case RequestKind::Assert: {
            const Template &t = templates_[e.tmpl];
            req = psm::serve::Request::makeAssert(t.cls, t.fields);
            break;
          }
          case RequestKind::Retract:
            req.kind = RequestKind::Retract;
            tag = log_[static_cast<std::size_t>(e.target)].tag;
            break;
          case RequestKind::Run:
            req = psm::serve::Request::makeRun(e.run_cycles);
            break;
        }
        return send(i, e, psm::serve::toWire(req, program_.symbols(), tag));
    }

    /** Joins the reader, which ends when the far end closes the
     *  connection (router stopped or worker killed). */
    void
    stop()
    {
        if (reader_.joinable())
            reader_.join();
    }

  private:
    bool
    send(std::size_t i, Entry &e, const psm::serve::WireRequest &wire)
    {
        // The reader looks replies up under the same lock, so a reply
        // that beats the insert waits for it.
        std::lock_guard<std::mutex> lk(mu_);
        const Clock::time_point s0 = Clock::now();
        try {
            pending_.emplace(client_.sendSubmit(first_gsid_ + e.session, wire),
                             &e);
        } catch (const ClusterError &) {
            e.error = true;
            return false;
        }
        tracer_.record("cluster.sendSubmit", s0, Clock::now(), 0, i + 1);
        return true;
    }

    void
    readLoop()
    {
        for (;;) {
            Client::Reply r;
            try {
                r = client_.readReply();
            } catch (const ClusterError &) {
                break;
            } catch (const std::exception &) {
                break;
            }
            const Clock::time_point now = Clock::now();
            Entry *e = nullptr;
            {
                std::lock_guard<std::mutex> lk(mu_);
                auto it = pending_.find(r.req_id);
                if (it != pending_.end()) {
                    e = it->second;
                    pending_.erase(it);
                }
            }
            if (e == nullptr)
                continue;
            e->sample.done_us = usBetween(epoch_, now);
            if (r.error || !r.resp.accepted()) {
                e->error = true;
                e->sample.ok = false;
            } else {
                e->expired = r.resp.deadline_expired;
                e->sample.ok = !e->expired;
                e->tag = r.resp.tag;
                e->retracted = r.resp.retracted;
                e->firings = r.resp.run.firings;
            }
            e->ready.store(true, std::memory_order_release);
        }
        // Connection gone: whatever is still pending is lost.
        std::lock_guard<std::mutex> lk(mu_);
        for (auto &[id, e] : pending_) {
            e->error = true;
            e->sample.ok = false;
            e->ready.store(true, std::memory_order_release);
        }
        pending_.clear();
    }

    Client client_;
    const psm::ops5::Program &program_;
    const std::vector<Template> &templates_;
    std::deque<Entry> &log_;
    std::uint64_t first_gsid_;
    Tally &tally_;
    Tracer &tracer_;
    Clock::time_point epoch_;
    std::mutex mu_;
    std::unordered_map<std::uint64_t, Entry *> pending_;
    std::thread reader_;
};

} // namespace

void
runCluster(const Options &opt, Report &rep, Tracer &tracer)
{
    const psm::workloads::SystemPreset preset = psm::workloads::tinyPreset();
    rep.note("workers", std::to_string(kWorkers) +
                            " forked processes, not durable");
    rep.note("sessions", std::to_string(kSessions));
    rep.note("mix", mixNote() + ", retract by time tag");
    rep.note("connection", "one pipelined client connection to the router");

    // ---- set-up, repeated: generate, fork workers, start the router --
    SetupTimes setup;
    std::shared_ptr<const psm::ops5::Program> program;
    std::vector<Template> templates;
    std::vector<Child> workers;
    std::unique_ptr<Router> router;
    const Clock::time_point epoch = Clock::now();
    std::deque<Entry> log;
    std::unique_ptr<PipelinedClient> client;
    Teardown teardown{router, workers};
    auto routerOptions = [&] {
        RouterOptions ro;
        for (const Child &c : workers)
            ro.workers.push_back({"127.0.0.1", c.port});
        return ro;
    };
    for (int r = 0; r < kSetupRepeats; ++r) {
        // Tear the previous fleet down completely: forking needs a
        // single-threaded process.
        client.reset();
        if (router)
            router->stop();
        router.reset();
        reap(workers);
        const Clock::time_point t0 = Clock::now();
        program = makeProgram(preset);
        templates = makeTemplates(preset, *program, opt.seed, kTemplates);
        const Clock::time_point t1 = Clock::now();
        for (std::uint32_t w = 0; w < kWorkers; ++w)
            workers.push_back(forkWorker(program, w));
        const Clock::time_point t2 = Clock::now();
        router = std::make_unique<Router>(routerOptions());
        router->start();
        client = std::make_unique<PipelinedClient>(
            router->port(), *program, templates, log, kFirstGsid, rep.tally,
            tracer, epoch);
        client->warmUp();
        const Clock::time_point t3 = Clock::now();
        setup.total_s.push_back(secondsBetween(t0, t3));
        setup.program_ms.push_back(msBetween(t0, t1));
        setup.workers_ms.push_back(msBetween(t1, t2));
        setup.pool_ms.push_back(msBetween(t2, t3));
        const Clock::time_point n0 = Clock::now();
        psm::serve::makeMatcher(program, {});
        setup.network_ms.push_back(msBetween(n0, Clock::now()));
    }
    setup.report(rep);
    client->startReader();

    RequestGen gen(templates.size(), kSessions, opt.seed);
    OpenLoop loop(log, gen, tracer, "cluster.submit", epoch);
    const std::uint64_t arrival_seed = opt.seed * 7919ULL + 1;

    // ---- reference phase --------------------------------------------
    progress("cluster: reference phase");
    // 80% of the run, and at least two latency windows.
    const auto n_ref = std::max(
        2 * kWindow, static_cast<std::size_t>(kRefRate * 0.8 * opt.seconds));
    std::vector<double> send_us;
    const OpenLoop::Range ref_range = loop.phase(
        kRefRate, n_ref, arrival_seed,
        [&](std::size_t i, Entry &e) { return client->submit(i, e); },
        &send_us);
    const std::vector<Sample> ref_samples =
        loop.samples(ref_range.first, ref_range.last);
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

    // ---- direct to a worker, no router (traced run only) ------------
    // Right after the reference phase: the same request stream, due
    // times and count, on fresh sessions of worker 0.
    std::deque<Entry> direct_log;
    OpenLoop::Range direct_range{0, 0};
    double direct_p50 = 0.0;
    psm::cluster::RouterStats rstats;
    auto shutDown = [&] {
        router->stop();
        rstats = router->stats();
        rep.e2eMetric("peak_rss_mb",
                      peakRssMb({workers[0].pid, workers[1].pid}), "MiB");
        reap(workers);
    };
    if (opt.trace) {
        progress("cluster: direct phase");
        RequestGen dgen(templates.size(), kSessions, opt.seed);
        OpenLoop dloop(direct_log, dgen, tracer, "cluster.direct_submit",
                       epoch);
        PipelinedClient direct(workers[0].port, *program, templates,
                               direct_log, kDirectGsid, rep.tally, tracer,
                               epoch);
        Teardown direct_teardown{router, workers};
        direct.warmUp();
        direct.startReader();
        direct_range = dloop.phase(
            kRefRate, n_ref, arrival_seed,
            [&](std::size_t i, Entry &e) { return direct.submit(i, e); },
            nullptr);
        direct_p50 =
            windowed(dloop.samples(direct_range.first, direct_range.last),
                     kWindow)
                .p50_us;
        // The reader ends when the worker goes away.
        shutDown();
        direct.stop();
        countFailures(direct_log, rep.tally);
    } else {
        shutDown();
    }
    client.reset();
    router.reset();
    countFailures(log, rep.tally);
    if (rstats.errors != 0)
        rep.note("router_errors", std::to_string(rstats.errors));

    // ---- oracle: every answer against serial Engines per session ----
    progress("cluster: oracle replays");
    replayLog(program, log, {{ref_range.first, ref_range.last}}, kSessions,
              templates, rep, "serial oracle");
    if (opt.trace)
        replayLog(program, direct_log,
                  {{direct_range.first, direct_range.last}}, kSessions,
                  templates, rep, "serial oracle, direct phase");

    if (!opt.trace)
        return;

    rep.layerMetric("serve.generator_late_us.p99", ref.late_p99_us);
    rep.layerMetric("cluster.send_us.p50", percentile(send_us, 50));
    rep.layerMetric("cluster.direct_p50_us", direct_p50);
    rep.layerMetric("cluster.router_hop_us", ref_w.p50_us - direct_p50);
    rep.layerMetric("cluster.errors_ratio",
                    ratio(static_cast<double>(rep.tally.errors),
                          static_cast<double>(rep.tally.attempted)));
}

} // namespace perfbench
