#include "common.hpp"

#include <sys/statfs.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/engine.hpp"
#include "workloads.hpp"
#include "workloads/generator.hpp"

namespace perfbench {

namespace {

/** VmHWM of /proc/<pid>/status in KiB; 0 when unreadable. */
double
vmHwmKb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6));
    return 0.0;
}

} // namespace

double
peakRssMb(const std::vector<int> &child_pids)
{
    double kb = vmHwmKb("self");
    for (int pid : child_pids)
        kb += vmHwmKb(std::to_string(pid));
    return kb / 1024.0;
}

std::string
filesystemOf(const std::string &path)
{
    struct statfs st{};
    if (::statfs(path.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
      case 0xEF53: return "ext4";
      case 0x01021994: return "tmpfs";
      case 0x794c7630: return "overlayfs";
      case 0x58465342: return "xfs";
      case 0x9123683E: return "btrfs";
      case 0x6969: return "nfs";
      case 0x2fc12fc1: return "zfs";
      case 0x01021997: return "9p";
      case 0x6a656a63: return "virtiofs";
      case 0x65735546: return "fuse";
      default: break;
    }
    std::ostringstream os;
    os << "0x" << std::hex << st.f_type;
    return os.str();
}

bool
buildIsMeasurable(std::string &why_not)
{
#if !defined(__OPTIMIZE__)
    why_not = "built without optimisation";
    return false;
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    PERFBENCH_SANITIZED
    why_not = "built with sanitizers";
    return false;
#else
    why_not.clear();
    return true;
#endif
}

std::vector<std::pair<std::string, std::string>>
hostStamp()
{
    std::vector<std::pair<std::string, std::string>> out;
    out.emplace_back("nproc",
                     std::to_string(std::thread::hardware_concurrency()));
    std::string cpu = "unknown";
    {
        std::ifstream in("/proc/cpuinfo");
        std::string line;
        while (std::getline(in, line))
            if (line.rfind("model name", 0) == 0) {
                cpu = line.substr(line.find(':') + 2);
                break;
            }
    }
    out.emplace_back("cpu", cpu);
    out.emplace_back("compiler", PERFBENCH_CXX);
    out.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
    std::string why;
    out.emplace_back("optimised_no_sanitizers",
                     buildIsMeasurable(why) ? "yes" : "no (" + why + ")");
    return out;
}

std::shared_ptr<const psm::ops5::Program>
makeProgram(const psm::workloads::SystemPreset &preset)
{
    return psm::workloads::generateProgram(preset.config);
}

Schedule
makeSchedule(const psm::workloads::SystemPreset &preset,
             std::shared_ptr<const psm::ops5::Program> program,
             std::uint64_t seed, int n_batches, double remove_fraction)
{
    Schedule s;
    s.program = std::move(program);
    s.wm = std::make_unique<psm::ops5::WorkingMemory>();
    psm::workloads::ChangeStream stream(*s.program, *s.wm, preset.config,
                                        seed);
    s.batches.reserve(static_cast<std::size_t>(n_batches));
    for (int b = 0; b < n_batches; ++b) {
        s.batches.push_back(
            stream.nextBatch(preset.changes_per_firing, remove_fraction));
        s.changes += s.batches.back().size();
    }
    return s;
}

void
TimedMatcher::processChanges(std::span<const psm::ops5::WmeChange> c)
{
    if (batch_us_ == nullptr && !tracer_.enabled()) {
        inner_.processChanges(c);
        return;
    }
    const Clock::time_point t0 = Clock::now();
    inner_.processChanges(c);
    const Clock::time_point t1 = Clock::now();
    if (batch_us_)
        batch_us_->push_back(usBetween(t0, t1));
    tracer_.record(span_, t0, t1);
}

std::vector<std::pair<int, std::vector<psm::ops5::TimeTag>>>
conflictKeys(const psm::ops5::ConflictSet &cs)
{
    std::vector<std::pair<int, std::vector<psm::ops5::TimeTag>>> out;
    for (const psm::ops5::Instantiation &inst : cs.contents()) {
        auto k = psm::ops5::InstantiationKey::of(inst);
        out.emplace_back(k.production_id, std::move(k.tags));
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::pair<psm::ops5::TimeTag, std::string>>
wmImage(const psm::ops5::WorkingMemory &wm,
        const psm::ops5::Program &program)
{
    std::vector<std::pair<psm::ops5::TimeTag, std::string>> out;
    for (const psm::ops5::Wme *w : wm.liveElements())
        out.emplace_back(w->timeTag(),
                         w->toString(program.symbols(), program.types()));
    std::sort(out.begin(), out.end());
    return out;
}

EngineImage
imageOf(psm::core::Engine &engine)
{
    return {wmImage(engine.workingMemory(), engine.program()),
            conflictKeys(engine.matcher().conflictSet())};
}

void
compareImages(const std::vector<EngineImage> &got,
              const std::vector<EngineImage> &want, const std::string &what,
              Report &rep)
{
    for (std::size_t s = 0; s < want.size(); ++s) {
        if (s >= got.size() || got[s].wm != want[s].wm)
            rep.fail(what + ": session " + std::to_string(s) +
                     " working memory differs");
        else if (got[s].cs != want[s].cs)
            rep.fail(what + ": session " + std::to_string(s) +
                     " conflict set differs");
    }
}

void
measureCapacity(Report &rep, const Ladder &ladder, double limit_us,
                const std::function<StepVerdict(double)> &probe,
                const std::function<void(int)> &begin,
                const std::function<void(int)> &end)
{
    std::vector<double> found;
    char buf[160];
    for (int k = 0; k < kCapacitySearches; ++k) {
        if (begin)
            begin(k);
        // A rung fails only when a second try fails too (one stall of
        // the host should not decide the capacity), unless the first
        // was stopped early as clearly over capacity.
        const CapacityResult cap = findCapacity(
            ladder,
            [&](double rate) {
                StepVerdict v = probe(rate);
                return v.ok || v.aborted ? v : probe(rate);
            },
            kLadderStride);
        if (end)
            end(k);
        double capacity = cap.capacity_rps;
        std::string steps;
        if (cap.index < 0) {
            capacity = cap.steps.front().latency.achieved_rps;
            steps = "[below the ladder] ";
        } else if (cap.at_top) {
            steps = "[top of the ladder] ";
        }
        found.push_back(capacity);
        for (const StepVerdict &v : cap.steps) {
            std::snprintf(buf, sizeof buf,
                          "%.0f%s(p99 %.0fus, backlog %zu->%zu) ", v.rate,
                          v.ok ? "+" : v.aborted ? "-stopped" : "-", v.latency.p99_us, v.backlog_mid,
                          v.backlog_end);
            steps += buf;
        }
        std::snprintf(buf, sizeof buf, "%.0f req/s: ", capacity);
        rep.note("capacity_search_" + std::to_string(k + 1), buf + steps);
    }
    std::snprintf(buf, sizeof buf,
                  "median of %d searches; rule: p99 <= %.0f us, no "
                  "failures, no backlog growth; a failed rung is tried "
                  "twice",
                  kCapacitySearches, limit_us);
    rep.note("capacity_rule", buf);
    rep.e2eMetric("capacity_rps", median(found), "req/s");
}

void
progress(const std::string &what)
{
    static const Clock::time_point start = Clock::now();
    std::fprintf(stderr, "[perfbench %8.3fs] %s\n",
                 secondsBetween(start, Clock::now()), what.c_str());
}

void
waitUntil(Clock::time_point t)
{
    const auto coarse = t - std::chrono::microseconds(150);
    if (Clock::now() < coarse)
        std::this_thread::sleep_until(coarse);
    while (Clock::now() < t) {
    }
}

} // namespace perfbench
