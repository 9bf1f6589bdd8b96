/**
 * @file
 * perfbench: the repository benchmark binary.
 *
 *   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
 *             [--out-dir DIR]
 *
 * Prints stamp and metric lines, then, as the last line, one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics on an untraced run, the per-layer metrics on a traced one.
 * Exits non-zero when a correctness check failed, and refuses (exit 2,
 * no result) to report numbers from an unoptimised or sanitized build.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Every end-to-end metric; each workload reports the ones its
 *  Workload entry names. */
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"serial_wme_changes_per_s", "changes/s"},
    {"parallel_wme_changes_per_s", "changes/s"},
    {"req_p50_us", "us"},
    {"req_p99_us", "us"},
    {"capacity_rps", "req/s"},
    {"recovery_s", "s"},
};

/** Every per-layer metric; each workload reports those of the layers
 *  its Workload entry names. */
constexpr MetricDef kPerLayer[] = {
    {"rete.batch_us.p50", "us"},
    {"rete.batch_us.p99", "us"},
    {"rete.comparisons_per_change", "count"},
    {"rete.tokens_per_change", "count"},
    {"rete.activations_per_change", "count"},
    {"rete.instructions_per_change", "count"},
    {"core.batch_us.p50", "us"},
    {"core.batch_us.p99", "us"},
    {"core.true_speedup", "ratio"},
    {"core.sharing_loss", "ratio"},
    {"core.tasks_per_change", "count"},
    {"core.queued_task_share", "ratio"},
    {"core.instr_per_task", "count"},
    {"core.park_ns_per_batch", "ns"},
    {"core.idle_spins_per_batch", "count"},
    {"core.join_lock_contended_ratio", "ratio"},
    {"core.not_lock_contended_ratio", "ratio"},
    {"core.trace_overhead", "ratio"},
    {"serve.submit_us.p50", "us"},
    {"serve.submit_us.p99", "us"},
    {"serve.requests_per_batch", "count"},
    {"serve.assert_p50_us", "us"},
    {"serve.retract_p50_us", "us"},
    {"serve.run_p50_us", "us"},
    {"serve.queue_depth.p50", "count"},
    {"serve.backlog_end", "count"},
    {"serve.rejected_ratio", "ratio"},
    {"serve.expired_ratio", "ratio"},
    {"serve.generator_late_us.p99", "us"},
    {"durable.wal_bytes_per_change", "B"},
    {"durable.wal_append_us.p50", "us"},
    {"durable.checkpoint_ms.p50", "ms"},
    {"durable.checkpoint_ms.max", "ms"},
    {"durable.snapshot_bytes_per_wme", "B"},
    {"durable.wal_records_replayed", "count"},
    {"durable.state_restored_share", "ratio"},
    {"cluster.send_us.p50", "us"},
    {"cluster.direct_p50_us", "us"},
    {"cluster.router_hop_us", "us"},
    {"cluster.errors_ratio", "ratio"},
    {"setup.program_ms", "ms"},
    {"setup.network_ms", "ms"},
    {"setup.pool_ms", "ms"},
    {"setup.workers_ms", "ms"},
};

struct Workload
{
    const char *name;
    void (*run)(const Options &, Report &, Tracer &);
    std::vector<std::string> e2e;           ///< end-to-end metric names
    std::vector<std::string> layer_prefixes; ///< per-layer name prefixes
};

const std::vector<Workload> kWorkloads = {
    {"match-churn",
     [](const Options &o, Report &r, Tracer &t) { runMatch(o, r, t, false); },
     {"setup_s", "peak_rss_mb", "serial_wme_changes_per_s",
      "parallel_wme_changes_per_s"},
     {"rete.", "core.", "setup."}},
    {"match-growth",
     [](const Options &o, Report &r, Tracer &t) { runMatch(o, r, t, true); },
     {"setup_s", "peak_rss_mb", "serial_wme_changes_per_s",
      "parallel_wme_changes_per_s"},
     {"rete.", "core.", "setup."}},
    {"serve-durable", runServe,
     {"setup_s", "peak_rss_mb", "req_p50_us", "req_p99_us", "capacity_rps",
      "recovery_s"},
     {"serve.", "durable.", "setup."}},
    {"cluster-hop", runCluster,
     {"setup_s", "peak_rss_mb", "req_p50_us", "req_p99_us"},
     {"cluster.", "setup.", "serve.generator_late_us."}},
};

bool
contains(const std::vector<std::string> &names, const char *name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

bool
hasPrefix(const std::vector<std::string> &prefixes, const char *name)
{
    for (const std::string &p : prefixes)
        if (std::strncmp(name, p.c_str(), p.size()) == 0)
            return true;
    return false;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "match-churn|match-growth|serve-durable|cluster-hop\n"
                 "                 [--seed N] [--seconds S] [--trace 0|1] "
                 "[--out-dir DIR]\n");
    return 2;
}

/** A JSON number with all its digits (17 significant). */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch;
    }
    return out + "\"";
}

void
printSelfTimes(const Tracer &tracer)
{
    std::printf("# self time per span (traced run):\n");
    std::printf("#   %-28s %10s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto &[name, st] : tracer.selfTimes())
        std::printf("#   %-28s %10llu %12.3f %12.3f\n", name.c_str(),
                    static_cast<unsigned long long>(st.count), st.total_ms,
                    st.self_ms);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                opt.workload = v;
            else if (a == "--seed")
                opt.seed = std::stoull(v);
            else if (a == "--seconds")
                opt.seconds = std::stod(v);
            else if (a == "--trace")
                opt.trace = std::stoi(v) != 0;
            else if (a == "--out-dir")
                opt.out_dir = v;
            else
                return usage();
        } catch (const std::exception &) {
            return usage();
        }
    }
    const Workload *wl = nullptr;
    for (const Workload &w : kWorkloads)
        if (opt.workload == w.name)
            wl = &w;
    if (wl == nullptr || opt.seconds <= 0)
        return usage();

    std::string why;
    if (!buildIsMeasurable(why)) {
        std::fprintf(stderr, "perfbench: refusing to report numbers: %s\n",
                     why.c_str());
        return 2;
    }

    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);

    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    for (const auto &[k, v] : hostStamp())
        std::printf("# stamp %s: %s\n", k.c_str(), v.c_str());
    std::fflush(stdout);

    Report rep;
    Tracer tracer(opt.trace);
    try {
        wl->run(opt, rep, tracer);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }
    bool have_rss = false;
    for (const Metric &m : rep.e2e)
        have_rss = have_rss || m.name == "peak_rss_mb";
    if (!have_rss)
        rep.e2eMetric("peak_rss_mb", peakRssMb(), "MiB");

    for (const auto &[k, v] : rep.notes)
        std::printf("# note %s: %s\n", k.c_str(), v.c_str());

    std::map<std::string, double> e2e, layer;
    for (const Metric &m : rep.e2e)
        e2e[m.name] = m.value;
    for (const Metric &m : rep.layer)
        layer[m.name] = m.value;

    bool complete = true;
    for (const MetricDef &d : kEndToEnd) {
        if (!contains(wl->e2e, d.name))
            continue;
        auto it = e2e.find(d.name);
        if (it == e2e.end() || !std::isfinite(it->second) ||
            it->second <= 0) {
            std::fprintf(stderr, "perfbench: end-to-end metric %s %s\n",
                         d.name,
                         it == e2e.end() ? "missing" : "not a positive number");
            complete = false;
            continue;
        }
        std::printf("%-30s %16.4f %s\n", d.name, it->second, d.unit);
    }
    if (opt.trace) {
        for (const MetricDef &d : kPerLayer)
            if (hasPrefix(wl->layer_prefixes, d.name))
                std::printf("%-34s %16.4f %s\n", d.name, layer[d.name], d.unit);
        printSelfTimes(tracer);
        const std::string path = opt.out_dir + "/trace-" + opt.workload +
                                 "-seed" + std::to_string(opt.seed) + ".json";
        if (tracer.writeChromeJson(path))
            std::printf("# trace: %zu spans (%llu dropped) written to %s\n",
                        tracer.size(),
                        static_cast<unsigned long long>(tracer.dropped()),
                        path.c_str());
    }
    const Tally &t = rep.tally;
    std::printf("ops %llu\nops_failed %llu  (rejected %llu, expired %llu, "
                "errors %llu, check mismatches %llu)\n",
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed()),
                static_cast<unsigned long long>(t.rejected),
                static_cast<unsigned long long>(t.expired),
                static_cast<unsigned long long>(t.errors),
                static_cast<unsigned long long>(t.mismatches));
    for (const std::string &f : rep.check_failures)
        std::printf("# check failed: %s\n", f.c_str());

    const bool correct = complete && t.failed() == 0 && t.attempted > 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                      t.attempted, 1));
    json += ", \"failed\": " + std::to_string(t.failed());
    json += ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const char *name, double v, const char *unit) {
        json += first ? "" : ", ";
        first = false;
        json += jsonString(name) + ": {\"value\": " + num(v) +
                ", \"unit\": " + jsonString(unit) + "}";
    };
    if (opt.trace) {
        for (const MetricDef &d : kPerLayer)
            if (hasPrefix(wl->layer_prefixes, d.name))
                emit(d.name, layer[d.name], d.unit);
    } else {
        for (const MetricDef &d : kEndToEnd)
            if (contains(wl->e2e, d.name))
                emit(d.name, e2e.count(d.name) ? e2e[d.name] : 0.0, d.unit);
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
