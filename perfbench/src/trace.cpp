#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

std::int64_t
traceNs(Clock::time_point t)
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
        .count();
}

Tracer::Tracer(bool enabled, std::size_t cap) : enabled_(enabled), cap_(cap)
{
    if (enabled_)
        spans_.reserve(1 << 16);
}

std::uint32_t
Tracer::nameId(const char *name)
{
    auto [it, fresh] = name_ids_.emplace(
        name, static_cast<std::uint32_t>(names_.size()));
    if (fresh)
        names_.emplace_back(name);
    return it->second;
}

std::uint32_t
Tracer::record(const char *name, Clock::time_point t0, Clock::time_point t1,
               std::uint32_t parent, std::uint64_t req)
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lk(mu_);
    if (spans_.size() >= cap_) {
        ++dropped_;
        return 0;
    }
    spans_.push_back({nameId(name), parent, req, traceNs(t0), traceNs(t1)});
    return static_cast<std::uint32_t>(spans_.size());
}

std::uint32_t
Tracer::open(const char *name, Clock::time_point t0, std::uint32_t parent)
{
    return record(name, t0, t0, parent);
}

void
Tracer::close(std::uint32_t id, Clock::time_point t1)
{
    if (id == 0)
        return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_[id - 1].t1_ns = traceNs(t1);
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

std::map<std::string, SelfTime>
Tracer::selfTimes() const
{
    std::lock_guard<std::mutex> lk(mu_);
    // Children of each span, as [t0, t1) intervals.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans_.size());
    for (const Span &s : spans_)
        if (s.parent != 0 && s.parent <= spans_.size())
            kids[s.parent - 1].emplace_back(s.t0_ns, s.t1_ns);
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::int64_t dur = s.t1_ns - s.t0_ns;
        // Union of the children's intervals clipped to the parent.
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.t0_ns);
            hi = std::min(hi, s.t1_ns);
            if (hi <= lo)
                continue;
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        SelfTime &st = out[names_[s.name]];
        ++st.count;
        st.total_ms += static_cast<double>(dur) / 1e6;
        st.self_ms += static_cast<double>(dur - covered) / 1e6;
    }
    return out;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\":[\n";
    // Root spans sit on a track of their own name; descendants share
    // their root's track so nesting renders.
    std::vector<std::uint32_t> root(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        root[i] = (s.parent != 0 && s.parent <= i) ? root[s.parent - 1]
                                                   : s.name;
    }
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                      "{\"id\":%zu,\"parent\":%u,\"req\":%llu}}",
                      i ? ",\n" : "", names_[s.name].c_str(), root[i],
                      static_cast<double>(s.t0_ns) / 1e3,
                      static_cast<double>(s.t1_ns - s.t0_ns) / 1e3, i + 1,
                      s.parent, static_cast<unsigned long long>(s.req));
        os << buf;
    }
    os << "\n],\"displayTimeUnit\":\"ns\",\"dropped\":" << dropped_
       << "}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
