/**
 * @file
 * Benchmark program: runs one named workload against the impsim
 * libraries and writes its raw measurements as JSON.
 *
 * Every layer is reached through its public entry point only, so each
 * is timed from outside: ConfigFile::parseString + bindExperiment,
 * makeWorkload / recordTrace, System::System / System::run,
 * SweepRunner::run, writeCsvRow, JobServer::start and the
 * server::submitAndWait / server::fetchResult client. The program
 * checks every output it produces against runExperiment() and counts
 * each check as one attempted operation. perfbench/run.py builds this
 * program, runs it and turns the raw JSON into the benchmark's
 * metrics; README.md in this directory describes the workloads.
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    --workdir DIR --out FILE
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/resource.h>

#include "common/config_file.hpp"
#include "common/thread_annotations.hpp"
#include "server/client.hpp"
#include "server/job_server.hpp"
#include "sim/experiment_runner.hpp"
#include "sim/report.hpp"
#include "sim/sweep_runner.hpp"
#include "sim/system.hpp"
#include "workloads/trace_io.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace impsim;
using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- Spans ------------------------------------------------------------

/** One timed call into a layer, recorded by the traced run. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span in the list; -1 for a root. */
    int parent = -1;
    /** Setup, pass, sim or job number the span belongs to. */
    std::int64_t id = 0;
};

/**
 * Span list kept in memory and written out once at exit. Disabled, it
 * records nothing and begin() returns -1, so the untimed bookkeeping
 * of an untraced run is one branch per call.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    int
    begin(const char *name, int parent, std::int64_t id)
    {
        if (!enabled_)
            return -1;
        std::int64_t now = nowNs();
        MutexLock lock(mutex_);
        spans_.push_back(Span{name, now, now, parent, id});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    end(int span)
    {
        if (span < 0)
            return;
        std::int64_t now = nowNs();
        MutexLock lock(mutex_);
        spans_[static_cast<std::size_t>(span)].endNs = now;
    }

    std::vector<Span>
    spans()
    {
        MutexLock lock(mutex_);
        return spans_;
    }

  private:
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    const bool enabled_;
    const Clock::time_point epoch_ = Clock::now();
    Mutex mutex_;
    std::vector<Span> spans_ IMPSIM_GUARDED_BY(mutex_);
};

/** Records one span over its scope. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const char *name, int parent = -1,
              std::int64_t id = 0)
        : tracer_(tracer), span_(tracer.begin(name, parent, id))
    {
    }
    ~SpanScope() { tracer_.end(span_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int index() const { return span_; }

  private:
    Tracer &tracer_;
    int span_;
};

/**
 * Runs @p f as one call into layer @p name: always timed (the
 * untraced run's metrics need it), also a span when tracing.
 * @return the call's wall time in milliseconds.
 */
template <class F>
double
timed(Tracer &tracer, const char *name, int parent, std::int64_t id,
      F &&f)
{
    SpanScope span(tracer, name, parent, id);
    Clock::time_point t0 = Clock::now();
    f();
    return msBetween(t0, Clock::now());
}

// ---- Raw output -------------------------------------------------------

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Flat JSON object built key by key. */
class JsonObject
{
  public:
    void
    number(const std::string &key, double v)
    {
        raw(key, jsonNumber(v));
    }

    void
    numbers(const std::string &key, const std::vector<double> &vs)
    {
        std::string list = "[";
        for (std::size_t i = 0; i < vs.size(); ++i)
            list += (i ? "," : "") + jsonNumber(vs[i]);
        raw(key, list + "]");
    }

    void
    strings(const std::string &key, const std::vector<std::string> &vs)
    {
        std::string list = "[";
        for (std::size_t i = 0; i < vs.size(); ++i)
            list += (i ? "," : "") + jsonString(vs[i]);
        raw(key, list + "]");
    }

    void
    raw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ",") + jsonString(key) + ":" + json;
    }

    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
spansJson(const std::vector<Span> &spans)
{
    std::string out = "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        JsonObject o;
        o.raw("name", jsonString(spans[i].name));
        o.number("start_ns", static_cast<double>(spans[i].startNs));
        o.number("end_ns", static_cast<double>(spans[i].endNs));
        o.number("parent", spans[i].parent);
        o.number("id", static_cast<double>(spans[i].id));
        out += (i ? "," : "") + o.text();
    }
    return out + "]";
}

/** Correctness checks, each one attempted operation. Thread-safe. */
class Checks
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        MutexLock lock(mutex_);
        ++attempted_;
        if (!ok) {
            ++failed_;
            if (errors_.size() < 20)
                errors_.push_back(what);
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
        }
    }

    void
    write(JsonObject &o)
    {
        MutexLock lock(mutex_);
        o.number("attempted", static_cast<double>(attempted_));
        o.number("failed", static_cast<double>(failed_));
        o.strings("errors", errors_);
    }

  private:
    Mutex mutex_;
    std::uint64_t attempted_ IMPSIM_GUARDED_BY(mutex_) = 0;
    std::uint64_t failed_ IMPSIM_GUARDED_BY(mutex_) = 0;
    std::vector<std::string> errors_ IMPSIM_GUARDED_BY(mutex_);
};

/** Simulated-machine counts summed over a set of runs. */
struct MachineCounts
{
    SimStats sum;

    void
    add(const SimStats &s)
    {
        sum.cycles += s.cycles;
        sum.core.merge(s.core);
        sum.l1.merge(s.l1);
        sum.l2.merge(s.l2);
        sum.noc.merge(s.noc);
        sum.dram.merge(s.dram);
        sum.tlb.merge(s.tlb);
    }

    std::string
    json() const
    {
        const SimStats &s = sum;
        auto lookups = [](const CacheStats &c) {
            return c.hits + c.misses + c.prefLate + c.demandMerges;
        };
        auto ratio = [](double num, double den) {
            return den == 0 ? 0.0 : num / den;
        };
        std::uint64_t l1 = lookups(s.l1);
        std::uint64_t rows = s.dram.rowHits + s.dram.rowMisses;
        JsonObject o;
        o.number("sim.cycles", static_cast<double>(s.cycles));
        o.number("cpu.insts", static_cast<double>(s.core.instructions));
        o.number("cache.l1_accesses", static_cast<double>(l1));
        o.number("cache.l1_miss_ratio",
                 ratio(static_cast<double>(s.l1.misses),
                       static_cast<double>(l1)));
        o.number("cache.l1_retries", static_cast<double>(s.l1.retries));
        o.number("cache.l2_accesses",
                 static_cast<double>(lookups(s.l2)));
        o.number("core.pf_issued", static_cast<double>(s.l1.prefIssued));
        o.number("core.pf_accuracy", s.l1.accuracy());
        o.number("core.pf_coverage", s.l1.coverage());
        o.number("core.tlb_walks", static_cast<double>(s.tlb.walks));
        o.number("core.tlb_walk_accesses",
                 static_cast<double>(s.tlb.walkAccesses));
        o.number("core.tlb_stall_cycles",
                 static_cast<double>(s.tlb.stallCycles));
        o.number("noc.messages", static_cast<double>(s.noc.messages));
        o.number("noc.flit_hops", static_cast<double>(s.noc.flitHops));
        o.number("noc.queue_cycles",
                 static_cast<double>(s.noc.queueCycles));
        o.number("dram.requests",
                 static_cast<double>(s.dram.reads + s.dram.writes));
        o.number("dram.row_hit_ratio",
                 ratio(static_cast<double>(s.dram.rowHits),
                       static_cast<double>(rows)));
        o.number("dram.queue_cycles",
                 static_cast<double>(s.dram.queueCycles));
        return o.text();
    }
};

/** Peak count of live threads in this process, sampled. */
class ThreadPeak
{
  public:
    void
    sample()
    {
        std::ifstream in("/proc/self/status");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("Threads:", 0) == 0) {
                unsigned n = static_cast<unsigned>(
                    std::strtoul(line.c_str() + 8, nullptr, 10));
                unsigned prev = peak_.load();
                while (n > prev && !peak_.compare_exchange_weak(prev, n)) {
                }
                return;
            }
        }
    }
    unsigned peak() const { return peak_.load(); }

  private:
    std::atomic<unsigned> peak_{0};
};

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/**
 * Compares @p got with the reference output row by row: one check per
 * reference line, so a wrong simulation counts as one failed run.
 */
void
checkRows(Checks &checks, const std::string &got, const std::string &want,
          const std::string &what)
{
    std::vector<std::string> g = splitLines(got);
    std::vector<std::string> w = splitLines(want);
    for (std::size_t i = 0; i < w.size(); ++i) {
        checks.expect(i < g.size() && g[i] == w[i],
                      what + ": line " + std::to_string(i + 1) +
                          " differs from runExperiment");
    }
    checks.expect(g.size() == w.size(),
                  what + ": line count differs from runExperiment");
}

Experiment
bindConfig(Tracer &tracer, int parent, std::int64_t id,
           const std::string &text, const std::string &origin)
{
    SpanScope span(tracer, "config.bind", parent, id);
    return bindExperiment(ConfigFile::parseString(text, origin));
}

WorkloadParams
paramsOf(const ExperimentRun &r)
{
    WorkloadParams p;
    p.numCores = r.cfg.numCores;
    p.swPrefetch = r.swPrefetch;
    p.scale = r.scale;
    p.seed = r.seed;
    p.tracePath = r.tracePath;
    return p;
}

std::string
csvOf(Tracer &tracer, std::int64_t id,
      const std::vector<SweepResult> &results, bool withTlb)
{
    SpanScope span(tracer, "report.csv", -1, id);
    std::ostringstream os;
    writeCsvHeader(os, withTlb);
    for (const SweepResult &r : results)
        writeCsvRow(os, r.name, r.stats, withTlb);
    return os.str();
}

/**
 * Runs @p jobs with each System::System and System::run timed from
 * outside, as spans under @p parent. The schedule is a copy of
 * SweepRunner::run's: min(workers, jobs) fresh threads claim jobs in
 * index order while the caller waits; a single worker runs inline.
 * SweepRunner's SweepControl and lease hooks are left out; the
 * benchmark passes neither.
 */
std::vector<SweepResult>
runTraced(Tracer &tracer, int parent, const std::vector<SweepJob> &jobs,
          unsigned workers)
{
    std::vector<SweepResult> results(jobs.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= jobs.size())
                return;
            const SweepJob &job = jobs[i];
            auto n = static_cast<std::int64_t>(i);
            std::unique_ptr<System> sys;
            timed(tracer, "sim.build", parent, n, [&] {
                sys = std::make_unique<System>(job.cfg, *job.traces,
                                               *job.mem);
            });
            timed(tracer, "sim.run", parent, n, [&] {
                results[i] = SweepResult{job.name, sys->run(job.limit), true};
            });
        }
    };
    auto n = static_cast<unsigned>(
        std::min<std::size_t>(workers, jobs.size()));
    if (n <= 1) {
        worker();
        return results;
    }
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < n; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    return results;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10;
    bool trace = false;
    std::string workdir;
    std::string out;
};

// ---- Sweep workloads --------------------------------------------------

struct SweepSpec
{
    /** Experiment config; "@SEED@" is replaced by the workload seed. */
    std::string config;
    unsigned workers;
};

/** The bound experiment plus one generated input per distinct key. */
struct SweepInputs
{
    Experiment exp;
    std::map<std::tuple<AppId, std::uint32_t, bool, double,
                        std::uint64_t, std::string>,
             std::unique_ptr<Workload>>
        workloads;
    std::vector<SweepJob> jobs;
    std::uint64_t accesses = 0;
};

/** One measured sweep pass. */
struct Pass
{
    double wallMs = 0;
    std::string csv;
    std::uint64_t insts = 0;
    MachineCounts counts;
};

class SweepBench
{
  public:
    SweepBench(const Options &opt, const SweepSpec &spec)
        : opt_(opt), spec_(spec), tracer_(opt.trace),
          runner_(spec.workers)
    {
        text_ = spec.config;
        const std::string mark = "@SEED@";
        text_.replace(text_.find(mark), mark.size(),
                      std::to_string(opt.seed));
    }

    std::string
    run()
    {
        // Reference and warm-up in one: the same sims through the
        // single path the CLI and the server use. Untimed.
        Experiment refExp = bindExperiment(
            ConfigFile::parseString(text_, origin_));
        std::ostringstream ref;
        SweepControl ctl;
        ctl.onProgress = [this](std::size_t, std::size_t) {
            threads_.sample();
        };
        ExperimentRunOptions ro;
        ro.runner = &runner_;
        ro.control = &ctl;
        checks_.expect(runExperiment(refExp, ref, ro),
                       "runExperiment finished");
        reference_ = ref.str();

        // Every pass runs on inputs set up afresh just before it, so
        // set-ups are timed across the whole run, as passes are. The
        // traced run alternates SweepRunner passes with traced ones,
        // so both kinds see the same host conditions.
        std::unique_ptr<SweepInputs> in;
        Clock::time_point start = Clock::now();
        int id = 0;
        do {
            in.reset();
            Clock::time_point t0 = Clock::now();
            in = setUp(static_cast<int>(setupS_.size()));
            setupS_.push_back(msBetween(t0, Clock::now()) / 1000);
            withTlb_ = experimentUsesTlb(in->exp);
            passes_.push_back(runnerPass(*in, id++));
            if (opt_.trace)
                traced_.push_back(instrumentedPass(*in, id++));
        } while (msBetween(start, Clock::now()) < opt_.seconds * 1000 ||
                 passes_.size() < kMinPasses);

        checks_.expect(passes_.front().csv == reference_,
                       "bind->generate->sweep output equals "
                       "runExperiment output");
        for (const std::vector<Pass> *list : {&passes_, &traced_}) {
            for (const Pass &p : *list) {
                checkRows(checks_, p.csv, reference_,
                          "pass " + std::to_string(&p - list->data()));
                checks_.expect(p.counts.sum.cycles ==
                                   passes_.front().counts.sum.cycles,
                               "simulated cycles equal across passes");
            }
        }
        return report(*in);
    }

  private:
    /** Enough passes for their upper quartile to mean something. */
    static constexpr std::size_t kMinPasses = 8;

    std::unique_ptr<SweepInputs>
    setUp(int id)
    {
        auto in = std::make_unique<SweepInputs>();
        SpanScope setup(tracer_, "setup", -1, id);
        in->exp = bindConfig(tracer_, setup.index(), id, text_, origin_);
        for (std::size_t i = 0; i < in->exp.runs.size(); ++i) {
            const ExperimentRun &r = in->exp.runs[i];
            auto &slot = in->workloads[std::make_tuple(
                r.app, r.cfg.numCores, r.swPrefetch, r.scale, r.seed,
                r.tracePath)];
            if (!slot) {
                SpanScope gen(tracer_, "workloads.gen", setup.index(),
                              static_cast<std::int64_t>(i));
                slot = std::make_unique<Workload>(
                    makeWorkload(r.app, paramsOf(r)));
                in->accesses += slot->totalAccesses();
            }
            in->jobs.push_back(
                SweepJob{r.label, r.cfg, &slot->traces, slot->mem.get()});
        }
        return in;
    }

    /** A pass through SweepRunner::run, the path users run. */
    Pass
    runnerPass(const SweepInputs &in, int id)
    {
        Pass p;
        std::vector<SweepResult> results;
        p.wallMs = timed(tracer_, "sweep.run", -1, id,
                         [&] { results = runner_.run(in.jobs); });
        finish(p, results, id);
        return p;
    }

    /** The same pass with every simulation traced. */
    Pass
    instrumentedPass(const SweepInputs &in, int id)
    {
        Pass p;
        std::vector<SweepResult> results;
        Clock::time_point t0 = Clock::now();
        {
            SpanScope pass(tracer_, "sweep.pass", -1, id);
            results = runTraced(tracer_, pass.index(), in.jobs,
                                spec_.workers);
        }
        p.wallMs = msBetween(t0, Clock::now());
        finish(p, results, id);
        return p;
    }

    void
    finish(Pass &p, const std::vector<SweepResult> &results, int id)
    {
        p.csv = csvOf(tracer_, id, results, withTlb_);
        for (const SweepResult &r : results) {
            checks_.expect(r.ran, "sweep ran " + r.name);
            p.counts.add(r.stats);
            p.insts += r.stats.core.instructions;
        }
    }

    static std::string
    passesJson(const std::vector<Pass> &passes)
    {
        std::string out = "[";
        for (std::size_t i = 0; i < passes.size(); ++i) {
            JsonObject o;
            o.number("wall_ms", passes[i].wallMs);
            o.number("insts", static_cast<double>(passes[i].insts));
            o.number("cycles",
                     static_cast<double>(passes[i].counts.sum.cycles));
            out += (i ? "," : "") + o.text();
        }
        return out + "]";
    }

    std::string
    report(const SweepInputs &in)
    {
        JsonObject o;
        o.number("workers", spec_.workers);
        o.number("sims", static_cast<double>(in.jobs.size()));
        o.numbers("setup_s", setupS_);
        o.number("gen_accesses", static_cast<double>(in.accesses));
        o.raw("passes", passesJson(passes_));
        o.raw("traced_passes", passesJson(traced_));
        o.raw("counts", passes_.front().counts.json());
        o.number("threads_peak", threads_.peak());
        checks_.write(o);
        o.raw("spans", spansJson(tracer_.spans()));
        return o.text();
    }

    const Options &opt_;
    const SweepSpec &spec_;
    const std::string origin_ = "perfbench.ini";
    Tracer tracer_;
    SweepRunner runner_;
    ThreadPeak threads_;
    Checks checks_;
    std::string text_;
    std::string reference_;
    bool withTlb_ = false;
    std::vector<double> setupS_;
    std::vector<Pass> passes_, traced_;
};

// ---- serve_replay -----------------------------------------------------

/** What one closed-loop serving window measured. */
struct Window
{
    double wallMs = 0;
    std::vector<double> jobMs, fetchMs;
    std::vector<double> jobOk, fetchOk;
    std::uint64_t rejects = 0;
    std::uint64_t resultBytes = 0;

    void
    merge(const Window &o)
    {
        jobMs.insert(jobMs.end(), o.jobMs.begin(), o.jobMs.end());
        jobOk.insert(jobOk.end(), o.jobOk.begin(), o.jobOk.end());
        fetchMs.insert(fetchMs.end(), o.fetchMs.begin(), o.fetchMs.end());
        fetchOk.insert(fetchOk.end(), o.fetchOk.begin(), o.fetchOk.end());
        rejects += o.rejects;
        resultBytes += o.resultBytes;
    }

    std::string
    json() const
    {
        JsonObject o;
        o.number("wall_ms", wallMs);
        o.numbers("job_ms", jobMs);
        o.numbers("job_ok", jobOk);
        o.numbers("fetch_ms", fetchMs);
        o.numbers("fetch_ok", fetchOk);
        o.number("rejects", static_cast<double>(rejects));
        o.number("result_bytes", static_cast<double>(resultBytes));
        return o.text();
    }
};

/** The job id the server gave the submission whose origin is @p path. */
std::string
jobIdFor(const std::string &socket, const std::string &path)
{
    std::ostringstream out, err;
    if (server::listJobs(socket, out, err) != 0)
        return "";
    for (const std::string &line : splitLines(out.str())) {
        // "<id> <state> <done>/<total> <bytes> <origin>"
        std::size_t pos = 0;
        for (int field = 0; field < 4 && pos != std::string::npos; ++field)
            pos = line.find(' ', pos + 1);
        if (pos != std::string::npos && line.substr(pos + 1) == path)
            return line.substr(0, line.find(' '));
    }
    return "";
}

class ServeBench
{
  public:
    explicit ServeBench(const Options &opt)
        : opt_(opt), tracer_(opt.trace)
    {
    }

    std::string
    run()
    {
        const std::string tracePath = opt_.workdir + "/spmv.imptrace";
        jobPath_ = opt_.workdir + "/job.ini";
        std::unique_ptr<server::JobServer> srv;
        for (int i = 0; i < kSetups; ++i) {
            if (srv)
                srv->stop();
            srv.reset();
            // Every set-up writes a new file: overwriting the old one
            // in place made later set-ups slower than the first.
            std::remove(tracePath.c_str());
            Clock::time_point t0 = Clock::now();
            srv = setUp(i, tracePath);
            setupS_.push_back(msBetween(t0, Clock::now()) / 1000);
        }
        threads_.sample();

        Experiment jobExp =
            bindExperiment(ConfigFile::parseString(jobText_, jobPath_));
        std::ostringstream ref;
        ExperimentRunOptions ro;
        ro.jobs = 1;
        checks_.expect(runExperiment(jobExp, ref, ro),
                       "runExperiment finished");
        expected_ = ref.str();

        Window untraced = serve(false);
        Window traced;
        if (opt_.trace)
            traced = serve(true);
        srv->stop();
        srv.reset();
        // As many set-ups again after serving, so the median spans
        // the run rather than its first second.
        for (int i = kSetups; i < 2 * kSetups; ++i) {
            std::remove(tracePath.c_str());
            Clock::time_point t0 = Clock::now();
            std::unique_ptr<server::JobServer> extra = setUp(i, tracePath);
            setupS_.push_back(msBetween(t0, Clock::now()) / 1000);
            extra->stop();
        }
        // The same job's layers called in-process, warm: what a
        // served job costs before the server adds anything.
        for (int i = 0; i < kInProcessReps; ++i)
            inProcessJob(i);

        JsonObject o;
        o.numbers("setup_s", setupS_);
        o.number("gen_accesses", static_cast<double>(genAccesses_));
        o.number("insts_per_job", static_cast<double>(instsPerJob_));
        o.raw("window", untraced.json());
        if (opt_.trace)
            o.raw("traced_window", traced.json());
        o.raw("counts", counts_.json());
        o.number("threads_peak", threads_.peak());
        checks_.write(o);
        o.raw("spans", spansJson(tracer_.spans()));
        return o.text();
    }

  private:
    static constexpr int kSetups = 9;
    static constexpr int kInProcessReps = 9;
    static constexpr int kClients = 2;
    static constexpr unsigned kPoolSlots = 2;
    /** Enough jobs for p90 to have 10 samples beyond it. */
    static constexpr std::size_t kMinJobs = 110;

    /**
     * Generates the seeded 4-core spmv input, records it as an
     * uncompressed trace (jobs then time the in-process decoder, not
     * an xz child process) and starts a fresh server.
     */
    std::unique_ptr<server::JobServer>
    setUp(int id, const std::string &tracePath)
    {
        SpanScope setup(tracer_, "setup", -1, id);
        const std::string genText = "[system]\n"
                                    "app = spmv\n"
                                    "preset = Base\n"
                                    "cores = 4\n"
                                    "scale = 0.05\n"
                                    "seed = " +
                                    std::to_string(opt_.seed) + "\n";
        Experiment gen =
            bindConfig(tracer_, setup.index(), id, genText, "perfbench.ini");
        const ExperimentRun &r = gen.runs.at(0);
        Workload w;
        timed(tracer_, "workloads.gen", setup.index(), id,
              [&] { w = makeWorkload(r.app, paramsOf(r)); });
        genAccesses_ = w.totalAccesses();
        timed(tracer_, "workloads.trace_record", setup.index(), id,
              [&] { recordTrace(tracePath, w.traces, *w.mem); });
        jobText_ = "[system]\n"
                   "app = \"trace:spmv.imptrace\"\n"
                   "cores = 4\n"
                   "[sweep]\n"
                   "preset = [Base, IMP]\n";
        std::ofstream(jobPath_) << jobText_;

        server::JobServerConfig cfg;
        cfg.socketPath = opt_.workdir + "/s" + std::to_string(id);
        cfg.workers = kPoolSlots;
        cfg.maxActive = 2;
        socket_ = cfg.socketPath;
        SpanScope start(tracer_, "server.start", setup.index(), id);
        auto srv = std::make_unique<server::JobServer>(cfg);
        srv->start();
        return srv;
    }

    /**
     * One job's layers called directly, its two sims in parallel as
     * on an otherwise idle server.
     */
    void
    inProcessJob(int id)
    {
        SpanScope job(tracer_, "inproc.job", -1, id);
        Experiment exp =
            bindConfig(tracer_, job.index(), id, jobText_, jobPath_);
        const ExperimentRun &first = exp.runs.at(0);
        Workload w;
        timed(tracer_, "workloads.trace_decode", job.index(), id,
              [&] { w = makeWorkload(first.app, paramsOf(first)); });
        std::vector<SweepJob> jobs;
        for (const ExperimentRun &r : exp.runs)
            jobs.push_back(SweepJob{r.label, r.cfg, &w.traces, w.mem.get()});
        std::vector<SweepResult> results =
            runTraced(tracer_, job.index(), jobs, kPoolSlots);
        std::string csv =
            csvOf(tracer_, id, results, experimentUsesTlb(exp));
        checks_.expect(csv == expected_,
                       "in-process job output equals runExperiment");
        if (id == 0) {
            for (const SweepResult &r : results) {
                counts_.add(r.stats);
                instsPerJob_ += r.stats.core.instructions;
            }
        }
    }

    /**
     * Closed loop: kClients threads, each SUBMITs a job, waits for
     * its RESULT, then FETCHes the stored result. Runs for the
     * measured time and until p90 has enough samples beyond it.
     */
    Window
    serve(bool traced)
    {
        SpanScope window(tracer_, traced ? "serve.traced" : "serve", -1,
                         traced);
        Tracer quiet(false);
        Tracer &tr = traced ? tracer_ : quiet;
        std::vector<Window> perClient(kClients);
        std::atomic<std::size_t> jobs{0};
        // One untimed job per client first: connection set-up and
        // the first trace decode out of the measurement.
        for (int c = 0; c < kClients; ++c)
            clientJob(tr, window.index(), c, -1, nullptr);
        Clock::time_point t0 = Clock::now();
        auto client = [&](int c) {
            for (int n = 0;; ++n) {
                double elapsed = msBetween(t0, Clock::now());
                if ((elapsed >= opt_.seconds * 1000 &&
                     jobs.load() >= kMinJobs) ||
                    elapsed >= opt_.seconds * 2000)
                    return;
                clientJob(tr, window.index(), c, n, &perClient[c]);
                ++jobs;
                if (n % 16 == 0)
                    threads_.sample();
            }
        };
        std::vector<std::thread> clients;
        for (int c = 1; c < kClients; ++c)
            clients.emplace_back(client, c);
        client(0);
        for (std::thread &t : clients)
            t.join();
        Window all;
        all.wallMs = msBetween(t0, Clock::now());
        for (const Window &w : perClient)
            all.merge(w);
        return all;
    }

    /** SUBMIT → RESULT, then FETCH; @p into null = warm-up only. */
    void
    clientJob(Tracer &tr, int parent, int c, int n, Window *into)
    {
        // A path per submission: the job's origin, which LIST shows,
        // is how the client learns the id to FETCH.
        const std::string path = opt_.workdir + "/c" + std::to_string(c) +
                                 "_" + std::to_string(n) + ".ini";
        std::ofstream(path) << jobText_;
        std::int64_t id = c * 1000000 + n;

        std::ostringstream result, err;
        int rc = 1;
        double jobMs = timed(tr, "client.submit", parent, id, [&] {
            rc = server::submitAndWait(socket_, path, server::SubmitRequest{},
                                       result, err);
        });
        bool jobOk = rc == 0 && result.str() == expected_;
        checks_.expect(jobOk, "served RESULT of " + path +
                                  " equals runExperiment" +
                                  (rc ? ": " + err.str() : ""));

        bool fetchOk = false;
        double fetchMs = 0;
        if (rc == 0) {
            std::string jobId = jobIdFor(socket_, path);
            std::ostringstream fetched, ferr;
            int frc = 1;
            fetchMs = timed(tr, "client.fetch", parent, id, [&] {
                frc = server::fetchResult(socket_, jobId, fetched, ferr);
            });
            fetchOk = !jobId.empty() && frc == 0 &&
                      fetched.str() == result.str();
            checks_.expect(fetchOk, "FETCH of " + path + " equals RESULT");
        }
        if (!into)
            return;
        into->jobMs.push_back(jobMs);
        into->jobOk.push_back(jobOk);
        if (rc == 0) {
            into->fetchMs.push_back(fetchMs);
            into->fetchOk.push_back(fetchOk);
            into->resultBytes += result.str().size();
        } else {
            ++into->rejects;
        }
    }

    const Options &opt_;
    Tracer tracer_;
    ThreadPeak threads_;
    Checks checks_;
    std::string jobText_, jobPath_, socket_, expected_;
    std::vector<double> setupS_;
    std::uint64_t genAccesses_ = 0;
    std::uint64_t instsPerJob_ = 0;
    MachineCounts counts_;
};

// ---- Workload table ---------------------------------------------------

const std::map<std::string, SweepSpec> &
sweepSpecs()
{
    static const std::map<std::string, SweepSpec> specs{
        // Fig. 9's 16-core panel: the paper's headline result.
        {"fig9_16c",
         {"[system]\n"
          "cores = 16\n"
          "scale = 0.25\n"
          "seed = @SEED@\n"
          "[sweep]\n"
          "app = [pagerank, tri_count, graph500, sgd, lsh, spmv, symgs]\n"
          "preset = [PerfPref, Base, IMP, SWPref]\n",
          2}},
        // One OoO core with the TLB on: no NoC traffic at all.
        {"solo_ooo_tlb",
         {"[system]\n"
          "cores = 1\n"
          "core_model = ooo\n"
          "scale = 0.4\n"
          "seed = @SEED@\n"
          "[tlb]\n"
          "enable = true\n"
          "page_bytes = 4096\n"
          "[sweep]\n"
          "app = [pagerank, tri_count, graph500, sgd, lsh, spmv, symgs, "
          "streaming]\n"
          "preset = [Base, IMP]\n",
          2}},
    };
    return specs;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload "
                 "fig9_16c|solo_ooo_tlb|serve_replay --seed N --seconds S "
                 "--trace 0|1 --workdir DIR --out FILE\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        std::string value = argv[i + 1];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            opt.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            opt.trace = value == "1";
        else if (flag == "--workdir")
            opt.workdir = value;
        else if (flag == "--out")
            opt.out = value;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (argc % 2 == 0)
        return usage("flags take one value each");
    if (opt.workdir.empty() || opt.out.empty() || !(opt.seconds > 0))
        return usage("--workdir, --out and a positive --seconds are "
                     "required");

    std::string raw;
    try {
        auto spec = sweepSpecs().find(opt.workload);
        if (spec != sweepSpecs().end())
            raw = SweepBench(opt, spec->second).run();
        else if (opt.workload == "serve_replay")
            raw = ServeBench(opt).run();
        else
            return usage(("unknown workload " + opt.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // ru_maxrss is in KiB on Linux. Spliced into the object last.
    raw.pop_back();
    raw += ",\"peak_rss_kib\":" + jsonNumber(usage.ru_maxrss) + "}";
    std::ofstream out(opt.out);
    out << raw << "\n";
    return out ? 0 : 1;
}
