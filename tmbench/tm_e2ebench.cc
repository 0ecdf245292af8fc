/**
 * @file
 * End-to-end benchmark harness for the TM3270 simulator. It runs one
 * workload — a batch of simulation jobs submitted through the sweep
 * driver, the path bench_figure7 takes — over and over for a fixed
 * time and prints the raw samples as one JSON line. tmbench/run.py
 * builds this program, reduces the samples and prints the result.
 *
 *   tm_e2ebench --workload figure7|cabac|stream --seed N --seconds S
 *               --trace 0|1
 *
 * Workloads (every input derives from --seed):
 *  - figure7: the paper's Figure-7 sweep, Table-5 suite x configs A-D
 *    (44 jobs). The kernels keep the paper's fixed inputs; the seed
 *    shuffles the order in which the jobs are submitted.
 *  - cabac: long CABAC field decodes, interpreter-bound. Two seeded
 *    synthetic fields (I-like and B-like), each decoded with plain
 *    TriMedia operations and with the SUPER_CABAC operations (4 jobs).
 *  - stream: 4 MiB memory streams over seeded data, bound by the
 *    LSU, data cache, BIU and DRAM. A copy on config A and D, a copy
 *    with region prefetching on D, and a load-only checksum on D.
 *
 * Set-up, the time to a first result (inputs, compiling the programs
 * and one cold batch), is timed kSetupReps times. Then, untraced,
 * batches on 1 worker and on kParallelWorkers workers alternate until
 * S seconds have passed. Traced (--trace 1), the host profiler (TM_PROF
 * scopes) is on and only 1-worker batches run, each profiled on its
 * own, which gives the per-layer split of a batch.
 *
 * Every job verifies its output against a host reference, and every
 * job's full stat dump must match the first batch's, across batches
 * and worker counts; a job that fails either check counts as failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cabac/cabac.hh"
#include "core/mmio.hh"
#include "driver/sweep.hh"
#include "support/logging.hh"
#include "support/prof.hh"
#include "tir/builder.hh"
#include "workloads/cabac_prog.hh"
#include "workloads/workload.hh"

using namespace tm3270;
using namespace tm3270::workloads;
using driver::SimJob;

namespace
{

using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 3;
constexpr unsigned kParallelWorkers = 4;
/** Fewest batches per run on each worker count, even past --seconds. */
constexpr size_t kMinBatches = 3;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** splitmix64: a fully specified generator, so a seed means the same
 *  inputs with every standard library. */
uint64_t
nextRandom(uint64_t &state)
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

// ---- figure7 -------------------------------------------------------

std::vector<SimJob>
figure7Jobs(uint64_t seed)
{
    std::vector<SimJob> jobs;
    for (const Workload &w : table5Suite())
        for (char c : {'A', 'B', 'C', 'D'})
            jobs.push_back(driver::makeJob(w, c));
    uint64_t s = seed;
    for (size_t i = jobs.size() - 1; i > 0; --i)
        std::swap(jobs[i], jobs[nextRandom(s) % (i + 1)]);
    return jobs;
}

// ---- cabac ---------------------------------------------------------

/** Coded bits per field: about 0.25 s of plain decode each. */
constexpr size_t kCabacFieldBits = 200000;

Workload
cabacDecode(std::shared_ptr<const SyntheticField> f, bool super_ops)
{
    const unsigned bins = unsigned(f->bins.size());
    Workload w;
    // The program depends only on the bin count and the variant, and
    // the name is the program-cache key.
    w.name = strfmt("cabac_%s_%u", super_ops ? "super" : "plain", bins);
    w.description = "CABAC field decode";
    w.build = [bins, super_ops] { return buildCabacDecode(bins, super_ops); };
    w.init = [f](System &sys) { stageCabacField(sys, *f); };
    w.verify = [f](System &sys, std::string &err) {
        return verifyCabacBits(sys, *f, err);
    };
    return w;
}

std::vector<SimJob>
cabacJobs(uint64_t seed)
{
    std::vector<SimJob> jobs;
    // P(MPS) of the context sources: an I-like and a B-like field.
    const double p_mps[] = {0.65, 0.92};
    for (size_t k = 0; k < 2; ++k) {
        auto f = std::make_shared<const SyntheticField>(
            generateField(kCabacFieldBits, 64, p_mps[k], seed * 2 + k));
        for (bool super_ops : {false, true})
            jobs.push_back(driver::makeJob(cabacDecode(f, super_ops), 'D'));
    }
    return jobs;
}

// ---- stream --------------------------------------------------------

constexpr Addr kStreamSrc = 0x00100000;
constexpr Addr kStreamDst = 0x00900000;
constexpr Addr kStreamSum = 0x01100000;
constexpr unsigned kStreamBytes = 4u << 20;
/** Region-prefetch distance: two 128-byte lines ahead of the load. */
constexpr int32_t kPrefetchStride = 256;

/** Copy (or, with @p copy false, sum the words of) the source region,
 *  32 bytes per loop iteration. */
tir::TirProgram
buildStream(bool copy, bool prefetch)
{
    using namespace tir;
    Builder b;
    VReg src = b.var();
    VReg dst = b.var();
    VReg end = b.var();
    VReg acc = b.var();
    b.assign(src, b.imm32(int32_t(kStreamSrc)));
    b.assign(dst, b.imm32(int32_t(kStreamDst)));
    b.assign(end, b.imm32(int32_t(kStreamSrc + kStreamBytes)));
    b.assign(acc, b.zero());
    if (prefetch) {
        VReg mmio = b.imm32(int32_t(mmio_map::pfRegion));
        b.st32d(b.imm32(int32_t(kStreamSrc)), mmio, 0);
        b.st32d(b.imm32(int32_t(kStreamSrc + kStreamBytes)), mmio, 4);
        b.st32d(b.imm32(kPrefetchStride), mmio, 8);
    }

    int loop = b.newBlock();
    b.setBlock(0);
    b.jmpi(loop);

    b.setBlock(loop);
    std::array<VReg, 8> t;
    for (int i = 0; i < 8; ++i)
        t[size_t(i)] = b.ld32d(src, i * 4);
    if (copy) {
        for (int i = 0; i < 8; ++i)
            b.st32d(t[size_t(i)], dst, i * 4);
        b.assign(dst, b.iaddi(dst, 32));
    } else {
        VReg s01 = b.iadd(t[0], t[1]);
        VReg s23 = b.iadd(t[2], t[3]);
        VReg s45 = b.iadd(t[4], t[5]);
        VReg s67 = b.iadd(t[6], t[7]);
        b.assign(acc, b.iadd(acc, b.iadd(b.iadd(s01, s23),
                                         b.iadd(s45, s67))));
    }
    b.assign(src, b.iaddi(src, 32));
    b.jmpt(b.ilesu(src, end), loop);

    int done = b.newBlock();
    b.setBlock(done);
    if (!copy)
        b.st32d(acc, b.imm32(int32_t(kStreamSum)), 0);
    b.halt(b.zero());
    return b.take();
}

Word
loadBE32(const uint8_t *p)
{
    return (Word(p[0]) << 24) | (Word(p[1]) << 16) | (Word(p[2]) << 8) |
           p[3];
}

Workload
streamWorkload(std::shared_ptr<const std::vector<uint8_t>> data, bool copy,
               bool prefetch)
{
    Workload w;
    w.name = copy ? (prefetch ? "stream_copy_pf" : "stream_copy")
                  : "stream_sum";
    w.description = "4 MiB memory stream";
    w.build = [copy, prefetch] { return buildStream(copy, prefetch); };
    w.init = [data](System &sys) {
        sys.writeBytes(kStreamSrc, data->data(), data->size());
    };
    if (copy) {
        w.verify = [data](System &sys, std::string &err) {
            std::vector<uint8_t> got(data->size());
            sys.readBytes(kStreamDst, got.data(), got.size());
            if (got != *data) {
                err = "copied region differs from the source data";
                return false;
            }
            return true;
        };
    } else {
        w.verify = [data](System &sys, std::string &err) {
            Word want = 0;
            for (size_t i = 0; i < data->size(); i += 4)
                want += loadBE32(data->data() + i);
            const Word got = sys.peek32(kStreamSum);
            if (got != want) {
                err = strfmt("checksum 0x%08x, want 0x%08x", got, want);
                return false;
            }
            return true;
        };
    }
    return w;
}

std::vector<SimJob>
streamJobs(uint64_t seed)
{
    auto data = std::make_shared<std::vector<uint8_t>>(kStreamBytes);
    uint64_t s = seed;
    for (size_t i = 0; i < data->size(); i += 8) {
        const uint64_t r = nextRandom(s);
        std::memcpy(data->data() + i, &r, 8);
    }
    return {
        driver::makeJob(streamWorkload(data, true, false), 'A'),
        driver::makeJob(streamWorkload(data, true, false), 'D'),
        driver::makeJob(streamWorkload(data, true, true), 'D'),
        driver::makeJob(streamWorkload(data, false, false), 'D'),
    };
}

// ---- measurement ---------------------------------------------------

using JobFactory = std::vector<SimJob> (*)(uint64_t seed);

/** Job factory of a workload, by name; null if unknown. */
JobFactory
jobFactory(const std::string &name)
{
    if (name == "figure7")
        return figure7Jobs;
    if (name == "cabac")
        return cabacJobs;
    if (name == "stream")
        return streamJobs;
    return nullptr;
}

/** Append the profiler's per-scope totals as a JSON object. */
void
appendProfile(std::string &out, const prof::Profiler &p)
{
    out += "{";
    for (size_t i = 0; i < size_t(prof::Scope::NumScopes); ++i) {
        const prof::Profiler::Totals t = p.totals(prof::Scope(i));
        out += strfmt("%s\"%s\":[%llu,%llu,%llu]", i ? "," : "",
                      prof::scopeName(prof::Scope(i)),
                      static_cast<unsigned long long>(t.ns),
                      static_cast<unsigned long long>(t.selfNs()),
                      static_cast<unsigned long long>(t.calls));
    }
    out += "}";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) < 0x20)
            out += strfmt("\\u%04x", unsigned(ch));
        else
            out += ch;
    }
    return out + "\"";
}

std::string
jsonList(const std::vector<double> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i)
        out += strfmt("%s%.17g", i ? "," : "", v[i]);
    return out + "]";
}

/** Checks every job of each batch against the first batch. */
struct Checker
{
    std::vector<driver::JobResult> reference;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors; ///< the first few failures

    void
    check(const std::vector<driver::JobResult> &results)
    {
        if (reference.empty())
            reference = results;
        for (size_t i = 0; i < results.size(); ++i) {
            const driver::JobResult &jr = results[i];
            const driver::JobResult &ref = reference[i];
            std::string err = jr.error;
            if (jr.ok && (jr.statDump != ref.statDump ||
                          jr.run.cycles != ref.run.cycles ||
                          jr.run.instrs != ref.run.instrs))
                err = "stats differ from the first batch";
            ++attempted;
            if (jr.ok && err.empty())
                continue;
            ++failed;
            if (errors.size() < 4)
                errors.push_back(jr.tag + ": " + err);
        }
    }
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: tm_e2ebench --workload figure7|cabac|stream "
                 "--seed N --seconds S --trace 0|1\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            workload = val;
        else if (key == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            traced = std::strcmp(val, "0") != 0;
        else {
            usage();
            return 2;
        }
    }
    const JobFactory makeJobs = jobFactory(workload);
    if (makeJobs == nullptr || argc % 2 == 0 || !(seconds > 0.0)) {
        usage();
        return 2;
    }

    // The simulator's environment knobs must not leak into the
    // measurement. TM_PROF is read once, by the first envProfiler().
    unsetenv("TM_TRACE");
    unsetenv("TM_JOBS");
    if (traced)
        setenv("TM_PROF", "1", 1);
    else
        unsetenv("TM_PROF");
    prof::Profiler *profiler = prof::envProfiler();
    prof::attach(profiler);

    // Set-up, repeated on fresh jobs and a fresh driver: the time to a
    // first result — making the inputs, compiling every program into
    // the driver's program cache and one cold 1-worker batch.
    Checker checker;
    std::vector<double> setup_s;
    std::vector<SimJob> jobs;
    std::unique_ptr<driver::SweepDriver> serial;
    for (int k = 0; k < kSetupReps; ++k) {
        const Clock::time_point t0 = Clock::now();
        jobs = makeJobs(seed);
        serial = std::make_unique<driver::SweepDriver>(1);
        driver::SweepReport rep = serial->run(jobs);
        setup_s.push_back(msSince(t0) / 1e3);
        checker.check(rep.results);
    }
    const uint64_t compiles = serial->cache().misses();
    std::string setup_profile = "null";
    std::unique_ptr<driver::SweepDriver> parallel;
    if (traced) {
        setup_profile.clear();
        appendProfile(setup_profile, *profiler);
    } else {
        parallel = std::make_unique<driver::SweepDriver>(kParallelWorkers);
        driver::SweepReport rep = parallel->run(jobs);
        checker.check(rep.results);
    }

    std::vector<double> serial_ms, parallel_ms, job_ms_sum;
    std::string profiles = "[";
    const Clock::time_point t_start = Clock::now();
    while (msSince(t_start) < seconds * 1e3 ||
           serial_ms.size() < kMinBatches) {
        if (profiler != nullptr)
            profiler->reset();
        Clock::time_point t0 = Clock::now();
        driver::SweepReport rep = serial->run(jobs);
        serial_ms.push_back(msSince(t0));
        job_ms_sum.push_back(rep.jobWallMsSum);
        checker.check(rep.results);
        if (profiler != nullptr) {
            if (profiles.size() > 1)
                profiles += ",";
            appendProfile(profiles, *profiler);
        }
        if (parallel) {
            t0 = Clock::now();
            driver::SweepReport prep = parallel->run(jobs);
            parallel_ms.push_back(msSince(t0));
            checker.check(prep.results);
        }
    }
    profiles += "]";

    // Simulated-machine counts of one batch, summed over its jobs.
    std::map<std::string, uint64_t> counts;
    for (const driver::JobResult &jr : checker.reference) {
        counts["run.instrs"] += jr.run.instrs;
        counts["run.cycles"] += jr.run.cycles;
        for (const auto &[name, v] : jr.stats)
            counts[name] += v;
    }
    std::string counts_json = "{";
    for (const auto &[name, v] : counts) {
        counts_json += strfmt("%s\"%s\":%llu", counts_json.size() > 1 ? ","
                                                                    : "",
                              name.c_str(),
                              static_cast<unsigned long long>(v));
    }
    counts_json += "}";

    std::string errors = "[";
    for (size_t i = 0; i < checker.errors.size(); ++i)
        errors += (i ? "," : "") + jsonString(checker.errors[i]);
    errors += "]";

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::printf(
        "{\"workload\":%s,\"jobs\":%zu,\"parallel_workers\":%u,"
        "\"compiles\":%llu,\"attempted\":%llu,\"failed\":%llu,"
        "\"errors\":%s,\"setup_s\":%s,\"serial_ms\":%s,\"parallel_ms\":%s,"
        "\"job_ms_sum\":%s,\"peak_rss_kb\":%ld,\"setup_profile\":%s,"
        "\"profiles\":%s,\"counts\":%s}\n",
        jsonString(workload).c_str(), jobs.size(), kParallelWorkers,
        static_cast<unsigned long long>(compiles),
        static_cast<unsigned long long>(checker.attempted),
        static_cast<unsigned long long>(checker.failed), errors.c_str(),
        jsonList(setup_s).c_str(), jsonList(serial_ms).c_str(),
        jsonList(parallel_ms).c_str(), jsonList(job_ms_sum).c_str(),
        ru.ru_maxrss, setup_profile.c_str(), profiles.c_str(),
        counts_json.c_str());
    return 0;
}
