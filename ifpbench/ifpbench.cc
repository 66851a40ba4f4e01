/**
 * @file
 * The repository benchmark (README.md in this directory).
 *
 *   ifpbench --workload <pointer-chase|array-kernels|juliet> --seed <n>
 *            --seconds <s> --trace <0|1>
 *
 * One operation is one simulated program run, driven through the same
 * public steps as workloads::runWorkload and juliet::runCase: build the
 * IR, instrument (+ verify), construct the Machine and install the libc
 * model, Machine::run, then syncStats + snapshot. A pass runs every
 * operation of the workload once, in an order drawn from the seed;
 * passes repeat until the time budget is spent. The last line of
 * stdout is the JSON result: end-to-end metrics with --trace 0, the
 * per-layer split (span self times, stat counts, the simulated cycle
 * split and layer microbenchmarks) with --trace 1, which also writes
 * the last traced pass's spans under kSpansDir.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compiler/instrument.hh"
#include "ir/verifier.hh"
#include "juliet/juliet.hh"
#include "micro.hh"
#include "spans.hh"
#include "support/rng.hh"
#include "vm/libc_model.hh"
#include "vm/machine.hh"
#include "vm/trap.hh"
#include "workloads/workload.hh"

namespace ifpbench {

using namespace infat;

namespace {

const char *const kPointerChase[] = {"bh",      "bisort", "em3d",
                                     "health",  "mst",    "perimeter",
                                     "treeadd", "tsp",    "voronoi",
                                     "anagram", "ft",     "ks"};
const char *const kArrayKernels[] = {"power", "yacr2",    "wolfcrypt-dh",
                                     "sjeng", "coremark", "bzip2"};

/** The §5.2 configurations; index 0 is the uninstrumented baseline. */
constexpr int kNumConfigs = 5;
const char *const kConfigs[kNumConfigs] = {"baseline", "subheap", "wrapped",
                                           "subheap-np", "wrapped-np"};

/**
 * Machine::CycleClass counters, as named in the vm stat group, then the
 * residual vm.cycles leaves outside them: the libc model's natives
 * charge through Machine::chargeInstructions, which has no class.
 */
const char *const kCycleClasses[] = {"base",      "mem",     "bnd_ldst",
                                     "promote",   "ifp_arith", "runtime",
                                     "unclassified"};

/** Layer spans, in call order; "op" is each program run's root. */
const char *const kLayers[] = {"ir.build",    "compiler.instrument",
                               "ir.verify",   "vm.setup",
                               "vm.run",      "support.stats",
                               "vm.teardown", "op",
                               "bench.calibrate"};

/**
 * Host-speed normalisation. The host shares its cores with other
 * tenants and its throughput swings by up to 1.6x over seconds to
 * minutes, with CPU time tracking wall-clock (README, "Host speed").
 * Before a program run, at most every kCalibrateEveryNs, a pass times
 * a fixed reference kernel that shares no code with the simulator; the
 * end-to-end host times are scaled by kReferenceSeconds over its latest
 * time, i.e. expressed at the host speed at which the kernel takes
 * kReferenceSeconds.
 */
constexpr double kReferenceSeconds = 0.4e-3;
constexpr int64_t kCalibrateEveryNs = 20'000'000;

/** Where traced runs write their spans, relative to the checkout. */
const char *const kSpansDir = ".bench_build/spans";

/** Largest accepted median of (pass wall-clock − Σ root spans) / wall. */
constexpr double kReconcileTolerance = 0.02;

/** Fig 12's process-image allowance and small-program cutoff
 *  (bench/bench_fig12_memory.cc). */
constexpr double kProcessFixedBytes = 512 * 1024;
constexpr double kSmallResidentBytes = 40 * 1024;

volatile uint64_t referenceSink;

/**
 * Seconds a fixed bytecode-interpreter loop (L1-resident program and
 * table, data-dependent branches) takes on the host right now.
 */
double
referenceKernelSeconds()
{
    static const std::array<uint8_t, 256> prog = [] {
        std::array<uint8_t, 256> p{};
        uint32_t x = 12345;
        for (uint8_t &b : p) {
            x = x * 1103515245 + 12345;
            b = (x >> 16) & 0xff;
        }
        return p;
    }();
    static uint64_t table[512];
    uint64_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    int64_t t0 = nowNs();
    for (int it = 0; it < 600; ++it) {
        for (int pc = 0; pc < 256; ++pc) {
            uint8_t op = prog[pc];
            unsigned a = (op >> 3) & 7, b = op >> 5;
            switch (op & 7) {
              case 0: r[a] += r[b]; break;
              case 1: r[a] ^= r[b] << 3; break;
              case 2: r[a] = table[r[b] & 511]; break;
              case 3: table[r[a] & 511] = r[b] + it; break;
              case 4: if (r[a] & 1) r[b]++; else r[b]--; break;
              case 5: r[a] *= 0x9e3779b97f4a7c15ULL; break;
              case 6: r[a] = (r[a] >> 7) | (r[b] << 57); break;
              case 7: r[a] -= r[b] ^ pc; break;
            }
        }
    }
    referenceSink = r[0] + r[7];
    return (nowNs() - t0) / 1e9;
}

/** The configuration workloads::runWorkload builds for @p config. */
VmConfig
programConfig(int config)
{
    VmConfig vm;
    vm.instrumented = config != 0;
    vm.allocator = (config == 1 || config == 3) ? AllocatorKind::Subheap
                                                : AllocatorKind::Wrapped;
    vm.ifp.noPromote = config >= 3;
    return vm;
}

/** The configuration juliet::runCase builds. */
VmConfig
julietConfig(int config)
{
    VmConfig vm = programConfig(config);
    vm.useCache = false;
    vm.forensics = true;
    return vm;
}

/** The general interpreter: the reference engine of the tier gates. */
VmConfig
generalEngine(VmConfig vm)
{
    vm.superblocks = false;
    vm.superblockFusion = false;
    vm.superblockCheckElim = false;
    vm.threadedDispatch = false;
    vm.jit = false;
    return vm;
}

/** One simulated program run. */
struct Op
{
    int program = 0;
    int config = 0;
    const workloads::Workload *workload = nullptr;
    const juliet::TestCase *testCase = nullptr;
    VmConfig vm;
};

struct OpResult
{
    uint64_t checksum = 0;
    /** GuestTrap::what(); empty when the program returned. */
    std::string trap;
    /** The trap is a detection of the case's flaw class (Juliet). */
    bool detected = false;
    int64_t setupNs = 0;
    int64_t totalNs = 0;
    StatSnapshot stats;
};

OpResult
execute(const Op &op, SpanRecorder *rec, uint32_t run)
{
    OpResult r;
    int64_t t0 = nowNs();
    {
        SpanScope root(rec, "op", -1, run);
        int32_t parent = root.id();
        auto module = std::make_unique<ir::Module>();
        {
            SpanScope s(rec, "ir.build", parent, run);
            if (op.workload)
                op.workload->build(*module);
            else
                op.testCase->build(*module);
        }
        auto inst = std::make_unique<InstrumentResult>();
        if (op.vm.instrumented) {
            {
                SpanScope s(rec, "compiler.instrument", parent, run);
                *inst = instrumentModule(*module);
            }
            // juliet::runCase does not verify; runWorkload does.
            if (op.workload) {
                SpanScope s(rec, "ir.verify", parent, run);
                ir::verifyOrDie(*module);
            }
        }
        std::unique_ptr<Machine> machine;
        {
            SpanScope s(rec, "vm.setup", parent, run);
            machine = std::make_unique<Machine>(
                *module, op.vm.instrumented ? &inst->layouts : nullptr,
                op.vm);
            installLibc(*machine);
        }
        r.setupNs = nowNs() - t0;
        {
            SpanScope s(rec, "vm.run", parent, run);
            try {
                r.checksum = machine->run();
            } catch (const GuestTrap &trap) {
                r.trap = trap.what();
                r.detected = op.testCase &&
                             (op.testCase->temporal()
                                  ? trap.isSafetyViolation()
                                  : trap.isSpatialViolation());
            }
        }
        {
            SpanScope s(rec, "support.stats", parent, run);
            machine->syncStats();
            r.stats = machine->statRegistry().snapshot();
        }
        {
            SpanScope s(rec, "vm.teardown", parent, run);
            machine.reset();
            inst.reset();
            module.reset();
        }
    }
    r.totalNs = nowNs() - t0;
    return r;
}

/** Host-engine groups; every other group is simulated state. */
bool
hostGroup(const std::string &name)
{
    return name == "vm.superblock" || name == "vm.tier";
}

bool
sameHistogram(const StatSnapshot::HistogramData &a,
              const StatSnapshot::HistogramData &b)
{
    if (a.count != b.count || a.sum != b.sum || a.min != b.min ||
        a.max != b.max || a.underflow != b.underflow ||
        a.overflow != b.overflow || a.buckets.size() != b.buckets.size())
        return false;
    for (size_t i = 0; i < a.buckets.size(); ++i) {
        if (a.buckets[i].lo != b.buckets[i].lo ||
            a.buckets[i].hi != b.buckets[i].hi ||
            a.buckets[i].count != b.buckets[i].count)
            return false;
    }
    return true;
}

bool
sameDistribution(const StatSnapshot::DistributionData &a,
                 const StatSnapshot::DistributionData &b)
{
    return a.count == b.count && a.sum == b.sum && a.mean == b.mean &&
           a.stddev == b.stddev && a.min == b.min && a.max == b.max;
}

/**
 * Whether two snapshots agree on every simulated stat; on a mismatch
 * @p where names the first diverging group.
 */
bool
sameSimulated(const StatSnapshot &a, const StatSnapshot &b,
              std::string &where)
{
    std::vector<const StatSnapshot::Group *> ga, gb;
    for (const auto &g : a.groups)
        if (!hostGroup(g.name))
            ga.push_back(&g);
    for (const auto &g : b.groups)
        if (!hostGroup(g.name))
            gb.push_back(&g);
    if (ga.size() != gb.size()) {
        where = "group list";
        return false;
    }
    for (size_t i = 0; i < ga.size(); ++i) {
        const auto &x = *ga[i];
        const auto &y = *gb[i];
        bool same = x.name == y.name && x.scalars == y.scalars &&
                    x.formulas == y.formulas &&
                    x.histograms.size() == y.histograms.size() &&
                    x.distributions.size() == y.distributions.size();
        for (auto it = x.histograms.begin(), jt = y.histograms.begin();
             same && it != x.histograms.end(); ++it, ++jt)
            same = it->first == jt->first &&
                   sameHistogram(it->second, jt->second);
        for (auto it = x.distributions.begin(), jt = y.distributions.begin();
             same && it != x.distributions.end(); ++it, ++jt)
            same = it->first == jt->first &&
                   sameDistribution(it->second, jt->second);
        if (!same) {
            where = x.name;
            return false;
        }
    }
    return true;
}

double
formula(const StatSnapshot &s, const char *group, const char *name)
{
    const StatSnapshot::Group *g = s.findGroup(group);
    if (!g)
        return 0.0;
    auto it = g->formulas.find(name);
    return it == g->formulas.end() ? 0.0 : it->second;
}

/** A cycle class of @p s's vm group; "unclassified" is the residual. */
int64_t
classCycles(const StatSnapshot &s, const char *cls)
{
    if (std::strcmp(cls, "unclassified") != 0)
        return static_cast<int64_t>(
            s.scalar("vm", std::string("cycles_") + cls));
    int64_t rest = static_cast<int64_t>(s.scalar("vm", "cycles"));
    for (const char *c : kCycleClasses)
        if (std::strcmp(c, "unclassified") != 0)
            rest -= classCycles(s, c);
    return rest;
}

template <typename T>
T
median(std::vector<T> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    if (n == 0)
        return T();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** The workload: its programs and one pass's operations. */
struct Workload
{
    std::string name;
    bool juliet = false;
    std::vector<std::string> programs;
    std::vector<juliet::TestCase> cases;
    /** Canonical order: program-major, then configuration. */
    std::vector<Op> ops;
};

bool
makeWorkload(const std::string &name, Workload &w)
{
    w.name = name;
    std::vector<const char *> names;
    if (name == "pointer-chase") {
        names.assign(std::begin(kPointerChase), std::end(kPointerChase));
    } else if (name == "array-kernels") {
        names.assign(std::begin(kArrayKernels), std::end(kArrayKernels));
    } else if (name == "juliet") {
        w.juliet = true;
    } else {
        return false;
    }
    // Juliet runs instrumented only, as juliet::runSuite does.
    std::vector<int> configs = {0, 1, 2, 3, 4};
    if (w.juliet) {
        w.cases = juliet::generateSuite();
        configs = {1, 2};
        for (const juliet::TestCase &c : w.cases)
            w.programs.push_back(c.name());
    } else {
        for (const char *n : names)
            w.programs.push_back(n);
    }
    for (size_t p = 0; p < w.programs.size(); ++p) {
        for (int c : configs) {
            Op op;
            op.program = static_cast<int>(p);
            op.config = c;
            if (w.juliet) {
                op.testCase = &w.cases[p];
                op.vm = julietConfig(c);
            } else {
                op.workload = workloads::byName(w.programs[p]);
                if (!op.workload)
                    return false;
                op.vm = programConfig(c);
            }
            w.ops.push_back(op);
        }
    }
    return true;
}

/**
 * Whether the six cycle classes account for the whole vm.cycles delta
 * of @p r against @p base, i.e. both leave the same unclassified
 * residual.
 */
bool
splitReconciles(const OpResult &r, const OpResult &base)
{
    return classCycles(r.stats, "unclassified") ==
           classCycles(base.stats, "unclassified");
}

/**
 * The per-operation output check; returns why @p r fails it, or null.
 * Programs must return the baseline's checksum without trapping; a
 * Juliet case must trap iff it is bad, except in its documented
 * expected-miss cells. An instrumented run with a @p baseline must
 * have its vm.cycles delta against it split exactly by the six cycle
 * classes.
 */
const char *
checkOp(const Op &op, const OpResult &r, const OpResult *baseline)
{
    // The classes may leave cycles unclassified (see classCycles), but
    // must never count more than vm.cycles.
    if (classCycles(r.stats, "unclassified") < 0)
        return "cycle classes exceed vm.cycles";
    if (op.testCase) {
        const juliet::TestCase &tc = *op.testCase;
        bool trapped = !r.trap.empty();
        if (trapped && !r.detected)
            return "trap of the wrong kind";
        if (tc.bad && !trapped && tc.expectedMissBucket() == nullptr)
            return "bad case not detected";
        if (!tc.bad && trapped)
            return "good case trapped";
    } else {
        if (!r.trap.empty())
            return "trapped";
        if (r.checksum != baseline->checksum)
            return "checksum differs from the baseline's";
    }
    if (op.config != 0 && baseline && !splitReconciles(r, *baseline))
        return "cycle classes do not sum to the vm.cycles delta against "
               "baseline";
    return nullptr;
}

class Bench
{
  public:
    Bench(Workload &w, uint64_t seed, double seconds, bool trace)
        : w_(w), seed_(seed), seconds_(seconds), trace_(trace)
    {
    }

    int run();

  private:
    void prepare();
    void crossCheckEngines();
    void runPass(bool traced);
    std::vector<Metric> endToEnd() const;
    std::vector<Metric> perLayer();
    /** Simulated-state snapshot of (program, config), when run. */
    const OpResult *
    sim(size_t program, int config) const
    {
        const auto &slot = sim_[program][config];
        return slot ? &*slot : nullptr;
    }
    /** Programs whose five configurations all ran without a trap. */
    std::vector<size_t> comparablePrograms() const;
    double geomeanRatio(int config, bool memory) const;
    void printProgramTable() const;

    Workload &w_;
    uint64_t seed_;
    double seconds_;
    bool trace_;

    std::vector<size_t> order_;
    /** Pass 0's results, in canonical op order. */
    std::vector<OpResult> first_;
    /** (program, config) → reference result for simulated metrics. */
    std::vector<std::array<std::optional<OpResult>, kNumConfigs>> sim_;
    /** General-engine results, checked against pass 0. */
    std::vector<std::pair<size_t, OpResult>> general_;

    // Per op (canonical order) over passes, split by untraced/traced:
    // normalised run and set-up seconds, and raw wall-clock seconds.
    std::vector<std::vector<double>> host_[2], setup_[2], wall_[2];
    /** Reference kernel times, in seconds. */
    std::vector<double> refs_;
    std::vector<std::map<std::string, int64_t>> passSelf_;
    std::vector<double> passGap_;
    SpanRecorder spans_;

    /** Peak RSS once the first pass has run: later passes may only
     *  add what the simulator fails to free, which depends on how many
     *  passes fit the budget. */
    double firstPassRssMiB_ = 0;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    bool correct_ = true;
    int passes_ = 0;
};

void
Bench::prepare()
{
    // The seed fixes the order of the runs within every pass but the
    // first.
    order_.resize(w_.ops.size());
    for (size_t i = 0; i < order_.size(); ++i)
        order_[i] = i;
    Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + 1);
    for (size_t i = order_.size(); i > 1; --i)
        std::swap(order_[i - 1], order_[rng.below(i)]);
    sim_.resize(w_.programs.size());
    for (int mode = 0; mode < 2; ++mode) {
        host_[mode].assign(w_.ops.size(), {});
        setup_[mode].assign(w_.ops.size(), {});
        wall_[mode].assign(w_.ops.size(), {});
    }
}

/**
 * Outside the timed passes: run a slice of the operations under the
 * general interpreter (checked against pass 0 later). Programs take one
 * configuration each, rotated by the seed; every Juliet run is
 * covered. Juliet's good cases also run uninstrumented and in both
 * no-promote configurations here, to give the simulated metrics a
 * baseline.
 */
void
Bench::crossCheckEngines()
{
    for (size_t i = 0; i < w_.ops.size(); ++i) {
        const Op &op = w_.ops[i];
        if (!w_.juliet &&
            static_cast<uint64_t>(op.config) !=
                (seed_ + op.program) % kNumConfigs)
            continue;
        Op general = op;
        general.vm = generalEngine(op.vm);
        general_.emplace_back(i, execute(general, nullptr, 0));
    }
    if (!w_.juliet)
        return;
    for (size_t p = 0; p < w_.cases.size(); ++p) {
        if (w_.cases[p].bad)
            continue;
        for (int c : {0, 3, 4}) {
            Op op;
            op.program = static_cast<int>(p);
            op.config = c;
            op.testCase = &w_.cases[p];
            op.vm = julietConfig(c);
            OpResult r = execute(op, nullptr, 0);
            if (!r.trap.empty()) {
                std::fprintf(stderr, "ifpbench: good case %s traps in %s: "
                                     "%s\n", w_.programs[p].c_str(),
                             kConfigs[c], r.trap.c_str());
                correct_ = false;
            }
            sim_[p][c] = std::move(r);
        }
    }
}

void
Bench::runPass(bool traced)
{
    SpanRecorder *rec = traced ? &spans_ : nullptr;
    if (traced)
        spans_.clear();
    std::vector<OpResult> results(w_.ops.size());
    std::vector<double> scale(w_.ops.size());
    double ref = 0;
    int64_t last_ref = 0;
    int64_t t0 = nowNs();
    for (size_t k = 0; k < order_.size(); ++k) {
        // The first pass keeps the canonical order: peak_rss_mib is read
        // after it, and the leaked, fragmented heap peaks differently
        // for every order.
        size_t i = passes_ == 0 ? k : order_[k];
        uint32_t run = static_cast<uint32_t>(k);
        if (k == 0 || nowNs() - last_ref >= kCalibrateEveryNs) {
            SpanScope s(rec, "bench.calibrate", -1, run);
            ref = referenceKernelSeconds();
            last_ref = nowNs();
            refs_.push_back(ref);
        }
        results[i] = execute(w_.ops[i], rec, run);
        scale[i] = kReferenceSeconds / ref;
    }
    int64_t wall = nowNs() - t0;

    int mode = traced ? 1 : 0;
    for (size_t i = 0; i < results.size(); ++i) {
        const OpResult &r = results[i];
        host_[mode][i].push_back(r.totalNs / 1e9 * scale[i]);
        setup_[mode][i].push_back(r.setupNs / 1e9 * scale[i]);
        wall_[mode][i].push_back(r.totalNs / 1e9);
        attempted_++;
        const Op &op = w_.ops[i];
        // Programs: the same pass's baseline run. Juliet: the good
        // cases' untimed uninstrumented run; bad cases have none.
        const OpResult *baseline =
            w_.juliet ? sim(op.program, 0)
                      : &results[static_cast<size_t>(op.program) *
                                 kNumConfigs];
        const char *why = checkOp(op, r, baseline);
        std::string where;
        if (!why && passes_ > 0 &&
            (r.checksum != first_[i].checksum || r.trap != first_[i].trap ||
             !sameSimulated(r.stats, first_[i].stats, where))) {
            std::fprintf(stderr, "ifpbench: %s/%s pass %d differs from "
                                 "pass 0 (%s)\n",
                         w_.programs[op.program].c_str(), kConfigs[op.config],
                         passes_,
                         where.empty() ? "checksum or trap" : where.c_str());
            why = "differs from pass 0";
        }
        if (why) {
            failed_++;
            if (passes_ == 0)
                std::fprintf(stderr, "ifpbench: check failed: %s/%s: %s "
                                     "(checksum=%llu trap='%s')\n",
                             w_.programs[op.program].c_str(),
                             kConfigs[op.config], why,
                             static_cast<unsigned long long>(r.checksum),
                             r.trap.c_str());
        }
    }
    if (traced) {
        passSelf_.push_back(spans_.selfTimesNs());
        passGap_.push_back(
            static_cast<double>(wall - spans_.rootTotalNs()) / wall);
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    if (passes_ == 0) {
        first_ = std::move(results);
        firstPassRssMiB_ = ru.ru_maxrss / 1024.0;
    }
    double scaled = 0;
    for (size_t i = 0; i < w_.ops.size(); ++i)
        scaled += host_[mode][i].back();
    std::fprintf(stderr, "ifpbench: pass %d%s: %.3f s wall, %.3f s at "
                         "reference speed, peak RSS %.1f MiB\n",
                 passes_, traced ? " (traced)" : "", wall / 1e9, scaled,
                 ru.ru_maxrss / 1024.0);
    passes_++;
}

int
Bench::run()
{
    prepare();
    std::vector<MicroResult> micro;
    if (trace_) {
        bool ok = true;
        micro = runMicrobenchmarks(ok);
        correct_ &= ok;
    }
    crossCheckEngines();

    // Timed passes: whole passes until the budget is spent. Traced runs
    // alternate untraced and traced passes so both see the same host.
    int64_t start = nowNs();
    int64_t last = 0;
    int min_passes = trace_ ? 2 : 1;
    while (passes_ < min_passes ||
           (nowNs() - start + last) / 1e9 <= seconds_) {
        int64_t t = nowNs();
        runPass(trace_ && passes_ % 2 == 1);
        last = nowNs() - t;
    }

    for (size_t i = 0; i < w_.ops.size(); ++i) {
        const Op &op = w_.ops[i];
        if (!w_.juliet || !w_.cases[op.program].bad)
            sim_[op.program][op.config] = first_[i];
    }
    for (const auto &[i, r] : general_) {
        std::string where;
        if (r.checksum != first_[i].checksum || r.trap != first_[i].trap ||
            !sameSimulated(r.stats, first_[i].stats, where)) {
            std::fprintf(stderr, "ifpbench: %s/%s: general interpreter "
                                 "differs from the default engine (%s)\n",
                         w_.programs[w_.ops[i].program].c_str(),
                         kConfigs[w_.ops[i].config],
                         where.empty() ? "checksum or trap" : where.c_str());
            correct_ = false;
        }
    }

    std::vector<Metric> metrics;
    if (trace_) {
        metrics = perLayer();
        for (const MicroResult &m : micro)
            metrics.push_back({m.name, m.nsPerOp, "ns"});
        printProgramTable();
        std::error_code ec;
        std::filesystem::create_directories(kSpansDir, ec);
        std::string path = std::string(kSpansDir) + "/" + w_.name +
                           "-seed" + std::to_string(seed_) + ".json";
        if (!spans_.writeChromeTrace(path)) {
            std::fprintf(stderr, "ifpbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        std::fprintf(stderr, "ifpbench: last traced pass's spans written "
                             "to %s\n", path.c_str());
    } else {
        metrics = endToEnd();
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
    return 0;
}

std::vector<size_t>
Bench::comparablePrograms() const
{
    std::vector<size_t> out;
    for (size_t p = 0; p < w_.programs.size(); ++p) {
        bool all = true;
        for (int c = 0; c < kNumConfigs; ++c)
            all &= sim(p, c) != nullptr && sim(p, c)->trap.empty();
        if (all)
            out.push_back(p);
    }
    return out;
}

/**
 * Geo-mean over the comparable programs of @p config's simulated
 * cycles (Fig 10) or resident bytes (Fig 12) over the baseline's. The
 * memory ratio follows bench_fig12_memory: a fixed process image is
 * added to both sides, and programs whose baseline touches less than
 * the small cutoff are left out unless every program does.
 */
double
Bench::geomeanRatio(int config, bool memory) const
{
    std::vector<double> all, large;
    for (size_t p : comparablePrograms()) {
        const StatSnapshot &b = sim(p, 0)->stats;
        const StatSnapshot &s = sim(p, config)->stats;
        if (memory) {
            double base = formula(b, "mem", "resident_bytes");
            double ratio = (formula(s, "mem", "resident_bytes") +
                            kProcessFixedBytes) /
                           (base + kProcessFixedBytes);
            all.push_back(ratio);
            if (base >= kSmallResidentBytes)
                large.push_back(ratio);
        } else {
            all.push_back(
                static_cast<double>(s.scalar("vm", "cycles")) /
                static_cast<double>(b.scalar("vm", "cycles")));
        }
    }
    return geomean(large.empty() ? all : large);
}

std::vector<Metric>
Bench::endToEnd() const
{
    double host = 0, setup = 0, instrs = 0;
    for (size_t i = 0; i < w_.ops.size(); ++i) {
        host += median(host_[0][i]);
        setup += median(setup_[0][i]);
        instrs += first_[i].stats.scalar("vm", "instructions");
    }
    return {
        {"host_s", host, "s"},
        {"setup_s", setup, "s"},
        {"guest_mips", instrs / host / 1e6, "MIPS"},
        {"peak_rss_mib", firstPassRssMiB_, "MiB"},
        {"sim_slowdown_subheap", geomeanRatio(1, false), "ratio"},
        {"sim_slowdown_wrapped", geomeanRatio(2, false), "ratio"},
        {"sim_mem_subheap", geomeanRatio(1, true), "ratio"},
        {"sim_mem_wrapped", geomeanRatio(2, true), "ratio"},
    };
}

std::vector<Metric>
Bench::perLayer()
{
    std::vector<Metric> out;

    // Host time: median over traced passes of each layer's self time.
    for (const char *layer : kLayers) {
        std::vector<int64_t> v;
        for (const auto &self : passSelf_) {
            auto it = self.find(layer);
            v.push_back(it == self.end() ? 0 : it->second);
        }
        std::string name = std::string(std::strcmp(layer, "op") == 0
                                           ? "bench.op"
                                           : layer) + "_s";
        out.push_back({name, median(v) / 1e9, "s"});
    }
    // [untraced, traced]: host_s and raw wall-clock.
    double host[2] = {0, 0}, wall[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
        for (size_t i = 0; i < w_.ops.size(); ++i) {
            host[mode] += median(host_[mode][i]);
            wall[mode] += median(wall_[mode][i]);
        }
    }
    double gap = median(passGap_);
    if (gap > kReconcileTolerance || gap < -kReconcileTolerance) {
        std::fprintf(stderr, "ifpbench: span time leaves %.2f%% of the "
                             "traced pass unaccounted (tolerance %.0f%%)\n",
                     100 * gap, 100 * kReconcileTolerance);
        correct_ = false;
    }
    out.push_back({"host.wall_s", wall[0], "s"});
    out.push_back({"host.reference_kernel_ms", median(refs_) * 1e3, "ms"});
    out.push_back({"trace.overhead_s", host[1] - host[0], "s"});
    out.push_back({"trace.unattributed_share", gap, "ratio"});

    // Work counts and ratios: Σ over pass 0's runs.
    auto sum = [&](const char *group, const char *stat) {
        double total = 0;
        for (const OpResult &r : first_)
            total += r.stats.scalar(group, stat);
        return total;
    };
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    double bypass = sum("promote", "bypass_null") +
                    sum("promote", "bypass_legacy") +
                    sum("promote", "bypass_invalid") +
                    sum("promote", "bypass_stale");
    double hits = sum("l1d", "hits"), misses = sum("l1d", "misses");
    double utlb = 0, resident = 0, trapped = 0;
    for (const OpResult &r : first_) {
        utlb += formula(r.stats, "mem", "utlb_hit_rate");
        resident += formula(r.stats, "mem", "resident_bytes");
        trapped += !r.trap.empty();
    }
    const char *count = "count";
    out.insert(out.end(), {
        {"vm.instructions", sum("vm", "instructions"), count},
        {"vm.cycles", sum("vm", "cycles"), "cycles"},
        {"vm.calls", sum("vm", "calls"), count},
        {"vm.tier.jit_blocks", sum("vm.tier", "jit_blocks"), count},
        {"vm.tier.jit_promotions", sum("vm.tier", "jit_promotions"), count},
        {"vm.tier.jit_code_bytes", sum("vm.tier", "jit_code_bytes"), "B"},
        {"vm.tier.bail_rate",
         ratio(sum("vm.tier", "jit_bailouts"), sum("vm.tier", "jit_blocks")),
         "ratio"},
        {"vm.tier.call_inlined", sum("vm.tier", "call_inlined"), count},
        {"vm.superblock.fused_exec", sum("vm.superblock", "fused_exec"),
         count},
        {"vm.superblock.checks_elided",
         sum("vm.superblock", "checks_elided"), count},
        {"ifp.promotes", sum("promote", "promotes"), count},
        {"ifp.meta_fetches", sum("promote", "meta_fetches"), count},
        {"ifp.bypass_rate",
         ratio(bypass, bypass + sum("promote", "valid_promotes")), "ratio"},
        {"ifp.narrow_success_rate",
         ratio(sum("promote", "narrow_success"),
               sum("promote", "narrow_attempts")),
         "ratio"},
        {"cache.l1d_accesses", hits + misses, count},
        {"cache.l1d_miss_rate", ratio(misses, hits + misses), "ratio"},
        {"mem.utlb_hit_rate", utlb / first_.size(), "ratio"},
        {"mem.resident_bytes", resident, "B"},
        {"runtime.ifp_mallocs", sum("runtime", "ifp_mallocs"), count},
        {"runtime.heap_peak_bytes", sum("vm", "heap_peak_bytes"), "B"},
        {"juliet.trapped_cases", trapped, count},
    });

    // Simulated cycle split: per instrumented configuration, Σ over the
    // comparable programs of each class's delta against baseline. The
    // six class deltas must add up exactly to the vm.cycles delta; each
    // run that breaks this is counted failed (checkOp). The unclassified
    // residual is reported beside them, never folded into a class.
    std::vector<size_t> progs = comparablePrograms();
    for (int c = 1; c < kNumConfigs; ++c) {
        int64_t total = 0, classes = 0;
        for (size_t p : progs)
            total += static_cast<int64_t>(sim(p, c)->stats.scalar("vm", "cycles")) -
                     static_cast<int64_t>(sim(p, 0)->stats.scalar("vm", "cycles"));
        for (const char *k : kCycleClasses) {
            int64_t delta = 0;
            for (size_t p : progs)
                delta += classCycles(sim(p, c)->stats, k) -
                         classCycles(sim(p, 0)->stats, k);
            if (std::strcmp(k, "unclassified") != 0)
                classes += delta;
            out.push_back({std::string("vm.cycles_") + k + ".delta_" +
                               kConfigs[c],
                           static_cast<double>(delta), "cycles"});
        }
        out.push_back({std::string("vm.cycles.delta_") + kConfigs[c],
                       static_cast<double>(total), "cycles"});
        if (classes != total)
            std::fprintf(stderr, "ifpbench: %s: the cycle classes' deltas "
                                 "sum to %lld, the vm.cycles delta is %lld\n",
                         kConfigs[c], static_cast<long long>(classes),
                         static_cast<long long>(total));
    }
    return out;
}

/**
 * Per-program make-up and cycle split, on stderr: promotes per 1,000
 * instructions, instrumented mallocs and JIT bailouts (subheap), and
 * each configuration's overhead split by cycle class, in percent of
 * the baseline's cycles.
 */
void
Bench::printProgramTable() const
{
    std::vector<size_t> progs = comparablePrograms();
    std::fprintf(stderr, "\n%s: %zu programs with all five configurations\n",
                 w_.name.c_str(), progs.size());
    if (w_.juliet)
        return;
    std::fprintf(stderr, "%-13s %9s %8s %8s | %-10s %7s", "program",
                 "prom/kI", "mallocs", "bails", "config", "ovh%");
    for (const char *k : kCycleClasses)
        std::fprintf(stderr, " %9s", k);
    std::fprintf(stderr, "\n");
    for (size_t p : progs) {
        const StatSnapshot &b = sim(p, 0)->stats;
        const StatSnapshot &s = sim(p, 1)->stats;
        double base = static_cast<double>(b.scalar("vm", "cycles"));
        for (int c = 1; c < kNumConfigs; ++c) {
            const StatSnapshot &x = sim(p, c)->stats;
            if (c == 1)
                std::fprintf(
                    stderr, "%-13s %9.2f %8llu %8llu | ",
                    w_.programs[p].c_str(),
                    1000.0 * s.scalar("promote", "promotes") /
                        s.scalar("vm", "instructions"),
                    static_cast<unsigned long long>(
                        s.scalar("runtime", "ifp_mallocs")),
                    static_cast<unsigned long long>(
                        s.scalar("vm.tier", "jit_bailouts")));
            else
                std::fprintf(stderr, "%-13s %9s %8s %8s | ", "", "", "",
                             "");
            std::fprintf(stderr, "%-10s %7.1f", kConfigs[c],
                         100.0 * (x.scalar("vm", "cycles") - base) / base);
            for (const char *k : kCycleClasses)
                std::fprintf(stderr, " %9.1f",
                             100.0 * (classCycles(x, k) - classCycles(b, k)) /
                                 base);
            std::fprintf(stderr, "\n");
        }
    }
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: ifpbench --workload <pointer-chase|array-kernels|"
                 "juliet> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
}

} // namespace
} // namespace ifpbench

int
main(int argc, char **argv)
{
    using namespace ifpbench;
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            return usage();
        args[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 == 0 || !args.count("workload") || !args.count("seed") ||
        !args.count("seconds") || !args.count("trace"))
        return usage();
    char *end = nullptr;
    uint64_t seed = std::strtoull(args["seed"].c_str(), &end, 10);
    if (*end != '\0')
        return usage();
    double seconds = std::strtod(args["seconds"].c_str(), &end);
    if (*end != '\0' || !(seconds > 0))
        return usage();
    const std::string &trace = args["trace"];
    if (trace != "0" && trace != "1")
        return usage();

    Workload w;
    if (!makeWorkload(args["workload"], w)) {
        std::fprintf(stderr, "ifpbench: unknown workload '%s'\n",
                     args["workload"].c_str());
        return usage();
    }
    Bench bench(w, seed, seconds, trace == "1");
    return bench.run();
}
