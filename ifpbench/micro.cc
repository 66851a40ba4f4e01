#include "micro.hh"

#include <algorithm>
#include <cstdio>

#include "cache/cache.hh"
#include "compiler/layout_gen.hh"
#include "ifp/metadata.hh"
#include "ifp/ops.hh"
#include "ifp/promote_engine.hh"
#include "ir/module.hh"
#include "mem/guest_memory.hh"
#include "runtime/runtime.hh"
#include "spans.hh"
#include "support/bitops.hh"
#include "support/siphash.hh"

namespace ifpbench {

using namespace infat;

namespace {

constexpr int kReps = 7;
constexpr uint64_t kIters = 100'000;
/** Untimed calls whose stats show which path a loop takes. */
constexpr uint64_t kProbeIters = 10'000;

/** Keeps results observable so the timed loops are not folded away. */
volatile uint64_t sink;

/** Median over kReps of the ns/op of kIters calls of @p op(i). */
template <typename Op>
double
timeOp(Op &&op)
{
    std::vector<double> reps;
    for (int r = 0; r < kReps; ++r) {
        uint64_t acc = 0;
        int64_t t0 = nowNs();
        for (uint64_t i = 0; i < kIters; ++i)
            acc += op(i);
        int64_t t1 = nowNs();
        sink = acc;
        reps.push_back(static_cast<double>(t1 - t0) / kIters);
    }
    std::sort(reps.begin(), reps.end());
    return reps[reps.size() / 2];
}

/** A promote engine over private memory with one object per scheme. */
struct PromoteFixture
{
    GuestMemory mem;
    IfpControlRegs regs;
    PromoteEngine engine{mem, nullptr, regs};
    ir::Module module;

    PromoteFixture()
    {
        regs.macKey = {0xfeed, 0xbeef};
        regs.globalTableBase = layout::tableBase;
        regs.globalTableRows = IfpConfig::globalTableRows;
        regs.subheap[0] = {true, 16, 0};
    }

    TaggedPtr
    local(GuestAddr base, uint64_t size, GuestAddr layout_table)
    {
        GuestAddr meta = base + roundUp(size, 16);
        LocalOffsetMeta::write(mem, meta, size, layout_table, regs.macKey);
        return TaggedPtr::make(base, Scheme::LocalOffset,
                               ((meta - base) / 16) << 6);
    }

    TaggedPtr
    subheap(GuestAddr block, GuestAddr layout_table)
    {
        SubheapBlockMeta meta;
        meta.slotsStart = 64;
        meta.slotsEnd = 64 + 64 * 64;
        meta.slotSize = 64;
        meta.objectSize = 48;
        meta.layoutTable = layout_table;
        meta.valid = true;
        SubheapBlockMeta::write(mem, block, 0, meta, regs.macKey);
        return TaggedPtr::make(block + 64 + 3 * 64, Scheme::Subheap, 0);
    }

    TaggedPtr
    global(uint64_t row)
    {
        GlobalTableRow r{0x7000, 4096, true};
        GlobalTableRow::write(mem, regs.globalTableBase, row, r);
        return TaggedPtr::make(0x7800, Scheme::GlobalTable, row);
    }

    /**
     * A layout table for struct { i64 tag; i64 buf[4]; } written at
     * @p at; returns the subobject index of buf's first element.
     */
    uint64_t
    layoutAt(GuestAddr at)
    {
        ir::TypeContext &tc = module.types();
        const ir::Type *s = tc.createStruct(
            "walk", {tc.i64(), tc.array(tc.i64(), 4)});
        LayoutTable table = buildLayoutTable(s);
        table.writeTo(mem, at);
        return table.numEntries() - 1;
    }

    /** A pointer @p delta bytes into @p base, carrying @p index. */
    static TaggedPtr
    into(TaggedPtr base, uint64_t index, int64_t delta)
    {
        return ops::ifpAdd(base.withSubobjIndex(index), delta,
                           Bounds::cleared());
    }
};

bool
expect(bool cond, const char *what)
{
    if (!cond)
        std::fprintf(stderr, "ifpbench: microbenchmark %s does not take "
                             "its intended path\n", what);
    return cond;
}

} // namespace

std::vector<MicroResult>
runMicrobenchmarks(bool &ok)
{
    std::vector<MicroResult> out;
    using Outcome = PromoteResult::Outcome;

    // PromoteEngine::promote, per path and per scheme.
    {
        PromoteFixture f;
        GuestAddr lt = 0x9000;
        uint64_t idx = f.layoutAt(lt);
        struct Case
        {
            const char *name;
            TaggedPtr ptr;
            Outcome outcome;
            bool narrows;
        };
        TaggedPtr sub_base = f.subheap(0x40000, lt);
        TaggedPtr loc_base = f.local(0x2000, 40, lt);
        const Case cases[] = {
            {"ifp.promote_ns.null_bypass", TaggedPtr(), Outcome::BypassNull,
             false},
            {"ifp.promote_ns.legacy_bypass", TaggedPtr::legacy(0x5000),
             Outcome::BypassLegacy, false},
            {"ifp.promote_ns.local_hit", loc_base, Outcome::Retrieved,
             false},
            {"ifp.promote_ns.subheap_hit", sub_base, Outcome::Retrieved,
             false},
            {"ifp.promote_ns.global_hit", f.global(5), Outcome::Retrieved,
             false},
            {"ifp.promote_ns.local_walk",
             PromoteFixture::into(loc_base, idx, 8), Outcome::Retrieved,
             true},
            {"ifp.promote_ns.subheap_walk",
             PromoteFixture::into(sub_base, idx, 8), Outcome::Retrieved,
             true},
        };
        for (const Case &c : cases) {
            PromoteResult probe = f.engine.promote(c.ptr);
            ok &= expect(probe.outcome == c.outcome &&
                             probe.narrowSucceeded == c.narrows,
                         c.name);
            TaggedPtr p = c.ptr;
            out.push_back({c.name, timeOp([&](uint64_t) {
                               PromoteResult r = f.engine.promote(p);
                               return r.bounds.lower() ^ r.cycles;
                           })});
        }
    }

    // Cache::access over a working set twice the L1D's size, swept in a
    // fixed order, so LRU replacement misses nearly every access (92%).
    {
        Cache cache("l1d");
        std::vector<GuestAddr> addrs(4096);
        uint64_t span = 2 * cache.config().sizeBytes;
        for (size_t i = 0; i < addrs.size(); ++i)
            addrs[i] = 0x100000 + (i * 2654435761u) % span;
        auto access = [&](uint64_t i) {
            return cache.access(addrs[i & 4095], 8, i & 1).latency;
        };
        for (uint64_t i = 0; i < kProbeIters; ++i)
            access(i);
        ok &= expect(cache.missRate() > 0.85, "cache.access_ns");
        out.push_back({"cache.access_ns", timeOp(access)});
    }

    // GuestMemory loads: the same page (uTLB hit) and two pages that
    // share a uTLB entry (every load misses). Each runs on its own
    // memory, whose uTLB hit rate the probe loop checks.
    {
        GuestAddr a = 0x200000;
        GuestAddr b = a + 64 * GuestMemory::pageSize;
        GuestMemory hit_mem, miss_mem;
        for (GuestMemory *m : {&hit_mem, &miss_mem}) {
            m->store<uint64_t>(a, 1);
            m->store<uint64_t>(b, 2);
        }
        auto hit = [&](uint64_t i) {
            return hit_mem.load<uint64_t>(a + (i & 63) * 8);
        };
        auto miss = [&](uint64_t i) {
            return miss_mem.load<uint64_t>((i & 1) ? b : a);
        };
        for (uint64_t i = 0; i < kProbeIters; ++i)
            sink = hit(i) + miss(i);
        ok &= expect(hit_mem.stats().formulaValue("utlb_hit_rate") > 0.99,
                     "mem.load_ns.utlb_hit");
        ok &= expect(miss_mem.stats().formulaValue("utlb_hit_rate") < 0.01,
                     "mem.load_ns.utlb_miss");
        out.push_back({"mem.load_ns.utlb_hit", timeOp(hit)});
        out.push_back({"mem.load_ns.utlb_miss", timeOp(miss)});
    }

    out.push_back({"support.siphash_ns", timeOp([](uint64_t i) {
                       return mac48(i, i * 3, 0xfeed, 0xbeef);
                   })});

    // Instrumented malloc + free through the runtime, per allocator;
    // every size must take the allocator's own scheme (subheap pools,
    // wrapped local-offset metadata), not a fallback.
    for (AllocatorKind kind :
         {AllocatorKind::Subheap, AllocatorKind::Wrapped}) {
        GuestMemory mem;
        IfpControlRegs regs;
        Runtime runtime(mem, regs, kind, true);
        runtime.init(nullptr);
        std::string name = std::string("runtime.malloc_free_ns.") +
                           toString(kind);
        Scheme scheme = kind == AllocatorKind::Subheap ? Scheme::Subheap
                                                       : Scheme::LocalOffset;
        for (uint64_t i = 0; i < 4; ++i) {
            RuntimeCost cost;
            IfpAllocation a =
                runtime.ifpMalloc(16 + i * 16, ir::noLayout, cost);
            ok &= expect(a.ptr.scheme() == scheme, name.c_str());
            runtime.ifpFree(a.ptr, cost);
        }
        out.push_back({name, timeOp([&](uint64_t i) {
                           RuntimeCost cost;
                           IfpAllocation a = runtime.ifpMalloc(
                               16 + (i & 3) * 16, ir::noLayout, cost);
                           runtime.ifpFree(a.ptr, cost);
                           return a.ptr.raw() + cost.instructions;
                       })});
    }
    return out;
}

} // namespace ifpbench
