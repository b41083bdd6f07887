/**
 * @file
 * Flush-vs-ASID differential harness — the pin for the switch-policy
 * tentpole. For every scheme, a multi-process run under ASID retention
 * must translate exactly the same access stream to exactly the same
 * physical frames as the same run under flush-on-switch: retained
 * entries may only ever change *where* a translation is found (the
 * hit/miss counters), never what it translates to.
 *
 * runMultiProcess runs each quantum through the batch kernel, which
 * returns no frames, so every run is made twice: by the engine and by
 * the per-access scheduler it replaced (multiprocess_reference.hh).
 * The engine's result must equal the reference's field by field under
 * both policies, and the reference's per-process FNV-1a PPN hashes pin
 * the frame streams: a single stale entry consulted anywhere diverges
 * a hash. Checked builds also verify every frame the engine translates
 * inside the kernel.
 *
 * The sweep covers 16 seeds x all six runnable schemes x K in {1,2,4}
 * processes; even seeds additionally run remap churn (which exercises
 * the shootdown path under retention) and weighted round-robin quanta.
 * Counter conservation is asserted on both policies: the per-process
 * stat blocks must sum to the aggregate exactly, field by field
 * (MmuStats::operator+=).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/multiprocess.hh"
#include "sim/multiprocess_reference.hh"

namespace atlb
{
namespace
{

constexpr const char *kWorkloads[] = {"canneal", "milc", "mcf",
                                      "sphinx3"};
constexpr ScenarioKind kScenarios[] = {
    ScenarioKind::MedContig, ScenarioKind::Demand,
    ScenarioKind::LowContig, ScenarioKind::MaxContig};

MultiProcessOptions
diffOptions(std::uint64_t seed, SwitchPolicy policy, unsigned nprocs)
{
    MultiProcessOptions opts;
    opts.total_accesses = 24'000;
    opts.quantum_accesses = 2'000;
    opts.footprint_scale = 0.02;
    opts.seed = seed;
    opts.policy = policy;
    if (seed % 2 == 0) {
        // Even seeds add remap churn (shootdowns under retention) and
        // weighted quanta — both must be policy-invariant too.
        opts.remap_every_quanta = 3;
        for (unsigned i = 0; i < nprocs; ++i)
            opts.weights.push_back(i + 1);
    }
    return opts;
}

/** @p a and @p b agree counter by counter. */
void
expectSameStats(const MmuStats &a, const MmuStats &b, const std::string &what)
{
    ASSERT_EQ(a.accesses, b.accesses) << what;
    ASSERT_EQ(a.l1_hits, b.l1_hits) << what;
    ASSERT_EQ(a.l2_regular_hits, b.l2_regular_hits) << what;
    ASSERT_EQ(a.coalesced_hits, b.coalesced_hits) << what;
    ASSERT_EQ(a.page_walks, b.page_walks) << what;
    ASSERT_EQ(a.translation_cycles, b.translation_cycles) << what;
    ASSERT_EQ(a.shootdowns, b.shootdowns) << what;
    ASSERT_EQ(a.shootdown_cycles, b.shootdown_cycles) << what;
}

/** Per-process stat blocks must sum to the aggregate, field by field. */
void
expectConservation(const MultiProcessResult &r)
{
    MmuStats sum;
    std::uint64_t accesses = 0;
    for (const MultiProcessResult::PerProcess &p : r.processes) {
        sum += p.stats;
        accesses += p.accesses;
    }
    ASSERT_NO_FATAL_FAILURE(expectSameStats(sum, r.stats, "conservation"));
    ASSERT_EQ(accesses, r.stats.accesses);
}

/**
 * Run @p opts through the engine and the reference (into @p ref): the
 * results must agree field by field, and the engine's per-process
 * blocks must sum to its aggregate.
 */
void
runBothSides(Scheme scheme, const std::vector<ProcessSpec> &procs,
             const MultiProcessOptions &opts,
             multiprocess_reference::Result &ref)
{
    const MultiProcessResult engine = runMultiProcess(scheme, procs, opts);
    ref = multiprocess_reference::runMultiProcess(scheme, procs, opts);
    const std::string policy =
        opts.policy == SwitchPolicy::Flush ? "flush" : "asid";
    ASSERT_EQ(engine.processes.size(), ref.run.processes.size());
    for (std::size_t i = 0; i < engine.processes.size(); ++i) {
        const MultiProcessResult::PerProcess &e = engine.processes[i];
        const MultiProcessResult::PerProcess &r = ref.run.processes[i];
        const std::string what = policy + " process " + std::to_string(i);
        ASSERT_EQ(e.workload, r.workload) << what;
        ASSERT_EQ(e.accesses, r.accesses) << what;
        ASSERT_EQ(e.anchor_distance, r.anchor_distance) << what;
        ASSERT_EQ(e.asid, r.asid) << what;
        ASSERT_NO_FATAL_FAILURE(expectSameStats(e.stats, r.stats, what));
    }
    ASSERT_EQ(engine.context_switches, ref.run.context_switches) << policy;
    ASSERT_EQ(engine.remap_epochs, ref.run.remap_epochs) << policy;
    ASSERT_NO_FATAL_FAILURE(
        expectSameStats(engine.stats, ref.run.stats, policy));
    ASSERT_NO_FATAL_FAILURE(expectConservation(engine));
}

void
runDifferential(Scheme scheme)
{
    for (const unsigned nprocs : {1u, 2u, 4u}) {
        std::vector<ProcessSpec> procs;
        for (unsigned i = 0; i < nprocs; ++i)
            procs.push_back({kWorkloads[i], kScenarios[i]});

        for (std::uint64_t seed = 1; seed <= 16; ++seed) {
            SCOPED_TRACE(std::string(schemeName(scheme)) + " K=" +
                         std::to_string(nprocs) + " seed=" +
                         std::to_string(seed));
            multiprocess_reference::Result flush;
            multiprocess_reference::Result asid;
            ASSERT_NO_FATAL_FAILURE(runBothSides(
                scheme, procs,
                diffOptions(seed, SwitchPolicy::Flush, nprocs), flush));
            ASSERT_NO_FATAL_FAILURE(runBothSides(
                scheme, procs,
                diffOptions(seed, SwitchPolicy::Asid, nprocs), asid));

            // The schedule is policy-independent...
            ASSERT_EQ(flush.run.context_switches,
                      asid.run.context_switches);
            ASSERT_EQ(flush.run.remap_epochs, asid.run.remap_epochs);
            ASSERT_EQ(flush.run.stats.accesses, asid.run.stats.accesses);
            for (std::size_t i = 0; i < flush.run.processes.size(); ++i) {
                ASSERT_EQ(flush.run.processes[i].accesses,
                          asid.run.processes[i].accesses)
                    << "process " << i;
            }
            // ...and so is every process's translated PPN stream. Only
            // the hit/miss counters may differ between the policies.
            ASSERT_EQ(flush.ppn_hashes, asid.ppn_hashes);
            // The flush policy never issues shootdowns; retention only
            // does when there is churn to shoot down.
            EXPECT_EQ(flush.run.stats.shootdowns, 0u);
            if (asid.run.remap_epochs == 0) {
                EXPECT_EQ(asid.run.stats.shootdowns, 0u);
            }
        }
    }
}

TEST(SwitchPolicyDifferential, Base)
{
    runDifferential(Scheme::Base);
}

TEST(SwitchPolicyDifferential, Thp)
{
    runDifferential(Scheme::Thp);
}

TEST(SwitchPolicyDifferential, Cluster)
{
    runDifferential(Scheme::Cluster);
}

TEST(SwitchPolicyDifferential, Cluster2MB)
{
    runDifferential(Scheme::Cluster2MB);
}

TEST(SwitchPolicyDifferential, Rmm)
{
    runDifferential(Scheme::Rmm);
}

TEST(SwitchPolicyDifferential, Anchor)
{
    runDifferential(Scheme::Anchor);
}

} // namespace
} // namespace atlb
