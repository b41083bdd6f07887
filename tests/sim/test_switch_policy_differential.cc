/**
 * @file
 * Flush-vs-ASID differential harness — the pin for the switch-policy
 * tentpole. For every scheme, a multi-process run under ASID retention
 * must translate exactly the same access stream to exactly the same
 * physical frames as the same run under flush-on-switch: retained
 * entries may only ever change *where* a translation is found (the
 * hit/miss counters), never what it translates to. The per-process
 * FNV-1a PPN hashes pin the streams; a single stale entry consulted
 * anywhere diverges the hash.
 *
 * The sweep covers 16 seeds x all six runnable schemes x K in {1,2,4}
 * processes; even seeds additionally run remap churn (which exercises
 * the shootdown path under retention) and weighted round-robin quanta.
 * Counter conservation is asserted on both sides: the per-process stat
 * blocks must sum to the aggregate exactly, field by field
 * (MmuStats::operator+=).
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/multiprocess.hh"

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

/** Per-process stat blocks must sum to the aggregate, field by field. */
void
expectConservation(const MultiProcessResult &r, const char *what)
{
    MmuStats sum;
    std::uint64_t accesses = 0;
    for (const MultiProcessResult::PerProcess &p : r.processes) {
        sum += p.stats;
        accesses += p.accesses;
    }
    EXPECT_EQ(sum.accesses, r.stats.accesses) << what;
    EXPECT_EQ(sum.l1_hits, r.stats.l1_hits) << what;
    EXPECT_EQ(sum.l2_regular_hits, r.stats.l2_regular_hits) << what;
    EXPECT_EQ(sum.coalesced_hits, r.stats.coalesced_hits) << what;
    EXPECT_EQ(sum.page_walks, r.stats.page_walks) << what;
    EXPECT_EQ(sum.translation_cycles, r.stats.translation_cycles) << what;
    EXPECT_EQ(sum.shootdowns, r.stats.shootdowns) << what;
    EXPECT_EQ(sum.shootdown_cycles, r.stats.shootdown_cycles) << what;
    EXPECT_EQ(accesses, r.stats.accesses) << what;
}

void
runDifferential(Scheme scheme)
{
    for (const unsigned nprocs : {1u, 2u, 4u}) {
        std::vector<ProcessSpec> procs;
        for (unsigned i = 0; i < nprocs; ++i)
            procs.push_back({kWorkloads[i], kScenarios[i]});

        for (std::uint64_t seed = 1; seed <= 16; ++seed) {
            const MultiProcessResult flush = runMultiProcess(
                scheme, procs,
                diffOptions(seed, SwitchPolicy::Flush, nprocs));
            const MultiProcessResult asid = runMultiProcess(
                scheme, procs,
                diffOptions(seed, SwitchPolicy::Asid, nprocs));

            SCOPED_TRACE(std::string(schemeName(scheme)) + " K=" +
                         std::to_string(nprocs) + " seed=" +
                         std::to_string(seed));
            // The schedule is policy-independent...
            ASSERT_EQ(flush.context_switches, asid.context_switches);
            ASSERT_EQ(flush.remap_epochs, asid.remap_epochs);
            ASSERT_EQ(flush.stats.accesses, asid.stats.accesses);
            // ...and so is every process's translated PPN stream. Only
            // the hit/miss counters may differ between the policies.
            ASSERT_EQ(flush.processes.size(), asid.processes.size());
            for (std::size_t i = 0; i < flush.processes.size(); ++i) {
                ASSERT_EQ(flush.processes[i].accesses,
                          asid.processes[i].accesses)
                    << "process " << i;
                ASSERT_EQ(flush.processes[i].ppn_hash,
                          asid.processes[i].ppn_hash)
                    << "process " << i;
            }
            expectConservation(flush, "flush");
            expectConservation(asid, "asid");
            // The flush policy never issues shootdowns; retention only
            // does when there is churn to shoot down.
            EXPECT_EQ(flush.stats.shootdowns, 0u);
            if (asid.remap_epochs == 0) {
                EXPECT_EQ(asid.stats.shootdowns, 0u);
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
