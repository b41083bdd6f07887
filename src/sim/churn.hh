/**
 * @file
 * Mapping-churn simulation: the OS reorganises a process's physical
 * memory while it runs.
 *
 * The paper's dynamic-distance machinery exists because mappings change
 * (Section 4): compaction creates contiguity, pressure destroys it, and
 * each change ends in a TLB shootdown. This module runs a workload
 * through a sequence of mapping epochs; at each boundary the OS
 * installs a new mapping (same VA space, new physical layout), re-runs
 * the epoch-based distance controller, re-sweeps anchors when the
 * distance changed, and flushes the TLBs. It measures what the paper
 * asserts qualitatively: re-selection is rare under stable allocation,
 * reacts to drastic change, and the post-shootdown warmup is far
 * cheaper for coverage-based schemes than for the baseline.
 */

#ifndef ANCHORTLB_SIM_CHURN_HH
#define ANCHORTLB_SIM_CHURN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mmu/mmu.hh"
#include "os/scenario.hh"
#include "sim/scheme.hh"

namespace atlb
{

/** One epoch's mapping regime. */
struct ChurnEpoch
{
    ScenarioKind scenario = ScenarioKind::MedContig;
    /** Accesses executed in this epoch. */
    std::uint64_t accesses = 200'000;
    /** Fresh seed => new physical layout even for the same scenario. */
    std::uint64_t seed = 1;
};

/** Knobs for a churn run. */
struct ChurnOptions
{
    std::string workload = "canneal";
    double footprint_scale = 1.0;
    std::uint64_t seed = 42;
    MmuConfig mmu;
    /** Hysteresis threshold of the distance controller. */
    double distance_threshold = 0.1;
};

/** Outcome of one churn run. */
struct ChurnResult
{
    struct EpochStats
    {
        std::string scenario;
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
        std::uint64_t anchor_distance = 0; //!< 0 for non-anchor schemes
        bool distance_changed = false;
        /** Page-table entries touched by the re-sweep (0 if none). */
        std::uint64_t sweep_touched = 0;
    };

    std::vector<EpochStats> epochs;
    std::uint64_t distance_changes = 0;
    MmuStats stats;
};

/**
 * Run @p epochs of mapping churn under @p scheme, each epoch one
 * translateTrace call (the batch kernel). Each epoch boundary
 * rebuilds the mapping/page table, updates scheme state and flushes —
 * never leaving a stale translation behind (verified by tests).
 */
ChurnResult runMappingChurn(Scheme scheme,
                            const std::vector<ChurnEpoch> &epochs,
                            const ChurnOptions &options);

} // namespace atlb

#endif // ANCHORTLB_SIM_CHURN_HH
