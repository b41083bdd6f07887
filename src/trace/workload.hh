/**
 * @file
 * Synthetic workload models standing in for the paper's Pin traces.
 *
 * The paper evaluates SPEC CPU2006, biobench, gups and graph500 (8GB
 * working sets for the latter two, 12B-instruction Pin traces). We
 * cannot re-run Pin over licensed binaries, so each workload is modelled
 * as a deterministic mixture of access-pattern phases whose page-level
 * behaviour (footprint, reuse, spatial locality, skew) matches the
 * qualitative TLB character the paper reports. TLB studies are sensitive
 * to the *page-level* reference stream, not the exact byte stream, so
 * this substitution preserves the per-scheme orderings the paper's
 * claims rest on (see DESIGN.md, "Substitutions").
 *
 * Each spec also carries the per-workload mapping-realism knobs consumed
 * by the demand/eager scenarios: the mean free-run length of the
 * pre-fragmented physical pool (standing in for the co-runner pressure
 * that shaped the paper's real-machine pagemaps, Table 6's spread) and a
 * fault-churn probability.
 */

#ifndef ANCHORTLB_TRACE_WORKLOAD_HH
#define ANCHORTLB_TRACE_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "trace/access.hh"

namespace atlb
{

/**
 * Families of access behaviour composable into a workload.
 *
 * Hot regions are virtually *contiguous* (anchored at a random base per
 * phase): hot program data lives in data structures that were allocated
 * together, which is precisely why coverage-oriented translation schemes
 * work at all. Fully scattered hotness (gups) is expressed with Random.
 */
enum class PatternKind
{
    Sequential,   //!< streaming sweep with a fixed stride
    Random,       //!< uniform random over the footprint
    Zipf,         //!< skewed page popularity within a contiguous region
    PointerChase, //!< dependent chain walk inside a hot region
    Stencil,      //!< several arrays swept in lockstep
    HotCold,      //!< contiguous hot region plus cold background
};

/** One phase of a workload's behaviour mixture. */
struct PatternPhase
{
    PatternKind kind = PatternKind::Random;
    /** Relative probability of entering this phase. */
    double weight = 1.0;
    /** Accesses generated per visit to this phase. */
    std::uint64_t burst = 256;

    // Kind-specific parameters (unused ones ignored).
    double zipf_theta = 0.9;        //!< Zipf skew
    unsigned stencil_arrays = 4;    //!< Stencil: number of arrays
    double jump_prob = 0.02;        //!< PointerChase: global jump prob.
    /** Hot/chase region size as a fraction of the footprint. */
    double hot_fraction = 0.05;
    double hot_prob = 0.9;          //!< HotCold: P(access is hot)
    std::uint64_t stride_bytes = 64; //!< Sequential: stride
    /**
     * Hot-region base as a page offset into the footprint; the default
     * (~0) picks a random base per seed. Pin it to place hot regions
     * deliberately (e.g. the multi-region experiments).
     */
    std::uint64_t hot_base_page = ~0ULL;
};

/** Full description of one synthetic workload. */
struct WorkloadSpec
{
    std::string name;
    std::uint64_t footprint_bytes = 0;
    /** Data memory accesses per instruction (for the CPI model). */
    double mem_per_instr = 0.33;
    /** Fraction of accesses that are writes. */
    double write_fraction = 0.3;
    /**
     * Probability that an access re-touches the previous page (stack,
     * locals, adjacent fields). This intra-page locality keeps absolute
     * walk rates per access realistic without changing the structure of
     * the TLB-miss stream.
     */
    double page_reuse = 0.85;
    std::vector<PatternPhase> phases;

    // Mapping-realism knobs for the demand/eager scenarios.
    std::uint64_t demand_run_pages = 0; //!< 0 = pristine pool
    std::uint64_t eager_run_pages = 0;
    double demand_churn = 0.0;
    /** Page-weighted fraction of the pool in small "tail" runs. */
    std::uint64_t map_tail_run_pages = 0;
    double map_tail_fraction = 0.0;

    /**
     * Non-empty: replay this binary trace file (ATLBTRC1/2) instead of
     * generating the phase mixture. Built by scaledWorkloadSpec for
     * "trace:<path>" workload names; the phases above are then unused.
     */
    std::string trace_path;
    /** Access count of trace_path, recorded when the spec is built. */
    std::uint64_t trace_accesses = 0;

    bool traceDriven() const { return !trace_path.empty(); }

    std::uint64_t footprintPages() const
    {
        return (footprint_bytes + pageBytes - 1) / pageBytes;
    }
};

/** The paper's 14-workload evaluation set plus PARSEC extras (Fig. 1). */
const std::vector<WorkloadSpec> &workloadCatalog();

/** Look up a catalog workload by name; fatal if unknown. */
const WorkloadSpec &findWorkload(const std::string &name);

/** Names of the 14 workloads in the paper's figure order. */
std::vector<std::string> paperWorkloadNames();

/**
 * Deterministic generator realising a WorkloadSpec as an access stream.
 */
class PatternTrace : public TraceSource
{
  public:
    /**
     * @param spec          workload description (copied)
     * @param va_base       first byte of the mapped region
     * @param num_accesses  stream length
     * @param seed          RNG seed; equal seeds reproduce the stream
     */
    PatternTrace(const WorkloadSpec &spec, VirtAddr va_base,
                 std::uint64_t num_accesses, std::uint64_t seed);

    /**
     * Generate the next accesses; the stream does not depend on the
     * chunk sizes (tests/trace/test_trace_fill.cc).
     */
    std::size_t fill(MemAccess *out, std::size_t max) override;

    void reset() override;

    const WorkloadSpec &spec() const { return spec_; }
    std::uint64_t length() const { return num_accesses_; }

  private:
    WorkloadSpec spec_;
    VirtAddr va_base_;
    std::uint64_t num_accesses_;
    std::uint64_t seed_;
    std::uint64_t pages_;

    Rng rng_;
    std::uint64_t produced_ = 0;
    std::size_t phase_ = 0;
    std::uint64_t burst_left_ = 0;

    // Per-pattern cursors.
    VirtAddr last_page_va_{};       // previous page, for intra-page reuse
    std::uint64_t seq_pos_ = 0;     // byte offset (Sequential)
    std::uint64_t chase_pos_ = 0;   // position within chase region
    std::uint64_t stencil_pos_ = 0; // element index (Stencil)

    // Chain-walk constants (odd multiplier, derived from the seed).
    std::uint64_t chase_a_ = 1;
    std::uint64_t chase_b_ = 0;
    /** Per-phase hot-region base page, fixed for the whole run. */
    std::vector<std::uint64_t> hot_base_;

    void pickPhase();
    std::uint64_t hotPages(double fraction) const;
    VirtAddr generate();
};

} // namespace atlb

#endif // ANCHORTLB_TRACE_WORKLOAD_HH
