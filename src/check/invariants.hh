/**
 * @file
 * Structural invariant checkers for the simulator's core data
 * structures.
 *
 * Each checker walks one structure and reports every violated invariant
 * as a human-readable string; an empty report means the structure is
 * internally consistent. The check*() forms collect violations (for
 * tests that want to inspect them); the verify*() forms panic on the
 * first violation, so integration tests and checked builds can drop
 * them anywhere in a run and fail loudly at the moment the state first
 * goes bad rather than thousands of accesses later.
 *
 * The invariants guarded here are exactly the ones the anchor scheme's
 * correctness rests on (paper Section 3): a TLB set must never hold two
 * entries with the same tag (lookup would be ambiguous), an anchor
 * entry's cached contiguity must never extend past what the page table
 * actually maps contiguously (translation would fabricate frames), and
 * the buddy allocator's free lists must partition free memory (the OS
 * model would hand out overlapping frames).
 */

#ifndef ANCHORTLB_CHECK_INVARIANTS_HH
#define ANCHORTLB_CHECK_INVARIANTS_HH

#include <string>
#include <vector>

namespace atlb
{

class AnchorMmu;
class BuddyAllocator;
class SetAssocTlb;

/** Violations found by one checker pass (empty = consistent). */
struct InvariantReport
{
    std::vector<std::string> violations;

    [[nodiscard]] bool ok() const { return violations.empty(); }
};

/**
 * Set-associative TLB structure:
 *  - every valid entry's key indexes the set it is stored in;
 *  - no two valid entries in a set share (kind, key) — duplicate tags
 *    make lookups ambiguous;
 *  - LRU bookkeeping is sane: timestamps do not exceed the TLB's
 *    clock, and no two valid entries of a set share a non-zero
 *    timestamp (the replacement order must be a strict order).
 */
InvariantReport checkTlbInvariants(const SetAssocTlb &tlb);

/**
 * Anchor scheme semantics: every anchor entry cached in @p mmu's L2
 *  - is keyed at the distance the loaded region table gives its anchor
 *    VPN (AnchorMmu::distanceFor);
 *  - carries contiguity within (0, distance] and the representable
 *    maximum;
 *  - covers only pages the authoritative page table maps at exactly
 *    the frame the anchor arithmetic produces — i.e. the cached
 *    contiguity never crosses an unmapped or migrated page. In nested
 *    mode the expected frame is computed through both dimensions.
 */
InvariantReport checkAnchorInvariants(const AnchorMmu &mmu);

/**
 * Buddy allocator free lists:
 *  - blocks are aligned to their order and lie inside the pool;
 *  - no two free blocks overlap (a double free shows up here);
 *  - no free block has a free buddy below max order (eager coalescing
 *    means such a pair is unreachable state);
 *  - the per-order lists sum to the free-page counter.
 */
InvariantReport checkBuddyInvariants(const BuddyAllocator &buddy);

/** Panic on the first violation; no-op when the structure is clean. */
void verifyTlbInvariants(const SetAssocTlb &tlb);
void verifyAnchorInvariants(const AnchorMmu &mmu);
void verifyBuddyInvariants(const BuddyAllocator &buddy);

} // namespace atlb

#endif // ANCHORTLB_CHECK_INVARIANTS_HH
