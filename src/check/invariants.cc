#include "invariants.hh"

#include <map>
#include <utility>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "mem/buddy_allocator.hh"
#include "mmu/anchor_mmu.hh"
#include "os/page_table.hh"
#include "tlb/set_assoc_tlb.hh"

namespace atlb
{

namespace
{

/** Append a formatted violation to @p report. */
template <typename... Args>
void
violate(InvariantReport &report, std::string_view fmt, const Args &...args)
{
    report.violations.push_back(format(fmt, args...));
}

} // namespace

InvariantReport
checkTlbInvariants(const SetAssocTlb &tlb)
{
    InvariantReport report;
    for (unsigned set = 0; set < tlb.numSets(); ++set) {
        for (unsigned way = 0; way < tlb.numWays(); ++way) {
            const TlbEntry &e = tlb.entryAt(set, way);
            if (!e.valid)
                continue;

            const unsigned home =
                static_cast<unsigned>(e.key.raw() & (tlb.numSets() - 1));
            if (home != set) {
                violate(report,
                        "{}: entry key {} stored in set {} but indexes "
                        "set {}",
                        tlb.name(), e.key, set, home);
            }
            if (tlb.lastUseAt(set, way) > tlb.lruTick()) {
                violate(report,
                        "{}: set {} way {} timestamp {} exceeds clock {}",
                        tlb.name(), set, way, tlb.lastUseAt(set, way),
                        tlb.lruTick());
            }

            for (unsigned other = way + 1; other < tlb.numWays();
                 ++other) {
                const TlbEntry &o = tlb.entryAt(set, other);
                if (!o.valid)
                    continue;
                if (o.kind == e.kind && o.key == e.key) {
                    violate(report,
                            "{}: duplicate tag (kind {}, key {}) in set "
                            "{} ways {} and {}",
                            tlb.name(), static_cast<unsigned>(e.kind),
                            e.key, set, way, other);
                }
                if (tlb.lastUseAt(set, way) != 0 &&
                    tlb.lastUseAt(set, way) == tlb.lastUseAt(set, other)) {
                    violate(report,
                            "{}: set {} ways {} and {} share LRU "
                            "timestamp {} (replacement order ambiguous)",
                            tlb.name(), set, way, other,
                            tlb.lastUseAt(set, way));
                }
            }
        }
    }
    return report;
}

InvariantReport
checkAnchorInvariants(const AnchorMmu &mmu)
{
    InvariantReport report;
    const SetAssocTlb &l2 = mmu.l2Tlb();
    const PageTable &table = mmu.pageTable();
    const PageTable *host = mmu.hostPageTable();

    for (unsigned set = 0; set < l2.numSets(); ++set) {
        for (unsigned way = 0; way < l2.numWays(); ++way) {
            const TlbEntry &e = l2.entryAt(set, way);
            if (!e.valid || e.kind != EntryKind::Anchor)
                continue;
            // Retained entries of other address spaces can't be checked
            // here: their page table isn't the one loaded in the MMU.
            if (tlbKeyAsid(e.key) != l2.asid())
                continue;

            // Anchor keys are group-encoded under the ASID tag, with
            // log2(distance) above the group; reconstructing the
            // distance and the VPN is this checker's job.
            constexpr std::uint64_t scheme_mask =
                (std::uint64_t{1} << tlbKeyAsidShift) - 1;
            constexpr std::uint64_t group_mask =
                (std::uint64_t{1} << AnchorMmu::anchorKeyLog2Shift) - 1;
            const std::uint64_t scheme_key = e.key.raw() & scheme_mask;
            const AnchorDist keyed = AnchorDist::fromLog2(
                static_cast<unsigned>(scheme_key >>
                                      AnchorMmu::anchorKeyLog2Shift));
            // lint-allow: page-shift
            const Vpn avpn{(scheme_key & group_mask) << keyed.log2()};
            if (keyed != mmu.distanceFor(avpn)) {
                violate(report,
                        "{}: anchor vpn {} keyed at distance {} but the "
                        "region table gives {}",
                        l2.name(), avpn, keyed, mmu.distanceFor(avpn));
                continue;
            }
            const std::uint64_t distance = keyed.pages();
            if (e.aux == 0 || e.aux > distance ||
                e.aux > PageTable::maxContiguity) {
                violate(report,
                        "{}: anchor vpn {} contiguity {} outside "
                        "(0, min(distance {}, 2^16)]",
                        l2.name(), avpn, e.aux, distance);
                continue;
            }

            // The cached contiguity claims every page in
            // [avpn, avpn + aux) translates by anchor arithmetic; the
            // page table is the ground truth for that claim.
            for (std::uint64_t i = 0; i < e.aux; ++i) {
                const WalkResult walk = table.walk(avpn + i);
                if (!walk.present) {
                    violate(report,
                            "{}: anchor vpn {} contiguity {} crosses "
                            "unmapped vpn {}",
                            l2.name(), avpn, e.aux, avpn + i);
                    break;
                }
                Ppn expected = walk.ppn;
                if (host != nullptr) {
                    const WalkResult hw = host->walk(hostVpnOf(walk.ppn));
                    if (!hw.present) {
                        violate(report,
                                "{}: anchor vpn {} guest frame {} "
                                "unmapped in host",
                                l2.name(), avpn, walk.ppn);
                        break;
                    }
                    expected = hw.ppn;
                }
                if (expected != e.ppn + i) {
                    violate(report,
                            "{}: anchor vpn {} frame {} + offset {} "
                            "disagrees with page table frame {}",
                            l2.name(), avpn, e.ppn, i, expected);
                    break;
                }
            }
        }
    }
    return report;
}

InvariantReport
checkBuddyInvariants(const BuddyAllocator &buddy)
{
    InvariantReport report;
    const auto blocks = buddy.freeBlockList();

    std::uint64_t counted = 0;
    std::map<std::pair<unsigned, Ppn>, bool> by_order;
    Ppn prev_end{0};
    bool first = true;
    for (const auto &[base, order] : blocks) {
        const std::uint64_t pages = 1ULL << order;
        counted += pages;
        by_order[{order, base}] = true;

        if (!base.isAligned(pages)) {
            violate(report, "free block {} misaligned for order {}",
                    base, order);
        }
        if (base.raw() + pages > buddy.totalPages()) {
            violate(report,
                    "free block {} order {} extends past pool end {}",
                    base, order, buddy.totalPages());
        }
        if (!first && base < prev_end) {
            violate(report,
                    "free block {} order {} overlaps the previous block "
                    "ending at {} (double free?)",
                    base, order, prev_end);
        }
        prev_end = base + pages;
        first = false;
    }

    for (const auto &[base, order] : blocks) {
        if (order >= buddy.maxOrder())
            continue;
        const Ppn pair{base.raw() ^ (1ULL << order)};
        if (base < pair && by_order.count({order, pair})) {
            violate(report,
                    "free buddies {} and {} at order {} failed to "
                    "coalesce",
                    base, pair, order);
        }
    }

    if (counted != buddy.freePages()) {
        violate(report,
                "free lists hold {} pages but the counter says {}",
                counted, buddy.freePages());
    }
    return report;
}

namespace
{

void
panicOnViolation(const char *what, const InvariantReport &report)
{
    if (!report.ok()) {
        ATLB_PANIC("{} invariant violated: {} ({} violation(s) total)",
                   what, report.violations.front(),
                   report.violations.size());
    }
}

} // namespace

void
verifyTlbInvariants(const SetAssocTlb &tlb)
{
    panicOnViolation("TLB", checkTlbInvariants(tlb));
}

void
verifyAnchorInvariants(const AnchorMmu &mmu)
{
    panicOnViolation("anchor", checkAnchorInvariants(mmu));
}

void
verifyBuddyInvariants(const BuddyAllocator &buddy)
{
    panicOnViolation("buddy", checkBuddyInvariants(buddy));
}

} // namespace atlb
