/**
 * @file
 * The translation schemes compared in the paper's evaluation, and the
 * scheme table: one row per scheme with its names and the page-table
 * layout its cells run on. Every site that needs a scheme's name or
 * table reads its row; buildSchemeMmu (sim/experiment.hh) is the one
 * place that maps a scheme to its MMU.
 */

#ifndef ANCHORTLB_SIM_SCHEME_HH
#define ANCHORTLB_SIM_SCHEME_HH

#include <cstddef>
#include <iterator>
#include <optional>
#include <string_view>

namespace atlb
{

/** Schemes of paper Figures 7-11 (plus the static-ideal anchor oracle). */
enum class Scheme
{
    Base,       //!< 4KB-only two-level TLB
    Thp,        //!< baseline hardware + transparent huge pages
    Cluster,    //!< HW coalescing, 4KB only (CoLT/cluster TLB)
    Cluster2MB, //!< HW coalescing + 2MB pages in the regular partition
    Rmm,        //!< redundant memory mappings (range TLB)
    Anchor,     //!< hybrid coalescing, dynamic distance (paper "Dynamic")
    AnchorIdeal //!< hybrid coalescing, oracle distance ("Static Ideal")
};

/** All schemes in paper legend order. */
constexpr Scheme allSchemes[] = {
    Scheme::Base,    Scheme::Thp, Scheme::Cluster, Scheme::Cluster2MB,
    Scheme::Rmm,     Scheme::Anchor, Scheme::AnchorIdeal,
};

/** The page table a scheme's cells run on. */
enum class TableLayout
{
    Plain,      //!< all 4KB pages
    Thp,        //!< 2MB pages where the mapping allows them
    Anchor,     //!< THP + anchors at Algorithm 1's or an override distance
    AnchorSweep //!< Anchor at every candidate distance; fewest misses wins
};

/** One row of the scheme table. */
struct SchemeRow
{
    Scheme scheme;
    const char *name;      //!< paper legend name, also the wire name
    const char *cli_name;  //!< `anchortlb --scheme=` spelling
    const char *cli_alias; //!< a second CLI spelling, or nullptr
    TableLayout layout;

    /** Whether a cell's distance override applies. */
    constexpr bool takesDistance() const
    {
        return layout == TableLayout::Anchor;
    }

    /** Whether a result reports the anchor distance it ran at. */
    constexpr bool anchored() const
    {
        return layout == TableLayout::Anchor ||
               layout == TableLayout::AnchorSweep;
    }
};

/** The scheme table, in allSchemes (= enum) order. */
constexpr SchemeRow schemeRows[] = {
    {Scheme::Base, "Base", "base", nullptr, TableLayout::Plain},
    {Scheme::Thp, "THP", "thp", nullptr, TableLayout::Thp},
    {Scheme::Cluster, "Cluster", "cluster", nullptr, TableLayout::Plain},
    {Scheme::Cluster2MB, "Cluster-2MB", "cluster-2mb", nullptr,
     TableLayout::Thp},
    {Scheme::Rmm, "RMM", "rmm", nullptr, TableLayout::Thp},
    {Scheme::Anchor, "Dynamic", "anchor", "dynamic", TableLayout::Anchor},
    {Scheme::AnchorIdeal, "Static Ideal", "ideal", nullptr,
     TableLayout::AnchorSweep},
};

static_assert(
    [] {
        if (std::size(schemeRows) != std::size(allSchemes))
            return false;
        for (std::size_t i = 0; i < std::size(allSchemes); ++i)
            if (schemeRows[i].scheme != allSchemes[i] ||
                static_cast<std::size_t>(allSchemes[i]) != i)
                return false;
        return true;
    }(),
    "schemeRows needs one row per allSchemes entry, in enum order");

/** @p scheme's row of the scheme table. */
constexpr const SchemeRow &
schemeRow(Scheme scheme)
{
    return schemeRows[static_cast<std::size_t>(scheme)];
}

/** Paper legend name ("Base", "THP", "Cluster", ...). */
constexpr const char *
schemeName(Scheme scheme)
{
    return schemeRow(scheme).name;
}

/**
 * The scheme @p name names: a legend name, or with @p cli_spellings
 * also a CLI name or alias. The wire accepts legend names only.
 */
constexpr std::optional<Scheme>
findScheme(std::string_view name, bool cli_spellings)
{
    for (const SchemeRow &row : schemeRows) {
        if (name == row.name ||
            (cli_spellings && (name == row.cli_name ||
                               (row.cli_alias && name == row.cli_alias))))
            return row.scheme;
    }
    return std::nullopt;
}

} // namespace atlb

#endif // ANCHORTLB_SIM_SCHEME_HH
