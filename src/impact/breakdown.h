/**
 * @file
 * Finer-grained impact attribution on top of the Section-3 metrics:
 *
 *  - per-component impact: D_wait / D_run split by the component
 *    (module) owning the wait/running signature, answering "which
 *    driver hurts the most?";
 *  - per-instance breakdown: one scenario instance's duration split
 *    into running time, component wait (by component), other waiting,
 *    and unattributed time — the view an analyst starts from when
 *    drilling into a single slow instance.
 */

#ifndef TRACELENS_IMPACT_BREAKDOWN_H
#define TRACELENS_IMPACT_BREAKDOWN_H

#include <span>
#include <string>
#include <vector>

#include "src/trace/stream.h"
#include "src/util/wildcard.h"
#include "src/waitgraph/waitgraph.h"

namespace tracelens
{

/** Aggregated impact of one component (module). */
struct ComponentImpact
{
    std::string component;
    DurationNs wait = 0;      //!< Top-level wait time attributed here.
    DurationNs run = 0;       //!< Running time attributed here.
    std::uint64_t waitEvents = 0;

    DurationNs total() const { return wait + run; }
};

/**
 * Split component impact by module over a set of wait graphs. The
 * attribution rules mirror ImpactAnalysis: a top-level matching wait's
 * time goes to the component of its topmost matching frame; running
 * samples go to the component of their topmost matching frame.
 * Sorted by total time descending. Graph chunks are accumulated on
 * @p threads workers (0 = all hardware threads) and their integer
 * sums folded, so the result is identical for every thread count.
 */
std::vector<ComponentImpact>
impactByComponent(const TraceCorpus &corpus,
                  std::span<const WaitGraph> graphs,
                  const NameFilter &components, unsigned threads = 1);

/** One instance's duration, attributed. */
struct InstanceBreakdown
{
    DurationNs total = 0;         //!< t1 - t0.
    DurationNs running = 0;       //!< Top-level running time.
    DurationNs componentWait = 0; //!< Top-level component waits.
    DurationNs otherWait = 0;     //!< Top-level non-component waits.
    DurationNs hardware = 0;      //!< Top-level hardware service.
    DurationNs unattributed = 0;  //!< Ready time, idling, gaps.
    /** componentWait split by component, heaviest first. */
    std::vector<ComponentImpact> byComponent;

    /** Multi-line rendering. */
    std::string render() const;
};

/**
 * Explain one instance. Waits count as component waits when their
 * callstack (or any descendant top-level matching wait's) touches the
 * filter; descendant component waits inside non-matching waits are
 * attributed to componentWait as in the impact analysis.
 */
InstanceBreakdown explainInstance(const TraceCorpus &corpus,
                                  const WaitGraph &graph,
                                  const NameFilter &components);

} // namespace tracelens

#endif // TRACELENS_IMPACT_BREAKDOWN_H
