/**
 * @file
 * Per-component and per-signature splits of the Section-3 impact
 * metrics over cached wait graphs; the per-component split runs as a
 * parallel map over graph chunks with an order-free integer-sum fold.
 */

#include "src/impact/breakdown.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <unordered_map>

#include "src/util/parallel.h"
#include "src/util/table.h"

namespace tracelens
{

namespace
{

/** Accumulate per-component wait/run over one graph's top levels. */
void
accumulateComponents(
    const TraceCorpus &corpus, const WaitGraph &graph,
    const NameFilter &components,
    std::unordered_map<std::uint32_t, ComponentImpact> &by_component)
{
    const SymbolTable &sym = corpus.symbols();

    // Top-level component waits: BFS stopping at matching waits.
    std::deque<std::uint32_t> queue(graph.roots().begin(),
                                    graph.roots().end());
    while (!queue.empty()) {
        const WaitGraph::Node &node = graph.node(queue.front());
        queue.pop_front();
        const Event &e = node.event;
        if (e.type == EventType::Wait && e.stack != kNoCallstack) {
            const FrameId sig = sym.topMatchingFrame(e.stack,
                                                     components);
            if (sig != kNoFrame) {
                ComponentImpact &entry =
                    by_component[sym.componentId(sig)];
                if (entry.component.empty())
                    entry.component = sym.componentName(sig);
                entry.wait += e.cost;
                ++entry.waitEvents;
                continue;
            }
        }
        for (std::uint32_t child : graph.children(node))
            queue.push_back(child);
    }

    // Running attribution across the whole graph.
    for (const WaitGraph::Node &node : graph.nodes()) {
        const Event &e = node.event;
        if (e.type != EventType::Running || e.stack == kNoCallstack)
            continue;
        const FrameId sig = sym.topMatchingFrame(e.stack, components);
        if (sig == kNoFrame)
            continue;
        ComponentImpact &entry = by_component[sym.componentId(sig)];
        if (entry.component.empty())
            entry.component = sym.componentName(sig);
        entry.run += e.cost;
    }
}

std::vector<ComponentImpact>
sortedComponents(
    std::unordered_map<std::uint32_t, ComponentImpact> by_component)
{
    std::vector<ComponentImpact> result;
    result.reserve(by_component.size());
    for (auto &[id, entry] : by_component)
        result.push_back(std::move(entry));
    std::sort(result.begin(), result.end(),
              [](const ComponentImpact &a, const ComponentImpact &b) {
                  if (a.total() != b.total())
                      return a.total() > b.total();
                  return a.component < b.component;
              });
    return result;
}

} // namespace

std::vector<ComponentImpact>
impactByComponent(const TraceCorpus &corpus,
                  std::span<const WaitGraph> graphs,
                  const NameFilter &components, unsigned threads)
{
    // Primed up front: the chunks below read the filter cache
    // concurrently, which is safe once it covers every frame.
    corpus.symbols().primeFilter(components);

    using Tally = std::unordered_map<std::uint32_t, ComponentImpact>;
    constexpr std::size_t kChunk = 256;
    const std::size_t chunks = (graphs.size() + kChunk - 1) / kChunk;
    std::vector<Tally> tallies =
        parallelMap<Tally>(threads, chunks, [&](std::size_t c) {
            Tally tally;
            const std::size_t end =
                std::min(graphs.size(), (c + 1) * kChunk);
            for (std::size_t g = c * kChunk; g < end; ++g)
                accumulateComponents(corpus, graphs[g], components,
                                     tally);
            return tally;
        });

    // Integer sums per component id: the fold is order-free, so the
    // result is the same for every thread count and chunking.
    Tally by_component;
    for (Tally &tally : tallies) {
        for (auto &[id, entry] : tally) {
            ComponentImpact &sum = by_component[id];
            if (sum.component.empty())
                sum.component = std::move(entry.component);
            sum.wait += entry.wait;
            sum.run += entry.run;
            sum.waitEvents += entry.waitEvents;
        }
    }
    return sortedComponents(std::move(by_component));
}

std::string
InstanceBreakdown::render() const
{
    std::ostringstream oss;
    oss << "total " << toMs(total) << "ms = running "
        << toMs(running) << "ms + component-wait "
        << toMs(componentWait) << "ms + other-wait "
        << toMs(otherWait) << "ms + hardware " << toMs(hardware)
        << "ms + unattributed " << toMs(unattributed) << "ms\n";
    for (const ComponentImpact &c : byComponent) {
        oss << "  " << c.component << ": wait " << toMs(c.wait)
            << "ms (" << c.waitEvents << " waits), run "
            << toMs(c.run) << "ms\n";
    }
    return oss.str();
}

InstanceBreakdown
explainInstance(const TraceCorpus &corpus, const WaitGraph &graph,
                const NameFilter &components)
{
    corpus.symbols().primeFilter(components);
    const SymbolTable &sym = corpus.symbols();

    InstanceBreakdown breakdown;
    breakdown.total = graph.instance().duration();

    std::unordered_map<std::uint32_t, ComponentImpact> by_component;
    accumulateComponents(corpus, graph, components, by_component);
    breakdown.byComponent = sortedComponents(std::move(by_component));
    for (const ComponentImpact &c : breakdown.byComponent)
        breakdown.componentWait += c.wait;

    // Top-level (root) accounting for the remaining categories. A
    // non-matching root wait's time is split: the parts covered by
    // nested component waits were already counted above; the remainder
    // is "other wait".
    DurationNs nested_component_under_other = 0;
    for (std::uint32_t root : graph.roots()) {
        const WaitGraph::Node &node = graph.node(root);
        const Event &e = node.event;
        switch (e.type) {
          case EventType::Running:
            breakdown.running += e.cost;
            break;
          case EventType::HardwareService:
            breakdown.hardware += e.cost;
            break;
          case EventType::Wait: {
            const FrameId sig =
                e.stack == kNoCallstack
                    ? kNoFrame
                    : sym.topMatchingFrame(e.stack, components);
            if (sig == kNoFrame) {
                breakdown.otherWait += e.cost;
                // Subtract the nested component waits counted within.
                const auto kids = graph.children(node);
                std::deque<std::uint32_t> queue(kids.begin(),
                                                kids.end());
                while (!queue.empty()) {
                    const auto &child = graph.node(queue.front());
                    queue.pop_front();
                    const Event &ce = child.event;
                    if (ce.type == EventType::Wait &&
                        ce.stack != kNoCallstack &&
                        sym.topMatchingFrame(ce.stack, components) !=
                            kNoFrame) {
                        nested_component_under_other += ce.cost;
                        continue;
                    }
                    for (std::uint32_t grand : graph.children(child))
                        queue.push_back(grand);
                }
            }
            break;
          }
          case EventType::Unwait:
            break;
        }
    }
    breakdown.otherWait = std::max<DurationNs>(
        0, breakdown.otherWait - nested_component_under_other);

    const DurationNs accounted =
        breakdown.running + breakdown.componentWait +
        breakdown.otherWait + breakdown.hardware;
    breakdown.unattributed =
        std::max<DurationNs>(0, breakdown.total - accounted);
    return breakdown;
}

} // namespace tracelens
