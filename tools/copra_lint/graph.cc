/**
 * @file
 * Module-layering analysis for copra_lint: the declared module DAG,
 * the file-level include graph, cycle detection, transitive
 * "include-through" findings, and the Graphviz dump. See DESIGN.md §10
 * for the DAG rationale and the reading guide for the diagnostics.
 *
 * The split from rules.cc is deliberate: everything here consumes a
 * whole tree of FileScans at once, while rules.cc stays a pure
 * one-file-at-a-time engine (plus the tree driver that composes both).
 */

#include "copra_lint/lint.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <sstream>

namespace copra::lint {

namespace {

/**
 * The declared module DAG: module -> modules it may depend on.
 * Self-dependency is implicit. workload and predictor are siblings —
 * programs know nothing about predictors and vice versa; only sim and
 * above compose them. sim sits below core (core orchestrates
 * experiments over sim's driver), and check caps the stack because the
 * differential harness needs to see everything it cross-checks.
 */
const std::map<std::string, std::set<std::string>> kModuleDeps = {
    {"util", {}},
    // obs sits directly above util (it reuses the sync primitives and
    // logging) and below everything instrumented; util itself emits
    // telemetry only through the function-pointer seam in
    // util/metrics_hooks.hpp, never by including obs.
    {"obs", {"util"}},
    {"trace", {"util", "obs"}},
    {"workload", {"util", "obs", "trace"}},
    {"predictor", {"util", "obs", "trace"}},
    {"sim", {"util", "obs", "trace", "predictor"}},
    {"core", {"util", "obs", "trace", "workload", "predictor", "sim"}},
    {"check",
     {"util", "obs", "trace", "workload", "predictor", "sim", "core"}},
};

/** Sink trees: may depend on anything, nothing may depend on them. */
const std::set<std::string> kSinkModules = {
    "tools", "bench", "tests", "examples",
};

std::string
firstComponent(const std::string &path)
{
    size_t slash = path.find('/');
    return slash == std::string::npos ? "" : path.substr(0, slash);
}

} // namespace

std::string
moduleOf(const std::string &rel)
{
    std::string head = firstComponent(rel);
    if (head == "src") {
        std::string module = firstComponent(rel.substr(4));
        return kModuleDeps.count(module) ? module : std::string();
    }
    return kSinkModules.count(head) ? head : std::string();
}

std::string
includeModule(const std::string &target)
{
    std::string head = firstComponent(target);
    if (kModuleDeps.count(head))
        return head;
    // Tool headers are included tools-relative ("copra_lint/lint.hpp").
    if (head == "copra_lint")
        return "tools";
    return "";
}

bool
moduleAllowed(const std::string &from, const std::string &to)
{
    if (from.empty() || to.empty() || from == to)
        return true;
    if (kSinkModules.count(from))
        return true;
    auto it = kModuleDeps.find(from);
    if (it == kModuleDeps.end())
        return true; // unknown modules are never constrained
    if (kSinkModules.count(to))
        return false; // sinks are below every src module
    return it->second.count(to) != 0;
}

IncludeGraph
buildIncludeGraph(const std::vector<FileScan> &scans)
{
    // Map every spelling a scanned file can be included by to its rel:
    // src/, bench/, and tools/ headers are included dir-relative, and
    // anything can be named by its full repo-relative path.
    std::map<std::string, std::string> byName;
    for (const FileScan &scan : scans) {
        byName[scan.rel] = scan.rel;
        for (const char *prefix : {"src/", "bench/", "tools/"}) {
            size_t len = std::string(prefix).size();
            if (scan.rel.rfind(prefix, 0) == 0)
                byName[scan.rel.substr(len)] = scan.rel;
        }
    }

    IncludeGraph graph;
    for (const FileScan &scan : scans) {
        std::vector<Include> &edges = graph.edges[scan.rel];
        for (const Include &inc : scan.includeList) {
            auto it = byName.find(inc.target);
            if (it != byName.end() && it->second != scan.rel)
                edges.push_back({it->second, inc.line});
        }
    }
    return graph;
}

std::vector<Finding>
runGraphRules(const std::vector<FileScan> &scans,
              const IncludeGraph &graph)
{
    std::map<std::string, const FileScan *> byRel;
    for (const FileScan &scan : scans)
        byRel[scan.rel] = &scan;

    // Findings grouped by owning file so that file's suppressions can
    // be applied uniformly at the end.
    std::map<std::string, std::vector<Finding>> perFile;

    // --- include-cycle: Tarjan SCCs over the file graph -------------
    std::map<std::string, int> index, lowlink, sccOf;
    std::vector<std::string> stack;
    std::set<std::string> onStack;
    std::vector<std::vector<std::string>> sccs;
    int counter = 0;

    std::function<void(const std::string &)> strongConnect =
        [&](const std::string &v) {
            index[v] = lowlink[v] = counter++;
            stack.push_back(v);
            onStack.insert(v);
            auto it = graph.edges.find(v);
            if (it != graph.edges.end()) {
                for (const Include &e : it->second) {
                    if (!index.count(e.target)) {
                        strongConnect(e.target);
                        lowlink[v] =
                            std::min(lowlink[v], lowlink[e.target]);
                    } else if (onStack.count(e.target)) {
                        lowlink[v] =
                            std::min(lowlink[v], index[e.target]);
                    }
                }
            }
            if (lowlink[v] == index[v]) {
                std::vector<std::string> scc;
                for (;;) {
                    std::string w = stack.back();
                    stack.pop_back();
                    onStack.erase(w);
                    scc.push_back(w);
                    if (w == v)
                        break;
                }
                for (const std::string &w : scc)
                    sccOf[w] = static_cast<int>(sccs.size());
                sccs.push_back(std::move(scc));
            }
        };
    for (const auto &[rel, edges] : graph.edges)
        if (!index.count(rel))
            strongConnect(rel);

    // Every edge inside a non-trivial SCC is reported on its own
    // include line, so each participating file owns — and may
    // individually suppress — its contribution to the cycle.
    for (const auto &[rel, edges] : graph.edges) {
        for (const Include &e : edges) {
            if (sccOf[rel] != sccOf[e.target])
                continue;
            std::vector<std::string> members = sccs[sccOf[rel]];
            if (members.size() < 2)
                continue;
            std::sort(members.begin(), members.end());
            std::string list;
            for (const std::string &m : members)
                list += (list.empty() ? "" : ", ") + m;
            perFile[rel].push_back(
                {rel, e.line, "include-cycle",
                 "include of '" + e.target + "' closes a cycle among "
                 "{" + list + "}; break it with a forward declaration "
                 "or an interface split"});
        }
    }

    // --- layering: resolution- and transitivity-aware back-edges ----
    for (const auto &[rel, edges] : graph.edges) {
        std::string from = moduleOf(rel);
        if (from.empty() || kSinkModules.count(from))
            continue;

        // Spelling of the include on each line, for deciding whether
        // the per-file lexical rule already owns a direct violation.
        std::map<int, std::string> spelling;
        auto scanIt = byRel.find(rel);
        if (scanIt != byRel.end())
            for (const Include &inc : scanIt->second->includeList)
                spelling[inc.line] = inc.target;

        for (const Include &direct : edges) {
            if (!moduleAllowed(from, moduleOf(direct.target))) {
                // A direct back-edge. Lexically visible spellings
                // ("core/x.hpp") are the per-file rule's finding; the
                // graph adds only what resolution alone can see. Either
                // way, don't chase chains through a bad edge.
                if (includeModule(spelling[direct.line]).empty())
                    perFile[rel].push_back(
                        {rel, direct.line, "layering",
                         "include resolves to '" + direct.target +
                         "' (module '" + moduleOf(direct.target) +
                         "'), which module '" + from +
                         "' may not depend on"});
                continue;
            }

            // BFS for a transitive reach into a forbidden module
            // through individually legal edges; shortest chain wins,
            // at most one finding per direct include.
            std::map<std::string, std::string> parent;
            std::deque<std::string> queue;
            parent[direct.target] = rel;
            queue.push_back(direct.target);
            std::string hit;
            while (!queue.empty() && hit.empty()) {
                std::string node = queue.front();
                queue.pop_front();
                auto eit = graph.edges.find(node);
                if (eit == graph.edges.end())
                    continue;
                for (const Include &e : eit->second) {
                    if (parent.count(e.target) || e.target == rel)
                        continue;
                    parent[e.target] = node;
                    if (!moduleAllowed(from, moduleOf(e.target))) {
                        hit = e.target;
                        break;
                    }
                    queue.push_back(e.target);
                }
            }
            if (hit.empty())
                continue;
            std::vector<std::string> chain;
            for (std::string n = hit; n != rel; n = parent[n])
                chain.push_back(n);
            chain.push_back(rel);
            std::reverse(chain.begin(), chain.end());
            std::string path;
            for (const std::string &n : chain)
                path += (path.empty() ? "" : " -> ") + n;
            perFile[rel].push_back(
                {rel, direct.line, "layering",
                 "include-through: " + path + " reaches module '" +
                 moduleOf(hit) + "', which module '" + from +
                 "' may not depend on"});
        }
    }

    std::vector<Finding> all;
    for (auto &[rel, findings] : perFile) {
        auto it = byRel.find(rel);
        std::vector<Finding> kept = it != byRel.end()
            ? applySuppressions(*it->second, std::move(findings))
            : std::move(findings);
        all.insert(all.end(), kept.begin(), kept.end());
    }
    std::sort(all.begin(), all.end());
    return all;
}

std::string
graphToDot(const IncludeGraph &graph, const std::set<std::string> &hotFiles)
{
    std::ostringstream out;
    out << "digraph copra_includes {\n"
        << "    rankdir=LR;\n"
        << "    node [shape=box, fontsize=10];\n";

    // Cluster nodes by module so the rendering reads layer by layer.
    // Files holding hot-region bodies are filled: the orange overlay is
    // the COPRA_HOT closure at file granularity.
    std::map<std::string, std::vector<std::string>> byModule;
    for (const auto &[rel, edges] : graph.edges) {
        std::string module = moduleOf(rel);
        byModule[module.empty() ? "other" : module].push_back(rel);
    }
    for (const auto &[module, nodes] : byModule) {
        out << "    subgraph \"cluster_" << module << "\" {\n"
            << "        label=\"" << module << "\";\n";
        for (const std::string &rel : nodes) {
            out << "        \"" << rel << "\"";
            if (hotFiles.count(rel))
                out << " [style=filled, fillcolor=\"#ffd8a8\"]";
            out << ";\n";
        }
        out << "    }\n";
    }
    for (const auto &[rel, edges] : graph.edges) {
        std::string from = moduleOf(rel);
        for (const Include &e : edges) {
            out << "    \"" << rel << "\" -> \"" << e.target << "\"";
            if (!moduleAllowed(from, moduleOf(e.target)))
                out << " [color=red, penwidth=2]";
            out << ";\n";
        }
    }
    out << "}\n";
    return out.str();
}

} // namespace copra::lint
