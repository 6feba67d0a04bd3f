/**
 * @file
 * CLI for copra_lint. Exit codes: 0 clean, 1 findings (or self-test
 * mismatch), 2 usage error or missing/unreadable input path.
 *
 *   copra_lint --root . src bench tests tools   # the ctest gate
 *   copra_lint --root . --self-test tests/lint_corpus
 *   copra_lint --root . --json src bench        # machine findings
 *   copra_lint --root . --sarif findings.sarif src  # code scanning
 *   copra_lint --root . --graph-dot includes.dot src
 *   copra_lint --root . --baseline known.txt src    # warn-only landing
 *   copra_lint --root . --doc-hot-path src          # docs/HOT_PATH.md
 *   copra_lint --list-rules
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "copra_lint/lint.hpp"

// Build provenance is generated into the build tree by src/obs; the
// CLI stays buildable standalone (e.g. unit-test links) without it.
#if __has_include("obs/build_info.hpp")
#include "obs/build_info.hpp"
#define COPRA_LINT_HAVE_BUILD_INFO 1
#endif

namespace {

int
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [--root DIR] [--self-test CORPUS_DIR] [--list-rules]\n"
        << "       [--json] [--sarif FILE] [--graph-dot FILE]\n"
        << "       [--baseline FILE] [--write-baseline FILE]\n"
        << "       [--doc-hot-path] [PATH...]\n\n"
        << "Lints PATHs (default: src bench tests tools) relative to\n"
        << "--root (default: .) against copra's determinism contract,\n"
        << "the module-layering DAG, the predictor state contract, and\n"
        << "the hot-path discipline rules (DESIGN.md sections 9, 10,\n"
        << "14, and 15).\n"
        << "--json emits findings as a JSON object on stdout;\n"
        << "--sarif writes SARIF 2.1.0 to FILE ('-' for stdout) for\n"
        << "GitHub code scanning; --graph-dot writes the include graph\n"
        << "(hot-region files filled) as Graphviz DOT to FILE ('-' for\n"
        << "stdout); --baseline suppresses findings listed in FILE\n"
        << "(one 'rel:line:rule' per line, '#' comments) so new rules\n"
        << "can land warn-only; --write-baseline records the current\n"
        << "findings in that format; --doc-hot-path prints the\n"
        << "generated docs/HOT_PATH.md. Missing or unreadable PATHs\n"
        << "are a hard error (exit 2), never a silent skip.\n";
    return 2;
}

/** One `rel:line:rule` baseline entry. */
struct BaselineEntry
{
    std::string rel;
    int line = 0;
    std::string rule;

    bool operator<(const BaselineEntry &o) const
    {
        if (rel != o.rel)
            return rel < o.rel;
        if (line != o.line)
            return line < o.line;
        return rule < o.rule;
    }
};

/** Parse a baseline file; returns false (with a message) on bad input. */
bool
readBaseline(const std::string &path, std::set<BaselineEntry> &out,
             std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read baseline file " + path;
        return false;
    }
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        size_t start = line.find_first_not_of(" \t");
        if (start == std::string::npos || line[start] == '#')
            continue;
        // rel may contain no ':', so split from the right: the last
        // two fields are line and rule.
        size_t lastColon = line.rfind(':');
        size_t midColon =
            lastColon == std::string::npos || lastColon == 0
                ? std::string::npos
                : line.rfind(':', lastColon - 1);
        if (midColon == std::string::npos) {
            error = path + ":" + std::to_string(lineno) +
                ": expected rel:line:rule";
            return false;
        }
        BaselineEntry e;
        e.rel = line.substr(start, midColon - start);
        e.rule = line.substr(lastColon + 1);
        try {
            e.line = std::stoi(
                line.substr(midColon + 1, lastColon - midColon - 1));
        } catch (...) {
            error = path + ":" + std::to_string(lineno) +
                ": bad line number";
            return false;
        }
        out.insert(std::move(e));
    }
    return true;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** The tool's git revision, or "unknown" outside the build tree. */
std::string
buildGitSha()
{
#ifdef COPRA_LINT_HAVE_BUILD_INFO
    return copra::obs::kBuildGitSha;
#else
    return "unknown";
#endif
}

/** Emit the build_info provenance object (shared by --json/--sarif). */
void
writeBuildInfo(std::ostream &out)
{
    out << "{\"git_sha\": \"" << jsonEscape(buildGitSha()) << "\"";
#ifdef COPRA_LINT_HAVE_BUILD_INFO
    out << ", \"build_type\": \""
        << jsonEscape(copra::obs::kBuildType) << "\", \"compiler\": \""
        << jsonEscape(copra::obs::kBuildCompiler) << "\"";
#endif
    out << "}";
}

/**
 * SARIF 2.1.0 for GitHub code scanning: one run, the full rule
 * catalog as driver rules, findings as error-level results anchored
 * to %SRCROOT%-relative locations, and the git SHA as version-control
 * provenance so alerts attach to the right commit.
 */
void
writeSarif(std::ostream &out, const std::vector<copra::lint::Finding> &fs)
{
    out << "{\"$schema\": \"https://raw.githubusercontent.com/oasis-"
           "tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\", "
           "\"version\": \"2.1.0\", \"runs\": [{\"tool\": {\"driver\": "
           "{\"name\": \"copra_lint\", \"informationUri\": "
           "\"DESIGN.md\", \"rules\": [";
    bool first = true;
    for (const auto &[name, blurb] : copra::lint::ruleCatalog()) {
        out << (first ? "" : ", ") << "{\"id\": \"copra." << name
            << "\", \"shortDescription\": {\"text\": \""
            << jsonEscape(blurb) << "\"}}";
        first = false;
    }
    out << "]}}, \"versionControlProvenance\": [{\"repositoryUri\": "
           "\"\", \"revisionId\": \"" << jsonEscape(buildGitSha())
        << "\"}], \"results\": [";
    for (size_t i = 0; i < fs.size(); ++i) {
        const copra::lint::Finding &f = fs[i];
        out << (i ? ", " : "") << "{\"ruleId\": \"" << f.ruleId()
            << "\", \"level\": \"error\", \"message\": {\"text\": \""
            << jsonEscape(f.message)
            << "\"}, \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": \"" << jsonEscape(f.rel)
            << "\", \"uriBaseId\": \"%SRCROOT%\"}, \"region\": "
               "{\"startLine\": " << f.line
            << ", \"startColumn\": " << f.col << "}}}]}";
    }
    out << "]}]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string corpus;
    std::string dotPath;
    std::string sarifPath;
    std::string baselinePath;
    std::string writeBaselinePath;
    std::vector<std::string> paths;
    bool listRules = false;
    bool json = false;
    bool docHotPath = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--self-test" && i + 1 < argc) {
            corpus = argv[++i];
        } else if (arg == "--graph-dot" && i + 1 < argc) {
            dotPath = argv[++i];
        } else if (arg == "--sarif" && i + 1 < argc) {
            sarifPath = argv[++i];
        } else if (arg == "--baseline" && i + 1 < argc) {
            baselinePath = argv[++i];
        } else if (arg == "--write-baseline" && i + 1 < argc) {
            writeBaselinePath = argv[++i];
        } else if (arg == "--doc-hot-path") {
            docHotPath = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--list-rules") {
            listRules = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown option " << arg << "\n";
            return usage(argv[0]);
        } else {
            paths.push_back(arg);
        }
    }

    if (listRules) {
        for (const auto &[name, blurb] : copra::lint::ruleCatalog())
            std::cout << name << ": " << blurb << "\n";
        return 0;
    }

    if (!corpus.empty()) {
        std::string report;
        bool ok = copra::lint::selfTest(root, corpus, report);
        std::cout << report;
        std::cout << (ok ? "self-test passed: every planted violation "
                           "fired and every suppression held\n"
                         : "self-test FAILED\n");
        return ok ? 0 : 1;
    }

    if (paths.empty())
        paths = {"src", "bench", "tests", "tools"};

    copra::lint::TreeLint tree = copra::lint::lintTreeFull(root, paths);

    // Input that could not be walked is a hard error: a linter that
    // silently skips paths reports "clean" about code it never saw.
    if (!tree.errors.empty()) {
        for (const std::string &e : tree.errors)
            std::cerr << "copra_lint: error: " << e << "\n";
        return 2;
    }

    if (docHotPath) {
        std::cout << tree.hotPathDoc;
        return 0;
    }

    size_t baselined = 0;
    if (!baselinePath.empty()) {
        std::set<BaselineEntry> baseline;
        std::string error;
        if (!readBaseline(baselinePath, baseline, error)) {
            std::cerr << "copra_lint: error: " << error << "\n";
            return 2;
        }
        std::vector<copra::lint::Finding> kept;
        for (copra::lint::Finding &f : tree.findings) {
            if (baseline.count({f.rel, f.line, f.rule}))
                ++baselined;
            else
                kept.push_back(std::move(f));
        }
        tree.findings = std::move(kept);
    }

    if (!writeBaselinePath.empty()) {
        std::ofstream out(writeBaselinePath, std::ios::binary);
        out << "# copra_lint baseline: rel:line:rule entries excluded\n"
               "# from future runs; shrink this file, never grow it.\n";
        for (const copra::lint::Finding &f : tree.findings)
            out << f.rel << ":" << f.line << ":" << f.rule << "\n";
        if (!out) {
            std::cerr << "copra_lint: error: cannot write "
                      << writeBaselinePath << "\n";
            return 2;
        }
    }

    if (!dotPath.empty()) {
        std::string dot =
            copra::lint::graphToDot(tree.graph, tree.hotFiles);
        if (dotPath == "-") {
            std::cout << dot;
        } else {
            std::ofstream out(dotPath, std::ios::binary);
            out << dot;
            if (!out) {
                std::cerr << "copra_lint: error: cannot write "
                          << dotPath << "\n";
                return 2;
            }
        }
    }

    if (!sarifPath.empty()) {
        if (sarifPath == "-") {
            writeSarif(std::cout, tree.findings);
        } else {
            std::ofstream out(sarifPath, std::ios::binary);
            writeSarif(out, tree.findings);
            if (!out) {
                std::cerr << "copra_lint: error: cannot write "
                          << sarifPath << "\n";
                return 2;
            }
        }
        if (!json)
            return tree.findings.empty() ? 0 : 1;
    }

    if (json) {
        std::cout << "{\"count\": " << tree.findings.size()
                  << ", \"build_info\": ";
        writeBuildInfo(std::cout);
        std::cout << ", \"findings\": [";
        for (size_t i = 0; i < tree.findings.size(); ++i) {
            const copra::lint::Finding &f = tree.findings[i];
            std::cout << (i ? ", " : "")
                      << "{\"file\": \"" << jsonEscape(f.rel)
                      << "\", \"line\": " << f.line
                      << ", \"col\": " << f.col
                      << ", \"rule\": \"" << jsonEscape(f.rule)
                      << "\", \"rule_id\": \"" << jsonEscape(f.ruleId())
                      << "\", \"message\": \"" << jsonEscape(f.message)
                      << "\"}";
        }
        std::cout << "]}\n";
        return tree.findings.empty() ? 0 : 1;
    }

    for (const copra::lint::Finding &f : tree.findings)
        std::cout << f.rel << ":" << f.line << ": [" << f.rule << "] "
                  << f.message << "\n";
    if (baselined)
        std::cout << baselined << " baselined finding(s) excluded ("
                  << baselinePath << ")\n";
    if (!tree.findings.empty()) {
        std::cout << tree.findings.size()
                  << " finding(s); see DESIGN.md section 9 for the "
                     "suppression policy\n";
        return 1;
    }
    return 0;
}
