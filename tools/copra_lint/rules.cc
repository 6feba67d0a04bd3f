/**
 * @file
 * Rule engine for copra_lint. Each rule is a pure function from a
 * FileScan (plus cross-file unordered-container knowledge) to
 * findings; suppression and scoping are applied uniformly at the end.
 *
 * Scoping philosophy: the determinism rules bite hardest where results
 * are produced (src/sim, src/predictor, src/core), the hygiene rules
 * apply tree-wide. See DESIGN.md §9 for the rule-by-rule contract.
 */

#include "copra_lint/lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace copra::lint {

namespace fs = std::filesystem;

namespace {

bool
inDir(const std::string &rel, const std::string &prefix)
{
    return rel.rfind(prefix, 0) == 0;
}

bool
isHeader(const std::string &rel)
{
    return rel.size() > 4 && (rel.ends_with(".hpp") || rel.ends_with(".h"));
}

bool
contains(const std::set<std::string> &set, const std::string &name)
{
    return set.find(name) != set.end();
}

/** Identifiers whose mere qualified mention is an entropy leak. */
const std::set<std::string> kBannedTypes = {
    "random_device", "steady_clock", "system_clock",
    "high_resolution_clock",
};

/** Functions banned when called (identifier followed by `(`). */
const std::set<std::string> kBannedCalls = {
    "rand", "srand", "time", "clock",
};

/** Statement keywords that mark a namespace-scope decl as harmless. */
const std::set<std::string> kDeclExemptKeywords = {
    "using",    "typedef", "template",      "friend",   "extern",
    "namespace", "class",  "struct",        "union",    "enum",
    "concept",  "operator", "static_assert", "constexpr",
    "constinit", "const",
};

/** IWYU-lite: curated `std::` name -> required standard header. */
const std::vector<std::pair<std::string, std::string>> kIncludeMap = {
    {"vector", "vector"},
    {"string", "string"},
    {"unordered_map", "unordered_map"},
    {"unordered_set", "unordered_set"},
    {"map", "map"},
    {"optional", "optional"},
    {"nullopt", "optional"},
    {"span", "span"},
    {"array", "array"},
    {"unique_ptr", "memory"},
    {"shared_ptr", "memory"},
    {"make_unique", "memory"},
    {"make_shared", "memory"},
    {"function", "functional"},
    {"atomic", "atomic"},
    {"mutex", "mutex"},
    {"lock_guard", "mutex"},
    {"unique_lock", "mutex"},
    {"condition_variable", "condition_variable"},
    {"thread", "thread"},
};

/** Bare typedef names that require <cstdint>. */
const std::set<std::string> kCstdintTypes = {
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "int8_t",  "int16_t",  "int32_t",  "int64_t",
};

void
report(std::vector<Finding> &out, const FileScan &scan, int line,
       const std::string &rule, const std::string &message)
{
    out.push_back({scan.rel, line, rule, message});
}

/** True for identifiers that are unmistakably raw SIMD intrinsics:
 * `_mm...` calls and `__m128/__m256/__m512` vector types (x86), which
 * only exist via <immintrin.h>. NEON spellings are too generic to
 * token-match safely, so NEON is policed via its header instead. */
bool
isIntrinsicToken(const std::string &t)
{
    if (t.rfind("_mm", 0) == 0)
        return true;
    return t.rfind("__m", 0) == 0 && t.size() > 3 &&
        std::isdigit(static_cast<unsigned char>(t[3]));
}

/**
 * Rule banned-api: entropy and environment doorways are forbidden in
 * result-producing code. Clock types anywhere in scope need an
 * explicit allow() marking them as timing-only; getenv is legal only
 * under src/util (the env.hpp doorway). Raw SIMD intrinsics (and their
 * headers) are banned everywhere: the table predictors' batch loops
 * are portable code that the differential gates and the hot-path call
 * graph check directly.
 */
void
ruleBannedApi(const FileScan &scan, std::vector<Finding> &out)
{
    bool resultScope = inDir(scan.rel, "src/sim/") ||
        inDir(scan.rel, "src/predictor/") || inDir(scan.rel, "src/core/");
    bool getenvScope = inDir(scan.rel, "src/") &&
        !inDir(scan.rel, "src/util/");
    for (const Include &inc : scan.includeList) {
        if (inc.target == "immintrin.h" || inc.target == "arm_neon.h") {
            report(out, scan, inc.line, "banned-api",
                   "<" + inc.target + ">: raw SIMD intrinsics are "
                   "banned; write the loop in portable C++");
        }
    }

    const auto &toks = scan.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
        const std::string &t = toks[i].text;
        bool qualified = i > 0 && toks[i - 1].text == "::";
        // `->` reaches us as two one-char tokens, so arrow access is
        // prev == ">" with a "-" right before it.
        bool member = i > 0 &&
            (toks[i - 1].text == "." ||
             (toks[i - 1].text == ">" && i > 1 &&
              toks[i - 2].text == "-"));
        bool called = i + 1 < toks.size() && toks[i + 1].text == "(";

        if (isIntrinsicToken(t) && !member) {
            report(out, scan, toks[i].line, "banned-api",
                   "raw SIMD intrinsic '" + t + "' is banned; write the "
                   "loop in portable C++");
            continue;
        }
        if (getenvScope && t == "getenv" && (qualified || called) &&
            !member) {
            report(out, scan, toks[i].line, "banned-api",
                   "getenv outside src/util: route environment access "
                   "through util/env.hpp");
            continue;
        }
        if (!resultScope)
            continue;
        if (kBannedTypes.count(t) && qualified) {
            report(out, scan, toks[i].line, "banned-api",
                   "std::" + t + " in result-producing code: entropy "
                   "and wall clocks break run-to-run determinism");
        } else if (kBannedCalls.count(t) && called && !member) {
            // `time(...)`/`clock(...)` style calls; member functions
            // and locals that merely reuse the name stay legal.
            bool plain = !qualified ||
                (i >= 2 && toks[i - 2].text == "std");
            if (plain)
                report(out, scan, toks[i].line, "banned-api",
                       t + "() in result-producing code: use the "
                       "seeded util/rng.hpp or pass time in explicitly");
        }
    }
}

/**
 * Rule unordered-iter: range-for over a std::unordered_{map,set}
 * (directly, or through an accessor returning one) makes downstream
 * output and float aggregation depend on hash order. Commutative
 * integer aggregation is fine but must say so via allow().
 */
void
ruleUnorderedIter(const FileScan &scan, const UnorderedDecls &decls,
                  std::vector<Finding> &out)
{
    if (!inDir(scan.rel, "src/") && !inDir(scan.rel, "bench/"))
        return;

    const auto &toks = scan.tokens;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].text != "for" || toks[i + 1].text != "(")
            continue;
        // Find the range `:` at depth 1, then the closing paren.
        int depth = 0;
        size_t colon = 0, close = 0;
        for (size_t j = i + 1; j < toks.size(); ++j) {
            const std::string &t = toks[j].text;
            if (t == "(")
                ++depth;
            else if (t == ")") {
                if (--depth == 0) {
                    close = j;
                    break;
                }
            } else if (t == ":" && depth == 1 && colon == 0) {
                colon = j;
            } else if (t == ";" && depth == 1) {
                break; // classic three-clause for
            }
        }
        if (colon == 0 || close == 0)
            continue;
        for (size_t j = colon + 1; j < close; ++j) {
            const std::string &name = toks[j].text;
            bool call = j + 1 < close && toks[j + 1].text == "(";
            if ((contains(decls.variables, name) && !call) ||
                (contains(decls.accessors, name) && call)) {
                report(out, scan, toks[i].line, "unordered-iter",
                       "iteration over unordered container '" + name +
                       "': order is hash-dependent; sort first or "
                       "justify with allow(unordered-iter)");
                break;
            }
        }
    }
}

/** Context for one `{ ... }` scope while walking a token stream. */
enum class Scope { Namespace, Class, Func, Init };

/**
 * Rule mutable-global: namespace-scope (incl. anonymous-namespace and
 * thread_local) mutable variables and non-const static locals are
 * hidden channels between runs and between threads; each survivor
 * must carry a sanctioned-global(<reason>) annotation.
 */
void
ruleMutableGlobal(const FileScan &scan, std::vector<Finding> &out)
{
    const auto &toks = scan.tokens;
    std::vector<Scope> stack;
    size_t stmt = 0; // index of the first token of the open statement

    auto stmtHas = [&](size_t from, size_t to, const std::string &w) {
        for (size_t k = from; k < to; ++k)
            if (toks[k].text == w)
                return true;
        return false;
    };

    auto atNamespaceScope = [&]() {
        return std::all_of(stack.begin(), stack.end(), [](Scope s) {
            return s == Scope::Namespace;
        });
    };
    auto inFunction = [&]() {
        return std::any_of(stack.begin(), stack.end(), [](Scope s) {
            return s == Scope::Func;
        });
    };

    auto checkDecl = [&](size_t from, size_t to) {
        if (from >= to)
            return;
        bool nsScope = atNamespaceScope();
        bool staticLocal = inFunction() && stmtHas(from, to, "static");
        if (!nsScope && !staticLocal)
            return;
        for (const std::string &kw : kDeclExemptKeywords)
            if (stmtHas(from, to, kw))
                return;
        if (stmtHas(from, to, "(")) // function decl or macro invocation
            return;
        // Count identifier-ish tokens: a declaration needs a type and
        // a name; stray expression statements don't get this far.
        size_t idents = 0;
        std::string name;
        int line = toks[from].line;
        for (size_t k = from; k < to; ++k) {
            const std::string &t = toks[k].text;
            if (t == "=" || t == "{" || t == "[")
                break;
            if ((std::isalpha(static_cast<unsigned char>(t[0])) ||
                 t[0] == '_')) {
                ++idents;
                name = t;
                line = toks[k].line;
            }
        }
        if (idents < 2)
            return;
        report(out, scan, line, "mutable-global",
               std::string(staticLocal && !nsScope ? "static local"
                                                   : "file-scope") +
               " mutable state '" + name + "': annotate with "
               "sanctioned-global(<reason>) or remove");
    };

    for (size_t i = 0; i < toks.size(); ++i) {
        const std::string &t = toks[i].text;
        if (t == "{") {
            Scope scope;
            if (stmtHas(stmt, i, "namespace") ||
                stmtHas(stmt, i, "extern"))
                scope = Scope::Namespace;
            else if (stmtHas(stmt, i, "class") ||
                     stmtHas(stmt, i, "struct") ||
                     stmtHas(stmt, i, "union") ||
                     stmtHas(stmt, i, "enum"))
                scope = Scope::Class;
            else if (stmtHas(stmt, i, "("))
                // Function definition (possibly `const`/`noexcept`
                // qualified), control statement, or lambda body.
                scope = Scope::Func;
            else if (i > 0 && (toks[i - 1].text == "=" ||
                               toks[i - 1].text == ">" ||
                               toks[i - 1].text == "]" ||
                               (std::isalnum(static_cast<unsigned char>(
                                    toks[i - 1].text[0])) ||
                                toks[i - 1].text[0] == '_') ||
                               toks[i - 1].text == "::"))
                scope = Scope::Init; // brace initializer, not a scope
            else
                scope = Scope::Func;
            stack.push_back(scope);
            if (scope != Scope::Init)
                stmt = i + 1;
        } else if (t == "}") {
            bool wasInit = !stack.empty() && stack.back() == Scope::Init;
            if (!stack.empty())
                stack.pop_back();
            if (!wasInit)
                stmt = i + 1;
        } else if (t == ";") {
            // Ignore `;` inside for(...) headers: they sit at paren
            // depth > 0, which we detect by scanning the statement.
            int parens = 0;
            for (size_t k = stmt; k < i; ++k) {
                if (toks[k].text == "(")
                    ++parens;
                else if (toks[k].text == ")")
                    --parens;
            }
            if (parens > 0)
                continue;
            checkDecl(stmt, i);
            stmt = i + 1;
        }
    }
}

/**
 * Rule header-guard: headers use `#pragma once`, never the macro
 * guard dance — one convention, zero chance of a copy-pasted guard
 * name collision.
 */
void
ruleHeaderGuard(const FileScan &scan, std::vector<Finding> &out)
{
    if (!isHeader(scan.rel))
        return;
    if (scan.guardLine != 0)
        report(out, scan, scan.guardLine, "header-guard",
               "legacy #ifndef include guard: use #pragma once");
    if (!scan.pragmaOnce)
        report(out, scan, 1, "header-guard",
               "header lacks #pragma once");
}

/**
 * Rule include-lite: headers must directly include what they use,
 * for a curated set of unmistakable std names. Keeps headers
 * self-contained without dragging in a full IWYU implementation.
 */
void
ruleIncludeLite(const FileScan &scan, std::vector<Finding> &out)
{
    if (!isHeader(scan.rel))
        return;

    std::map<std::string, int> missing; // header -> first-use line
    const auto &toks = scan.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
        const std::string &t = toks[i].text;
        bool stdQualified = i >= 2 && toks[i - 1].text == "::" &&
            toks[i - 2].text == "std";
        if (stdQualified) {
            for (const auto &[name, header] : kIncludeMap) {
                if (t == name && !scan.includes.count(header)) {
                    missing.emplace(header, toks[i].line);
                    break;
                }
            }
        } else if (kCstdintTypes.count(t) &&
                   !scan.includes.count("cstdint")) {
            missing.emplace("cstdint", toks[i].line);
        }
    }
    for (const auto &[header, line] : missing)
        report(out, scan, line, "include-lite",
               "uses std names from <" + header +
               "> without including it directly");
}

/** Malformed copra-lint comments are findings themselves. */
void
ruleAnnotation(const FileScan &scan, std::vector<Finding> &out)
{
    for (const Annotation &ann : scan.annotations)
        if (ann.kind == Annotation::Kind::Malformed)
            report(out, scan, ann.line, "annotation", ann.error);
}

/**
 * Rule layering, per-file half: a direct #include whose spelling
 * already names a module the including file's module may not depend
 * on (DESIGN.md §10). runGraphRules adds the resolution- and
 * transitivity-aware findings this lexical check cannot see.
 */
void
ruleLayering(const FileScan &scan, std::vector<Finding> &out)
{
    std::string from = moduleOf(scan.rel);
    if (from.empty())
        return;
    for (const Include &inc : scan.includeList) {
        std::string to = includeModule(inc.target);
        if (to.empty() || moduleAllowed(from, to))
            continue;
        report(out, scan, inc.line, "layering",
               "module '" + from + "' may not include '" + inc.target +
               "' (module '" + to + "'); the DAG is util -> trace -> "
               "{workload, predictor} -> sim -> core -> check "
               "(DESIGN.md §10)");
    }
}

} // namespace

/**
 * Apply suppressions: an allow(rule) covers findings of that rule on
 * its own line and the next; sanctioned-global covers mutable-global
 * the same way. `annotation` findings cannot be suppressed. Public so
 * the graph-level rules honour the owning file's annotations too.
 */
std::vector<Finding>
applySuppressions(const FileScan &scan, std::vector<Finding> findings)
{
    std::vector<Finding> kept;
    for (Finding &f : findings) {
        bool suppressed = false;
        if (f.rule != "annotation") {
            for (const Annotation &ann : scan.annotations) {
                bool covers = ann.line == f.line ||
                    ann.line + 1 == f.line;
                if (!covers)
                    continue;
                if (ann.kind == Annotation::Kind::Allow &&
                    ann.rule == f.rule)
                    suppressed = true;
                if (ann.kind == Annotation::Kind::SanctionedGlobal &&
                    f.rule == "mutable-global")
                    suppressed = true;
            }
        }
        if (!suppressed)
            kept.push_back(std::move(f));
    }
    return kept;
}

std::vector<std::pair<std::string, std::string>>
ruleCatalog()
{
    return {
        {"layering",
         "src modules obey the DAG util -> trace -> {workload, "
         "predictor} -> sim -> core -> check; tools/bench/tests/"
         "examples are sinks"},
        {"include-cycle",
         "the file-level include graph is acyclic"},
        {"banned-api",
         "no rand/srand/time/clock/random_device/*_clock in src/{sim,"
         "predictor,core}; getenv only under src/util; no raw SIMD "
         "intrinsics anywhere"},
        {"unordered-iter",
         "no range-for over std::unordered_{map,set} in src/ or bench/ "
         "without an allow() justification"},
        {"mutable-global",
         "no unsanctioned mutable file-scope/static-local state"},
        {"header-guard", "headers use #pragma once, not macro guards"},
        {"include-lite",
         "headers directly include the curated std headers they use"},
        {"annotation",
         "copra-lint comments must parse and carry reasons"},
        {"state-decl",
         "Predictor-derived classes under src/predictor declare "
         "COPRA_STATE_FIELDS(...), and field lists name only real "
         "members"},
        {"state-coverage",
         "every member field of a contracted predictor appears in "
         "exactly one of the state/config/transient lists, so "
         "state-mutation can classify it"},
        {"state-mutation",
         "prediction-path methods mutate no config-listed member; "
         "uncontracted predictors mutate no member there at all"},
        {"hot-alloc",
         "the COPRA_HOT-rooted region performs no heap allocation: no "
         "new/delete, no allocating std types or member calls "
         "(push_back/resize/reserve/...)"},
        {"hot-lock",
         "the hot region takes no locks: no util::Mutex/MutexLock, no "
         "std lock types, no function-local statics, no atomics "
         "without an explicit relaxed memory order"},
        {"hot-throw",
         "the hot region is exception-free: no throw, and every hot "
         "function (and COPRA_HOT declaration) spells noexcept"},
        {"hot-io",
         "the hot region performs no IO: no streams, stdio, file, or "
         "logging calls (panic/fatal stay legal as the assertion "
         "frontier)"},
        {"hot-unresolved",
         "every call in the hot region resolves to a known definition "
         "or carries an allow() naming why it is safe (function "
         "pointers, trusted frontiers)"},
    };
}

bool
knownRule(const std::string &rule)
{
    for (const auto &[name, blurb] : ruleCatalog())
        if (name == rule)
            return true;
    return false;
}

void
collectUnorderedDecls(const FileScan &scan, UnorderedDecls &out)
{
    const auto &toks = scan.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].text != "unordered_map" &&
            toks[i].text != "unordered_set")
            continue;
        // Skip the template argument list, then `&`/`*` decoration.
        size_t j = i + 1;
        if (j < toks.size() && toks[j].text == "<") {
            int depth = 0;
            for (; j < toks.size(); ++j) {
                if (toks[j].text == "<")
                    ++depth;
                else if (toks[j].text == ">" && --depth == 0) {
                    ++j;
                    break;
                }
            }
        }
        while (j < toks.size() &&
               (toks[j].text == "&" || toks[j].text == "*" ||
                toks[j].text == "const"))
            ++j;
        // Step over `Class::` qualifiers on out-of-line definitions so
        // the declared name, not the class, is what gets registered.
        while (j + 2 < toks.size() && toks[j + 1].text == "::")
            j += 2;
        if (j >= toks.size())
            continue;
        const std::string &name = toks[j].text;
        if (!(std::isalpha(static_cast<unsigned char>(name[0])) ||
              name[0] == '_'))
            continue;
        bool isCall = j + 1 < toks.size() && toks[j + 1].text == "(";
        (isCall ? out.accessors : out.variables).insert(name);
    }
}

std::vector<Finding>
runRules(const FileScan &scan, const UnorderedDecls &extra)
{
    UnorderedDecls decls = extra;
    collectUnorderedDecls(scan, decls);

    std::vector<Finding> out;
    ruleBannedApi(scan, out);
    ruleUnorderedIter(scan, decls, out);
    ruleMutableGlobal(scan, out);
    ruleHeaderGuard(scan, out);
    ruleIncludeLite(scan, out);
    ruleLayering(scan, out);
    out = applySuppressions(scan, std::move(out));
    ruleAnnotation(scan, out);
    std::sort(out.begin(), out.end());
    return out;
}

namespace {

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

bool
lintableFile(const fs::path &path)
{
    std::string ext = path.extension().string();
    return ext == ".cc" || ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

/** Directories that hold planted violations or generated artifacts. */
bool
skippedDir(const std::string &name)
{
    return name == "lint_corpus" || name == "golden" ||
        name == ".git" || name.rfind("build", 0) == 0;
}

/**
 * Expand the requested paths to lintable files. A path that names
 * neither a regular file nor a directory — or a directory the walk
 * cannot read — lands in `errors`: a linter that silently skips its
 * input reports "clean" about code it never saw.
 */
std::vector<fs::path>
collectFiles(const fs::path &root, const std::vector<std::string> &paths,
             std::vector<std::string> &errors)
{
    std::vector<fs::path> files;
    for (const std::string &p : paths) {
        fs::path abs = root / p;
        if (fs::is_regular_file(abs)) {
            if (lintableFile(abs))
                files.push_back(abs);
            continue;
        }
        if (!fs::is_directory(abs)) {
            errors.push_back(p + ": no such file or directory (under "
                             "root " + root.string() + ")");
            continue;
        }
        try {
            fs::recursive_directory_iterator it(abs), end;
            for (; it != end; ++it) {
                if (it->is_directory() &&
                    skippedDir(it->path().filename().string())) {
                    it.disable_recursion_pending();
                    continue;
                }
                if (it->is_regular_file() && lintableFile(it->path()))
                    files.push_back(it->path());
            }
        } catch (const fs::filesystem_error &err) {
            errors.push_back(p + ": " + err.what());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

std::string
relPath(const fs::path &root, const fs::path &file)
{
    return fs::relative(file, root).generic_string();
}

/**
 * Unordered declarations of every scanned header in the include
 * closure of each scan: what `x.table()` can refer to in a file that
 * reaches the declaring header directly or through any chain of
 * project headers.
 */
std::vector<UnorderedDecls>
includedUnorderedDecls(const std::vector<FileScan> &scans,
                       const IncludeGraph &graph)
{
    std::map<std::string, UnorderedDecls> headerDecls;
    for (const FileScan &scan : scans)
        if (isHeader(scan.rel))
            collectUnorderedDecls(scan, headerDecls[scan.rel]);

    std::vector<UnorderedDecls> out(scans.size());
    for (size_t s = 0; s < scans.size(); ++s) {
        std::set<std::string> seen{scans[s].rel};
        std::vector<std::string> todo{scans[s].rel};
        while (!todo.empty()) {
            auto edges = graph.edges.find(todo.back());
            todo.pop_back();
            if (edges == graph.edges.end())
                continue;
            for (const Include &inc : edges->second) {
                if (!seen.insert(inc.target).second)
                    continue;
                todo.push_back(inc.target);
                auto decls = headerDecls.find(inc.target);
                if (decls == headerDecls.end())
                    continue;
                out[s].variables.insert(decls->second.variables.begin(),
                                        decls->second.variables.end());
                out[s].accessors.insert(decls->second.accessors.begin(),
                                        decls->second.accessors.end());
            }
        }
    }
    return out;
}

} // namespace

TreeLint
lintTreeFull(const std::string &rootStr,
             const std::vector<std::string> &paths)
{
    fs::path root(rootStr);
    TreeLint result;
    std::vector<fs::path> files =
        collectFiles(root, paths, result.errors);

    // First pass: lex everything.
    std::vector<FileScan> scans;
    scans.reserve(files.size());
    for (const fs::path &file : files) {
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            result.errors.push_back(relPath(root, file) +
                                    ": unreadable");
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        scans.push_back(scanSource(relPath(root, file), buf.str()));
    }

    // Second pass: run rules, seeding each file with the unordered
    // declarations of every project header its includes reach.
    result.graph = buildIncludeGraph(scans);
    std::vector<UnorderedDecls> included =
        includedUnorderedDecls(scans, result.graph);
    std::vector<Finding> all;
    for (size_t s = 0; s < scans.size(); ++s) {
        std::vector<Finding> found = runRules(scans[s], included[s]);
        all.insert(all.end(), found.begin(), found.end());
    }

    // Graph passes: include cycles and include-through layering over
    // the resolved file-level include graph of everything scanned.
    std::vector<Finding> graphFindings =
        runGraphRules(scans, result.graph);
    all.insert(all.end(), graphFindings.begin(), graphFindings.end());

    // Semantic pass: the cross-TU state-contract audit over every
    // Predictor-derived class the scan set defines (DESIGN.md §14).
    SemaModel model = buildSemaModel(scans);
    std::vector<Finding> semaFindings = runSemaRules(model, scans);
    all.insert(all.end(), semaFindings.begin(), semaFindings.end());

    // Call-graph pass: COPRA_HOT reachability and the hot-path
    // discipline rules (DESIGN.md §15).
    CallGraph cg = buildCallGraph(model, scans);
    std::vector<Finding> hotFindings = runCallGraphRules(cg, model, scans);
    all.insert(all.end(), hotFindings.begin(), hotFindings.end());
    for (size_t f = 0; f < cg.functions.size(); ++f)
        if (cg.hot[f])
            result.hotFiles.insert(scans[cg.functions[f].scanIndex].rel);
    result.hotPathDoc = renderHotPathDoc(cg, model, scans);

    // Emit display columns, never raw byte offsets: SARIF consumers
    // count code points, and the lexer records bytes.
    std::map<std::string, const FileScan *> byRel;
    for (const FileScan &scan : scans)
        byRel.emplace(scan.rel, &scan);
    for (Finding &f : all) {
        auto it = byRel.find(f.rel);
        if (it == byRel.end() || f.line < 1 ||
            size_t(f.line) > it->second->lines.size())
            continue;
        f.col = displayColumn(it->second->lines[f.line - 1], f.col);
    }

    // Identical findings (multi-include headers, overlapping passes)
    // deduplicate so --json/SARIF artifacts diff stably across runs.
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    result.findings = std::move(all);
    return result;
}

std::vector<Finding>
lintTree(const std::string &rootStr, const std::vector<std::string> &paths)
{
    return lintTreeFull(rootStr, paths).findings;
}

bool
selfTest(const std::string &rootStr, const std::string &corpus,
         std::string &report)
{
    fs::path root(rootStr);
    fs::path dir = root / corpus;
    std::ostringstream log;
    bool ok = true;

    std::vector<fs::path> files;
    if (fs::is_directory(dir))
        for (const auto &entry : fs::directory_iterator(dir))
            if (entry.is_regular_file() && lintableFile(entry.path()))
                files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    if (files.empty()) {
        report += "self-test: no corpus files under " + dir.string() +
            "\n";
        return false;
    }

    // Corpus files carry their intended repo location in their name:
    // `src__sim__planted.cc` lints as `src/sim/planted.cc`, so scoped
    // rules see the directory they police — and corpus-internal
    // includes resolve against these rels, so the graph rules are
    // exercised on planted cycles and include-through chains too.
    std::vector<FileScan> scans;
    for (const fs::path &file : files) {
        // Built by appending: GCC 12 at -O3 reports a false
        // -Wrestrict on an in-place replace() that shrinks the string.
        std::string name = file.filename().string();
        std::string rel;
        for (size_t i = 0; i < name.size(); ++i) {
            if (name.compare(i, 2, "__") == 0) {
                rel += '/';
                ++i;
            } else {
                rel += name[i];
            }
        }
        scans.push_back(scanSource(rel, readFile(file)));
    }

    std::set<std::string> fired;      // rules seen firing as expected
    std::set<std::string> suppressed; // rules exercised via allow()
    std::map<std::string, std::set<std::pair<int, std::string>>>
        expected, actual;

    IncludeGraph graph = buildIncludeGraph(scans);
    std::vector<UnorderedDecls> included =
        includedUnorderedDecls(scans, graph);
    for (size_t s = 0; s < scans.size(); ++s) {
        const FileScan &scan = scans[s];
        for (const Annotation &ann : scan.annotations) {
            if (ann.kind == Annotation::Kind::Expect)
                expected[scan.rel].insert({ann.line, ann.rule});
            if (ann.kind == Annotation::Kind::Allow)
                suppressed.insert(ann.rule);
            if (ann.kind == Annotation::Kind::SanctionedGlobal)
                suppressed.insert("mutable-global");
        }
        for (const Finding &f : runRules(scan, included[s]))
            actual[scan.rel].insert({f.line, f.rule});
    }
    for (const Finding &f : runGraphRules(scans, graph))
        actual[f.rel].insert({f.line, f.rule});
    SemaModel model = buildSemaModel(scans);
    for (const Finding &f : runSemaRules(model, scans))
        actual[f.rel].insert({f.line, f.rule});
    for (const Finding &f :
         runCallGraphRules(buildCallGraph(model, scans), model, scans))
        actual[f.rel].insert({f.line, f.rule});

    for (const FileScan &scan : scans) {
        for (const auto &[line, rule] : expected[scan.rel]) {
            if (actual[scan.rel].count({line, rule})) {
                fired.insert(rule);
            } else {
                ok = false;
                log << scan.rel << ":" << line << ": expected " << rule
                    << " did not fire\n";
            }
        }
        for (const auto &[line, rule] : actual[scan.rel]) {
            if (!expected[scan.rel].count({line, rule})) {
                ok = false;
                log << scan.rel << ":" << line << ": unexpected "
                    << rule << " finding\n";
            }
        }
    }

    for (const auto &[rule, blurb] : ruleCatalog()) {
        if (!fired.count(rule)) {
            ok = false;
            log << "corpus never fires rule " << rule << "\n";
        }
        if (rule != "annotation" && !suppressed.count(rule)) {
            ok = false;
            log << "corpus never exercises suppression of " << rule
                << "\n";
        }
    }

    report += log.str();
    return ok;
}

} // namespace copra::lint
