/**
 * @file
 * copra_lint: the project's determinism-contract static analyzer.
 *
 * A deliberately small token-level scanner (no libclang) that enforces
 * the invariants PR 1 and PR 2 only checked dynamically: no hidden
 * entropy sources in simulation code, no unsanctioned mutable global
 * state, no hash-order-dependent iteration feeding results, and header
 * hygiene. See DESIGN.md §9 for the rule list and suppression policy.
 *
 * The analysis is honest about being lexical: it tokenizes after
 * stripping comments, strings, and preprocessor lines, then pattern
 * matches. That catches every construct this codebase actually uses;
 * the planted corpus under tests/lint_corpus/ pins the behaviour.
 */

#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace copra::lint {

/** One lexical token: an identifier, number, or punctuator. */
struct Token
{
    std::string text;
    int line = 0;
    int col = 0; ///< 1-based byte column of the token's first character
};

/** A parsed copra-lint directive or corpus expectation comment. */
struct Annotation
{
    enum class Kind {
        Allow,            ///< the allow(rule) -- reason directive
        SanctionedGlobal, ///< the sanctioned-global(reason) directive
        Expect,           ///< a corpus-file expectation marker
        Malformed,        ///< a directive the parser rejects
    };

    Kind kind = Kind::Malformed;
    std::string rule;   ///< rule name for Allow/Expect
    std::string reason; ///< mandatory justification text
    int line = 0;       ///< line the comment appears on
    std::string error;  ///< parser diagnostic for Malformed
};

/** One #include directive with its location. */
struct Include
{
    std::string target; ///< include spelling, verbatim
    int line = 0;
};

/** Lexed view of one source file, input to every rule. */
struct FileScan
{
    std::string rel; ///< repo-relative path, forward slashes
    std::vector<std::string> lines;
    std::vector<Token> tokens; ///< comments/strings/preproc stripped
    std::vector<Annotation> annotations;
    std::set<std::string> includes; ///< #include targets, verbatim
    std::vector<Include> includeList; ///< same targets, with lines
    bool pragmaOnce = false;        ///< has a #pragma once line
    int guardLine = 0;              ///< line of a legacy ifndef guard, or 0
};

/** One rule violation. */
struct Finding
{
    std::string rel;
    int line = 0;
    std::string rule;
    std::string message;
    int col = 1; ///< 1-based column (1 when the rule is line-granular)

    /** Stable machine identifier, e.g. "copra.mutable-global". */
    std::string ruleId() const { return "copra." + rule; }

    bool operator<(const Finding &o) const
    {
        if (rel != o.rel)
            return rel < o.rel;
        if (line != o.line)
            return line < o.line;
        if (rule != o.rule)
            return rule < o.rule;
        if (col != o.col)
            return col < o.col;
        return message < o.message;
    }

    /** Identical findings (multi-include headers, overlapping passes)
     *  deduplicate before emit so --json/SARIF output is stable. */
    bool operator==(const Finding &o) const
    {
        return rel == o.rel && line == o.line && rule == o.rule &&
            col == o.col && message == o.message;
    }
};

/** Every rule copra_lint knows, with its one-line contract. */
std::vector<std::pair<std::string, std::string>> ruleCatalog();

/** True iff `rule` is in the catalog. */
bool knownRule(const std::string &rule);

/** Lex `content` as the file at repo-relative path `rel`. */
FileScan scanSource(const std::string &rel, const std::string &content);

/**
 * Unordered-container knowledge harvested from declarations: variable
 * and accessor names whose type involves std::unordered_map/set.
 * Collected from a file's own tokens plus every project header in its
 * include closure, so `for (x : pred.table())` is visible from a .cc
 * that reaches the declaring header through another header.
 */
struct UnorderedDecls
{
    std::set<std::string> variables;
    std::set<std::string> accessors;
};

/** Harvest unordered declarations from one scan. */
void collectUnorderedDecls(const FileScan &scan, UnorderedDecls &out);

/**
 * Run every applicable rule over one file. `extra` carries unordered
 * declarations harvested from included headers (may be empty).
 * Suppressed findings are dropped; malformed annotations surface as
 * `annotation` findings.
 */
std::vector<Finding> runRules(const FileScan &scan,
                              const UnorderedDecls &extra);

/**
 * Drop findings covered by an allow()/sanctioned-global annotation in
 * `scan` (own line or the next). `annotation` findings are immune.
 */
std::vector<Finding> applySuppressions(const FileScan &scan,
                                       std::vector<Finding> findings);

// --- State-contract semantic pass (DESIGN.md §14) -------------------

/** One parsed member field of a class definition. */
struct SemaField
{
    std::string name;
    int line = 0;
    int col = 1;
};

/** Which COPRA_*_FIELDS list a member name was declared in. */
enum class FieldList
{
    State,
    Config,
    Transient,
};

/** One name appearing in a COPRA_*_FIELDS declaration. */
struct SemaListEntry
{
    std::string name;
    FieldList list = FieldList::State;
    int line = 0;
    int col = 1;
};

/** One method body bound to a class — in-class or out-of-line. */
struct SemaBody
{
    std::string method;
    size_t scanIndex = 0; ///< index into the scans the model was built from
    size_t beginTok = 0;  ///< token index of the opening `{`
    size_t endTok = 0;    ///< token index of the matching `}`
    size_t headTok = 0;   ///< first token of the definition head
};

/**
 * Lightweight model of one class definition: name, bases, parsed
 * member fields, COPRA_*_FIELDS declarations, and every method body
 * the scanned set binds to it (including bodies defined out of line in
 * other translation units).
 */
struct SemaClass
{
    std::string name;
    std::string rel; ///< file the definition lives in
    int line = 0;
    size_t scanIndex = 0;
    std::vector<std::string> bases; ///< unqualified base-class names
    std::vector<SemaField> fields;
    std::vector<SemaListEntry> listed;
    bool hasStateFields = false;
    bool hasConfigFields = false;
    bool hasTransientFields = false;
    std::vector<SemaBody> bodies;
    size_t bodyBegin = 0; ///< first token inside the class braces
    size_t bodyEnd = 0;   ///< token index of the closing `}`
};

/** Cross-TU symbol table over one set of scans. */
struct SemaModel
{
    /** Class definitions by name; first definition wins on collision. */
    std::map<std::string, SemaClass> classes;
};

/** Does `cls` (a name in `model`) transitively derive from `base`? */
bool derivesFrom(const SemaModel &model, const std::string &cls,
                 const std::string &base);

/** Does `cls` (a name in `model`) transitively derive from Predictor? */
bool derivesFromPredictor(const SemaModel &model, const std::string &cls);

/**
 * Build the symbol table: pass 1 collects class definitions (fields,
 * methods, field-list declarations, inline bodies); pass 2 binds
 * out-of-line `Class::method(...) { ... }` bodies from every scan.
 */
SemaModel buildSemaModel(const std::vector<FileScan> &scans);

/**
 * The state-contract audit (rules state-decl, state-coverage,
 * state-mutation) over every Predictor-derived class defined under
 * src/predictor/. Suppressions from the file owning each finding
 * apply; results are unsorted (callers sort the merged set).
 */
std::vector<Finding> runSemaRules(const SemaModel &model,
                                  const std::vector<FileScan> &scans);

// --- Hot-path call graph (DESIGN.md §15) ----------------------------

/** One function definition the call-graph pass knows about. */
struct CgFunction
{
    std::string cls;  ///< owning class name; empty for free functions
    std::string name; ///< unqualified function name
    size_t scanIndex = 0;
    size_t headTok = 0;  ///< first token of the definition head
    size_t beginTok = 0; ///< token index of the opening `{`
    size_t endTok = 0;   ///< token index of the matching `}`
    int line = 0;        ///< line of the definition head
    bool hasNoexcept = false; ///< `noexcept` appears in the head
    bool eligible = false;    ///< may join the hot region (src/, not check)

    /** Display label, e.g. "TwoLevel::predictUpdateSoa" or "runLoop". */
    std::string label() const
    {
        return cls.empty() ? name : cls + "::" + name;
    }
};

/** One COPRA_HOT root annotation, as written in the source. */
struct HotMark
{
    std::string cls;    ///< enclosing class; empty for free functions
    std::string method; ///< annotated function name
    std::string rel;    ///< file the annotation appears in
    int line = 0;
    bool hasNoexcept = false; ///< `noexcept` in the annotated statement
};

/**
 * The cross-TU function symbol table and hot-region closure: every
 * method body from the sema model plus every namespace-scope free
 * function definition, the COPRA_HOT root marks, and — after
 * buildCallGraph — the reachable hot region with one provenance chain
 * per member ("sim::runLoop -> Predictor::predictUpdateSoa -> ...").
 */
struct CallGraph
{
    std::vector<CgFunction> functions;
    std::vector<HotMark> marks;
    std::vector<char> hot;          ///< parallel to functions: in region?
    std::vector<std::string> hotVia; ///< provenance chain per hot function
    std::vector<char> markBound; ///< parallel to marks: bound ≥1 function?
};

/**
 * Build the function table, bind COPRA_HOT marks (a mark on a class
 * method roots every overriding body in derived classes; a mark on a
 * free function roots every definition of that name), and compute the
 * reachable hot region by resolving calls through the class table.
 * Bodies under src/check/ and outside src/ never join the region —
 * reference models and harnesses are clarity-first by design.
 */
CallGraph buildCallGraph(const SemaModel &model,
                         const std::vector<FileScan> &scans);

/**
 * The hot-path discipline rules over the hot region: hot-alloc,
 * hot-lock, hot-throw (including missing noexcept), hot-io, and
 * hot-unresolved for calls the lexical resolver cannot bind.
 * Suppressions from the file owning each finding apply; results are
 * unsorted (callers sort the merged set).
 */
std::vector<Finding> runCallGraphRules(const CallGraph &cg,
                                       const SemaModel &model,
                                       const std::vector<FileScan> &scans);

/**
 * Render docs/HOT_PATH.md: the declared roots and, per
 * Predictor-derived class under src/predictor/, the hot functions its
 * prediction path reaches. Drift-gated by the hot_path_doc_drift test.
 */
std::string renderHotPathDoc(const CallGraph &cg, const SemaModel &model,
                             const std::vector<FileScan> &scans);

/**
 * Display column of 1-based byte offset `byteCol` in `line`: UTF-8
 * continuation bytes do not advance the column, and a tab advances to
 * the next 8-wide tab stop (what editors and SARIF viewers show for
 * tab-indented lines). SARIF and --json emit display columns, never
 * raw byte offsets.
 */
int displayColumn(const std::string &line, int byteCol);

// --- Module layering (DESIGN.md §10) --------------------------------

/**
 * Module of a repo-relative path: "util", "trace", "workload",
 * "predictor", "sim", "core", "check" for src/<module>/...; "tools",
 * "bench", "tests", "examples" for the sink trees; "" when the path
 * belongs to no declared module.
 */
std::string moduleOf(const std::string &rel);

/**
 * Module an include spelling points at, resolved lexically:
 * "sim/driver.hpp" -> "sim", "copra_lint/lint.hpp" -> "tools",
 * "" for system headers and other non-module includes.
 */
std::string includeModule(const std::string &target);

/**
 * True when module `from` may depend on module `to` under the declared
 * DAG: util -> trace -> {workload, predictor} -> sim -> core -> check,
 * with tools/bench/tests/examples as sinks that may depend on
 * anything. Self-dependency is always legal; unknown modules are never
 * constrained.
 */
bool moduleAllowed(const std::string &from, const std::string &to);

/**
 * The file-level include graph of one lint run: edges from each
 * scanned file to the scanned files its includes resolve to (system
 * headers and unscanned files do not appear).
 */
struct IncludeGraph
{
    /** Adjacency: rel path -> resolved targets, include order. */
    std::map<std::string, std::vector<Include>> edges;
};

/** Build the include graph over `scans` (targets resolved to rels). */
IncludeGraph buildIncludeGraph(const std::vector<FileScan> &scans);

/**
 * Graph-level rules, run once per tree: `include-cycle` for file-level
 * include cycles, and transitive `layering` ("include-through")
 * findings for files whose include closure reaches a module their own
 * module may not depend on through individually legal edges.
 * Suppressions from the owning file apply; results are sorted.
 */
std::vector<Finding> runGraphRules(const std::vector<FileScan> &scans,
                                   const IncludeGraph &graph);

/** Render the include graph as Graphviz DOT, module-clustered;
 *  DAG-violating edges are drawn red. Files in `hotFiles` (those
 *  containing hot-region bodies) are filled as the hot overlay. */
std::string graphToDot(const IncludeGraph &graph,
                       const std::set<std::string> &hotFiles = {});

/** Everything lintTreeFull learned about one tree. */
struct TreeLint
{
    std::vector<Finding> findings;
    IncludeGraph graph;
    /** Missing or unreadable input paths — the caller must treat any
     *  entry as a hard error, not a clean run. */
    std::vector<std::string> errors;
    /** Files containing at least one hot-region body (--graph-dot
     *  overlay). */
    std::set<std::string> hotFiles;
    /** The regenerated docs/HOT_PATH.md content for this tree. */
    std::string hotPathDoc;
};

/**
 * Lint a source tree rooted at `root`, restricted to `paths`
 * (root-relative directories or files). Resolves project includes so
 * cross-header unordered knowledge is available, builds the include
 * graph, and runs both the per-file and the graph-level rules.
 * Results are sorted.
 */
TreeLint lintTreeFull(const std::string &root,
                      const std::vector<std::string> &paths);

/** lintTreeFull, findings only (kept for existing callers; path
 *  errors surface through lintTreeFull). */
std::vector<Finding> lintTree(const std::string &root,
                              const std::vector<std::string> &paths);

/**
 * Self-test over a planted-violation corpus: every expectation
 * marker must produce exactly one finding of that rule on its line,
 * no unexpected findings may appear, every rule must both fire and be
 * exercised in suppressed form somewhere in the corpus. Returns true
 * on success; mismatch details are appended to `report`.
 */
bool selfTest(const std::string &root, const std::string &corpus,
              std::string &report);

} // namespace copra::lint
