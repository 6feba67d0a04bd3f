/**
 * @file
 * Hot-path call-graph pass for copra_lint (DESIGN.md §15).
 *
 * Builds a cross-TU function symbol table — every method body from the
 * sema class model plus every namespace-scope free-function definition
 * — then binds COPRA_HOT root annotations and computes the reachable
 * hot region: a mark on a class method roots that method in the class
 * and in every class transitively deriving from it (virtual fan-out to
 * overriders); a mark on a free function roots every definition of
 * that name. Calls inside region bodies are resolved lexically through
 * the class table (member calls by method name, qualified calls by
 * class or namespace, unqualified calls through the enclosing class
 * hierarchy, then free functions); callees the resolver cannot bind
 * are reported through the hot-unresolved rule, never ignored.
 *
 * Four discipline rules run over the region:
 *
 *  - hot-alloc: no new/delete, no allocating std:: types or calls
 *    (string/vector construction, to_string, ...), no allocating
 *    member calls (push_back, resize, reserve, ...).
 *  - hot-lock: no util::Mutex/MutexLock or std lock types, no
 *    function-local statics (guarded initialization), no atomics
 *    without an explicit relaxed memory order.
 *  - hot-throw: no throw, and every hot function (and every COPRA_HOT
 *    declaration) must spell noexcept.
 *  - hot-io: no stream/stdio/file APIs, and no warn()/inform() —
 *    panic/fatal stay legal as the [[noreturn]] assertion frontier.
 *
 * Deliberate scope cuts, documented in DESIGN.md §15: bodies outside
 * src/ and under src/check/ never join the region (reference models
 * and harnesses are clarity-first); obs::count/gaugeMax/observe are a
 * trusted frontier (the one-relaxed-load pattern is audited once, in
 * obs); operator[]-driven container growth is lexically invisible and
 * is exactly what the runtime gate (`copra_check --hot-gates`) exists
 * to catch.
 */

#include "copra_lint/lint.hpp"

#include <algorithm>
#include <deque>
#include <sstream>

namespace copra::lint {

namespace {

bool
isIdentTok(const std::string &t)
{
    return !t.empty() &&
        (std::isalpha(static_cast<unsigned char>(t[0])) || t[0] == '_');
}

/** Token index just past the `}` matching the `{` at `open`. */
size_t
skipBraces(const std::vector<Token> &toks, size_t open)
{
    int depth = 0;
    for (size_t j = open; j < toks.size(); ++j) {
        if (toks[j].text == "{")
            ++depth;
        else if (toks[j].text == "}" && --depth == 0)
            return j + 1;
    }
    return toks.size();
}

/** Token index just past the matcher of the bracket at `open`. */
size_t
skipPair(const std::vector<Token> &toks, size_t open,
         const std::string &openTok, const std::string &closeTok)
{
    int depth = 0;
    for (size_t j = open; j < toks.size(); ++j) {
        if (toks[j].text == openTok)
            ++depth;
        else if (toks[j].text == closeTok && --depth == 0)
            return j + 1;
    }
    return toks.size();
}

/** May a body in this file join the hot region? Reference models and
 * harnesses under src/check/ are clarity-first by design; tests,
 * tools, and bench harnesses are cold by definition; src/obs/ is the
 * audited telemetry frontier — hot code reaches it only through the
 * kObsFrontier entry points, whose lock- and allocation-free discipline
 * is checked at run time by the copra_check_hot_gates_metrics gate
 * (`copra_check --hot-gates --metrics-summary` replays the roster with
 * telemetry on), not by this pass. */
bool
eligibleRel(const std::string &rel)
{
    return rel.rfind("src/", 0) == 0 &&
        rel.rfind("src/check/", 0) != 0 && rel.rfind("src/obs/", 0) != 0;
}

/** Compiler intrinsics (`__builtin_*`, and x86 `_mm*` where an
 * allow() admits one past the banned-api rule): single-instruction
 * register ops that cannot allocate, lock, throw, or do IO. */
bool
isIntrinsicName(const std::string &t)
{
    return t.rfind("_mm", 0) == 0 || t.rfind("__", 0) == 0;
}

bool
inSet(const std::set<std::string> &s, const std::string &t)
{
    return s.find(t) != s.end();
}

/** Statement keywords the call classifier must never treat as callees. */
const std::set<std::string> kKeywords = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "noexcept", "static_cast", "reinterpret_cast",
    "const_cast", "dynamic_cast", "static_assert", "alignas", "typeid",
    "case", "catch", "new", "delete", "co_await", "co_yield",
    "co_return", "requires", "throw", "assert", "else", "do", "try",
    "template", "typename", "operator", "goto", "constexpr",
};

/** Builtin value types: `uint64_t(x)` is a cast, not a call. */
const std::set<std::string> kTypeNames = {
    "uint8_t", "uint16_t", "uint32_t", "uint64_t", "int8_t", "int16_t",
    "int32_t", "int64_t", "size_t", "ptrdiff_t", "uintptr_t", "intptr_t",
    "int", "unsigned", "long", "short", "char", "bool", "float",
    "double", "signed", "auto",
};

/** Calls that never allocate, lock, throw, or do IO — the resolver
 * skips them instead of reporting hot-unresolved noise. `clear` is
 * the non-freeing container reset; a project method of that name is
 * shadowed here (documented over-approximation, DESIGN.md §15). */
const std::set<std::string> kBenignCalls = {
    "size", "empty", "data", "begin", "end", "cbegin", "cend", "rbegin",
    "rend", "front", "back", "min", "max", "clamp", "abs", "memcpy",
    "memset", "memmove", "c_str", "find", "contains", "at", "popcount",
    "countr_zero", "countl_zero", "rotl", "rotr", "subspan", "first",
    "last", "get", "swap", "fill", "exchange", "bit_cast", "midpoint",
    "clear",
};

/** `std::` names whose mention in a hot body is an allocation. */
const std::set<std::string> kStdAlloc = {
    "string", "wstring", "vector", "deque", "list", "map", "set",
    "multimap", "multiset", "unordered_map", "unordered_set",
    "function", "to_string", "make_unique", "make_shared",
    "ostringstream", "istringstream", "stringstream", "basic_string",
};

/** `std::` names whose mention in a hot body is IO. */
const std::set<std::string> kStdIo = {
    "cout", "cerr", "cin", "clog", "endl", "ofstream", "ifstream",
    "fstream", "getline", "printf", "fprintf", "puts", "fopen",
    "filesystem",
};

/** `std::` names whose mention in a hot body is locking/ordering. */
const std::set<std::string> kStdLock = {
    "mutex", "recursive_mutex", "shared_mutex", "timed_mutex",
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
    "condition_variable", "condition_variable_any",
    "memory_order_seq_cst", "this_thread", "thread", "barrier", "latch",
    "counting_semaphore", "binary_semaphore",
};

/** Unqualified lock-type identifiers (util/sync.hpp doorway types). */
const std::set<std::string> kLockIdents = {
    "Mutex", "MutexLock", "lock_guard", "unique_lock", "scoped_lock",
    "condition_variable",
};

/** Member calls that may (re)allocate their container. */
const std::set<std::string> kAllocMembers = {
    "push_back", "emplace_back", "emplace", "insert", "resize",
    "reserve", "assign", "append", "shrink_to_fit", "push",
    "emplace_front", "push_front", "try_emplace",
};

/** Member calls that acquire or release a lock. */
const std::set<std::string> kLockMembers = {
    "lock", "unlock", "try_lock", "lock_shared", "unlock_shared",
};

/** Atomic member operations; legal only with explicit relaxed order. */
const std::set<std::string> kAtomicMembers = {
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong", "wait", "notify_one", "notify_all",
    "test_and_set",
};

/** stdio-family free calls (hot-io at the call site). */
const std::set<std::string> kIoCalls = {
    "printf", "fprintf", "fputs", "fputc", "puts", "putchar", "fwrite",
    "fread", "fopen", "fclose", "fflush", "perror", "snprintf",
    "vsnprintf", "fscanf",
};

/** The [[noreturn]] assertion frontier: a hot path may still die loudly
 * on contract violation — that is not steady-state behaviour. */
const std::set<std::string> kPanicCalls = {
    "panic", "panicIf", "fatal", "fatalIf", "abort", "unreachable",
};

/** The obs one-relaxed-load frontier (audited once, in src/obs). */
const std::set<std::string> kObsFrontier = {
    "count", "gaugeMax", "observe", "ids", "enabled", "enabledRelaxed",
};

/** Index over a CallGraph's functions, plus hierarchy maps. */
struct Resolver
{
    std::map<std::string, std::vector<size_t>> byMethod;
    std::map<std::string, std::vector<size_t>> byFree;
    /** class -> transitive base classes */
    std::map<std::string, std::set<std::string>> ancestors;
    /** class -> classes transitively deriving from it */
    std::map<std::string, std::set<std::string>> descendants;
};

Resolver
buildResolver(const CallGraph &cg, const SemaModel &model)
{
    Resolver r;
    for (size_t i = 0; i < cg.functions.size(); ++i) {
        const CgFunction &f = cg.functions[i];
        if (f.cls.empty())
            r.byFree[f.name].push_back(i);
        else
            r.byMethod[f.name].push_back(i);
    }
    for (const auto &[name, cls] : model.classes) {
        std::set<std::string> anc;
        std::vector<std::string> work(cls.bases.begin(), cls.bases.end());
        while (!work.empty()) {
            std::string b = work.back();
            work.pop_back();
            if (!anc.insert(b).second)
                continue;
            auto it = model.classes.find(b);
            if (it != model.classes.end())
                work.insert(work.end(), it->second.bases.begin(),
                            it->second.bases.end());
        }
        for (const std::string &b : anc)
            r.descendants[b].insert(name);
        r.ancestors.emplace(name, std::move(anc));
    }
    return r;
}

/** One rule violation discovered inside a hot body. */
struct Violation
{
    const Token *tok;
    std::string rule;
    std::string what;
};

/** Does the head range [from, to) contain a `noexcept` token? */
bool
rangeHasNoexcept(const std::vector<Token> &toks, size_t from, size_t to)
{
    for (size_t k = from; k < to && k < toks.size(); ++k)
        if (toks[k].text == "noexcept")
            return true;
    return false;
}

/**
 * Scan one function body: discover resolved callees (into `callees`,
 * when non-null) and discipline violations (into `viols`, when
 * non-null). The two outputs come from the same single classifier so
 * the region BFS and the rule pass can never disagree about an edge.
 */
void
scanBody(const CallGraph &cg, const Resolver &rsv, const SemaModel &model,
         const std::vector<FileScan> &scans, size_t fnIdx,
         std::vector<size_t> *callees, std::vector<Violation> *viols)
{
    const CgFunction &fn = cg.functions[fnIdx];
    const auto &toks = scans[fn.scanIndex].tokens;
    size_t begin = fn.beginTok + 1;
    size_t end = fn.endTok;

    auto viol = [&](size_t at, const char *rule, const std::string &what) {
        if (viols)
            viols->push_back({&toks[at], rule, what});
    };
    auto edges = [&](const std::vector<size_t> &targets) {
        if (!callees)
            return;
        callees->insert(callees->end(), targets.begin(), targets.end());
    };

    // Pre-pass: names bound to lambdas in this body are benign calls —
    // their bodies sit inside this token range and are scanned as part
    // of it, so the call itself adds nothing. `auto name` catches
    // generic-lambda parameters (the callable arrives as an argument,
    // its body still lives in an enclosing hot function).
    std::set<std::string> lambdaNames;
    for (size_t j = begin + 1; j + 1 < end; ++j) {
        if (toks[j].text == "=" && toks[j + 1].text == "[" &&
            isIdentTok(toks[j - 1].text))
            lambdaNames.insert(toks[j - 1].text);
        if (toks[j].text == "auto" && isIdentTok(toks[j + 1].text))
            lambdaNames.insert(toks[j + 1].text);
    }

    for (size_t j = begin; j < end; ++j) {
        const std::string &t = toks[j].text;

        if (t == "throw") {
            viol(j, "hot-throw", "throw in the hot path");
            continue;
        }
        if (t == "new" || t == "delete") {
            if (j > begin && toks[j - 1].text == "operator")
                continue;
            viol(j, "hot-alloc", "'" + t + "' in the hot path");
            continue;
        }
        if (t == "static") {
            if (j + 1 < end && toks[j + 1].text == "constexpr")
                continue;
            viol(j, "hot-lock",
                 "function-local static (guarded initialization) in "
                 "the hot path");
            continue;
        }
        if (inSet(kLockIdents, t)) {
            viol(j, "hot-lock", "lock type '" + t + "' in the hot path");
            continue;
        }
        if (t == "std" && j + 2 < end && toks[j + 1].text == "::") {
            const std::string &m = toks[j + 2].text;
            if (inSet(kStdAlloc, m))
                viol(j + 2, "hot-alloc",
                     "allocating std::" + m + " in the hot path");
            else if (inSet(kStdIo, m))
                viol(j + 2, "hot-io", "std::" + m + " in the hot path");
            else if (inSet(kStdLock, m))
                viol(j + 2, "hot-lock", "std::" + m + " in the hot path");
            j += 2; // everything else under std:: is trusted not to
                    // allocate/lock/throw (min, span, bit ops, ...)
            continue;
        }

        if (!isIdentTok(t) || j + 1 >= end || toks[j + 1].text != "(")
            continue;

        const std::string *prev = j > 0 ? &toks[j - 1].text : nullptr;
        const std::string *prev2 = j > 1 ? &toks[j - 2].text : nullptr;
        bool member = prev &&
            (*prev == "." || (*prev == ">" && prev2 && *prev2 == "-"));
        bool qualified = prev && *prev == "::" && prev2;
        // `obj.P::m(...)`, P a template parameter: a member call by name.
        if (qualified && !model.classes.count(*prev2) && j > 3 &&
            (toks[j - 3].text == "." ||
             (toks[j - 3].text == ">" && toks[j - 4].text == "-")))
            member = true;

        if (member) {
            if (inSet(kBenignCalls, t) || lambdaNames.count(t))
                continue;
            if (inSet(kLockMembers, t)) {
                viol(j, "hot-lock",
                     "lock member call '" + t + "' in the hot path");
                continue;
            }
            if (inSet(kAtomicMembers, t)) {
                size_t close = skipPair(toks, j + 1, "(", ")");
                bool relaxed = false;
                for (size_t k = j + 2; k + 1 < close; ++k)
                    if (toks[k].text == "memory_order_relaxed")
                        relaxed = true;
                if (!relaxed)
                    viol(j, "hot-lock",
                         "atomic '" + t + "' without an explicit "
                         "relaxed memory order in the hot path");
                continue;
            }
            if (inSet(kAllocMembers, t)) {
                // `push` alone prefers a project definition over the
                // std-container reading: the shift-register/ring types
                // all push in place, and their bodies get scanned. The
                // price is that std::queue::push is invisible here —
                // the runtime gate covers that hole. Every other
                // allocating name flags unconditionally.
                auto it = t == "push" ? rsv.byMethod.find(t)
                                      : rsv.byMethod.end();
                if (it != rsv.byMethod.end()) {
                    edges(it->second);
                    continue;
                }
                viol(j, "hot-alloc",
                     "allocating member call '" + t + "' in the hot path");
                continue;
            }
            auto it = rsv.byMethod.find(t);
            if (it == rsv.byMethod.end()) {
                viol(j, "hot-unresolved",
                     "member call '" + t + "' resolves to no known "
                     "method definition");
                continue;
            }
            edges(it->second);
            continue;
        }

        if (qualified) {
            const std::string &q = *prev2;
            if (q == "std")
                continue; // handled by the std:: scan above
            if (q == "obs" && inSet(kObsFrontier, t))
                continue;
            if (inSet(kBenignCalls, t) || inSet(kTypeNames, t))
                continue;
            auto cit = model.classes.find(q);
            if (cit != model.classes.end()) {
                // Explicit Class::method(...) call: the class itself,
                // then its ancestors, provide the body — no virtual
                // dispatch through an explicit qualifier.
                std::vector<size_t> targets;
                auto mit = rsv.byMethod.find(t);
                if (mit != rsv.byMethod.end()) {
                    auto anc = rsv.ancestors.find(q);
                    for (size_t f : mit->second) {
                        const std::string &owner = cg.functions[f].cls;
                        if (owner == q ||
                            (anc != rsv.ancestors.end() &&
                             anc->second.count(owner)))
                            targets.push_back(f);
                    }
                }
                if (targets.empty())
                    viol(j, "hot-unresolved",
                         "no definition of " + q + "::" + t + " found");
                else
                    edges(targets);
                continue;
            }
            // Namespace-qualified free call (kernels::, state::, ...).
            auto fit = rsv.byFree.find(t);
            if (fit == rsv.byFree.end()) {
                viol(j, "hot-unresolved",
                     "qualified call " + q + "::" + t +
                     " resolves to no known definition");
                continue;
            }
            edges(fit->second);
            continue;
        }

        // Unqualified call.
        if (inSet(kKeywords, t) || inSet(kTypeNames, t) ||
            inSet(kBenignCalls, t) || lambdaNames.count(t))
            continue;
        if (inSet(kPanicCalls, t) || isIntrinsicName(t))
            continue;
        if (model.classes.count(t)) {
            // Constructor call `Type(...)`: user-declared constructor
            // bodies (recorded under the class name) join the region;
            // a class with none has member-default initialization
            // only, which this pass treats as benign.
            std::vector<size_t> targets;
            auto mit = rsv.byMethod.find(t);
            if (mit != rsv.byMethod.end())
                for (size_t f : mit->second)
                    if (cg.functions[f].cls == t)
                        targets.push_back(f);
            edges(targets);
            continue;
        }
        if (t == "warn" || t == "inform") {
            viol(j, "hot-io",
                 "'" + t + "' (stderr logging) in the hot path");
            continue;
        }
        if (inSet(kIoCalls, t)) {
            viol(j, "hot-io", "'" + t + "' in the hot path");
            continue;
        }
        // `Type name(args)` declaration, not a call: the preceding
        // token is part of a type spelling. Statement keywords are
        // not type spellings — `return foo(x)` is still a call.
        if (prev &&
            ((isIdentTok(*prev) && !inSet(kKeywords, *prev)) ||
             *prev == ">" || *prev == "&" || *prev == "*"))
            continue;
        if (!fn.cls.empty()) {
            // Resolve through the enclosing class hierarchy: the class
            // itself, its bases (inherited helpers), and — because the
            // call may dispatch virtually — every derived overrider.
            std::vector<size_t> targets;
            auto mit = rsv.byMethod.find(t);
            if (mit != rsv.byMethod.end()) {
                auto anc = rsv.ancestors.find(fn.cls);
                auto dsc = rsv.descendants.find(fn.cls);
                for (size_t f : mit->second) {
                    const std::string &owner = cg.functions[f].cls;
                    if (owner == fn.cls ||
                        (anc != rsv.ancestors.end() &&
                         anc->second.count(owner)) ||
                        (dsc != rsv.descendants.end() &&
                         dsc->second.count(owner)))
                        targets.push_back(f);
                }
            }
            if (!targets.empty()) {
                edges(targets);
                continue;
            }
        }
        auto fit = rsv.byFree.find(t);
        if (fit != rsv.byFree.end()) {
            edges(fit->second);
            continue;
        }
        viol(j, "hot-unresolved",
             "call '" + t + "' resolves to no known definition "
             "(declare it, qualify it, or allow(hot-unresolved) with "
             "the reason it is safe)");
    }
}

/**
 * Collect namespace-scope free-function definitions from one scan.
 * A statement walker that descends into namespace braces, skips class
 * and enum bodies (the sema model owns those), skips initializers, and
 * records every `name(...) ... { ... }` head whose name is not
 * class-qualified.
 */
void
collectFreeFunctions(const FileScan &scan, size_t scanIndex,
                     std::vector<CgFunction> &out)
{
    const auto &toks = scan.tokens;

    // Explicit stack of namespace-body end indices; everything else is
    // skipped wholesale, so the walker only ever stands at namespace
    // scope.
    struct Frame
    {
        size_t end;
    };
    std::vector<Frame> frames{{toks.size()}};
    size_t stmt = 0;
    size_t j = 0;
    while (j < toks.size()) {
        while (frames.size() > 1 && j >= frames.back().end)
            frames.pop_back(); // the `}` itself advances via the branch below
        const std::string &t = toks[j].text;
        if (t == "(") {
            j = skipPair(toks, j, "(", ")");
            continue;
        }
        if (t == "=") {
            // Initializer: skip to the statement's `;`, crossing any
            // lambda bodies, call parens, and brace initializers.
            ++j;
            while (j < frames.back().end && toks[j].text != ";") {
                if (toks[j].text == "{")
                    j = skipBraces(toks, j);
                else if (toks[j].text == "(")
                    j = skipPair(toks, j, "(", ")");
                else if (toks[j].text == "[")
                    j = skipPair(toks, j, "[", "]");
                else
                    ++j;
            }
            continue;
        }
        if (t == ";") {
            ++j;
            stmt = j;
            continue;
        }
        if (t == "}") {
            ++j;
            stmt = j;
            continue;
        }
        if (t != "{") {
            ++j;
            continue;
        }

        // Classify the statement head [stmt, j).
        bool isNamespace = false, isType = false;
        size_t firstParen = j;
        for (size_t k = stmt; k < j; ++k) {
            const std::string &h = toks[k].text;
            if (h == "namespace")
                isNamespace = true;
            else if (h == "class" || h == "struct" || h == "union" ||
                     h == "enum")
                isType = true;
            else if (h == "(" && firstParen == j)
                firstParen = k;
        }
        if (isNamespace) {
            frames.push_back({skipBraces(toks, j) - 1});
            j = j + 1;
            stmt = j;
            continue;
        }
        size_t past = skipBraces(toks, j);
        if (!isType && firstParen < j) {
            // Function definition: name is the identifier right before
            // the parameter list; `Class::name` heads belong to the
            // sema model's out-of-line pass, not here.
            size_t nameIdx = firstParen;
            bool found = false;
            while (nameIdx > stmt) {
                --nameIdx;
                if (isIdentTok(toks[nameIdx].text)) {
                    found = true;
                    break;
                }
            }
            bool classQualified = found && nameIdx > stmt &&
                toks[nameIdx - 1].text == "::";
            if (found && !classQualified) {
                CgFunction fn;
                fn.cls = "";
                fn.name = toks[nameIdx].text;
                fn.scanIndex = scanIndex;
                fn.headTok = stmt;
                fn.beginTok = j;
                fn.endTok = past - 1;
                fn.line = toks[stmt].line;
                fn.hasNoexcept = rangeHasNoexcept(toks, stmt, j);
                fn.eligible = eligibleRel(scan.rel);
                out.push_back(std::move(fn));
            }
        }
        j = past;
        if (j < toks.size() && toks[j].text == ";")
            ++j;
        stmt = j;
    }
}

/** The model class whose body range encloses token `i` of scan `s`,
 * innermost definition winning; empty when at namespace scope. */
std::string
enclosingClass(const SemaModel &model, size_t s, size_t i)
{
    std::string best;
    size_t bestBegin = 0;
    for (const auto &[name, cls] : model.classes) {
        if (cls.scanIndex != s || cls.bodyBegin > i || i >= cls.bodyEnd)
            continue;
        if (best.empty() || cls.bodyBegin > bestBegin) {
            best = name;
            bestBegin = cls.bodyBegin;
        }
    }
    return best;
}

/** Parse COPRA_HOT annotations out of every scan. */
std::vector<HotMark>
collectMarks(const SemaModel &model, const std::vector<FileScan> &scans)
{
    std::vector<HotMark> marks;
    for (size_t s = 0; s < scans.size(); ++s) {
        const auto &toks = scans[s].tokens;
        for (size_t i = 0; i < toks.size(); ++i) {
            if (toks[i].text != "COPRA_HOT")
                continue;
            // The annotated statement runs to the first `;` or `{` at
            // paren depth 0; the function name is the identifier just
            // before the parameter list.
            size_t termin = toks.size();
            size_t firstParen = toks.size();
            int parens = 0;
            for (size_t k = i + 1; k < toks.size(); ++k) {
                const std::string &t = toks[k].text;
                if (t == "(") {
                    if (parens == 0 && firstParen == toks.size())
                        firstParen = k;
                    ++parens;
                } else if (t == ")") {
                    --parens;
                } else if (parens == 0 && (t == ";" || t == "{")) {
                    termin = k;
                    break;
                }
            }
            if (firstParen >= termin)
                continue; // not a function statement; nothing to root
            size_t nameIdx = firstParen;
            while (nameIdx-- > i)
                if (isIdentTok(toks[nameIdx].text))
                    break;
            if (nameIdx <= i && !isIdentTok(toks[nameIdx].text))
                continue;
            HotMark mark;
            mark.method = toks[nameIdx].text;
            if (nameIdx >= 2 && toks[nameIdx - 1].text == "::" &&
                isIdentTok(toks[nameIdx - 2].text))
                mark.cls = toks[nameIdx - 2].text;
            else
                mark.cls = enclosingClass(model, s, i);
            mark.rel = scans[s].rel;
            mark.line = toks[i].line;
            mark.hasNoexcept = rangeHasNoexcept(toks, i, termin);
            marks.push_back(std::move(mark));
        }
    }
    return marks;
}

} // namespace

CallGraph
buildCallGraph(const SemaModel &model, const std::vector<FileScan> &scans)
{
    CallGraph cg;

    // Function table: method bodies from the class model first (the
    // model's map order keeps this deterministic), then free functions
    // in scan order.
    for (const auto &[name, cls] : model.classes) {
        for (const SemaBody &body : cls.bodies) {
            const auto &toks = scans[body.scanIndex].tokens;
            CgFunction fn;
            fn.cls = name;
            fn.name = body.method;
            fn.scanIndex = body.scanIndex;
            fn.headTok = body.headTok;
            fn.beginTok = body.beginTok;
            fn.endTok = body.endTok;
            fn.line = body.headTok < toks.size()
                ? toks[body.headTok].line
                : 0;
            fn.hasNoexcept =
                rangeHasNoexcept(toks, body.headTok, body.beginTok);
            fn.eligible = eligibleRel(scans[body.scanIndex].rel);
            cg.functions.push_back(std::move(fn));
        }
    }
    for (size_t s = 0; s < scans.size(); ++s)
        collectFreeFunctions(scans[s], s, cg.functions);

    cg.marks = collectMarks(model, scans);
    cg.hot.assign(cg.functions.size(), 0);
    cg.hotVia.assign(cg.functions.size(), "");
    cg.markBound.assign(cg.marks.size(), 0);

    Resolver rsv = buildResolver(cg, model);

    // Roots: a class-method mark fans out to every overriding body in
    // derived classes; a free mark roots every definition of the name.
    std::deque<size_t> work;
    auto enqueue = [&](size_t f, const std::string &via) {
        if (!cg.functions[f].eligible || cg.hot[f])
            return;
        cg.hot[f] = 1;
        cg.hotVia[f] = via;
        work.push_back(f);
    };
    for (size_t m = 0; m < cg.marks.size(); ++m) {
        const HotMark &mark = cg.marks[m];
        if (mark.cls.empty()) {
            auto it = rsv.byFree.find(mark.method);
            if (it == rsv.byFree.end())
                continue;
            for (size_t f : it->second) {
                cg.markBound[m] = 1;
                enqueue(f, cg.functions[f].label());
            }
            continue;
        }
        auto it = rsv.byMethod.find(mark.method);
        if (it == rsv.byMethod.end())
            continue;
        auto dsc = rsv.descendants.find(mark.cls);
        for (size_t f : it->second) {
            const std::string &owner = cg.functions[f].cls;
            if (owner != mark.cls &&
                (dsc == rsv.descendants.end() ||
                 !dsc->second.count(owner)))
                continue;
            cg.markBound[m] = 1;
            enqueue(f, mark.cls + "::" + mark.method +
                           (owner == mark.cls
                                ? ""
                                : " -> " + cg.functions[f].label()));
        }
    }

    // Reachability: breadth-first, deterministic order, each body
    // visited once; the first discovery fixes the provenance chain.
    while (!work.empty()) {
        size_t f = work.front();
        work.pop_front();
        std::vector<size_t> callees;
        scanBody(cg, rsv, model, scans, f, &callees, nullptr);
        for (size_t c : callees) {
            std::string via = cg.hotVia[f];
            // Keep chains readable: after three hops, elide the middle.
            if (std::count(via.begin(), via.end(), '>') >= 3) {
                size_t cut = via.find(" -> ");
                via = via.substr(0, cut) + " -> ...";
            }
            enqueue(c, via + " -> " + cg.functions[c].label());
        }
    }
    return cg;
}

std::vector<Finding>
runCallGraphRules(const CallGraph &cg, const SemaModel &model,
                  const std::vector<FileScan> &scans)
{
    Resolver rsv = buildResolver(cg, model);
    std::vector<Finding> raw;

    // Every COPRA_HOT declaration must spell noexcept and must bind to
    // at least one known function definition.
    for (size_t m = 0; m < cg.marks.size(); ++m) {
        const HotMark &mark = cg.marks[m];
        std::string label = mark.cls.empty()
            ? mark.method
            : mark.cls + "::" + mark.method;
        if (!mark.hasNoexcept)
            raw.push_back({mark.rel, mark.line, "hot-throw",
                           "COPRA_HOT function '" + label +
                               "' is not declared noexcept: the hot "
                               "region is exception-free by contract",
                           1});
        if (!cg.markBound[m])
            raw.push_back({mark.rel, mark.line, "hot-unresolved",
                           "COPRA_HOT on '" + label + "' roots no "
                           "known function definition",
                           1});
    }

    for (size_t f = 0; f < cg.functions.size(); ++f) {
        if (!cg.hot[f])
            continue;
        const CgFunction &fn = cg.functions[f];
        const FileScan &scan = scans[fn.scanIndex];
        std::string via = " [hot via " + cg.hotVia[f] + "]";
        if (!fn.hasNoexcept) {
            const auto &toks = scan.tokens;
            int col = fn.headTok < toks.size() ? toks[fn.headTok].col : 1;
            raw.push_back({scan.rel, fn.line, "hot-throw",
                           "hot function '" + fn.label() +
                               "' is not declared noexcept" + via,
                           col});
        }
        std::vector<Violation> viols;
        scanBody(cg, rsv, model, scans, f, nullptr, &viols);
        for (const Violation &v : viols)
            raw.push_back({scan.rel, v.tok->line, v.rule, v.what + via,
                           v.tok->col});
    }

    // Suppressions come from the file each finding lands in.
    std::map<std::string, const FileScan *> byRel;
    for (const FileScan &scan : scans)
        byRel.emplace(scan.rel, &scan);
    std::vector<Finding> kept;
    std::map<std::string, std::vector<Finding>> grouped;
    for (Finding &f : raw)
        grouped[f.rel].push_back(std::move(f));
    for (auto &[rel, findings] : grouped) {
        auto it = byRel.find(rel);
        if (it == byRel.end()) {
            kept.insert(kept.end(), findings.begin(), findings.end());
            continue;
        }
        std::vector<Finding> surviving =
            applySuppressions(*it->second, std::move(findings));
        kept.insert(kept.end(), surviving.begin(), surviving.end());
    }
    return kept;
}

std::string
renderHotPathDoc(const CallGraph &cg, const SemaModel &model,
                 const std::vector<FileScan> &scans)
{
    std::ostringstream os;
    os << "# Hot-path region\n"
          "\n"
          "Generated by `copra_lint --doc-hot-path`; the\n"
          "`hot_path_doc_drift` ctest gate fails when this file drifts\n"
          "from the COPRA_HOT-rooted call-graph closure. Regenerate\n"
          "with:\n"
          "\n"
          "    build/tools/copra_lint --root . "
          "--doc-hot-path src bench tests tools > docs/HOT_PATH.md\n"
          "\n"
          "Every function below is reachable from a COPRA_HOT root and\n"
          "is therefore subject to the hot-alloc / hot-lock /\n"
          "hot-throw / hot-io rules (DESIGN.md §15) and to the runtime\n"
          "allocation/lock gates (`copra_check --hot-gates`).\n"
          "\n"
          "## Hot roots\n"
          "\n";
    std::set<std::string> rootLines;
    for (const HotMark &mark : cg.marks) {
        std::string label = mark.cls.empty()
            ? mark.method
            : mark.cls + "::" + mark.method;
        rootLines.insert("- `" + label + "` (" + mark.rel + ")\n");
    }
    for (const std::string &line : rootLines)
        os << line;

    // Per-predictor hot methods: every Predictor-derived class under
    // src/predictor/ with at least one hot body, with the methods the
    // region includes for it.
    os << "\n## Hot region per predictor\n"
          "\n"
          "| class | file | hot methods |\n"
          "|---|---|---|\n";
    std::map<std::string, std::set<std::string>> perClass;
    std::map<std::string, std::set<std::string>> shared;
    for (size_t f = 0; f < cg.functions.size(); ++f) {
        if (!cg.hot[f])
            continue;
        const CgFunction &fn = cg.functions[f];
        const std::string &rel = scans[fn.scanIndex].rel;
        if (!fn.cls.empty() &&
            model.classes.count(fn.cls) &&
            model.classes.at(fn.cls).rel.rfind("src/predictor/", 0) ==
                0 &&
            derivesFromPredictor(model, fn.cls))
            perClass[fn.cls].insert(fn.name);
        else
            shared["`" + fn.label() + "`"].insert(rel);
    }
    for (const auto &[cls, methods] : perClass) {
        os << "| " << cls << " | " << model.classes.at(cls).rel << " | ";
        bool first = true;
        for (const std::string &m : methods) {
            os << (first ? "" : ", ") << m;
            first = false;
        }
        os << " |\n";
    }

    os << "\n## Shared hot functions\n"
          "\n"
          "Support code (index helpers, counters, record accessors, the\n"
          "driver loop) reached by more than one predictor's path.\n"
          "\n"
          "| function | defined in |\n"
          "|---|---|\n";
    for (const auto &[label, rels] : shared) {
        os << "| " << label << " | ";
        bool first = true;
        for (const std::string &rel : rels) {
            os << (first ? "" : ", ") << rel;
            first = false;
        }
        os << " |\n";
    }
    return os.str();
}

int
displayColumn(const std::string &line, int byteCol)
{
    if (byteCol <= 1)
        return byteCol;
    size_t limit = std::min(line.size(), size_t(byteCol) - 1);
    int col = 1;
    for (size_t i = 0; i < limit; ++i) {
        unsigned char c = static_cast<unsigned char>(line[i]);
        if (c == '\t')
            col += 8 - ((col - 1) % 8); // advance to the next tab stop
        else if ((c & 0xC0) != 0x80)
            ++col; // count code points, not UTF-8 continuation bytes
    }
    if (size_t(byteCol) - 1 > line.size())
        col += int(size_t(byteCol) - 1 - line.size());
    return col;
}

} // namespace copra::lint
