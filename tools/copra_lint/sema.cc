/**
 * @file
 * Cross-TU semantic pass for copra_lint: the predictor field-taxonomy
 * audit (DESIGN.md §14).
 *
 * Where the token rules in rules.cc look at one statement at a time,
 * this pass builds a lightweight symbol table over every scanned file:
 * class definitions with their base classes, member fields, inline
 * method bodies, and COPRA_{STATE,CONFIG,TRANSIENT}_FIELDS declarations
 * — plus every out-of-line `Class::method(...) { ... }` body, bound
 * back to its class across translation units. Three rules run on top:
 *
 *  - state-decl: every Predictor-derived class under src/predictor/
 *    must declare COPRA_STATE_FIELDS(...), and every name a field
 *    list mentions must be a real member (no stale entries; the lists
 *    are only ever stringized, so the compiler cannot tell).
 *  - state-coverage: every parsed member field must appear in exactly
 *    one of the three lists — state-mutation can only hold a member
 *    to its class's contract once the member is classified.
 *  - state-mutation: prediction-path bodies (step, observe,
 *    predictUpdateSoa) may not mutate config-listed
 *    members; classes without the contract may not mutate any member
 *    there at all.
 *
 * The parser is the same honest lexical machinery as the rest of the
 * tool (DESIGN.md §14 discusses why declaration-cross-check beats a
 * libclang dependency here): a brace-depth statement walker that
 * classifies each class-body statement as nested type, method, field,
 * or field-list declaration. It parses every construct this codebase
 * uses; the planted corpus under tests/lint_corpus/ pins the behaviour.
 */

#include "copra_lint/lint.hpp"

#include <algorithm>

namespace copra::lint {

namespace {

bool
isIdentTok(const std::string &t)
{
    return !t.empty() &&
        (std::isalpha(static_cast<unsigned char>(t[0])) || t[0] == '_');
}

/** Keywords that can open a class-body statement we never classify as
 * a field or method of the class itself. */
bool
isSkippedHead(const std::string &t)
{
    return t == "using" || t == "typedef" || t == "friend" ||
        t == "template" || t == "static_assert" || t == "operator";
}

bool
isNestedTypeKeyword(const std::string &t)
{
    return t == "class" || t == "struct" || t == "union" || t == "enum";
}

bool
isAccessKeyword(const std::string &t)
{
    return t == "public" || t == "private" || t == "protected";
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

/** The three field-list macros, mapped to their list kind. */
bool
fieldListMacro(const std::string &t, FieldList &list)
{
    if (t == "COPRA_STATE_FIELDS") {
        list = FieldList::State;
        return true;
    }
    if (t == "COPRA_CONFIG_FIELDS") {
        list = FieldList::Config;
        return true;
    }
    if (t == "COPRA_TRANSIENT_FIELDS") {
        list = FieldList::Transient;
        return true;
    }
    return false;
}

/**
 * Field name of a data-member statement: scanning backward from the
 * terminator (`=`, `{`, or `;`), the first identifier is the declared
 * name — everything between it and the terminator is array extents or
 * punctuation (`lastRun[2] = ...`), everything before it is type.
 */
bool
fieldNameBackward(const std::vector<Token> &toks, size_t from, size_t to,
                  SemaField &out)
{
    for (size_t j = to; j-- > from;) {
        const std::string &t = toks[j].text;
        if (isIdentTok(t)) {
            out.name = t;
            out.line = toks[j].line;
            out.col = toks[j].col;
            return true;
        }
    }
    return false;
}

/**
 * Parse one class body (tokens strictly between its braces) into
 * `cls`. `scanIndex` names the scan the tokens belong to, so inline
 * method bodies can be recorded for the mutation rule.
 */
void
parseClassBody(const std::vector<Token> &toks, size_t begin, size_t end,
               size_t scanIndex, SemaClass &cls)
{
    size_t stmt = begin; // first token of the open statement
    size_t j = begin;
    while (j < end) {
        const std::string &t = toks[j].text;

        // Access labels reset the statement without ending one.
        if (isAccessKeyword(t) && j + 1 < end && toks[j + 1].text == ":") {
            j += 2;
            stmt = j;
            continue;
        }

        if (t == "{") {
            // Classify the statement head [stmt, j).
            size_t bodyEnd = skipBraces(toks, j); // one past the `}`
            bool nested = false, isStatic = false;
            size_t firstParen = end, firstEq = end;
            for (size_t k = stmt; k < j; ++k) {
                const std::string &h = toks[k].text;
                if (isNestedTypeKeyword(h))
                    nested = true;
                if (h == "static")
                    isStatic = true;
                if (h == "(" && firstParen == end)
                    firstParen = k;
                if (h == "=" && firstEq == end)
                    firstEq = k;
            }
            if (nested || isStatic ||
                (stmt < j && isSkippedHead(toks[stmt].text))) {
                // Nested type / static member / exempt statement.
            } else if (firstParen < firstEq) {
                // Method definition: name is the identifier before the
                // parameter list (ctors included).
                SemaField name;
                if (fieldNameBackward(toks, stmt, firstParen, name))
                    cls.bodies.push_back(
                        {name.name, scanIndex, j, bodyEnd - 1, stmt});
            } else {
                // Data member with a braced initializer.
                SemaField field;
                size_t term = firstEq != end ? firstEq : j;
                if (fieldNameBackward(toks, stmt, term, field))
                    cls.fields.push_back(field);
            }
            j = bodyEnd;
            if (j < end && toks[j].text == ";")
                ++j; // nested types and brace-inits close with one
            stmt = j;
            continue;
        }

        if (t == ";") {
            // Classify the statement [stmt, j).
            if (stmt < j) {
                const std::string &head = toks[stmt].text;
                FieldList list;
                if (fieldListMacro(head, list)) {
                    cls.hasStateFields |= list == FieldList::State;
                    cls.hasConfigFields |= list == FieldList::Config;
                    cls.hasTransientFields |= list == FieldList::Transient;
                    for (size_t k = stmt + 1; k < j; ++k)
                        if (isIdentTok(toks[k].text))
                            cls.listed.push_back({toks[k].text, list,
                                                  toks[stmt].line,
                                                  toks[stmt].col});
                } else if (isSkippedHead(head) ||
                           isNestedTypeKeyword(head)) {
                    // using/typedef/friend/forward declarations etc.
                } else {
                    bool isStatic = false;
                    size_t firstParen = end, firstEq = end;
                    for (size_t k = stmt; k < j; ++k) {
                        const std::string &h = toks[k].text;
                        if (h == "static")
                            isStatic = true;
                        if (h == "(" && firstParen == end)
                            firstParen = k;
                        if (h == "=" && firstEq == end)
                            firstEq = k;
                    }
                    if (isStatic) {
                        // Static members are class-wide, not instance
                        // state; the mutable-global rule polices them.
                    } else if (firstParen < firstEq) {
                        // Method declaration: not a member field.
                    } else {
                        SemaField field;
                        size_t term = firstEq != end ? firstEq : j;
                        if (fieldNameBackward(toks, stmt, term, field))
                            cls.fields.push_back(field);
                    }
                }
            }
            ++j;
            stmt = j;
            continue;
        }

        ++j;
    }
}

/**
 * Try to parse a class definition whose `class`/`struct` keyword sits
 * at `at`. On success fills `cls` (without body parsing), sets
 * `bodyBegin` to the token after the opening `{`, and returns true.
 */
bool
parseClassHead(const std::vector<Token> &toks, size_t at, SemaClass &cls,
               size_t &bodyBegin)
{
    // `enum class` is an enum; `template <class T>` is a parameter.
    if (at > 0 &&
        (toks[at - 1].text == "enum" || toks[at - 1].text == "<" ||
         toks[at - 1].text == ","))
        return false;

    size_t j = at + 1;
    if (j >= toks.size() || !isIdentTok(toks[j].text))
        return false; // anonymous or macro-ish; not a named definition
    cls.name = toks[j].text;
    cls.line = toks[j].line;
    ++j;
    if (j < toks.size() && toks[j].text == "final")
        ++j;
    if (j >= toks.size())
        return false;

    if (toks[j].text == ":") {
        // Base list: `public virtual ns::Base<T>, Base2, ...`.
        ++j;
        std::string lastIdent;
        while (j < toks.size()) {
            const std::string &t = toks[j].text;
            if (t == "{")
                break;
            if (t == ",") {
                if (!lastIdent.empty())
                    cls.bases.push_back(lastIdent);
                lastIdent.clear();
                ++j;
            } else if (t == "<") {
                j = skipPair(toks, j, "<", ">");
            } else if (isAccessKeyword(t) || t == "virtual" ||
                       t == "::") {
                ++j;
            } else if (isIdentTok(t)) {
                lastIdent = t;
                ++j;
            } else {
                return false; // not a class definition after all
            }
        }
        if (j >= toks.size())
            return false;
        if (!lastIdent.empty())
            cls.bases.push_back(lastIdent);
    }

    if (toks[j].text != "{")
        return false; // forward declaration or variable of class type
    bodyBegin = j + 1;
    return true;
}

/** Mutating container/member calls the mutation rule recognizes. */
bool
isMutatorCall(const std::string &t)
{
    return t == "clear" || t == "resize" || t == "push_back" ||
        t == "pop_back" || t == "insert" || t == "erase" ||
        t == "emplace" || t == "emplace_back" || t == "push" ||
        t == "pop" || t == "assign" || t == "set" || t == "fill" ||
        t == "swap";
}

/**
 * Scan the body token range for mutations of any name in `targets`:
 * assignment, compound assignment, shift-assignment, increment or
 * decrement (either side), indexed forms of all of those, and calls
 * to the recognized mutating members. Mutations through some *other*
 * object (`x.field = ...`) are ignored — only the class's own members
 * count.
 */
void
findMutations(const std::vector<Token> &toks, size_t begin, size_t end,
              const std::set<std::string> &targets,
              std::vector<const Token *> &hits)
{
    auto opAt = [&](size_t k) {
        if (k >= end)
            return false;
        const std::string &t = toks[k].text;
        if (t == "=" && (k + 1 >= end || toks[k + 1].text != "="))
            return true; // plain assignment, not `==`
        if ((t == "+" || t == "-" || t == "*" || t == "/" || t == "%" ||
             t == "&" || t == "|" || t == "^") &&
            k + 1 < end && toks[k + 1].text == "=")
            return true; // compound assignment
        if ((t == "<" || t == ">") && k + 2 < end &&
            toks[k + 1].text == t && toks[k + 2].text == "=")
            return true; // shift-assignment
        if ((t == "+" || t == "-") && k + 1 < end &&
            toks[k + 1].text == t)
            return true; // postfix ++/--
        if (t == "." && k + 2 < end && isMutatorCall(toks[k + 1].text) &&
            toks[k + 2].text == "(")
            return true; // mutating member call
        return false;
    };

    for (size_t j = begin; j < end; ++j) {
        if (!targets.count(toks[j].text))
            continue;
        // `other.field` / `other->field` is not our member.
        if (j > begin &&
            (toks[j - 1].text == "." ||
             (toks[j - 1].text == ">" && j > begin + 1 &&
              toks[j - 2].text == "-")))
            continue;
        // Prefix ++/--.
        if (j > begin + 1 &&
            ((toks[j - 1].text == "+" && toks[j - 2].text == "+") ||
             (toks[j - 1].text == "-" && toks[j - 2].text == "-"))) {
            hits.push_back(&toks[j]);
            continue;
        }
        size_t k = j + 1;
        if (k < end && toks[k].text == "[")
            k = skipPair(toks, k, "[", "]"); // indexed access
        if (opAt(k))
            hits.push_back(&toks[j]);
    }
}

/** Methods whose bodies the mutation rule audits. */
bool
isPredictPathMethod(const std::string &m)
{
    return m == "step" || m == "observe" || m == "predictUpdateSoa";
}

} // namespace

bool
derivesFrom(const SemaModel &model, const std::string &cls,
            const std::string &base)
{
    std::set<std::string> visited;
    std::vector<std::string> work;
    auto it = model.classes.find(cls);
    if (it == model.classes.end())
        return false;
    work.insert(work.end(), it->second.bases.begin(),
                it->second.bases.end());
    while (!work.empty()) {
        std::string b = work.back();
        work.pop_back();
        if (!visited.insert(b).second)
            continue;
        if (b == base)
            return true;
        auto bit = model.classes.find(b);
        if (bit != model.classes.end())
            work.insert(work.end(), bit->second.bases.begin(),
                        bit->second.bases.end());
    }
    return false;
}

bool
derivesFromPredictor(const SemaModel &model, const std::string &cls)
{
    return derivesFrom(model, cls, "Predictor");
}

SemaModel
buildSemaModel(const std::vector<FileScan> &scans)
{
    SemaModel model;

    // Pass 1: class definitions (any nesting level registers under its
    // own name — only Predictor-derived classes are ever audited, so
    // helper structs are inert entries).
    for (size_t s = 0; s < scans.size(); ++s) {
        const auto &toks = scans[s].tokens;
        for (size_t i = 0; i < toks.size(); ++i) {
            if (toks[i].text != "class" && toks[i].text != "struct")
                continue;
            SemaClass cls;
            size_t bodyBegin = 0;
            if (!parseClassHead(toks, i, cls, bodyBegin))
                continue;
            cls.rel = scans[s].rel;
            cls.scanIndex = s;
            size_t bodyEnd = skipBraces(toks, bodyBegin - 1) - 1;
            cls.bodyBegin = bodyBegin;
            cls.bodyEnd = bodyEnd;
            parseClassBody(toks, bodyBegin, bodyEnd, s, cls);
            model.classes.emplace(cls.name, std::move(cls));
        }
    }

    // Pass 2: out-of-line bodies. `Class :: method ( ... ) ... {` at
    // any depth binds a body; a `;` before the `{` is a declaration or
    // a qualified call, not a definition.
    for (size_t s = 0; s < scans.size(); ++s) {
        const auto &toks = scans[s].tokens;
        for (size_t i = 0; i + 3 < toks.size(); ++i) {
            if (toks[i + 1].text != "::" || toks[i + 3].text != "(")
                continue;
            if (!isIdentTok(toks[i].text) || !isIdentTok(toks[i + 2].text))
                continue;
            auto it = model.classes.find(toks[i].text);
            if (it == model.classes.end())
                continue;
            size_t afterParams = skipPair(toks, i + 3, "(", ")");
            // Walk to the body `{`, crossing a ctor's member-init list;
            // paren depth going negative means we were inside a larger
            // expression (e.g. a qualified call as a default argument).
            size_t j = afterParams;
            int parens = 0;
            bool isDef = false;
            for (; j < toks.size(); ++j) {
                const std::string &t = toks[j].text;
                if (t == "(") {
                    ++parens;
                } else if (t == ")") {
                    if (--parens < 0)
                        break;
                } else if (parens == 0) {
                    if (t == ";" || t == "}")
                        break;
                    if (t == "{") {
                        isDef = true;
                        break;
                    }
                }
            }
            if (!isDef)
                continue;
            size_t bodyEnd = skipBraces(toks, j) - 1;
            it->second.bodies.push_back(
                {toks[i + 2].text, s, j, bodyEnd, i});
            i = j; // resume after the header; bodies may nest lambdas
        }
    }

    return model;
}

namespace {

/** True when the class is subject to the state-contract audit. */
bool
inAuditScope(const SemaModel &model, const SemaClass &cls)
{
    return cls.rel.rfind("src/predictor/", 0) == 0 &&
        derivesFromPredictor(model, cls.name);
}

void
ruleStateDecl(const SemaClass &cls, std::vector<Finding> &out)
{
    if (!cls.hasStateFields) {
        out.push_back({cls.rel, cls.line, "state-decl",
                       "class '" + cls.name + "' derives from Predictor "
                       "but declares no COPRA_STATE_FIELDS(...): every "
                       "mutable member must be assigned to a state, "
                       "config, or transient list (DESIGN.md §14)",
                       1});
    }

    std::set<std::string> memberNames;
    for (const SemaField &f : cls.fields)
        memberNames.insert(f.name);
    for (const SemaListEntry &e : cls.listed) {
        if (!memberNames.count(e.name))
            out.push_back({cls.rel, e.line, "state-decl",
                           "field list of '" + cls.name + "' names '" +
                           e.name + "' but the class has no such "
                           "member (stale entry — remove it or fix the "
                           "spelling)",
                           e.col});
    }
}

void
ruleStateCoverage(const SemaClass &cls, std::vector<Finding> &out)
{
    if (!cls.hasStateFields)
        return; // state-decl already fired; don't double-report
    std::map<std::string, int> listedCount;
    for (const SemaListEntry &e : cls.listed)
        ++listedCount[e.name];
    for (const SemaField &f : cls.fields) {
        auto it = listedCount.find(f.name);
        int n = it == listedCount.end() ? 0 : it->second;
        if (n == 0)
            out.push_back({cls.rel, f.line, "state-coverage",
                           "member '" + f.name + "' of '" + cls.name +
                           "' appears in no COPRA_*_FIELDS list: "
                           "state-mutation needs every member "
                           "classified as state, config, or transient",
                           f.col});
        else if (n > 1)
            out.push_back({cls.rel, f.line, "state-coverage",
                           "member '" + f.name + "' of '" + cls.name +
                           "' appears in more than one COPRA_*_FIELDS "
                           "list: state, config, and transient are "
                           "mutually exclusive",
                           f.col});
    }
}

void
ruleStateMutation(const SemaClass &cls,
                  const std::vector<FileScan> &scans,
                  std::vector<Finding> &out)
{
    std::set<std::string> targets;
    if (cls.hasStateFields) {
        for (const SemaListEntry &e : cls.listed)
            if (e.list == FieldList::Config)
                targets.insert(e.name);
    } else {
        for (const SemaField &f : cls.fields)
            targets.insert(f.name);
    }
    if (targets.empty())
        return;

    for (const SemaBody &body : cls.bodies) {
        if (!isPredictPathMethod(body.method))
            continue;
        const auto &toks = scans[body.scanIndex].tokens;
        std::vector<const Token *> hits;
        findMutations(toks, body.beginTok + 1, body.endTok, targets,
                      hits);
        for (const Token *hit : hits) {
            std::string what = cls.hasStateFields
                ? "config-listed member '" + hit->text + "': config is "
                  "frozen geometry; if it adapts at runtime it belongs "
                  "in COPRA_STATE_FIELDS"
                : "member '" + hit->text + "' without a state "
                  "contract: adaptive state must be declared in "
                  "COPRA_STATE_FIELDS";
            out.push_back({scans[body.scanIndex].rel, hit->line,
                           "state-mutation",
                           body.method + "() of '" + cls.name +
                           "' mutates " + what,
                           hit->col});
        }
    }
}

} // namespace

std::vector<Finding>
runSemaRules(const SemaModel &model, const std::vector<FileScan> &scans)
{
    std::vector<Finding> raw;
    for (const auto &[name, cls] : model.classes) {
        if (!inAuditScope(model, cls))
            continue;
        ruleStateDecl(cls, raw);
        ruleStateCoverage(cls, raw);
        ruleStateMutation(cls, scans, raw);
    }

    // Suppressions come from the file each finding lands in (which for
    // state-mutation may be a .cc, not the class's header).
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

} // namespace copra::lint
