#include "workload/expr.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace copra::workload {

Pred
Pred::var(unsigned index)
{
    Pred p;
    p.nodes_.push_back({Op::Var, index, 0});
    return p;
}

Pred
Pred::notOf(const Pred &a)
{
    panicIf(a.empty(), "Pred::notOf on empty predicate");
    Pred p;
    uint32_t child = p.absorb(a);
    p.nodes_.push_back({Op::Not, child, 0});
    return p;
}

Pred
Pred::andOf(const Pred &a, const Pred &b)
{
    panicIf(a.empty() || b.empty(), "Pred::andOf on empty predicate");
    Pred p;
    uint32_t left = p.absorb(a);
    uint32_t right = p.absorb(b);
    p.nodes_.push_back({Op::And, left, right});
    return p;
}

Pred
Pred::orOf(const Pred &a, const Pred &b)
{
    panicIf(a.empty() || b.empty(), "Pred::orOf on empty predicate");
    Pred p;
    uint32_t left = p.absorb(a);
    uint32_t right = p.absorb(b);
    p.nodes_.push_back({Op::Or, left, right});
    return p;
}

uint32_t
Pred::absorb(const Pred &other)
{
    uint32_t base = static_cast<uint32_t>(nodes_.size());
    for (Node node : other.nodes_) {
        if (node.op != Op::Var) {
            node.a += base;
            if (node.op != Op::Not)
                node.b += base;
        }
        nodes_.push_back(node);
    }
    return static_cast<uint32_t>(nodes_.size()) - 1;
}

bool
Pred::evalNode(uint32_t idx, const std::vector<uint8_t> &vars) const
{
    const Node &node = nodes_[idx];
    switch (node.op) {
      case Op::Var:
        return vars[node.a] != 0;
      case Op::Not:
        return !evalNode(node.a, vars);
      case Op::And:
        return evalNode(node.a, vars) && evalNode(node.b, vars);
      case Op::Or:
        return evalNode(node.a, vars) || evalNode(node.b, vars);
    }
    return false;
}

bool
Pred::eval(const std::vector<uint8_t> &vars) const
{
    panicIf(nodes_.empty(), "Pred::eval on empty predicate");
    return evalNode(static_cast<uint32_t>(nodes_.size()) - 1, vars);
}

std::vector<unsigned>
Pred::variables() const
{
    std::vector<unsigned> out;
    for (const Node &node : nodes_)
        if (node.op == Op::Var)
            out.push_back(node.a);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

std::string
Pred::nodeString(uint32_t idx) const
{
    // Appended piece by piece: GCC 12 at -O3 reports a false
    // -Wrestrict on operator+ of a literal and a temporary string.
    const Node &node = nodes_[idx];
    std::string out;
    switch (node.op) {
      case Op::Var:
        out = "v";
        out += std::to_string(node.a);
        return out;
      case Op::Not:
        out = "!";
        out += nodeString(node.a);
        return out;
      case Op::And:
      case Op::Or:
        out = "(";
        out += nodeString(node.a);
        out += node.op == Op::And ? " & " : " | ";
        out += nodeString(node.b);
        out += ")";
        return out;
    }
    return "?";
}

std::string
Pred::toString() const
{
    if (nodes_.empty())
        return "<empty>";
    return nodeString(static_cast<uint32_t>(nodes_.size()) - 1);
}

} // namespace copra::workload
