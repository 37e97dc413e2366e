#include "model/expr.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "model/expr_ops.hpp"

namespace ftbesst::model {

namespace {

using Nodes = std::vector<ExprNode>;

/// One past the last node of the subtree rooted at `i`: walk forward until
/// every operand slot opened since `i` has been filled.
std::size_t subtree_end(std::span<const ExprNode> nodes, std::size_t i) {
  std::size_t open = 1;
  while (open > 0) open += static_cast<std::size_t>(arity(nodes[i++].op)) - 1;
  return i;
}

/// Overwrite `out` with `nodes`, the subtree at `site` replaced by what
/// `fill` appends to `out`. Reuses `out`'s storage, so breeding into a
/// recycled Expr allocates nothing once it has held a tree as large.
template <typename Fill>
void splice_into(const Nodes& nodes, std::size_t site, Nodes& out, Fill fill) {
  out.assign(nodes.begin(), nodes.begin() + site);
  fill(out);
  out.insert(out.end(), nodes.begin() + subtree_end(nodes, site), nodes.end());
}

/// Append `e`'s nodes as an operand; an empty operand is the constant 0.
void append_operand(Nodes& out, const Expr& e) {
  if (e.empty())
    out.push_back(ExprNode{});
  else
    out.insert(out.end(), e.nodes().begin(), e.nodes().end());
}

void str_node(std::span<const ExprNode> nodes, std::size_t& pos,
              std::span<const std::string> names, std::ostringstream& os) {
  const ExprNode& n = nodes[pos++];
  const char* infix = nullptr;
  switch (n.op) {
    case Op::kConst:
      os << n.value;
      return;
    case Op::kVar:
      if (n.var < names.size())
        os << names[n.var];
      else
        os << "x" << n.var;
      return;
    case Op::kLog:
    case Op::kSqrt:
      os << (n.op == Op::kLog ? "log1p|" : "sqrt|");
      str_node(nodes, pos, names, os);
      os << "|";
      return;
    case Op::kAdd: infix = " + "; break;
    case Op::kSub: infix = " - "; break;
    case Op::kMul: infix = " * "; break;
    case Op::kDiv: infix = " / "; break;
  }
  os << "(";
  str_node(nodes, pos, names, os);
  os << infix;
  str_node(nodes, pos, names, os);
  os << ")";
}

/// Log-uniform constant in [1e-6, 100), signed positive (timing terms are
/// additive-positive; subtraction exists as an operator).
double random_constant(util::Rng& rng) {
  return std::pow(10.0, rng.uniform(-6.0, 2.0));
}

/// Grow a random subtree onto `out` in pre-order. Each node's op is drawn
/// before its operands, so the RNG is consumed in pre-order too.
void random_node(util::Rng& rng, std::size_t num_vars, int max_depth,
                 Nodes& out) {
  ExprNode node;
  const double roll = rng.uniform();
  const bool terminal = max_depth <= 1 || roll < 0.25;
  if (terminal) {
    if (num_vars > 0 && rng.uniform() < 0.6) {
      node.op = Op::kVar;
      node.var = static_cast<std::uint32_t>(rng.uniform_int(num_vars));
    } else {
      node.op = Op::kConst;
      node.value = random_constant(rng);
    }
    out.push_back(node);
    return;
  }
  if (roll < 0.40) {  // unary
    node.op = rng.uniform() < 0.5 ? Op::kLog : Op::kSqrt;
    out.push_back(node);
    random_node(rng, num_vars, max_depth - 1, out);
    return;
  }
  constexpr Op kBinary[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv};
  // Bias toward multiplication — performance models are mostly products of
  // powers of the parameters.
  const double pick = rng.uniform();
  node.op = pick < 0.4   ? Op::kMul
            : pick < 0.6 ? Op::kAdd
            : pick < 0.8 ? Op::kDiv
                         : kBinary[1];
  out.push_back(node);
  random_node(rng, num_vars, max_depth - 1, out);
  random_node(rng, num_vars, max_depth - 1, out);
}

}  // namespace

Expr Expr::constant(double v) {
  Expr e;
  e.nodes_.push_back(ExprNode{Op::kConst, 0, v});
  return e;
}

Expr Expr::variable(std::size_t index) {
  if (index > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("variable index exceeds 32 bits");
  Expr e;
  e.nodes_.push_back(
      ExprNode{Op::kVar, static_cast<std::uint32_t>(index), 0.0});
  return e;
}

Expr Expr::binary(Op op, Expr lhs, Expr rhs) {
  Expr e;
  e.nodes_.push_back(ExprNode{op, 0, 0.0});
  append_operand(e.nodes_, lhs);
  append_operand(e.nodes_, rhs);
  return e;
}

Expr Expr::unary(Op op, Expr operand) {
  Expr e;
  e.nodes_.push_back(ExprNode{op, 0, 0.0});
  append_operand(e.nodes_, operand);
  return e;
}

Expr Expr::random(util::Rng& rng, std::size_t num_vars, int max_depth) {
  Expr e;
  random_node(rng, num_vars, std::max(1, max_depth), e.nodes_);
  return e;
}

void Expr::crossover_into(const Expr& a, const Expr& b, util::Rng& rng,
                          std::size_t max_nodes, Expr& out) {
  assert(&out != &a && &out != &b);
  if (a.empty() || b.empty()) {
    out = a;
    return;
  }
  // Pre-order indices: the site is drawn from `a`, then the donor from `b`.
  const std::size_t site = rng.uniform_int(a.size());
  const std::size_t donor = rng.uniform_int(b.size());
  splice_into(a.nodes_, site, out.nodes_, [&](Nodes& nodes) {
    nodes.insert(nodes.end(), b.nodes_.begin() + donor,
                 b.nodes_.begin() + subtree_end(b.nodes_, donor));
  });
  if (out.size() > max_nodes) out = a;
}

void Expr::mutate_into(const Expr& e, util::Rng& rng, std::size_t num_vars,
                       int max_depth, std::size_t max_nodes, Expr& out) {
  assert(&out != &e);
  out.nodes_.clear();
  if (e.empty()) {
    random_node(rng, num_vars, std::max(1, max_depth), out.nodes_);
    return;
  }
  const std::size_t site = rng.uniform_int(e.size());
  const double roll = rng.uniform();
  const Op op = e.nodes_[site].op;
  const bool jitter = op == Op::kConst && roll < 0.6;
  if (!jitter && roll < 0.5) {
    // Regrow the subtree.
    splice_into(e.nodes_, site, out.nodes_, [&](Nodes& nodes) {
      random_node(rng, num_vars, std::max(1, max_depth - 1), nodes);
    });
  } else {
    out = e;
    ExprNode& n = out.nodes_[site];
    if (jitter) {
      // Jitter the constant multiplicatively (and occasionally re-draw).
      n.value = rng.uniform() < 0.15
                    ? random_constant(rng)
                    : n.value * std::exp(rng.normal(0.0, 0.3));
    } else if (is_binary(op)) {
      constexpr Op kBinary[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv};
      n.op = kBinary[rng.uniform_int(4)];
    } else if (is_unary(op)) {
      n.op = op == Op::kLog ? Op::kSqrt : Op::kLog;
    } else if (op == Op::kVar && num_vars > 0) {
      n.var = static_cast<std::uint32_t>(rng.uniform_int(num_vars));
    } else {
      n.value = random_constant(rng);
    }
  }
  if (out.size() > max_nodes) out = e;
}

Expr Expr::crossover(const Expr& a, const Expr& b, util::Rng& rng,
                     std::size_t max_nodes) {
  Expr child;
  crossover_into(a, b, rng, max_nodes, child);
  return child;
}

Expr Expr::mutate(const Expr& e, util::Rng& rng, std::size_t num_vars,
                  int max_depth, std::size_t max_nodes) {
  Expr child;
  mutate_into(e, rng, num_vars, max_depth, max_nodes, child);
  return child;
}

double Expr::eval(std::span<const double> vars) const {
  if (nodes_.empty()) return 0.0;
  // Reverse pre-order visits every operand before its operator, so one
  // value stack suffices; the lhs operand is on top when its operator is
  // reached. GP trees fit the on-stack buffer; larger ones spill to heap.
  constexpr std::size_t kStackSlots = 64;
  double local[kStackSlots];
  std::vector<double> spill;
  double* stack = local;
  if (nodes_.size() > kStackSlots) {
    spill.resize(nodes_.size());
    stack = spill.data();
  }
  double* top = stack;  // one past the top value
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    switch (it->op) {
      case Op::kConst: *top++ = it->value; break;
      case Op::kVar:
        *top++ = it->var < vars.size() ? vars[it->var] : 0.0;
        break;
      case Op::kAdd: --top; top[-1] = detail::op_add(top[0], top[-1]); break;
      case Op::kSub: --top; top[-1] = detail::op_sub(top[0], top[-1]); break;
      case Op::kMul: --top; top[-1] = detail::op_mul(top[0], top[-1]); break;
      case Op::kDiv: --top; top[-1] = detail::op_div(top[0], top[-1]); break;
      case Op::kLog: top[-1] = detail::op_log(top[-1]); break;
      case Op::kSqrt: top[-1] = detail::op_sqrt(top[-1]); break;
    }
  }
  const double v = stack[0];
  return std::isfinite(v) ? v : 0.0;
}

int Expr::depth() const {
  // Reverse pre-order again: each subtree's depth replaces its operands'.
  std::vector<int> stack;
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    int d = 0;
    for (int k = 0; k < arity(it->op); ++k) {
      d = std::max(d, stack.back());
      stack.pop_back();
    }
    stack.push_back(d + 1);
  }
  return stack.empty() ? 0 : stack.back();
}

std::string Expr::str(std::span<const std::string> names) const {
  if (nodes_.empty()) return "0";
  std::ostringstream os;
  std::size_t pos = 0;
  str_node(nodes_, pos, names, os);
  return os.str();
}

namespace {

const char* op_name(Op op) {
  switch (op) {
    case Op::kConst: return "const";
    case Op::kVar: return "var";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
    case Op::kLog: return "log";
    case Op::kSqrt: return "sqrt";
  }
  return "?";
}

/// Minimal recursive-descent S-expression parser, emitting pre-order.
class SexprParser {
 public:
  explicit SexprParser(const std::string& text) : text_(text) {}

  Nodes parse() {
    parse_node();
    skip_ws();
    if (pos_ != text_.size())
      throw std::invalid_argument("trailing input in expression: '" +
                                  text_.substr(pos_) + "'");
    return std::move(out_);
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(
                                      text_[pos_])))
      ++pos_;
  }
  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c)
      throw std::invalid_argument(std::string("expected '") + c + "' at " +
                                  std::to_string(pos_));
    ++pos_;
  }
  std::string token() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '(' && text_[pos_] != ')' &&
           !std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (start == pos_)
      throw std::invalid_argument("expected token at " + std::to_string(pos_));
    return text_.substr(start, pos_ - start);
  }

  // A malformed expression must surface as invalid_argument only (the
  // documented contract for every parser fed untrusted text). strtod
  // rather than stod: stod also rejects subnormal results, which to_sexpr
  // prints for subnormal constants. Overflow and underflow to zero are
  // still rejected, as stod rejected them.
  double number_token() {
    const std::string t = token();
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    if (end == t.c_str() ||
        (errno == ERANGE && (v == 0.0 || std::isinf(v))))
      throw std::invalid_argument("bad numeric token '" + t + "'");
    return v;
  }
  // stoul also throws std::out_of_range, so it is wrapped.
  std::uint32_t index_token() {
    const std::string t = token();
    unsigned long index = 0;
    try {
      index = std::stoul(t);
    } catch (const std::exception&) {
      throw std::invalid_argument("bad variable index '" + t + "'");
    }
    // The bytecode compiler packs variable indices into 16 bits; accepting
    // a wider index here would defer the failure to compile time with the
    // wrong exception type.
    if (index > std::numeric_limits<std::uint16_t>::max())
      throw std::invalid_argument("variable index out of range '" + t + "'");
    return static_cast<std::uint32_t>(index);
  }

  void parse_node() {
    // Recursion depth is attacker-controlled ("(log (log (log ..."); cap it
    // well above any fitted expression but below stack exhaustion.
    if (++depth_ > 256)
      throw std::invalid_argument("expression nesting too deep");
    expect('(');
    const std::string op = token();
    ExprNode node;
    int operands = 0;
    if (op == "const") {
      node.op = Op::kConst;
      node.value = number_token();
    } else if (op == "var") {
      node.op = Op::kVar;
      node.var = index_token();
    } else if (op == "log" || op == "sqrt") {
      node.op = op == "log" ? Op::kLog : Op::kSqrt;
      operands = 1;
    } else if (op == "add" || op == "sub" || op == "mul" || op == "div") {
      node.op = op == "add"   ? Op::kAdd
                : op == "sub" ? Op::kSub
                : op == "mul" ? Op::kMul
                              : Op::kDiv;
      operands = 2;
    } else {
      throw std::invalid_argument("unknown operator '" + op + "'");
    }
    out_.push_back(node);
    for (int k = 0; k < operands; ++k) parse_node();
    expect(')');
    --depth_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  Nodes out_;
};

}  // namespace

std::string Expr::to_sexpr() const {
  if (nodes_.empty()) return "(const 0)";
  std::ostringstream os;
  os.precision(17);  // max_digits10: every constant round-trips bit-exactly
  // Pre-order is the S-expression's own token order; only the closing
  // parentheses need tracking: `open` holds each pending operator's
  // unfilled operand slots.
  std::vector<int> open;
  for (const ExprNode& n : nodes_) {
    os << '(' << op_name(n.op) << ' ';
    if (n.op == Op::kConst) {
      os << n.value << ')';
    } else if (n.op == Op::kVar) {
      os << n.var << ')';
    } else {
      open.push_back(arity(n.op));
      continue;
    }
    // A leaf closed; close every operator it completes.
    while (!open.empty() && --open.back() == 0) {
      open.pop_back();
      os << ')';
    }
    if (!open.empty()) os << ' ';
  }
  return os.str();
}

Expr Expr::from_sexpr(const std::string& text) {
  Expr e;
  e.nodes_ = SexprParser(text).parse();
  return e;
}

namespace {

bool is_const(const Nodes& out, std::size_t i, std::size_t end, double value) {
  return end == i + 1 && out[i].op == Op::kConst && out[i].value == value;
}

/// Structural equality of the spans [a, b) and [b, end): same ops node for
/// node, constants equal by value (so 0 == -0, NaN != NaN), same variables.
bool spans_identical(const Nodes& out, std::size_t a, std::size_t b,
                     std::size_t end) {
  if (b - a != end - b) return false;
  for (std::size_t i = a, j = b; i < b; ++i, ++j) {
    const ExprNode& x = out[i];
    const ExprNode& y = out[j];
    if (x.op != y.op) return false;
    if (x.op == Op::kConst && x.value != y.value) return false;
    if (x.op == Op::kVar && x.var != y.var) return false;
  }
  return true;
}

/// Simplify the subtree at `nodes[pos]` bottom-up, appending the result to
/// `out` in pre-order. An operator lands at `at`, its simplified lhs at
/// [at + 1, mid), its rhs at [mid, end); each rule then rewrites that tail
/// of `out` in place: fold to one constant, or keep one operand's span.
void simplify_node(std::span<const ExprNode> nodes, std::size_t& pos,
                   Nodes& out) {
  const ExprNode n = nodes[pos++];
  const std::size_t at = out.size();
  out.push_back(n);
  if (arity(n.op) == 0) return;
  simplify_node(nodes, pos, out);
  const std::size_t mid = out.size();
  if (is_binary(n.op)) simplify_node(nodes, pos, out);
  const std::size_t end = out.size();

  const auto fold = [&](double v) {
    out.resize(at);
    out.push_back(ExprNode{Op::kConst, 0, v});
  };
  const auto keep_lhs = [&] {
    out.resize(mid);
    out.erase(out.begin() + at);
  };
  const auto keep_rhs = [&] { out.erase(out.begin() + at, out.begin() + mid); };

  // Constant folding: every operand a literal -> evaluate with the same
  // protected semantics as eval().
  const bool lc = mid == at + 2 && out[at + 1].op == Op::kConst;
  const bool rc = end == mid + 1 && out[mid].op == Op::kConst;
  const double l = lc ? out[at + 1].value : 0.0;
  const double r = rc ? out[mid].value : 0.0;
  const bool l0 = is_const(out, at + 1, mid, 0.0);
  const bool l1 = is_const(out, at + 1, mid, 1.0);
  const bool r0 = is_const(out, mid, end, 0.0);
  const bool r1 = is_const(out, mid, end, 1.0);
  switch (n.op) {
    case Op::kAdd:
      if (lc && rc) return fold(l + r);
      if (l0) return keep_rhs();
      if (r0) return keep_lhs();
      break;
    case Op::kSub:
      if (lc && rc) return fold(l - r);
      if (r0) return keep_lhs();
      if (spans_identical(out, at + 1, mid, end)) return fold(0.0);
      break;
    case Op::kMul:
      if (lc && rc) return fold(l * r);
      if (l1) return keep_rhs();
      if (r1) return keep_lhs();
      if (l0 || r0) return fold(0.0);
      break;
    case Op::kDiv:
      if (lc && rc) return fold(detail::op_div(l, r));
      if (r1) return keep_lhs();
      if (l0) return fold(0.0);
      break;
    case Op::kLog:
      if (lc) return fold(detail::op_log(l));
      break;
    case Op::kSqrt:
      if (lc) return fold(detail::op_sqrt(l));
      break;
    default:
      break;
  }
}

}  // namespace

Expr Expr::simplified() const {
  Expr e;
  e.nodes_.reserve(nodes_.size());
  std::size_t pos = 0;
  if (!nodes_.empty()) simplify_node(nodes_, pos, e.nodes_);
  return e;
}

}  // namespace ftbesst::model
