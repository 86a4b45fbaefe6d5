#include "analyzer.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <utility>

namespace bmr_check {
namespace {

// ===================================================================
// Lexer
// ===================================================================

struct Token {
  enum Kind { kIdent, kNumber, kString, kPunct };
  Kind kind;
  std::string text;
  int line;
};

struct Inc {
  std::string target;  // "mr/types.h" (quoted project includes only)
  int line;
};

/// One lexed file plus everything the checks need to know about it.
struct Pf {
  std::string path;  // "src/mr/engine.cc"
  std::string dir;   // "mr" ("" if not src/<dir>/...)
  std::string stem;  // "engine"
  bool is_header = false;
  std::vector<Token> toks;
  std::vector<Inc> includes;
  std::map<int, std::string> comments;  // line -> text
};

bool IdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Lexes C++ enough for structural analysis: comments captured aside,
/// strings/chars opaque, preprocessor lines reduced to their includes
/// and `#define NAME` tokens, everything else as ident/number/punct.
void Lex(const std::string& text, Pf* pf) {
  size_t i = 0, n = text.size();
  int line = 1;
  bool at_line_start = true;
  auto add_comment = [&](int at, const std::string& s) {
    auto& slot = pf->comments[at];
    if (!slot.empty()) slot += ' ';
    slot += s;
  };
  // Skips to the end of a (possibly continued) preprocessor line.
  auto skip_pp_line = [&]() {
    while (i < n) {
      if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
        i += 2;
        ++line;
        continue;
      }
      if (text[i] == '\n') return;  // leave newline for the main loop
      ++i;
    }
  };
  while (i < n) {
    char c = text[i];
    if (c == '\n') {
      ++line;
      at_line_start = true;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      size_t j = i + 2;
      while (j < n && text[j] != '\n') ++j;
      add_comment(line, text.substr(i + 2, j - i - 2));
      i = j;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      size_t j = i + 2;
      int start = line;
      while (j + 1 < n && !(text[j] == '*' && text[j + 1] == '/')) {
        if (text[j] == '\n') ++line;
        ++j;
      }
      add_comment(start, text.substr(i + 2, j - i - 2));
      i = (j + 1 < n) ? j + 2 : n;
      at_line_start = false;
      continue;
    }
    if (c == '#' && at_line_start) {
      ++i;
      while (i < n && (text[i] == ' ' || text[i] == '\t')) ++i;
      size_t w = i;
      while (w < n && IdentChar(text[w])) ++w;
      std::string directive = text.substr(i, w - i);
      i = w;
      if (directive == "include") {
        while (i < n && text[i] != '"' && text[i] != '<' && text[i] != '\n')
          ++i;
        if (i < n && text[i] == '"') {
          size_t e = text.find('"', i + 1);
          if (e != std::string::npos) {
            pf->includes.push_back({text.substr(i + 1, e - i - 1), line});
            i = e + 1;
          }
        }
      } else if (directive == "define") {
        while (i < n && (text[i] == ' ' || text[i] == '\t')) ++i;
        size_t e = i;
        while (e < n && IdentChar(text[e])) ++e;
        if (e > i) {
          pf->toks.push_back({Token::kPunct, "#", line});
          pf->toks.push_back({Token::kIdent, "define", line});
          pf->toks.push_back({Token::kIdent, text.substr(i, e - i), line});
        }
        i = e;
      }
      skip_pp_line();
      at_line_start = false;
      continue;
    }
    at_line_start = false;
    if (c == '"' || (c == 'R' && i + 1 < n && text[i + 1] == '"' &&
                     (pf->toks.empty() || pf->toks.back().text != "R"))) {
      // String literal (raw strings handled below via the R branch).
      if (c == 'R') {
        // R"delim( ... )delim"
        size_t p = i + 2;
        size_t open = text.find('(', p);
        if (open == std::string::npos) {
          ++i;
          continue;
        }
        std::string delim = text.substr(p, open - p);
        std::string close = ")" + delim + "\"";
        size_t e = text.find(close, open + 1);
        size_t end = (e == std::string::npos) ? n : e + close.size();
        std::string body = text.substr(open + 1, (e == std::string::npos ? n : e) - open - 1);
        pf->toks.push_back({Token::kString, body, line});
        for (size_t k = i; k < end && k < n; ++k)
          if (text[k] == '\n') ++line;
        i = end;
        continue;
      }
      size_t j = i + 1;
      std::string body;
      while (j < n && text[j] != '"') {
        if (text[j] == '\\' && j + 1 < n) {
          body += text[j];
          body += text[j + 1];
          j += 2;
          continue;
        }
        if (text[j] == '\n') ++line;  // unterminated; be forgiving
        body += text[j];
        ++j;
      }
      pf->toks.push_back({Token::kString, body, line});
      i = j + 1;
      continue;
    }
    if (c == '\'') {
      size_t j = i + 1;
      while (j < n && text[j] != '\'') {
        if (text[j] == '\\' && j + 1 < n) {
          j += 2;
          continue;
        }
        ++j;
      }
      pf->toks.push_back({Token::kNumber, text.substr(i, j - i + 1), line});
      i = j + 1;
      continue;
    }
    if (IdentStart(c)) {
      size_t j = i;
      while (j < n && IdentChar(text[j])) ++j;
      pf->toks.push_back({Token::kIdent, text.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      while (j < n && (IdentChar(text[j]) || text[j] == '.' || text[j] == '\'' ||
                       ((text[j] == '+' || text[j] == '-') && j > i &&
                        (text[j - 1] == 'e' || text[j - 1] == 'E' ||
                         text[j - 1] == 'p' || text[j - 1] == 'P'))))
        ++j;
      pf->toks.push_back({Token::kNumber, text.substr(i, j - i), line});
      i = j;
      continue;
    }
    pf->toks.push_back({Token::kPunct, std::string(1, c), line});
    ++i;
  }
}

const std::set<std::string>& Keywords() {
  static const std::set<std::string> kw = {
      "alignas", "alignof", "auto", "bool", "break", "case", "catch", "char",
      "class", "const", "constexpr", "continue", "decltype", "default",
      "delete", "do", "double", "else", "enum", "explicit", "extern", "false",
      "final", "float", "for", "friend", "goto", "if", "inline", "int",
      "long", "mutable", "namespace", "new", "noexcept", "nullptr",
      "operator", "override", "private", "protected", "public", "return",
      "short", "signed", "sizeof", "static", "struct", "switch", "template",
      "this", "throw", "true", "try", "typedef", "typename", "union",
      "unsigned", "using", "virtual", "void", "volatile", "while"};
  return kw;
}

// ===================================================================
// Scope annotation: for every token, is it at namespace/type scope
// (where declarations live) or inside a function body, and which class
// "owns" the code here (for resolving unqualified member names).
// ===================================================================

struct Scope {
  enum Kind { kNamespace, kType, kOpaque };
  Kind kind;
  std::string type_name;  // innermost enclosing type
  std::string owner;      // class whose members are in unqualified scope
  bool transparent;       // every enclosing brace is namespace/type
  int parent;
};

struct ScopeAnn {
  std::vector<Scope> scopes;
  std::vector<int> of;  // per token: index into scopes
};

/// Matches the trailing `Qualifier::Name(` (or `Qualifier::~Name(`)
/// pattern inside a statement head; returns the qualifier or "".
std::string OwnerFromHead(const std::vector<Token>& t, size_t lo, size_t hi) {
  std::string owner;
  for (size_t p = lo; p + 3 < hi; ++p) {
    if (t[p].text != ":" || t[p + 1].text != ":") continue;
    if (p == lo || t[p - 1].kind != Token::kIdent) continue;
    size_t name = p + 2;
    if (name < hi && t[name].text == "~") ++name;
    if (name + 1 < hi && t[name].kind == Token::kIdent &&
        t[name + 1].text == "(")
      owner = t[p - 1].text;
  }
  return owner;
}

ScopeAnn AnnotateScopes(const std::vector<Token>& t) {
  ScopeAnn ann;
  ann.scopes.push_back({Scope::kNamespace, "", "", true, -1});
  ann.of.resize(t.size(), 0);
  int cur = 0;
  std::vector<int> stack{0};
  for (size_t i = 0; i < t.size(); ++i) {
    ann.of[i] = cur;
    if (t[i].text == "{" && t[i].kind == Token::kPunct) {
      // Statement head: tokens since the previous ; { or }.
      size_t lo = i;
      while (lo > 0) {
        const std::string& s = t[lo - 1].text;
        if (t[lo - 1].kind == Token::kPunct &&
            (s == ";" || s == "{" || s == "}"))
          break;
        --lo;
      }
      const Scope& enc = ann.scopes[cur];
      Scope sc;
      sc.parent = cur;
      bool is_ns = false, is_type = false;
      size_t kw_at = 0;
      for (size_t p = lo; p < i; ++p) {
        if (t[p].kind != Token::kIdent) continue;
        if (t[p].text == "namespace") {
          is_ns = true;
          break;
        }
        if (t[p].text == "class" || t[p].text == "struct" ||
            t[p].text == "union" || t[p].text == "enum") {
          is_type = true;
          kw_at = p;
          break;
        }
      }
      if (is_ns) {
        sc.kind = Scope::kNamespace;
        sc.type_name = "";
        sc.owner = "";
        sc.transparent = enc.transparent;
      } else if (is_type) {
        sc.kind = Scope::kType;
        std::string name;
        for (size_t p = kw_at + 1; p < i; ++p) {
          if (t[p].kind == Token::kPunct && t[p].text == "[") continue;
          if (t[p].kind == Token::kPunct && t[p].text == "]") continue;
          if (t[p].kind != Token::kIdent) break;
          if (t[p].text == "class" || t[p].text == "struct") continue;
          if (p + 1 < i && t[p + 1].text == "(") {
            // Macro attribute, e.g. `class BMR_CAPABILITY("mutex") Mutex`.
            int depth = 0;
            size_t q = p + 1;
            for (; q < i; ++q) {
              if (t[q].text == "(") ++depth;
              if (t[q].text == ")" && --depth == 0) break;
            }
            p = q;
            continue;
          }
          name = t[p].text;
          break;
        }
        sc.type_name = name;
        sc.owner = name;
        sc.transparent = enc.transparent;
      } else {
        sc.kind = Scope::kOpaque;
        sc.type_name = enc.type_name;
        std::string qual = OwnerFromHead(t, lo, i);
        sc.owner = qual.empty() ? enc.owner : qual;
        sc.transparent = false;
      }
      ann.scopes.push_back(sc);
      cur = static_cast<int>(ann.scopes.size()) - 1;
      stack.push_back(cur);
    } else if (t[i].text == "}" && t[i].kind == Token::kPunct) {
      if (stack.size() > 1) {
        stack.pop_back();
        cur = stack.back();
      }
      ann.of[i] = cur;
    }
  }
  return ann;
}

// ===================================================================
// Shared helpers
// ===================================================================

size_t MatchForward(const std::vector<Token>& t, size_t open,
                    const char* o = "(", const char* c = ")") {
  int depth = 0;
  for (size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != Token::kPunct) continue;
    if (t[i].text == o) ++depth;
    if (t[i].text == c && --depth == 0) return i;
  }
  return t.size();
}

size_t MatchBackward(const std::vector<Token>& t, size_t close,
                     const char* o = "(", const char* c = ")") {
  int depth = 0;
  for (size_t i = close + 1; i-- > 0;) {
    if (t[i].kind != Token::kPunct) continue;
    if (t[i].text == c) ++depth;
    if (t[i].text == o && --depth == 0) return i;
  }
  return 0;
}

struct Ctx {
  std::vector<Pf> files;
  std::map<std::string, size_t> by_path;
  std::vector<Finding> findings;
  std::set<std::string> enabled;

  bool On(const std::string& check) const {
    return enabled.empty() || enabled.count(check) > 0;
  }

  const Pf* Paired(const Pf& f) const {
    if (f.is_header) return nullptr;
    std::string h = f.path.substr(0, f.path.size() - 3) + ".h";
    auto it = by_path.find(h);
    return it == by_path.end() ? nullptr : &files[it->second];
  }

  /// True (and swallows the finding) when an inline
  /// `// bmr_check:allow(<check>) reason` annotation covers `line`.
  bool Suppressed(const Pf& f, int line, const std::string& check) {
    for (int l : {line, line - 1}) {
      auto it = f.comments.find(l);
      if (it == f.comments.end()) continue;
      std::string needle = "bmr_check:allow(" + check + ")";
      size_t at = it->second.find(needle);
      if (at == std::string::npos) continue;
      std::string reason = it->second.substr(at + needle.size());
      size_t s = reason.find_first_not_of(" \t");
      if (s != std::string::npos) return true;
    }
    return false;
  }

  void Report(const std::string& check, const Pf& f, int line,
              std::string message) {
    if (Suppressed(f, line, check)) return;
    findings.push_back({check, f.path, line, std::move(message)});
  }
  void ReportGlobal(const std::string& check, std::string message) {
    findings.push_back({check, "(global)", 0, std::move(message)});
  }
};

/// Flags allow() annotations that carry no reason: a suppression with
/// no justification is itself a finding (any check's id).
void CheckAllowAnnotations(Ctx* ctx) {
  for (const Pf& f : ctx->files) {
    for (const auto& [line, text] : f.comments) {
      size_t at = text.find("bmr_check:allow(");
      if (at == std::string::npos) continue;
      size_t close = text.find(')', at);
      if (close == std::string::npos) continue;
      std::string rest = text.substr(close + 1);
      if (rest.find_first_not_of(" \t") == std::string::npos) {
        ctx->findings.push_back(
            {"allow", f.path, line,
             "bmr_check:allow() without a reason — every suppression "
             "must say why the violation is acceptable"});
      }
    }
  }
}

// ===================================================================
// Check: lock-order
// ===================================================================

struct LockDecl {
  std::string var;
  std::string lock;
  std::string cls;  // enclosing class ("" at namespace scope)
  const Pf* file;
  int line;
};

struct EdgeProv {
  std::string file;
  int line;
  bool annotated;  // true: BMR_ACQUIRED_AFTER; false: observed nesting
};

void CheckLockOrder(Ctx* ctx) {
  const std::string kCheck = "lock-order";
  std::vector<LockDecl> decls;
  // held -> acquiring, with provenance.
  std::map<std::pair<std::string, std::string>, EdgeProv> edges;

  // Pass 1: OrderedMutex declarations + BMR_ACQUIRED_AFTER annotations.
  for (const Pf& f : ctx->files) {
    ScopeAnn ann = AnnotateScopes(f.toks);
    const auto& t = f.toks;
    std::vector<std::string> pending;  // names from BMR_ACQUIRED_AFTER
    int pending_line = 0;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::kIdent) continue;
      if (t[i].text == "BMR_ACQUIRED_AFTER" && i + 1 < t.size() &&
          t[i + 1].text == "(") {
        size_t close = MatchForward(t, i + 1);
        std::vector<std::string> names;
        for (size_t p = i + 2; p < close; ++p)
          if (t[p].kind == Token::kString) names.push_back(t[p].text);
        if (!names.empty()) {
          pending = names;
          pending_line = t[i].line;
        }
        i = close;
        continue;
      }
      if (t[i].text != "OrderedMutex") continue;
      if (i + 3 >= t.size()) continue;
      if (t[i + 1].kind != Token::kIdent ||
          Keywords().count(t[i + 1].text) > 0)
        continue;
      const std::string& var = t[i + 1].text;
      if (t[i + 2].text != "{" && t[i + 2].text != "(") continue;
      if (t[i + 3].kind != Token::kString) continue;
      const std::string& lock = t[i + 3].text;
      decls.push_back({var, lock, ann.scopes[ann.of[i]].type_name, &f,
                       t[i].line});
      for (const std::string& after : pending) {
        auto key = std::make_pair(after, lock);
        if (edges.find(key) == edges.end())
          edges[key] = {f.path, pending_line, true};
      }
      pending.clear();
    }
    if (!pending.empty()) {
      ctx->Report(kCheck, f, pending_line,
                  "BMR_ACQUIRED_AFTER annotation is not followed by an "
                  "OrderedMutex declaration in this file");
    }
  }

  // Lookup tables for resolving a mutex variable name at a use site.
  std::map<std::string, std::vector<const LockDecl*>> by_var;
  for (const LockDecl& d : decls) by_var[d.var].push_back(&d);

  auto resolve = [&](const Pf& f, const std::string& owner,
                     const std::string& var,
                     bool single_ident) -> std::string {
    auto it = by_var.find(var);
    if (it == by_var.end()) return "";
    const std::vector<const LockDecl*>& cands = it->second;
    if (single_ident && !owner.empty()) {
      const Pf* paired = ctx->Paired(f);
      for (const LockDecl* d : cands) {
        if (d->cls == owner && (d->file == &f || d->file == paired))
          return d->lock;
      }
      // The owner class may be declared in any included header.
      for (const LockDecl* d : cands)
        if (d->cls == owner) return d->lock;
    }
    std::set<std::string> names;
    for (const LockDecl* d : cands) names.insert(d->lock);
    if (names.size() == 1) return *names.begin();
    return "";  // ambiguous — don't guess
  };

  // Pass 2: MutexLock nesting inside each file.
  for (const Pf& f : ctx->files) {
    ScopeAnn ann = AnnotateScopes(f.toks);
    const auto& t = f.toks;
    struct Held {
      int depth;
      std::string lock;  // "" when not an OrderedMutex
      std::string guard;
      int line;
    };
    std::vector<Held> held;
    int depth = 0;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind == Token::kPunct) {
        if (t[i].text == "{") ++depth;
        if (t[i].text == "}") {
          --depth;
          while (!held.empty() && held.back().depth > depth)
            held.pop_back();
        }
        continue;
      }
      if (t[i].kind != Token::kIdent) continue;
      // guard.Unlock() releases early.
      if (i + 3 < t.size() && t[i + 1].text == "." &&
          t[i + 2].text == "Unlock" && t[i + 3].text == "(") {
        for (size_t h = held.size(); h-- > 0;) {
          if (held[h].guard == t[i].text) {
            held.erase(held.begin() + h);
            break;
          }
        }
        continue;
      }
      if (t[i].text != "MutexLock") continue;
      size_t j = i + 1;
      if (j < t.size() && t[j].text == "<")  // MutexLock<T> guard(...)
        j = MatchForward(t, j, "<", ">") + 1;
      if (j + 1 >= t.size() || t[j].kind != Token::kIdent ||
          t[j + 1].text != "(")
        continue;
      const std::string& guard = t[j].text;
      size_t close = MatchForward(t, j + 1);
      std::string var;
      size_t idents = 0;
      for (size_t p = j + 2; p < close; ++p) {
        if (t[p].kind == Token::kIdent && Keywords().count(t[p].text) == 0) {
          var = t[p].text;
          ++idents;
        }
      }
      if (var.empty()) continue;
      std::string lock =
          resolve(f, ann.scopes[ann.of[i]].owner, var, idents == 1);
      for (const Held& h : held) {
        if (h.lock.empty() || lock.empty()) continue;
        if (h.lock == lock) {
          ctx->Report(kCheck, f, t[i].line,
                      "lock '" + lock + "' acquired while already held "
                      "(recursive acquisition, guard at line " +
                          std::to_string(h.line) + ")");
          continue;
        }
        auto key = std::make_pair(h.lock, lock);
        if (edges.find(key) == edges.end())
          edges[key] = {f.path, t[i].line, false};
      }
      held.push_back({depth, lock, guard, t[i].line});
      i = close;
    }
  }

  // Cycle detection over the combined graph.
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [key, prov] : edges) adj[key.first].push_back(key.second);
  std::set<std::vector<std::string>> reported;
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::function<void(const std::string&)> dfs = [&](const std::string& u) {
    color[u] = 1;
    stack.push_back(u);
    for (const std::string& v : adj[u]) {
      if (color[v] == 1) {
        auto at = std::find(stack.begin(), stack.end(), v);
        std::vector<std::string> cycle(at, stack.end());
        auto mn = std::min_element(cycle.begin(), cycle.end());
        std::rotate(cycle.begin(), mn, cycle.end());
        if (reported.insert(cycle).second) {
          std::ostringstream msg;
          msg << "lock-order cycle: ";
          for (const std::string& c : cycle) msg << c << " -> ";
          msg << cycle.front() << "  [";
          for (size_t k = 0; k < cycle.size(); ++k) {
            const std::string& a = cycle[k];
            const std::string& b = cycle[(k + 1) % cycle.size()];
            const EdgeProv& p = edges.at({a, b});
            if (k) msg << "; ";
            msg << a << "->" << b << " "
                << (p.annotated ? "annotated at " : "nested at ") << p.file
                << ":" << p.line;
          }
          msg << "]";
          ctx->ReportGlobal(kCheck, msg.str());
        }
      } else if (color[v] == 0) {
        dfs(v);
      }
    }
    stack.pop_back();
    color[u] = 2;
  };
  for (const auto& [u, _] : adj)
    if (color[u] == 0) dfs(u);
}

// ===================================================================
// Check: layering (direction, include cycles, unused includes)
// ===================================================================

const std::map<std::string, std::set<std::string>>& AllowedDeps() {
  static const std::map<std::string, std::set<std::string>> allowed = {
      {"common", {"common"}},
      {"concurrency", {"concurrency", "common"}},
      {"obs", {"obs", "common", "concurrency"}},
      {"net", {"net", "common", "concurrency", "faults", "obs"}},
      {"sim", {"sim"}},
      {"cluster", {"cluster", "common"}},
      {"dfs", {"dfs", "common", "net"}},
      {"core", {"core", "common", "faults", "obs"}},
      {"faults", {"faults", "common"}},
      {"mr",
       {"mr", "cluster", "common", "concurrency", "core", "dfs", "faults",
        "net", "obs"}},
      {"workload", {"workload", "common", "mr"}},
      {"simmr", {"simmr", "cluster", "common", "core", "mr", "sim"}},
      {"apps", {"apps", "common", "core", "mr"}},
      {"service",
       {"service", "common", "concurrency", "mr", "obs", "cluster", "core",
        "dfs", "faults", "net"}},
  };
  return allowed;
}

/// Identifiers a header offers to its includers: type names, usings,
/// macros, and namespace/class-scope function and variable names.
std::set<std::string> ProvidedIdents(const Pf& f) {
  std::set<std::string> out;
  ScopeAnn ann = AnnotateScopes(f.toks);
  const auto& t = f.toks;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::kIdent) continue;
    // #define NAME
    if (t[i].text == "define" && i > 0 && t[i - 1].text == "#" &&
        i + 1 < t.size()) {
      out.insert(t[i + 1].text);
      ++i;
      continue;
    }
    if (!ann.scopes[ann.of[i]].transparent) continue;
    const std::string& s = t[i].text;
    if (s == "class" || s == "struct" || s == "union" || s == "enum") {
      for (size_t p = i + 1; p < t.size(); ++p) {
        if (t[p].kind == Token::kPunct &&
            (t[p].text == "[" || t[p].text == "]"))
          continue;
        if (t[p].kind != Token::kIdent) break;
        if (t[p].text == "class" || t[p].text == "struct") continue;
        if (p + 1 < t.size() && t[p + 1].text == "(") {
          p = MatchForward(t, p + 1);
          continue;
        }
        out.insert(t[p].text);
        break;
      }
      continue;
    }
    if (s == "using" && i + 2 < t.size() && t[i + 1].kind == Token::kIdent &&
        t[i + 2].text == "=") {
      out.insert(t[i + 1].text);
      continue;
    }
    if (Keywords().count(s) > 0) continue;
    if (i == 0) continue;
    const Token& prev = t[i - 1];
    bool type_tail = (prev.kind == Token::kIdent &&
                      Keywords().count(prev.text) == 0) ||
                     prev.text == ">" || prev.text == "*" || prev.text == "&" ||
                     (prev.kind == Token::kIdent &&
                      (prev.text == "bool" || prev.text == "void" ||
                       prev.text == "int" || prev.text == "double" ||
                       prev.text == "char" || prev.text == "auto"));
    if (!type_tail) continue;
    if (i + 1 >= t.size()) continue;
    const std::string& next = t[i + 1].text;
    if (next == "(" || next == "=" || next == ";" || next == "{")
      out.insert(s);
  }
  return out;
}

void CheckLayering(Ctx* ctx) {
  const std::string kCheck = "layering";
  static const std::set<std::string> kCoreExceptions = {"mr/types.h",
                                                        "mr/emitter.h"};
  // Headers private to their own directory, each paired with the
  // header every other directory includes instead; "<dir>/*" makes all
  // of the directory's headers private but that one.
  static const std::vector<std::pair<std::string, std::string>>
      kPrivateHeaders = {
          // The injector's event-matching machinery: hook sites use
          // the public FaultInjector surface.
          {"faults/internal.h", "faults/fault_injector.h"},
          // Concrete transports and wire internals: code above the
          // wire must not observe which transport it runs on.
          {"net/*", "net/transport.h"},
      };
  // -- direction violations -----------------------------------------
  for (const Pf& f : ctx->files) {
    if (f.dir.empty()) continue;
    auto allowed_it = AllowedDeps().find(f.dir);
    if (allowed_it == AllowedDeps().end()) {
      ctx->Report(kCheck, f, 1,
                  "directory src/" + f.dir +
                      " is not in the layering DAG — add it to "
                      "AllowedDeps() in tools/bmr_check/analyzer.cc");
      continue;
    }
    for (const Inc& inc : f.includes) {
      size_t slash = inc.target.find('/');
      if (slash == std::string::npos) continue;
      std::string target_dir = inc.target.substr(0, slash);
      for (const auto& [priv, pub] : kPrivateHeaders) {
        if (f.dir == target_dir || inc.target == pub) continue;
        if (priv == inc.target || priv == target_dir + "/*") {
          ctx->Report(kCheck, f, inc.line,
                      "includes \"" + inc.target + "\", private to src/" +
                          target_dir + "/ — include \"" + pub +
                          "\" instead");
        }
      }
      if (AllowedDeps().find(target_dir) == AllowedDeps().end()) continue;
      if (allowed_it->second.count(target_dir) > 0) continue;
      if (f.dir == "core" && kCoreExceptions.count(inc.target) > 0) continue;
      std::ostringstream allowed;
      for (const std::string& a : allowed_it->second) allowed << a << " ";
      ctx->Report(kCheck, f, inc.line,
                  "includes \"" + inc.target + "\" but src/" + f.dir +
                      " may only include: " + allowed.str());
    }
  }

  // -- include cycles (file-level graph over project includes) -------
  std::map<std::string, std::vector<std::pair<std::string, int>>> g;
  for (const Pf& f : ctx->files) {
    for (const Inc& inc : f.includes) {
      std::string target = "src/" + inc.target;
      if (ctx->by_path.count(target) > 0)
        g[f.path].push_back({target, inc.line});
    }
  }
  {
    std::map<std::string, int> color;
    std::vector<std::string> stack;
    std::set<std::vector<std::string>> reported;
    std::function<void(const std::string&)> dfs = [&](const std::string& u) {
      color[u] = 1;
      stack.push_back(u);
      for (const auto& [v, line] : g[u]) {
        if (color[v] == 1) {
          auto at = std::find(stack.begin(), stack.end(), v);
          std::vector<std::string> cycle(at, stack.end());
          auto mn = std::min_element(cycle.begin(), cycle.end());
          std::rotate(cycle.begin(), mn, cycle.end());
          if (reported.insert(cycle).second) {
            std::ostringstream msg;
            msg << "include cycle: ";
            for (const std::string& c : cycle) msg << c << " -> ";
            msg << cycle.front();
            ctx->ReportGlobal(kCheck, msg.str());
          }
        } else if (color[v] == 0) {
          dfs(v);
        }
      }
      stack.pop_back();
      color[u] = 2;
    };
    for (const auto& [u, _] : g)
      if (color[u] == 0) dfs(u);
  }

  // -- unused includes ----------------------------------------------
  std::map<std::string, std::set<std::string>> provided_cache;
  for (const Pf& f : ctx->files) {
    std::set<std::string> used;
    for (const Token& tok : f.toks)
      if (tok.kind == Token::kIdent) used.insert(tok.text);
    for (const Inc& inc : f.includes) {
      std::string target = "src/" + inc.target;
      auto it = ctx->by_path.find(target);
      if (it == ctx->by_path.end()) continue;
      const Pf& h = ctx->files[it->second];
      if (!f.is_header && h.dir == f.dir && h.stem == f.stem)
        continue;  // paired header: always legitimate
      auto cached = provided_cache.find(target);
      if (cached == provided_cache.end())
        cached = provided_cache.emplace(target, ProvidedIdents(h)).first;
      const std::set<std::string>& provided = cached->second;
      if (provided.empty()) continue;  // nothing to judge by
      bool referenced = false;
      for (const std::string& p : provided) {
        if (used.count(p) > 0) {
          referenced = true;
          break;
        }
      }
      if (!referenced) {
        ctx->Report(kCheck, f, inc.line,
                    "includes \"" + inc.target +
                        "\" but references none of its declarations — "
                        "stale include (or a transitive-include "
                        "dependency that should be direct)");
      }
    }
  }
}

// ===================================================================
// Checks: status-discard (.cc) and nodiscard (headers)
// ===================================================================

struct StatusDecls {
  std::set<std::string> returners;    // names of Status/StatusOr returners
  std::set<std::string> non_status;   // same-name decls with other returns
};

bool TypeKeyword(const std::string& s) {
  return s == "void" || s == "bool" || s == "int" || s == "unsigned" ||
         s == "long" || s == "short" || s == "float" || s == "double" ||
         s == "char" || s == "auto" || s == "size_t" || s == "uint64_t" ||
         s == "uint32_t" || s == "int64_t" || s == "int32_t";
}

/// Collects declarations `T Name(` with T not Status/StatusOr, at
/// namespace/type scope (no statements live there, so the shape really
/// is a declaration).  A name in both sets is ambiguous and the
/// status-discard check skips it rather than guessing the callee.
void ScanNonStatusDecls(const Pf& f, StatusDecls* out) {
  ScopeAnn ann = AnnotateScopes(f.toks);
  const auto& t = f.toks;
  for (size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || t[i + 1].text != "(") continue;
    if (Keywords().count(t[i].text) > 0) continue;
    if (!ann.scopes[ann.of[i]].transparent) continue;
    // Walk back over an optional Qual:: chain to the return type slot.
    size_t q = i;
    while (q >= 3 && t[q - 1].text == ":" && t[q - 2].text == ":" &&
           t[q - 3].kind == Token::kIdent)
      q -= 3;
    if (q == 0) continue;
    const Token& ty = t[q - 1];
    bool type_tail =
        ty.text == ">" || ty.text == "*" || ty.text == "&" ||
        (ty.kind == Token::kIdent &&
         (TypeKeyword(ty.text) || Keywords().count(ty.text) == 0));
    if (!type_tail) continue;
    if (ty.text == "Status" || ty.text == "StatusOr") continue;
    // `>` must close a template (e.g. std::vector<T> f()), and the
    // template head must not be StatusOr.
    if (ty.text == ">") {
      size_t open = MatchBackward(t, q - 1, "<", ">");
      if (open == 0 || t[open - 1].text == "StatusOr") continue;
    }
    out->non_status.insert(t[i].text);
  }
}

/// Scans declarations shaped `Status Name(` / `StatusOr<T> Name(`
/// (multi-line friendly: the lexer already joined lines).  Also drives
/// the nodiscard check when `f` is a header.
void ScanStatusDecls(Ctx* ctx, const Pf& f, StatusDecls* out,
                     bool check_nodiscard) {
  const std::string kCheck = "nodiscard";
  ScopeAnn ann = AnnotateScopes(f.toks);
  const auto& t = f.toks;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::kIdent) continue;
    if (t[i].text != "Status" && t[i].text != "StatusOr") continue;
    size_t j = i + 1;
    if (t[i].text == "StatusOr") {
      if (j >= t.size() || t[j].text != "<") continue;
      j = MatchForward(t, j, "<", ">") + 1;
    }
    if (j >= t.size()) continue;
    if (t[j].text == "*" || t[j].text == "&") continue;  // not by-value
    // Optional qualified name: Name or Qual::Name — record the last
    // ident before '('.
    size_t name_at = 0;
    size_t p = j;
    while (p + 1 < t.size() && t[p].kind == Token::kIdent &&
           Keywords().count(t[p].text) == 0) {
      if (t[p + 1].text == "(") {
        name_at = p;
        break;
      }
      if (p + 2 < t.size() && t[p + 1].text == ":" && t[p + 2].text == ":")
        p += 3;
      else
        break;
    }
    if (name_at == 0) continue;
    bool qualified = name_at != j;
    // Reject call-ish contexts: `Status` here must start a declaration,
    // i.e. the preceding token is not part of an expression.
    if (i > 0) {
      const std::string& prev = t[i - 1].text;
      if (prev == "return" || prev == "=" || prev == "(" || prev == "," ||
          prev == "<" || prev == "new")
        continue;
    }
    out->returners.insert(t[name_at].text);

    if (!check_nodiscard || !f.is_header) continue;
    if (qualified) continue;  // out-of-class definition; decl carries it
    if (!ann.scopes[ann.of[i]].transparent) continue;  // local variable
    // The parameter list must be followed by declaration tail tokens —
    // weeds out constructor calls that happen to look like decls.
    size_t close = MatchForward(t, name_at + 1);
    if (close + 1 < t.size()) {
      const std::string& tail = t[close + 1].text;
      bool decl_tail = tail == ";" || tail == "{" || tail == "const" ||
                       tail == "override" || tail == "final" ||
                       tail == "noexcept" || tail == "=" || tail == "&" ||
                       (t[close + 1].kind == Token::kIdent &&
                        tail.rfind("BMR_", 0) == 0);
      if (!decl_tail) continue;
    }
    // Walk back over the (possibly qualified) return type, then over
    // specifiers, looking for a [[nodiscard]] attribute group.
    size_t q = i;
    while (q >= 3 && t[q - 1].text == ":" && t[q - 2].text == ":" &&
           t[q - 3].kind == Token::kIdent)
      q -= 3;
    bool has = false;
    size_t b = q;
    while (b > 0) {
      const Token& pv = t[b - 1];
      if (pv.kind == Token::kIdent &&
          (pv.text == "static" || pv.text == "virtual" ||
           pv.text == "inline" || pv.text == "explicit" ||
           pv.text == "friend" || pv.text == "constexpr")) {
        --b;
        continue;
      }
      if (pv.text == "]" && b >= 2 && t[b - 2].text == "]") {
        size_t open = MatchBackward(t, b - 1, "[", "]");
        for (size_t k = open; k < b; ++k)
          if (t[k].text == "nodiscard") has = true;
        b = open;
        continue;
      }
      break;
    }
    if (!has) {
      ctx->Report(kCheck, f, t[i].line,
                  "Status/StatusOr returner '" + t[name_at].text +
                      "' declared in a header without [[nodiscard]]");
    }
  }
}

void CheckStatusDiscard(Ctx* ctx, const StatusDecls& decls) {
  const std::string kCheck = "status-discard";
  for (const Pf& f : ctx->files) {
    if (f.is_header) continue;
    const auto& t = f.toks;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::kIdent) continue;
      if (decls.returners.count(t[i].text) == 0) continue;
      // Names also declared with a non-Status return type somewhere in
      // the tree are ambiguous without real type resolution — skip.
      if (decls.non_status.count(t[i].text) > 0) continue;
      if (i + 1 >= t.size() || t[i + 1].text != "(") continue;
      size_t close = MatchForward(t, i + 1);
      if (close + 1 >= t.size() || t[close + 1].text != ";") continue;
      // Walk back to the start of the postfix chain: a.b->c::d(...)
      size_t s = i;
      bool bail = false;
      while (s > 0 && !bail) {
        size_t p;
        if (t[s - 1].text == ".")
          p = s - 2;
        else if (s >= 2 && t[s - 1].text == ">" && t[s - 2].text == "-")
          p = s - 3;
        else if (s >= 2 && t[s - 1].text == ":" && t[s - 2].text == ":")
          p = s - 3;
        else
          break;
        if (p + 1 == 0 || p >= t.size()) break;
        if (t[p].kind == Token::kIdent) {
          s = p;
        } else if (t[p].text == ")") {
          size_t open = MatchBackward(t, p);
          if (open > 0 && t[open - 1].kind == Token::kIdent &&
              Keywords().count(t[open - 1].text) == 0) {
            s = open - 1;  // `maker(x).Use()` — chain starts at maker
          } else {
            s = open;  // `(*writer)->Close()` — chain starts at the paren
            break;
          }
        } else {
          bail = true;
        }
      }
      if (bail || s == 0) continue;
      const Token& before = t[s - 1];
      bool discarded = false;
      if (before.text == ";" || before.text == "{" || before.text == "}" ||
          before.text == "else" || before.text == "do") {
        discarded = true;
      } else if (before.text == ")") {
        size_t open = MatchBackward(t, s - 1);
        // `(void) call();` — allowed only with a same-line reason
        // comment; `if (...) call();` — a discarded statement.
        if (open + 2 == s - 1 && t[open + 1].text == "void") {
          // The reason comment may trail any line of the (possibly
          // wrapped) statement, `(void)` through `;`.
          bool has_reason = false;
          for (int line = t[open].line; line <= t[close + 1].line; ++line) {
            auto it = f.comments.find(line);
            if (it != f.comments.end() &&
                it->second.find_first_not_of(" \t") != std::string::npos) {
              has_reason = true;
              break;
            }
          }
          if (!has_reason) {
            ctx->Report(kCheck, f, t[i].line,
                        "(void)-discarded Status from '" + t[i].text +
                            "' without a same-line reason comment");
          }
          continue;
        }
        if (open > 0 && t[open - 1].kind == Token::kIdent) {
          const std::string& kw = t[open - 1].text;
          if (kw == "if" || kw == "for" || kw == "while" || kw == "switch")
            discarded = true;
        }
      }
      if (discarded) {
        ctx->Report(kCheck, f, t[i].line,
                    "result of Status-returning call '" + t[i].text +
                        "' is discarded — consume it, propagate it, or "
                        "(void)-cast with a reason comment");
      }
    }
  }
}

// ===================================================================
// Check: metric-registry
// ===================================================================

bool IsRegistryFile(const Pf& f) {
  return f.path == "src/obs/metric_names.h" || f.path == "src/mr/types.h";
}

/// Subsystems allowed in bmr_<subsystem>_... series names (GUIDE §10).
/// A new family (like arena/codec in PR 8) is registered by adding its
/// subsystem here — a name outside the list is a taxonomy typo.
const std::set<std::string>& MetricSubsystems() {
  static const std::set<std::string> subsystems = {
      "arena", "codec",  "faults",  "job", "net",     "obs",
      "output", "reduce", "reducer", "rpc", "service", "shuffle",
      "store"};
  return subsystems;
}

void CheckMetricRegistry(Ctx* ctx) {
  const std::string kCheck = "metric-registry";
  struct Constant {
    const Pf* file;
    int line;
    std::string value;
  };
  std::map<std::string, Constant> registry;
  for (const Pf& f : ctx->files) {
    if (!IsRegistryFile(f)) continue;
    const auto& t = f.toks;
    for (size_t i = 0; i + 2 < t.size(); ++i) {
      if (t[i].kind != Token::kIdent || t[i].text[0] != 'k') continue;
      if (t[i + 1].text != "=" || t[i + 2].kind != Token::kString) continue;
      registry[t[i].text] = {&f, t[i].line, t[i + 2].text};
    }
  }
  if (registry.empty()) return;

  // Name-format validation: every bmr_-prefixed series name must be
  // bmr_<subsystem>_<name>_<unit> with a known subsystem and unit.
  // Raw counter names, span labels (no bmr_ prefix) and prefix
  // constants (trailing '_') are exempt; a {label="..."} suffix is
  // stripped before validation.
  static const std::set<std::string> kUnits = {"us", "bytes", "seconds",
                                               "total"};
  for (const auto& [name, def] : registry) {
    std::string v = def.value;
    if (v.rfind("bmr_", 0) != 0) continue;
    if (!v.empty() && v.back() == '_') continue;  // family prefix
    size_t brace = v.find('{');
    if (brace != std::string::npos) v = v.substr(0, brace);
    bool well_formed = !v.empty();
    for (char c : v) {
      if (!(std::islower(static_cast<unsigned char>(c)) ||
            std::isdigit(static_cast<unsigned char>(c)) || c == '_'))
        well_formed = false;
    }
    if (!well_formed) {
      ctx->Report(kCheck, *def.file, def.line,
                  "metric name \"" + def.value + "\" ('" + name +
                      "') has characters outside [a-z0-9_]");
      continue;
    }
    size_t sub_end = v.find('_', 4);
    std::string subsystem =
        sub_end == std::string::npos ? "" : v.substr(4, sub_end - 4);
    if (MetricSubsystems().count(subsystem) == 0) {
      ctx->Report(kCheck, *def.file, def.line,
                  "metric name \"" + v + "\" ('" + name +
                      "') has unknown subsystem '" + subsystem +
                      "' — bmr_<subsystem>_<name>_<unit>, subsystems "
                      "listed in MetricSubsystems() "
                      "(tools/bmr_check/analyzer.cc)");
    }
    size_t unit_at = v.find_last_of('_');
    std::string unit =
        unit_at == std::string::npos ? "" : v.substr(unit_at + 1);
    if (kUnits.count(unit) == 0) {
      ctx->Report(kCheck, *def.file, def.line,
                  "metric name \"" + v + "\" ('" + name +
                      "') does not end in a unit suffix "
                      "(us, bytes, seconds, total)");
    }
  }

  // Recording sites: the metric-name argument must be a registered
  // constant (an identifier the exporters and this check can resolve),
  // never a string literal and never an unregistered k-constant.
  static const std::map<std::string, int> kNameArg = {
      {"AddCounter", 0},    {"RecordLatency", 0}, {"MergeHistogram", 0},
      {"LatencyTimer", 1},  {"ScopedSpan", 1},
  };
  std::set<std::string> referenced;
  for (const Pf& f : ctx->files) {
    const auto& t = f.toks;
    for (const Token& tok : t)
      if (tok.kind == Token::kIdent && !IsRegistryFile(f) &&
          registry.count(tok.text) > 0)
        referenced.insert(tok.text);
    // The definition files of the recording API are not call sites.
    if (f.path == "src/mr/metrics.h" || f.path == "src/mr/metrics.cc" ||
        f.path == "src/obs/trace.h" || f.path == "src/obs/trace.cc")
      continue;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::kIdent) continue;
      auto site = kNameArg.find(t[i].text);
      if (site == kNameArg.end()) continue;
      size_t open;
      if (site->second == 0) {
        if (i + 1 >= t.size() || t[i + 1].text != "(") continue;
        open = i + 1;
      } else {
        // `LatencyTimer timer(tracer, kName)` — declaration-with-var
        // shape; the name is the second argument.
        if (i + 2 >= t.size() || t[i + 1].kind != Token::kIdent ||
            t[i + 2].text != "(")
          continue;
        open = i + 2;
      }
      size_t close = MatchForward(t, open);
      // Split top-level arguments.
      std::vector<std::pair<size_t, size_t>> args;
      int depth = 0;
      size_t start = open + 1;
      for (size_t p = open + 1; p <= close && p < t.size(); ++p) {
        if (t[p].kind == Token::kPunct) {
          if (t[p].text == "(" || t[p].text == "[" || t[p].text == "{")
            ++depth;
          if (t[p].text == ")" || t[p].text == "]" || t[p].text == "}")
            --depth;
        }
        bool at_end = (p == close);
        if ((t[p].text == "," && depth == 0 && t[p].kind == Token::kPunct) ||
            at_end) {
          if (p > start) args.push_back({start, p});
          start = p + 1;
        }
      }
      size_t arg_index = static_cast<size_t>(site->second);
      if (args.size() <= arg_index) continue;
      auto [lo, hi] = args[arg_index];
      if (hi - lo == 1 && t[lo].kind == Token::kString) {
        ctx->Report(kCheck, f, t[lo].line,
                    "string-literal metric name \"" + t[lo].text + "\" at a " +
                        t[i].text +
                        " site — use a registry constant "
                        "(obs/metric_names.h, mr/types.h)");
        continue;
      }
      for (size_t p = lo; p < hi; ++p) {
        if (t[p].kind != Token::kIdent || t[p].text[0] != 'k') continue;
        if (t[p].text.size() < 2 || !std::isupper(static_cast<unsigned char>(
                                        t[p].text[1])))
          continue;
        if (registry.count(t[p].text) == 0) {
          ctx->Report(kCheck, f, t[p].line,
                      "metric constant '" + t[p].text +
                          "' is not registered in obs/metric_names.h / "
                          "mr/types.h — typo or missing registration");
        }
      }
    }
  }

  for (const auto& [name, def] : registry) {
    if (referenced.count(name) > 0) continue;
    ctx->Report(kCheck, *def.file, def.line,
                "metric constant '" + name +
                    "' is registered but never referenced by any "
                    "recording or export site — dead series");
  }
}

}  // namespace

// ===================================================================
// Public API
// ===================================================================

const std::vector<std::string>& AllCheckIds() {
  static const std::vector<std::string> ids = {
      "lock-order", "layering", "status-discard", "nodiscard",
      "metric-registry"};
  return ids;
}

std::vector<Finding> Analyze(const std::vector<FileContent>& files,
                             const Options& options) {
  Ctx ctx;
  ctx.enabled = options.checks;
  for (const FileContent& fc : files) {
    Pf pf;
    pf.path = fc.path;
    pf.is_header = fc.path.size() > 2 &&
                   fc.path.compare(fc.path.size() - 2, 2, ".h") == 0;
    if (fc.path.rfind("src/", 0) == 0) {
      size_t slash = fc.path.find('/', 4);
      if (slash != std::string::npos) pf.dir = fc.path.substr(4, slash - 4);
    }
    size_t base = fc.path.find_last_of('/');
    std::string name =
        base == std::string::npos ? fc.path : fc.path.substr(base + 1);
    size_t dot = name.find_last_of('.');
    pf.stem = dot == std::string::npos ? name : name.substr(0, dot);
    Lex(fc.text, &pf);
    ctx.files.push_back(std::move(pf));
  }
  for (size_t i = 0; i < ctx.files.size(); ++i)
    ctx.by_path[ctx.files[i].path] = i;

  CheckAllowAnnotations(&ctx);
  if (ctx.On("lock-order")) CheckLockOrder(&ctx);
  if (ctx.On("layering")) CheckLayering(&ctx);
  StatusDecls decls;
  if (ctx.On("status-discard") || ctx.On("nodiscard")) {
    for (const Pf& f : ctx.files)
      ScanStatusDecls(&ctx, f, &decls, ctx.On("nodiscard"));
  }
  if (ctx.On("status-discard")) {
    for (const Pf& f : ctx.files) ScanNonStatusDecls(f, &decls);
    CheckStatusDiscard(&ctx, decls);
  }
  if (ctx.On("metric-registry")) CheckMetricRegistry(&ctx);

  std::sort(ctx.findings.begin(), ctx.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.check, a.message) <
                     std::tie(b.file, b.line, b.check, b.message);
            });
  return ctx.findings;
}

std::vector<FileContent> LoadTree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<FileContent> out;
  fs::path src = fs::path(root) / "src";
  if (!fs::exists(src)) return out;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string rel = fs::relative(entry.path(), fs::path(root)).string();
    out.push_back({rel, ss.str()});
  }
  std::sort(out.begin(), out.end(),
            [](const FileContent& a, const FileContent& b) {
              return a.path < b.path;
            });
  return out;
}

std::string FormatFindings(const std::vector<Finding>& findings) {
  std::vector<Finding> sorted = findings;
  std::sort(sorted.begin(), sorted.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.check, a.message) <
                     std::tie(b.file, b.line, b.check, b.message);
            });
  std::ostringstream os;
  for (const Finding& f : sorted) {
    os << f.file;
    if (f.line > 0) os << ":" << f.line;
    os << ": [" << f.check << "] " << f.message << "\n";
  }
  return os.str();
}

}  // namespace bmr_check
