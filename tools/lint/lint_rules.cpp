#include "lint/lint_rules.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <tuple>

#include "lint/scan.hpp"

namespace cryptodrop::lint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// A whole file's comment-stripped text in one buffer, with an
/// offset -> line-number index, so multi-line constructs (registration
/// calls split across lines) scan as one stream.
struct JoinedSource {
  std::string text;
  std::vector<std::size_t> line_starts;

  /// 1-based line containing `offset`.
  [[nodiscard]] std::size_t line_of(std::size_t offset) const {
    const auto it =
        std::upper_bound(line_starts.begin(), line_starts.end(), offset);
    return static_cast<std::size_t>(it - line_starts.begin());
  }
};

JoinedSource join_stripped(const std::vector<std::string>& lines,
                           bool keep_strings) {
  CommentStripper stripper;
  JoinedSource out;
  for (const std::string& line : lines) {
    out.line_starts.push_back(out.text.size());
    out.text += stripper.strip(line, keep_strings);
    out.text += '\n';
  }
  return out;
}

/// True when the character before `pos` (if any) cannot extend an
/// identifier leftward — i.e. `pos` starts a fresh token.
bool boundary_before(const std::string& text, std::size_t pos) {
  return pos == 0 || !ident_char(text[pos - 1]);
}

void find_banned_tokens(const std::string& file, const JoinedSource& src,
                        const std::vector<std::string>& tokens,
                        const std::string& rule, const std::string& hint,
                        std::vector<Issue>* issues) {
  for (const std::string& token : tokens) {
    std::size_t pos = 0;
    while ((pos = src.text.find(token, pos)) != std::string::npos) {
      if (boundary_before(src.text, pos)) {
        issues->push_back(Issue{file, src.line_of(pos), rule,
                                "`" + token + "` is banned: " + hint});
      }
      pos += token.size();
    }
  }
}

/// Walks left from `pos` (just before a ".lock()"-style match) over one
/// optional [..] subscript and one identifier; returns that identifier
/// (the receiver's last path segment), or "" when unrecognizable.
std::string receiver_before(const std::string& text, std::size_t pos) {
  std::size_t i = pos;
  while (i > 0 && (text[i - 1] == ' ' || text[i - 1] == '\t')) --i;
  if (i > 0 && text[i - 1] == ']') {
    int depth = 0;
    while (i > 0) {
      --i;
      if (text[i] == ']') ++depth;
      if (text[i] == '[') {
        if (--depth == 0) break;
      }
    }
  }
  std::size_t end = i;
  while (i > 0 && ident_char(text[i - 1])) --i;
  return text.substr(i, end - i);
}

bool guardish(const std::string& ident) {
  std::string lower;
  for (char c : ident) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return lower.find("lock") != std::string::npos ||
         lower.find("guard") != std::string::npos;
}

void check_naked_locks(const std::string& file, const JoinedSource& src,
                       std::vector<Issue>* issues) {
  static const char* kMethods[] = {
      "lock()",        "unlock()",        "try_lock()",
      "lock_shared()", "unlock_shared()", "try_lock_shared()",
  };
  for (const char* method : kMethods) {
    const std::string dotted = "." + std::string(method);
    const std::string arrowed = "->" + std::string(method);
    for (const std::string& pattern : {dotted, arrowed}) {
      std::size_t pos = 0;
      while ((pos = src.text.find(pattern, pos)) != std::string::npos) {
        const std::string receiver = receiver_before(src.text, pos);
        if (!guardish(receiver)) {
          issues->push_back(Issue{
              file, src.line_of(pos), "naked-lock",
              "`" + receiver + pattern +
                  "`: acquire mutexes through an RAII guard "
                  "(std::lock_guard / std::unique_lock over a RankedMutex), "
                  "never by hand"});
        }
        pos += pattern.size();
      }
    }
  }
}

void check_lock_rank_tags(const std::string& file,
                          const std::vector<std::string>& raw_lines,
                          std::vector<Issue>* issues) {
  CommentStripper stripper;
  for (std::size_t n = 0; n < raw_lines.size(); ++n) {
    const std::string code = stripper.strip(raw_lines[n], /*keep_strings=*/false);
    for (const char* type : {"std::shared_mutex", "std::mutex"}) {
      std::size_t pos = code.find(type);
      if (pos == std::string::npos) continue;
      if (!boundary_before(code, pos)) continue;
      std::size_t after = pos + std::string(type).size();
      // "std::mutex" is a prefix of "std::shared_mutex"? No — but it is
      // a prefix of "std::mutex"-like tokens; require a non-identifier
      // follow-up, then a declarator (an identifier), to call it a
      // declaration. References, pointers and template arguments are
      // not lock objects.
      while (after < code.size() && (code[after] == ' ' || code[after] == '\t')) {
        ++after;
      }
      if (after >= code.size() || !ident_char(code[after]) ||
          std::isdigit(static_cast<unsigned char>(code[after]))) {
        continue;
      }
      const bool tagged =
          raw_lines[n].find("lock-rank:") != std::string::npos ||
          (n > 0 && raw_lines[n - 1].find("lock-rank:") != std::string::npos);
      if (!tagged) {
        issues->push_back(Issue{
            file, n + 1, "lock-rank",
            std::string("`") + type +
                "` declared without a `// lock-rank: N` tag — use "
                "common::RankedMutex<Rank> (the rank lives in the type) or "
                "document the rank in the tag"});
      }
      break;  // one diagnostic per line is enough
    }
  }
}

/// Parses one string-literal sequence starting at `pos` (which must
/// point at an opening quote in keep-strings text): handles escapes
/// and adjacent-literal concatenation across whitespace/newlines.
/// Returns the concatenated value and leaves `pos` after the final
/// closing quote.
std::string read_literal(const std::string& text, std::size_t* pos) {
  std::string value;
  while (*pos < text.size() && text[*pos] == '"') {
    ++*pos;  // opening quote
    while (*pos < text.size() && text[*pos] != '"') {
      if (text[*pos] == '\\' && *pos + 1 < text.size()) ++*pos;
      value += text[*pos];
      ++*pos;
    }
    if (*pos < text.size()) ++*pos;  // closing quote
    std::size_t peek = *pos;
    while (peek < text.size() &&
           (text[peek] == ' ' || text[peek] == '\t' || text[peek] == '\n')) {
      ++peek;
    }
    if (peek < text.size() && text[peek] == '"') {
      *pos = peek;  // adjacent literal: keep concatenating
    } else {
      break;
    }
  }
  return value;
}

void check_metric_names(const std::string& file, const JoinedSource& src,
                        const NameTables& tables,
                        const std::set<std::string>& expanded,
                        std::vector<Issue>* issues) {
  for (const char* method : {"counter(", "gauge(", "histogram("}) {
    const std::string token = method;
    std::size_t pos = 0;
    while ((pos = src.text.find(token, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += token.size();
      // Only registry/snapshot member calls: require `.name(` / `->name(`.
      if (at == 0 || (src.text[at - 1] != '.' && src.text[at - 1] != '>')) {
        continue;
      }
      std::size_t p = at + token.size();
      while (p < src.text.size() &&
             (src.text[p] == ' ' || src.text[p] == '\t' || src.text[p] == '\n')) {
        ++p;
      }
      if (p >= src.text.size() || src.text[p] != '"') continue;  // non-literal
      const std::string name = read_literal(src.text, &p);
      while (p < src.text.size() &&
             (src.text[p] == ' ' || src.text[p] == '\t' || src.text[p] == '\n')) {
        ++p;
      }
      const bool dynamic_suffix = p < src.text.size() && src.text[p] == '+';
      if (dynamic_suffix) {
        // "family." + computed label: legal only when a placeholder
        // family with exactly this prefix is on the schema.
        bool known = false;
        for (const std::string& family : tables.metric_families) {
          if (family.size() > name.size() &&
              family.compare(0, name.size(), name) == 0 &&
              family[name.size()] == '<' && family.back() == '>') {
            known = true;
            break;
          }
        }
        if (!known) {
          issues->push_back(Issue{
              file, src.line_of(at), "metric-name",
              "metric family `" + name +
                  "` + dynamic suffix is not a placeholder family in "
                  "obs::known_metric_names()"});
        }
      } else if (expanded.count(name) == 0) {
        issues->push_back(Issue{
            file, src.line_of(at), "metric-name",
            "metric `" + name +
                "` is not in obs::known_metric_names() — register the "
                "name in src/obs/names.cpp (and docs/OBSERVABILITY.md) "
                "first"});
      }
    }
  }
}

void check_span_names(const std::string& file, const JoinedSource& src,
                      const NameTables& tables, std::vector<Issue>* issues) {
  const std::string token = "ScopedSpan";
  std::size_t pos = 0;
  while ((pos = src.text.find(token, pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += token.size();
    if (!boundary_before(src.text, at)) continue;
    std::size_t p = at + token.size();
    while (p < src.text.size() && (src.text[p] == ' ' || src.text[p] == '\t')) {
      ++p;
    }
    // Optional variable name (a construction like `ScopedSpan span(...)`).
    while (p < src.text.size() && ident_char(src.text[p])) ++p;
    while (p < src.text.size() && (src.text[p] == ' ' || src.text[p] == '\t')) {
      ++p;
    }
    if (p >= src.text.size() || src.text[p] != '(') continue;
    ++p;

    // Shallow arg split at depth 1; literals already stripped of
    // nothing (keep-strings text), so skip their contents.
    std::vector<std::string> args(1);
    int depth = 1;
    while (p < src.text.size() && depth > 0) {
      const char c = src.text[p];
      if (c == '"') {
        std::string lit = read_literal(src.text, &p);
        args.back() += '"' + lit + '"';
        continue;
      }
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') --depth;
      if (depth == 0) break;
      if (c == ',' && depth == 1) {
        args.emplace_back();
      } else {
        args.back() += c;
      }
      ++p;
    }

    // The span name is the first literal or span_name:: constant among
    // the first two args (root spans put the tracer first).
    for (std::size_t a = 0; a < args.size() && a < 2; ++a) {
      const std::string arg = trim(args[a]);
      if (!arg.empty() && arg[0] == '"') {
        const std::string name = arg.substr(1, arg.size() - 2);
        if (tables.span_names.count(name) == 0) {
          issues->push_back(Issue{
              file, src.line_of(at), "span-name",
              "span `" + name +
                  "` is not in obs::known_span_names() — add a span_name:: "
                  "constant (and the OBSERVABILITY.md row) first"});
        }
        break;
      }
      const std::size_t q = arg.find("span_name::");
      if (q != std::string::npos) {
        const std::string constant = arg.substr(q + std::string("span_name::").size());
        if (tables.span_constants.count(constant) == 0) {
          issues->push_back(Issue{
              file, src.line_of(at), "span-name",
              "span constant `span_name::" + constant +
                  "` is not declared in obs/span.hpp"});
        }
        break;
      }
    }
  }
}

// --- hot-path purity pass (DESIGN.md §17) -------------------------------
//
// A deliberately small "call-graph-lite": function definitions are
// recognized by token shape in comment-stripped text, callees by
// unqualified name. Good enough for a gate — misses are false
// negatives (documented), never false positives on clean code.

/// C++ keywords (and keyword-shaped tokens) that look like `name(`
/// but are neither definitions nor calls worth resolving.
bool keywordish(const std::string& name) {
  static const std::set<std::string> kKeywords = {
      "if",       "for",      "while",    "switch",     "catch",
      "return",   "sizeof",   "alignof",  "alignas",    "decltype",
      "noexcept", "new",      "delete",   "throw",      "else",
      "do",       "case",     "default",  "template",   "typename",
      "using",    "namespace", "const",   "constexpr",  "static",
      "operator", "defined",  "assert",   "static_assert",
      "co_await", "co_return", "co_yield", "requires",  "explicit",
  };
  return kKeywords.count(name) != 0;
}

/// Joined stripped text with preprocessor lines blanked — directives
/// (`#if`, `#include`, ...) are not statements and confuse the
/// definition scanner.
JoinedSource join_for_parsing(const std::vector<std::string>& lines) {
  CommentStripper stripper;
  JoinedSource out;
  for (const std::string& line : lines) {
    out.line_starts.push_back(out.text.size());
    std::string code = stripper.strip(line, /*keep_strings=*/false);
    const std::string lead = trim(code);
    if (!lead.empty() && lead[0] == '#') code.clear();
    out.text += code;
    out.text += '\n';
  }
  return out;
}

/// Offset of the bracket matching the opener at `open`, or npos.
std::size_t match_bracket(const std::string& t, std::size_t open, char open_c,
                          char close_c) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i] == open_c) ++depth;
    if (t[i] == close_c && --depth == 0) return i;
  }
  return std::string::npos;
}

bool ws(char c) { return c == ' ' || c == '\t' || c == '\n'; }

/// One function definition recognized in a file's parsed text.
struct FunctionDef {
  std::string file;
  std::string name;           ///< Unqualified (last :: segment).
  std::size_t name_line = 0;  ///< 1-based line of the name token.
  std::size_t body_begin = 0; ///< Offset of the body '{'.
  std::size_t body_end = 0;   ///< Offset of the matching '}'.
};

/// Consumes a constructor init list starting after the ':' at `*p`;
/// returns true (with `*p` at the body '{') when a body follows.
bool consume_ctor_init_list(const std::string& t, std::size_t* p) {
  while (*p < t.size()) {
    while (*p < t.size() && ws(t[*p])) ++*p;
    std::size_t id = *p;
    while (*p < t.size() && (ident_char(t[*p]) || t[*p] == ':')) ++*p;
    const bool had_member = *p > id;
    while (*p < t.size() && ws(t[*p])) ++*p;
    if (*p >= t.size()) return false;
    if (t[*p] == '(' || (t[*p] == '{' && had_member)) {
      const char open = t[*p];
      const std::size_t close =
          match_bracket(t, *p, open, open == '(' ? ')' : '}');
      if (close == std::string::npos) return false;
      *p = close + 1;
    } else if (t[*p] == '{') {
      return true;  // body (no member before the brace)
    } else {
      return false;
    }
    while (*p < t.size() && ws(t[*p])) ++*p;
    if (*p < t.size() && t[*p] == ',') {
      ++*p;
      continue;
    }
    while (*p < t.size() && ws(t[*p])) ++*p;
    return *p < t.size() && t[*p] == '{';
  }
  return false;
}

/// Extracts function definitions from one file's parsed text: an
/// identifier, its parameter list, an optional qualifier tail
/// (const/noexcept/override/final, trailing return, ctor init list),
/// then a brace-matched body. Lambdas and operators are deliberately
/// invisible (no identifier before the '(').
void extract_defs(const std::string& file, const JoinedSource& src,
                  std::vector<FunctionDef>* defs) {
  const std::string& t = src.text;
  for (std::size_t pos = t.find('('); pos != std::string::npos;
       pos = t.find('(', pos + 1)) {
    std::size_t end = pos;
    while (end > 0 && (t[end - 1] == ' ' || t[end - 1] == '\t')) --end;
    std::size_t begin = end;
    while (begin > 0 && ident_char(t[begin - 1])) --begin;
    if (begin == end) continue;  // lambda, operator, cast — no name
    const std::string name = t.substr(begin, end - begin);
    if (keywordish(name)) continue;
    if (std::isdigit(static_cast<unsigned char>(t[begin]))) continue;
    // `x.f(...)` / `x->f(...)` are calls, never definitions.
    if (begin > 0 && t[begin - 1] == '.') continue;
    if (begin > 1 && t[begin - 1] == '>' && t[begin - 2] == '-') continue;

    const std::size_t close = match_bracket(t, pos, '(', ')');
    if (close == std::string::npos) continue;
    std::size_t p = close + 1;
    bool is_def = false;
    while (p < t.size()) {
      while (p < t.size() && ws(t[p])) ++p;
      if (p >= t.size()) break;
      const char c = t[p];
      if (c == '{') {
        is_def = true;
        break;
      }
      if (c == ':') {
        is_def = consume_ctor_init_list(t, &(++p));
        break;
      }
      if (c == '-' && p + 1 < t.size() && t[p + 1] == '>') {
        // Trailing return type: scan to the body '{' (or ';') at
        // bracket depth zero.
        p += 2;
        int depth = 0;
        while (p < t.size()) {
          const char c2 = t[p];
          if (c2 == '(' || c2 == '[') ++depth;
          if (c2 == ')' || c2 == ']') --depth;
          if (depth == 0 && (c2 == '{' || c2 == ';')) break;
          ++p;
        }
        continue;
      }
      if (ident_char(c)) {
        std::size_t q = p;
        while (q < t.size() && ident_char(t[q])) ++q;
        const std::string word = t.substr(p, q - p);
        if (word == "const" || word == "noexcept" || word == "override" ||
            word == "final" || word == "mutable") {
          p = q;
          if (word == "noexcept") {
            while (p < t.size() && ws(t[p])) ++p;
            if (p < t.size() && t[p] == '(') {
              const std::size_t nc = match_bracket(t, p, '(', ')');
              if (nc == std::string::npos) break;
              p = nc + 1;
            }
          }
          continue;
        }
      }
      break;  // ';', '=', ',', unknown token: a declaration or expression
    }
    if (!is_def) continue;
    const std::size_t body_close = match_bracket(t, p, '{', '}');
    if (body_close == std::string::npos) continue;
    defs->push_back(
        FunctionDef{file, name, src.line_of(begin), p, body_close});
  }
}

/// Unqualified callee names mentioned as `name(` inside [begin, end).
/// Only free-style calls are collected: a method call's receiver type
/// is invisible to a lexical scanner, so resolving `s.append(...)` by
/// bare name would wire std::string::append to any repo function that
/// happens to be called `append`. Interface boundaries the closure
/// must cross by dispatch (entropy backends, digest memo, queue,
/// pool) carry their own `// cryptodrop:hot` markers on the callee
/// side instead — see DESIGN.md §17.
std::set<std::string> collect_callees(const std::string& t, std::size_t begin,
                                      std::size_t end) {
  std::set<std::string> names;
  for (std::size_t pos = t.find('(', begin);
       pos != std::string::npos && pos < end; pos = t.find('(', pos + 1)) {
    std::size_t e = pos;
    while (e > begin && (t[e - 1] == ' ' || t[e - 1] == '\t')) --e;
    std::size_t b = e;
    while (b > begin && ident_char(t[b - 1])) --b;
    if (b == e) continue;
    const std::string name = t.substr(b, e - b);
    if (keywordish(name)) continue;
    if (std::isdigit(static_cast<unsigned char>(t[b]))) continue;
    if (b > begin && t[b - 1] == '.') continue;  // method call
    if (b > begin + 1 && t[b - 1] == '>' && t[b - 2] == '-') continue;
    // Qualified calls: walk the `a::b::name` chain to its root and
    // skip the standard library (std::to_string is not the repo's
    // to_string).
    std::size_t q = b;
    std::string root = name;
    while (q > begin + 1 && t[q - 1] == ':' && t[q - 2] == ':') {
      q -= 2;
      const std::size_t seg_end = q;
      while (q > begin && ident_char(t[q - 1])) --q;
      if (q == seg_end) break;
      root = t.substr(q, seg_end - q);
    }
    if (root == "std") continue;
    names.insert(name);
  }
  return names;
}

/// The first two path components ("src/core" for src/core/engine.cpp):
/// the granularity of the callee-ambiguity cap.
std::string top_dirs(const std::string& path) {
  std::size_t slash = path.find('/');
  if (slash == std::string::npos) return path;
  slash = path.find('/', slash + 1);
  return slash == std::string::npos ? path : path.substr(0, slash);
}

/// Walks the dotted/arrowed receiver chain left of a growth call and
/// reports whether any segment names a pooled buffer (pool / scratch /
/// shelf) — `shelf.free.push_back(...)` is the sanctioned freelist
/// idiom, not a hot-path allocation.
bool poolish_receiver(const std::string& t, std::size_t pos) {
  std::size_t i = pos;
  while (true) {
    if (i >= 1 && t[i - 1] == '.') {
      --i;
    } else if (i >= 2 && t[i - 1] == '>' && t[i - 2] == '-') {
      i -= 2;
    } else {
      return false;
    }
    // Skip one trailing call/subscript group: `buf()[k].push_back`.
    while (i > 0 && (t[i - 1] == ')' || t[i - 1] == ']')) {
      const char close = t[i - 1];
      const char open = close == ')' ? '(' : '[';
      int depth = 0;
      while (i > 0) {
        --i;
        if (t[i] == close) ++depth;
        if (t[i] == open && --depth == 0) break;
      }
    }
    std::size_t e = i;
    while (i > 0 && ident_char(t[i - 1])) --i;
    std::string seg;
    for (std::size_t k = i; k < e; ++k) {
      seg += static_cast<char>(
          std::tolower(static_cast<unsigned char>(t[k])));
    }
    if (seg.find("pool") != std::string::npos ||
        seg.find("scratch") != std::string::npos ||
        seg.find("shelf") != std::string::npos) {
      return true;
    }
    if (i == e) return false;  // chain start was not an identifier
  }
}

/// True when the token at [pos, pos+len) stands alone as an identifier.
bool word_at(const std::string& t, std::size_t pos, std::size_t len) {
  if (!boundary_before(t, pos)) return false;
  return pos + len >= t.size() || !ident_char(t[pos + len]);
}

/// Scans one hot-closure function body for banned constructs.
void scan_hot_body(const FunctionDef& def, const JoinedSource& src,
                   const std::string& chain, std::vector<Issue>* issues) {
  const std::string& t = src.text;
  const auto flag = [&](std::size_t pos, const std::string& rule,
                        const std::string& what, const std::string& why) {
    issues->push_back(Issue{def.file, src.line_of(pos), rule,
                            "`" + what + "` " + why +
                                " on a cryptodrop:hot path (via " + chain +
                                ")"});
  };

  // Allocation: operator new, smart-pointer factories, raw malloc.
  for (const char* token : {"new", "throw"}) {
    const std::size_t len = std::string(token).size();
    for (std::size_t pos = t.find(token, def.body_begin);
         pos != std::string::npos && pos < def.body_end;
         pos = t.find(token, pos + 1)) {
      if (!word_at(t, pos, len)) continue;
      if (token[0] == 'n') {
        flag(pos, "hot-alloc", token, "allocates");
      } else {
        flag(pos, "hot-throw", token, "unwinds (report errors by value)");
      }
    }
  }
  for (const char* token :
       {"make_unique", "make_shared", "malloc(", "calloc(", "realloc("}) {
    const std::string tok = token;
    const std::size_t name_len =
        tok.back() == '(' ? tok.size() - 1 : tok.size();
    for (std::size_t pos = t.find(tok, def.body_begin);
         pos != std::string::npos && pos < def.body_end;
         pos = t.find(tok, pos + 1)) {
      if (!boundary_before(t, pos)) continue;
      if (tok.back() != '(' && pos + name_len < t.size() &&
          ident_char(t[pos + name_len])) {
        continue;
      }
      flag(pos, "hot-alloc", tok.substr(0, name_len), "allocates");
    }
  }

  // Container growth — exempting the pooled-freelist idiom. reserve()
  // is deliberately absent: pre-sizing is the sanctioned fix.
  for (const char* token : {"push_back", "emplace_back", "push_front",
                            "emplace_front", "emplace(", "resize(",
                            "append("}) {
    const std::string tok = token;
    const std::size_t name_len =
        tok.back() == '(' ? tok.size() - 1 : tok.size();
    for (std::size_t pos = t.find(tok, def.body_begin);
         pos != std::string::npos && pos < def.body_end;
         pos = t.find(tok, pos + 1)) {
      if (!boundary_before(t, pos)) continue;
      if (tok.back() != '(' && pos + name_len < t.size() &&
          ident_char(t[pos + name_len])) {
        continue;
      }
      if (poolish_receiver(t, pos)) continue;
      flag(pos, "hot-alloc", tok.substr(0, name_len), "may grow a container");
    }
  }

  // Blocking syscalls as free calls — `stream.read(...)` is a member
  // of something already vetted; bare `read(...)`/`::read(...)` is the
  // OS. std::this_thread::sleep_* is reached via its `::` spelling.
  for (const char* token :
       {"read(", "write(", "open(", "poll(", "select(", "sleep(",
        "usleep(", "nanosleep(", "sleep_for", "sleep_until", "fopen(",
        "fread(", "fwrite(", "fsync("}) {
    const std::string tok = token;
    const std::size_t name_len =
        tok.back() == '(' ? tok.size() - 1 : tok.size();
    for (std::size_t pos = t.find(tok, def.body_begin);
         pos != std::string::npos && pos < def.body_end;
         pos = t.find(tok, pos + 1)) {
      if (!boundary_before(t, pos)) continue;
      if (tok.back() != '(' && pos + name_len < t.size() &&
          ident_char(t[pos + name_len])) {
        continue;
      }
      if (pos > 0 && t[pos - 1] == '.') continue;
      if (pos > 1 && t[pos - 1] == '>' && t[pos - 2] == '-') continue;
      flag(pos, "hot-blocking", tok.substr(0, name_len), "blocks");
    }
  }

  // Raw mutex types: hot code locks through RankedMutex or not at all.
  for (const char* token : {"std::mutex", "std::shared_mutex"}) {
    const std::string tok = token;
    for (std::size_t pos = t.find(tok, def.body_begin);
         pos != std::string::npos && pos < def.body_end;
         pos = t.find(tok, pos + 1)) {
      if (!boundary_before(t, pos)) continue;
      if (pos + tok.size() < t.size() && ident_char(t[pos + tok.size()])) {
        continue;
      }
      flag(pos, "hot-unranked-lock", tok,
           "is an unranked mutex — use common::RankedMutex");
    }
  }
}

}  // namespace

std::set<std::string> NameTables::expanded_metric_names() const {
  std::set<std::string> out;
  for (const std::string& family : metric_families) {
    out.insert(family);
    const std::size_t open = family.find('<');
    if (open == std::string::npos) continue;
    const std::string prefix = family.substr(0, open);
    const std::string placeholder = family.substr(open);
    const auto it = placeholder_labels.find(placeholder);
    if (it == placeholder_labels.end()) continue;
    for (const std::string& label : it->second) out.insert(prefix + label);
  }
  return out;
}

Allowlist Allowlist::parse(const std::vector<std::string>& lines,
                           std::vector<std::string>* errors) {
  Allowlist allow;
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const std::string line = trim(lines[n]);
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string rule;
    std::string path;
    std::string reason;
    in >> rule >> path;
    std::getline(in, reason);
    if (rule.empty() || path.empty() || trim(reason).empty()) {
      if (errors != nullptr) {
        errors->push_back("lint_allow.txt:" + std::to_string(n + 1) +
                          ": want `rule path reason...`, got: " + line);
      }
      continue;
    }
    allow.entries_[{rule, path}] = false;
  }
  return allow;
}

bool Allowlist::allows(const std::string& rule, const std::string& file) {
  const auto it = entries_.find({rule, file});
  if (it != entries_.end()) {
    it->second = true;
    return true;
  }
  // Directory entries: a path ending in '/' suppresses the rule for
  // every file under it (one justified entry per subsystem, not per
  // file).
  for (auto& [key, used] : entries_) {
    if (key.first != rule) continue;
    const std::string& prefix = key.second;
    if (prefix.empty() || prefix.back() != '/') continue;
    if (file.compare(0, prefix.size(), prefix) == 0) {
      used = true;
      return true;
    }
  }
  return false;
}

std::vector<std::string> Allowlist::unused_entries() const {
  std::vector<std::string> stale;
  for (const auto& [key, used] : entries_) {
    if (!used) stale.push_back(key.first + " " + key.second);
  }
  return stale;
}

std::vector<std::pair<std::string, std::string>> Allowlist::unused_entry_keys()
    const {
  std::vector<std::pair<std::string, std::string>> stale;
  for (const auto& [key, used] : entries_) {
    if (!used) stale.push_back(key);
  }
  return stale;
}

std::string nearest_path(const std::string& path,
                         const std::vector<std::string>& candidates) {
  std::string best;
  std::size_t best_cost = std::string::npos;
  for (const std::string& candidate : candidates) {
    // Classic two-row Levenshtein — candidate lists are tiny.
    const std::size_t n = path.size();
    const std::size_t m = candidate.size();
    std::vector<std::size_t> prev(m + 1);
    std::vector<std::size_t> curr(m + 1);
    for (std::size_t j = 0; j <= m; ++j) prev[j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
      curr[0] = i;
      for (std::size_t j = 1; j <= m; ++j) {
        const std::size_t sub =
            prev[j - 1] + (path[i - 1] == candidate[j - 1] ? 0 : 1);
        curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, sub});
      }
      std::swap(prev, curr);
    }
    const std::size_t cost = prev[m];
    if (cost < best_cost || (cost == best_cost && candidate < best)) {
      best = candidate;
      best_cost = cost;
    }
  }
  return best;
}

HotPathReport check_hot_paths(
    const std::map<std::string, std::vector<std::string>>& files) {
  HotPathReport report;

  // Parse every file once; collect definitions and annotation lines.
  std::map<std::string, JoinedSource> parsed;
  std::vector<FunctionDef> defs;
  std::map<std::string, std::vector<std::size_t>> markers;  // file -> lines
  for (const auto& [file, lines] : files) {
    parsed.emplace(file, join_for_parsing(lines));
    extract_defs(file, parsed.at(file), &defs);
    for (std::size_t n = 0; n < lines.size(); ++n) {
      if (lines[n].find("cryptodrop:hot") != std::string::npos) {
        markers[file].push_back(n + 1);
      }
    }
  }

  // Name -> definitions, for callee resolution.
  std::map<std::string, std::vector<const FunctionDef*>> by_name;
  for (const FunctionDef& def : defs) by_name[def.name].push_back(&def);

  // Bind each marker to the next definition within a few lines —
  // markers sit directly above the signature (which may wrap).
  constexpr std::size_t kMarkerWindow = 8;
  std::vector<const FunctionDef*> roots;
  for (const auto& [file, lines] : markers) {
    for (std::size_t marker_line : lines) {
      const FunctionDef* bound = nullptr;
      for (const FunctionDef& def : defs) {
        if (def.file != file) continue;
        if (def.name_line < marker_line ||
            def.name_line > marker_line + kMarkerWindow) {
          continue;
        }
        if (bound == nullptr || def.name_line < bound->name_line) {
          bound = &def;
        }
      }
      if (bound == nullptr) {
        report.issues.push_back(Issue{
            file, marker_line, "hot-annotation",
            "`// cryptodrop:hot` is not attached to a recognizable "
            "function definition (none starts within " +
                std::to_string(kMarkerWindow) + " lines below the marker)"});
        continue;
      }
      roots.push_back(bound);
    }
  }
  report.annotated = roots.size();

  // BFS through same-repo callees resolvable by name. Names defined in
  // more than two top-level subsystems are too generic to resolve —
  // skipping them trades false negatives for a quiet gate.
  std::set<const FunctionDef*> visited;
  std::vector<std::pair<const FunctionDef*, std::string>> queue;
  for (const FunctionDef* root : roots) {
    if (visited.insert(root).second) queue.emplace_back(root, root->name);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto [def, chain] = queue[head];
    scan_hot_body(*def, parsed.at(def->file), chain, &report.issues);
    for (const std::string& callee :
         collect_callees(parsed.at(def->file).text, def->body_begin,
                         def->body_end)) {
      const auto it = by_name.find(callee);
      if (it == by_name.end()) continue;
      std::set<std::string> dirs;
      for (const FunctionDef* target : it->second) {
        dirs.insert(top_dirs(target->file));
      }
      if (dirs.size() > 2) continue;  // ambiguity cap
      for (const FunctionDef* target : it->second) {
        if (visited.insert(target).second) {
          queue.emplace_back(target, chain + " -> " + callee);
        }
      }
    }
  }
  report.reachable = visited.size();

  std::stable_sort(report.issues.begin(), report.issues.end(),
                   [](const Issue& a, const Issue& b) {
                     return std::tie(a.file, a.line) < std::tie(b.file, b.line);
                   });
  return report;
}

std::vector<Issue> lint_source(const std::string& file,
                               const std::vector<std::string>& lines,
                               const NameTables& tables) {
  std::vector<Issue> issues;
  const JoinedSource plain = join_stripped(lines, /*keep_strings=*/false);
  const JoinedSource literal = join_stripped(lines, /*keep_strings=*/true);

  static const std::vector<std::string> kRngTokens = {
      "rand(", "srand", "random_device", "mt19937",
      "default_random_engine", "minstd_rand",
  };
  find_banned_tokens(file, plain, kRngTokens, "rng",
                     "all randomness flows through common/rng (seeded, "
                     "platform-stable)",
                     &issues);

  static const std::vector<std::string> kClockTokens = {
      "system_clock::now", "steady_clock::now", "high_resolution_clock",
      "clock_gettime",     "gettimeofday",      "std::time(",
  };
  find_banned_tokens(file, plain, kClockTokens, "wall-clock",
                     "wall-clock reads live in the sanctioned timer helpers "
                     "(obs::ScopedTimer / SpanTracer) only",
                     &issues);

  check_naked_locks(file, plain, &issues);
  check_lock_rank_tags(file, lines, &issues);
  check_metric_names(file, literal, tables, tables.expanded_metric_names(),
                     &issues);
  check_span_names(file, literal, tables, &issues);

  std::stable_sort(issues.begin(), issues.end(),
                   [](const Issue& a, const Issue& b) { return a.line < b.line; });
  return issues;
}

}  // namespace cryptodrop::lint
