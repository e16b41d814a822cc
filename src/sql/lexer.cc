#include "sql/lexer.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <system_error>

#include "util/str.h"

namespace xprs {

StatusOr<std::vector<Token>> Lex(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();

  auto error = [&](const char* msg, size_t at) {
    return Status::InvalidArgument(
        StrFormat("%s at offset %zu", msg, at));
  };

  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }

    Token tok;
    tok.offset = i;

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_'))
        ++i;
      tok.kind = TokKind::kIdent;
      tok.text = sql.substr(start, i - start);
      for (char& ch : tok.text)
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
      tokens.push_back(std::move(tok));
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t start = i;
      if (c == '-') ++i;
      while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      tok.kind = TokKind::kInt;
      tok.text = sql.substr(start, i - start);
      // Integer literals are int4 values: one out of range is an error,
      // never a wrapped value.
      int32_t value = 0;
      if (std::from_chars(sql.data() + start, sql.data() + i, value).ec !=
          std::errc())
        return error("integer literal out of int4 range", start);
      tok.int_value = value;
      tokens.push_back(std::move(tok));
      continue;
    }

    if (c == '\'') {
      size_t start = ++i;
      std::string body;
      for (;;) {
        if (i >= n) return error("unterminated string literal", start - 1);
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {  // escaped quote
            body.push_back('\'');
            i += 2;
            continue;
          }
          ++i;
          break;
        }
        body.push_back(sql[i++]);
      }
      tok.kind = TokKind::kString;
      tok.text = std::move(body);
      tokens.push_back(std::move(tok));
      continue;
    }

    // Multi-char symbols first.
    auto sym = [&](const char* s) {
      tok.kind = TokKind::kSymbol;
      tok.text = s;
      i += tok.text.size();
      tokens.push_back(tok);
    };
    if (c == '<' && i + 1 < n && sql[i + 1] == '=') {
      sym("<=");
    } else if (c == '>' && i + 1 < n && sql[i + 1] == '=') {
      sym(">=");
    } else if (c == '<' && i + 1 < n && sql[i + 1] == '>') {
      sym("<>");
    } else if (c == '!' && i + 1 < n && sql[i + 1] == '=') {
      tok.kind = TokKind::kSymbol;
      tok.text = "<>";  // normalize
      i += 2;
      tokens.push_back(tok);
    } else if (c == '(' || c == ')' || c == ',' || c == '*' || c == '.' ||
               c == '=' || c == '<' || c == '>') {
      tok.kind = TokKind::kSymbol;
      tok.text = std::string(1, c);
      ++i;
      tokens.push_back(tok);
    } else {
      return error("unexpected character", i);
    }
  }

  Token end;
  end.kind = TokKind::kEnd;
  end.offset = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace xprs
