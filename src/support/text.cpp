#include "support/text.hpp"

#include <algorithm>
#include <cctype>

namespace pscp {

std::string_view trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> splitOn(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string joinWith(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string toUpper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return out;
}

bool isIdentifier(std::string_view s) {
  if (s.empty()) return false;
  if (std::isalpha(static_cast<unsigned char>(s[0])) == 0 && s[0] != '_') return false;
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isalnum(c) != 0 || c == '_';
  });
}

std::string padRight(std::string_view s, size_t width) {
  std::string out(s);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::string padLeft(std::string_view s, size_t width) {
  std::string out;
  if (s.size() < width) out.append(width - s.size(), ' ');
  out += s;
  return out;
}

std::string renderTable(const std::vector<std::string>& header,
                        const std::vector<std::vector<std::string>>& rows) {
  std::vector<size_t> widths(header.size());
  for (size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& row : rows)
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto renderRow = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < widths.size(); ++c) {
      line += "| ";
      line += padRight(c < row.size() ? row[c] : "", widths[c]);
      line += ' ';
    }
    line += "|\n";
    return line;
  };

  std::string out = renderRow(header);
  std::string sep;
  for (size_t c = 0; c < widths.size(); ++c) {
    sep += '|';
    sep.append(widths[c] + 2, '-');
  }
  sep += "|\n";
  out += sep;
  for (const auto& row : rows) out += renderRow(row);
  return out;
}

}  // namespace pscp
