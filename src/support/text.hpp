// Small text utilities used by the parsers and the report/table printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace pscp {

[[nodiscard]] std::string_view trim(std::string_view s);
[[nodiscard]] std::vector<std::string> splitOn(std::string_view s, char sep);
[[nodiscard]] std::string joinWith(const std::vector<std::string>& parts,
                                   std::string_view sep);
[[nodiscard]] std::string toUpper(std::string_view s);
[[nodiscard]] bool isIdentifier(std::string_view s);

/// Fixed-width column formatting for the table printers ("Table 3"-style
/// ASCII reports). Pads with spaces; never truncates.
[[nodiscard]] std::string padRight(std::string_view s, size_t width);
[[nodiscard]] std::string padLeft(std::string_view s, size_t width);

/// Renders rows as an aligned ASCII table with a header separator.
[[nodiscard]] std::string renderTable(
    const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows);

}  // namespace pscp
