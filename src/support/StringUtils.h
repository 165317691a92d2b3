//===- support/StringUtils.h - Small string helpers ------------*- C++ -*-===//
///
/// \file
/// Minimal string helpers used across the project (trim/split/join and
/// the file-name sanitizer for the files the tools write).
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_SUPPORT_STRINGUTILS_H
#define TEMOS_SUPPORT_STRINGUTILS_H

#include <string>
#include <vector>

namespace temos {

/// Removes leading and trailing ASCII whitespace.
std::string trim(const std::string &Text);

/// Splits \p Text on \p Separator; empty pieces are kept.
std::vector<std::string> split(const std::string &Text, char Separator);

/// Joins \p Pieces with \p Separator between elements.
std::string join(const std::vector<std::string> &Pieces,
                 const std::string &Separator);

/// \p Name with every character outside [A-Za-z0-9_-] replaced by '_',
/// safe to embed in a file name.
std::string fileSafeName(const std::string &Name);

} // namespace temos

#endif // TEMOS_SUPPORT_STRINGUTILS_H
