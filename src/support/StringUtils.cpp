//===- support/StringUtils.cpp - Small string helpers --------------------===//

#include "support/StringUtils.h"

#include <cctype>

using namespace temos;

std::string temos::trim(const std::string &Text) {
  size_t Begin = 0;
  size_t End = Text.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  while (End > Begin && std::isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

std::vector<std::string> temos::split(const std::string &Text,
                                      char Separator) {
  std::vector<std::string> Pieces;
  size_t Start = 0;
  for (size_t I = 0; I <= Text.size(); ++I) {
    if (I == Text.size() || Text[I] == Separator) {
      Pieces.push_back(Text.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  return Pieces;
}

std::string temos::join(const std::vector<std::string> &Pieces,
                        const std::string &Separator) {
  std::string Result;
  for (size_t I = 0; I < Pieces.size(); ++I) {
    if (I != 0)
      Result += Separator;
    Result += Pieces[I];
  }
  return Result;
}

std::string temos::fileSafeName(const std::string &Name) {
  std::string Safe;
  for (char C : Name)
    Safe += (std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
             C == '-')
                ? C
                : '_';
  return Safe;
}
