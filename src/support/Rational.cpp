//===- support/Rational.cpp - Exact rational arithmetic ------------------===//

#include "support/Rational.h"

#include <cstdlib>
#include <numeric>
#include <stdexcept>

using namespace temos;

namespace {

/// Narrows a 128-bit intermediate back to int64. Always checked: a
/// silent wrap here would corrupt simplex pivots and bound comparisons,
/// so overflow throws instead of being an NDEBUG-only assert.
int64_t narrow(__int128 Value) {
  if (Value > INT64_MAX || Value < INT64_MIN)
    throw RationalOverflow("rational arithmetic overflow");
  return static_cast<int64_t>(Value);
}

/// |x| as uint64, safe for INT64_MIN (whose int64 negation is UB).
uint64_t uabs64(int64_t X) {
  return X < 0 ? 0u - static_cast<uint64_t>(X) : static_cast<uint64_t>(X);
}

/// Checked int64 negation; -INT64_MIN does not fit.
int64_t negate64(int64_t X) {
  if (X == INT64_MIN)
    throw RationalOverflow("rational arithmetic overflow");
  return -X;
}

/// gcd for 128-bit intermediates; std::gcd does not accept __int128.
__int128 gcd128(__int128 A, __int128 B) {
  if (A < 0)
    A = -A;
  if (B < 0)
    B = -B;
  while (B != 0) {
    __int128 T = A % B;
    A = B;
    B = T;
  }
  return A;
}

} // namespace

Rational::Rational(int64_t Numerator, int64_t Denominator) {
  if (Denominator == 0)
    throw RationalOverflow("rational with zero denominator");
  // Canonicalize the sign into the numerator via uint64 magnitudes so
  // INT64_MIN inputs are caught by the narrow instead of hitting UB.
  uint64_t N = uabs64(Numerator);
  uint64_t D = uabs64(Denominator);
  bool Negative = (Numerator < 0) != (Denominator < 0);
  uint64_t G = std::gcd(N, D);
  if (G == 0)
    G = 1;
  N /= G;
  D /= G;
  if (D > static_cast<uint64_t>(INT64_MAX) ||
      N > static_cast<uint64_t>(INT64_MAX) + (Negative ? 1u : 0u))
    throw RationalOverflow("rational arithmetic overflow");
  Num = Negative ? static_cast<int64_t>(0u - N) : static_cast<int64_t>(N);
  Den = static_cast<int64_t>(D);
}

int64_t Rational::floor() const {
  if (Num >= 0)
    return Num / Den;
  // -((-Num + Den - 1) / Den) in 128-bit: -Num overflows int64 for
  // Num == INT64_MIN, and the sum can exceed int64 even when the
  // quotient fits.
  __int128 N = -static_cast<__int128>(Num);
  __int128 D = Den;
  return narrow(-((N + D - 1) / D));
}

int64_t Rational::ceil() const {
  if (Num <= 0) {
    // Truncation rounds toward zero, which is ceil for non-positives.
    return Num / Den;
  }
  __int128 N = Num;
  __int128 D = Den;
  return narrow((N + D - 1) / D);
}

Rational Rational::operator-() const {
  Rational R;
  R.Num = negate64(Num);
  R.Den = Den;
  return R;
}

Rational Rational::reduce(__int128 N, __int128 D) {
  Rational R;
  if (D == 1) {
    R.Num = narrow(N);
    return R;
  }
  if (N >= -INT64_MAX && N <= INT64_MAX && D <= INT64_MAX) {
    // Everything fits one word: the common case, without the 128-bit
    // division loop.
    int64_t N64 = static_cast<int64_t>(N), D64 = static_cast<int64_t>(D);
    int64_t G = static_cast<int64_t>(std::gcd(uabs64(N64), uint64_t(D64)));
    R.Num = N64 / G;
    R.Den = D64 / G;
    return R;
  }
  __int128 G = gcd128(N, D);
  R.Num = narrow(N / G);
  R.Den = narrow(D / G);
  return R;
}

Rational Rational::operator+(const Rational &RHS) const {
  if (Den == 1 && RHS.Den == 1) {
    Rational R;
    if (__builtin_add_overflow(Num, RHS.Num, &R.Num))
      throw RationalOverflow("rational arithmetic overflow");
    return R;
  }
  return reduce(static_cast<__int128>(Num) * RHS.Den +
                    static_cast<__int128>(RHS.Num) * Den,
                static_cast<__int128>(Den) * RHS.Den);
}

Rational Rational::operator-(const Rational &RHS) const {
  if (Den == 1 && RHS.Den == 1) {
    Rational R;
    if (__builtin_sub_overflow(Num, RHS.Num, &R.Num))
      throw RationalOverflow("rational arithmetic overflow");
    return R;
  }
  return reduce(static_cast<__int128>(Num) * RHS.Den -
                    static_cast<__int128>(RHS.Num) * Den,
                static_cast<__int128>(Den) * RHS.Den);
}

Rational Rational::operator*(const Rational &RHS) const {
  if (Den == 1 && RHS.Den == 1) {
    Rational R;
    if (__builtin_mul_overflow(Num, RHS.Num, &R.Num))
      throw RationalOverflow("rational arithmetic overflow");
    return R;
  }
  return reduce(static_cast<__int128>(Num) * RHS.Num,
                static_cast<__int128>(Den) * RHS.Den);
}

Rational Rational::operator/(const Rational &RHS) const {
  if (RHS.isZero())
    throw RationalOverflow("division by zero rational");
  // a/b / c/d = (a*d) / (b*c), with the sign moved into the numerator.
  __int128 N = static_cast<__int128>(Num) * RHS.Den;
  __int128 D = static_cast<__int128>(Den) * RHS.Num;
  if (D < 0) {
    N = -N;
    D = -D;
  }
  return reduce(N, D);
}

bool Rational::operator<(const Rational &RHS) const {
  if (Den == 1 && RHS.Den == 1)
    return Num < RHS.Num;
  return static_cast<__int128>(Num) * RHS.Den <
         static_cast<__int128>(RHS.Num) * Den;
}

bool Rational::operator<=(const Rational &RHS) const {
  if (Den == 1 && RHS.Den == 1)
    return Num <= RHS.Num;
  return static_cast<__int128>(Num) * RHS.Den <=
         static_cast<__int128>(RHS.Num) * Den;
}

std::string Rational::str() const {
  if (Den == 1)
    return std::to_string(Num);
  return std::to_string(Num) + "/" + std::to_string(Den);
}

bool Rational::parse(const std::string &Text, Rational &Out) {
  try {
    if (Text.empty())
      return false;
    // "n/d" form.
    if (auto Slash = Text.find('/'); Slash != std::string::npos) {
      errno = 0;
      char *End = nullptr;
      long long N = std::strtoll(Text.c_str(), &End, 10);
      if (End != Text.c_str() + Slash || errno != 0)
        return false;
      long long D = std::strtoll(Text.c_str() + Slash + 1, &End, 10);
      if (*End != '\0' || errno != 0 || D == 0)
        return false;
      Out = Rational(N, D);
      return true;
    }
    // "x.y" decimal form.
    if (auto Dot = Text.find('.'); Dot != std::string::npos) {
      std::string Whole = Text.substr(0, Dot);
      std::string Frac = Text.substr(Dot + 1);
      if (Frac.empty() || Frac.size() > 15)
        return false;
      for (char C : Frac)
        if (C < '0' || C > '9')
          return false;
      errno = 0;
      char *End = nullptr;
      long long W = std::strtoll(Whole.c_str(), &End, 10);
      if (*End != '\0' || errno != 0)
        return false;
      int64_t Scale = 1;
      for (size_t I = 0; I < Frac.size(); ++I)
        Scale *= 10;
      long long F = std::strtoll(Frac.c_str(), &End, 10);
      if (*End != '\0' || errno != 0)
        return false;
      bool Negative = !Whole.empty() && Whole[0] == '-';
      Out = Rational(W) + Rational(Negative ? -F : F, Scale);
      return true;
    }
    // Plain integer.
    errno = 0;
    char *End = nullptr;
    long long N = std::strtoll(Text.c_str(), &End, 10);
    if (*End != '\0' || End == Text.c_str() || errno != 0)
      return false;
    Out = Rational(N);
    return true;
  } catch (const RationalOverflow &) {
    // Values that canonicalize outside int64 range are malformed input,
    // not a crash.
    return false;
  }
}

std::string DeltaRational::str() const {
  if (Delta.isZero())
    return Real.str();
  return Real.str() + (Delta.isNegative() ? "" : "+") + Delta.str() + "d";
}
