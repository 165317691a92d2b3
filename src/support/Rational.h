//===- support/Rational.h - Exact rational arithmetic ----------*- C++ -*-===//
//
// Part of temoscpp, a reproduction of "Can Reactive Synthesis and
// Syntax-Guided Synthesis Be Friends?" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact rational numbers over 64-bit numerator/denominator with 128-bit
/// intermediates, plus DeltaRational (a + b*delta) used by the simplex
/// solver to represent strict inequality bounds exactly.
///
//===----------------------------------------------------------------------===//

#ifndef TEMOS_SUPPORT_RATIONAL_H
#define TEMOS_SUPPORT_RATIONAL_H

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

namespace temos {

/// Thrown when rational arithmetic leaves the int64 numerator or
/// denominator range (or divides by zero). Callers that must not throw
/// — notably the SMT entry points — catch this and degrade to an
/// Unknown verdict, which is always sound.
class RationalOverflow : public std::overflow_error {
public:
  using std::overflow_error::overflow_error;
};

/// An exact rational number. Always kept in canonical form: the
/// denominator is positive and gcd(|num|, den) == 1. Arithmetic checks
/// every 128→64-bit narrowing unconditionally (in release builds too)
/// and throws RationalOverflow instead of silently wrapping.
class Rational {
public:
  Rational() : Num(0), Den(1) {}
  Rational(int64_t Value) : Num(Value), Den(1) {}
  Rational(int64_t Numerator, int64_t Denominator);

  static Rational zero() { return Rational(0); }
  static Rational one() { return Rational(1); }

  int64_t numerator() const { return Num; }
  int64_t denominator() const { return Den; }

  bool isZero() const { return Num == 0; }
  bool isNegative() const { return Num < 0; }
  bool isPositive() const { return Num > 0; }
  bool isInteger() const { return Den == 1; }

  /// Largest integer <= this value.
  int64_t floor() const;
  /// Smallest integer >= this value.
  int64_t ceil() const;

  Rational operator-() const;
  Rational operator+(const Rational &RHS) const;
  Rational operator-(const Rational &RHS) const;
  Rational operator*(const Rational &RHS) const;
  /// Division; throws RationalOverflow when RHS == 0.
  Rational operator/(const Rational &RHS) const;

  Rational &operator+=(const Rational &RHS) { return *this = *this + RHS; }
  Rational &operator-=(const Rational &RHS) { return *this = *this - RHS; }
  Rational &operator*=(const Rational &RHS) { return *this = *this * RHS; }
  Rational &operator/=(const Rational &RHS) { return *this = *this / RHS; }

  bool operator==(const Rational &RHS) const {
    return Num == RHS.Num && Den == RHS.Den;
  }
  bool operator!=(const Rational &RHS) const { return !(*this == RHS); }
  bool operator<(const Rational &RHS) const;
  bool operator<=(const Rational &RHS) const;
  bool operator>(const Rational &RHS) const { return RHS < *this; }
  bool operator>=(const Rational &RHS) const { return RHS <= *this; }

  /// Renders "n" for integers and "n/d" otherwise.
  std::string str() const;

  /// Parses decimal integer or "n/d" or "x.y" decimal notation. Returns
  /// false on malformed input.
  static bool parse(const std::string &Text, Rational &Out);

  size_t hash() const {
    return std::hash<int64_t>()(Num) * 31 ^ std::hash<int64_t>()(Den);
  }

private:
  /// The canonical form of N / D for D > 0; throws RationalOverflow when
  /// it leaves the int64 range.
  static Rational reduce(__int128 N, __int128 D);

  int64_t Num;
  int64_t Den;
};

/// A value of the form A + B*delta where delta is a positive
/// infinitesimal. Used to encode strict bounds in the simplex solver:
/// x < c becomes x <= c - delta.
class DeltaRational {
public:
  DeltaRational() = default;
  DeltaRational(Rational Real) : Real(Real), Delta(0) {}
  DeltaRational(Rational Real, Rational Delta) : Real(Real), Delta(Delta) {}

  const Rational &real() const { return Real; }
  const Rational &delta() const { return Delta; }

  DeltaRational operator+(const DeltaRational &RHS) const {
    return DeltaRational(Real + RHS.Real, Delta + RHS.Delta);
  }
  DeltaRational operator-(const DeltaRational &RHS) const {
    return DeltaRational(Real - RHS.Real, Delta - RHS.Delta);
  }
  DeltaRational operator*(const Rational &Scale) const {
    return DeltaRational(Real * Scale, Delta * Scale);
  }

  bool operator==(const DeltaRational &RHS) const {
    return Real == RHS.Real && Delta == RHS.Delta;
  }
  bool operator!=(const DeltaRational &RHS) const { return !(*this == RHS); }
  bool operator<(const DeltaRational &RHS) const {
    if (Real != RHS.Real)
      return Real < RHS.Real;
    return Delta < RHS.Delta;
  }
  bool operator<=(const DeltaRational &RHS) const {
    return *this == RHS || *this < RHS;
  }
  bool operator>(const DeltaRational &RHS) const { return RHS < *this; }
  bool operator>=(const DeltaRational &RHS) const { return RHS <= *this; }

  std::string str() const;

private:
  Rational Real;
  Rational Delta;
};

} // namespace temos

#endif // TEMOS_SUPPORT_RATIONAL_H
