//===- Rational.h - Exact rational arithmetic -------------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact rationals over 64-bit integers (with 128-bit intermediates) for
/// the Simplex-based linear-arithmetic decision procedure. Program
/// constants are tiny, so this range is ample for well-formed queries;
/// when a computation does exceed it, the value becomes a sticky
/// "overflow" poison (checked unconditionally, in every build mode) that
/// Simplex surfaces as LinResult::Unknown — conservative, like budget
/// exhaustion — instead of silently truncating and answering wrong.
///
//===----------------------------------------------------------------------===//

#ifndef PROVER_RATIONAL_H
#define PROVER_RATIONAL_H

#include <cassert>
#include <cstdint>
#include <numeric>
#include <string>

namespace slam {
namespace prover {

/// An exact rational number num/den with den > 0, always normalized.
/// The reserved representation den == 0 is the overflow poison: any
/// operation with a poisoned operand (or whose result leaves the 64-bit
/// range) yields poison. `+`, `*` and `<` of two integers first try an
/// overflow-checked int64 fast path.
class Rational {
public:
  Rational() : Num(0), Den(1) {}
  Rational(int64_t Value) : Num(Value), Den(1) {}
  Rational(int64_t Num, int64_t Den) : Num(Num), Den(Den) { normalize(); }

  /// The overflow poison value.
  static Rational overflow() { return fromRaw(0, 0); }
  bool isOverflow() const { return Den == 0; }

  int64_t num() const { return Num; }
  int64_t den() const { return Den; }

  bool isInteger() const { return Den == 1; }
  bool isZero() const { return Den != 0 && Num == 0; }
  bool isNegative() const { return Num < 0; }
  bool isPositive() const { return Num > 0; }

  /// Largest integer <= this (0 for the overflow poison; callers must
  /// test isOverflow() before relying on the result).
  int64_t floor() const {
    if (isOverflow())
      return 0;
    if (Num >= 0)
      return Num / Den;
    return -((-Num + Den - 1) / Den);
  }

  /// Smallest integer >= this.
  int64_t ceil() const { return -(-*this).floor(); }

  Rational operator-() const {
    if (isOverflow() || Num == INT64_MIN)
      return overflow();
    return fromRaw(-Num, Den);
  }

  Rational operator+(const Rational &O) const {
    int64_t Sum;
    if (Den == 1 && O.Den == 1 && !__builtin_add_overflow(Num, O.Num, &Sum))
      return fromRaw(Sum, 1);
    if (isOverflow() || O.isOverflow())
      return overflow();
    __int128 N = (__int128)Num * O.Den + (__int128)O.Num * Den;
    __int128 D = (__int128)Den * O.Den;
    return fromWide(N, D);
  }

  Rational operator-(const Rational &O) const { return *this + (-O); }

  Rational operator*(const Rational &O) const {
    int64_t Product;
    if (Den == 1 && O.Den == 1 &&
        !__builtin_mul_overflow(Num, O.Num, &Product))
      return fromRaw(Product, 1);
    if (isOverflow() || O.isOverflow())
      return overflow();
    __int128 N = (__int128)Num * O.Num;
    __int128 D = (__int128)Den * O.Den;
    return fromWide(N, D);
  }

  Rational operator/(const Rational &O) const {
    assert(!O.isZero() && "division by zero");
    if (isOverflow() || O.isOverflow() || O.isZero())
      return overflow();
    __int128 N = (__int128)Num * O.Den;
    __int128 D = (__int128)Den * O.Num;
    if (D < 0) {
      N = -N;
      D = -D;
    }
    return fromWide(N, D);
  }

  Rational &operator+=(const Rational &O) { return *this = *this + O; }
  Rational &operator-=(const Rational &O) { return *this = *this - O; }
  Rational &operator*=(const Rational &O) { return *this = *this * O; }
  Rational &operator/=(const Rational &O) { return *this = *this / O; }

  bool operator==(const Rational &O) const {
    return Num == O.Num && Den == O.Den;
  }
  bool operator!=(const Rational &O) const { return !(*this == O); }
  bool operator<(const Rational &O) const {
    if (Den == 1 && O.Den == 1)
      return Num < O.Num;
    return (__int128)Num * O.Den < (__int128)O.Num * Den;
  }
  bool operator<=(const Rational &O) const { return !(O < *this); }
  bool operator>(const Rational &O) const { return O < *this; }
  bool operator>=(const Rational &O) const { return !(*this < O); }

  std::string str() const {
    if (isOverflow())
      return "overflow";
    if (Den == 1)
      return std::to_string(Num);
    return std::to_string(Num) + "/" + std::to_string(Den);
  }

private:
  static Rational fromRaw(int64_t Num, int64_t Den) {
    Rational R;
    R.Num = Num;
    R.Den = Den;
    return R;
  }

  static Rational fromWide(__int128 N, __int128 D) {
    if (D <= 0)
      return overflow();
    __int128 G = gcdWide(N < 0 ? -N : N, D);
    if (G > 1) {
      N /= G;
      D /= G;
    }
    if (N < INT64_MIN || N > INT64_MAX || D > INT64_MAX)
      return overflow();
    return fromRaw(static_cast<int64_t>(N), static_cast<int64_t>(D));
  }

  static __int128 gcdWide(__int128 A, __int128 B) {
    while (B != 0) {
      __int128 T = A % B;
      A = B;
      B = T;
    }
    return A == 0 ? 1 : A;
  }

  void normalize() {
    if (Den == 0) {
      Num = 0; // Canonical poison, however it was constructed.
      return;
    }
    if (Den < 0) {
      if (Num == INT64_MIN || Den == INT64_MIN) {
        Num = 0;
        Den = 0;
        return;
      }
      Num = -Num;
      Den = -Den;
    }
    // std::gcd over unsigned magnitudes so INT64_MIN cannot overflow
    // the negation.
    uint64_t Mag = Num < 0 ? ~static_cast<uint64_t>(Num) + 1
                           : static_cast<uint64_t>(Num);
    uint64_t G = std::gcd(Mag, static_cast<uint64_t>(Den));
    if (G > 1) {
      Num /= static_cast<int64_t>(G);
      Den /= static_cast<int64_t>(G);
    }
  }

  int64_t Num;
  int64_t Den;
};

} // namespace prover
} // namespace slam

#endif // PROVER_RATIONAL_H
