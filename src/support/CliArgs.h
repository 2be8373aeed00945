//===- CliArgs.h - Strict flag-value parsing for the tool mains -*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One flag-parsing helper shared by the slam/c2bp/bebop mains. The
/// mains used to funnel numeric flags through atoi, which silently
/// turns `--max-iters banana` into 0; these helpers accept exactly the
/// decimal integers that fit the flag's int and report everything else
/// as a usage error naming the flag, rather than truncating it.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_CLIARGS_H
#define SUPPORT_CLIARGS_H

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

namespace slam {
namespace cli {

/// Strict decimal integer: optional sign, then digits, nothing else.
inline bool parseInt(const char *Text, long long &Out) {
  if (!Text || !*Text)
    return false;
  char *End = nullptr;
  errno = 0;
  long long V = std::strtoll(Text, &End, 10);
  if (errno == ERANGE || End == Text || *End != '\0')
    return false;
  Out = V;
  return true;
}

/// Parses \p Text as the int value of \p Flag, in [Min, INT_MAX]; on
/// failure prints "<tool>: invalid value ..." or "<tool>: value ... is
/// below/above ..." to stderr and returns false (the main should exit 2).
inline bool intArg(const char *Tool, const char *Flag, const char *Text,
                   int Min, int &Out) {
  long long V;
  if (!parseInt(Text, V)) {
    std::fprintf(stderr, "%s: invalid value '%s' for %s (expected an integer)\n",
                 Tool, Text ? Text : "", Flag);
    return false;
  }
  if (V < Min) {
    std::fprintf(stderr, "%s: value %lld for %s is below the minimum %d\n",
                 Tool, V, Flag, Min);
    return false;
  }
  if (V > INT_MAX) {
    std::fprintf(stderr, "%s: value %lld for %s is above the maximum %d\n",
                 Tool, V, Flag, INT_MAX);
    return false;
  }
  Out = static_cast<int>(V);
  return true;
}

} // namespace cli
} // namespace slam

#endif // SUPPORT_CLIARGS_H
