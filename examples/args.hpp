// Positional arguments of the examples. Each one is parsed in full with
// util::parse_int and checked against its range; anything else prints
// "EXAMPLE: NAME: want an integer in LO..HI, got 'TEXT'" and exits 2.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "rainshine/util/strings.hpp"

namespace rainshine::examples {

/// argv[index] as an integer in [lo, hi]; `fallback` when it is absent.
inline int int_arg(int argc, char** argv, int index, const char* name, int lo,
                   int hi, int fallback) {
  if (index >= argc) return fallback;
  long long value = 0;
  if (!util::parse_int(argv[index], value) || value < lo || value > hi) {
    std::string_view program(argv[0]);
    program.remove_prefix(program.find_last_of('/') + 1);
    std::fprintf(stderr, "%.*s: %s: want an integer in %d..%d, got '%s'\n",
                 static_cast<int>(program.size()), program.data(), name, lo, hi,
                 argv[index]);
    std::exit(2);
  }
  return static_cast<int>(value);
}

}  // namespace rainshine::examples
