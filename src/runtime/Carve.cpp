//===- runtime/Carve.cpp --------------------------------------------------===//

#include "runtime/Carve.h"

#include <cstdio>
#include <cstdlib>

using namespace tfgc;

void tfgc::evacuationOverflow(const char *Target, size_t Words) {
  // Hard abort, not assert(): an evacuation past the reserve would write
  // into a neighbouring allocation in release builds too.
  std::fprintf(stderr,
               "tfgc: fatal: evacuating %zu words would overflow the %s "
               "past its reserve.\n",
               Words, Target);
  std::abort();
}
