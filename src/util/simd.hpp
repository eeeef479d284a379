// Whether the build targets the AVX-512 subset the sliced Dcsr paths use
// (-march=native on such a host). Code under SPMV_AVX512_SLICES handles
// float only and gives the same bits as the portable code beside it.
#pragma once

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)
#include <immintrin.h>
#define SPMV_AVX512_SLICES 1
#endif
