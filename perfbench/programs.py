"""The runnable programs of the `kernels` and `memo` workloads.

Each program is a runnable end-to-end fixture of the purec test suite
(the `kRun*` programs) at benchmark scale: only the size constants and the
input data change. The input data are the same deterministic fill loops
with coefficients drawn from the workload seed, chosen so every value is
exact in any summation order (small integer multiples of a power of two),
so the parallel binary must print byte-for-byte what the serial reference
prints.

Each program also carries a cost model for the host report: the flops it
computes per run, the bytes its kernel loops move, and the bytes of its
arrays (its working set).
"""

import random
import re
from string import Template

# (name, purecc flags, source template, size constants, model)
# `model(sizes)` returns (flops, streamed_bytes, working_set_bytes,
# sweeps): streamed bytes count every array pass of the kernel loops;
# when the working set fits the last-level cache, only one pass has to
# come from memory.

MATMUL = Template(r"""
#include <stdio.h>
#include <stdlib.h>

float **A, **Bt, **C;

pure float mult(float a, float b) {
  return a * b;
}

pure float dot(pure float* a, pure float* b, int size) {
  float res = 0.0f;
  for (int i = 0; i < size; ++i)
    res += mult(a[i], b[i]);
  return res;
}

int main(int argc, char** argv) {
  int n = $n;
  A = (float**)malloc(n * sizeof(float*));
  Bt = (float**)malloc(n * sizeof(float*));
  C = (float**)malloc(n * sizeof(float*));
  for (int i = 0; i < n; i++) {
    A[i] = (float*)malloc(n * sizeof(float));
    Bt[i] = (float*)malloc(n * sizeof(float));
    C[i] = (float*)malloc(n * sizeof(float));
  }
  for (int i = 0; i < n; i++) {
    for (int j = 0; j < n; j++) {
      A[i][j] = (float)((i * $a1 + j * $a2 + $a3) % 11) * 0.25f;
      Bt[i][j] = (float)((i * $b1 + j * $b2 + $b3) % 13) * 0.5f;
      C[i][j] = 0.0f;
    }
  }
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      checksum += (double)C[i][j] * ((i + 2 * j) % 5);
  printf("checksum %.6f\n", checksum);
  return 0;
}
""")

HEAT = Template(r"""
#include <stdio.h>
#include <stdlib.h>

float **cur, **nxt;

pure float stencil(pure float** g, int i, int j) {
  return 0.25f * (g[i - 1][j] + g[i + 1][j] + g[i][j - 1] + g[i][j + 1]);
}

void step(int n) {
  for (int i = 1; i < n - 1; i++)
    for (int j = 1; j < n - 1; j++)
      nxt[i][j] = stencil((pure float**)cur, i, j);
}

int main() {
  int n = $n;
  cur = (float**)malloc(n * sizeof(float*));
  nxt = (float**)malloc(n * sizeof(float*));
  for (int i = 0; i < n; i++) {
    cur[i] = (float*)malloc(n * sizeof(float));
    nxt[i] = (float*)malloc(n * sizeof(float));
    for (int j = 0; j < n; j++) {
      cur[i][j] = (float)((i * $a1 + j * $a2 + $a3) % 19) * 0.125f;
      nxt[i][j] = cur[i][j];
    }
  }
  for (int s = 0; s < $steps; s++) {
    step(n);
    float** t = cur;
    cur = nxt;
    nxt = t;
  }
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      checksum += (double)cur[i][j] * ((i + 3 * j) % 7);
  printf("checksum %.6f\n", checksum);
  return 0;
}
""")

ELL = Template(r"""
#include <stdio.h>
#include <stdlib.h>

pure float ell_row_dot(pure float* values, pure int* cols, pure float* x,
                       int row, int rows, int width) {
  float sum = 0.0f;
  for (int k = 0; k < width; k++) {
    sum += values[k * rows + row] * x[cols[k * rows + row]];
  }
  return sum;
}

void ell_spmv(float* values, int* cols, float* x, float* y, int rows,
              int width) {
  for (int i = 0; i < rows; i++) {
    y[i] = ell_row_dot((pure float*)values, (pure int*)cols, (pure float*)x,
                       i, rows, width);
  }
}

int main() {
  int rows = $rows;
  int width = $width;
  float* values = (float*)malloc(rows * width * sizeof(float));
  int* cols = (int*)malloc(rows * width * sizeof(int));
  float* x = (float*)malloc(rows * sizeof(float));
  float* y = (float*)malloc(rows * sizeof(float));
  for (int row = 0; row < rows; row++) {
    for (int k = 0; k < width; k++) {
      values[k * rows + row] = (float)((row * $a1 + k * $a2 + $a3) % 9) * 0.5f;
      cols[k * rows + row] = (row * $c1 + k * $c2) % rows;
    }
    x[row] = (float)((row * $x1 + $x2) % 7) * 0.25f;
    y[row] = 0.0f;
  }
  ell_spmv(values, cols, x, y, rows, width);
  double checksum = 0.0;
  for (int i = 0; i < rows; i++) checksum += (double)y[i] * (i % 5);
  printf("checksum %.6f\n", checksum);
  return 0;
}
""")

SATELLITE = Template(r"""
#include <stdio.h>
#include <stdlib.h>

pure float retrieve_aod(pure float* bands, int nbands, int pixel) {
  float acc = 0.0f;
  for (int b = 0; b < nbands; b++) {
    float v = bands[b * $stride + pixel];
    if (v > 0.5f)
      acc += v * v;
    else
      acc += v;
  }
  return acc;
}

void filter(float* bands, float* out, int nbands, int npix) {
  for (int p = 0; p < npix; p++) {
    out[p] = retrieve_aod((pure float*)bands, nbands, p);
  }
}

int main() {
  int nbands = $nbands;
  int npix = $npix;
  float* bands = (float*)malloc(nbands * $stride * sizeof(float));
  float* out = (float*)malloc(npix * sizeof(float));
  for (int b = 0; b < nbands; b++)
    for (int p = 0; p < $stride; p++)
      bands[b * $stride + p] = (float)((b * $a1 + p * $a2 + $a3) % 13) * 0.125f;
  for (int p = 0; p < npix; p++) out[p] = 0.0f;
  filter(bands, out, nbands, npix);
  double checksum = 0.0;
  for (int p = 0; p < npix; p++) checksum += (double)out[p] * (p % 11);
  printf("checksum %.6f\n", checksum);
  return 0;
}
""")

IMPERFECT_NEST = Template(r"""
#include <stdio.h>
#include <stdlib.h>

pure float cell(float v, int j) { return v * (float)(j + 1) + 1.0f; }

void row_scan(float* s, float** g, int n, int m) {
  for (int i = 0; i < n; i++) {
    s[i] = 0.0f;
    for (int j = 0; j < m; j++)
      s[i] = s[i] + cell(g[i][j], j);
    s[i] = s[i] * 0.25f;
  }
}

int main() {
  int n = $n;
  int m = $m;
  float* s = (float*)malloc(n * sizeof(float));
  float** g = (float**)malloc(n * sizeof(float*));
  for (int i = 0; i < n; i++) {
    s[i] = 0.0f;
    g[i] = (float*)malloc(m * sizeof(float));
    for (int j = 0; j < m; j++)
      g[i][j] = (float)((i * $a1 + j * $a2 + $a3) % 11) * 0.0625f;
  }
  row_scan(s, g, n, m);
  double checksum = 0.0;
  for (int i = 0; i < n; i++) checksum += (double)s[i] * (i % 7);
  printf("checksum %.6f\n", checksum);
  return 0;
}
""")

DOT_REDUCE = Template(r"""
#include <stdio.h>
#include <stdlib.h>

float mult(float a, float b) {
  return a * b;
}

void dot(float* a, float* b, float* out, int n) {
  float sum = 0.0f;
  for (int i = 0; i < n; i++) {
    sum = sum + mult(a[i], b[i]);
  }
  out[0] = sum;
}

int main() {
  int n = $n;
  float* a = (float*)malloc(n * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  float* out = (float*)malloc(1 * sizeof(float));
  for (int i = 0; i < n; i++) {
    a[i] = (float)((i * $a1 + $a2) % 3);
    b[i] = (float)((i * $b1 + $b2) % 3);
  }
  dot(a, b, out, n);
  printf("checksum %.6f\n", (double)out[0]);
  return 0;
}
""")

# The memo workload's key stream: about 80% of the calls draw from a hot
# set that fits the emitted table (PUREC_MEMO_CAP defaults to 65536
# slots), the rest from a cold key space 16x larger than the table, so
# probe hits, inserts and clock evictions all run.
TABULATE_MEMO = Template(r"""
#include <stdio.h>
#include <stdlib.h>

float gain;

pure float shade(int v) {
  float x = (float)v * 0.0625f + 1.0f;
  float y = x;
  for (int k = 0; k < $rounds; k++)
    y = 0.5f * (y + x / y);
  return y * gain;
}

void render(int* vals, float* out, int n) {
  for (int p = 0; p < n; p++)
    out[p] = shade(vals[p]);
}

int main() {
  int n = $n;
  int* vals = (int*)malloc(n * sizeof(int));
  float* out = (float*)malloc(n * sizeof(float));
  gain = 0.75f;
  unsigned state = $state;
  for (int i = 0; i < n; i++) {
    state = state * 1103515245u + 12345u;
    unsigned r = state >> 7;
    vals[i] = r % 10u < 8u ? (int)((r / 10u) % $hot)
                           : $hot + (int)((r / 10u) % $cold);
  }
  for (int i = 0; i < n; i++) out[i] = 0.0f;
  render(vals, out, n);
  double checksum = 0.0;
  for (int i = 0; i < n; i++) checksum += (double)out[i] * (i % 9);
  printf("checksum %.6f\n", checksum);
  return 0;
}
""")


class Program:
    def __init__(self, name, template, flags, sizes, tiny, coeffs, model):
        self.name = name
        self.template = template
        self.flags = flags
        self.sizes = sizes
        self.tiny = tiny
        self.coeffs = coeffs
        self.model = model

    def source(self, seed, tiny=False):
        rng = random.Random(f"{seed}:{self.name}")
        values = dict(self.tiny if tiny else self.sizes)
        for key, choices in self.coeffs.items():
            values[key] = rng.choice(choices)
        return self.template.substitute(values)

    def cost(self, tiny=False):
        return self.model(self.tiny if tiny else self.sizes)


def _matmul(s):
    n = s["n"]
    return 2 * n ** 3, 3 * 4 * n * n, 3 * 4 * n * n, 1


def _heat(s):
    n, steps = s["n"], s["steps"]
    return 5 * steps * n * n, steps * 2 * 4 * n * n, 2 * 4 * n * n, steps


def _ell(s):
    rows, width = s["rows"], s["width"]
    ws = rows * width * 8 + rows * 8
    return 2 * rows * width, rows * width * 12 + rows * 4, ws, 1


def _satellite(s):
    nb, npix, stride = s["nbands"], s["npix"], s["stride"]
    streamed = nb * npix * 4 + npix * 4
    return 2 * nb * npix, streamed, nb * stride * 4 + npix * 4, 1


def _imperfect(s):
    n, m = s["n"], s["m"]
    return 3 * n * m + n, n * m * 4 + n * 8, n * m * 4 + n * 4, 1


def _dot(s):
    n = s["n"]
    return 2 * n, 8 * n, 8 * n, 1


def _tabulate(s):
    n = s["n"]
    # one multiply-add, `rounds` (add, divide, multiply) rounds, a multiply
    return (3 + 3 * s["rounds"]) * n, 8 * n, 8 * n, 1


# Primes coprime to every fill modulus, so no fill degenerates.
_MUL = (23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_OFF = range(0, 1001)

KERNELS = [
    Program("matmul", MATMUL, [], {"n": 640}, {"n": 24},
            {"a1": _MUL, "a2": _MUL, "a3": _OFF,
             "b1": _MUL, "b2": _MUL, "b3": _OFF}, _matmul),
    Program("heat", HEAT, [], {"n": 1536, "steps": 40}, {"n": 24, "steps": 2},
            {"a1": _MUL, "a2": _MUL, "a3": _OFF}, _heat),
    Program("ell", ELL, [], {"rows": 1 << 20, "width": 12},
            {"rows": 64, "width": 4},
            {"a1": _MUL, "a2": _MUL, "a3": _OFF, "c1": _MUL, "c2": _MUL,
             "x1": _MUL, "x2": _OFF}, _ell),
    Program("satellite", SATELLITE, [],
            {"nbands": 16, "npix": 1 << 20, "stride": 1 << 20},
            {"nbands": 4, "npix": 64, "stride": 64},
            {"a1": _MUL, "a2": _MUL, "a3": _OFF}, _satellite),
    Program("imperfect_nest", IMPERFECT_NEST, [], {"n": 16384, "m": 1024},
            {"n": 16, "m": 8},
            {"a1": _MUL, "a2": _MUL, "a3": _OFF}, _imperfect),
    Program("dot_reduce", DOT_REDUCE, ["--infer-pure", "--fp-reductions"],
            {"n": 1 << 22}, {"n": 256},
            {"a1": _MUL, "a2": _OFF, "b1": _MUL, "b2": _OFF}, _dot),
]

MEMO = [
    Program("tabulate_memo", TABULATE_MEMO, ["--memoize"],
            {"n": 1 << 23, "hot": 16384, "cold": 1 << 20, "rounds": 32},
            {"n": 4096, "hot": 64, "cold": 4096, "rounds": 8},
            {"state": range(1, 1 << 30)}, _tabulate),
]

WORKLOAD_PROGRAMS = {"kernels": KERNELS, "memo": MEMO}

_FUNCTION_PURE = re.compile(r"^pure\s+", re.MULTILINE)
_POINTER_PURE = re.compile(r"\bpure\b")


def lower_pure(source):
    """The serial reference: `pure` lowered by text substitution, never
    through purecc. Function-level `pure` (at the start of a definition)
    is dropped; pointer-level `pure` becomes `const`, as in the paper's
    lowering."""
    return _POINTER_PURE.sub("const", _FUNCTION_PURE.sub("", source))
