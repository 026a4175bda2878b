"""Seeded generator of the `compile` workload's translation units.

Each unit is a small pure-annotated C file built from the shapes the
purec fixtures cover: perfect nests, guarded and imperfect region nests,
sibling loops (fusion candidates), scalar reductions, pure calls with
pointer arguments, `while` loops, loops needing fission or scalar
privatization, triangular nests, and a memoizable callee. The seed picks
which shapes a unit holds, their order, identifiers and constants, so
unit sizes vary and the per-unit compile times form a distribution.
"""

import random

# Every unit goes through the chain in each of these purecc configs.
CONFIGS = {
    "default": [],
    "sica": ["--mode", "sica"],
    "infer": ["--infer-pure", "--fp-reductions"],
    "memoize": ["--memoize"],
}

# Pure callees; a unit carries the ones its kernels call.
HELPERS = {
    "f_scale": "pure float f_scale(float v) { return $c1 * v + $c2; }\n",
    "f_blend": "pure float f_blend(float u, float v) "
               "{ return $c3 * u + $c4 * v; }\n",
    "f_cell": "pure float f_cell(float v, int j) "
              "{ return v * (float)(j + $k1) + $c2; }\n",
    "f_weight": "pure int f_weight(int v) { return v * v + $k2; }\n",
    "f_shade": r"""float gain;

pure float f_shade(int v) {
  float x = (float)v * $c5 + 1.0f;
  float y = x;
  for (int k = 0; k < $k3; k++)
    y = 0.5f * (y + x / y);
  return y * gain;
}
""",
    "f_rowdot": r"""pure float f_rowdot(pure float* v, pure int* c, pure float* x, int row,
                    int rows, int w) {
  float sum = 0.0f;
  for (int k = 0; k < w; k++)
    sum += v[k * rows + row] * x[c[k * rows + row]];
  return sum;
}
""",
    "f_stencil": r"""pure float f_stencil(pure float** g, int i, int j) {
  return $c3 * (g[i - 1][j] + g[i + 1][j] + g[i][j - 1] + g[i][j + 1]);
}
""",
    "f_dot": r"""pure float f_dot(pure float* a, pure float* b, int size) {
  float res = 0.0f;
  for (int i = 0; i < size; ++i)
    res += a[i] * b[i];
  return res;
}
""",
    # Keyword-free: only --infer-pure sees that it is pure.
    "f_plain": "float f_plain(float a, float b) { return a * b + $c4; }\n",
}

SHAPES = {
    "perfect": r"""
void $fn(float** a, float** b, int n, int m) {
  for (int $i = $lo; $i < n - $k1; $i++)
    for (int $j = 0; $j < m; $j++)
      a[$i][$j] = f_scale(b[$i][$j]) + $c1;
}
""",
    "stencil": r"""
void $fn(float** nxt, float** cur, int n) {
  for (int $i = 1; $i < n - 1; $i++)
    for (int $j = 1; $j < n - 1; $j++)
      nxt[$i][$j] = f_stencil((pure float**)cur, $i, $j);
}
""",
    "guarded": r"""
void $fn(float* a, float* b, float* c, float* x, int n, int m) {
  for (int $i = 0; $i < n; $i++) {
    if ($i < m)
      a[$i] = f_scale(x[$i]);
    else
      b[$i] = f_blend(x[$i], $c2);
    c[$i] = a[$i + m] + b[$i];
  }
}
""",
    "imperfect": r"""
void $fn(float* s, float** g, int n, int m) {
  for (int $i = 0; $i < n; $i++) {
    s[$i] = 0.0f;
    for (int $j = 0; $j < m; $j++)
      s[$i] = s[$i] + f_cell(g[$i][$j], $j);
    s[$i] = s[$i] * $c3;
  }
}
""",
    "siblings": r"""
void $fn(float* a, float* b, float* x, int n) {
  for (int $i = 0; $i < n; $i++)
    a[$i] = f_scale(x[$i]);
  for (int $j = 0; $j < n; $j++)
    b[$j] = f_blend(x[$j], $c1);
}
""",
    "float_reduce": r"""
void $fn(float* a, float* b, float* out, int n) {
  float sum = 0.0f;
  for (int $i = 0; $i < n; $i++) {
    sum = sum + f_plain(a[$i], b[$i]);
  }
  out[0] = sum;
}
""",
    "int_reduce": r"""
void $fn(int** g, int* h, int* res, int n, int cut) {
  int total = 0;
  for (int $i = 0; $i < n; $i++) {
    h[$i] = g[$i][0];
    for (int $j = 0; $j < n; $j++) {
      if ($j < $i + cut) {
        total = total + f_weight(g[$i][$j]);
      }
    }
  }
  res[0] = total;
}
""",
    "pointer_call": r"""
void $fn(float* v, int* c, float* x, float* y, int rows, int w) {
  for (int $i = 0; $i < rows; $i++) {
    y[$i] = f_rowdot((pure float*)v, (pure int*)c, (pure float*)x, $i, rows,
                     w);
  }
}
""",
    "matmul": r"""
void $fn(float** A, float** Bt, float** C, int n) {
  for (int $i = 0; $i < n; ++$i)
    for (int $j = 0; $j < n; ++$j)
      C[$i][$j] = f_dot((pure float*)A[$i], (pure float*)Bt[$j], n);
}
""",
    "while": r"""
void $fn(float* out, float* p, float* q, int n) {
  int $i = $lo;
  while ($i < n) {
    out[$i] = f_blend(p[$i], q[$i]);
    $i = $i + 1;
  }
}
""",
    "memo": r"""
void $fn(int* vals, float* out, int n) {
  for (int $i = 0; $i < n; $i++)
    out[$i] = f_shade(vals[$i]);
}
""",
    "fission": r"""
void $fn(float* acc, float* out, float* in, int n) {
  for (int $i = 0; $i < n; $i++) {
    if ($i > 0)
      acc[$i] = acc[$i - 1] + in[$i];
    out[$i] = f_scale(in[$i]);
  }
}
""",
    "private": r"""
void $fn(float** out, float* in, float* w, int n, int m) {
  float t;
  for (int $i = 0; $i < n; $i++) {
    t = f_scale(in[$i]);
    for (int $j = 0; $j < m; $j++)
      out[$i][$j] = t * w[$j];
  }
}
""",
    "triangular": r"""
void $fn(float** L, float** U, int n) {
  for (int $i = 0; $i < n; $i++)
    for (int $j = 0; $j <= $i; $j++)
      L[$i][$j] = f_blend(U[$i][$j], U[$j][$i]);
}
""",
    "time_stencil": r"""
void $fn(float* a, int steps, int n) {
  for (int t = 0; t < steps; t++)
    for (int $i = 1; $i < n - 1; $i++)
      a[$i] = $c3 * (a[$i - 1] + a[$i] + a[$i + 1]);
}
""",
}

# Loop iterators; none collides with a parameter name of SHAPES.
_ITERS = ["i", "j", "ii", "jj", "i1", "j1", "ix", "jx", "row", "col", "idx",
          "pos"]


def _constant(rng):
    return f"{rng.randint(1, 63) / 16:.4f}f"


def _fill(template, rng, **extra):
    """Substitutes $name placeholders with seeded constants."""
    values = {
        "c1": _constant(rng), "c2": _constant(rng), "c3": _constant(rng),
        "c4": _constant(rng), "c5": _constant(rng),
        "k1": str(rng.randint(1, 9)), "k2": str(rng.randint(1, 99)),
        "k3": str(rng.randint(4, 16)), "lo": str(rng.randint(0, 3)),
    }
    values.update(extra)
    out = template
    # Longest names first, so $c1 never eats the prefix of a longer name.
    for key in sorted(values, key=len, reverse=True):
        out = out.replace("$" + key, values[key])
    return out


def unit(rng, index):
    """One translation unit: includes, a macro, then 2-6 kernel functions
    drawn from SHAPES, after the pure callees they use."""
    names = sorted(SHAPES)
    kernels = []
    for k in range(rng.randint(2, 6)):
        shape = rng.choice(names)
        i, j = rng.sample(_ITERS, 2)
        kernels.append(_fill(SHAPES[shape], rng, fn=f"k{k}_{shape}", i=i,
                             j=j))
    body = "".join(kernels)
    callees = [_fill(text, rng) for name, text in HELPERS.items()
               if name + "(" in body]
    return ("#include <stdio.h>\n#include <stdlib.h>\n"
            f"#define UNIT_ID {index}\n\n" + "\n".join(callees) + body
            + "\nint unit_id(void) { return UNIT_ID; }\n")


def generate(seed, count):
    """`count` units as (name, source) pairs; the same seed gives the same
    units."""
    rng = random.Random(f"{seed}:compile")
    return [(f"u{index:05d}", unit(rng, index)) for index in range(count)]
