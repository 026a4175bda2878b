// The paper's listings and evaluation kernels as C fixtures, shared by the
// unit and integration tests.
#pragma once

namespace purec::testsrc {

/// Listing 1 / Listing 7: the paper's matrix-matrix multiplication with a
/// pure dot product (reduced to N=xN so tests stay fast; the bench harness
/// uses the full sizes).
inline constexpr const char* kMatmul = R"(
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
  for (int i = 0; i < 64; ++i)
    for (int j = 0; j < 64; ++j)
      C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], 64);
  return 0;
}
)";

/// Listing 2: valid and invalid operations inside a pure function.
inline constexpr const char* kListing2 = R"(
int* globalPtr;

void func1();
pure int* func2(pure int* p1, int p2);

pure int* func2(pure int* p1, int p2) {
  int a = p2;
  int b = a + 42;
  int* c = (int*)malloc(3 * sizeof(int));
  pure int* ptr = p1;
  int* extPtr1 = globalPtr;
  pure int* extPtr2;
  extPtr2 = (pure int*)globalPtr;
  func1();
  pure int* extPtr3;
  extPtr3 = (pure int*)func2(p1, p2);
  return c;
}
)";

/// Listing 2 with the two invalid lines removed: must verify cleanly.
inline constexpr const char* kListing2Valid = R"(
int* globalPtr;

pure int* func2(pure int* p1, int p2);

pure int* func2(pure int* p1, int p2) {
  int a = p2;
  int b = a + 42;
  int* c = (int*)malloc(3 * sizeof(int));
  pure int* ptr = p1;
  pure int* extPtr2;
  extPtr2 = (pure int*)globalPtr;
  pure int* extPtr3;
  extPtr3 = (pure int*)func2(p1, p2);
  return c;
}
)";

/// Listing 5: pure function whose argument array is also the write target
/// of the surrounding loop -> the chain must reject it.
inline constexpr const char* kListing5 = R"(
pure int func(pure int* a, int idx) {
  return a[idx - 1] + a[idx];
}

int main() {
  int array[100];
  for (int i = 1; i < 100; i++) {
    array[i] = func(array, i);
  }
  return 0;
}
)";

/// Listing 6: the alias evasion. The checker compares names only, so it
/// raises no error (§3.4). The chain keeps the loop serial: iteration i
/// reads array[i - 1], which iteration i - 1 wrote through the alias.
inline constexpr const char* kListing6 = R"(
pure int func(pure int* a, int idx) {
  return a[idx - 1] + a[idx];
}

int main() {
  int array[100];
  int* alias = array;
  for (int i = 1; i < 100; i++) {
    alias[i] = func(array, i);
  }
  return 0;
}
)";

/// Heat-distribution kernel (two-grid Jacobi step) with the stencil moved
/// into a pure function, as in the paper's second application.
inline constexpr const char* kHeat = R"(
float **cur, **nxt;

pure float stencil(pure float** g, int i, int j) {
  return 0.25f * (g[i - 1][j] + g[i + 1][j] + g[i][j - 1] + g[i][j + 1]);
}

void step(int n) {
  for (int i = 1; i < n - 1; i++)
    for (int j = 1; j < n - 1; j++)
      nxt[i][j] = stencil((pure float**)cur, i, j);
}
)";

/// A 1-D in-place time stencil: the Fig. 2 case that needs skewing before
/// any tiling/parallelization is legal.
inline constexpr const char* kTimeStencil = R"(
void smooth(float* a, int steps, int n) {
  for (int t = 0; t < steps; t++)
    for (int i = 1; i < n - 1; i++)
      a[i] = 0.33f * (a[i - 1] + a[i] + a[i + 1]);
}
)";

/// ELL sparse matrix-vector multiply with the row dot product as a pure
/// function (the LAMA application): indirect addressing lives inside the
/// pure function, so the marked loop is affine after substitution.
inline constexpr const char* kEll = R"(
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
)";

/// Satellite-style per-pixel filter: a complex pure function applied to
/// every pixel of an image.
inline constexpr const char* kSatellite = R"(
pure float retrieve_aod(pure float* bands, int nbands, int pixel) {
  float acc = 0.0f;
  for (int b = 0; b < nbands; b++) {
    float v = bands[b * 4096 + pixel];
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
)";

/// The keyword-free twin of kMatmul: no `pure` anywhere. Opaque to the
/// paper's chain (dot is unverified, so the product loop never marks);
/// under --infer-pure the call-graph effect analysis proves mult and dot
/// pure and the loop parallelizes exactly like the annotated twin.
inline constexpr const char* kMatmulPlain = R"(
float **A, **Bt, **C;

float mult(float a, float b) {
  return a * b;
}

float dot(float* a, float* b, int size) {
  float res = 0.0f;
  for (int i = 0; i < size; ++i)
    res += mult(a[i], b[i]);
  return res;
}

int main(int argc, char** argv) {
  for (int i = 0; i < 64; ++i)
    for (int j = 0; j < 64; ++j)
      C[i][j] = dot(A[i], Bt[j], 64);
  return 0;
}
)";

/// The keyword-free twin of kHeat for the inference path.
inline constexpr const char* kHeatPlain = R"(
float **cur, **nxt;

float stencil(float** g, int i, int j) {
  return 0.25f * (g[i - 1][j] + g[i + 1][j] + g[i][j - 1] + g[i][j + 1]);
}

void step(int n) {
  for (int i = 1; i < n - 1; i++)
    for (int j = 1; j < n - 1; j++)
      nxt[i][j] = stencil(cur, i, j);
}
)";

/// Matmul with the allocation loop included: reproduces the §4.3.1
/// accidental parallelization of the malloc loop.
inline constexpr const char* kMatmulWithInit = R"(
float **A;

void init(int n) {
  for (int i = 0; i < n; i++) {
    A[i] = (float*)malloc(n * sizeof(float));
  }
}
)";

}  // namespace purec::testsrc
