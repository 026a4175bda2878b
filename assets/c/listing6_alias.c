/* Paper Listing 6: alias evasion of the Listing-5 rule. The checker
 * compares names only, so it raises no error (§3.4). purecc keeps the
 * loop serial: the pure call reads what the previous iteration wrote
 * through the alias. */
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
