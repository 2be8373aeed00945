/* Array quicksort (Lomuto partition), recursive, with the array
   bounds assertions of Necula's PCC example. */
int arr[100];

void quicksort(int lo, int hi, int n) {
  int i;
  int p;
  int t;
  int pivot;
  if (lo < 0) { return; }
  if (hi >= n) { return; }
  if (lo >= hi) { return; }
  pivot = arr[hi];
  i = lo;
  p = lo;
  while (i < hi) {
    B: assert(i >= 0);
    assert(i < n);
    assert(p >= 0);
    assert(p < n);
    if (arr[i] < pivot) {
      t = arr[i];
      arr[i] = arr[p];
      arr[p] = t;
      i = i + 1;
      p = p + 1;
    } else {
      i = i + 1;
    }
  }
  assert(p >= 0);
  assert(p < n);
  t = arr[p];
  arr[p] = arr[hi];
  arr[hi] = t;
  quicksort(lo, p - 1, n);
  quicksort(p + 1, hi, n);
}
